//! An edge collector for [`WGraph`].

use crate::graph::{Edge, NodeId, WGraph, Weight};

/// Incremental builder for [`WGraph`]: collects range-checked edges and
/// hands them to [`WGraph::from_edge_list`], which drops self loops,
/// keeps the minimum weight of parallel edges and sorts the rows.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    directed: bool,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// A builder for an `n`-node graph.
    pub fn new(n: usize, directed: bool) -> Self {
        assert!(n <= NodeId::MAX as usize, "node count exceeds NodeId range");
        GraphBuilder {
            n,
            directed,
            edges: Vec::new(),
        }
    }

    /// Add edge `src -> dst` with weight `w`. Self loops are ignored (they
    /// never participate in shortest paths with non-negative weights).
    /// Parallel edges keep the minimum weight.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, w: Weight) -> &mut Self {
        assert!((src as usize) < self.n, "src {src} out of range");
        assert!((dst as usize) < self.n, "dst {dst} out of range");
        self.edges.push(Edge::new(src, dst, w));
        self
    }

    /// Add every edge in `iter`.
    pub fn extend(
        &mut self,
        iter: impl IntoIterator<Item = (NodeId, NodeId, Weight)>,
    ) -> &mut Self {
        for (s, d, w) in iter {
            self.add_edge(s, d, w);
        }
        self
    }

    /// Finalize into a [`WGraph`].
    pub fn build(&self) -> WGraph {
        WGraph::from_edge_list(self.n, self.directed, self.edges.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_loops_ignored() {
        let mut b = GraphBuilder::new(2, true);
        b.add_edge(0, 0, 5).add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.out_edges(0), &[(1, 1)]);
    }

    #[test]
    fn parallel_edges_keep_min_weight() {
        let mut b = GraphBuilder::new(2, true);
        b.add_edge(0, 1, 5).add_edge(0, 1, 3).add_edge(0, 1, 9);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3));
    }

    #[test]
    fn undirected_normalizes_endpoints() {
        let mut b = GraphBuilder::new(3, false);
        b.add_edge(2, 1, 4).add_edge(1, 2, 2);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(1, 2), Some(2));
        assert_eq!(g.edge_weight(2, 1), Some(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut b = GraphBuilder::new(2, true);
        b.add_edge(0, 2, 1);
    }

    #[test]
    fn extend_adds_all() {
        let mut b = GraphBuilder::new(4, true);
        b.extend([(0, 1, 1), (1, 2, 2), (2, 3, 0)]);
        assert_eq!(b.build().m(), 3);
    }
}
