//! Per-node local view of a CSSSP collection.
//!
//! After Step 1 of Algorithm 3 every node locally knows, for each tree
//! `i` (rooted at `sources[i]`): whether it belongs to the tree, its
//! depth, its parent, and its children (parents are learned during the
//! `(2h,k)`-SSP run; children by a one-round notification). This module
//! packages that knowledge for the score/update protocols.

use dw_graph::NodeId;
use dw_pipeline::Csssp;
use std::sync::Arc;

/// Local tree knowledge of one node across all `k` trees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTrees {
    /// `parent[i]`: parent in tree `i` (`None` at the root or outside).
    pub parent: Vec<Option<NodeId>>,
    /// `children[i]`: children in tree `i`.
    pub children: Vec<Vec<NodeId>>,
    /// `depth[i]`: hop depth in tree `i` (`u64::MAX` outside).
    pub depth: Vec<u64>,
}

impl NodeTrees {
    /// Is this node in tree `i`?
    pub fn in_tree(&self, i: usize) -> bool {
        self.depth[i] != u64::MAX
    }
}

/// Shared immutable knowledge: one [`NodeTrees`] per node, plus the tree
/// parameters.
#[derive(Debug, Clone)]
pub struct TreeKnowledge {
    pub sources: Vec<NodeId>,
    pub h: u64,
    pub per_node: Arc<Vec<NodeTrees>>,
}

impl TreeKnowledge {
    /// Extract from a built CSSSP collection.
    pub fn from_csssp(c: &Csssp) -> Self {
        let n = c.n();
        let k = c.k();
        let per_node: Vec<NodeTrees> = (0..n)
            .map(|v| NodeTrees {
                parent: (0..k).map(|i| c.parent[i][v]).collect(),
                children: (0..k).map(|i| c.children[i][v].clone()).collect(),
                depth: (0..k)
                    .map(|i| {
                        if c.in_tree(i, v as NodeId) {
                            c.hops[i][v]
                        } else {
                            u64::MAX
                        }
                    })
                    .collect(),
            })
            .collect();
        TreeKnowledge {
            sources: c.sources.clone(),
            h: c.h,
            per_node: Arc::new(per_node),
        }
    }

    pub fn k(&self) -> usize {
        self.sources.len()
    }

    pub fn n(&self) -> usize {
        self.per_node.len()
    }

    /// The node's view.
    pub fn node(&self, v: NodeId) -> &NodeTrees {
        &self.per_node[v as usize]
    }
}

/// Test fixture of the crate: a zero-heavy random graph (weights up to
/// `max_w`) and the knowledge of its h-hop CSSSP over all nodes.
#[cfg(test)]
pub(crate) fn fixture(
    n: usize,
    h: u64,
    max_w: u64,
    seed: u64,
) -> (dw_graph::WGraph, TreeKnowledge) {
    let g = dw_graph::gen::zero_heavy(n, 0.18, 0.4, max_w, true, seed);
    let delta = dw_seqref::max_finite_h_hop_distance(&g, 2 * h as usize).max(1);
    let sources: Vec<NodeId> = g.nodes().collect();
    let engine = dw_congest::EngineConfig::default();
    let rec = &mut dw_congest::NullRecorder;
    let (c, _) = dw_pipeline::build_csssp(&g, &sources, h, delta, engine, rec);
    let know = TreeKnowledge::from_csssp(&c);
    (g, know)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_congest::EngineConfig;
    use dw_congest::NullRecorder;
    use dw_graph::gen;
    use dw_pipeline::build_csssp;

    #[test]
    fn knowledge_mirrors_csssp() {
        let g = gen::zero_heavy(12, 0.2, 0.4, 4, true, 2);
        let delta = dw_seqref::max_finite_h_hop_distance(&g, 8).max(1);
        let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let (c, _) = build_csssp(
            &g,
            &sources,
            4,
            delta,
            EngineConfig::default(),
            &mut NullRecorder,
        );
        let k = TreeKnowledge::from_csssp(&c);
        assert_eq!(k.k(), g.n());
        assert_eq!(k.n(), g.n());
        for v in g.nodes() {
            for i in 0..k.k() {
                assert_eq!(k.node(v).in_tree(i), c.in_tree(i, v));
                if c.in_tree(i, v) {
                    assert_eq!(k.node(v).depth[i], c.hops[i][v as usize]);
                    assert_eq!(k.node(v).parent[i], c.parent[i][v as usize]);
                }
            }
        }
    }
}
