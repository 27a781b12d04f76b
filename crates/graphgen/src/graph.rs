//! The core weighted graph type and its one constructor.

/// Node identifier. The paper assigns IDs in `1..poly(n)`; we use dense
/// `0..n` which is equivalent up to relabeling and keeps adjacency arrays
/// compact.
pub type NodeId = u32;

/// Non-negative integer edge weight (zero allowed). The paper assumes
/// weights representable in `B = O(log n)` bits; `u64` is ample.
pub type Weight = u64;

/// Sentinel for "unreachable" distances.
pub const INFINITY: Weight = Weight::MAX;

/// A single weighted edge `src -> dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    pub src: NodeId,
    pub dst: NodeId,
    pub w: Weight,
}

impl Edge {
    pub fn new(src: NodeId, dst: NodeId, w: Weight) -> Self {
        Edge { src, dst, w }
    }
}

/// A weighted graph with non-negative integer edge weights, stored in
/// compressed sparse row (CSR) form: one flat packed array per adjacency
/// kind plus an `n+1`-entry offset table, so per-node rows are contiguous
/// slices and whole-graph scans walk a single allocation. This is what
/// keeps the engine's send/receive phases cache-friendly at 100k+ nodes;
/// the per-node-`Vec` layout it replaced scattered rows across the heap.
///
/// * For **directed** graphs, row `v` of `out` holds edges leaving `v`
///   and row `v` of `inc` edges entering `v`.
/// * For **undirected** graphs, every edge `{u,v}` appears in both rows
///   of both arrays so that the directed code paths work unchanged.
///
/// `comm` row `v` is the neighborhood of `v` in the *underlying
/// undirected* communication graph `U_G` — the set of nodes `v` shares a
/// CONGEST link with, regardless of edge direction (paper Section I-B).
///
/// Invariants (enforced by [`WGraph::from_edge_list`], the one
/// constructor):
/// * no self loops;
/// * no parallel edges (the minimum weight is kept);
/// * adjacency rows sorted by neighbor id (determinism).
///
/// Because rows are sorted and concatenated in node order, two logically
/// equal graphs have byte-identical CSR arrays, so the derived
/// `PartialEq` still means logical equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WGraph {
    pub(crate) n: usize,
    pub(crate) directed: bool,
    pub(crate) m: usize,
    pub(crate) out_off: Vec<usize>,
    pub(crate) out_adj: Vec<(NodeId, Weight)>,
    pub(crate) inc_off: Vec<usize>,
    pub(crate) inc_adj: Vec<(NodeId, Weight)>,
    pub(crate) comm_off: Vec<usize>,
    pub(crate) comm_adj: Vec<NodeId>,
}

impl WGraph {
    /// The one constructor: every graph in the workspace is built here,
    /// by a counting sort over the edge list. Self loops are dropped,
    /// parallel edges keep the minimum weight, an undirected edge is one
    /// logical edge whichever way round it is given, and an endpoint
    /// `>= n` panics.
    ///
    /// Out rows are counted, prefix-summed and scattered, then each row
    /// is sorted and keeps its first (lightest) entry per neighbour. The
    /// in rows mirror the out rows, and each communication row merges
    /// the node's out and in rows. Time O(n + m + Σ d log d), no
    /// per-node allocation.
    pub fn from_edge_list(n: usize, directed: bool, edges: impl IntoIterator<Item = Edge>) -> Self {
        let edges: Vec<Edge> = edges
            .into_iter()
            .inspect(|e| {
                assert!(
                    (e.src as usize) < n && (e.dst as usize) < n,
                    "edge ({}, {}) out of range for n={n}",
                    e.src,
                    e.dst
                )
            })
            .filter(|e| e.src != e.dst)
            .collect();
        let forward = edges.iter().map(|e| (e.src, (e.dst, e.w)));
        let backward = (edges.iter().filter(|_| !directed)).map(|e| (e.dst, (e.src, e.w)));
        let (mut out_off, mut out_adj) = scatter(n, forward.chain(backward));
        drop(edges);

        // Sort each row by (neighbour, weight) and compact it in place to
        // its first entry per neighbour.
        let mut kept = 0;
        for v in 0..n {
            let (lo, hi) = (out_off[v], out_off[v + 1]);
            out_adj[lo..hi].sort_unstable();
            out_off[v] = kept;
            for i in lo..hi {
                if kept == out_off[v] || out_adj[kept - 1].0 != out_adj[i].0 {
                    out_adj[kept] = out_adj[i];
                    kept += 1;
                }
            }
        }
        out_off[n] = kept;
        out_adj.truncate(kept);
        out_adj.shrink_to_fit();
        let m = if directed { kept } else { kept / 2 };

        // In rows: scattering the out rows in source order leaves each in
        // row sorted by source. Undirected rows are their own mirror.
        let (inc_off, inc_adj) = if directed {
            scatter(
                n,
                (0..n).flat_map(|u| {
                    out_adj[out_off[u]..out_off[u + 1]]
                        .iter()
                        .map(move |&(v, w)| (v, (u as NodeId, w)))
                }),
            )
        } else {
            (out_off.clone(), out_adj.clone())
        };

        // Communication rows: the sorted union of each node's out and in
        // neighbours.
        let mut comm_off = Vec::with_capacity(n + 1);
        let mut comm_adj = Vec::with_capacity(if directed { 2 * kept } else { kept });
        comm_off.push(0);
        for v in 0..n {
            let out = &out_adj[out_off[v]..out_off[v + 1]];
            let inc = &inc_adj[inc_off[v]..inc_off[v + 1]];
            let (mut i, mut j) = (0, 0);
            while i < out.len() || j < inc.len() {
                let a = out.get(i).map_or(NodeId::MAX, |e| e.0);
                let b = inc.get(j).map_or(NodeId::MAX, |e| e.0);
                i += usize::from(a <= b);
                j += usize::from(b <= a);
                comm_adj.push(a.min(b));
            }
            comm_off.push(comm_adj.len());
        }
        comm_adj.shrink_to_fit();

        WGraph {
            n,
            directed,
            m,
            out_off,
            out_adj,
            inc_off,
            inc_adj,
            comm_off,
            comm_adj,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of (logical) edges `m`: directed edge count for directed
    /// graphs, undirected edge count for undirected graphs.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Whether the graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Out-neighbors of `v` with weights, sorted by neighbor id.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[(NodeId, Weight)] {
        let v = v as usize;
        &self.out_adj[self.out_off[v]..self.out_off[v + 1]]
    }

    /// In-neighbors of `v` with weights, sorted by neighbor id.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[(NodeId, Weight)] {
        let v = v as usize;
        &self.inc_adj[self.inc_off[v]..self.inc_off[v + 1]]
    }

    /// Communication neighbors of `v` in the underlying undirected graph.
    #[inline]
    pub fn comm_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.comm_adj[self.comm_off[v]..self.comm_off[v + 1]]
    }

    /// Degree of `v` in the communication graph.
    #[inline]
    pub fn comm_degree(&self, v: NodeId) -> usize {
        self.comm_off[v as usize + 1] - self.comm_off[v as usize]
    }

    /// The weight of edge `u -> v`, if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        let row = self.out_edges(u);
        row.binary_search_by_key(&v, |&(d, _)| d)
            .ok()
            .map(|i| row[i].1)
    }

    /// Iterator over all logical edges. For undirected graphs each edge is
    /// yielded once with `src < dst`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |u| {
            self.out_edges(u).iter().filter_map(move |&(v, w)| {
                if self.directed || u < v {
                    Some(Edge::new(u, v, w))
                } else {
                    None
                }
            })
        })
    }

    /// Iterator over node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.n as NodeId
    }

    /// Largest edge weight `W` (0 for edgeless graphs).
    pub fn max_weight(&self) -> Weight {
        self.out_adj.iter().map(|&(_, w)| w).max().unwrap_or(0)
    }

    /// Number of zero-weight edges (logical count, like [`WGraph::m`]).
    pub fn zero_weight_edges(&self) -> usize {
        self.edges().filter(|e| e.w == 0).count()
    }

    /// The subgraph containing only zero-weight edges (same node set).
    /// Used by the approximate-APSP zero-closure step (paper Section IV).
    pub fn zero_subgraph(&self) -> WGraph {
        WGraph::from_edge_list(self.n, self.directed, self.edges().filter(|e| e.w == 0))
    }

    /// Apply `f` to every edge weight, producing a new graph with the same
    /// topology. Used by the Section IV weight transform and by the
    /// approximate-APSP scale rounding.
    pub fn map_weights(&self, mut f: impl FnMut(Edge) -> Weight) -> WGraph {
        let mut mapped = self.clone();
        for u in self.nodes() {
            let (lo, hi) = (self.out_off[u as usize], self.out_off[u as usize + 1]);
            for i in lo..hi {
                let (v, w) = self.out_adj[i];
                mapped.out_adj[i].1 = f(Edge::new(u, v, w));
            }
        }
        // Mirror the mapped out-weights into the in-adjacency.
        for v in self.nodes() {
            let (lo, hi) = (self.inc_off[v as usize], self.inc_off[v as usize + 1]);
            for i in lo..hi {
                let u = self.inc_adj[i].0;
                mapped.inc_adj[i].1 = mapped
                    .edge_weight(u, v)
                    .expect("in-edge must mirror an out-edge");
            }
        }
        mapped
    }

    /// Resident bytes of the CSR arrays themselves — the irreducible
    /// storage cost of the graph, used to derive memory budgets for the
    /// scale smoke test.
    pub fn csr_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.out_off.len() + self.inc_off.len() + self.comm_off.len()) * size_of::<usize>()
            + (self.out_adj.len() + self.inc_adj.len()) * size_of::<(NodeId, Weight)>()
            + self.comm_adj.len() * size_of::<NodeId>()
    }
}

/// Counting sort of `(row, entry)` pairs into CSR offsets and entries,
/// each row in input order. `pairs` is walked twice: count, then place.
fn scatter<T: Copy + Default>(
    n: usize,
    pairs: impl Iterator<Item = (NodeId, T)> + Clone,
) -> (Vec<usize>, Vec<T>) {
    let mut off = vec![0usize; n + 1];
    pairs.clone().for_each(|(u, _)| off[u as usize + 1] += 1);
    for v in 1..=n {
        off[v] += off[v - 1];
    }
    let mut next = off.clone();
    let mut adj = vec![T::default(); off[n]];
    pairs.for_each(|(u, entry)| {
        adj[next[u as usize]] = entry;
        next[u as usize] += 1;
    });
    (off, adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond(directed: bool) -> WGraph {
        let mut b = GraphBuilder::new(4, directed);
        b.add_edge(0, 1, 2);
        b.add_edge(0, 2, 0);
        b.add_edge(1, 3, 1);
        b.add_edge(2, 3, 5);
        b.build()
    }

    #[test]
    fn directed_adjacency() {
        let g = diamond(true);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.out_edges(0), &[(1, 2), (2, 0)]);
        assert_eq!(g.in_edges(3), &[(1, 1), (2, 5)]);
        assert_eq!(g.out_edges(3), &[]);
        assert!(g.is_directed());
    }

    #[test]
    fn undirected_adjacency_mirrors() {
        let g = diamond(false);
        assert_eq!(g.m(), 4);
        assert_eq!(g.out_edges(3), &[(1, 1), (2, 5)]);
        assert_eq!(g.in_edges(3), &[(1, 1), (2, 5)]);
        assert_eq!(g.comm_neighbors(0), &[1, 2]);
    }

    #[test]
    fn comm_neighbors_union_of_directions() {
        let mut b = GraphBuilder::new(3, true);
        b.add_edge(0, 1, 7);
        b.add_edge(2, 0, 3);
        let g = b.build();
        assert_eq!(g.comm_neighbors(0), &[1, 2]);
        assert_eq!(g.comm_neighbors(1), &[0]);
        assert_eq!(g.comm_neighbors(2), &[0]);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = diamond(true);
        assert_eq!(g.edge_weight(0, 2), Some(0));
        assert_eq!(g.edge_weight(2, 0), None);
        assert_eq!(g.edge_weight(1, 3), Some(1));
    }

    #[test]
    fn edges_iterator_counts() {
        let gd = diamond(true);
        assert_eq!(gd.edges().count(), 4);
        let gu = diamond(false);
        assert_eq!(gu.edges().count(), 4);
        assert!(gu.edges().all(|e| e.src < e.dst));
    }

    #[test]
    fn zero_subgraph_keeps_only_zero_edges() {
        let g = diamond(true);
        let z = g.zero_subgraph();
        assert_eq!(z.m(), 1);
        assert_eq!(z.edge_weight(0, 2), Some(0));
        assert_eq!(z.n(), 4);
    }

    #[test]
    fn map_weights_transform() {
        let g = diamond(true);
        let t = g.map_weights(|e| if e.w == 0 { 1 } else { e.w * 10 });
        assert_eq!(t.edge_weight(0, 2), Some(1));
        assert_eq!(t.edge_weight(0, 1), Some(20));
        assert_eq!(t.in_edges(3), &[(1, 10), (2, 50)]);
    }

    #[test]
    fn max_weight_and_zero_count() {
        let g = diamond(true);
        assert_eq!(g.max_weight(), 5);
        assert_eq!(g.zero_weight_edges(), 1);
    }

    #[test]
    fn from_edge_list_matches_builder() {
        for directed in [true, false] {
            let edges = [
                Edge::new(0, 1, 2),
                Edge::new(0, 2, 0),
                Edge::new(1, 3, 1),
                Edge::new(2, 3, 5),
            ];
            let g = WGraph::from_edge_list(4, directed, edges);
            assert_eq!(g, diamond(directed));
        }
    }

    #[test]
    fn from_edge_list_dedups_min_and_drops_loops() {
        let edges = [
            Edge::new(1, 0, 9),
            Edge::new(0, 1, 4), // parallel (undirected): min kept
            Edge::new(2, 2, 1), // self loop: dropped
            Edge::new(1, 2, 3),
        ];
        let g = WGraph::from_edge_list(3, false, edges);
        assert_eq!(g.m(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(4));
        assert_eq!(g.edge_weight(1, 0), Some(4));
        assert_eq!(g.edge_weight(1, 2), Some(3));

        let gd = WGraph::from_edge_list(3, true, edges);
        assert_eq!(gd.m(), 3); // (1,0) and (0,1) are distinct directed edges
        assert_eq!(gd.edge_weight(1, 0), Some(9));
        assert_eq!(gd.comm_neighbors(1), &[0, 2]);
    }

    #[test]
    fn from_edge_list_isolated_nodes_have_empty_rows() {
        let g = WGraph::from_edge_list(5, false, [Edge::new(1, 3, 7)]);
        for v in [0u32, 2, 4] {
            assert!(g.out_edges(v).is_empty());
            assert!(g.in_edges(v).is_empty());
            assert_eq!(g.comm_degree(v), 0);
        }
        assert_eq!(g.comm_neighbors(3), &[1]);
    }
}
