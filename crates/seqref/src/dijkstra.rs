//! Dijkstra's algorithm with non-negative (including zero) weights,
//! writing the stack's one shortest-path-tree order.
//!
//! Distances alone do not pick a tree: equally short paths tie, and at
//! weight 0 they tie in bulk. The paper's Step 9 orders a node's records
//! by `(d, l, parent)` — distance, then hop count, then the sender's id
//! — and `l` grows by one per hop, so that order is strict along every
//! edge. The tree in which every node other than the source holds the
//! least `(d(u) + w, l(u) + 1, u)` over its in-edges `(u, v)` is
//! therefore unique (DESIGN.md §14). It is what a quiet Algorithm-1 run
//! writes, what [`dijkstra`] writes, what `dw_pipeline::RowRepair`
//! maintains under edge updates, and what [`verify_row`] checks cell by
//! cell without solving anything.
//!
//! The hop count `l` is a cell's depth in the parent tree, so a row
//! needs no hop column to be the tree: tables persist distance and
//! parent only, [`hops_from_parents`] restores `l` by a bounded walk up
//! the parents, and [`hops_match`] checks, in one pass with no walk, a
//! column somebody carried beside a row. It accepts exactly the column
//! the walk would restore, so a carried column is never trusted, only
//! checked.

use dw_graph::{NodeId, WGraph, Weight, INFINITY};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A heap entry of the tree order: `(d, l, v)` packed into one `u128`
/// as `d << 64 | l << 32 | v`. Each field has bits of its own, most
/// significant first, so the integer order is exactly the `(d, l, v)`
/// order, and a min-heap of keys pops by distance, then hop count, then
/// node id. [`dijkstra`] and `dw_pipeline::RowRepair`'s settle phase
/// both queue these; the hop count is at most `n - 1`, which fits the
/// 4 bytes of a node id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct HeapKey(u128);

impl HeapKey {
    /// Pack `(d, l, v)` into one key.
    pub fn new(d: Weight, l: u32, v: NodeId) -> HeapKey {
        HeapKey(u128::from(d) << 64 | u128::from(l) << 32 | u128::from(v))
    }

    /// `(d, l, v)` back out of the key.
    pub fn parts(self) -> (Weight, u32, NodeId) {
        (
            (self.0 >> 64) as Weight,
            (self.0 >> 32) as u32,
            self.0 as NodeId,
        )
    }
}

/// Result of a single-source run: `dist[v]` and `parent[v]` (the
/// smallest-id predecessor on a path of that weight with the fewest
/// edges). An unreachable node is `(INFINITY, None)`, the source
/// `(0, None)`. The hop count `l` the order is read by is the cell's
/// depth in the parent tree: rows are kept by the hundred and tables are
/// built from `dist` and `parent` alone, so whoever needs it restores it
/// with [`hops_from_parents`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsspResult {
    pub source: NodeId,
    pub dist: Vec<Weight>,
    pub parent: Vec<Option<NodeId>>,
}

/// Single-source shortest paths from `s` (directed semantics; for
/// undirected graphs the adjacency already mirrors edges), in the
/// `(d, l, parent)` order of the module header.
///
/// The heap is keyed on one [`HeapKey`]: 16 bytes an entry, one integer
/// comparison a sift step, popped in `(d, l, v)` order. `(d, l)`
/// strictly grows along every edge, so a node popped at its current pair
/// is settled, and every in-neighbour that ties for a node's `(d, l)` is
/// settled before the node is — which is when the smallest of them has
/// been written as its parent. The hop column is scratch (`l < n` fits
/// the 4 bytes of a node id) and is not returned.
pub fn dijkstra(g: &WGraph, s: NodeId) -> SsspResult {
    let n = g.n();
    let mut dist = vec![INFINITY; n];
    let mut hops = vec![0u32; n];
    let mut parent = vec![None; n];
    let mut heap: BinaryHeap<Reverse<HeapKey>> = BinaryHeap::with_capacity(n);
    dist[s as usize] = 0;
    heap.push(Reverse(HeapKey::new(0, 0, s)));
    while let Some(Reverse(key)) = heap.pop() {
        let (d, l, v) = key.parts();
        if (dist[v as usize], hops[v as usize]) != (d, l) {
            continue; // stale entry
        }
        for &(u, w) in g.out_edges(v) {
            let (nd, ui) = (d + w, u as usize);
            if nd > dist[ui] {
                continue;
            }
            let nl = l + 1;
            if nd < dist[ui] || nl < hops[ui] {
                dist[ui] = nd;
                hops[ui] = nl;
                parent[ui] = Some(v);
                heap.push(Reverse(HeapKey::new(nd, nl, u)));
            } else if nl == hops[ui] && parent[ui].is_some_and(|p| v < p) {
                parent[ui] = Some(v);
            }
        }
    }
    SsspResult {
        source: s,
        dist,
        parent,
    }
}

/// Every node's depth in the tree the parent pointers of `source`'s row
/// draw. Tables persist distance and parent only; in the canonical tree
/// the hop count `l` of a cell is its depth, so this restores the column
/// the order is read by.
///
/// The columns may come from a file whose decoder checks column length
/// and source range, not tree shape, so this is a bounded walk: each
/// node is resolved once, a walk up marks its chain and stops at the
/// first resolved node, and meeting its own chain again is a cycle.
/// `None` unless the columns span `0..n`, the source sits at
/// `(0, None)`, every other reachable node chains up to it through
/// parents `< n`, and unreachable nodes have no parent.
pub fn hops_from_parents(
    n: usize,
    source: NodeId,
    dist: &[Weight],
    parent: &[Option<NodeId>],
) -> Option<Vec<u64>> {
    let mut hops = Vec::new();
    hops_from_parents_into(n, source, dist, parent, &mut hops, &mut Vec::new()).then_some(hops)
}

/// [`hops_from_parents`] into buffers the caller keeps from row to row:
/// `hops` is overwritten with the column (its contents are unspecified
/// when the parents are refused) and `chain` is the walk's stack.
/// `false` exactly where [`hops_from_parents`] returns `None`.
pub fn hops_from_parents_into(
    n: usize,
    source: NodeId,
    dist: &[Weight],
    parent: &[Option<NodeId>],
    hops: &mut Vec<u64>,
    chain: &mut Vec<usize>,
) -> bool {
    const UNRESOLVED: u64 = u64::MAX;
    const ON_CHAIN: u64 = u64::MAX - 1;
    let s = source as usize;
    if dist.len() != n || parent.len() != n || s >= n || (dist[s], parent[s]) != (0, None) {
        return false;
    }
    hops.clear();
    hops.resize(n, UNRESOLVED);
    hops[s] = 0;
    chain.clear();
    for v in 0..n {
        let mut at = v;
        while hops[at] == UNRESOLVED {
            if dist[at] == INFINITY {
                if parent[at].is_some() {
                    return false;
                }
                hops[at] = 0;
            } else {
                let Some(p) = parent[at].map(|p| p as usize).filter(|&p| p < n) else {
                    return false;
                };
                hops[at] = ON_CHAIN;
                chain.push(at);
                at = p;
            }
        }
        if hops[at] == ON_CHAIN || (dist[at] == INFINITY && !chain.is_empty()) {
            return false; // a cycle, or a path hanging off an unreachable node
        }
        let mut depth = hops[at];
        while let Some(c) = chain.pop() {
            depth += 1;
            hops[c] = depth;
        }
    }
    true
}

/// Is `hops` the column [`hops_from_parents`] restores from these
/// parents? One pass, nothing allocated, no parent followed: it accepts
/// exactly when `hops_from_parents(n, source, dist, parent)` is
/// `Some(hops)`.
///
/// The columns must span `0..n` and the source sit at `(0, None, 0)`;
/// every other reachable cell's parent must be `< n`, reachable, and
/// one hop shallower; `None` may appear only at the source and at
/// unreachable cells, whose hop count is 0. Those are local consequences
/// of a walk that succeeds. Conversely, hop counts that fall by one
/// along every parent pointer cannot close a cycle, and a chain of
/// reachable cells can only stop at the one reachable cell with no
/// parent, the source — so the walk succeeds, and the depth it assigns
/// is the hop count, by induction up the chain.
///
/// A hop column is derived data: whoever holds one beside a row (a
/// repaired table row) trusts it only after this check.
pub fn hops_match(
    n: usize,
    source: NodeId,
    dist: &[Weight],
    parent: &[Option<NodeId>],
    hops: &[u64],
) -> bool {
    let s = source as usize;
    if dist.len() != n || parent.len() != n || hops.len() != n || s >= n {
        return false;
    }
    if (dist[s], parent[s], hops[s]) != (0, None, 0) {
        return false;
    }
    let mut cells = dist.iter().zip(parent).zip(hops).enumerate();
    cells.all(|(v, ((&d, &p), &l))| match p {
        None => v == s || (d == INFINITY && l == 0),
        Some(p) => {
            let p = p as usize;
            d != INFINITY && p < n && dist[p] != INFINITY && l.checked_sub(1) == Some(hops[p])
        }
    })
}

/// Is `source`'s row the canonical tree of `g`? Returns its hop column,
/// or the first cell that is not: the parents must draw a tree rooted
/// at the source ([`hops_from_parents`]), every other reachable cell
/// must equal the least `(d(u) + w, l(u) + 1, u)` over its in-edges, and
/// an unreachable cell must have no reachable in-neighbour. That
/// assignment is unique, so an accepted row is [`dijkstra`]'s — at
/// `O(m)` a row, with no heap and no second solver.
///
/// This is a check for *tables*: full-range rows (`h = n − 1`, no `Δ`
/// truncation). A hop-bounded `(h, k)`-SSP row or the Bellman–Ford
/// baseline's tree is a valid witness without being this tree; those
/// keep [`crate::verify_sssp_witnesses`].
pub fn verify_row(
    g: &WGraph,
    source: NodeId,
    dist: &[Weight],
    parent: &[Option<NodeId>],
) -> Result<Vec<u64>, String> {
    let hops = hops_from_parents(g.n(), source, dist, parent)
        .ok_or_else(|| format!("source {source}: the parents are not a tree rooted at it"))?;
    for v in g.nodes().filter(|&v| v != source) {
        let least = g
            .in_edges(v)
            .iter()
            .filter(|&&(u, _)| dist[u as usize] != INFINITY)
            .map(|&(u, w)| {
                (
                    dist[u as usize].saturating_add(w),
                    hops[u as usize] + 1,
                    Some(u),
                )
            })
            .min();
        let vi = v as usize;
        let cell = (dist[vi] != INFINITY).then_some((dist[vi], hops[vi], parent[vi]));
        if cell != least {
            return Err(format!(
                "source {source}, node {v}: holds {cell:?}, its in-edges offer {least:?}"
            ));
        }
    }
    Ok(hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_graph::gen::{self, WeightDist};
    use dw_graph::{Edge, GraphBuilder};

    #[test]
    fn simple_path() {
        let g = gen::path(4, true, WeightDist::Constant(3), 0);
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist, vec![0, 3, 6, 9]);
        assert_eq!(r.parent, vec![None, Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn zero_weight_cycle_is_fine() {
        let mut b = GraphBuilder::new(3, true);
        b.add_edge(0, 1, 0).add_edge(1, 2, 0).add_edge(2, 0, 0);
        let r = dijkstra(&b.build(), 0);
        assert_eq!(r.dist, vec![0, 0, 0]);
    }

    #[test]
    fn chooses_zero_detour_over_direct_heavy_edge() {
        let mut b = GraphBuilder::new(4, true);
        b.add_edge(0, 3, 10);
        b.add_edge(0, 1, 0).add_edge(1, 2, 0).add_edge(2, 3, 0);
        let r = dijkstra(&b.build(), 0);
        assert_eq!(r.dist[3], 0);
        assert_eq!(r.parent[3], Some(2));
    }

    #[test]
    fn unreachable_stays_infinite() {
        let mut b = GraphBuilder::new(3, true);
        b.add_edge(1, 0, 1); // 0 cannot reach 1 or 2
        let r = dijkstra(&b.build(), 0);
        assert_eq!(r.dist, vec![0, dw_graph::INFINITY, dw_graph::INFINITY]);
    }

    #[test]
    fn directed_respects_orientation() {
        let mut b = GraphBuilder::new(2, true);
        b.add_edge(1, 0, 5);
        let r = dijkstra(&b.build(), 0);
        assert_eq!(r.dist[1], dw_graph::INFINITY);
        let r1 = dijkstra(&b.build(), 1);
        assert_eq!(r1.dist[0], 5);
    }

    #[test]
    fn matches_floyd_warshall_on_random_graph() {
        let g = gen::gnp(
            30,
            0.2,
            true,
            WeightDist::ZeroOr {
                p_zero: 0.3,
                max: 9,
            },
            11,
        );
        let fw = crate::floyd_warshall::floyd_warshall(&g);
        for s in g.nodes() {
            let r = dijkstra(&g, s);
            for v in g.nodes() {
                assert_eq!(r.dist[v as usize], fw[s as usize][v as usize], "{s}->{v}");
            }
        }
    }

    /// DESIGN.md §14's G₁: node 4 is reached through 2 and through 3 at
    /// the same distance and hop count. Node 5 is isolated.
    const G1: [(NodeId, NodeId, Weight); 4] = [(0, 2, 1), (0, 3, 1), (2, 4, 1), (3, 4, 1)];

    fn digraph(n: usize, edges: &[(NodeId, NodeId, Weight)]) -> WGraph {
        WGraph::from_edge_list(n, true, edges.iter().map(|&(u, v, w)| Edge::new(u, v, w)))
    }

    fn hops(r: &SsspResult) -> Vec<u64> {
        hops_from_parents(r.dist.len(), r.source, &r.dist, &r.parent)
            .expect("dijkstra writes a tree")
    }

    #[test]
    fn a_tie_in_distance_is_broken_by_hops_then_by_parent_id() {
        let r = dijkstra(&digraph(6, &G1), 0);
        assert_eq!((r.dist[4], hops(&r)[4], r.parent[4]), (2, 2, Some(2)));
        // G₂ reaches 2 through 5 at weight 0: the same distance, one hop
        // more, so 3 now offers node 4 the fewer hops.
        let g2 = [(0, 5, 1), (5, 2, 0), (0, 3, 1), (2, 4, 1), (3, 4, 1)];
        let r = dijkstra(&digraph(6, &g2), 0);
        assert_eq!(r.dist, vec![0, INFINITY, 1, 1, 2, 1]);
        assert_eq!(hops(&r), vec![0, 0, 2, 1, 2, 1]);
        assert_eq!(r.parent[4], Some(3));
    }

    #[test]
    fn hops_are_tree_depths_and_a_bad_parent_column_is_refused() {
        const INF: u64 = INFINITY;
        // 1 is the source; 1 → 0 → 3; 2 is unreachable.
        let (dist, parent) = ([4, 0, INF, 4], [Some(1), None, None, Some(0)]);
        assert_eq!(
            hops_from_parents(4, 1, &dist, &parent),
            Some(vec![1, 0, 0, 2])
        );
        assert_eq!(hops_from_parents(5, 1, &dist, &parent), None); // columns do not span n

        let refused = |what: &str, source, dist: &[Weight], parent: &[Option<NodeId>]| {
            let hops = hops_from_parents(dist.len(), source, dist, parent);
            assert_eq!(hops, None, "{what}");
        };
        refused("cycle", 0, &[0, 1, 1], &[None, Some(2), Some(1)]);
        refused("self loop", 0, &[0, 1], &[None, Some(1)]);
        refused("parent out of range", 0, &[0, 1], &[None, Some(2)]);
        refused("no parent", 0, &[0, 1], &[None, None]);
        let hanging = [None, None, Some(1)];
        refused("hangs off an unreachable node", 0, &[0, INF, 3], &hanging);
        refused("unreachable with a parent", 0, &[0, INF], &[None, Some(0)]);
        refused("source has a parent", 0, &[0, 1], &[Some(1), Some(0)]);
        refused("source not at distance 0", 0, &[2, 3], &[None, Some(0)]);
        refused("source out of range", 7, &[0, 1], &[None, Some(0)]);
    }

    #[test]
    fn verify_row_accepts_dijkstra_rows_on_a_zero_heavy_graph() {
        let g = gen::zero_heavy(40, 0.08, 0.5, 6, true, 3);
        for s in g.nodes() {
            let r = dijkstra(&g, s);
            assert_eq!(verify_row(&g, s, &r.dist, &r.parent), Ok(hops(&r)));
        }
    }

    #[test]
    fn verify_row_names_the_first_cell_that_is_not_canonical() {
        let g = digraph(6, &G1);
        let good = dijkstra(&g, 0);
        let rejected = |edit: &dyn Fn(&mut SsspResult)| {
            let mut r = good.clone();
            edit(&mut r);
            verify_row(&g, 0, &r.dist, &r.parent).expect_err("not the canonical row")
        };
        // A real shortest path, through the larger of two tied parents.
        assert!(rejected(&|r| r.parent[4] = Some(3)).contains("node 4"));
        assert!(rejected(&|r| r.dist[4] = 3).contains("node 4"));
        // Reachable through 2 and 3, yet marked unreachable.
        let unreached = rejected(&|r| (r.dist[4], r.parent[4]) = (INFINITY, None));
        assert!(unreached.contains("node 4"));
        // An isolated node given a distance and a parent that is no in-edge.
        assert!(rejected(&|r| (r.dist[5], r.parent[5]) = (1, Some(0))).contains("node 5"));
        for not_a_tree in [
            rejected(&|r| (r.parent[2], r.parent[4]) = (Some(4), Some(2))),
            rejected(&|r| r.parent[4] = Some(6)),
            rejected(&|r| r.parent.truncate(5)),
        ] {
            assert!(not_a_tree.contains("not a tree"), "{not_a_tree}");
        }
    }

    /// 40 nodes; the zero-heavy one is not forced connected, so its rows
    /// have unreachable cells.
    fn sample_graph(family: usize, seed: u64) -> WGraph {
        match family {
            0 => {
                let zero_heavy = WeightDist::ZeroOr {
                    p_zero: 0.5,
                    max: 6,
                };
                gen::gnp(40, 0.05, true, zero_heavy, seed)
            }
            1 => gen::grid(5, 8, false, WeightDist::Uniform { max: 5 }, seed),
            _ => gen::power_law(40, 2, WeightDist::Uniform { max: 4 }, seed),
        }
    }

    /// Break `r` the way `verify_row_names_the_first_cell_that_is_not_canonical`
    /// does, at the `pick`-th cell that admits it (unchanged if none does):
    /// 0 nothing, 1 a cycle, 2 a parent ≥ n, 3 a reachable cell without a
    /// parent, 4 an unreachable cell with a parent, 5 a path hanging off
    /// an unreachable cell, 6 a short column.
    fn corrupt(r: &mut SsspResult, how: usize, pick: usize) {
        let n = r.dist.len();
        let s = r.source as usize;
        let reached: Vec<usize> = (0..n)
            .filter(|&v| v != s && r.dist[v] != INFINITY)
            .collect();
        let inner: Vec<usize> = reached
            .iter()
            .filter_map(|&v| r.parent[v].map(|p| p as usize))
            .filter(|&p| p != s)
            .collect();
        let nth = |of: &[usize]| (!of.is_empty()).then(|| of[pick % of.len()]);
        match how {
            1 => {
                if let Some(p) = nth(&inner) {
                    let child = reached.iter().find(|&&v| r.parent[v] == Some(p as NodeId));
                    r.parent[p] = child.map(|&c| c as NodeId);
                }
            }
            2 => {
                if let Some(v) = nth(&reached) {
                    r.parent[v] = Some((n + pick % 3) as NodeId);
                }
            }
            3 => {
                if let Some(v) = nth(&reached) {
                    r.parent[v] = None;
                }
            }
            4 => {
                if let Some(v) = nth(&reached) {
                    r.dist[v] = INFINITY;
                }
            }
            5 => {
                if let Some(x) = nth(&inner) {
                    (r.dist[x], r.parent[x]) = (INFINITY, None);
                }
            }
            6 => {
                r.dist.pop();
                r.parent.pop();
            }
            _ => {}
        }
    }

    /// The column a check that reads each cell against its parent alone
    /// would want for `r`: 0 at the source, at unreachable cells and at
    /// cells without a usable parent, else the parent's plus one, filled
    /// in the order of `depth` (a good row's depths). It is the column a
    /// check missing one of `hops_match`'s clauses would wrongly accept.
    fn local_column(r: &SsspResult, n: usize, depth: &[u64]) -> Vec<u64> {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| depth[v]);
        let mut col = vec![0; n];
        for v in order {
            let p = r.parent.get(v).copied().flatten().map(|p| p as usize);
            if let Some(p) = p.filter(|&p| p < n && r.dist.get(v) != Some(&INFINITY)) {
                col[v] = col[p] + 1;
            }
        }
        col
    }

    /// A key field near the bottom of `0..=max` (`kind` 0), near its top
    /// (1), or anywhere (2): two keys drawn this way often tie on a field.
    fn key_field(kind: u64, raw: u64, max: u64) -> u64 {
        match kind {
            0 => raw % 3,
            1 => max - raw % 3,
            _ => raw & max,
        }
    }

    /// The `(d, l, v)` triple that `kinds` (one base-3 digit a field) and
    /// three raw draws pick.
    fn key_triple(kinds: u64, d: u64, l: u64, v: u64) -> (Weight, u32, NodeId) {
        let max = u64::from(u32::MAX);
        (
            key_field(kinds % 3, d, INFINITY),
            key_field(kinds / 3 % 3, l, max) as u32,
            key_field(kinds / 9, v, max) as NodeId,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        // A packed key gives its triple back and orders exactly as the
        // triple does, `d` near `INFINITY` and `l` near `u32::MAX`
        // included.
        #[test]
        fn a_heap_key_round_trips_and_orders_as_its_triple(
            kinds_a in 0u64..27,
            kinds_b in 0u64..27,
            da: u64, la: u64, va: u64,
            db: u64, lb: u64, vb: u64,
        ) {
            let a = key_triple(kinds_a, da, la, va);
            let b = key_triple(kinds_b, db, lb, vb);
            let (ka, kb) = (HeapKey::new(a.0, a.1, a.2), HeapKey::new(b.0, b.1, b.2));
            proptest::prop_assert_eq!(ka.parts(), a);
            proptest::prop_assert_eq!(kb.parts(), b);
            proptest::prop_assert_eq!(ka.cmp(&kb), a.cmp(&b), "{:?} vs {:?}", a, b);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        // `hops_match` accepts a column exactly when the walk restores
        // that column: over Dijkstra rows of zero-heavy directed, grid
        // and power-law graphs, each broken one of the ways above, and
        // columns that are right, one cell off, another row's, of the
        // wrong length, or locally consistent with a broken tree.
        #[test]
        fn hops_match_accepts_exactly_the_column_the_walk_restores(
            family in 0usize..3,
            seed in 0u64..1000,
            source in 0u32..40,
            other in 0u32..40,
            how in 0usize..7,
            pick in 0usize..1000,
            off_by in 0usize..2,
        ) {
            let g = sample_graph(family, seed);
            let n = g.n();
            let mut r = dijkstra(&g, source);
            let good = hops(&r);
            corrupt(&mut r, how, pick);
            let walked = hops_from_parents(n, r.source, &r.dist, &r.parent);

            let mut one_off = good.clone();
            let c = pick % n;
            one_off[c] = if off_by == 1 || one_off[c] == 0 { one_off[c] + 1 } else { one_off[c] - 1 };
            let (mut longer, mut shorter) = (good.clone(), good.clone());
            longer.push(0);
            shorter.pop();
            let mut columns = vec![
                good.clone(),
                one_off,
                hops(&dijkstra(&g, other)),
                longer,
                shorter,
                local_column(&r, n, &good),
            ];
            columns.extend(walked.clone());
            for col in &columns {
                let accepted = hops_match(n, r.source, &r.dist, &r.parent, col);
                proptest::prop_assert_eq!(accepted, walked.as_ref() == Some(col), "how {}", how);
            }
        }
    }
}
