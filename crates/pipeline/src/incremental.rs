//! Table repair after a batch of edge updates, cell by cell, in the
//! stack's one shortest-path-tree order (DESIGN.md §14).
//!
//! Step 9 orders a node's records for one source by `(d, l, parent)`
//! ([`Best::improved_by`]). `l` grows by one on every hop, so that order
//! is strict along every edge even at weight 0, and a table row is the
//! *unique* assignment in which every node `v` other than the source
//! holds the least `(d(u) + w, l(u) + 1, u)` over its in-edges `(u, v)`
//! — whether a quiet Algorithm-1 run wrote it (whatever `γ`, `Δ` and
//! the schedule were) or [`dw_seqref::dijkstra()`] did. So after a batch
//! a row can be repaired in place of re-solved, Ramalingam–Reps style,
//! and the result is the row a cold solve of the patched graph would
//! write, to the last tie:
//!
//! 0. **reach** — [`RowRepair::reaches`], `O(|changes|)`: a row none of
//!    whose tree edges got heavier or vanished, and on which every
//!    changed edge still present is strictly slack, stands as it is;
//! 1. **detach** — a changed edge `(u, v)` that was `v`'s tree edge and
//!    got heavier or vanished detaches `v`'s subtree (read off the
//!    stored parents); every other record is still a real path of the
//!    patched graph;
//! 2. **re-attach** — each detached node takes the least candidate over
//!    its patched in-edges from nodes that were not detached;
//! 3. **seed** — each changed edge that is present after the batch is
//!    offered to its head, ties in `l` and parent id included;
//! 4. **settle** — a Dijkstra over `(d, l)` from the records written so
//!    far, relaxing patched out-edges with the same three-part
//!    comparison. A node whose parent alone changed is not re-queued:
//!    what it offers its out-neighbours depends on `(d, l)` only.

use crate::node::Best;
use crate::result::HkSspResult;
use dw_congest::EngineConfig;
use dw_graph::{NetChange, NodeId, WGraph, Weight, INFINITY};
use dw_seqref::hops_from_parents_into;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What the repair did to a node's cell in the row at hand.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cell {
    Kept,
    /// Lost its tree path to the batch; re-attached (or left
    /// unreachable) from scratch.
    Detached,
    /// Kept its path and was offered a better record.
    Improved,
}

/// One source's `(d, l, parent)` columns, as [`HkSspResult`] lays them
/// out: an unreachable node is `(INFINITY, 0, None)`, the source
/// `(0, 0, None)`.
struct Row<'a> {
    dist: &'a mut [Weight],
    hops: &'a mut [u64],
    parent: &'a mut [Option<NodeId>],
}

impl Row<'_> {
    /// `v`'s record the way the node program holds it: none while
    /// unreachable, and the source names itself as parent.
    fn best(&self, v: NodeId) -> Option<Best> {
        let i = v as usize;
        (self.dist[i] != INFINITY).then(|| Best {
            d: self.dist[i],
            l: self.hops[i],
            parent: self.parent[i].unwrap_or(v),
        })
    }

    fn set(&mut self, v: NodeId, d: Weight, l: u64, parent: Option<NodeId>) {
        let i = v as usize;
        self.dist[i] = d;
        self.hops[i] = l;
        self.parent[i] = parent;
    }
}

/// Did the batch make this edge heavier, or remove it?
fn got_heavier(c: &NetChange) -> bool {
    match (c.old, c.new) {
        (Some(old), Some(new)) => new > old,
        (Some(_), None) => true,
        (None, _) => false,
    }
}

/// The repair of one batch, holding the patched graph, the batch's net
/// changes and the scratch that is reused from row to row.
pub struct RowRepair<'a> {
    g: &'a WGraph,
    changes: &'a [NetChange],
    cell: Vec<Cell>,
    /// The nodes whose `cell` is not `Kept`, in the order they were
    /// first touched. The detach phase also uses it as its queue.
    touched: Vec<NodeId>,
    heap: BinaryHeap<Reverse<(Weight, u64, NodeId)>>,
    /// The stack of [`RowRepair::restore_hops`]' walk.
    chain: Vec<usize>,
}

impl<'a> RowRepair<'a> {
    /// `g` is the graph *after* the batch, `changes` the batch's
    /// normalized net effect on it ([`WGraph::apply_updates`]).
    pub fn new(g: &'a WGraph, changes: &'a [NetChange]) -> Self {
        RowRepair {
            g,
            changes,
            cell: vec![Cell::Kept; g.n()],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            chain: Vec::new(),
        }
    }

    /// Restore the hop column of `source`'s row from its parents into
    /// `hops`, the column [`RowRepair::repair`] reads
    /// ([`dw_seqref::hops_from_parents`]; the walk's stack is kept from
    /// row to row). `false`: the parents are not a tree rooted at
    /// `source`, and the row cannot be repaired.
    pub fn restore_hops(
        &mut self,
        source: NodeId,
        dist: &[Weight],
        parent: &[Option<NodeId>],
        hops: &mut Vec<u64>,
    ) -> bool {
        let n = self.g.n();
        hops_from_parents_into(n, source, dist, parent, hops, &mut self.chain)
    }

    /// Can the batch touch a cell of the row `(dist, parent)`, which
    /// held on the graph before it? `O(|changes|)` reads, nothing
    /// written, no parent followed: did a tree edge of this row get
    /// heavier or vanish, or is a changed edge that is still present
    /// tight or better (`d(u) + w ≤ d(v)`, either orientation when the
    /// graph is undirected)? `false` means [`RowRepair::repair`] would
    /// touch nothing — a slack edge is offered to its head and loses —
    /// so the caller can carry the row without copying it. Columns that
    /// do not span the graph count as reached.
    pub fn reaches(&self, dist: &[Weight], parent: &[Option<NodeId>]) -> bool {
        let n = self.g.n();
        if dist.len() != n || parent.len() != n {
            return true;
        }
        let undirected = !self.g.is_directed();
        let hits = |u: NodeId, v: NodeId, c: &NetChange| {
            (got_heavier(c) && parent[v as usize] == Some(u))
                || c.new.is_some_and(|w| {
                    let du = dist[u as usize];
                    du != INFINITY && du.saturating_add(w) <= dist[v as usize]
                })
        };
        self.changes
            .iter()
            .any(|c| hits(c.src, c.dst, c) || (undirected && hits(c.dst, c.src, c)))
    }

    /// Repair `source`'s row, which held on the graph before the batch,
    /// so that it holds on the graph after it. Returns the number of
    /// cells touched (detached, or offered a better record); 0 means
    /// the columns were not written.
    ///
    /// Given the canonical row of the old graph the result is the
    /// canonical row of the patched one. Parent ids are only ever
    /// compared, never used as indices.
    pub fn repair(
        &mut self,
        source: NodeId,
        dist: &mut [Weight],
        hops: &mut [u64],
        parent: &mut [Option<NodeId>],
    ) -> usize {
        let n = self.g.n();
        assert!(
            (source as usize) < n && dist.len() == n && hops.len() == n && parent.len() == n,
            "row of source {source} does not span the graph's {n} nodes"
        );
        let mut row = Row { dist, hops, parent };
        for c in self.changes {
            if got_heavier(c) {
                self.detach_subtree(&mut row, c.src, c.dst);
                if !self.g.is_directed() {
                    self.detach_subtree(&mut row, c.dst, c.src);
                }
            }
        }
        self.reattach_and_settle(&mut row)
    }

    fn detach(&mut self, row: &mut Row, v: NodeId) {
        self.cell[v as usize] = Cell::Detached;
        self.touched.push(v);
        row.set(v, INFINITY, 0, None);
    }

    /// If `(u, v)` is `v`'s tree edge, detach `v` and everything below
    /// it. A child of `x` is an out-neighbour naming `x` as its parent;
    /// reading the patched out-edges is enough, because a tree edge the
    /// batch removed makes its head a root of its own.
    fn detach_subtree(&mut self, row: &mut Row, u: NodeId, v: NodeId) {
        if row.parent[v as usize] != Some(u) {
            return;
        }
        let mut next = self.touched.len();
        self.detach(row, v);
        while let Some(&x) = self.touched.get(next) {
            next += 1;
            for &(c, _) in self.g.out_edges(x) {
                if row.parent[c as usize] == Some(x) {
                    self.detach(row, c);
                }
            }
        }
    }

    fn reattach_and_settle(&mut self, row: &mut Row) -> usize {
        for i in 0..self.touched.len() {
            let v = self.touched[i];
            for &(u, w) in self.g.in_edges(v) {
                if self.cell[u as usize] != Cell::Detached {
                    self.relax(row, u, v, w);
                }
            }
        }
        for c in self.changes {
            if let Some(w) = c.new {
                self.relax(row, c.src, c.dst, w);
                if !self.g.is_directed() {
                    self.relax(row, c.dst, c.src, w);
                }
            }
        }
        while let Some(Reverse((d, l, v))) = self.heap.pop() {
            if (row.dist[v as usize], row.hops[v as usize]) != (d, l) {
                continue; // superseded by a better record for `v`
            }
            for &(x, w) in self.g.out_edges(v) {
                self.relax(row, v, x, w);
            }
        }
        let cells = self.touched.len();
        for v in self.touched.drain(..) {
            self.cell[v as usize] = Cell::Kept;
        }
        cells
    }

    /// Offer `v` the record `(d(u) + w, l(u) + 1, u)`; queue `v` if its
    /// `(d, l)` moved.
    fn relax(&mut self, row: &mut Row, u: NodeId, v: NodeId, w: Weight) {
        let d = row.dist[u as usize].saturating_add(w);
        if d == INFINITY {
            return; // `u` is unreachable (or the path has outgrown `Weight`)
        }
        let l = row.hops[u as usize] + 1;
        let moved = match row.best(v) {
            Some(b) if !b.improved_by(d, l, u) => return,
            Some(b) => (b.d, b.l) != (d, l),
            None => true,
        };
        if moved {
            self.heap.push(Reverse((d, l, v)));
        }
        row.set(v, d, l, Some(u));
        if self.cell[v as usize] == Cell::Kept {
            self.cell[v as usize] = Cell::Improved;
            self.touched.push(v);
        }
    }
}

/// The outcome of an incremental recompute: the repaired result (same
/// source order as the old one) and what the repair touched.
#[derive(Debug, Clone)]
pub struct IncrementalOutcome {
    pub result: HkSspResult,
    /// Sources with at least one touched cell.
    pub recomputed: Vec<NodeId>,
    /// Sources whose rows stand as they were.
    pub reused: Vec<NodeId>,
    /// Touched `(source, node)` cells over all rows.
    pub cells: usize,
}

/// Bring `old` (computed on the pre-patch graph) up to the *patched*
/// graph `g`, given the batch's normalized `changes`, by repairing each
/// row ([`RowRepair::repair`]). `old` must be the output of a quiet
/// Algorithm-1 run — [`crate::apsp_auto`], or any run at a `Δ` no
/// smaller than the true eccentricity — and the result then equals a
/// cold run on `g`, `hops` and `parent` included.
///
/// The last argument is unused — the repair runs no engine — and is
/// only there so that `benchmark/src/layers.rs`, which calls this with
/// four arguments, keeps compiling (`benchmark/README.md`, "What
/// `layers.rs` calls"). Drop it when that file is next opened.
pub fn recompute_incremental(
    g: &WGraph,
    old: &HkSspResult,
    changes: &[NetChange],
    _engine: EngineConfig,
) -> IncrementalOutcome {
    let mut result = old.clone();
    let mut repair = RowRepair::new(g, changes);
    let (mut recomputed, mut reused, mut cells) = (Vec::new(), Vec::new(), 0);
    for (i, &s) in old.sources.iter().enumerate() {
        let touched = repair.repair(
            s,
            &mut result.dist[i],
            &mut result.hops[i],
            &mut result.parent[i],
        );
        cells += touched;
        if touched > 0 {
            recomputed.push(s);
        } else {
            reused.push(s);
        }
    }
    IncrementalOutcome {
        result,
        recomputed,
        reused,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::k_ssp;
    use dw_congest::RunOutcome;
    use dw_graph::gen::{self, WeightDist};
    use dw_graph::{Edge, EdgeUpdate};
    use dw_seqref::{apsp_dijkstra, max_finite_distance};

    /// A quiet Algorithm-1 run from `sources` on `g`.
    fn cold(g: &WGraph, sources: &[NodeId]) -> HkSspResult {
        let mut delta = max_finite_distance(g).max(1);
        loop {
            let (res, _, outcome) = k_ssp(g, sources.to_vec(), delta, EngineConfig::default());
            if outcome == RunOutcome::Quiet {
                return res;
            }
            delta *= 2;
        }
    }

    fn all(g: &WGraph) -> Vec<NodeId> {
        g.nodes().collect()
    }

    /// Patch `g`, repair a cold solve of the old graph, and hold the
    /// result against a cold solve of the patched one and, as a second
    /// reference that shares no code with either, against Dijkstra:
    /// dist, hops and parent of every cell.
    fn repaired(g: &mut WGraph, sources: &[NodeId], updates: &[EdgeUpdate]) -> IncrementalOutcome {
        let old = cold(g, sources);
        let summary = g.apply_updates(updates).unwrap();
        let out = recompute_incremental(g, &old, &summary.changes, EngineConfig::default());
        assert_eq!(out.result, cold(g, sources));
        out.result.check_against_dijkstra(g).unwrap();
        assert_eq!(out.recomputed.len() + out.reused.len(), sources.len());
        out
    }

    fn repaired_apsp(g: &mut WGraph, updates: &[EdgeUpdate]) -> IncrementalOutcome {
        let sources = all(g);
        repaired(g, &sources, updates)
    }

    fn digraph(n: usize, edges: &[(NodeId, NodeId, Weight)]) -> WGraph {
        WGraph::from_edge_list(n, true, edges.iter().map(|&(u, v, w)| Edge::new(u, v, w)))
    }

    fn set(src: NodeId, dst: NodeId, w: Weight) -> EdgeUpdate {
        EdgeUpdate::SetWeight { src, dst, w }
    }

    fn ins(src: NodeId, dst: NodeId, w: Weight) -> EdgeUpdate {
        EdgeUpdate::Insert { src, dst, w }
    }

    fn del(src: NodeId, dst: NodeId) -> EdgeUpdate {
        EdgeUpdate::Remove { src, dst }
    }

    #[test]
    fn incremental_matches_from_scratch_distances() {
        let mut g = gen::gnp_connected(18, 0.15, false, WeightDist::Uniform { max: 9 }, 21);
        let out = repaired_apsp(&mut g, &[set(0, 1, 1), ins(2, 9, 3)]);
        let oracle = apsp_dijkstra(&g);
        for (i, &s) in out.result.sources.iter().enumerate() {
            assert_eq!(out.result.dist[i], oracle.dist[s as usize], "source {s}");
        }
    }

    #[test]
    fn clean_rows_are_carried_verbatim() {
        let mut g = gen::grid2d(4, 4, WeightDist::Uniform { max: 5 }, 9);
        let old = cold(&g, &all(&g));
        // A very heavy new edge beats no record of any source.
        let out = repaired_apsp(&mut g, &[ins(0, 15, 10_000)]);
        assert!(out.recomputed.is_empty());
        assert_eq!(out.cells, 0);
        assert_eq!(out.result, old);
    }

    #[test]
    fn a_bridge_stretched_far_past_the_old_distances_needs_no_delta() {
        let mut g = gen::path(6, false, WeightDist::Constant(1), 0);
        let out = repaired_apsp(&mut g, &[set(2, 3, 500)]);
        // Every row crosses the bridge to three nodes.
        assert_eq!(out.recomputed.len(), 6);
        assert_eq!(out.cells, 6 * 3);
    }

    #[test]
    fn removing_a_bridge_leaves_the_subtree_unreachable() {
        let mut g = digraph(5, &[(0, 1, 2), (1, 2, 0), (2, 3, 4), (2, 4, 1)]);
        let out = repaired(&mut g, &[0], &[del(1, 2)]);
        for v in [2, 3, 4] {
            assert_eq!(out.result.dist[0][v], INFINITY);
            assert_eq!(out.result.hops[0][v], 0);
            assert_eq!(out.result.parent[0][v], None);
        }
        assert_eq!(out.cells, 3);
    }

    #[test]
    fn an_insert_reconnects_an_unreachable_component() {
        let mut g = digraph(5, &[(0, 1, 2), (2, 3, 4), (3, 4, 0), (4, 2, 0)]);
        let out = repaired(&mut g, &[0, 3], &[ins(1, 3, 1)]);
        assert_eq!(out.result.dist[0], vec![0, 2, 3, 3, 3]);
        assert_eq!(out.result.hops[0], vec![0, 1, 4, 2, 3]);
        assert_eq!(out.recomputed, vec![0]);
        assert_eq!(out.reused, vec![3]);
    }

    #[test]
    fn a_zero_weight_cycle_settles_by_hop_count() {
        // 0 → 1 → 2 → 3 → 1 is all zeros: distances cannot order the
        // cycle, hop counts do.
        let mut g = digraph(5, &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 1, 0), (3, 4, 2)]);
        let out = repaired_apsp(&mut g, &[set(1, 2, 3), ins(0, 3, 0)]);
        assert_eq!(out.result.dist[0], vec![0, 0, 3, 0, 2]);
        assert_eq!(out.result.hops[0], vec![0, 1, 2, 1, 2]);
    }

    #[test]
    fn a_tie_in_distance_is_broken_by_hops_then_by_parent_id() {
        // 0 → 2 → 3 → 4, and 0 → 1 dangling.
        let base = [(0, 2, 1), (2, 3, 1), (3, 4, 1), (0, 1, 1)];

        // 0 → 3 at the old distance: 3 changes hop count and parent, 4
        // below it changes its hop count only.
        let mut g = digraph(5, &base);
        let before = cold(&g, &[0]);
        let out = repaired(&mut g, &[0], &[ins(0, 3, 2)]);
        assert_eq!(out.result.dist, before.dist);
        assert_eq!(out.result.parent[0][4], before.parent[0][4]);
        assert_eq!((before.hops[0][4], out.result.hops[0][4]), (3, 2));
        assert_eq!(out.cells, 2);

        // 1 → 3 at the old distance and hop count: only 3's parent
        // moves, to the smaller id, and nothing below 3 is touched.
        let mut g = digraph(5, &base);
        let out = repaired(&mut g, &[0], &[ins(1, 3, 1)]);
        assert_eq!(out.result.dist, before.dist);
        assert_eq!(out.result.hops, before.hops);
        assert_eq!(
            (before.parent[0][3], out.result.parent[0][3]),
            (Some(2), Some(1))
        );
        assert_eq!(out.cells, 1);
    }

    #[test]
    fn an_increase_and_a_decrease_under_one_subtree() {
        // The increase on (0, 1) detaches 1..=4; the decrease on (2, 3)
        // sits inside the detached subtree; 0 → 2 is the way back in.
        let mut g = digraph(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 4), (3, 4, 1), (0, 2, 7)]);
        let out = repaired(&mut g, &[0], &[set(0, 1, 9), set(2, 3, 1)]);
        assert_eq!(out.result.dist[0], vec![0, 9, 7, 8, 9]);
        assert_eq!(out.result.parent[0][2], Some(0));
    }

    #[test]
    fn an_undirected_edge_is_hit_in_the_orientation_the_change_does_not_name() {
        // The change is normalized to (1, 2); from source 3 the tree
        // edge runs 2 → 1.
        let mut g = gen::path(4, false, WeightDist::Constant(1), 0);
        g.apply_updates(&[ins(0, 3, 5)]).unwrap();
        let out = repaired(&mut g, &[0, 3], &[del(2, 1)]);
        assert_eq!(out.result.dist[1], vec![5, 6, 1, 0]);
        assert_eq!(out.result.parent[1][1], Some(0));

        let mut g = gen::path(4, false, WeightDist::Constant(1), 0);
        repaired(&mut g, &[0, 3], &[set(2, 1, 8)]);
    }

    #[test]
    fn the_source_cell_is_never_touched() {
        // Zero-weight edges into the source offer it (0, l ≥ 1, _),
        // which loses to its own (0, 0, _) on hop count.
        let mut g = digraph(3, &[(0, 1, 0), (1, 2, 0)]);
        let out = repaired(&mut g, &[0], &[ins(1, 0, 0), ins(2, 0, 0)]);
        assert_eq!(out.cells, 0);
        assert_eq!(
            (
                out.result.dist[0][0],
                out.result.hops[0][0],
                out.result.parent[0][0]
            ),
            (0, 0, None)
        );
    }

    #[test]
    fn a_batch_that_nets_out_touches_nothing() {
        let mut g = gen::grid2d(3, 3, WeightDist::Constant(2), 0);
        let out = repaired_apsp(&mut g, &[ins(0, 8, 1), del(0, 8), set(0, 1, 2)]);
        assert_eq!(out.cells, 0);
        assert!(out.recomputed.is_empty());
    }

    /// A splitmix64 step: enough randomness to draw updates from without
    /// a dev-dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn chained_batches_equal_cold_runs_including_hops() {
        let graphs = [
            gen::zero_heavy(20, 0.15, 0.6, 5, true, 1),
            gen::power_law(20, 2, WeightDist::Uniform { max: 4 }, 2),
            gen::grid2d(
                4,
                5,
                WeightDist::ZeroOr {
                    p_zero: 0.3,
                    max: 3,
                },
                3,
            ),
        ];
        let mut rng = 0x5eed;
        for mut g in graphs {
            let sources = all(&g);
            let mut cur = cold(&g, &sources);
            for batch in 0..6 {
                let size = 1 + next(&mut rng) % 12;
                let updates: Vec<EdgeUpdate> = (0..size)
                    .map(|_| {
                        let src = (next(&mut rng) % 20) as NodeId;
                        let dst = (src + 1 + (next(&mut rng) % 19) as NodeId) % 20;
                        match next(&mut rng) % 3 {
                            0 => del(src, dst),
                            _ => set(src, dst, next(&mut rng) % 5),
                        }
                    })
                    .collect();
                let summary = g.apply_updates(&updates).unwrap();
                let out =
                    recompute_incremental(&g, &cur, &summary.changes, EngineConfig::default());
                assert_eq!(out.result, cold(&g, &sources), "batch {batch}");
                // A row the batch does not reach is a row it leaves alone.
                let repair = RowRepair::new(&g, &summary.changes);
                for (i, s) in sources.iter().enumerate() {
                    assert!(
                        repair.reaches(&cur.dist[i], &cur.parent[i]) || !out.recomputed.contains(s),
                        "batch {batch}: source {s} was touched unreached"
                    );
                }
                cur = out.result;
            }
        }
    }
}
