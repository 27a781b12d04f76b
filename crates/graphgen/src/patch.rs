//! In-place CSR patching for dynamic graphs.
//!
//! A batch of [`EdgeUpdate`]s is first *normalized* into per-edge
//! [`NetChange`]s — the net effect of the batch on each logical edge,
//! measured against the graph's current state, with no-ops dropped —
//! and then applied by [`WGraph::apply_updates`], which rebuilds only
//! the adjacency slabs of touched rows and splices them into the
//! existing `out` / `inc` / `comm` arrays (`splice_rows`): each
//! untouched span between two touched rows moves at most once, by
//! `copy_within`, and offsets change only from the first touched row
//! on. A batch costs the rows it touches plus the spans it has to
//! shift; no array is rebuilt or cloned, and once an array has grown
//! to its working size a batch allocates nothing proportional to `m`.
//! The patched graph is byte-identical to a from-scratch
//! [`WGraph::from_edge_list`] rebuild of the final edge set, so every
//! invariant the rest of the workspace relies on (sorted rows,
//! canonical CSR, derived `PartialEq` == logical equality) survives
//! updates.

use crate::graph::{NodeId, WGraph, Weight};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// One edge-level update event. `Insert` and `SetWeight` are both
/// upserts (two names for intent: feeding an `Insert` for an existing
/// edge re-weights it, a `SetWeight` for a missing edge creates it);
/// `Remove` deletes the edge if present. For undirected graphs the
/// `(src, dst)` pair names the logical edge in either orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeUpdate {
    Insert { src: NodeId, dst: NodeId, w: Weight },
    SetWeight { src: NodeId, dst: NodeId, w: Weight },
    Remove { src: NodeId, dst: NodeId },
}

impl EdgeUpdate {
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            EdgeUpdate::Insert { src, dst, .. }
            | EdgeUpdate::SetWeight { src, dst, .. }
            | EdgeUpdate::Remove { src, dst } => (src, dst),
        }
    }
}

/// The net effect of a batch on one logical edge: its weight before the
/// batch (`None` = absent) and after. Normalization guarantees
/// `old != new`, endpoints in range, no self loops, and for undirected
/// graphs `src < dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetChange {
    pub src: NodeId,
    pub dst: NodeId,
    pub old: Option<Weight>,
    pub new: Option<Weight>,
}

/// Why a batch was rejected. Updates are all-or-nothing: a rejected
/// batch leaves the graph untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchError {
    /// An endpoint is outside `0..n`.
    OutOfRange { src: NodeId, dst: NodeId },
    /// Self loops are not representable (the graph invariant drops
    /// them); an update naming one is a caller bug, surfaced typed.
    SelfLoop { node: NodeId },
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::OutOfRange { src, dst } => {
                write!(f, "edge ({src}, {dst}) out of node range")
            }
            PatchError::SelfLoop { node } => write!(f, "self loop on node {node}"),
        }
    }
}

impl std::error::Error for PatchError {}

/// What a successfully applied batch did, in logical-edge terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatchSummary {
    /// The normalized per-edge net changes, sorted by `(src, dst)`.
    /// This is what the table repair reads.
    pub changes: Vec<NetChange>,
    /// Edges created by the batch.
    pub inserted: usize,
    /// Edges deleted by the batch.
    pub removed: usize,
    /// Edges whose weight changed.
    pub reweighted: usize,
    /// Updates whose net effect was nothing (e.g. a remove of an absent
    /// edge, or an insert later removed within the same batch).
    pub noops: usize,
}

/// Fold a batch into its net per-edge effect against `g`'s current
/// state. Later updates to the same edge win; updates whose final state
/// equals the current state are counted as no-ops and dropped.
pub fn normalize_updates(
    g: &WGraph,
    updates: &[EdgeUpdate],
) -> Result<(Vec<NetChange>, usize), PatchError> {
    let n = g.n() as NodeId;
    let mut fin: BTreeMap<(NodeId, NodeId), Option<Weight>> = BTreeMap::new();
    for u in updates {
        let (src, dst) = u.endpoints();
        if src >= n || dst >= n {
            return Err(PatchError::OutOfRange { src, dst });
        }
        if src == dst {
            return Err(PatchError::SelfLoop { node: src });
        }
        let key = if !g.is_directed() && src > dst {
            (dst, src)
        } else {
            (src, dst)
        };
        let state = match *u {
            EdgeUpdate::Insert { w, .. } | EdgeUpdate::SetWeight { w, .. } => Some(w),
            EdgeUpdate::Remove { .. } => None,
        };
        fin.insert(key, state);
    }
    let mut changes = Vec::new();
    let mut noops = 0usize;
    for ((src, dst), new) in fin {
        let old = g.edge_weight(src, dst);
        if old == new {
            noops += 1;
        } else {
            changes.push(NetChange { src, dst, old, new });
        }
    }
    Ok((changes, noops))
}

/// Merge one sorted adjacency row with its sorted edit list.
/// `Some(w)` upserts the neighbor at weight `w`, `None` deletes it.
fn merge_row(
    old: &[(NodeId, Weight)],
    edits: &[(NodeId, Option<Weight>)],
    out: &mut Vec<(NodeId, Weight)>,
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() || j < edits.len() {
        if j == edits.len() || (i < old.len() && old[i].0 < edits[j].0) {
            out.push(old[i]);
            i += 1;
        } else {
            if i < old.len() && old[i].0 == edits[j].0 {
                i += 1; // replaced or deleted
            }
            if let Some(w) = edits[j].1 {
                out.push((edits[j].0, w));
            }
            j += 1;
        }
    }
}

/// Replace rows of the CSR pair `(off, adj)` in place. `rows` names the
/// replaced rows in increasing order, each with its new contents as a
/// range of `contents`.
///
/// The untouched span after each replaced row (up to the next one)
/// moves by the net growth of the replaced rows before it, and moves
/// once, by `copy_within`: first every span that moves left, left to
/// right, then every span that moves right, right to left. Neither pass
/// overwrites a span that has yet to move — a span's new place ends
/// before the old place of any later span that moves left, and starts
/// after the old place of any earlier span that moves right, because
/// the new layout keeps the spans in order. The replaced rows' old
/// contents may be overwritten; they are no longer read.
fn splice_rows<T: Copy + Default>(
    off: &mut [usize],
    adj: &mut Vec<T>,
    rows: &[(usize, Range<usize>)],
    contents: &[T],
) {
    let n = off.len() - 1;
    let upto = |i: usize| rows.get(i + 1).map_or(n, |next| next.0);
    let mut shifts = Vec::with_capacity(rows.len());
    let mut shift = 0isize;
    for (r, new) in rows {
        shift += new.len() as isize - (off[r + 1] - off[*r]) as isize;
        shifts.push(shift);
    }
    if shift > 0 {
        adj.resize(adj.len() + shift as usize, T::default());
    }
    let left = (0..rows.len()).filter(|&i| shifts[i] < 0);
    let right = (0..rows.len()).rev().filter(|&i| shifts[i] > 0);
    for i in left.chain(right) {
        let from = off[rows[i].0 + 1]..off[upto(i)];
        let to = from.start.wrapping_add_signed(shifts[i]);
        adj.copy_within(from, to);
    }
    for (i, (r, _)) in rows.iter().enumerate() {
        for o in &mut off[r + 1..=upto(i)] {
            *o = o.wrapping_add_signed(shifts[i]);
        }
    }
    for (r, new) in rows {
        adj[off[*r]..off[r + 1]].copy_from_slice(&contents[new.clone()]);
    }
    adj.truncate(off[n]);
}

/// Apply per-row edit lists to a weighted CSR pair in place: merge each
/// edited row into a scratch buffer, then [`splice_rows`] them in.
fn patch_rows(
    off: &mut [usize],
    adj: &mut Vec<(NodeId, Weight)>,
    edits: &BTreeMap<NodeId, Vec<(NodeId, Option<Weight>)>>,
) {
    let mut contents = Vec::new();
    let rows: Vec<_> = edits
        .iter()
        .map(|(&row, row_edits)| {
            let (r, start) = (row as usize, contents.len());
            merge_row(&adj[off[r]..off[r + 1]], row_edits, &mut contents);
            (r, start..contents.len())
        })
        .collect();
    splice_rows(off, adj, &rows, &contents);
}

impl WGraph {
    /// Apply a batch of edge updates in place, rebuilding only the
    /// adjacency slabs of touched rows and splicing them into the
    /// existing arrays (module header). All-or-nothing: on error the
    /// graph is unchanged. The returned [`PatchSummary`] carries the
    /// normalized net changes the table repair reads.
    ///
    /// Postcondition (pinned by tests): `self` equals — byte for byte,
    /// via the canonical CSR layout — `WGraph::from_edge_list` over the
    /// patched logical edge set.
    pub fn apply_updates(&mut self, updates: &[EdgeUpdate]) -> Result<PatchSummary, PatchError> {
        let (changes, noops) = normalize_updates(self, updates)?;
        let mut summary = PatchSummary {
            noops,
            ..PatchSummary::default()
        };
        if changes.is_empty() {
            return Ok(summary);
        }

        // Per-row edit lists for the out- and in-adjacency. Undirected
        // edges mirror into both rows of both arrays.
        let mut out_edits: BTreeMap<NodeId, Vec<(NodeId, Option<Weight>)>> = BTreeMap::new();
        let mut inc_edits: BTreeMap<NodeId, Vec<(NodeId, Option<Weight>)>> = BTreeMap::new();
        for c in &changes {
            match (c.old, c.new) {
                (None, Some(_)) => summary.inserted += 1,
                (Some(_), None) => summary.removed += 1,
                _ => summary.reweighted += 1,
            }
            out_edits.entry(c.src).or_default().push((c.dst, c.new));
            inc_edits.entry(c.dst).or_default().push((c.src, c.new));
            if !self.directed {
                out_edits.entry(c.dst).or_default().push((c.src, c.new));
                inc_edits.entry(c.src).or_default().push((c.dst, c.new));
            }
        }
        for edits in out_edits.values_mut().chain(inc_edits.values_mut()) {
            edits.sort_unstable_by_key(|e| e.0);
        }

        patch_rows(&mut self.out_off, &mut self.out_adj, &out_edits);
        patch_rows(&mut self.inc_off, &mut self.inc_adj, &inc_edits);
        self.m = self.m + summary.inserted - summary.removed;

        // Communication rows only change on membership changes; rebuild
        // the touched nodes' rows as the union of their (new) out and
        // in neighbors.
        let comm_touched: BTreeSet<NodeId> = changes
            .iter()
            .filter(|c| c.old.is_none() != c.new.is_none())
            .flat_map(|c| [c.src, c.dst])
            .collect();
        if !comm_touched.is_empty() {
            let (mut contents, mut nbrs) = (Vec::new(), Vec::new());
            let rows: Vec<_> = comm_touched
                .into_iter()
                .map(|v| {
                    nbrs.clear();
                    let out = self.out_edges(v).iter();
                    nbrs.extend(out.chain(self.in_edges(v)).map(|&(u, _)| u));
                    nbrs.sort_unstable();
                    nbrs.dedup();
                    let start = contents.len();
                    contents.extend_from_slice(&nbrs);
                    (v as usize, start..contents.len())
                })
                .collect();
            splice_rows(&mut self.comm_off, &mut self.comm_adj, &rows, &contents);
        }

        summary.changes = changes;
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, WeightDist};
    use crate::graph::Edge;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The ground truth: rebuild from the patched logical edge set.
    fn rebuilt(g: &WGraph, updates: &[EdgeUpdate]) -> WGraph {
        let directed = g.is_directed();
        let mut fin: BTreeMap<(NodeId, NodeId), Weight> =
            g.edges().map(|e| ((e.src, e.dst), e.w)).collect();
        for u in updates {
            let (src, dst) = u.endpoints();
            let key = if !directed && src > dst {
                (dst, src)
            } else {
                (src, dst)
            };
            match *u {
                EdgeUpdate::Insert { w, .. } | EdgeUpdate::SetWeight { w, .. } => {
                    fin.insert(key, w);
                }
                EdgeUpdate::Remove { .. } => {
                    fin.remove(&key);
                }
            }
        }
        WGraph::from_edge_list(
            g.n(),
            directed,
            fin.into_iter().map(|((s, d), w)| Edge::new(s, d, w)),
        )
    }

    fn random_updates(g: &WGraph, count: usize, seed: u64) -> Vec<EdgeUpdate> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let edges: Vec<Edge> = g.edges().collect();
        let n = g.n() as NodeId;
        (0..count)
            .map(|_| match rng.gen_range(0..4) {
                0 if !edges.is_empty() => {
                    let e = edges[rng.gen_range(0..edges.len())];
                    EdgeUpdate::SetWeight {
                        src: e.src,
                        dst: e.dst,
                        w: rng.gen_range(0..10),
                    }
                }
                1 if !edges.is_empty() => {
                    let e = edges[rng.gen_range(0..edges.len())];
                    EdgeUpdate::Remove {
                        src: e.dst,
                        dst: e.src, // reversed orientation on purpose
                    }
                }
                _ => {
                    let src = rng.gen_range(0..n);
                    let mut dst = rng.gen_range(0..n);
                    if dst == src {
                        dst = (dst + 1) % n;
                    }
                    EdgeUpdate::Insert {
                        src,
                        dst,
                        w: rng.gen_range(0..10),
                    }
                }
            })
            .collect()
    }

    /// A batch that grows the out-row of a node in the first third by one
    /// edge and shrinks the out-row of a node in the middle third by two
    /// (`flip`: shrinks the first by one and grows the second by two), so
    /// that in one batch the span between them moves one way and the
    /// span after the second the other.
    fn grow_then_shrink(g: &WGraph, rng: &mut ChaCha8Rng, flip: bool) -> Vec<EdgeUpdate> {
        let n = g.n() as NodeId;
        let grow = |v: NodeId, by: usize, rng: &mut ChaCha8Rng| -> Vec<EdgeUpdate> {
            let free: Vec<NodeId> = (0..n)
                .filter(|&u| u != v && g.edge_weight(v, u).is_none())
                .collect();
            let from = rng.gen_range(0..free.len());
            let picked: Vec<NodeId> = free.iter().cycle().skip(from).take(by).copied().collect();
            picked
                .into_iter()
                .map(|dst| EdgeUpdate::Insert {
                    src: v,
                    dst,
                    w: rng.gen_range(0..10),
                })
                .collect()
        };
        let shrink = |v: NodeId, by: usize| -> Vec<EdgeUpdate> {
            let out = g.out_edges(v).iter().take(by);
            out.map(|&(dst, _)| EdgeUpdate::Remove { src: v, dst })
                .collect()
        };
        let first = rng.gen_range(0..n / 3);
        let second = rng.gen_range(n / 3..2 * n / 3);
        let (a, b) = if flip {
            (shrink(first, 1), grow(second, 2, rng))
        } else {
            (grow(first, 1, rng), shrink(second, 2))
        };
        a.into_iter().chain(b).collect()
    }

    /// Did the patch move an untouched, non-empty out-row left, and
    /// another one right?
    fn out_spans_moved_both_ways(before: &WGraph, after: &WGraph, touched: &[NetChange]) -> bool {
        let rows: BTreeSet<NodeId> = touched.iter().flat_map(|c| [c.src, c.dst]).collect();
        let moved = |right: bool| {
            before.nodes().any(|v| {
                let (old, new) = (before.out_off[v as usize], after.out_off[v as usize]);
                !rows.contains(&v)
                    && !before.out_edges(v).is_empty()
                    && (new > old) == right
                    && new != old
            })
        };
        moved(true) && moved(false)
    }

    fn assert_same_csr(g: &WGraph, want: &WGraph, what: &str) {
        assert_eq!(
            (g.n, g.directed, g.m),
            (want.n, want.directed, want.m),
            "{what}"
        );
        assert_eq!(
            (&g.out_off, &g.out_adj),
            (&want.out_off, &want.out_adj),
            "{what}: out"
        );
        assert_eq!(
            (&g.inc_off, &g.inc_adj),
            (&want.inc_off, &want.inc_adj),
            "{what}: inc"
        );
        assert_eq!(
            (&g.comm_off, &g.comm_adj),
            (&want.comm_off, &want.comm_adj),
            "{what}: comm"
        );
    }

    #[test]
    fn patched_graph_equals_rebuild() {
        for (directed, seed) in [(false, 1u64), (true, 2), (false, 3), (true, 4)] {
            let mut g = gen::gnp(24, 0.15, directed, WeightDist::Uniform { max: 9 }, seed);
            for round in 0..6 {
                let updates = random_updates(&g, 1 + (round * 7) % 20, seed * 100 + round as u64);
                let want = rebuilt(&g, &updates);
                g.apply_updates(&updates).unwrap();
                assert_eq!(g, want, "directed={directed} seed={seed} round={round}");
            }
        }
        // Chained batches patched in place, one array growing and
        // shrinking under them: random batches of 1..24 updates, and
        // every third batch one that moves spans both ways at once.
        let graphs = [
            (
                "zero-heavy directed",
                gen::zero_heavy(60, 0.06, 0.5, 6, true, 5),
            ),
            (
                "power-law undirected",
                gen::power_law(60, 2, WeightDist::Uniform { max: 9 }, 6),
            ),
            ("grid", gen::grid2d(6, 8, WeightDist::Uniform { max: 9 }, 7)),
        ];
        for (name, mut g) in graphs {
            let mut rng = ChaCha8Rng::seed_from_u64(g.m() as u64);
            let mut both_ways = 0;
            for batch in 0..24 {
                let updates = if batch % 3 == 2 {
                    grow_then_shrink(&g, &mut rng, batch % 2 == 0)
                } else {
                    let size = rng.gen_range(1..24);
                    random_updates(&g, size, rng.gen())
                };
                let (before, want) = (g.clone(), rebuilt(&g, &updates));
                let summary = g.apply_updates(&updates).unwrap();
                assert_same_csr(&g, &want, &format!("{name}, batch {batch}"));
                both_ways += usize::from(out_spans_moved_both_ways(&before, &g, &summary.changes));
            }
            assert!(
                both_ways >= 4,
                "{name}: spans moved both ways in {both_ways} batches"
            );
        }
    }

    #[test]
    fn splicing_moves_spans_both_ways_in_one_call() {
        // Rows of lengths 2, 1, 2, 4, 2. Row 1 grows by 2 and row 3
        // shrinks by 3: row 2 moves right by 2, row 4 left by 1.
        let mut off = vec![0, 2, 3, 5, 9, 11];
        let mut adj: Vec<u32> = vec![10, 11, 20, 30, 31, 40, 41, 42, 43, 50, 51];
        splice_rows(
            &mut off,
            &mut adj,
            &[(1, 0..3), (3, 3..4)],
            &[21, 22, 23, 44],
        );
        assert_eq!(off, [0, 2, 5, 7, 8, 10]);
        assert_eq!(adj, [10, 11, 21, 22, 23, 30, 31, 44, 50, 51]);
        // The reverse: row 1 shrinks by 3 and row 3 grows by 4, so row 2
        // moves left by 3 and row 4 right by 1.
        splice_rows(
            &mut off,
            &mut adj,
            &[(1, 0..0), (3, 0..5)],
            &[45, 46, 47, 48, 49],
        );
        assert_eq!(off, [0, 2, 2, 4, 9, 11]);
        assert_eq!(adj, [10, 11, 30, 31, 45, 46, 47, 48, 49, 50, 51]);
    }

    #[test]
    fn upsert_remove_and_noop_accounting() {
        let mut g = WGraph::from_edge_list(4, false, [Edge::new(0, 1, 2), Edge::new(1, 2, 3)]);
        let summary = g
            .apply_updates(&[
                EdgeUpdate::SetWeight {
                    src: 1,
                    dst: 0,
                    w: 5,
                }, // reweight via mirror
                EdgeUpdate::Insert {
                    src: 2,
                    dst: 3,
                    w: 1,
                }, // new edge
                EdgeUpdate::Remove { src: 1, dst: 2 }, // delete
                EdgeUpdate::Remove { src: 0, dst: 3 }, // absent: noop
            ])
            .unwrap();
        assert_eq!(
            (
                summary.inserted,
                summary.removed,
                summary.reweighted,
                summary.noops
            ),
            (1, 1, 1, 1)
        );
        assert_eq!(g.m(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.edge_weight(1, 0), Some(5));
        assert_eq!(g.edge_weight(1, 2), None);
        assert_eq!(g.comm_neighbors(2), &[3]);
    }

    #[test]
    fn batch_net_effect_wins_over_intermediate_states() {
        let mut g = WGraph::from_edge_list(3, true, [Edge::new(0, 1, 4)]);
        // Insert then remove within one batch: net noop.
        let s = g
            .apply_updates(&[
                EdgeUpdate::Insert {
                    src: 1,
                    dst: 2,
                    w: 9,
                },
                EdgeUpdate::Remove { src: 1, dst: 2 },
                EdgeUpdate::SetWeight {
                    src: 0,
                    dst: 1,
                    w: 4,
                }, // same weight: noop
            ])
            .unwrap();
        assert_eq!(s.changes, vec![]);
        assert_eq!(s.noops, 2);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn rejected_batches_leave_the_graph_untouched() {
        let mut g = gen::gnp(8, 0.3, false, WeightDist::Uniform { max: 5 }, 11);
        let before = g.clone();
        assert_eq!(
            g.apply_updates(&[EdgeUpdate::Insert {
                src: 0,
                dst: 8,
                w: 1
            }]),
            Err(PatchError::OutOfRange { src: 0, dst: 8 })
        );
        assert_eq!(
            g.apply_updates(&[EdgeUpdate::Remove { src: 3, dst: 3 }]),
            Err(PatchError::SelfLoop { node: 3 })
        );
        assert_eq!(g, before);
    }
}
