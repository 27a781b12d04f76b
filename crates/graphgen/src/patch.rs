//! In-place CSR patching for dynamic graphs.
//!
//! A batch of [`EdgeUpdate`]s is first *normalized* into per-edge
//! [`NetChange`]s — the net effect of the batch on each logical edge,
//! measured against the graph's current state, with no-ops dropped —
//! and then applied by [`WGraph::apply_updates`], which rebuilds only
//! the adjacency slabs of touched rows (untouched row spans are bulk
//! `memcpy`s between the old and new arenas). The patched graph is
//! byte-identical to a from-scratch [`WGraph::from_edge_list`] rebuild
//! of the final edge set, so every invariant the rest of the workspace
//! relies on (sorted rows, canonical CSR, derived `PartialEq` ==
//! logical equality) survives updates.

use crate::graph::{NodeId, WGraph, Weight};
use std::collections::BTreeMap;

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

/// Rebuild a weighted CSR applying per-row edit lists; rows absent from
/// `edits` are copied wholesale, contiguous untouched spans in one
/// `extend_from_slice`.
fn patch_csr(
    off: &[usize],
    adj: &[(NodeId, Weight)],
    edits: &BTreeMap<NodeId, Vec<(NodeId, Option<Weight>)>>,
) -> (Vec<usize>, Vec<(NodeId, Weight)>) {
    let n = off.len() - 1;
    let mut new_off = Vec::with_capacity(n + 1);
    let mut new_adj: Vec<(NodeId, Weight)> = Vec::with_capacity(adj.len());
    new_off.push(0);
    let mut done = 0usize; // rows [0, done) already emitted
    for (&row, row_edits) in edits {
        let row = row as usize;
        copy_span(off, adj, done, row, &mut new_off, &mut new_adj);
        merge_row(&adj[off[row]..off[row + 1]], row_edits, &mut new_adj);
        new_off.push(new_adj.len());
        done = row + 1;
    }
    copy_span(off, adj, done, n, &mut new_off, &mut new_adj);
    (new_off, new_adj)
}

/// Bulk-copy the untouched row span `[done, upto)` from the old arena.
fn copy_span<T: Copy>(
    off: &[usize],
    adj: &[T],
    done: usize,
    upto: usize,
    new_off: &mut Vec<usize>,
    new_adj: &mut Vec<T>,
) {
    if done < upto {
        let base = new_adj.len();
        new_adj.extend_from_slice(&adj[off[done]..off[upto]]);
        for r in done..upto {
            new_off.push(base + (off[r + 1] - off[done]));
        }
    }
}

/// As [`patch_csr`] for the unweighted communication CSR: touched rows
/// are *replaced* outright (their new contents are recomputed from the
/// patched out/in rows), untouched spans are bulk-copied.
fn replace_comm_rows(
    off: &[usize],
    adj: &[NodeId],
    rows: &BTreeMap<NodeId, Vec<NodeId>>,
) -> (Vec<usize>, Vec<NodeId>) {
    let n = off.len() - 1;
    let mut new_off = Vec::with_capacity(n + 1);
    let mut new_adj: Vec<NodeId> = Vec::with_capacity(adj.len());
    new_off.push(0);
    let mut done = 0usize;
    for (&row, contents) in rows {
        let row = row as usize;
        copy_span(off, adj, done, row, &mut new_off, &mut new_adj);
        new_adj.extend_from_slice(contents);
        new_off.push(new_adj.len());
        done = row + 1;
    }
    copy_span(off, adj, done, n, &mut new_off, &mut new_adj);
    (new_off, new_adj)
}

impl WGraph {
    /// Apply a batch of edge updates in place, rebuilding only the
    /// adjacency slabs of touched rows. All-or-nothing: on error the
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

        let (out_off, out_adj) = patch_csr(&self.out_off, &self.out_adj, &out_edits);
        let (inc_off, inc_adj) = patch_csr(&self.inc_off, &self.inc_adj, &inc_edits);
        self.out_off = out_off;
        self.out_adj = out_adj;
        self.inc_off = inc_off;
        self.inc_adj = inc_adj;
        self.m = self.m + summary.inserted - summary.removed;

        // Communication rows only change on membership changes; rebuild
        // the touched nodes' rows as the union of their (new) out and
        // in neighbors.
        let mut comm_rows: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for c in &changes {
            if c.old.is_none() != c.new.is_none() {
                comm_rows.insert(c.src, Vec::new());
                comm_rows.insert(c.dst, Vec::new());
            }
        }
        if !comm_rows.is_empty() {
            for (&v, row) in comm_rows.iter_mut() {
                let mut nbrs: Vec<NodeId> = self
                    .out_edges(v)
                    .iter()
                    .map(|&(u, _)| u)
                    .chain(self.in_edges(v).iter().map(|&(u, _)| u))
                    .collect();
                nbrs.sort_unstable();
                nbrs.dedup();
                *row = nbrs;
            }
            let (comm_off, comm_adj) =
                replace_comm_rows(&self.comm_off, &self.comm_adj, &comm_rows);
            self.comm_off = comm_off;
            self.comm_adj = comm_adj;
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
