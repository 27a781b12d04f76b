//! The per-node program of Algorithm 1.

use crate::bound::per_source_list_bound_holds;
use crate::config::AdmissionRule;
use crate::entry::{Entry, PipelineMsg};
use crate::key::Gamma;
use crate::list::NodeList;
use dw_congest::{Checkpointable, Envelope, NodeCtx, Outbox, Protocol, Round, WireCodec};
use dw_graph::{NodeId, Weight};

/// Current shortest-path record `(d*, l*, parent)` for one source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Best {
    pub d: Weight,
    pub l: u64,
    pub parent: NodeId,
}

impl Best {
    /// The paper's Step-9 order: does the candidate `(d, l, parent)`
    /// come strictly before this record — smaller `d`, then smaller
    /// `l`, then smaller parent id? `l` grows by one on every hop, so
    /// the order is strict along every edge even at weight 0. Shared
    /// by the cold solve ([`PipelinedNode`]'s receive step) and the
    /// table repair ([`crate::incremental`]), which must agree on it
    /// to the last tie.
    #[inline]
    pub fn improved_by(&self, d: Weight, l: u64, parent: NodeId) -> bool {
        (d, l, parent) < (self.d, self.l, self.parent)
    }
}

impl WireCodec for Best {
    fn encode(&self, out: &mut Vec<u8>) {
        self.d.encode(out);
        self.l.encode(out);
        self.parent.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(Best {
            d: Weight::decode(buf)?,
            l: u64::decode(buf)?,
            parent: NodeId::decode(buf)?,
        })
    }
}

/// Per-node instrumentation (cheap counters; gathered by
/// [`crate::invariants`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Entries inserted over the run.
    pub inserts: u64,
    /// Received entries dropped by the Step-13 admission rule.
    pub drops: u64,
    /// Largest list length observed.
    pub max_list_len: usize,
    /// Largest per-source entry count observed.
    pub max_per_source: usize,
    /// Invariant 1 violations (`r >= ⌈κ⌉ + pos` at insert time) — must
    /// stay 0 (Lemma II.12).
    pub inv1_violations: u64,
    /// Invariant 2 violations (per-source count exceeding
    /// `sqrt(Δh/k) + 1`) — must stay 0 (Lemma II.11).
    pub inv2_violations: u64,
    /// Announcements made after their scheduled round (the re-arm path of
    /// [`crate::list::NodeList::find_send`]) — 0 whenever Invariant 1
    /// holds.
    pub late_sends: u64,
    /// The last round in which this node's shortest-path record for any
    /// source changed. The theorem bounds (Lemma II.14) are about this
    /// *convergence* round, not about when residual non-SP traffic dies
    /// down.
    pub last_best_update: u64,
    /// Debug detail of the last Invariant-1 violation:
    /// `[round, schedule_value, d, l, src]`.
    pub last_inv1: Option<[u64; 5]>,
    /// Debug detail of the last Invariant-2 violation:
    /// `[round, count, d, src]`.
    pub last_inv2: Option<[u64; 4]>,
}

/// Node program: one instance per node; all share the same `(h, k, Δ)`
/// parameters via `h` and the list's key context `γ`.
#[derive(Clone)]
pub struct PipelinedNode {
    /// Hop bound (`h` for plain `(h,k)`-SSP; `2h` inside CSSSP).
    h: u64,
    /// `k` (for the Invariant-2 check).
    k: u64,
    is_source: bool,
    admission: AdmissionRule,
    list: NodeList,
    /// The sources heard from, in increasing order, and the SP record of
    /// each at the same index. Every message looks its source up, so the
    /// search runs over the ids alone (4 bytes a source; a table of
    /// `(id, record)` rows is 32, and with a few hundred sources a node
    /// the probes of each search miss the cache) and reads one record.
    /// This is also the order checkpoints are written in.
    best_src: Vec<NodeId>,
    best: Vec<Best>,
    pub stats: NodeStats,
}

impl PipelinedNode {
    /// A node of a run with key schedule `gamma`, hop bound `h` and `k`
    /// sources, under the Step-13 admission rule `admission` (the
    /// paper's is [`AdmissionRule::ListOrder`]; E11 ablates it).
    pub fn new(gamma: Gamma, h: u64, k: u64, is_source: bool, admission: AdmissionRule) -> Self {
        PipelinedNode {
            h,
            k,
            is_source,
            admission,
            list: NodeList::new(gamma),
            best_src: Vec::new(),
            best: Vec::new(),
            stats: NodeStats::default(),
        }
    }

    /// The node's current shortest-path record for `source`.
    pub fn best_for(&self, source: NodeId) -> Option<&Best> {
        let i = self.best_slot(source).ok()?;
        Some(&self.best[i])
    }

    /// Where `source`'s SP record is (`Ok`) or would go (`Err`).
    fn best_slot(&self, source: NodeId) -> Result<usize, usize> {
        self.best_src.binary_search(&source)
    }

    /// Write `source`'s SP record at the slot [`Self::best_slot`] found.
    fn set_best(&mut self, slot: Result<usize, usize>, source: NodeId, rec: Best) {
        match slot {
            Ok(i) => self.best[i] = rec,
            Err(i) => {
                self.best_src.insert(i, source);
                self.best.insert(i, rec);
            }
        }
    }

    /// The node's list (test instrumentation).
    pub fn list(&self) -> &NodeList {
        &self.list
    }

    /// Is the candidate strictly better than the current SP record (no
    /// record at all loses to anything) under the paper's Step-9 order?
    fn improves(cur: Option<&Best>, d: Weight, l: u64, parent: NodeId) -> bool {
        cur.is_none_or(|b| b.improved_by(d, l, parent))
    }

    fn after_insert(&mut self, idx: usize, round: Round, src: NodeId) {
        self.stats.inserts += 1;
        // Invariant 1: r < ⌈κ⌉ + pos at insertion time.
        if round >= self.list.schedule_value(idx) {
            self.stats.inv1_violations += 1;
            let e = self.list.get(idx);
            self.stats.last_inv1 =
                Some([round, self.list.schedule_value(idx), e.d, e.l, e.src as u64]);
        }
        // Invariant 2: per-source count within sqrt(Δh/k)+1.
        let c = self.list.count_for_source(src);
        self.stats.max_per_source = self.stats.max_per_source.max(c);
        if !per_source_list_bound_holds(c, self.k, self.h, self.list.gamma().delta() as Weight) {
            self.stats.inv2_violations += 1;
            let e = self.list.get(idx);
            self.stats.last_inv2 = Some([round, c as u64, e.d, e.src as u64]);
        }
        self.stats.max_list_len = self.stats.max_list_len.max(self.list.len());
    }
}

impl Protocol for PipelinedNode {
    type Msg = PipelineMsg;

    /// Initialization (paper round 0): each source places `(0,0,0,x)` on
    /// its own list, flagged SP.
    fn init(&mut self, ctx: &NodeCtx) {
        if self.is_source {
            let e = Entry {
                d: 0,
                l: 0,
                src: ctx.id,
                parent: ctx.id,
                flag_sp: true,
                sent: false,
            };
            self.list.insert(e);
            let rec = Best {
                d: 0,
                l: 0,
                parent: ctx.id,
            };
            self.set_best(self.best_slot(ctx.id), ctx.id, rec);
        }
    }

    /// Steps 1–2: if an entry has `⌈κ⌉ + pos = r`, send it (with its ν
    /// count and SP flag) to all neighbors.
    fn send(&mut self, round: Round, _ctx: &NodeCtx, out: &mut Outbox<PipelineMsg>) {
        if let Some(idx) = self.list.find_send(round) {
            if self.list.schedule_value(idx) < round {
                self.stats.late_sends += 1;
            }
            let nu = self.list.nu(idx);
            let e = self.list.get(idx);
            let msg = PipelineMsg {
                d: e.d,
                l: e.l,
                src: e.src,
                flag_sp: e.flag_sp,
                nu,
            };
            self.list.mark_sent(idx);
            out.broadcast(msg);
        }
    }

    /// Steps 3–13: extend each incoming entry by the connecting edge,
    /// insert it as the new SP entry if it improves `(d*, l*, parent)`,
    /// otherwise admit it only if fewer than `ν` smaller-key entries for
    /// that source are present.
    fn receive(&mut self, round: Round, inbox: &[Envelope<PipelineMsg>], ctx: &NodeCtx) {
        for env in inbox {
            // Only edges of G extend paths; other comm links carry the
            // message but it cannot be relaxed here.
            let Some(w) = ctx.in_weight_from(env.from) else {
                continue;
            };
            let m = env.msg();
            let d = m.d + w;
            let l = m.l + 1;
            if l > self.h {
                continue; // hop budget exhausted
            }
            let src = m.src;
            let slot = self.best_slot(src);
            let cur = slot.ok().map(|i| &self.best[i]);
            if Self::improves(cur, d, l, env.from) {
                // Steps 9-11: new shortest-path entry. The old SP entry
                // stays flagged through the insert (protecting it from the
                // eviction step) and is demoted afterwards — see
                // `NodeList::demote_old_sp`.
                self.stats.last_best_update = round;
                let rec = Best {
                    d,
                    l,
                    parent: env.from,
                };
                self.set_best(slot, src, rec);
                let idx = self.list.insert(Entry {
                    d,
                    l,
                    src,
                    parent: env.from,
                    flag_sp: true,
                    sent: false,
                });
                self.list.demote_old_sp(src, idx);
                self.after_insert(idx, round, src);
            } else {
                // Step 13: admission by the sender-side ν count.
                let cand = Entry {
                    d,
                    l,
                    src,
                    parent: env.from,
                    flag_sp: false,
                    sent: false,
                };
                match self.list.admit(cand, m.nu, self.admission) {
                    Some(idx) => self.after_insert(idx, round, src),
                    None => self.stats.drops += 1,
                }
            }
        }
    }

    fn earliest_send(&self, after: Round, _ctx: &NodeCtx) -> Option<Round> {
        self.list.earliest_schedule_ge(after)
    }
}

/// Crash-recovery snapshots: the dynamic state is the list, the
/// per-source SP records, and the instrumentation counters; the
/// configuration (`gamma`, `h`, `k`, source flag, admission rule) lives
/// in the pristine clone the restoring worker starts from. The `best`
/// table is kept in source order, so snapshots of equal states are
/// byte-identical — checkpoint bytes feed the observability export.
impl Checkpointable for PipelinedNode {
    fn snapshot(&self, out: &mut Vec<u8>) {
        self.list.entries().to_vec().encode(out);
        let best: Vec<(NodeId, Best)> = self
            .best_src
            .iter()
            .copied()
            .zip(self.best.iter().copied())
            .collect();
        best.encode(out);
        let st = &self.stats;
        st.inserts.encode(out);
        st.drops.encode(out);
        (st.max_list_len as u64).encode(out);
        (st.max_per_source as u64).encode(out);
        st.inv1_violations.encode(out);
        st.inv2_violations.encode(out);
        st.late_sends.encode(out);
        st.last_best_update.encode(out);
        st.last_inv1.map(|a| a.to_vec()).encode(out);
        st.last_inv2.map(|a| a.to_vec()).encode(out);
    }

    fn restore(&mut self, buf: &mut &[u8]) -> Option<()> {
        let entries = Vec::<Entry>::decode(buf)?;
        self.list.restore_entries(entries)?;
        let best = Vec::<(NodeId, Best)>::decode(buf)?;
        if !best.windows(2).all(|w| w[0].0 < w[1].0) {
            return None;
        }
        (self.best_src, self.best) = best.into_iter().unzip();
        self.stats = NodeStats {
            inserts: u64::decode(buf)?,
            drops: u64::decode(buf)?,
            max_list_len: u64::decode(buf)? as usize,
            max_per_source: u64::decode(buf)? as usize,
            inv1_violations: u64::decode(buf)?,
            inv2_violations: u64::decode(buf)?,
            late_sends: u64::decode(buf)?,
            last_best_update: u64::decode(buf)?,
            last_inv1: match Option::<Vec<u64>>::decode(buf)? {
                None => None,
                Some(v) => Some(v.try_into().ok()?),
            },
            last_inv2: match Option::<Vec<u64>>::decode(buf)? {
                None => None,
                Some(v) => Some(v.try_into().ok()?),
            },
        };
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_restore_roundtrips_dynamic_state() {
        let gamma = Gamma::new(2, 8, 16);
        let mut a = PipelinedNode::new(gamma, 8, 2, true, AdmissionRule::ListOrder);
        a.list.insert(Entry {
            d: 3,
            l: 1,
            src: 1,
            parent: 1,
            flag_sp: true,
            sent: true,
        });
        a.list.insert(Entry {
            d: 7,
            l: 2,
            src: 2,
            parent: 0,
            flag_sp: false,
            sent: false,
        });
        let one = Best {
            d: 3,
            l: 1,
            parent: 1,
        };
        let two = Best {
            d: 7,
            l: 2,
            parent: 0,
        };
        // out of source order on purpose: the table sorts itself
        a.set_best(a.best_slot(2), 2, two);
        a.set_best(a.best_slot(1), 1, one);
        a.stats.inserts = 2;
        a.stats.max_list_len = 2;
        a.stats.last_inv1 = Some([1, 2, 3, 4, 5]);

        let mut bytes = Vec::new();
        a.snapshot(&mut bytes);
        let mut b = PipelinedNode::new(gamma, 8, 2, true, AdmissionRule::ListOrder);
        let mut view = bytes.as_slice();
        b.restore(&mut view).expect("restore");
        assert!(view.is_empty(), "snapshot fully consumed");
        assert_eq!(b.list.entries(), a.list.entries());
        assert_eq!(b.best_for(1), a.best_for(1));
        assert_eq!(b.best_for(2), a.best_for(2));
        assert_eq!(b.stats, a.stats);

        // Equal states snapshot to identical bytes (the best table is
        // in source order however it was filled).
        let mut again = Vec::new();
        b.snapshot(&mut again);
        assert_eq!(again, bytes);
    }

    #[test]
    fn restore_rejects_garbage() {
        let gamma = Gamma::new(2, 8, 16);
        let mut node = PipelinedNode::new(gamma, 8, 2, false, AdmissionRule::ListOrder);
        let mut view: &[u8] = &[0xff, 0x02, 0x03];
        assert!(node.restore(&mut view).is_none());
    }

    #[test]
    fn restore_rejects_sp_records_out_of_source_order() {
        let gamma = Gamma::new(2, 8, 16);
        let rec = Best {
            d: 1,
            l: 1,
            parent: 0,
        };
        for (sources, ok) in [([1u32, 2], true), ([2, 1], false), ([1, 1], false)] {
            let mut bytes = Vec::new();
            Vec::<Entry>::new().encode(&mut bytes);
            vec![(sources[0], rec), (sources[1], rec)].encode(&mut bytes);
            let mut stats = Vec::new();
            PipelinedNode::new(gamma, 8, 2, false, AdmissionRule::ListOrder).snapshot(&mut stats);
            bytes.extend_from_slice(&stats[8..]); // past the two empty tables
            let mut node = PipelinedNode::new(gamma, 8, 2, false, AdmissionRule::ListOrder);
            assert_eq!(node.restore(&mut bytes.as_slice()).is_some(), ok);
        }
    }

    #[test]
    fn improves_order() {
        let b = Best {
            d: 5,
            l: 3,
            parent: 4,
        };
        assert!(PipelinedNode::improves(None, 100, 100, 100));
        assert!(PipelinedNode::improves(Some(&b), 4, 9, 9));
        assert!(PipelinedNode::improves(Some(&b), 5, 2, 9));
        assert!(PipelinedNode::improves(Some(&b), 5, 3, 3));
        assert!(!PipelinedNode::improves(Some(&b), 5, 3, 4));
        assert!(!PipelinedNode::improves(Some(&b), 5, 3, 5));
        assert!(!PipelinedNode::improves(Some(&b), 5, 4, 1));
        assert!(!PipelinedNode::improves(Some(&b), 6, 0, 0));
    }
}
