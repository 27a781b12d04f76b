//! Random-delay composition of many protocol instances over shared links.
//!
//! The paper (Section II-C) runs `n` independent short-range executions
//! simultaneously using the scheduling framework of Ghaffari \[10\]: a
//! collection of algorithms with dilation `d` and per-algorithm congestion
//! `c` can be executed together in `O(c·k + d)`-ish rounds by giving each
//! instance a random start offset and resolving residual collisions.
//!
//! This module implements that mechanism concretely: each instance gets a
//! seeded random start delay; in every *global* round each due instance
//! tries to execute its next *local* round; if any link it needs is already
//! taken this global round by a higher-priority instance, the whole
//! instance **stalls** (its schedule shifts by one global round, preserving
//! its internal synchrony exactly). Priorities are a seeded random
//! permutation, so the highest-priority due instance always makes progress.
//!
//! Local rounds in which an instance provably sends nothing (via
//! [`Protocol::earliest_send`]) are skipped for free, and globally silent
//! stretches are fast-forwarded — both still count toward the reported
//! round totals.

use crate::engine::EngineConfig;
use crate::fault::{CapBuckets, FaultAction};
use crate::message::{Envelope, MsgSize};
use crate::outbox::{Outbox, SendOp};
use crate::protocol::{NodeCtx, Protocol, Round};
use crate::runner::check_words;
use crate::schedule::Schedule;
use crate::slab::{Slab, SlabRef};
use dw_graph::{NodeId, WGraph};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Outcome of a scheduled multi-instance run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Global rounds until the last message of the last instance.
    pub global_rounds: u64,
    /// Per-instance stall counts (collisions absorbed).
    pub stalls: Vec<u64>,
    /// Per-instance start offsets that were drawn.
    pub offsets: Vec<u64>,
    /// Total messages across all instances.
    pub messages: u64,
    /// Maximum total load on any directed link.
    pub max_link_load: u64,
    /// Messages destroyed by fault injection (random loss + outages).
    pub dropped: u64,
    /// Messages duplicated by fault injection.
    pub duplicated: u64,
}

struct Instance<P: Protocol> {
    nodes: Vec<P>,
    /// Completed local rounds.
    local_round: Round,
    start: u64,
    stall: u64,
    /// The active-set schedule over local rounds: refreshed only for
    /// nodes that were polled or received, valid under the
    /// `earliest_send` soundness + stability contract.
    schedule: Schedule,
}

impl<P: Protocol> Instance<P> {
    /// The global round of the instance's next potential send, or `None`
    /// if it is quiet.
    fn due_global(&mut self) -> Option<u64> {
        let (start, stall) = (self.start, self.stall);
        self.schedule.next_round().map(|la| start + stall + la)
    }

    /// Re-query `earliest_send` for node `v` after local round `local`.
    fn requery(&mut self, g: &WGraph, v: NodeId, local: Round) {
        let r = self.nodes[v as usize].earliest_send(local + 1, &NodeCtx::new(v, g));
        debug_assert!(
            r.is_none_or(|r| r > local),
            "earliest_send must be in the future"
        );
        self.schedule.set(v, r);
    }
}

/// Run `instances` (each a full per-node program vector) over the shared
/// communication graph `g`. Returns the final node programs of each
/// instance plus scheduling statistics.
///
/// `max_offset` is the window for the random start delays (Ghaffari's
/// framework draws delays proportional to the total congestion).
///
/// Fault injection: if `cfg.faults` is set, every committed transmission
/// is subjected to the plan keyed by the **global** round (stalled retries
/// draw fresh decisions). Drop, outage, unhealed-partition and duplicate
/// faults are supported; anything that delivers late (delay faults,
/// healing partitions, bandwidth caps: [`crate::FaultPlan::has_delays`])
/// is rejected — a late delivery would cross instance stall boundaries,
/// which the schedule abstraction cannot express.
pub fn schedule_instances<P>(
    g: &WGraph,
    instances: Vec<Vec<P>>,
    cfg: &EngineConfig,
    seed: u64,
    max_offset: u64,
    max_global_rounds: u64,
) -> (Vec<Vec<P>>, ScheduleStats)
where
    P: Protocol + Clone,
    P::Msg: Clone,
{
    let n = g.n();
    let k = instances.len();
    let fault_plan = cfg.faults.as_ref();
    if let Some(plan) = fault_plan {
        assert!(
            !plan.has_delays(),
            "the multi-instance scheduler does not support delay faults"
        );
    }
    // The fate of one committed transmission. The buckets stay empty:
    // caps are among the rejected delays.
    let mut buckets = CapBuckets::default();
    let decide = |u, v, global, words, buckets: &mut CapBuckets| match fault_plan {
        Some(p) => p.decide(u, v, global, words, buckets),
        None => FaultAction::Deliver {
            due: global,
            duplicate: false,
        },
    };
    let mut fault_dropped = 0u64;
    let mut fault_duplicated = 0u64;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut priority: Vec<usize> = (0..k).collect();
    priority.shuffle(&mut rng);

    let mut insts: Vec<Instance<P>> = instances
        .into_iter()
        .map(|mut nodes| {
            assert_eq!(nodes.len(), n, "instance must have one program per node");
            for (v, node) in nodes.iter_mut().enumerate() {
                node.init(&NodeCtx::new(v as NodeId, g));
            }
            let mut schedule = Schedule::default();
            schedule.rebuild(n, |v| {
                nodes[v].earliest_send(1, &NodeCtx::new(v as NodeId, g))
            });
            Instance {
                nodes,
                local_round: 0,
                start: if max_offset == 0 {
                    0
                } else {
                    rng.gen_range(0..=max_offset)
                },
                stall: 0,
                schedule,
            }
        })
        .collect();

    // Per-link bookkeeping shared across instances.
    let mut link_offset = Vec::with_capacity(n + 1);
    let mut acc = 0usize;
    link_offset.push(0);
    for v in 0..n as NodeId {
        acc += g.comm_neighbors(v).len();
        link_offset.push(acc);
    }
    let link_id = |u: NodeId, v: NodeId| -> usize {
        let rank = g
            .comm_neighbors(u)
            .binary_search(&v)
            .unwrap_or_else(|_| panic!("protocol bug: {u} sent to non-neighbor {v}"));
        link_offset[u as usize] + rank
    };
    let mut link_stamp: Vec<u64> = vec![u64::MAX; acc];
    let mut link_load: Vec<u64> = vec![0; acc];

    let mut global: u64 = 0;
    let mut last_activity: u64 = 0;
    let mut messages: u64 = 0;
    let mut stats_stalls = vec![0u64; k];
    // Inboxes live in a recycled slab: a node holds a buffer only between
    // its first delivery of a committed round and its receive, so resident
    // memory tracks the per-round receiver set across all instances, not
    // `k * n`. The first delivery doubles as the receiver-set insert.
    let mut slab: Slab<Envelope<P::Msg>> = Slab::new();
    let mut inbox_ref: Vec<SlabRef> = vec![SlabRef::NONE; n];

    let mut due_nodes: Vec<NodeId> = Vec::new();
    let mut receivers: Vec<NodeId> = Vec::new();

    // First delivery of a committed round acquires the slot and records
    // the receiver; later deliveries append to the held buffer.
    fn inbox_of<'a, M>(
        slab: &'a mut Slab<Envelope<M>>,
        inbox_ref: &mut [SlabRef],
        receivers: &mut Vec<NodeId>,
        v: NodeId,
    ) -> &'a mut Vec<Envelope<M>> {
        let i = v as usize;
        if inbox_ref[i] == SlabRef::NONE {
            inbox_ref[i] = slab.acquire();
            receivers.push(v);
        }
        slab.get_mut(inbox_ref[i])
    }

    loop {
        // Fast-forward to the earliest due instance.
        let next_due = insts.iter_mut().filter_map(|i| i.due_global()).min();
        let Some(next_due) = next_due else { break };
        if next_due > max_global_rounds {
            break;
        }
        global = next_due.max(global + 1);

        for &ii in &priority {
            let due = insts[ii].due_global();
            if due != Some(global) {
                // Not this instance's active round. If its next active local
                // round is still in the future, its local clock simply
                // advances with global time (silent local rounds are free).
                continue;
            }
            let local = global - insts[ii].start - insts[ii].stall;

            // Tentatively execute local round `local` on clones of the due
            // nodes only (any other node's `earliest_send` proves it
            // silent this round, so cloning it would be wasted work).
            insts[ii].schedule.pop_due(local, &mut due_nodes);
            let mut clones: Vec<(NodeId, P)> = due_nodes
                .iter()
                .map(|&v| (v, insts[ii].nodes[v as usize].clone()))
                .collect();
            let mut all_ops: Vec<(NodeId, Vec<SendOp<P::Msg>>)> = Vec::new();
            for (v, node) in clones.iter_mut() {
                let mut out = Outbox::new();
                node.send(local, &NodeCtx::new(*v, g), &mut out);
                let ops: Vec<_> = out.drain().collect();
                if !ops.is_empty() {
                    all_ops.push((*v, ops));
                }
            }

            // Collect required links; detect collisions with this global
            // round's committed sends.
            let mut needed: Vec<usize> = Vec::new();
            let mut conflict = false;
            'outer: for (u, ops) in &all_ops {
                for op in ops {
                    match op {
                        SendOp::Broadcast(_) => {
                            for &v in g.comm_neighbors(*u) {
                                let lid = link_id(*u, v);
                                assert!(
                                    !needed.contains(&lid),
                                    "protocol bug: instance double-sent over {u}->{v}"
                                );
                                if link_stamp[lid] == global {
                                    conflict = true;
                                    break 'outer;
                                }
                                needed.push(lid);
                            }
                        }
                        SendOp::Unicast(v, _) => {
                            let lid = link_id(*u, *v);
                            assert!(
                                !needed.contains(&lid),
                                "protocol bug: instance double-sent over {u}->{v}"
                            );
                            if link_stamp[lid] == global {
                                conflict = true;
                                break 'outer;
                            }
                            needed.push(lid);
                        }
                    }
                }
            }

            if conflict {
                // Discard the clones and retry next global round. The real
                // nodes were not touched, so each popped node is still due
                // at `local` (an instance is due only when `local` is its
                // earliest scheduled round) and goes back there.
                insts[ii].stall += 1;
                stats_stalls[ii] += 1;
                for &v in &due_nodes {
                    insts[ii].schedule.set(v, Some(local));
                }
                continue;
            }

            // Commit: stamp links, deliver, receive.
            let mut sent = 0u64;
            receivers.clear();
            for (u, ops) in all_ops {
                for op in ops {
                    match op {
                        SendOp::Broadcast(m) => {
                            let words = m.size_words();
                            check_words(u, words);
                            // One payload allocation shared across all
                            // recipients, as in the engine's delivery path.
                            let payload = Arc::new(m);
                            for &v in g.comm_neighbors(u) {
                                let lid = link_id(u, v);
                                link_stamp[lid] = global;
                                link_load[lid] += 1;
                                sent += 1;
                                match decide(u, v, global, words, &mut buckets) {
                                    FaultAction::Deliver { due, duplicate } => {
                                        debug_assert_eq!(
                                            due, global,
                                            "late deliveries rejected above"
                                        );
                                        let inbox =
                                            inbox_of(&mut slab, &mut inbox_ref, &mut receivers, v);
                                        inbox.push(Envelope::shared(u, Arc::clone(&payload)));
                                        if duplicate {
                                            inbox.push(Envelope::shared(u, Arc::clone(&payload)));
                                            fault_duplicated += 1;
                                        }
                                    }
                                    FaultAction::Drop | FaultAction::OutageDrop => {
                                        fault_dropped += 1;
                                    }
                                }
                            }
                        }
                        SendOp::Unicast(v, m) => {
                            let words = m.size_words();
                            check_words(u, words);
                            let lid = link_id(u, v);
                            link_stamp[lid] = global;
                            link_load[lid] += 1;
                            sent += 1;
                            match decide(u, v, global, words, &mut buckets) {
                                FaultAction::Deliver { due, duplicate } => {
                                    debug_assert_eq!(due, global, "late deliveries rejected above");
                                    let inbox =
                                        inbox_of(&mut slab, &mut inbox_ref, &mut receivers, v);
                                    if duplicate {
                                        inbox.push(Envelope::new(u, m.clone()));
                                        fault_duplicated += 1;
                                    }
                                    inbox.push(Envelope::new(u, m));
                                }
                                FaultAction::Drop | FaultAction::OutageDrop => {
                                    fault_dropped += 1;
                                }
                            }
                        }
                    }
                }
            }
            if sent > 0 {
                last_activity = global;
                messages += sent;
            }
            // Install the polled clones, then run receive on the real
            // nodes and refresh the schedule for polled ∪ received.
            for (v, node) in clones {
                insts[ii].nodes[v as usize] = node;
            }
            insts[ii].local_round = local;
            let inst = &mut insts[ii];
            // One receivers entry per node (inserted on slot acquire), so
            // a sort restores the deterministic id order without a dedup.
            receivers.sort_unstable();
            for &v in &receivers {
                let i = v as usize;
                inst.nodes[i].receive(local, slab.get(inbox_ref[i]), &NodeCtx::new(v, g));
                slab.release(inbox_ref[i]);
                inbox_ref[i] = SlabRef::NONE;
                inst.requery(g, v, local);
            }
            for &v in &due_nodes {
                // A polled node that also received was re-queried above;
                // re-querying again with the same arguments is idempotent.
                inst.requery(g, v, local);
            }
        }
    }

    let stats = ScheduleStats {
        global_rounds: last_activity,
        stalls: stats_stalls,
        offsets: insts.iter().map(|i| i.start).collect(),
        messages,
        max_link_load: link_load.iter().copied().max().unwrap_or(0),
        dropped: fault_dropped,
        duplicated: fault_duplicated,
    };
    (insts.into_iter().map(|i| i.nodes).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_graph::gen::{self, WeightDist};

    /// A toy single-source flood that records hop distance from its source.
    #[derive(Clone)]
    struct Flood {
        source: NodeId,
        dist: Option<u64>,
        announced: bool,
    }

    impl Protocol for Flood {
        type Msg = u64;

        fn init(&mut self, ctx: &NodeCtx) {
            if ctx.id == self.source {
                self.dist = Some(0);
            }
        }

        fn send(&mut self, _round: Round, _ctx: &NodeCtx, out: &mut Outbox<u64>) {
            if let (Some(d), false) = (self.dist, self.announced) {
                self.announced = true;
                out.broadcast(d);
            }
        }

        fn receive(&mut self, _round: Round, inbox: &[Envelope<u64>], _ctx: &NodeCtx) {
            for e in inbox {
                let cand = *e.msg() + 1;
                if self.dist.is_none_or(|d| cand < d) {
                    self.dist = Some(cand);
                    self.announced = false;
                }
            }
        }

        fn earliest_send(&self, after: Round, _ctx: &NodeCtx) -> Option<Round> {
            if self.dist.is_some() && !self.announced {
                Some(after)
            } else {
                None
            }
        }
    }

    fn hop_dists(g: &WGraph, s: NodeId) -> Vec<u64> {
        let mut dist = vec![u64::MAX; g.n()];
        dist[s as usize] = 0;
        let mut q = std::collections::VecDeque::from([s]);
        while let Some(v) = q.pop_front() {
            for &u in g.comm_neighbors(v) {
                if dist[u as usize] == u64::MAX {
                    dist[u as usize] = dist[v as usize] + 1;
                    q.push_back(u);
                }
            }
        }
        dist
    }

    #[test]
    fn k_floods_all_correct_under_sharing() {
        let g = gen::gnp_connected(24, 0.1, false, WeightDist::Constant(1), 7);
        let k = 6;
        let instances: Vec<Vec<Flood>> = (0..k)
            .map(|s| {
                (0..g.n())
                    .map(|_| Flood {
                        source: s as NodeId * 3,
                        dist: None,
                        announced: false,
                    })
                    .collect()
            })
            .collect();
        let (finished, st) =
            schedule_instances(&g, instances, &EngineConfig::default(), 42, 8, 100_000);
        for (i, inst) in finished.iter().enumerate() {
            let s = (i as NodeId) * 3;
            let expect = hop_dists(&g, s);
            let got: Vec<u64> = inst.iter().map(|f| f.dist.unwrap()).collect();
            assert_eq!(got, expect, "instance {i}");
        }
        assert!(st.global_rounds > 0);
        assert_eq!(st.offsets.len(), k);
    }

    #[test]
    fn zero_offset_single_instance_matches_engine() {
        let g = gen::path(8, false, WeightDist::Constant(1), 0);
        let instances = vec![(0..g.n())
            .map(|_| Flood {
                source: 0,
                dist: None,
                announced: false,
            })
            .collect::<Vec<_>>()];
        let (finished, st) =
            schedule_instances(&g, instances, &EngineConfig::default(), 1, 0, 10_000);
        let got: Vec<u64> = finished[0].iter().map(|f| f.dist.unwrap()).collect();
        assert_eq!(got, (0..8).map(|i| i as u64).collect::<Vec<_>>());
        // same as the plain engine: farthest node announces in round 8
        assert_eq!(st.global_rounds, 8);
        assert_eq!(st.stalls, vec![0]);
    }

    #[test]
    fn collisions_cause_stalls_not_errors() {
        // Star: every flood's first broadcast leaves the center or enters
        // it; many instances with offset window 0 must serialize.
        let g = gen::star(8, false, WeightDist::Constant(1), 0);
        let k = 5;
        let instances: Vec<Vec<Flood>> = (0..k)
            .map(|s| {
                (0..g.n())
                    .map(|_| Flood {
                        source: s as NodeId,
                        dist: None,
                        announced: false,
                    })
                    .collect()
            })
            .collect();
        let (finished, st) =
            schedule_instances(&g, instances, &EngineConfig::default(), 3, 0, 100_000);
        let total_stalls: u64 = st.stalls.iter().sum();
        assert!(total_stalls > 0, "star with zero offsets must collide");
        for (i, inst) in finished.iter().enumerate() {
            let expect = hop_dists(&g, i as NodeId);
            let got: Vec<u64> = inst.iter().map(|f| f.dist.unwrap()).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn offsets_reduce_stalls() {
        let g = gen::star(10, false, WeightDist::Constant(1), 0);
        let build = || -> Vec<Vec<Flood>> {
            (0..6)
                .map(|s| {
                    (0..g.n())
                        .map(|_| Flood {
                            source: s as NodeId,
                            dist: None,
                            announced: false,
                        })
                        .collect()
                })
                .collect()
        };
        let (_, tight) = schedule_instances(&g, build(), &EngineConfig::default(), 5, 0, 100_000);
        let (_, spread) = schedule_instances(&g, build(), &EngineConfig::default(), 5, 64, 100_000);
        assert!(
            spread.stalls.iter().sum::<u64>() <= tight.stalls.iter().sum::<u64>(),
            "random offsets should not increase collisions on a star"
        );
    }
}
