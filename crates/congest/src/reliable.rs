//! Reliable delivery over faulty links: a generic protocol adapter.
//!
//! [`Reliable<P>`] wraps any [`Protocol`] and turns the engine's (possibly
//! fault-injected, see [`crate::fault`]) links into per-link reliable FIFO
//! channels, using the classic machinery:
//!
//! * every inner message becomes a `Data { seq, ack, payload }` frame with
//!   a per-directed-link sequence number; transmission is **windowed** —
//!   a fresh frame goes out even while earlier ones await their acks, so
//!   a fault-free link keeps the engine's native one-frame-per-round
//!   throughput and the wrapped protocol's timing;
//! * receivers deliver strictly in sequence order, buffering out-of-order
//!   frames and suppressing duplicates;
//! * acknowledgments are cumulative and piggybacked on data frames, with
//!   standalone `Ack` frames when a link has nothing to say;
//! * unacknowledged frames are retransmitted after
//!   [`ReliableConfig::retry_after`] silent rounds, at most
//!   [`ReliableConfig::max_retries`] times (a link whose frame exhausts its
//!   retries is declared dead — fail-stop semantics).
//!
//! Termination detection is **ack-drained quiescence**: the wrapper's
//! [`Protocol::earliest_send`] keeps the engine awake exactly while some
//! frame is unacknowledged or some acknowledgment is still owed, so
//! [`crate::engine::Network::run`] returns `Quiet` precisely when every
//! delivered frame has been acknowledged *and* the inner protocol itself
//! has gone quiet. No extra control rounds are spent when the network is
//! fault-free beyond the acknowledgment traffic itself.
//!
//! The inner protocol sees the same interface as on a reliable network:
//! its messages arrive exactly once, in per-link order, merely later than
//! scheduled. Pipelined protocols absorb that slack through their
//! late-send re-arm path (`find_send` with `<= r`), which is what the
//! `dw-pipeline` recovery layer measures.

use crate::message::{Envelope, MsgSize};
use crate::outbox::{Outbox, SendOp};
use crate::protocol::{NodeCtx, Protocol, Round};
use dw_graph::NodeId;
use std::collections::BTreeMap;

/// Retry policy for [`Reliable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Rounds to wait for an acknowledgment before retransmitting.
    /// The minimum useful value is 3 (send, ack back, slack).
    pub retry_after: Round,
    /// Retransmissions allowed per frame before the whole outgoing link is
    /// declared dead (fail-stop). Use a large value for lossy-but-alive
    /// links; permanent outages are what this bound is for.
    pub max_retries: u32,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            retry_after: 4,
            max_retries: 64,
        }
    }
}

/// Per-node accounting of the reliability machinery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Data frames put on the wire (first transmissions + retries).
    pub data_sent: u64,
    /// Retransmissions of previously sent frames.
    pub retries: u64,
    /// Standalone ack frames sent.
    pub acks_sent: u64,
    /// Duplicate frames received and suppressed.
    pub dups_suppressed: u64,
    /// Frames that arrived ahead of sequence (a gap before them) and had
    /// to be buffered — direct evidence the link reordered deliveries.
    pub reordered: u64,
    /// Frames delivered to the inner protocol (exactly-once, in order).
    pub delivered: u64,
    /// Frames (and their queued successors) discarded on dead links.
    pub abandoned: u64,
}

impl ReliableStats {
    /// Elementwise sum, for aggregating across nodes.
    pub fn merge(&self, other: &ReliableStats) -> ReliableStats {
        ReliableStats {
            data_sent: self.data_sent + other.data_sent,
            retries: self.retries + other.retries,
            acks_sent: self.acks_sent + other.acks_sent,
            dups_suppressed: self.dups_suppressed + other.dups_suppressed,
            reordered: self.reordered + other.reordered,
            delivered: self.delivered + other.delivered,
            abandoned: self.abandoned + other.abandoned,
        }
    }
}

/// Wire frame of the reliable channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RMsg<M> {
    /// A payload frame. `ack` piggybacks the cumulative acknowledgment for
    /// the reverse direction of this link.
    Data { seq: u32, ack: u32, payload: M },
    /// A standalone cumulative acknowledgment.
    Ack { ack: u32 },
}

impl<M: MsgSize> MsgSize for RMsg<M> {
    fn size_words(&self) -> usize {
        match self {
            // seq + ack are two O(log n)-bit counters.
            RMsg::Data { payload, .. } => 2 + payload.size_words(),
            RMsg::Ack { .. } => 1,
        }
    }
}

/// An unacknowledged outgoing frame.
#[derive(Debug, Clone)]
struct PendingFrame<M> {
    seq: u32,
    payload: M,
    /// Round of the last transmission (0 = never sent).
    last_sent: Round,
    retries: u32,
}

/// Outgoing half of one directed link.
#[derive(Debug, Clone)]
struct OutLink<M> {
    next_seq: u32,
    queue: Vec<PendingFrame<M>>,
    /// Set when retries were exhausted; the link sends nothing ever again.
    dead: bool,
}

impl<M> OutLink<M> {
    fn new() -> Self {
        OutLink {
            next_seq: 1,
            queue: Vec::new(),
            dead: false,
        }
    }
}

/// Incoming half of one directed link.
#[derive(Debug, Clone)]
struct InLink<M> {
    /// Next in-order sequence number to deliver.
    expected: u32,
    /// Buffered out-of-order frames.
    ooo: BTreeMap<u32, M>,
    /// An acknowledgment is owed (new data arrived, or a duplicate showed
    /// the sender missed our previous ack).
    ack_dirty: bool,
}

impl<M> InLink<M> {
    fn new() -> Self {
        InLink {
            expected: 1,
            ooo: BTreeMap::new(),
            ack_dirty: false,
        }
    }

    fn cum_ack(&self) -> u32 {
        self.expected - 1
    }
}

/// The reliable-channel adapter. See the module docs.
pub struct Reliable<P: Protocol> {
    inner: P,
    cfg: ReliableConfig,
    /// Indexed by neighbor rank in `ctx.comm_neighbors()`.
    out: Vec<OutLink<P::Msg>>,
    inl: Vec<InLink<P::Msg>>,
    stats: ReliableStats,
    /// Reused scratch for the inner protocol's sends (per-round
    /// allocation-free once warm).
    inner_out: Outbox<P::Msg>,
    /// Reused scratch for in-order deliveries to the inner protocol.
    staged: Vec<Envelope<P::Msg>>,
}

impl<P: Protocol> Reliable<P> {
    pub fn new(inner: P, cfg: ReliableConfig) -> Self {
        assert!(cfg.retry_after >= 1, "retry_after must be at least 1 round");
        Reliable {
            inner,
            cfg,
            out: Vec::new(),
            inl: Vec::new(),
            stats: ReliableStats::default(),
            inner_out: Outbox::new(),
            staged: Vec::new(),
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// This node's reliability accounting.
    pub fn stats(&self) -> &ReliableStats {
        &self.stats
    }

    /// Frames currently waiting for acknowledgment.
    pub fn unacked_frames(&self) -> usize {
        self.out.iter().map(|l| l.queue.len()).sum()
    }

    fn rank_of(&self, ctx: &NodeCtx, v: NodeId) -> usize {
        ctx.comm_neighbors()
            .binary_search(&v)
            .unwrap_or_else(|_| panic!("protocol bug: {} is not a neighbor of {}", v, ctx.id))
    }

    fn enqueue(&mut self, rank: usize, payload: P::Msg) {
        let link = &mut self.out[rank];
        if link.dead {
            self.stats.abandoned += 1;
            return;
        }
        let seq = link.next_seq;
        link.next_seq += 1;
        link.queue.push(PendingFrame {
            seq,
            payload,
            last_sent: 0,
            retries: 0,
        });
    }

    /// Process a cumulative acknowledgment for `rank`.
    fn absorb_ack(&mut self, rank: usize, ack: u32) {
        self.out[rank].queue.retain(|f| f.seq > ack);
    }
}

impl<P: Protocol> Protocol for Reliable<P> {
    type Msg = RMsg<P::Msg>;

    fn init(&mut self, ctx: &NodeCtx) {
        let deg = ctx.comm_neighbors().len();
        self.out = (0..deg).map(|_| OutLink::new()).collect();
        self.inl = (0..deg).map(|_| InLink::new()).collect();
        self.inner.init(ctx);
    }

    fn send(&mut self, round: Round, ctx: &NodeCtx, out: &mut Outbox<Self::Msg>) {
        // 1. Collect the inner protocol's sends for this round and queue
        //    them on their links.
        self.inner.send(round, ctx, &mut self.inner_out);
        let mut ops = self.inner_out.take_ops();
        for op in ops.drain(..) {
            match op {
                SendOp::Broadcast(m) => {
                    for rank in 0..self.out.len() {
                        self.enqueue(rank, m.clone());
                    }
                }
                SendOp::Unicast(v, m) => {
                    let rank = self.rank_of(ctx, v);
                    self.enqueue(rank, m);
                }
            }
        }
        self.inner_out.restore(ops);

        // 2. One frame per link: the oldest *due* data frame if any,
        //    otherwise a standalone ack if one is owed. The window is the
        //    whole queue — a never-sent frame is due immediately even
        //    while earlier frames are still awaiting their acks, so a
        //    fault-free link keeps the raw one-frame-per-round throughput
        //    (stop-and-wait would halve it and skew every pipelined
        //    schedule); sent frames become due again only at their retry
        //    timeout.
        for rank in 0..self.out.len() {
            let v = ctx.comm_neighbors()[rank];
            let ack = self.inl[rank].cum_ack();
            let link = &mut self.out[rank];
            if link.dead {
                continue;
            }
            let due = link
                .queue
                .iter()
                .position(|f| f.last_sent == 0 || f.last_sent + self.cfg.retry_after <= round);
            if let Some(i) = due {
                if link.queue[i].last_sent != 0 && link.queue[i].retries >= self.cfg.max_retries {
                    // Fail-stop: this link never delivered frame `seq`
                    // despite max_retries attempts; everything queued
                    // behind it can never be delivered in order.
                    self.stats.abandoned += link.queue.len() as u64;
                    link.queue.clear();
                    link.dead = true;
                    continue;
                }
                let frame = &mut link.queue[i];
                if frame.last_sent != 0 {
                    frame.retries += 1;
                    self.stats.retries += 1;
                }
                frame.last_sent = round;
                let seq = frame.seq;
                let payload = frame.payload.clone();
                out.unicast(v, RMsg::Data { seq, ack, payload });
                self.stats.data_sent += 1;
                self.inl[rank].ack_dirty = false;
            } else if self.inl[rank].ack_dirty {
                out.unicast(v, RMsg::Ack { ack });
                self.stats.acks_sent += 1;
                self.inl[rank].ack_dirty = false;
            }
        }
    }

    fn receive(&mut self, round: Round, inbox: &[Envelope<Self::Msg>], ctx: &NodeCtx) {
        let mut staged = std::mem::take(&mut self.staged);
        for env in inbox {
            let rank = self.rank_of(ctx, env.from);
            match env.msg() {
                RMsg::Ack { ack } => self.absorb_ack(rank, *ack),
                RMsg::Data { seq, ack, payload } => {
                    self.absorb_ack(rank, *ack);
                    let link = &mut self.inl[rank];
                    if *seq < link.expected {
                        // Already delivered: the sender missed our ack.
                        self.stats.dups_suppressed += 1;
                        link.ack_dirty = true;
                    } else if *seq == link.expected {
                        staged.push(Envelope::new(env.from, payload.clone()));
                        link.expected += 1;
                        // Drain any out-of-order frames this unblocks.
                        while let Some(m) = link.ooo.remove(&link.expected) {
                            staged.push(Envelope::new(env.from, m));
                            link.expected += 1;
                        }
                        link.ack_dirty = true;
                    } else {
                        // Future frame: buffer once.
                        if link.ooo.insert(*seq, payload.clone()).is_some() {
                            self.stats.dups_suppressed += 1;
                        } else {
                            self.stats.reordered += 1;
                        }
                        link.ack_dirty = true;
                    }
                }
            }
        }
        if !staged.is_empty() {
            // `inbox` is sorted by sender and per-link delivery is in
            // sequence order, so `staged` is already sorted by sender.
            self.stats.delivered += staged.len() as u64;
            self.inner.receive(round, &staged, ctx);
        }
        staged.clear();
        self.staged = staged;
    }

    fn earliest_send(&self, after: Round, ctx: &NodeCtx) -> Option<Round> {
        let mut next: Option<Round> = None;
        let mut consider = |r: Round| {
            let r = r.max(after);
            next = Some(next.map_or(r, |cur: Round| cur.min(r)));
        };
        for link in &self.out {
            if link.dead {
                continue;
            }
            for f in &link.queue {
                if f.last_sent == 0 {
                    consider(after);
                    break;
                }
                consider(f.last_sent + self.cfg.retry_after);
            }
        }
        if self.inl.iter().any(|l| l.ack_dirty) {
            consider(after);
        }
        if let Some(r) = self.inner.earliest_send(after, ctx) {
            consider(r);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, Network, RunOutcome};
    use crate::fault::{FaultPlan, Outage};
    use dw_graph::gen::{self, WeightDist};
    use dw_graph::WGraph;

    /// Unweighted BFS flood (announce-once), the canonical fragile
    /// protocol: a single lost announcement leaves wrong distances.
    struct Flood {
        dist: Option<u64>,
        announced: bool,
    }

    impl Protocol for Flood {
        type Msg = u64;
        fn init(&mut self, ctx: &NodeCtx) {
            if ctx.id == 0 {
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

    fn reliable_flood(
        g: &WGraph,
        faults: Option<FaultPlan>,
        rc: ReliableConfig,
        budget: Round,
    ) -> (Vec<Option<u64>>, ReliableStats, RunOutcome) {
        let cfg = EngineConfig {
            faults,
            ..EngineConfig::default()
        };
        let mut net = Network::new(g, cfg, |_| {
            Reliable::new(
                Flood {
                    dist: None,
                    announced: false,
                },
                rc,
            )
        });
        let outcome = net.run(budget);
        let dists = net.nodes().map(|r| r.inner().dist).collect();
        let stats = net
            .nodes()
            .fold(ReliableStats::default(), |acc, r| acc.merge(r.stats()));
        (dists, stats, outcome)
    }

    #[test]
    fn fault_free_wrap_preserves_results() {
        let g = gen::gnp_connected(32, 0.12, false, WeightDist::Constant(1), 5);
        let (dists, stats, outcome) = reliable_flood(&g, None, ReliableConfig::default(), 10_000);
        assert_eq!(outcome, RunOutcome::Quiet);
        let expect = hop_dists(&g, 0);
        for (v, d) in dists.iter().enumerate() {
            assert_eq!(d.unwrap(), expect[v], "node {v}");
        }
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.dups_suppressed, 0);
        assert_eq!(stats.abandoned, 0);
        assert_eq!(stats.delivered, stats.data_sent);
    }

    #[test]
    fn survives_heavy_drops() {
        let g = gen::gnp_connected(24, 0.15, false, WeightDist::Constant(1), 8);
        let plan = FaultPlan::drop_only(1234, 0.3);
        let (dists, stats, outcome) =
            reliable_flood(&g, Some(plan), ReliableConfig::default(), 50_000);
        assert_eq!(outcome, RunOutcome::Quiet);
        let expect = hop_dists(&g, 0);
        for (v, d) in dists.iter().enumerate() {
            assert_eq!(d.unwrap(), expect[v], "node {v}");
        }
        assert!(stats.retries > 0, "30% drop must force retransmissions");
        assert_eq!(stats.abandoned, 0);
    }

    #[test]
    fn survives_duplicates_and_delays() {
        let g = gen::gnp_connected(20, 0.2, false, WeightDist::Constant(1), 3);
        let plan = FaultPlan::new(77).with_duplicate(0.15).with_delay(0.15, 5);
        let (dists, stats, outcome) =
            reliable_flood(&g, Some(plan), ReliableConfig::default(), 50_000);
        assert_eq!(outcome, RunOutcome::Quiet);
        let expect = hop_dists(&g, 0);
        for (v, d) in dists.iter().enumerate() {
            assert_eq!(d.unwrap(), expect[v], "node {v}");
        }
        assert!(stats.dups_suppressed > 0);
    }

    #[test]
    fn transient_outage_is_ridden_out() {
        let g = gen::path(4, false, WeightDist::Constant(1), 0);
        // Sever the middle link both ways for rounds 1..=10, then heal.
        let plan = FaultPlan::new(5).with_outage(Outage {
            from: 1,
            to: 2,
            start: 1,
            end: 10,
            symmetric: true,
        });
        let (dists, _, outcome) = reliable_flood(&g, Some(plan), ReliableConfig::default(), 10_000);
        assert_eq!(outcome, RunOutcome::Quiet);
        assert_eq!(
            dists.into_iter().map(Option::unwrap).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn permanent_outage_fail_stops() {
        let g = gen::path(3, false, WeightDist::Constant(1), 0);
        let plan = FaultPlan::new(9).with_outage(Outage {
            from: 1,
            to: 2,
            start: 1,
            end: u64::MAX,
            symmetric: true,
        });
        let rc = ReliableConfig {
            retry_after: 2,
            max_retries: 5,
        };
        let (dists, stats, outcome) = reliable_flood(&g, Some(plan), rc, 10_000);
        // The run must still terminate (fail-stop), with node 2 unreached.
        assert_eq!(outcome, RunOutcome::Quiet);
        assert!(stats.abandoned > 0);
        assert_eq!(dists[0], Some(0));
        assert_eq!(dists[1], Some(1));
        assert_eq!(dists[2], None);
    }

    /// Node 0 streams the values `1..=total` (one broadcast per round);
    /// receivers record what the wrapper hands their inner protocol.
    struct Streamer {
        total: u64,
        sent: u64,
        got: Vec<u64>,
    }

    impl Protocol for Streamer {
        type Msg = u64;
        fn send(&mut self, _round: Round, ctx: &NodeCtx, out: &mut Outbox<u64>) {
            if ctx.id == 0 && self.sent < self.total {
                self.sent += 1;
                out.broadcast(self.sent);
            }
        }
        fn receive(&mut self, _round: Round, inbox: &[Envelope<u64>], _ctx: &NodeCtx) {
            for e in inbox {
                self.got.push(*e.msg());
            }
        }
        fn earliest_send(&self, after: Round, ctx: &NodeCtx) -> Option<Round> {
            (ctx.id == 0 && self.sent < self.total).then_some(after)
        }
    }

    /// Heterogeneous per-link delays genuinely reorder deliveries (a
    /// round-`r` frame delayed by 6 arrives after the round-`r+1` frame
    /// delayed by 1); the sequence numbers must buffer the early frames
    /// and the retransmit machinery must fill the gaps, so every inner
    /// protocol still sees the stream exactly once, in order.
    #[test]
    fn link_delay_reordering_is_restored_to_order() {
        use crate::fault::LinkDelay;
        let mut b = dw_graph::GraphBuilder::new(3, false);
        b.add_edge(0, 1, 1).add_edge(0, 2, 1);
        let g = b.build();
        let total = 40;
        let plan = FaultPlan::new(2024)
            .with_link_delay(LinkDelay {
                from: 0,
                to: 1,
                p: 0.6,
                max_delay: 6,
            })
            .with_link_delay(LinkDelay {
                from: 0,
                to: 2,
                p: 0.25,
                max_delay: 2,
            });
        let cfg = EngineConfig {
            faults: Some(plan),
            ..EngineConfig::default()
        };
        let mut net = Network::new(&g, cfg, |_| {
            Reliable::new(
                Streamer {
                    total,
                    sent: 0,
                    got: Vec::new(),
                },
                ReliableConfig::default(),
            )
        });
        let outcome = net.run(10_000);
        assert_eq!(outcome, RunOutcome::Quiet);
        let stats = net
            .nodes()
            .fold(ReliableStats::default(), |acc, r| acc.merge(r.stats()));
        assert!(
            stats.reordered > 0,
            "the plan must actually reorder deliveries: {stats:?}"
        );
        assert!(
            stats.retries > 0,
            "delays past retry_after must force retransmits: {stats:?}"
        );
        assert!(
            stats.dups_suppressed > 0,
            "a delayed original arriving after its retransmit is a dup: {stats:?}"
        );
        let expect: Vec<u64> = (1..=total).collect();
        for (v, node) in net.nodes().enumerate() {
            if v > 0 {
                assert_eq!(
                    node.inner().got,
                    expect,
                    "node {v} must see the stream in order"
                );
            }
        }
        assert!(net.stats().delayed > 0, "engine must tally the delays");
    }

    #[test]
    fn frame_sizes_account_for_headers() {
        let d: RMsg<u64> = RMsg::Data {
            seq: 1,
            ack: 0,
            payload: 7,
        };
        assert_eq!(d.size_words(), 3);
        let a: RMsg<u64> = RMsg::Ack { ack: 1 };
        assert_eq!(a.size_words(), 1);
    }
}
