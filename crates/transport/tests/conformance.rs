//! Cross-backend conformance: every transport backend must reproduce
//! the simulator's results bit for bit — final node states, outcome,
//! and the full `RunStats` including congestion and fault counters —
//! on the same graphs, seeds and fault plans.

use dw_congest::{
    Checkpointable, EngineConfig, Envelope, FaultPlan, LinkDelay, Network, NodeCtx, NullRecorder,
    Outage, Outbox, Protocol, Recorder, Round, RunOutcome, RunStats, WireCodec,
};
use dw_graph::gen::{self, WeightDist};
use dw_graph::{NodeId, WGraph};
use dw_transport::{
    run_tcp_loopback, run_tcp_loopback_chaos, run_threads, run_threads_chaos, ChaosPlan,
    TransportConfig, TransportError, TransportRun,
};
use proptest::prelude::*;
use std::sync::mpsc::channel;
use std::time::Duration;

/// Hop-count flood from node 0: broadcast-heavy, converges quietly.
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
            out.broadcast(d);
            self.announced = true;
        }
    }
    fn receive(&mut self, _round: Round, inbox: &[Envelope<u64>], _ctx: &NodeCtx) {
        for env in inbox {
            let cand = env.msg() + 1;
            if self.dist.is_none_or(|d| cand < d) {
                self.dist = Some(cand);
                self.announced = false;
            }
        }
    }
    fn earliest_send(&self, after: Round, _ctx: &NodeCtx) -> Option<Round> {
        (self.dist.is_some() && !self.announced).then_some(after)
    }
}

fn new_flood(_v: NodeId) -> Flood {
    Flood {
        dist: None,
        announced: false,
    }
}

/// A sparse-schedule protocol: node `v` broadcasts its id once, in
/// round `(v + 1) * 40`, and advertises that via `earliest_send`. Long
/// quiet stretches exercise the coordinator's fast-forward jumps.
struct Sparse {
    fired: bool,
    heard: Vec<u64>,
}

impl Protocol for Sparse {
    type Msg = u64;
    fn send(&mut self, round: Round, ctx: &NodeCtx, out: &mut Outbox<u64>) {
        if !self.fired && round == (ctx.id as Round + 1) * 40 {
            out.broadcast(ctx.id as u64);
            self.fired = true;
        }
    }
    fn receive(&mut self, _round: Round, inbox: &[Envelope<u64>], _ctx: &NodeCtx) {
        for env in inbox {
            self.heard.push(*env.msg());
        }
    }
    fn earliest_send(&self, after: Round, ctx: &NodeCtx) -> Option<Round> {
        let mine = (ctx.id as Round + 1) * 40;
        (!self.fired && mine >= after).then_some(mine)
    }
}

fn new_sparse(_v: NodeId) -> Sparse {
    Sparse {
        fired: false,
        heard: Vec::new(),
    }
}

fn simulate<P: Protocol>(
    g: &WGraph,
    faults: Option<FaultPlan>,
    budget: Round,
    make: impl FnMut(NodeId) -> P,
) -> (Vec<P>, RunStats, RunOutcome) {
    let cfg = EngineConfig {
        faults,
        ..EngineConfig::default()
    };
    let mut net = Network::new(g, cfg, make);
    let outcome = net.run(budget);
    let stats = net.stats();
    (net.into_nodes(), stats, outcome)
}

fn transport_cfg(faults: Option<FaultPlan>) -> TransportConfig {
    TransportConfig {
        faults,
        ..TransportConfig::default()
    }
}

/// The thread backend at `shards` workers; `g.n()` is the paper's
/// one-processor-per-node layout.
fn threads<P: Protocol>(
    g: &WGraph,
    cfg: &TransportConfig,
    budget: Round,
    shards: usize,
    make: impl FnMut(NodeId) -> P,
) -> TransportRun<P> {
    run_threads(g, cfg, budget, shards, make, &mut NullRecorder)
        .unwrap_or_else(|e| panic!("threads:{shards} failed: {e}"))
}

/// The loopback TCP backend at `shards` workers.
fn tcp<P: Protocol>(
    g: &WGraph,
    cfg: &TransportConfig,
    budget: Round,
    shards: usize,
    make: impl FnMut(NodeId) -> P,
) -> TransportRun<P>
where
    P::Msg: WireCodec,
{
    run_tcp_loopback(g, cfg, budget, shards, make, &mut NullRecorder)
        .unwrap_or_else(|e| panic!("tcp:{shards} failed: {e}"))
}

#[test]
fn threads_conform_across_seeds() {
    for seed in [5, 6, 7] {
        let g = gen::gnp_connected(20, 0.18, false, WeightDist::Constant(1), seed);
        let (nodes, stats, outcome) = simulate(&g, None, 300, new_flood);
        let run = threads(&g, &transport_cfg(None), 300, g.n(), new_flood);
        assert_eq!(run.outcome, outcome, "seed {seed}");
        assert_eq!(run.stats, stats, "seed {seed}");
        assert_eq!(
            run.nodes.iter().map(|f| f.dist).collect::<Vec<_>>(),
            nodes.iter().map(|f| f.dist).collect::<Vec<_>>(),
            "seed {seed}"
        );
    }
}

#[test]
fn threads_conform_under_faults_across_seeds() {
    for seed in [11, 12, 13] {
        let g = gen::gnp_connected(16, 0.2, false, WeightDist::Constant(1), seed);
        let faults = FaultPlan::new(seed ^ 0xabc)
            .with_drop(0.12)
            .with_duplicate(0.06)
            .with_delay(0.12, 5)
            .with_outage(Outage {
                from: 0,
                to: 1,
                start: 2,
                end: 6,
                symmetric: true,
            });
        let (nodes, stats, outcome) = simulate(&g, Some(faults.clone()), 400, new_flood);
        let run = threads(&g, &transport_cfg(Some(faults)), 400, g.n(), new_flood);
        assert_eq!(run.outcome, outcome, "seed {seed}");
        assert_eq!(run.stats, stats, "seed {seed}");
        assert_eq!(
            run.nodes.iter().map(|f| f.dist).collect::<Vec<_>>(),
            nodes.iter().map(|f| f.dist).collect::<Vec<_>>(),
            "seed {seed}"
        );
    }
}

#[test]
fn threads_conform_under_heterogeneous_link_delays() {
    let g = gen::gnp_connected(10, 0.3, false, WeightDist::Constant(1), 17);
    let faults = FaultPlan::new(55)
        .with_link_delay(LinkDelay {
            from: 0,
            to: 1,
            p: 0.7,
            max_delay: 6,
        })
        .with_link_delay(LinkDelay {
            from: 1,
            to: 0,
            p: 0.2,
            max_delay: 2,
        });
    let (nodes, stats, outcome) = simulate(&g, Some(faults.clone()), 400, new_flood);
    let run = threads(&g, &transport_cfg(Some(faults)), 400, g.n(), new_flood);
    assert_eq!(run.outcome, outcome);
    assert_eq!(run.stats, stats);
    assert!(stats.delayed > 0, "rules must fire: {stats:?}");
    assert_eq!(
        run.nodes.iter().map(|f| f.dist).collect::<Vec<_>>(),
        nodes.iter().map(|f| f.dist).collect::<Vec<_>>(),
    );
}

#[test]
fn threads_fast_forward_matches_simulator() {
    let g = gen::ring(5, false, WeightDist::Constant(1), 0);
    let (nodes, stats, outcome) = simulate(&g, None, 1000, new_sparse);
    let run = threads(&g, &transport_cfg(None), 1000, g.n(), new_sparse);
    assert_eq!(run.outcome, outcome);
    assert_eq!(outcome, RunOutcome::Quiet);
    assert_eq!(run.stats, stats);
    assert!(
        stats.rounds_executed < stats.rounds,
        "sparse schedule must fast-forward: {stats:?}"
    );
    assert_eq!(
        run.nodes
            .iter()
            .map(|x| x.heard.clone())
            .collect::<Vec<_>>(),
        nodes.iter().map(|x| x.heard.clone()).collect::<Vec<_>>(),
    );
}

#[test]
fn tcp_loopback_conforms_across_seeds() {
    for seed in [21, 22, 23] {
        let g = gen::gnp_connected(8, 0.35, false, WeightDist::Constant(1), seed);
        let (nodes, stats, outcome) = simulate(&g, None, 200, new_flood);
        let run = tcp(&g, &transport_cfg(None), 200, g.n(), new_flood);
        assert_eq!(run.outcome, outcome, "seed {seed}");
        assert_eq!(run.stats, stats, "seed {seed}");
        assert_eq!(
            run.nodes.iter().map(|f| f.dist).collect::<Vec<_>>(),
            nodes.iter().map(|f| f.dist).collect::<Vec<_>>(),
            "seed {seed}"
        );
    }
}

#[test]
fn tcp_loopback_conforms_under_delay_faults() {
    let g = gen::gnp_connected(8, 0.3, false, WeightDist::Constant(1), 31);
    let faults = FaultPlan::new(99).with_delay(0.3, 6);
    let (nodes, stats, outcome) = simulate(&g, Some(faults.clone()), 300, new_flood);
    let run = tcp(&g, &transport_cfg(Some(faults)), 300, g.n(), new_flood);
    assert_eq!(run.outcome, outcome);
    assert_eq!(run.stats, stats);
    assert!(stats.delayed > 0, "plan must actually delay: {stats:?}");
    assert_eq!(
        run.nodes.iter().map(|f| f.dist).collect::<Vec<_>>(),
        nodes.iter().map(|f| f.dist).collect::<Vec<_>>(),
    );
}

/// The canonical shard counts the differential harness sweeps: one
/// worker for the whole network, two workers, three-nodes-per-worker,
/// and one node per worker (the paper's layout).
fn shard_counts(n: usize) -> [usize; 4] {
    [1, 2, n.div_ceil(3), n]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The differential harness, thread plane: random connected graphs
    // through the simulator and the sharded thread backend at every
    // canonical shard count must agree bit for bit — distances, outcome
    // and the full RunStats.
    #[test]
    fn sharded_threads_conform_for_canonical_shard_counts(seed in 0u64..10_000) {
        let n = 18usize;
        let g = gen::gnp_connected(n, 0.2, false, WeightDist::Constant(1), seed);
        let (nodes, stats, outcome) = simulate(&g, None, 300, new_flood);
        let dists: Vec<_> = nodes.iter().map(|f| f.dist).collect();
        for p in shard_counts(n) {
            let run = threads(&g, &transport_cfg(None), 300, p, new_flood);
            prop_assert_eq!(run.outcome, outcome, "P={} seed {}", p, seed);
            prop_assert_eq!(&run.stats, &stats, "P={} seed {}", p, seed);
            prop_assert_eq!(
                run.nodes.iter().map(|f| f.dist).collect::<Vec<_>>(),
                dists.clone(),
                "P={} seed {}", p, seed
            );
        }
    }

    // Same sweep under a FaultPlan: drops, duplicates, delays and an
    // outage. RunStats equality covers every fault counter (dropped,
    // outage_dropped, duplicated, delayed, late_delivered), so the
    // sender-side fault evaluation must land identically no matter how
    // nodes are packed into shards.
    #[test]
    fn sharded_threads_conform_under_faults(seed in 0u64..10_000) {
        let n = 15usize;
        let g = gen::gnp_connected(n, 0.22, false, WeightDist::Constant(1), seed);
        let faults = FaultPlan::new(seed ^ 0x5eed)
            .with_drop(0.12)
            .with_duplicate(0.06)
            .with_delay(0.12, 5)
            .with_outage(Outage {
                from: 0,
                to: 1,
                start: 2,
                end: 6,
                symmetric: true,
            });
        let (nodes, stats, outcome) = simulate(&g, Some(faults.clone()), 400, new_flood);
        let dists: Vec<_> = nodes.iter().map(|f| f.dist).collect();
        for p in shard_counts(n) {
            let run = threads(&g, &transport_cfg(Some(faults.clone())), 400, p, new_flood);
            prop_assert_eq!(run.outcome, outcome, "P={} seed {}", p, seed);
            prop_assert_eq!(&run.stats, &stats, "P={} seed {}", p, seed);
            prop_assert_eq!(
                run.nodes.iter().map(|f| f.dist).collect::<Vec<_>>(),
                dists.clone(),
                "P={} seed {}", p, seed
            );
        }
    }

    // Sparse schedules: the quiet-round fast-forward hints must
    // aggregate identically through shard-level Done reports.
    #[test]
    fn sharded_threads_fast_forward_conforms(seed in 0u64..10_000) {
        let n = 6usize;
        let g = gen::ring(n, false, WeightDist::Constant(1), seed);
        let (nodes, stats, outcome) = simulate(&g, None, 1000, new_sparse);
        for p in shard_counts(n) {
            let run = threads(&g, &transport_cfg(None), 1000, p, new_sparse);
            prop_assert_eq!(run.outcome, outcome, "P={} seed {}", p, seed);
            prop_assert_eq!(&run.stats, &stats, "P={} seed {}", p, seed);
            prop_assert!(
                stats.rounds_executed < stats.rounds,
                "sparse schedule must fast-forward: {:?}", stats
            );
            prop_assert_eq!(
                run.nodes.iter().map(|x| x.heard.clone()).collect::<Vec<_>>(),
                nodes.iter().map(|x| x.heard.clone()).collect::<Vec<_>>(),
                "P={} seed {}", p, seed
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    // The differential harness, socket plane: the TCP backend
    // (RoundBatch coalescing, writer threads, one blocking coordinator
    // reader per connection) at every canonical shard count against
    // the simulator.
    #[test]
    fn sharded_tcp_conforms_for_canonical_shard_counts(seed in 0u64..10_000) {
        let n = 9usize;
        let g = gen::gnp_connected(n, 0.3, false, WeightDist::Constant(1), seed);
        let (nodes, stats, outcome) = simulate(&g, None, 200, new_flood);
        let dists: Vec<_> = nodes.iter().map(|f| f.dist).collect();
        for p in shard_counts(n) {
            let run = tcp(&g, &transport_cfg(None), 200, p, new_flood);
            prop_assert_eq!(run.outcome, outcome, "P={} seed {}", p, seed);
            prop_assert_eq!(&run.stats, &stats, "P={} seed {}", p, seed);
            prop_assert_eq!(
                run.nodes.iter().map(|f| f.dist).collect::<Vec<_>>(),
                dists.clone(),
                "P={} seed {}", p, seed
            );
        }
    }

    // Socket plane under faults: batched cross-shard frames must carry
    // the fault-plan verdicts (including delayed deliveries that cross
    // round boundaries) without disturbing per-link FIFO order.
    #[test]
    fn sharded_tcp_conforms_under_faults(seed in 0u64..10_000) {
        let n = 8usize;
        let g = gen::gnp_connected(n, 0.3, false, WeightDist::Constant(1), seed);
        let faults = FaultPlan::new(seed ^ 0xfa57).with_drop(0.1).with_delay(0.2, 6);
        let (nodes, stats, outcome) = simulate(&g, Some(faults.clone()), 300, new_flood);
        let dists: Vec<_> = nodes.iter().map(|f| f.dist).collect();
        for p in shard_counts(n) {
            let run = tcp(&g, &transport_cfg(Some(faults.clone())), 300, p, new_flood);
            prop_assert_eq!(run.outcome, outcome, "P={} seed {}", p, seed);
            prop_assert_eq!(&run.stats, &stats, "P={} seed {}", p, seed);
            prop_assert_eq!(
                run.nodes.iter().map(|f| f.dist).collect::<Vec<_>>(),
                dists.clone(),
                "P={} seed {}", p, seed
            );
        }
    }
}

/// A sustained one-way flow: node 0 unicasts the round number to node 1
/// every round for [`Chatter::ROUNDS`] rounds; node 1 sums what it
/// hears. The sum is arrival-order independent, so it is comparable
/// across backends even when a bandwidth cap reshuffles delivery
/// rounds.
struct Chatter {
    sum: u64,
    heard: u64,
}

impl Chatter {
    const ROUNDS: Round = 12;
}

impl Protocol for Chatter {
    type Msg = u64;
    fn send(&mut self, round: Round, ctx: &NodeCtx, out: &mut Outbox<u64>) {
        if ctx.id == 0 && round <= Chatter::ROUNDS {
            out.unicast(1, round);
        }
    }
    fn receive(&mut self, _round: Round, inbox: &[Envelope<u64>], _ctx: &NodeCtx) {
        for env in inbox {
            self.sum += env.msg();
            self.heard += 1;
        }
    }
    fn earliest_send(&self, after: Round, ctx: &NodeCtx) -> Option<Round> {
        (ctx.id == 0 && after <= Chatter::ROUNDS).then_some(after)
    }
}

fn new_chatter(_v: NodeId) -> Chatter {
    Chatter { sum: 0, heard: 0 }
}

/// Every backend under `faults` against the simulator under the same
/// plan: threads and TCP at every canonical shard count. Final nodes (compared through `key`), `RunStats`
/// and outcome must all equal the simulator's, which this returns.
fn every_backend_matches_sim<P: Protocol, K: PartialEq + std::fmt::Debug>(
    g: &WGraph,
    faults: FaultPlan,
    budget: Round,
    make: fn(NodeId) -> P,
    key: impl Fn(&P) -> K,
) -> (Vec<K>, RunStats, RunOutcome)
where
    P::Msg: WireCodec,
{
    let (nodes, stats, outcome) = simulate(g, Some(faults.clone()), budget, make);
    let want: Vec<K> = nodes.iter().map(&key).collect();
    let cfg = transport_cfg(Some(faults));
    let check = |run: TransportRun<P>, label: &str| {
        assert_eq!(run.outcome, outcome, "{label}");
        assert_eq!(run.stats, stats, "{label}");
        assert_eq!(
            run.nodes.iter().map(&key).collect::<Vec<_>>(),
            want,
            "{label}"
        );
    };
    for p in shard_counts(g.n()) {
        check(threads(g, &cfg, budget, p, make), &format!("threads:{p}"));
        check(tcp(g, &cfg, budget, p, make), &format!("tcp:{p}"));
    }
    (want, stats, outcome)
}

/// A healed partition holds cross-group payloads and flushes them at
/// the heal round: every backend matches the simulator under the same
/// plan, and nothing is lost — the distances and outcome are the
/// fault-free run's.
#[test]
fn healed_partition_converges_identically_on_every_backend() {
    let n = 12usize;
    let g = gen::gnp_connected(n, 0.25, false, WeightDist::Constant(1), 71);
    let faults = FaultPlan::new(1).with_partition(vec![vec![0, 1, 2, 3]], 1, Some(8));
    let (dists, stats, outcome) = every_backend_matches_sim(&g, faults, 300, new_flood, |f| f.dist);
    assert!(
        stats.delayed > 0,
        "the partition must actually defer: {stats:?}"
    );
    let (clean, _, clean_outcome) = simulate(&g, None, 300, new_flood);
    assert_eq!(dists, clean.iter().map(|f| f.dist).collect::<Vec<_>>());
    assert_eq!(outcome, clean_outcome);
}

/// A permanent one-way cut on the bridge of a path graph: the flood
/// never reaches the far side (their distance stays `None`), the
/// reverse direction keeps flowing, and the run goes quiet instead of
/// hanging — on every backend, exactly as in the simulator.
#[test]
fn asymmetric_loss_drops_one_way_on_every_backend() {
    let n = 6usize;
    let g = gen::path(n, false, WeightDist::Constant(1), 3);
    let faults = FaultPlan::new(2).with_outage(Outage {
        from: 2,
        to: 3,
        start: 0,
        end: Round::MAX,
        symmetric: false,
    });
    let (dists, stats, outcome) = every_backend_matches_sim(&g, faults, 200, new_flood, |f| f.dist);
    assert_eq!(outcome, RunOutcome::Quiet, "no hang");
    assert!(
        stats.outage_dropped > 0,
        "the cut must actually drop: {stats:?}"
    );
    assert_eq!(dists, vec![Some(0), Some(1), Some(2), None, None, None]);
}

/// An undersized bandwidth cap (half the offered byte rate) spills
/// deliveries across rounds without losing anything: every backend
/// matches the simulator, and the receiver ends with the full message
/// set, late but complete.
#[test]
fn bandwidth_cap_spills_but_loses_nothing_on_every_backend() {
    let n = 2usize;
    let g = gen::path(n, false, WeightDist::Constant(1), 5);
    // 12 one-word (8-byte) messages against a 4-byte/round cap.
    let faults = FaultPlan::new(3).with_bandwidth_cap(0, 1, 4);
    let (heard, stats, outcome) =
        every_backend_matches_sim(&g, faults, 200, new_chatter, |c| (c.heard, c.sum));
    assert_eq!(outcome, RunOutcome::Quiet);
    assert!(
        stats.delayed > 0 && stats.late_delivered > 0,
        "the cap must actually spill: {stats:?}"
    );
    let want_sum: u64 = (1..=Chatter::ROUNDS).sum();
    assert_eq!(
        heard[1],
        (Chatter::ROUNDS, want_sum),
        "nothing lost or corrupted"
    );
}

/// A sparse relay with an exact `earliest_send`, shaped like
/// `SparseRelay` in dw-congest's scheduling conformance: every third
/// node starts with its own phase and the rest sleep until a receive
/// wakes them; each receive schedules a re-announcement 1–4 rounds
/// later while the node's budget lasts. `wasted` counts the `send`
/// calls made while the node's own `earliest_send(round)` was `None` or
/// later than `round` — polls that neither the simulator nor a worker
/// following the active-set contract (DESIGN.md §7) makes.
#[derive(Clone, Debug)]
struct Relay {
    next_fire: Option<Round>,
    gap: u64,
    remaining: u32,
    heard: u64,
    wasted: u64,
}

impl Relay {
    fn seeded(v: NodeId) -> Self {
        Relay {
            next_fire: v.is_multiple_of(3).then_some(1 + (u64::from(v) * 11) % 41),
            gap: 1 + u64::from(v) % 4,
            remaining: 1 + v % 2,
            heard: 0,
            wasted: 0,
        }
    }

    /// Everything but the poll counter, which `check_relay` requires to
    /// be zero.
    fn state(&self) -> (Option<Round>, u32, u64) {
        (self.next_fire, self.remaining, self.heard)
    }
}

impl Protocol for Relay {
    type Msg = u64;
    fn send(&mut self, round: Round, ctx: &NodeCtx, out: &mut Outbox<u64>) {
        if self.earliest_send(round, ctx) != Some(round) {
            self.wasted += 1;
        }
        if let Some(f) = self.next_fire {
            if round >= f {
                self.next_fire = None;
                if self.remaining > 0 {
                    self.remaining -= 1;
                    out.broadcast(self.heard.wrapping_add(u64::from(ctx.id)) % 1000);
                }
            }
        }
    }
    fn receive(&mut self, round: Round, inbox: &[Envelope<u64>], _ctx: &NodeCtx) {
        for env in inbox {
            self.heard = self.heard.wrapping_mul(31).wrapping_add(*env.msg());
        }
        if self.remaining > 0 && self.next_fire.is_none() {
            self.next_fire = Some(round + self.gap);
        }
    }
    fn earliest_send(&self, after: Round, _ctx: &NodeCtx) -> Option<Round> {
        self.next_fire.map(|f| f.max(after))
    }
}

impl Checkpointable for Relay {
    fn snapshot(&self, out: &mut Vec<u8>) {
        (self.next_fire, self.gap, self.remaining).encode(out);
        (self.heard, self.wasted).encode(out);
    }
    fn restore(&mut self, buf: &mut &[u8]) -> Option<()> {
        (self.next_fire, self.gap, self.remaining) = WireCodec::decode(buf)?;
        (self.heard, self.wasted) = WireCodec::decode(buf)?;
        Some(())
    }
}

/// The simulator's run of [`Relay`] as the reference: comparable node
/// states, stats and outcome.
type RelayRef = (Vec<(Option<Round>, u32, u64)>, RunStats, RunOutcome);

fn relay_reference(g: &WGraph, faults: Option<FaultPlan>) -> RelayRef {
    let (nodes, stats, outcome) = simulate(g, faults, 400, Relay::seeded);
    assert!(
        stats.rounds_executed < stats.rounds,
        "the relay must fast-forward: {stats:?}"
    );
    let wasted: u64 = nodes.iter().map(|x| x.wasted).sum();
    assert_eq!(wasted, 0, "the simulator polls only due nodes");
    (nodes.iter().map(Relay::state).collect(), stats, outcome)
}

fn check_relay(run: &TransportRun<Relay>, want: &RelayRef, label: &str) {
    let wasted: u64 = run.nodes.iter().map(|x| x.wasted).sum();
    assert_eq!(wasted, 0, "{label}: nodes polled before they were due");
    assert_eq!(run.outcome, want.2, "{label}");
    assert_eq!(run.stats, want.1, "{label}");
    let states: Vec<_> = run.nodes.iter().map(Relay::state).collect();
    assert_eq!(states, want.0, "{label}");
}

/// The worker polls only the nodes that are due: on every backend and
/// at every shard count, no `send` call lands before the node's own
/// `earliest_send`, and the run is bit-identical to the simulator —
/// fault-free and under a delay plan, whose parked messages wake
/// sleeping nodes rounds later.
#[test]
fn worker_polls_only_due_nodes_on_every_backend() {
    let n = 15usize;
    let g = gen::gnp_connected(n, 0.25, false, WeightDist::Constant(1), 29);
    for faults in [None, Some(FaultPlan::new(8).with_delay(0.3, 4))] {
        let want = relay_reference(&g, faults.clone());
        if faults.is_some() {
            assert!(want.1.late_delivered > 0, "the plan must delay");
        }
        let cfg = transport_cfg(faults);
        for p in shard_counts(n) {
            let label = format!("P={p} faults={}", cfg.faults.is_some());
            let run = threads(&g, &cfg, 400, p, Relay::seeded);
            check_relay(&run, &want, &format!("threads {label}"));
            let run = tcp(&g, &cfg, 400, p, Relay::seeded);
            check_relay(&run, &want, &format!("tcp {label}"));
        }
    }
}

/// A whole-worker kill in round 11, when every node sleeps. Rounds 1–10
/// all execute, so with a checkpoint every four executed rounds the
/// rejoin restores round-8 node states and re-executes rounds 9–10, in
/// which both victims fire. The worker must rebuild its schedule from
/// the restored states — a cache left from before the crash skips those
/// re-sends and the run diverges from the simulator.
#[test]
fn rejoined_worker_rebuilds_its_schedule() {
    let n = 15usize;
    let g = gen::gnp_connected(n, 0.25, false, WeightDist::Constant(1), 29);
    let want = relay_reference(&g, None);
    let kill_round = 11;
    let mut net = Network::new(&g, EngineConfig::default(), Relay::seeded);
    while net.round() + 1 < kill_round {
        net.step_one();
    }
    let asleep = net
        .nodes()
        .filter(|x| x.next_fire.is_none_or(|f| f > kill_round))
        .count();
    assert!(asleep * 2 > n, "only {asleep} of {n} nodes asleep");
    for victim in [5, 11] {
        let cfg = TransportConfig {
            checkpoint_cadence: Some(4),
            chaos: Some(ChaosPlan::new(6).with_kill(victim, kill_round)),
            ..TransportConfig::default()
        };
        for p in [2, n] {
            let label = format!("kill {victim} at P={p}");
            let deadline = Duration::from_millis(150);
            let run =
                run_threads_chaos(&g, &cfg, 400, p, deadline, Relay::seeded, &mut NullRecorder)
                    .unwrap_or_else(|e| panic!("threads {label}: {}", e.error));
            check_relay(&run, &want, &format!("threads {label}"));
            let run = run_tcp_loopback_chaos(
                &g,
                &cfg,
                400,
                p,
                deadline,
                Relay::seeded,
                &mut NullRecorder,
            )
            .unwrap_or_else(|e| panic!("tcp {label}: {}", e.error));
            check_relay(&run, &want, &format!("tcp {label}"));
        }
    }
}

/// Every node broadcasts a digest of everything it heard, every round
/// up to [`Gossip::ROUNDS`]; the digest depends on delivery order, so
/// any reordering of one node's inbox shows in the final states.
#[derive(Clone, Debug)]
struct Gossip {
    digest: u64,
}

impl Gossip {
    const ROUNDS: Round = 14;
}

impl Protocol for Gossip {
    type Msg = u64;
    fn send(&mut self, round: Round, _ctx: &NodeCtx, out: &mut Outbox<u64>) {
        if round <= Gossip::ROUNDS {
            out.broadcast(self.digest % 1_000_003);
        }
    }
    fn receive(&mut self, _round: Round, inbox: &[Envelope<u64>], _ctx: &NodeCtx) {
        for env in inbox {
            self.digest = self
                .digest
                .wrapping_mul(31)
                .wrapping_add(*env.msg() ^ u64::from(env.from));
        }
    }
    fn earliest_send(&self, after: Round, _ctx: &NodeCtx) -> Option<Round> {
        (after <= Gossip::ROUNDS).then_some(after)
    }
}

impl Checkpointable for Gossip {
    fn snapshot(&self, out: &mut Vec<u8>) {
        self.digest.encode(out);
    }
    fn restore(&mut self, buf: &mut &[u8]) -> Option<()> {
        self.digest = u64::decode(buf)?;
        Some(())
    }
}

/// A rejoined worker re-executes rounds whose inboxes mix late
/// (delay-faulted) mail with cross-shard mail from the replay batches;
/// the late mail must stay ahead, as in the simulator, or a sender's
/// delayed and fresh messages swap places.
#[test]
fn rejoin_keeps_late_mail_ahead_of_replayed_mail() {
    let n = 12usize;
    let g = gen::gnp_connected(n, 0.3, false, WeightDist::Constant(1), 41);
    let faults = FaultPlan::new(3).with_delay(0.4, 3);
    let (nodes, stats, outcome) = simulate(&g, Some(faults.clone()), 200, |_| Gossip { digest: 1 });
    let want: Vec<u64> = nodes.iter().map(|x| x.digest).collect();
    let cfg = TransportConfig {
        faults: Some(faults),
        checkpoint_cadence: Some(4),
        chaos: Some(ChaosPlan::new(5).with_kill(7, 11)),
    };
    for p in [2, n] {
        let deadline = Duration::from_millis(150);
        let run = run_threads_chaos(
            &g,
            &cfg,
            200,
            p,
            deadline,
            |_| Gossip { digest: 1 },
            &mut NullRecorder,
        )
        .unwrap_or_else(|e| panic!("P={p}: {}", e.error));
        assert_eq!(run.outcome, outcome, "P={p}");
        assert_eq!(run.stats, stats, "P={p}");
        let got: Vec<u64> = run.nodes.iter().map(|x| x.digest).collect();
        assert_eq!(got, want, "P={p}");
    }
}

/// Which side of a run panics.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Coordinator,
    Worker,
}

/// A recorder that, when armed, panics the first time the coordinator
/// reports a round.
struct PanicsOnRound {
    armed: bool,
}

impl Recorder for PanicsOnRound {
    fn round(&mut self, round: u64, _messages: u64) {
        assert!(!self.armed, "recorder refuses round {round}");
    }
}

/// [`Flood`], except that a lit fuse panics when the flood reaches it.
struct Fuse {
    flood: Flood,
    lit: bool,
}

impl Protocol for Fuse {
    type Msg = u64;
    fn init(&mut self, ctx: &NodeCtx) {
        self.flood.init(ctx);
    }
    fn send(&mut self, round: Round, ctx: &NodeCtx, out: &mut Outbox<u64>) {
        self.flood.send(round, ctx, out);
    }
    fn receive(&mut self, round: Round, inbox: &[Envelope<u64>], ctx: &NodeCtx) {
        assert!(!self.lit, "node {} refuses round {round}", ctx.id);
        self.flood.receive(round, inbox, ctx);
    }
    fn earliest_send(&self, after: Round, ctx: &NodeCtx) -> Option<Round> {
        self.flood.earliest_send(after, ctx)
    }
}

/// A run in which `side` panics ends with an error within 5 s: the
/// workers are aborted, not left in `recv` while the run waits to join
/// them, and a worker's panic reaches the coordinator, which would
/// otherwise wait for its `Done`. Node 5 of the 6-node path lives on
/// the second of two workers, so a worker panic blames that worker's
/// nodes 3–5 (not its slot, 1) and carries the panic's own message.
/// The run happens on a thread of its own, so a hang fails this test
/// instead of hanging the suite.
fn a_panic_is_an_error(side: Side, tcp: bool) {
    let (tx, rx) = channel();
    let run = std::thread::spawn(move || {
        let g = gen::path(6, false, WeightDist::Constant(1), 0);
        let cfg = TransportConfig::default();
        let make = |v| Fuse {
            flood: new_flood(v),
            lit: side == Side::Worker && v == 5,
        };
        let mut rec = PanicsOnRound {
            armed: side == Side::Coordinator,
        };
        let err = if tcp {
            run_tcp_loopback(&g, &cfg, 100, 2, make, &mut rec).err()
        } else {
            run_threads(&g, &cfg, 100, 2, make, &mut rec).err()
        };
        let _ = tx.send(err);
    });
    let err = rx.recv_timeout(Duration::from_secs(5));
    let err = err
        .expect("the run ends within 5 s")
        .expect("the run fails");
    match side {
        Side::Coordinator => assert!(matches!(err, TransportError::Protocol { .. }), "{err}"),
        Side::Worker => {
            assert_eq!(err.failed_nodes(), &[3, 4, 5], "{err}");
            let text = err.to_string();
            assert!(text.contains("[3, 4, 5]"), "{text}");
            assert!(text.contains("node 5 refuses round 5"), "{text}");
            assert!(text.contains("worker 1 reported"), "{text}");
            assert!(!text.contains("node 1 reported"), "{text}");
        }
    }
    run.join().expect("the run's thread returns");
}

#[test]
fn a_coordinator_panic_on_threads_is_an_error_not_a_hang() {
    a_panic_is_an_error(Side::Coordinator, false);
}

#[test]
fn a_coordinator_panic_over_tcp_is_an_error_not_a_hang() {
    a_panic_is_an_error(Side::Coordinator, true);
}

#[test]
fn a_worker_panic_on_threads_is_an_error_not_a_hang() {
    a_panic_is_an_error(Side::Worker, false);
}

#[test]
fn a_worker_panic_over_tcp_is_an_error_not_a_hang() {
    a_panic_is_an_error(Side::Worker, true);
}
