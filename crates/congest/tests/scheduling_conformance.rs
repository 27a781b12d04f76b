//! Scheduling conformance: active-set scheduling must be bit-identical to
//! exhaustive polling — same `RunStats` (including `rounds_executed`),
//! same per-round traces, same final protocol states — across random
//! graphs, random fault plans, and both the sequential and the
//! thread-parallel execution paths.
//!
//! The protocol under test has a deliberately nasty schedule: sparse
//! phased first sends, receive-triggered re-announcements after a
//! per-node gap, and a finite announcement budget, so runs mix dormant
//! nodes, future wakeups, fast-forwarded stretches and quiescence.

use dw_congest::trace::RoundTrace;
use dw_congest::{
    EngineConfig, Envelope, FaultPlan, Network, NodeCtx, Outbox, Protocol, Round, RunOutcome,
    RunStats, SchedulingMode,
};
use dw_graph::{gen, gen::WeightDist, GraphBuilder, NodeId, WGraph};
use proptest::prelude::*;

/// Fires once at `next_fire`; every receive schedules a re-announcement
/// `gap` rounds later (while the budget lasts). `earliest_send` is exact.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SparseRelay {
    next_fire: Option<Round>,
    gap: u64,
    remaining: u32,
    heard: u64,
}

impl SparseRelay {
    fn seeded(v: NodeId) -> Self {
        SparseRelay {
            // Every third node starts with its own phase; the rest are
            // dormant until woken by a neighbor.
            next_fire: v.is_multiple_of(3).then_some(1 + (u64::from(v) * 7) % 13),
            gap: 1 + u64::from(v) % 4,
            remaining: 2 + v % 3,
            heard: 0,
        }
    }
}

impl Protocol for SparseRelay {
    type Msg = u64;

    fn send(&mut self, round: Round, ctx: &NodeCtx, out: &mut Outbox<u64>) {
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
        for e in inbox {
            self.heard = self.heard.wrapping_add(*e.msg());
        }
        if self.remaining > 0 && self.next_fire.is_none() {
            self.next_fire = Some(round + self.gap);
        }
    }

    fn earliest_send(&self, after: Round, _ctx: &NodeCtx) -> Option<Round> {
        self.next_fire.map(|f| f.max(after))
    }
}

fn arb_graph() -> impl Strategy<Value = WGraph> {
    (3usize..=14).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0u64..=6), 0..(3 * n));
        (Just(n), edges, any::<bool>()).prop_map(|(n, edges, directed)| {
            let mut b = GraphBuilder::new(n, directed);
            for (s, d, w) in edges {
                b.add_edge(s, d, w);
            }
            b.build()
        })
    })
}

fn arb_plan() -> impl Strategy<Value = Option<FaultPlan>> {
    (
        any::<bool>(),
        any::<u64>(),
        0u64..=15,
        0u64..=10,
        0u64..=10,
        1u64..=3,
    )
        .prop_map(|(faulty, seed, drop_pct, dup_pct, delay_pct, max_delay)| {
            faulty.then(|| {
                FaultPlan::new(seed)
                    .with_drop(drop_pct as f64 / 100.0)
                    .with_duplicate(dup_pct as f64 / 100.0)
                    .with_delay(delay_pct as f64 / 100.0, max_delay)
            })
        })
}

fn config(mode: SchedulingMode, parallel: bool, faults: Option<FaultPlan>) -> EngineConfig {
    EngineConfig {
        scheduling: mode,
        parallel_threshold: if parallel { 1 } else { usize::MAX },
        threads: 4,
        faults,
    }
}

/// As [`config`] in active-set mode on `threads` threads.
fn config_threads(parallel: bool, faults: Option<FaultPlan>, threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        ..config(SchedulingMode::ActiveSet, parallel, faults)
    }
}

/// Step a network round by round (no fast-forward) capturing everything
/// observable.
fn traced(g: &WGraph, cfg: EngineConfig, rounds: u64) -> (Vec<SparseRelay>, RunStats, RoundTrace) {
    let mut net = Network::new(g, cfg, SparseRelay::seeded);
    let mut trace = RoundTrace::with_payloads();
    for _ in 0..rounds {
        net.step_traced(&mut trace);
    }
    let stats = net.stats();
    (net.into_nodes(), stats, trace)
}

/// Run to quiescence (exercises the fast-forward / heap-peek path).
fn full_run(
    g: &WGraph,
    cfg: EngineConfig,
    budget: u64,
) -> (Vec<SparseRelay>, RunStats, RunOutcome) {
    let mut net = Network::new(g, cfg, SparseRelay::seeded);
    let outcome = net.run(budget);
    let stats = net.stats();
    (net.into_nodes(), stats, outcome)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Stepped execution: every executed round must be bit-identical
    // (trace payloads included) between the scheduling modes.
    #[test]
    fn stepped_rounds_bit_identical_across_modes(
        g in arb_graph(), plan in arb_plan()
    ) {
        let (n_ex, s_ex, t_ex) = traced(
            &g, config(SchedulingMode::ExhaustivePoll, false, plan.clone()), 60);
        let (n_as, s_as, t_as) = traced(
            &g, config(SchedulingMode::ActiveSet, false, plan.clone()), 60);
        prop_assert_eq!(&n_ex, &n_as, "node states diverged");
        prop_assert_eq!(&s_ex, &s_as, "stats diverged");
        prop_assert_eq!(t_ex.records(), t_as.records(), "traces diverged");
        // And the parallel active-set path agrees too.
        let (n_p, s_p, t_p) = traced(
            &g, config(SchedulingMode::ActiveSet, true, plan), 60);
        prop_assert_eq!(&n_as, &n_p, "parallel node states diverged");
        prop_assert_eq!(&s_as, &s_p, "parallel stats diverged");
        prop_assert_eq!(t_as.records(), t_p.records(), "parallel traces diverged");
    }

    // Full runs: the fast-forward decisions (which rounds are simulated at
    // all — `rounds_executed`) must match exactly, as must quiescence
    // detection.
    #[test]
    fn full_runs_bit_identical_across_modes(
        g in arb_graph(), plan in arb_plan(), budget in 20u64..=200
    ) {
        let (n_ex, s_ex, o_ex) = full_run(
            &g, config(SchedulingMode::ExhaustivePoll, false, plan.clone()), budget);
        let (n_as, s_as, o_as) = full_run(
            &g, config(SchedulingMode::ActiveSet, false, plan.clone()), budget);
        prop_assert_eq!(o_ex, o_as, "outcome diverged");
        prop_assert_eq!(&n_ex, &n_as, "node states diverged");
        prop_assert_eq!(&s_ex, &s_as, "stats diverged (incl. rounds_executed)");
        let (n_p, s_p, o_p) = full_run(
            &g, config(SchedulingMode::ActiveSet, true, plan), budget);
        prop_assert_eq!(o_as, o_p);
        prop_assert_eq!(&n_as, &n_p);
        prop_assert_eq!(&s_as, &s_p);
    }

    // The thread count is a pure layout choice: threads {1, 2, n} with
    // sequential and parallel phases (n threads sequentially only, so
    // that no test starts more pool threads than a small runner has
    // cores) must reproduce the exhaustive-poll reference bit for bit —
    // stats (incl. `rounds_executed`, so the fast-forward decisions
    // match), traces, and final node states — under faults too.
    #[test]
    fn thread_counts_bit_identical(
        g in arb_graph(), plan in arb_plan(), budget in 20u64..=200
    ) {
        let n = g.n();
        let (n_ex, s_ex, t_ex) = traced(
            &g, config(SchedulingMode::ExhaustivePoll, false, plan.clone()), 60);
        let (fn_ex, fs_ex, fo_ex) = full_run(
            &g, config(SchedulingMode::ExhaustivePoll, false, plan.clone()), budget);
        for (threads, parallel) in [(1, false), (1, true), (2, false), (2, true), (n, false)] {
            let label = format!("threads={threads} parallel={parallel}");
            let (n_s, s_s, t_s) = traced(
                &g, config_threads(parallel, plan.clone(), threads), 60);
            prop_assert_eq!(&n_ex, &n_s, "stepped states diverged: {}", &label);
            prop_assert_eq!(&s_ex, &s_s, "stepped stats diverged: {}", &label);
            prop_assert_eq!(
                t_ex.records(), t_s.records(), "traces diverged: {}", &label);
            let (fn_s, fs_s, fo_s) = full_run(
                &g, config_threads(parallel, plan.clone(), threads), budget);
            prop_assert_eq!(fo_ex, fo_s, "outcome diverged: {}", &label);
            prop_assert_eq!(&fn_ex, &fn_s, "full-run states diverged: {}", &label);
            prop_assert_eq!(&fs_ex, &fs_s, "full-run stats diverged: {}", &label);
        }
    }
}

/// Deterministic spot check on a structured family with a long quiet
/// prefix: the heap-peek fast-forward must agree with the O(n) scan about
/// exactly which rounds get simulated.
#[test]
fn fast_forward_rounds_agree_on_structured_graphs() {
    for (name, g) in [
        ("path", gen::path(24, false, WeightDist::Constant(1), 0)),
        ("star", gen::star(16, false, WeightDist::Constant(1), 1)),
        ("torus", gen::torus(4, 6, WeightDist::Constant(1), 2)),
    ] {
        let (n_ex, s_ex, o_ex) = full_run(
            &g,
            config(SchedulingMode::ExhaustivePoll, false, None),
            5_000,
        );
        let (n_as, s_as, o_as) =
            full_run(&g, config(SchedulingMode::ActiveSet, false, None), 5_000);
        assert_eq!(o_ex, o_as, "{name}: outcome");
        assert_eq!(s_ex, s_as, "{name}: stats");
        assert_eq!(n_ex, n_as, "{name}: states");
    }
}

/// ActiveSet against ExhaustivePoll on 1,600 tiny graphs. Ignored in a
/// plain `cargo test` (slow in debug); `make engine-conformance` runs it
/// in release.
#[test]
#[ignore]
fn brute_force_divergence_hunt() {
    for n in 3usize..=6 {
        for seed in 0u64..400 {
            // Cheap LCG to vary edges deterministically.
            let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(n as u64);
            let mut rng = || {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s >> 33
            };
            let m = (rng() % (3 * n as u64)) as usize;
            let directed = rng() % 2 == 0;
            let mut b = GraphBuilder::new(n, directed);
            for _ in 0..m {
                let u = (rng() % n as u64) as u32;
                let v = (rng() % n as u64) as u32;
                let w = rng() % 7;
                b.add_edge(u, v, w);
            }
            let g = b.build();
            let budget = 20 + (rng() % 180);
            let (n_ex, s_ex, o_ex) = full_run(
                &g,
                config(SchedulingMode::ExhaustivePoll, false, None),
                budget,
            );
            let (n_as, s_as, o_as) =
                full_run(&g, config(SchedulingMode::ActiveSet, false, None), budget);
            if s_ex != s_as || n_ex != n_as || o_ex != o_as {
                panic!("DIVERGED n={n} seed={seed} budget={budget} directed={directed}\nex={s_ex:?}\nas={s_as:?}\ngraph edges: m={m}");
            }
        }
    }
}
