//! Fault-injection conformance: determinism of the seeded fault layer
//! across engine execution modes, byte-identity of the zero-fault path,
//! and end-to-end correctness of the recovery stack under drops, delays
//! and duplicates.

use dwapsp::congest::{
    trace::RoundTrace, EngineConfig, FaultPlan, Network, RunStats, SchedulingMode,
};
use dwapsp::pipeline::node::PipelinedNode;
use dwapsp::pipeline::{default_budget, Solved};
use dwapsp::prelude::*;
use dwapsp::seqref::assert_matrices_equal;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = WGraph> {
    (3usize..=12).prop_flat_map(|n| {
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

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0u64..=20, 0u64..=10, 0u64..=10, 1u64..=3).prop_map(
        |(seed, drop_pct, dup_pct, delay_pct, max_delay)| {
            FaultPlan::new(seed)
                .with_drop(drop_pct as f64 / 100.0)
                .with_duplicate(dup_pct as f64 / 100.0)
                .with_delay(delay_pct as f64 / 100.0, max_delay)
        },
    )
}

/// Run an all-sources Algorithm-1 network round by round (no
/// fast-forward, so sequential and parallel executions step the exact
/// same rounds) and capture everything observable: distances, stats and
/// the full per-round trace.
fn traced_apsp(
    g: &WGraph,
    plan: &FaultPlan,
    parallel: bool,
) -> (Vec<Vec<Weight>>, RunStats, RoundTrace) {
    traced_apsp_mode(g, plan, parallel, SchedulingMode::ActiveSet)
}

fn traced_apsp_mode(
    g: &WGraph,
    plan: &FaultPlan,
    parallel: bool,
    scheduling: SchedulingMode,
) -> (Vec<Vec<Weight>>, RunStats, RoundTrace) {
    let delta = max_finite_distance(g).max(1);
    let cfg = SspConfig::apsp(g.n(), delta);
    let gamma = cfg.gamma();
    let engine = EngineConfig {
        faults: Some(plan.clone()),
        parallel_threshold: if parallel { 1 } else { usize::MAX },
        threads: 4,
        scheduling,
    };
    let mut net = Network::new(g, engine, |_| {
        PipelinedNode::new(gamma, cfg.h, cfg.k(), true, cfg.admission)
    });
    let mut trace = RoundTrace::new();
    for _ in 0..default_budget(&cfg, g.n()) {
        net.step_traced(&mut trace);
    }
    let dist: Vec<Vec<Weight>> = (0..g.n() as NodeId)
        .map(|s| {
            (0..g.n())
                .map(|v| net.node(v as NodeId).best_for(s).map_or(INFINITY, |b| b.d))
                .collect()
        })
        .collect();
    let stats = net.stats();
    (dist, stats, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The tentpole determinism guarantee: the same seed and the same
    // fault plan produce bit-identical metrics and traces whether the
    // engine runs its phases sequentially or thread-parallel.
    #[test]
    fn same_plan_same_seed_is_bit_identical_across_engines(
        g in arb_graph(), plan in arb_plan()
    ) {
        let (d1, s1, t1) = traced_apsp(&g, &plan, false);
        let (d2, s2, t2) = traced_apsp(&g, &plan, true);
        prop_assert_eq!(d1, d2, "distances diverged across engine modes");
        prop_assert_eq!(s1, s2, "metrics diverged across engine modes");
        prop_assert_eq!(t1.records(), t2.records(), "traces diverged");
    }

    // A pristine plan (fault probabilities all zero) must leave the
    // delivery path byte-identical to running with no plan at all: same
    // distances, same round count, same metrics.
    #[test]
    fn pristine_plan_equals_no_plan(g in arb_graph(), seed in any::<u64>()) {
        let delta = max_finite_distance(&g).max(1);
        let (r0, s0, _) = apsp(&g, delta, EngineConfig::default());
        let engine = EngineConfig {
            faults: Some(FaultPlan::new(seed)),
            ..EngineConfig::default()
        };
        let (r1, s1, _) = apsp(&g, delta, engine);
        prop_assert_eq!(r0, r1, "pristine plan changed the results");
        prop_assert_eq!(s0.clone(), s1, "pristine plan changed the metrics");
        prop_assert_eq!(s0.fault_events(), 0);
    }

    // Active-set scheduling is an optimization, not a semantics change:
    // on the real Algorithm-1 pipeline under arbitrary fault plans it
    // must produce bit-identical distances, metrics and traces compared
    // to exhaustively polling every node each round — in both the
    // sequential and thread-parallel engines.
    #[test]
    fn active_set_matches_exhaustive_poll_on_pipeline(
        g in arb_graph(), plan in arb_plan()
    ) {
        let (d_ex, s_ex, t_ex) =
            traced_apsp_mode(&g, &plan, false, SchedulingMode::ExhaustivePoll);
        let (d_as, s_as, t_as) =
            traced_apsp_mode(&g, &plan, false, SchedulingMode::ActiveSet);
        prop_assert_eq!(&d_ex, &d_as, "distances diverged across scheduling modes");
        prop_assert_eq!(&s_ex, &s_as, "metrics diverged across scheduling modes");
        prop_assert_eq!(t_ex.records(), t_as.records(), "traces diverged");
        let (d_p, s_p, t_p) =
            traced_apsp_mode(&g, &plan, true, SchedulingMode::ActiveSet);
        prop_assert_eq!(&d_as, &d_p, "parallel active-set distances diverged");
        prop_assert_eq!(&s_as, &s_p, "parallel active-set metrics diverged");
        prop_assert_eq!(t_as.records(), t_p.records(), "parallel traces diverged");
    }

    // Replaying the identical faulty run twice is deterministic.
    #[test]
    fn faulty_runs_replay_deterministically(g in arb_graph(), plan in arb_plan()) {
        let (d1, s1, t1) = traced_apsp(&g, &plan, false);
        let (d2, s2, t2) = traced_apsp(&g, &plan, false);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(t1.records(), t2.records());
    }
}

/// Algorithm 1 through the recovery stack vs Dijkstra on zero-heavy
/// random graphs at drop rates 0%, 1% and 5%.
#[test]
fn alg1_recovers_exact_apsp_under_drop_rates() {
    for seed in 0..3u64 {
        let g = gen::zero_heavy(14, 0.2, 0.4, 6, true, seed);
        let delta = max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let reference = apsp_dijkstra(&g);
        for drop_p in [0.0, 0.01, 0.05] {
            let run = Run::reliable(Some(FaultPlan::drop_only(1000 + seed, drop_p)));
            let solved = solve_hk_ssp(&g, &cfg, &run, &mut NullRecorder).unwrap();
            let (res, rep) = (&solved.result, solved.degradation.unwrap());
            assert_matrices_equal(
                &reference,
                &res.to_matrix(),
                &format!("seed {seed} drop {drop_p}"),
            );
            if drop_p == 0.0 {
                assert_eq!(rep.reliable.retries, 0, "seed {seed}: clean run retried");
                assert_eq!(rep.extra_rounds, 0, "seed {seed}: clean run degraded");
            } else if solved.stats.dropped > 0 {
                assert!(
                    rep.reliable.retries > 0,
                    "seed {seed} drop {drop_p}: drops must force retries"
                );
            }
        }
    }
}

/// Algorithm 2 (short-range) through the recovery stack keeps its h-hop
/// contract under the same drop rates.
#[test]
fn alg2_recovers_h_hop_distances_under_drop_rates() {
    for seed in 0..3u64 {
        let g = gen::zero_heavy(16, 0.18, 0.5, 5, false, 100 + seed);
        let delta = max_finite_distance(&g).max(1);
        let h = 6u64;
        let exact = dwapsp::seqref::bellman_ford(&g, 0);
        for drop_p in [0.0, 0.01, 0.05] {
            let run = Run::reliable(Some(FaultPlan::drop_only(2000 + seed, drop_p)));
            let solved = solve_short_range(&g, 0, h, delta, &run, &mut NullRecorder).unwrap();
            let (res, rep) = (solved.result, solved.degradation.unwrap());
            for v in g.nodes() {
                let vi = v as usize;
                if exact[vi].is_reachable() && u64::from(exact[vi].hops) <= h {
                    assert_eq!(
                        res.dist[vi], exact[vi].dist,
                        "seed {seed} drop {drop_p}: 0 -> {v}"
                    );
                } else if res.dist[vi] != INFINITY {
                    assert!(res.dist[vi] >= exact[vi].dist, "no underestimates");
                }
            }
            if drop_p == 0.0 {
                assert_eq!(rep.late_sends, 0);
                assert_eq!(rep.reliable.retries, 0);
            }
        }
    }
}

/// Delay faults alone need no reliable channel: Algorithm 1's `<= r`
/// re-arm (`NodeList::find_send`) absorbs late arrivals, at the price of
/// `late_sends` and possibly extra rounds — distances stay exact.
#[test]
fn alg1_unwrapped_absorbs_pure_delays() {
    let g = gen::zero_heavy(14, 0.2, 0.4, 5, true, 9);
    let delta = max_finite_distance(&g).max(1);
    let cfg = SspConfig::apsp(g.n(), delta);
    let run = Run {
        engine: EngineConfig {
            faults: Some(FaultPlan::new(31).with_delay(0.25, 4)),
            ..EngineConfig::default()
        },
        budget: Some(4 * default_budget(&cfg, g.n())),
        ..Run::default()
    };
    let Solved {
        result: res, stats, ..
    } = solve_hk_ssp(&g, &cfg, &run, &mut NullRecorder).unwrap();
    assert_matrices_equal(&apsp_dijkstra(&g), &res.to_matrix(), "delay-only apsp");
    assert!(stats.delayed > 0, "the plan must actually delay messages");
    assert_eq!(stats.delayed, stats.late_delivered, "all delays must land");
}
