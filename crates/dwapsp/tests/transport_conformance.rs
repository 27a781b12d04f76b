//! End-to-end conformance of the paper's algorithms on the real
//! message-passing runtimes: Algorithm 1 (pipelined (h,k)-SSP),
//! Algorithm 2 (short-range), and the `Reliable`-wrapped short-range
//! protocol must produce bit-identical results, `RunStats` and
//! outcomes on the thread and loopback-TCP backends — one node per
//! worker, the paper's layout — versus the lockstep simulator, on
//! multiple seeded graphs, with and without an injected `FaultPlan`.

use dwapsp::congest::{
    EngineConfig, FaultPlan, Network, Reliable, ReliableConfig, RunOutcome, RunStats,
};
use dwapsp::graph::gen;
use dwapsp::graph::WGraph;
use dwapsp::obs::NullRecorder;
use dwapsp::pipeline::short_range::{extract_instance, short_range_gamma, ShortRangeNode};
use dwapsp::pipeline::{run_hk_ssp_chaos, ChaosConfig};
use dwapsp::prelude::*;
use dwapsp::transport::{run_tcp_loopback, run_threads, ChaosPlan, TransportConfig};
use std::time::Duration;

fn graphs() -> Vec<(u64, WGraph)> {
    [71, 72, 73]
        .into_iter()
        .map(|seed| (seed, gen::zero_heavy(10, 0.3, 0.35, 5, true, seed)))
        .collect()
}

fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 0x5eed)
        .with_drop(0.08)
        .with_duplicate(0.04)
        .with_delay(0.1, 3)
}

fn engine(faults: Option<FaultPlan>) -> EngineConfig {
    EngineConfig {
        faults,
        ..EngineConfig::default()
    }
}

#[test]
fn alg1_conforms_across_seeds_and_runtimes() {
    for (seed, g) in graphs() {
        let delta = max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let sim = run_hk_ssp_on(Runtime::Sim, &g, &cfg, engine(None)).unwrap();
        for rt in [Runtime::Threads, Runtime::Tcp] {
            let got = run_hk_ssp_on(rt, &g, &cfg, engine(None)).unwrap();
            assert_eq!(got, sim, "seed {seed} runtime {}", rt.as_str());
        }
    }
}

#[test]
fn alg1_conforms_under_faults() {
    for (seed, g) in graphs() {
        let delta = max_finite_distance(&g).max(1);
        let cfg = SspConfig::k_ssp(g.n(), vec![0, (g.n() / 2) as NodeId], delta);
        let sim = run_hk_ssp_on(Runtime::Sim, &g, &cfg, engine(Some(fault_plan(seed)))).unwrap();
        for rt in [Runtime::Threads, Runtime::Tcp] {
            let got = run_hk_ssp_on(rt, &g, &cfg, engine(Some(fault_plan(seed)))).unwrap();
            assert_eq!(got, sim, "seed {seed} runtime {}", rt.as_str());
        }
    }
}

#[test]
fn short_range_conforms_across_seeds() {
    for (seed, g) in graphs() {
        let delta = max_finite_distance(&g).max(1);
        let h = g.n() as u64;
        let sim = short_range_sssp_on(Runtime::Sim, &g, 0, h, delta, engine(None)).unwrap();
        for rt in [Runtime::Threads, Runtime::Tcp] {
            let got = short_range_sssp_on(rt, &g, 0, h, delta, engine(None)).unwrap();
            assert_eq!(got, sim, "seed {seed} runtime {}", rt.as_str());
        }
    }
}

#[test]
fn short_range_conforms_under_faults() {
    for (seed, g) in graphs() {
        let delta = max_finite_distance(&g).max(1);
        let h = g.n() as u64;
        let plan = fault_plan(seed ^ 1);
        let sim =
            short_range_sssp_on(Runtime::Sim, &g, 0, h, delta, engine(Some(plan.clone()))).unwrap();
        for rt in [Runtime::Threads, Runtime::Tcp] {
            let got = short_range_sssp_on(rt, &g, 0, h, delta, engine(Some(plan.clone()))).unwrap();
            assert_eq!(got, sim, "seed {seed} runtime {}", rt.as_str());
        }
    }
}

/// The fault machinery itself is conformant, counter by counter: under
/// the same seeded `FaultPlan`, the simulator and both transports must
/// report bit-identical `dropped` / `duplicated` / `delayed` /
/// `late_delivered` tallies (not just equal totals — each fault decision
/// is driven by the same per-message hash, so the ledgers must agree
/// entry for entry), and the plan must actually exercise every fault
/// type so the equality is not vacuous.
#[test]
fn fault_counters_match_bit_for_bit_across_runtimes() {
    let mut late_total = 0u64;
    for (seed, g) in graphs() {
        let delta = max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let plan = fault_plan(seed);
        let (_, sim, _) =
            run_hk_ssp_on(Runtime::Sim, &g, &cfg, engine(Some(plan.clone()))).unwrap();
        assert!(
            sim.dropped > 0 && sim.duplicated > 0 && sim.delayed > 0,
            "seed {seed}: plan must exercise every fault type \
             (dropped={} duplicated={} delayed={})",
            sim.dropped,
            sim.duplicated,
            sim.delayed
        );
        late_total += sim.late_delivered;
        for rt in [Runtime::Threads, Runtime::Tcp] {
            let (_, st, _) = run_hk_ssp_on(rt, &g, &cfg, engine(Some(plan.clone()))).unwrap();
            for ((name, want), (_, got)) in sim.fields().iter().zip(st.fields().iter()) {
                assert_eq!(
                    got,
                    want,
                    "seed {seed} runtime {}: {name} diverges from sim",
                    rt.as_str()
                );
            }
        }
    }
    assert!(
        late_total > 0,
        "across all seeds some delayed message must have arrived late"
    );
}

/// Crash-fault tolerance end to end: kill one node mid-run on each
/// real backend, let checkpoint/restore and neighbor replay bring it
/// back, and require the recovered run's distances, stats and outcome
/// to be bit-identical to the fault-free simulator's.
#[test]
fn chaos_kill_recovers_bit_identical_across_runtimes() {
    for (seed, g) in graphs() {
        let delta = max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let sim = run_hk_ssp_on(Runtime::Sim, &g, &cfg, engine(None)).unwrap();
        let chaos = ChaosConfig {
            plan: ChaosPlan::new(seed).with_kill((g.n() / 2) as NodeId, 4),
            cadence: Some(3),
            deadline: Duration::from_millis(500),
        };
        for rt in [Runtime::Threads, Runtime::Tcp] {
            let got = run_hk_ssp_chaos(rt, &g, &cfg, engine(None), &chaos, &mut NullRecorder)
                .unwrap_or_else(|p| {
                    panic!("seed {seed} {}: unrecoverable: {}", rt.as_str(), p.reason)
                });
            assert_eq!(got, sim, "seed {seed} runtime {}", rt.as_str());
        }
    }
}

/// The reliability layer (seq/ack retransmission) composes with the
/// transports exactly as with the simulator: same retransmit schedule,
/// same recovered distances, same fault tally.
#[test]
fn reliable_short_range_conforms_under_drops() {
    for (seed, g) in graphs() {
        let delta = max_finite_distance(&g).max(1);
        let h = g.n() as u64;
        let gamma = short_range_gamma(h);
        let budget = 4 * (gamma.ceil_kappa(delta.max(1), h) + 2) + 64;
        let plan = FaultPlan::new(seed ^ 0xd00d).with_drop(0.15);
        let make = |v: NodeId| {
            Reliable::new(
                ShortRangeNode::new(gamma, h, (v == 0).then_some(0)),
                ReliableConfig::default(),
            )
        };

        let mut net = Network::new(&g, engine(Some(plan.clone())), make);
        let sim_outcome = net.run(budget);
        let sim_stats = net.stats();
        let sim_inner: Vec<ShortRangeNode> = net
            .into_nodes()
            .into_iter()
            .map(|r| r.into_inner())
            .collect();
        let sim_res = extract_instance(0, &sim_inner);
        assert!(
            sim_stats.dropped > 0,
            "seed {seed}: plan must drop messages"
        );

        let tcfg = TransportConfig {
            faults: Some(plan.clone()),
            ..TransportConfig::default()
        };
        let runs: Vec<(&str, _, RunStats, RunOutcome)> = vec![
            {
                let r = run_threads(&g, &tcfg, budget, g.n(), make, &mut NullRecorder).unwrap();
                ("threads", r.nodes, r.stats, r.outcome)
            },
            {
                let r =
                    run_tcp_loopback(&g, &tcfg, budget, g.n(), make, &mut NullRecorder).unwrap();
                ("tcp", r.nodes, r.stats, r.outcome)
            },
        ];
        for (name, nodes, stats, outcome) in runs {
            assert_eq!(outcome, sim_outcome, "seed {seed} {name}");
            assert_eq!(stats, sim_stats, "seed {seed} {name}");
            let inner: Vec<ShortRangeNode> = nodes.into_iter().map(|r| r.into_inner()).collect();
            assert_eq!(extract_instance(0, &inner), sim_res, "seed {seed} {name}");
        }
    }
}
