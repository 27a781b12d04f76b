//! End-to-end conformance of the paper's algorithms on the real
//! message-passing runtimes: Algorithm 1 (pipelined (h,k)-SSP),
//! Algorithm 2 (short-range), and the `Reliable`-wrapped short-range
//! protocol must produce bit-identical results, `RunStats` and
//! outcomes on the thread and loopback-TCP backends — one node per
//! worker, the paper's layout — versus the lockstep simulator, on
//! multiple seeded graphs, with and without an injected `FaultPlan`.

use dwapsp::congest::{EngineConfig, FaultPlan};
use dwapsp::graph::gen;
use dwapsp::graph::WGraph;
use dwapsp::pipeline::{ChaosConfig, HkSspResult, Solved};
use dwapsp::prelude::*;
use dwapsp::transport::ChaosPlan;
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

/// `rt` over links faulted by `faults`.
fn run_on(rt: Runtime, faults: Option<FaultPlan>) -> Run {
    let engine = EngineConfig {
        faults,
        ..EngineConfig::default()
    };
    Run {
        engine,
        ..Run::on(rt)
    }
}

fn alg1(
    rt: Runtime,
    g: &WGraph,
    cfg: &SspConfig,
    faults: Option<FaultPlan>,
) -> Solved<HkSspResult> {
    solve_hk_ssp(g, cfg, &run_on(rt, faults), &mut NullRecorder).unwrap()
}

/// `rt` over reliable links under `plan`.
fn reliable_on(rt: Runtime, plan: &FaultPlan) -> Run {
    Run {
        runtime: rt,
        ..Run::reliable(Some(plan.clone()))
    }
}

#[test]
fn alg1_conforms_across_seeds_and_runtimes() {
    for (seed, g) in graphs() {
        let delta = max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let sim = alg1(Runtime::Sim, &g, &cfg, None);
        for rt in [Runtime::Threads, Runtime::Tcp] {
            let got = alg1(rt, &g, &cfg, None);
            assert_eq!(got, sim, "seed {seed} runtime {}", rt.as_str());
        }
    }
}

#[test]
fn alg1_conforms_under_faults() {
    for (seed, g) in graphs() {
        let delta = max_finite_distance(&g).max(1);
        let cfg = SspConfig::k_ssp(g.n(), vec![0, (g.n() / 2) as NodeId], delta);
        let sim = alg1(Runtime::Sim, &g, &cfg, Some(fault_plan(seed)));
        for rt in [Runtime::Threads, Runtime::Tcp] {
            let got = alg1(rt, &g, &cfg, Some(fault_plan(seed)));
            assert_eq!(got, sim, "seed {seed} runtime {}", rt.as_str());
        }
    }
}

#[test]
fn short_range_conforms_across_seeds() {
    for (seed, g) in graphs() {
        let delta = max_finite_distance(&g).max(1);
        let h = g.n() as u64;
        let solve = |rt| solve_short_range(&g, 0, h, delta, &Run::on(rt), &mut NullRecorder);
        let sim = solve(Runtime::Sim).unwrap();
        for rt in [Runtime::Threads, Runtime::Tcp] {
            let got = solve(rt).unwrap();
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
        let solve = |rt| {
            let run = run_on(rt, Some(plan.clone()));
            solve_short_range(&g, 0, h, delta, &run, &mut NullRecorder).unwrap()
        };
        let sim = solve(Runtime::Sim);
        for rt in [Runtime::Threads, Runtime::Tcp] {
            let got = solve(rt);
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
        let sim = alg1(Runtime::Sim, &g, &cfg, Some(plan.clone())).stats;
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
            let st = alg1(rt, &g, &cfg, Some(plan.clone())).stats;
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
        let sim = alg1(Runtime::Sim, &g, &cfg, None);
        let chaos = ChaosConfig {
            plan: ChaosPlan::new(seed).with_kill((g.n() / 2) as NodeId, 4),
            cadence: Some(3),
            deadline: Duration::from_millis(500),
        };
        for rt in [Runtime::Threads, Runtime::Tcp] {
            let run = Run {
                recovery: Some(Recovery::Chaos(chaos.clone())),
                ..Run::on(rt)
            };
            let got = solve_hk_ssp(&g, &cfg, &run, &mut NullRecorder)
                .unwrap_or_else(|e| panic!("seed {seed} {}: {e}", rt.as_str()));
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
        let plan = FaultPlan::new(seed ^ 0xd00d).with_drop(0.15);
        let solve = |rt| {
            let run = reliable_on(rt, &plan);
            solve_short_range(&g, 0, h, delta, &run, &mut NullRecorder).unwrap()
        };
        let sim = solve(Runtime::Sim);
        assert!(
            sim.stats.dropped > 0,
            "seed {seed}: plan must drop messages"
        );
        for rt in [Runtime::Threads, Runtime::Tcp] {
            let name = rt.as_str();
            let got = solve(rt);
            assert_eq!(got.outcome, sim.outcome, "seed {seed} {name}");
            assert_eq!(got.stats, sim.stats, "seed {seed} {name}");
            assert_eq!(got.result, sim.result, "seed {seed} {name}");
        }
    }
}

/// Algorithm 1 over reliable links, on the thread backend at one node
/// per worker and on two loopback TCP shards: the same distances, the
/// same `RunStats` and the same degradation report (retries, late
/// sends, the fault-free baseline's rounds) as the simulator.
#[test]
fn reliable_alg1_conforms_under_drops() {
    for (seed, g) in graphs() {
        let delta = max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let plan = FaultPlan::new(seed ^ 0xbeef).with_drop(0.1);
        let solve = |rt| solve_hk_ssp(&g, &cfg, &reliable_on(rt, &plan), &mut NullRecorder);
        let sim = solve(Runtime::Sim).unwrap();
        let report = sim.degradation.as_ref().expect("a reliable run reports");
        assert!(
            report.reliable.retries > 0,
            "seed {seed}: drops must force retries"
        );
        for rt in [Runtime::Threads, Runtime::TcpSharded(2)] {
            let got = solve(rt).unwrap();
            let name = rt.label();
            assert_eq!(got.result, sim.result, "seed {seed} {name}");
            assert_eq!(got.stats, sim.stats, "seed {seed} {name}");
            assert_eq!(got.degradation, sim.degradation, "seed {seed} {name}");
        }
    }
}
