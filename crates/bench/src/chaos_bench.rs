//! `e21_chaos`: per-nemesis recovery latency of the transport plane
//! (DESIGN.md §15, EXPERIMENTS.md E21).
//!
//! One Algorithm 1 APSP instance on the thread backend, run three ways
//! under the link nemeses of [`dw_transport::ChaosPlan`]:
//!
//! * `chaos_partition` — a group partition active from round 1 that
//!   heals at round 8 (parked frames delivered on heal);
//! * `chaos_asym_loss` — one-way loss on a communication edge for
//!   rounds 1..8 (the direction-sensitive case sever cannot express);
//! * `chaos_bandwidth_cap` — an 8-bytes/round leaky-bucket cap on one
//!   link for the whole run (RoundBatch spill-over across rounds).
//!
//! Every nemesis here heals (or merely delays), so each run must end
//! bit-identical to the fault-free simulator — the measurement itself
//! re-asserts that before reporting a number, making the bench row a
//! recovery proof as well as a latency figure.
//!
//! `Measurement` mapping: `rounds`/`rounds_executed`/`messages` come
//! from the chaos run's `RunStats` (deterministic per plan — the unit
//! test below pins that), `rounds_per_sec` is the throughput
//! like every other workload, `p50_us` records the **recovery
//! latency** — the extra wall time the nemesis added over the
//! fault-free thread run (best-of-three on both sides) — and `p99_us`
//! the chaos run's total wall time.

use crate::engine_bench::Measurement;
use crate::workloads;
use dw_obs::NullRecorder;
use dw_pipeline::{solve_hk_ssp, ChaosConfig, Recovery, Run, Runtime, SspConfig};
use dw_transport::ChaosPlan;
use std::time::{Duration, Instant};

/// Best-of-three wall clock for one closure (one warmup first),
/// mirroring `engine_bench::measure`'s noise handling.
fn best_of_three<T>(run: impl Fn() -> T) -> (T, Duration) {
    let _ = run();
    let start = Instant::now();
    let out = run();
    let mut wall = start.elapsed();
    for _ in 0..2 {
        let start = Instant::now();
        let _ = run();
        wall = wall.min(start.elapsed());
    }
    (out, wall)
}

fn measure_nemesis(
    workload: &'static str,
    wl: &workloads::Workload,
    cfg: &SspConfig,
    plan: ChaosPlan,
    clean_wall: Duration,
    reference: &dw_pipeline::HkSspResult,
) -> Measurement {
    let chaos = ChaosConfig {
        plan,
        cadence: None,
        deadline: Duration::from_millis(500),
    };
    let run = Run {
        recovery: Some(Recovery::Chaos(chaos)),
        ..Run::on(Runtime::Threads)
    };
    let (stats, wall) = best_of_three(|| {
        let solved = solve_hk_ssp(&wl.graph, cfg, &run, &mut NullRecorder)
            .unwrap_or_else(|e| panic!("{workload}: healing nemesis was unrecoverable: {e}"));
        assert_eq!(
            solved.result.to_matrix(),
            reference.to_matrix(),
            "{workload}: healed run diverged from the fault-free simulator"
        );
        solved.stats
    });
    Measurement {
        workload,
        mode: "threads",
        n: wl.n(),
        rounds: stats.rounds,
        rounds_executed: stats.rounds_executed,
        messages: stats.messages,
        wall_ms: wall.as_secs_f64() * 1e3,
        rounds_per_sec: stats.rounds_executed as f64 / wall.as_secs_f64().max(1e-9),
        slab_bytes: stats.slab_bytes,
        slab_peak: stats.slab_peak,
        p50_us: wall.saturating_sub(clean_wall).as_micros() as u64,
        p99_us: wall.as_micros() as u64,
    }
}

/// The fixed `e21_chaos` measurement set, in stable order. `smoke`
/// shrinks the instance for `make bench-smoke` and the unit test below.
pub fn run_all_chaos(smoke: bool) -> Vec<Measurement> {
    let wl = workloads::zero_heavy(if smoke { 14 } else { 24 }, 5, 9);
    let cfg = SspConfig::apsp(wl.n(), wl.delta);
    let solve = |rt| solve_hk_ssp(&wl.graph, &cfg, &Run::on(rt), &mut NullRecorder);
    let reference = solve(Runtime::Sim)
        .expect("fault-free simulator cannot fail")
        .result;

    // The fault-free thread run is the latency baseline the recovery
    // figure is measured against — same backend, no plan.
    let (_, clean_wall) =
        best_of_three(|| solve(Runtime::Threads).expect("fault-free thread run cannot fail"));

    let group: Vec<dw_graph::NodeId> = (0..wl.n() as u32 / 3).collect();
    let (u, v) = (0, wl.graph.comm_neighbors(0)[0]);
    vec![
        measure_nemesis(
            "chaos_partition",
            &wl,
            &cfg,
            ChaosPlan::new(21).with_partition(vec![group], 1, Some(8)),
            clean_wall,
            &reference,
        ),
        measure_nemesis(
            "chaos_asym_loss",
            &wl,
            &cfg,
            ChaosPlan::new(21).with_asym_loss(u, v, 1, 8),
            clean_wall,
            &reference,
        ),
        measure_nemesis(
            "chaos_bandwidth_cap",
            &wl,
            &cfg,
            ChaosPlan::new(21).with_bandwidth_cap(u, v, 8),
            clean_wall,
            &reference,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke set is the full pipeline in miniature: every nemesis
    /// recovers to bit-identity (asserted inside the measurement), the
    /// round structure is deterministic, and the recovery-latency
    /// mapping is coherent (p99 covers the whole run, p50 the overhead).
    #[test]
    fn chaos_bench_smoke_set_is_clean() {
        let ms = run_all_chaos(true);
        assert_eq!(ms.len(), 3);
        for m in &ms {
            assert!(m.rounds_per_sec > 0.0, "{}", m.workload);
            assert!(m.messages > 0);
            assert!(m.p99_us >= m.p50_us, "{}", m.workload);
        }
        // Same plans, same seeds: the same round structure.
        let again = run_all_chaos(true);
        for (a, b) in ms.iter().zip(&again) {
            assert_eq!(
                (a.rounds, a.rounds_executed, a.messages),
                (b.rounds, b.rounds_executed, b.messages),
                "{}",
                a.workload
            );
        }
    }
}
