//! E18: TCP-loopback rounds/s against shard count `P`, with the gap to
//! the simulator per `P`. The pipeline benchmark runs TCP at one shard
//! count only, so this sweep is the one wall-clock table `crates/bench`
//! keeps. Ignored by default: it is a measurement, though every shard
//! count must still reproduce the simulator's `RunStats`.
//!
//! ```text
//! cargo test --release -p dw-bench --test e18_shard_sweep -- --ignored --nocapture
//! ```

use dw_graph::gen::{self, WeightDist};
use dw_graph::NodeId;
use dw_obs::NullRecorder;
use dw_pipeline::{solve_hk_ssp, Run, Runtime, SspConfig};
use std::time::{Duration, Instant};

/// One warm-up, then the fastest of three timed runs: the run is
/// deterministic, so the minimum strips scheduler noise only.
fn best_of_three<T>(run: impl Fn() -> T) -> Duration {
    run();
    (0..3)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed()
        })
        .min()
        .unwrap()
}

/// k-SSP from 64 spread sources on an n = 256, average-degree-12 graph
/// with positive weights up to 16: heavy per-round traffic on purpose,
/// so that the sweep measures batched cross-shard frames rather than
/// barrier latency alone.
#[test]
#[ignore]
fn shard_count_sweep() {
    let n = 256;
    let g = gen::gnp_connected(
        n,
        12.0 / n as f64,
        true,
        WeightDist::ZeroOr {
            p_zero: 0.0,
            max: 16,
        },
        35,
    );
    let delta = dw_seqref::max_finite_distance(&g).max(1);
    let sources: Vec<NodeId> = (0..64).map(|i| (i * n / 64) as NodeId).collect();
    let cfg = SspConfig::k_ssp(n, sources, delta);
    let solve = |rt: Runtime| {
        solve_hk_ssp(&g, &cfg, &Run::on(rt), &mut NullRecorder)
            .expect("runtime run")
            .stats
    };

    let stats = solve(Runtime::Sim);
    let per_sec = |count: u64, wall: Duration| count as f64 / wall.as_secs_f64().max(1e-9);
    let sim = per_sec(stats.rounds_executed, best_of_three(|| solve(Runtime::Sim)));
    eprintln!(
        "n={n} rounds={} executed={} messages={}",
        stats.rounds, stats.rounds_executed, stats.messages
    );
    eprintln!("sim       {sim:>8.0} rounds/s");
    for p in [1usize, 2, 4, 8, 16] {
        let rt = Runtime::TcpSharded(p);
        assert_eq!(solve(rt), stats, "P = {p} departs from the simulator");
        let wall = best_of_three(|| solve(rt));
        let rounds = per_sec(stats.rounds_executed, wall);
        eprintln!(
            "tcp P={p:<3} {rounds:>8.0} rounds/s  {:>10.0} msgs/s  sim-gap {:.2}x",
            per_sec(stats.messages, wall),
            sim / rounds
        );
    }
}
