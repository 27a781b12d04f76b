//! `e15_transport`: runtime throughput of the real message-passing
//! backends versus the lockstep simulator, on identical workloads.
//!
//! Two fixed workloads (Algorithm 1 APSP and Algorithm 2 short-range)
//! run under three execution environments: the simulator, the
//! `dw-transport` thread backend, and the TCP loopback backend (real
//! sockets, serialized frames, one reader thread per socket end). Because
//! every backend is conformant, the round structure and message counts
//! are identical across modes — only the wall clock differs, so
//! `rounds_per_sec` is a clean apples-to-apples throughput comparison
//! and messages-per-second a clean wire-throughput measure for TCP.
//!
//! The `transport_bench` binary prints the entries after the engine
//! workloads. `threads` / `tcp_loopback` are the one-node-per-worker
//! layout (`P = n`), the `e15_sharded_kssp` rows the same plane at
//! `P = 8`.

use crate::engine_bench::{measure, Measurement};
use crate::workloads;
use dw_obs::NullRecorder;
use dw_pipeline::{solve_hk_ssp, solve_short_range, Run, Runtime, SspConfig};

const RUNTIMES: [Runtime; 3] = [Runtime::Sim, Runtime::Threads, Runtime::Tcp];

fn mode_label(rt: Runtime) -> &'static str {
    match rt {
        Runtime::Sim => "sim",
        Runtime::Threads => "threads",
        Runtime::Tcp => "tcp_loopback",
        Runtime::ThreadsSharded(_) => "threads_sharded",
        Runtime::TcpSharded(_) => "tcp_sharded",
    }
}

/// Shard count for the `e15_sharded_*` rows: enough workers that the
/// batched cross-shard plane dominates, small enough that an 8-core
/// runner isn't oversubscribed.
pub const SHARDED_WORKERS: usize = 8;

/// The `e15_sharded_kssp` instance (also the E18 sweep's): k-SSP with
/// 64 spread sources on an avg-degree-12 positive-weight graph, n=256
/// full size. Heavy per-round traffic on purpose — the sharded backends
/// amortize their per-round barrier over batched cross-shard frames, so
/// a workload with near-empty rounds would measure barrier latency, not
/// the batching this plane exists for.
pub fn sharded_workload(smoke: bool) -> (workloads::Workload, SspConfig) {
    let sh = workloads::positive_random(if smoke { 64 } else { 256 }, 16, 35);
    let stride = sh.n() / 64;
    let sources: Vec<_> = (0..64).map(|i| (i * stride) as dw_graph::NodeId).collect();
    let cfg = SspConfig::k_ssp(sh.n(), sources, sh.delta);
    (sh, cfg)
}

/// The fixed `e15_transport` measurement set, in stable order. `smoke`
/// shrinks the instances for a quick `make bench-smoke` sanity run.
pub fn run_all_transport(smoke: bool) -> Vec<Measurement> {
    let mut out = Vec::new();

    // Algorithm 1 APSP on the motivating zero-heavy regime. Broadcast
    // traffic, every node a source: the dense case for the barrier.
    let apsp = workloads::zero_heavy(if smoke { 16 } else { 40 }, 5, 15);
    let cfg = SspConfig::apsp(apsp.n(), apsp.delta);
    for rt in RUNTIMES {
        let (apsp, cfg) = (&apsp, &cfg);
        out.push(measure("e15_alg1_apsp", mode_label(rt), apsp.n(), || {
            solve_hk_ssp(&apsp.graph, cfg, &Run::on(rt), &mut NullRecorder)
                .expect("runtime run")
                .stats
        }));
    }

    // Algorithm 2 short-range on a sparse graph: a moving frontier where
    // most nodes idle most rounds — the barrier's fast-forward case.
    let sr = workloads::sparse_positive(if smoke { 32 } else { 96 }, 16, 21);
    let h = sr.n() as u64;
    for rt in RUNTIMES {
        let sr = &sr;
        out.push(measure("e15_short_range", mode_label(rt), sr.n(), || {
            solve_short_range(&sr.graph, 0, h, sr.delta, &Run::on(rt), &mut NullRecorder)
                .expect("runtime run")
                .stats
        }));
    }

    // The sharded plane at deployment scale: n=256 with 8 worker shards,
    // so each worker hosts 32 nodes, intra-shard traffic never touches a
    // socket, and cross-shard traffic is one RoundBatch per shard pair
    // per round. That per-round weight (see `sharded_workload`) is what
    // the TCP row's gap to the simulator measures.
    let (sh, cfg) = sharded_workload(smoke);
    for rt in [
        Runtime::Sim,
        Runtime::ThreadsSharded(SHARDED_WORKERS),
        Runtime::TcpSharded(SHARDED_WORKERS),
    ] {
        let (sh, cfg) = (&sh, &cfg);
        out.push(measure("e15_sharded_kssp", mode_label(rt), sh.n(), || {
            solve_hk_ssp(&sh.graph, cfg, &Run::on(rt), &mut NullRecorder)
                .expect("runtime run")
                .stats
        }));
    }

    out
}

/// Pretty-print one measurement with the derived wire throughput (the
/// TCP rows are the "loopback message throughput" number of `e15`).
pub fn print_entry(m: &Measurement) {
    eprintln!(
        "{:20} {:14} n={:4} rounds={:6} executed={:6} wall={:9.2}ms  {:>11.0} rounds/s  {:>12.0} msgs/s",
        m.workload,
        m.mode,
        m.n,
        m.rounds,
        m.rounds_executed,
        m.wall_ms,
        m.rounds_per_sec,
        m.messages as f64 / (m.wall_ms / 1e3).max(1e-9),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The measurement set itself re-asserts conformance: identical
    /// round structure and message counts across all three modes.
    #[test]
    fn transport_bench_modes_agree_on_structure() {
        let ms = run_all_transport(true);
        assert_eq!(ms.len(), 9);
        for chunk in ms.chunks(3) {
            for m in &chunk[1..] {
                assert_eq!(m.workload, chunk[0].workload);
                assert_eq!(
                    (m.rounds, m.rounds_executed, m.messages),
                    (chunk[0].rounds, chunk[0].rounds_executed, chunk[0].messages),
                    "{}/{} disagrees with {}",
                    m.workload,
                    m.mode,
                    chunk[0].mode
                );
            }
        }
    }

    /// Full-size sim-gap probe for the `e15_sharded_kssp` workload —
    /// `cargo test --release -p dw-bench -- --ignored sharded_sim_gap`
    /// prints the ratio without re-running the whole table. Ignored by
    /// default: it is a measurement, not an assertion.
    #[test]
    #[ignore]
    fn sharded_sim_gap_probe() {
        let ms = run_all_transport(false);
        let shard: Vec<_> = ms
            .iter()
            .filter(|m| m.workload == "e15_sharded_kssp")
            .collect();
        let sim = shard.iter().find(|m| m.mode == "sim").unwrap();
        for m in &shard {
            eprintln!(
                "{:16} {:>10.0} rounds/s  sim-gap {:.2}x",
                m.mode,
                m.rounds_per_sec,
                sim.rounds_per_sec / m.rounds_per_sec
            );
        }
    }

    /// The E18 sweep: TCP-loopback rounds/sec vs shard count on the
    /// full-size `e15_sharded_kssp` instance, with the sim-gap ratio
    /// per P. `cargo test --release -p dw-bench -- --ignored --nocapture
    /// shard_count_sweep` regenerates the EXPERIMENTS.md E18 table.
    #[test]
    #[ignore]
    fn shard_count_sweep() {
        let (sh, cfg) = sharded_workload(false);
        let sim = measure("e18_sweep", "sim", sh.n(), || {
            let run = Run::default();
            solve_hk_ssp(&sh.graph, &cfg, &run, &mut NullRecorder)
                .unwrap()
                .stats
        });
        eprintln!(
            "sim       {:>8.0} rounds/s  {:>10.0} msgs/s",
            sim.rounds_per_sec,
            sim.messages as f64 / (sim.wall_ms / 1e3)
        );
        for p in [1usize, 2, 4, 8, 16] {
            let m = measure("e18_sweep", "tcp_sharded", sh.n(), || {
                let run = Run::on(Runtime::TcpSharded(p));
                solve_hk_ssp(&sh.graph, &cfg, &run, &mut NullRecorder)
                    .unwrap()
                    .stats
            });
            eprintln!(
                "tcp P={p:<3} {:>8.0} rounds/s  {:>10.0} msgs/s  sim-gap {:.2}x",
                m.rounds_per_sec,
                m.messages as f64 / (m.wall_ms / 1e3),
                sim.rounds_per_sec / m.rounds_per_sec
            );
        }
    }
}
