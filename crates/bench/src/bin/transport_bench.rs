//! Measure engine and runtime throughput and print the table.
//!
//! ```text
//! transport_bench [--smoke]
//! ```
//!
//! The full pass prints, one row per measurement: the engine workload
//! set of [`dw_bench::engine_bench`] under every engine mode; the
//! `e15_transport` set — threads-vs-simulator rounds/sec and TCP
//! loopback throughput for Algorithm 1 APSP and short-range at one node
//! per worker — and the `e15_sharded_kssp` set, the same workers at
//! `P = 8` on the n=256 k-SSP workload; the `e16_alg3_phases` set:
//! per-phase throughput of the recorded Algorithm 3 decomposition; the
//! `scale_*` set: short-range SSSP and k-SSP at n≥50k; the `serve_*`
//! set: sustained query-plane QPS of the `dw-serve` gateway across
//! shard counts and uniform/Zipf mixes (EXPERIMENTS.md E19); the
//! `dynamic_*` set: incremental-recompute batches/sec of `dw-dynamic`
//! at batch sizes 1/8/64 against a from-scratch baseline
//! (EXPERIMENTS.md E20); and the `chaos_*` set: per-nemesis recovery
//! latency of the thread backend under healing partition /
//! asymmetric-loss / bandwidth-cap plans, each run re-asserting
//! bit-identity to the fault-free simulator before reporting
//! (EXPERIMENTS.md E21). Nothing is written and nothing is gated: the
//! numbers are a microscope, the pipeline benchmark (`BENCHMARK.json`)
//! is the judge.
//!
//! `--smoke` runs the reduced `e15`/`e16`/`e19`/`e20`/`e21` instances
//! only — the `make bench-smoke` sanity pass (the engine and scale sets
//! are skipped there; `make scale-smoke` covers the 50k path with an
//! RSS assertion).

use dw_bench::chaos_bench::run_all_chaos;
use dw_bench::dynamic_bench::run_all_dynamic;
use dw_bench::engine_bench::{run_all, run_scale, scale_modes, standard_modes};
use dw_bench::obs_bench::run_alg3_phases;
use dw_bench::serve_bench::run_all_serve;
use dw_bench::transport_bench::{print_entry, run_all_transport};

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let mut ms = Vec::new();
    if !smoke {
        ms.extend(run_all(&standard_modes()));
    }
    ms.extend(run_all_transport(smoke));
    ms.extend(run_alg3_phases(smoke));
    if !smoke {
        ms.extend(run_scale(&scale_modes()));
    }
    ms.extend(run_all_serve(smoke));
    ms.extend(run_all_dynamic(smoke));
    ms.extend(run_all_chaos(smoke));
    for m in &ms {
        print_entry(m);
    }
}
