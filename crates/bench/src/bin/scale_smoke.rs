//! `make scale-smoke`: one time-boxed n=50k short-range SSSP run with a
//! peak-RSS ceiling (CI's guard on the large-graph memory claim).
//!
//! ```text
//! scale_smoke [--secs 120]
//! ```
//!
//! The scale work (CSR adjacency, recycled inbox slab, sharded
//! active-set heaps) is a *memory* claim as much as a throughput one,
//! and throughput gates can't see a memory regression that merely slows
//! nothing down. This smoke runs short-range SSSP on a 224×224 grid
//! (50_176 nodes) and asserts the process peak RSS (`VmHWM`) stays
//! under a budget derived from the workload itself:
//!
//! ```text
//! budget = 128 MiB fixed overhead + 10 × graph.csr_bytes()
//! ```
//!
//! Deriving the ceiling from the CSR size keeps it machine-independent
//! and scales it with the workload: the CSR arrays are the irreducible
//! storage cost, so "within a small constant of the graph itself plus a
//! fixed allowance for the engine's O(n) state" is exactly the property
//! the slab/CSR design promises. A per-node `Vec`-of-`Vec` inbox or
//! adjacency regression at this size blows straight through it.
//!
//! The run is also time-boxed (default 120 s wall, `--secs` to widen on
//! slow machines) so a scheduler regression that turns the idle-heavy
//! frontier into 50k polls per round fails fast instead of hanging CI.
//! On non-Linux hosts the RSS assertion is skipped with a notice
//! (`/proc/self/status` is the only probe the container offers); the
//! run and time-box still execute.

use dw_bench::workloads;
use dw_congest::{EngineConfig, Network, RunOutcome};
use dw_graph::NodeId;
use dw_pipeline::short_range::{short_range_budget, short_range_gamma, ShortRangeNode};
use std::process::ExitCode;
use std::time::Instant;

/// Peak resident set of this process in bytes, from `/proc/self/status`
/// (`VmHWM` is kernel-maintained and monotone — exactly "peak RSS").
fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let secs: u64 = args
        .iter()
        .position(|a| a == "--secs")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(120);

    // Center source, h = 64, so the frontier stays interior to the grid.
    let h: u64 = 64;
    let (rows, cols) = (224usize, 224usize);
    let src: NodeId = (112 * cols + 112) as NodeId;
    let start = Instant::now();
    let w = workloads::scale_grid2d(rows, cols, 8, h as usize, src, 5001);
    let csr_bytes = w.graph.csr_bytes() as u64;
    let rss_budget = 128 * (1 << 20) + 10 * csr_bytes;
    eprintln!(
        "scale_smoke: n={} m={} delta={} csr={:.1} MiB rss-budget={:.1} MiB",
        w.n(),
        w.graph.m(),
        w.delta,
        csr_bytes as f64 / (1 << 20) as f64,
        rss_budget as f64 / (1 << 20) as f64,
    );

    let gamma = short_range_gamma(h);
    let budget = short_range_budget(h, w.delta);
    let mut net = Network::new(&w.graph, EngineConfig::default(), |v| {
        ShortRangeNode::new(gamma, h, (v == src).then_some(0))
    });
    let outcome = net.run(budget);
    let stats = net.stats_with_memory();
    let wall = start.elapsed();

    eprintln!(
        "scale_smoke: outcome={outcome:?} rounds={} executed={} messages={} \
         slab={:.1} KiB (peak {} live buffers) wall={:.1}s",
        stats.rounds,
        stats.rounds_executed,
        stats.messages,
        stats.slab_bytes as f64 / 1024.0,
        stats.slab_peak,
        wall.as_secs_f64(),
    );

    let mut failures = 0usize;
    if outcome != RunOutcome::Quiet {
        eprintln!("scale_smoke: FAIL: run did not go quiet within the Lemma II.15 budget {budget}");
        failures += 1;
    }
    if stats.messages == 0 || stats.rounds_executed == 0 {
        eprintln!("scale_smoke: FAIL: degenerate run (no messages or rounds)");
        failures += 1;
    }
    if wall.as_secs() > secs {
        eprintln!(
            "scale_smoke: FAIL: wall clock {:.1}s exceeded the {secs}s time box",
            wall.as_secs_f64()
        );
        failures += 1;
    }
    match vm_hwm_bytes() {
        Some(hwm) => {
            let verdict = if hwm > rss_budget {
                failures += 1;
                "FAIL"
            } else {
                "ok"
            };
            eprintln!(
                "scale_smoke: {verdict}: peak RSS {:.1} MiB (budget {:.1} MiB)",
                hwm as f64 / (1 << 20) as f64,
                rss_budget as f64 / (1 << 20) as f64,
            );
        }
        None => eprintln!("scale_smoke: note: no /proc/self/status; RSS assertion skipped"),
    }

    if failures > 0 {
        return ExitCode::FAILURE;
    }
    eprintln!("scale_smoke: pass");
    ExitCode::SUCCESS
}
