//! `make scale-smoke`: one n = 50 176 short-range SSSP run inside a
//! time box and a peak-RSS ceiling, CI's guard on the large-graph
//! memory claim. The test has this target to itself, so the process's
//! `VmHWM` is this run's peak.
//!
//! The scale work (CSR adjacency, recycled inbox slab, active-set
//! schedule) is a *memory* claim as much as a speed one, and a speed
//! gate cannot see a memory regression that slows nothing down. The
//! ceiling is derived from the workload, so it holds on any machine:
//!
//! ```text
//! budget = 128 MiB fixed overhead + 10 × graph.csr_bytes()
//! ```
//!
//! The CSR arrays are the irreducible storage; "within a small constant
//! of the graph plus a fixed allowance for the engine's O(n) state" is
//! what the slab/CSR design promises, and a per-node `Vec`-of-`Vec`
//! inbox or adjacency at this size blows through it. The 120 s time box
//! fails a schedule that turns the idle-heavy frontier into 50k polls a
//! round. Without `/proc/self/status` (non-Linux) the RSS check is
//! skipped with a notice.

use dw_congest::{EngineConfig, Network, RunOutcome};
use dw_graph::gen::{self, WeightDist};
use dw_graph::NodeId;
use dw_pipeline::short_range::{short_range_budget, short_range_gamma, ShortRangeNode};
use std::time::{Duration, Instant};

/// Peak resident set of this process in bytes (`VmHWM` is the kernel's
/// monotone peak).
fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
#[ignore = "a 50k-node run in a time box and an RSS ceiling; run by `make scale-smoke`"]
fn a_50k_node_short_range_run_stays_inside_its_time_and_memory_box() {
    // Centre source and h = 64, so the frontier stays inside the grid.
    let (side, h) = (224usize, 64u64);
    let src = (112 * side + 112) as NodeId;
    let start = Instant::now();
    let g = gen::grid(side, side, false, WeightDist::Uniform { max: 8 }, 5001);
    // Δ from the run's own source: one h-hop Bellman–Ford pass, where
    // an all-pairs Δ would be 2.5G pairs.
    let delta = dw_seqref::h_hop_sssp(&g, src, h as usize)
        .iter()
        .filter(|hd| hd.is_reachable())
        .map(|hd| hd.dist)
        .max()
        .unwrap_or(0)
        .max(1);
    let rss_budget = 128 * (1 << 20) + 10 * g.csr_bytes() as u64;
    let mib = |b: u64| b as f64 / (1 << 20) as f64;

    let gamma = short_range_gamma(h);
    let budget = short_range_budget(h, delta);
    let mut net = Network::new(&g, EngineConfig::default(), |v| {
        ShortRangeNode::new(gamma, h, (v == src).then_some(0))
    });
    let outcome = net.run(budget);
    let stats = net.stats_with_memory();
    let wall = start.elapsed();
    eprintln!(
        "scale_smoke: n={} m={} delta={delta} outcome={outcome:?} rounds={} executed={} \
         messages={} slab={:.1} KiB (peak {} live buffers) wall={:.1}s",
        g.n(),
        g.m(),
        stats.rounds,
        stats.rounds_executed,
        stats.messages,
        stats.slab_bytes as f64 / 1024.0,
        stats.slab_peak,
        wall.as_secs_f64(),
    );

    assert_eq!(
        outcome,
        RunOutcome::Quiet,
        "not quiet within Lemma II.15's {budget}"
    );
    assert!(
        stats.messages > 0 && stats.rounds_executed > 0,
        "a degenerate run"
    );
    assert!(
        wall <= Duration::from_secs(120),
        "{wall:?} exceeds the 120 s box"
    );
    match vm_hwm_bytes() {
        Some(hwm) => {
            eprintln!(
                "scale_smoke: peak RSS {:.1} MiB (budget {:.1} MiB)",
                mib(hwm),
                mib(rss_budget)
            );
            assert!(hwm <= rss_budget, "peak RSS over budget");
        }
        None => eprintln!("scale_smoke: no /proc/self/status; RSS check skipped"),
    }
}
