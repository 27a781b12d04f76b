//! Golden-file regression tests: small, fully deterministic E2- and
//! E5-style workloads (plus one fault-injected recovery run) rendered to
//! text and compared against checked-in snapshots.
//!
//! Any engine, scheduler or pipeline change that alters rounds, message
//! counts or distances shows up here as a readable diff. To accept an
//! intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p dwapsp --test golden_regression
//! ```
//!
//! and commit the rewritten files under `tests/golden/`.

use dwapsp::congest::{EngineConfig, FaultPlan, RunStats};
use dwapsp::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); create it with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        expected, actual,
        "golden mismatch for {name}; if intentional, rerun with UPDATE_GOLDEN=1 and commit"
    );
}

fn fmt_dist(d: Weight) -> String {
    if d == INFINITY {
        "INF".to_string()
    } else {
        d.to_string()
    }
}

fn render_stats(out: &mut String, st: &RunStats) {
    writeln!(out, "rounds          {}", st.rounds).unwrap();
    writeln!(out, "rounds_executed {}", st.rounds_executed).unwrap();
    writeln!(out, "messages        {}", st.messages).unwrap();
    writeln!(out, "total_words     {}", st.total_words).unwrap();
    writeln!(out, "max_link_load   {}", st.max_link_load).unwrap();
    writeln!(out, "max_node_sends  {}", st.max_node_sends).unwrap();
}

fn render_matrix(out: &mut String, dist: &[Vec<Weight>]) {
    writeln!(out, "dist matrix").unwrap();
    for row in dist {
        let cells: Vec<String> = row.iter().map(|&d| fmt_dist(d)).collect();
        writeln!(out, "  {}", cells.join(" ")).unwrap();
    }
}

/// E2 in miniature: exact APSP by pipelined Algorithm 1 on the standard
/// zero-heavy workload.
#[test]
fn golden_e2_small_apsp() {
    let g = gen::zero_heavy(16, 0.75, 0.5, 6, true, 77);
    let delta = max_finite_distance(&g).max(1);
    let (res, stats, _) = apsp(&g, delta, EngineConfig::default());

    let mut out = String::new();
    writeln!(
        out,
        "workload zero-heavy n={} m={} delta={}",
        g.n(),
        g.m(),
        delta
    )
    .unwrap();
    render_stats(&mut out, &stats);
    render_matrix(&mut out, &res.dist);
    check_golden("e2_small_apsp.txt", &out);
}

/// E5 in miniature: short-range h-hop SSSP (rounds, per-node sends and
/// distances) for two hop budgets.
#[test]
fn golden_e5_short_range() {
    let g = gen::gnp_connected(14, 0.85, false, gen::WeightDist::Uniform { max: 9 }, 13);
    let delta = max_finite_distance(&g).max(1);

    let mut out = String::new();
    writeln!(
        out,
        "workload positive n={} m={} delta={}",
        g.n(),
        g.m(),
        delta
    )
    .unwrap();
    for h in [4u64, 9] {
        let solved = solve_short_range(&g, 0, h, delta, &Run::default(), &mut NullRecorder);
        let (res, stats) = solved.map(|s| (s.result, s.stats)).unwrap();
        writeln!(out, "h={h}").unwrap();
        writeln!(out, "  rounds {}", stats.rounds).unwrap();
        writeln!(out, "  messages {}", stats.messages).unwrap();
        let sends: Vec<String> = res.sends.iter().map(u64::to_string).collect();
        writeln!(out, "  sends {}", sends.join(" ")).unwrap();
        let dist: Vec<String> = res.dist.iter().map(|&d| fmt_dist(d)).collect();
        writeln!(out, "  dist {}", dist.join(" ")).unwrap();
    }
    check_golden("e5_short_range.txt", &out);
}

/// The fault layer itself, pinned end to end: a seeded 5%-drop plan
/// through the recovery stack. Fault decisions, retransmissions and the
/// degradation report are all deterministic, so the full report is a
/// stable regression anchor.
#[test]
fn golden_e14_faulted_recovery() {
    let g = gen::zero_heavy(12, 0.3, 0.4, 5, true, 42);
    let delta = max_finite_distance(&g).max(1);
    let cfg = SspConfig::apsp(g.n(), delta);
    let run = Run::reliable(Some(FaultPlan::drop_only(0xD0_5E, 0.05)));
    let solved = solve_hk_ssp(&g, &cfg, &run, &mut NullRecorder).unwrap();
    let rep = solved.degradation.unwrap();

    let mut out = String::new();
    writeln!(
        out,
        "workload zero-heavy n={} m={} delta={}",
        g.n(),
        g.m(),
        delta
    )
    .unwrap();
    writeln!(out, "plan drop_only seed=0xD05E p=0.05").unwrap();
    writeln!(out, "rounds          {}", solved.stats.rounds).unwrap();
    writeln!(out, "base_rounds     {}", rep.base_rounds).unwrap();
    writeln!(out, "extra_rounds    {}", rep.extra_rounds).unwrap();
    writeln!(out, "retries         {}", rep.retries).unwrap();
    writeln!(out, "late_sends      {}", rep.late_sends).unwrap();
    writeln!(out, "outcome         {:?}", solved.outcome).unwrap();
    writeln!(out, "dropped         {}", solved.stats.dropped).unwrap();
    writeln!(out, "data_sent       {}", rep.reliable.data_sent).unwrap();
    writeln!(out, "acks_sent       {}", rep.reliable.acks_sent).unwrap();
    writeln!(out, "delivered       {}", rep.reliable.delivered).unwrap();
    render_matrix(&mut out, &solved.result.dist);
    check_golden("e14_faulted_recovery.txt", &out);
}
