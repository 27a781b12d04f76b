//! Observability wire-format regression tests.
//!
//! A fully deterministic recorded Algorithm 3 run is exported to the
//! JSONL event log and the Chrome-trace document and compared against
//! checked-in snapshots under `tests/golden/`, so any change to the
//! `dwapsp-obs-v1` schema (or to the recorded phase decomposition
//! itself) shows up as a readable diff. Accept intentional changes with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p dwapsp --test obs_schema
//! ```
//!
//! The suite also pins the parse → re-export round trip (byte
//! identical) and the runtime-independence of recordings: the same
//! Algorithm 1 workload recorded on the simulator and on the thread
//! transport must produce equal spans and round samples.

use dwapsp::obs::export::{parse_jsonl, to_chrome_trace, to_jsonl, JSONL_SCHEMA};
use dwapsp::prelude::*;
use dwapsp::seqref::max_finite_h_hop_distance;
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

/// The fixed workload behind both golden fixtures: small enough to keep
/// the JSONL readable, rich enough to exercise every phase (blockers
/// are forced by h much smaller than n), deterministic by construction.
fn recorded_alg3_run() -> Recording {
    let g = gen::zero_heavy(14, 0.18, 0.4, 5, true, 3);
    let h = 3;
    let delta = max_finite_h_hop_distance(&g, 2 * h as usize).max(1);
    let mut rec = ObsRecorder::new();
    rec.meta("algo", "alg3".to_string());
    rec.meta("n", g.n().to_string());
    rec.meta("k", g.n().to_string());
    rec.meta("h", h.to_string());
    rec.meta("delta", delta.to_string());
    let out = alg3_apsp_recorded(&g, h, delta, EngineConfig::default(), &mut rec);
    assert!(!out.blockers.is_empty(), "workload must select blockers");
    let mut recording = rec.into_recording();
    // wall time is the one nondeterministic field
    recording.normalize_wall();
    recording
}

#[test]
fn golden_jsonl_schema() {
    let doc = to_jsonl(&recorded_alg3_run());
    assert!(doc.starts_with(&format!(
        "{{\"type\":\"schema\",\"schema\":\"{JSONL_SCHEMA}\"}}"
    )));
    check_golden("obs_metrics.jsonl", &doc);
}

#[test]
fn golden_chrome_trace() {
    let doc = to_chrome_trace(&recorded_alg3_run());
    check_golden("obs_trace.json", &doc);
}

/// parse(export(r)) re-exports byte-identically — the schema is closed
/// under its own parser, so `dwapsp report` sees exactly what `solve`
/// recorded.
#[test]
fn jsonl_round_trip_is_byte_identical() {
    let recording = recorded_alg3_run();
    let doc = to_jsonl(&recording);
    let parsed = parse_jsonl(&doc).expect("re-parse own export");
    assert_eq!(parsed, recording);
    assert_eq!(to_jsonl(&parsed), doc);
}

/// Minimal structural sanity of the Chrome-trace document without a
/// JSON parser: balanced braces/brackets and one complete-event entry
/// per span.
#[test]
fn chrome_trace_is_structurally_sound() {
    let recording = recorded_alg3_run();
    let doc = to_chrome_trace(&recording);
    let opens = doc.matches('{').count();
    let closes = doc.matches('}').count();
    assert_eq!(opens, closes, "unbalanced braces");
    assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    assert_eq!(
        doc.matches("\"ph\":\"X\"").count(),
        recording.spans.len(),
        "one complete event per span"
    );
    assert_eq!(
        doc.matches("\"ph\":\"C\"").count(),
        recording.rounds.len(),
        "one counter event per round sample"
    );
}

/// A recording is a property of the *protocol*, not the backend: the
/// same seeded Algorithm 1 workload recorded under the simulator and
/// the thread transport — at any shard count — yields identical spans,
/// stats, per-round samples and (no) events (only wall time may
/// differ).
#[test]
fn recorded_phases_identical_sim_vs_threads() {
    let g = gen::zero_heavy(10, 0.3, 0.35, 5, true, 71);
    let delta = max_finite_distance(&g).max(1);
    let cfg = SspConfig::apsp(g.n(), delta);

    let run = |rt: Runtime| {
        let mut rec = ObsRecorder::new();
        solve_hk_ssp(&g, &cfg, &Run::on(rt), &mut rec)
            .unwrap_or_else(|e| panic!("{} runtime failed: {e}", rt.as_str()));
        let mut r = rec.into_recording();
        r.normalize_wall();
        r
    };
    let sim = run(Runtime::Sim);
    assert_eq!(sim.spans.len(), 1, "alg1 records a single hk_ssp span");
    assert!(sim.spans[0].stats.rounds > 0);
    assert!(!sim.rounds.is_empty(), "sim run must emit round samples");
    for rt in [Runtime::Threads, Runtime::ThreadsSharded(3)] {
        assert_eq!(run(rt), sim, "{} recording diverges from sim", rt.label());
    }
}
