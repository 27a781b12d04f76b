//! What "bit-identical" means for Algorithm 1 beyond distances.
//!
//! A change to `list_v`'s data structure must leave the *execution*
//! alone: the same entries in the same order at every node, hence the
//! same ν counts, the same evictions and the same send rounds. Distances
//! alone cannot show that — many different schedules converge to the
//! same shortest paths. This test pins, on two fixed graphs, everything
//! the run exposes: the engine's `RunStats`, the gathered
//! `InvariantReport`, and a hash of every node's checkpoint bytes at
//! quiescence (list rows with their `sent`/SP flags, the per-source SP
//! records, the counters). The values were recorded before `NodeList`
//! grew its ⌈κ⌉ / source columns and send cursor; a list change that
//! moves any of them changed behaviour, not just speed.

use dw_congest::{Checkpointable, EngineConfig, Network, RunOutcome, RunStats};
use dw_graph::gen::{self, WeightDist};
use dw_graph::{NodeId, WGraph};
use dw_pipeline::invariants::{gather, InvariantReport};
use dw_pipeline::{default_budget, hk_ssp_node, SspConfig};
use dw_seqref::max_finite_distance;

/// FNV-1a over every node's snapshot, each framed by its length so that
/// bytes cannot slide between nodes unnoticed.
fn snapshot_hash<'a, P: Checkpointable + 'a>(nodes: impl Iterator<Item = &'a P>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut buf = Vec::new();
    for node in nodes {
        buf.clear();
        node.snapshot(&mut buf);
        eat(&(buf.len() as u64).to_le_bytes());
        eat(&buf);
    }
    h
}

fn run(g: &WGraph, cfg: &SspConfig) -> (RunStats, InvariantReport, u64) {
    let mut net = Network::new(g, EngineConfig::default(), |v| hk_ssp_node(cfg, v));
    assert_eq!(net.run(default_budget(cfg, g.n())), RunOutcome::Quiet);
    let report = gather(net.nodes());
    assert!(report.holds(), "{report:?}");
    (net.stats(), report, snapshot_hash(net.nodes()))
}

fn zero_heavy_apsp() -> (WGraph, SspConfig) {
    let g = gen::zero_heavy(64, 0.08, 0.4, 6, true, 7);
    let cfg = SspConfig::apsp(g.n(), max_finite_distance(&g).max(1));
    (g, cfg)
}

fn power_law_kssp() -> (WGraph, SspConfig) {
    let g = gen::power_law(48, 2, WeightDist::Uniform { max: 8 }, 11);
    let sources: Vec<NodeId> = (0..6).map(|i| i * 8).collect();
    let cfg = SspConfig::k_ssp(g.n(), sources, max_finite_distance(&g).max(1));
    (g, cfg)
}

#[test]
fn zero_heavy_apsp_execution_is_pinned() {
    let (g, cfg) = zero_heavy_apsp();
    let (stats, report, hash) = run(&g, &cfg);
    assert_eq!(
        stats,
        RunStats {
            rounds: 321,
            rounds_executed: 270,
            messages: 91_260,
            max_link_load: 130,
            max_node_sends: 130,
            max_round_messages: 702,
            total_words: 365_040,
            ..RunStats::default()
        }
    );
    assert_eq!(
        report,
        InvariantReport {
            max_list_len: 130,
            max_per_source: 3,
            inserts: 13_814,
            drops: 34_936,
            late_sends: 0,
            convergence_round: 297,
            ..InvariantReport::default()
        }
    );
    assert_eq!(hash, 0xe8fa_c073_473a_a99a);
}

#[test]
fn power_law_kssp_execution_is_pinned() {
    let (g, cfg) = power_law_kssp();
    assert!(!g.is_directed());
    let (stats, report, hash) = run(&g, &cfg);
    assert_eq!(
        stats,
        RunStats {
            rounds: 99,
            rounds_executed: 93,
            messages: 2232,
            max_link_load: 12,
            max_node_sends: 12,
            max_round_messages: 73,
            total_words: 8928,
            ..RunStats::default()
        }
    );
    assert_eq!(
        report,
        InvariantReport {
            max_list_len: 12,
            max_per_source: 2,
            inserts: 701,
            drops: 1531,
            late_sends: 0,
            convergence_round: 65,
            ..InvariantReport::default()
        }
    );
    assert_eq!(hash, 0x50d4_b436_7866_0593);
}

/// Crash recovery rebuilds a node as pristine clone + `restore`; the
/// restored list must answer the schedule queries exactly as the
/// original does, although its ⌈κ⌉ column and send cursor are rebuilt
/// from the rows instead of maintained insert by insert.
#[test]
fn a_node_restored_mid_run_answers_the_schedule_like_the_original() {
    for (g, cfg) in [zero_heavy_apsp(), power_law_kssp()] {
        let mut net = Network::new(&g, EngineConfig::default(), |v| hk_ssp_node(&cfg, v));
        let mut seen_sent_and_unsent = false;
        for _ in 0..6 {
            for _ in 0..5 {
                net.step_one();
            }
            let now = net.round();
            for (v, node) in net.nodes().enumerate() {
                let mut bytes = Vec::new();
                node.snapshot(&mut bytes);
                let mut back = hk_ssp_node(&cfg, v as NodeId);
                let mut view = bytes.as_slice();
                back.restore(&mut view).expect("own snapshot restores");
                assert!(view.is_empty());
                let (a, b) = (node.list(), back.list());
                assert_eq!(a.entries(), b.entries());
                let rows = a.entries();
                seen_sent_and_unsent |= rows.iter().any(|e| e.sent) && rows.iter().any(|e| !e.sent);
                for r in now.saturating_sub(2)..now + 40 {
                    assert_eq!(a.find_send(r), b.find_send(r), "node {v} round {r}");
                    assert_eq!(
                        a.earliest_schedule_ge(r),
                        b.earliest_schedule_ge(r),
                        "node {v} after {r}"
                    );
                }
                for i in 0..rows.len() {
                    assert_eq!(a.schedule_value(i), b.schedule_value(i));
                    assert_eq!(a.nu(i), b.nu(i));
                }
                let mut again = Vec::new();
                back.snapshot(&mut again);
                assert_eq!(
                    again, bytes,
                    "node {v}: restore then snapshot is the identity"
                );
            }
        }
        assert!(seen_sent_and_unsent, "the run was snapshotted mid-flight");
    }
}
