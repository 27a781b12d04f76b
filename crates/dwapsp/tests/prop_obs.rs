//! Property-based tests for the observability layer: on arbitrary
//! random graphs, the recorded phase decomposition of Algorithm 3 must
//! account for the run *exactly* — top-level span stats compose (via
//! `RunStats::then`) to precisely the `Alg3Outcome` totals, sibling
//! spans tile the composed round timeline, and the `csssp` phase's
//! `hk_2h` child respects the Theorem I.1 round bound at hop bound
//! `2h`.

use dwapsp::congest::RunStats;
use dwapsp::pipeline::bound::hk_round_bound;
use dwapsp::prelude::*;
use dwapsp::seqref::max_finite_h_hop_distance;
use proptest::prelude::*;

/// Strategy: a random directed graph over `n <= 12` nodes with a ring
/// backbone (Algorithm 3's broadcasts need a connected communication
/// graph), weights `0..=5` (zero-weight edges likely), plus a hop
/// parameter small enough to force blocker selections on deep graphs.
fn arb_instance() -> impl Strategy<Value = (WGraph, u64)> {
    (4usize..=12).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0u64..=5), n..(3 * n));
        let ring = proptest::collection::vec(0u64..=5, n);
        (Just(n), edges, ring, any::<bool>(), 1u64..=4).prop_map(|(n, edges, ring, directed, h)| {
            let mut b = GraphBuilder::new(n, directed);
            for (i, w) in ring.into_iter().enumerate() {
                b.add_edge(i as u32, ((i + 1) % n) as u32, w);
            }
            for (s, d, w) in edges {
                b.add_edge(s, d, w);
            }
            (b.build(), h)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Every round and message of an Algorithm 3 run is attributed to
    // exactly one top-level phase span: the composition of the spans
    // equals `Alg3Outcome::stats` field for field, and the spans tile
    // the `[0, rounds]` timeline with no gaps or overlaps.
    #[test]
    fn alg3_phase_spans_sum_exactly_to_run_totals((g, h) in arb_instance()) {
        let delta = max_finite_h_hop_distance(&g, 2 * h as usize).max(1);
        let mut rec = ObsRecorder::new();
        let sources: Vec<NodeId> = g.nodes().collect();
        let out = alg3_k_ssp(&g, &sources, h, delta, EngineConfig::default(), &mut rec);
        let recording = rec.into_recording();

        // exact equality, every field (rounds, messages, congestion,
        // fault counters): nothing happened outside a span
        prop_assert_eq!(recording.total(), out.stats.clone());

        // sibling spans tile the composed timeline
        let mut cursor = 0u64;
        for span in recording.top_level() {
            prop_assert_eq!(span.start_round, cursor, "gap before {}", span.name);
            prop_assert_eq!(span.end_round, span.start_round + span.stats.rounds);
            cursor = span.end_round;
        }
        prop_assert_eq!(cursor, out.stats.rounds);

        // the phase set is exactly the documented taxonomy
        for span in &recording.spans {
            prop_assert!(
                matches!(span.name, "csssp" | "hk_2h" | "validate" | "blocker_scores"
                    | "blocker_select" | "alg4_update" | "per_blocker_sssp"
                    | "broadcast" | "combine"),
                "unknown phase {}", span.name
            );
        }

        // one per_blocker_sssp + one broadcast span per blocker, and the
        // counter agrees with the selection count
        let count = |name: &str| recording.spans.iter().filter(|s| s.name == name).count();
        prop_assert_eq!(count("per_blocker_sssp"), out.blockers.len());
        prop_assert_eq!(count("broadcast"), out.blockers.len());
        prop_assert_eq!(
            recording.counters.get("blocker.selected").copied().unwrap_or(0),
            out.blockers.len() as u64
        );
    }

    // The `csssp` phase's children refine it exactly, and its pipelined
    // `hk_2h` run obeys the Theorem I.1 round bound instantiated at hop
    // bound `2h` (the CSSSP construction runs Algorithm 1 with `2h`).
    #[test]
    fn csssp_children_refine_parent_and_respect_hk_bound((g, h) in arb_instance()) {
        let delta = max_finite_h_hop_distance(&g, 2 * h as usize).max(1);
        let k = g.n() as u64;
        let mut rec = ObsRecorder::new();
        let sources: Vec<NodeId> = g.nodes().collect();
        let _ = alg3_k_ssp(&g, &sources, h, delta, EngineConfig::default(), &mut rec);
        let recording = rec.into_recording();

        let (csssp_idx, csssp) = recording
            .spans
            .iter()
            .enumerate()
            .find(|(_, s)| s.name == "csssp")
            .expect("csssp span");
        let children: Vec<_> = recording
            .spans
            .iter()
            .filter(|s| s.parent.map(|p| p.index()) == Some(csssp_idx))
            .collect();
        prop_assert_eq!(children.len(), 2);
        prop_assert_eq!(children[0].name, "hk_2h");
        prop_assert_eq!(children[1].name, "validate");

        // children tile the parent and compose to its stats exactly
        prop_assert_eq!(children[0].start_round, csssp.start_round);
        prop_assert_eq!(children[1].start_round, children[0].end_round);
        prop_assert_eq!(children[1].end_round, csssp.end_round);
        let composed = children
            .iter()
            .fold(RunStats::default(), |acc, c| acc.then(&c.stats));
        prop_assert_eq!(composed, csssp.stats.clone());

        // Theorem I.1 at hop bound 2h: convergence within
        // 2*sqrt(Δ·2h·k) + k + 2h rounds. As in `prop_pipeline` / E2,
        // the bound covers the convergence round (residual non-SP
        // traffic may trail it) and is asserted when the run was healthy
        // (Invariants 1-2 held, no re-armed late announcements);
        // re-running the identical 2h instance under the invariant
        // checker classifies it and pins down its convergence round.
        let sources: Vec<NodeId> = g.nodes().collect();
        let cfg_2h = SspConfig::new(sources, 2 * h, delta);
        let (_, st_2h, rep) = dwapsp::pipeline::invariants::run_with_report(
            &g,
            &cfg_2h,
            EngineConfig::default(),
        );
        // the recorded span is that same deterministic run: identical
        // round count, and it covers the convergence round
        prop_assert_eq!(children[0].stats.rounds, st_2h.rounds);
        prop_assert!(rep.convergence_round <= children[0].stats.rounds);
        if rep.holds() && rep.late_sends == 0 {
            let bound = hk_round_bound(2 * h, k, delta);
            prop_assert!(
                rep.convergence_round <= bound,
                "hk_2h converged at {} rounds, bound {bound}",
                rep.convergence_round
            );
        }
    }
}
