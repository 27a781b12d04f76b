//! Property tests over the Section III and Section IV pipelines:
//! arbitrary random graphs, arbitrary parameters — blocker coverage,
//! Algorithm 3 exactness, and the (1+ε) sandwich, every time.

use dwapsp::blocker::alg3::alg3_apsp;
use dwapsp::blocker::{find_blocker_set, verify_blocker_coverage, TreeKnowledge};
use dwapsp::prelude::*;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = WGraph> {
    (4usize..=12).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0u64..=8), n..3 * n);
        (Just(n), edges, any::<bool>()).prop_map(|(n, edges, directed)| {
            let mut b = GraphBuilder::new(n, directed);
            for (s, d, w) in edges {
                b.add_edge(s, d, w);
            }
            // backbone so at least something is connected
            for v in 1..n as u32 {
                b.add_edge(v - 1, v, 1);
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn blocker_pipeline_covers_and_drains(g in arb_graph(), h in 2u64..5) {
        let delta = dwapsp::seqref::max_finite_h_hop_distance(&g, 2 * h as usize).max(1);
        let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let (c, _) = build_csssp(&g, &sources, h, delta, EngineConfig::default(), &mut NullRecorder);
        let know = TreeKnowledge::from_csssp(&c);
        let out = find_blocker_set(&g, &know, EngineConfig::default(), &mut NullRecorder);
        prop_assert!(verify_blocker_coverage(&know, &out.blockers).is_ok());
        prop_assert!(out.final_scores.iter().flatten().all(|&s| s == 0));
        prop_assert!(out.alg4_max_inbox <= 2, "near-Lemma III.6 behaviour");
    }

    #[test]
    fn alg3_exact_on_arbitrary_graphs(g in arb_graph(), h in 2u64..5) {
        let delta = dwapsp::seqref::max_finite_h_hop_distance(&g, 2 * h as usize).max(1);
        let out = alg3_apsp(&g, h, delta, EngineConfig::default());
        let reference = apsp_dijkstra(&g);
        let diffs = dwapsp::seqref::matrices_equal(&reference, &out.matrix, 3);
        prop_assert!(diffs.is_empty(), "{diffs:?}");
    }

    #[test]
    fn approx_sandwich_on_arbitrary_graphs(g in arb_graph(), den in 1u64..5) {
        let out = approx_apsp(&g, 1, den, EngineConfig::default());
        let exact = apsp_dijkstra(&g);
        for s in g.nodes() {
            for v in g.nodes() {
                let d = exact.from_source(s, v).unwrap();
                let e = out.matrix.from_source(s, v).unwrap();
                match d {
                    INFINITY => prop_assert_eq!(e, INFINITY),
                    0 => prop_assert_eq!(e, 0),
                    d => {
                        prop_assert!(e >= d, "{s}->{v}: {e} < {d}");
                        prop_assert!(
                            e * den <= d * (den + 1),
                            "{s}->{v}: {e} > (1+1/{den})·{d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scaling_apsp_exact_on_arbitrary_graphs(g in arb_graph()) {
        let out = dwapsp::pipeline::scaling_apsp(&g, EngineConfig::default());
        let reference = apsp_dijkstra(&g);
        let diffs = dwapsp::seqref::matrices_equal(&reference, &out.matrix, 3);
        prop_assert!(diffs.is_empty(), "{diffs:?}");
    }
}
