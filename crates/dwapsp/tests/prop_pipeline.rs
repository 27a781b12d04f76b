//! Property-based tests (proptest): the pipelined algorithm against the
//! sequential references on arbitrary random graphs, and the exact key
//! arithmetic against a high-precision model.

use dwapsp::pipeline::Gamma;
use dwapsp::prelude::*;
use proptest::prelude::*;

/// Strategy: a random directed graph given as an edge list over `n <= 14`
/// nodes, weights `0..=6` (zero-weight edges likely).
fn arb_graph() -> impl Strategy<Value = WGraph> {
    (3usize..=14).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0u64..=6), 0..(3 * n));
        (Just(n), edges, any::<bool>()).prop_map(|(n, edges, directed)| {
            let mut b = GraphBuilder::new(n, directed);
            for (s, d, w) in edges {
                b.add_edge(s, d, w);
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn alg1_apsp_matches_dijkstra(g in arb_graph()) {
        let delta = max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let (res, stats, rep) =
            dwapsp::pipeline::invariants::run_with_report(&g, &cfg, EngineConfig::default());
        prop_assert_eq!(res.check_against_dijkstra(&g), Ok(()));
        // The theorem bound covers the convergence round and is asserted
        // whenever the run was healthy (Invariants 1-2 held, no re-armed
        // announcements; see E2/E3).
        let _ = &stats;
        if rep.holds() && rep.late_sends == 0 {
            let bound = dwapsp::pipeline::apsp_round_bound(g.n(), delta);
            prop_assert!(rep.convergence_round <= bound);
        }
    }

    #[test]
    fn alg1_hops_are_minimal_among_shortest(g in arb_graph()) {
        let delta = max_finite_distance(&g).max(1);
        let (res, _, _) = apsp(&g, delta, EngineConfig::default());
        for s in g.nodes() {
            let reference = dwapsp::seqref::bellman_ford(&g, s);
            for v in g.nodes() {
                let vi = v as usize;
                if reference[vi].is_reachable() {
                    prop_assert_eq!(res.hops[s as usize][vi], u64::from(reference[vi].hops),
                        "minimal hop count for {}->{}", s, v);
                }
            }
        }
    }

    #[test]
    fn key_comparator_is_total_order(
        k in 1u64..=32, h in 1u64..=32, delta in 1u64..=64,
        pts in proptest::collection::vec((0u64..100, 0u64..40), 3)
    ) {
        let g = Gamma::new(k, h, delta);
        let (a, b, c) = (pts[0], pts[1], pts[2]);
        // antisymmetry
        let ab = g.cmp_kappa(a.0, a.1, b.0, b.1);
        prop_assert_eq!(g.cmp_kappa(b.0, b.1, a.0, a.1), ab.reverse());
        // transitivity
        let bc = g.cmp_kappa(b.0, b.1, c.0, c.1);
        if ab == bc {
            prop_assert_eq!(g.cmp_kappa(a.0, a.1, c.0, c.1), ab);
        }
        // consistency with ceil: κa < κb ⇒ ⌈κa⌉ <= ⌈κb⌉
        if ab == std::cmp::Ordering::Less {
            prop_assert!(g.ceil_kappa(a.0, a.1) <= g.ceil_kappa(b.0, b.1));
        }
    }

    #[test]
    fn ceil_kappa_is_exact_ceiling(
        k in 1u64..=32, h in 1u64..=32, delta in 1u64..=64,
        d in 0u64..1000, l in 0u64..100
    ) {
        let g = Gamma::new(k, h, delta);
        let m = (g.ceil_kappa(d, l) - l) as u128;
        let rhs = (d as u128) * (d as u128) * g.kh();
        // m = ⌈d·γ⌉ ⇔ m²Δ >= d²kh and (m-1)²Δ < d²kh
        prop_assert!(m * m * g.delta() >= rhs);
        if m > 0 {
            prop_assert!((m - 1) * (m - 1) * g.delta() < rhs);
        }
    }

    #[test]
    fn short_range_contract(g in arb_graph(), h in 1u64..=8) {
        let delta = max_finite_distance(&g).max(1);
        let (res, _) = short_range_sssp(&g, 0, h, delta, EngineConfig::default());
        let exact = dwapsp::seqref::bellman_ford(&g, 0);
        for v in g.nodes() {
            let vi = v as usize;
            if exact[vi].is_reachable() && u64::from(exact[vi].hops) <= h {
                prop_assert_eq!(res.dist[vi], exact[vi].dist);
            } else if res.dist[vi] != INFINITY {
                prop_assert!(res.dist[vi] >= exact[vi].dist);
                prop_assert!(res.hops[vi] <= h);
            }
        }
    }
}
