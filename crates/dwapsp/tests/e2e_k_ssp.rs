//! End-to-end k-SSP (Theorem I.1(iii) and Algorithm 3's k-source mode).

use dwapsp::blocker::alg3::alg3_k_ssp;
use dwapsp::prelude::*;
use dwapsp::seqref::{assert_matrices_equal, k_source_dijkstra};

#[test]
fn pipelined_k_ssp_exact() {
    for seed in 0..3 {
        let g = gen::zero_heavy(20, 0.18, 0.5, 6, true, seed);
        let sources = vec![1u32, 5, 9, 13];
        let delta = max_finite_distance(&g).max(1);
        let (res, stats, _) = k_ssp(&g, sources.clone(), delta, EngineConfig::default());
        res.check_against_dijkstra(&g).unwrap();
        // Theorem I.1(iii): 2√(Δkn) + n + k
        let bound = dwapsp::pipeline::hk_round_bound(g.n() as u64, sources.len() as u64, delta);
        assert!(stats.rounds <= bound);
    }
}

#[test]
fn alg3_k_ssp_exact() {
    for seed in 0..2 {
        let g = gen::zero_heavy(16, 0.2, 0.4, 5, true, 50 + seed);
        let sources = vec![0u32, 7, 11];
        for h in [2u64, 3] {
            let delta = dwapsp::seqref::max_finite_h_hop_distance(&g, 2 * h as usize).max(1);
            let out = alg3_k_ssp(
                &g,
                &sources,
                h,
                delta,
                EngineConfig::default(),
                &mut NullRecorder,
            );
            assert_matrices_equal(
                &k_source_dijkstra(&g, &sources),
                &out.matrix,
                &format!("alg3 k-ssp h={h}"),
            );
        }
    }
}

#[test]
fn single_source_is_k_equals_one() {
    let g = gen::zero_heavy(18, 0.2, 0.5, 6, true, 9);
    let delta = max_finite_distance(&g).max(1);
    let (res, _, _) = k_ssp(&g, vec![4], delta, EngineConfig::default());
    res.check_against_dijkstra(&g).unwrap();
}

#[test]
fn k_ssp_parent_edges_exist_and_decompose() {
    let g = gen::zero_heavy(15, 0.25, 0.4, 4, true, 77);
    let delta = max_finite_distance(&g).max(1);
    let sources = vec![2u32, 8];
    let (res, _, _) = k_ssp(&g, sources.clone(), delta, EngineConfig::default());
    for (i, &s) in sources.iter().enumerate() {
        for v in g.nodes() {
            if let Some(p) = res.parent[i][v as usize] {
                let w = g.edge_weight(p, v).expect("parent edge in G");
                assert_eq!(
                    res.dist[i][v as usize],
                    res.dist[i][p as usize] + w,
                    "distance decomposes along the recorded last edge ({s}->{v})"
                );
            }
        }
    }
}
