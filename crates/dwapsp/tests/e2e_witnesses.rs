//! The routes, not just the distances: every algorithm's parent pointers
//! must reconstruct into real paths of exactly the claimed weight —
//! checked on the structured topologies (tree, torus, barbell, expander).
//! Algorithm 1's full-range tables are held to more: they are the one
//! canonical `(d, l, parent)` tree, which `verify_row` checks cell by
//! cell. The Bellman–Ford baseline's and the hop-bounded short-range
//! trees are valid without being canonical and keep the path walk.

use dwapsp::prelude::*;
use dwapsp::seqref::{verify_row, verify_sssp_witnesses};

fn families() -> Vec<(String, WGraph)> {
    let zo = |max| gen::WeightDist::ZeroOr { p_zero: 0.3, max };
    vec![
        ("binary_tree".into(), gen::binary_tree(15, false, zo(5), 1)),
        ("torus".into(), gen::torus(4, 4, zo(4), 2)),
        ("barbell".into(), gen::barbell(5, 4, zo(6), 3)),
        ("expander".into(), gen::expanderish(18, 4, zo(5), 4)),
    ]
}

#[test]
fn alg1_parent_tables_are_witnesses() {
    let zero_heavy = gen::zero_heavy(20, 0.15, 0.5, 6, true, 5);
    for (name, g) in families()
        .into_iter()
        .chain([("zero_heavy".into(), zero_heavy)])
    {
        let delta = max_finite_distance(&g).max(1);
        let (res, _, _) = apsp(&g, delta, EngineConfig::default());
        for (i, &s) in res.sources.iter().enumerate() {
            let hops = verify_row(&g, s, &res.dist[i], &res.parent[i])
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(hops, res.hops[i], "{name}, source {s}");
        }
    }
}

#[test]
fn bf_parent_tables_are_witnesses() {
    for (name, g) in families() {
        let (res, _) = bf_apsp(&g, EngineConfig::default());
        for (i, &s) in res.sources.iter().enumerate() {
            verify_sssp_witnesses(&g, s, &res.dist[i], &res.parent[i])
                .unwrap_or_else(|e| panic!("{name}, source {s}: {e}"));
        }
    }
}

#[test]
fn short_range_parents_are_witnesses() {
    for (name, g) in families() {
        let delta = max_finite_distance(&g).max(1);
        for h in [2u64, 4, g.n() as u64] {
            let (res, _) = short_range_sssp(&g, 0, h, delta, EngineConfig::default());
            // the recorded walk must be a real path of the claimed weight
            verify_sssp_witnesses(&g, 0, &res.dist, &res.parent)
                .unwrap_or_else(|e| panic!("{name}, h={h}: {e}"));
        }
    }
}

#[test]
fn structured_families_apsp_exact() {
    for (name, g) in families() {
        let (res, _, _) = apsp_auto(&g, EngineConfig::default());
        res.check_against_dijkstra(&g)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
