//! Algorithm 3: the overall k-SSP / APSP algorithm
//! (CSSSP → blocker set → per-blocker SSSP → broadcast → local combine).

use crate::greedy::{find_blocker_set, BlockerOutcome};
use crate::knowledge::TreeKnowledge;
use dw_baselines::bf_k_source;
use dw_congest::primitives::{build_bfs_tree, pipeline_broadcast};
use dw_congest::{EngineConfig, MsgSize, NullRecorder, Recorder, RunStats};
use dw_graph::{NodeId, WGraph, Weight, INFINITY};
use dw_pipeline::build_csssp;
use dw_seqref::DistMatrix;

/// `(source index, δ_h(source, c))` broadcast payload — 2 words.
#[derive(Debug, Clone, Copy)]
struct DistItem {
    src_idx: u32,
    d: Weight,
}

impl MsgSize for DistItem {
    fn size_words(&self) -> usize {
        2
    }
}

/// Everything Algorithm 3 produces.
#[derive(Debug, Clone)]
pub struct Alg3Outcome {
    /// Exact distances from the `k` sources.
    pub matrix: DistMatrix,
    /// The blocker set used.
    pub blockers: Vec<NodeId>,
    /// Composed statistics, plus the per-step round split.
    pub stats: RunStats,
    pub step1_rounds: u64,
    pub step2_rounds: u64,
    pub step3_rounds: u64,
    pub step4_rounds: u64,
    /// Blocker diagnostics (Algorithm 4 bounds etc.).
    pub blocker: BlockerOutcome,
}

/// Run Algorithm 3 for the given sources and hop parameter `h`. `delta`
/// must bound the `2h`-hop distances (Step 1 runs Algorithm 1 with hop
/// bound `2h` to build the CSSSP collection).
///
/// `rec` gets the full phase decomposition: `csssp` (with
/// `hk_2h`/`validate` children), the blocker-selection spans (see
/// [`crate::find_blocker_set`]), one `per_blocker_sssp` per blocker, one
/// `broadcast` per blocker, and a final zero-round `combine` for the
/// local Step 5. Top-level span stats compose (via `RunStats::then`)
/// exactly to [`Alg3Outcome::stats`] — the property the `prop_obs` suite
/// in `dwapsp` checks.
pub fn alg3_k_ssp(
    g: &WGraph,
    sources: &[NodeId],
    h: u64,
    delta: Weight,
    engine: EngineConfig,
    rec: &mut dyn Recorder,
) -> Alg3Outcome {
    let n = g.n();
    let k = sources.len();

    // Step 1: h-hop CSSSP collection.
    let (csssp, step1) = build_csssp(g, sources, h, delta, engine.clone(), rec);
    let knowledge = TreeKnowledge::from_csssp(&csssp);
    let mut stats = step1.clone();

    // Step 2: blocker set.
    let blocker = find_blocker_set(g, &knowledge, engine.clone(), rec);
    stats = stats.then(&blocker.stats);
    let blockers = blocker.blockers.clone();

    // Step 3: exact SSSP from each blocker, in sequence (Bellman–Ford,
    // n-1 hops each — the O(n·q) part of Lemma III.2).
    let mut step3 = RunStats::default();
    let mut from_blocker: Vec<Vec<Weight>> = Vec::with_capacity(blockers.len());
    for &c in &blockers {
        let span = rec.begin("per_blocker_sssp");
        let (res, st) = bf_k_source(g, &[c], n as u64 - 1, engine.clone());
        rec.end(span, &st);
        step3 = step3.then(&st);
        from_blocker.push(res.dist.into_iter().next().unwrap());
    }
    stats = stats.then(&step3);

    // Step 4: each blocker broadcasts its h-hop distances from the k
    // sources (δ_h(x, c) as recorded by the CSSSP). Every node stores the
    // values it receives; the broadcaster uses its local copy.
    let mut step4 = RunStats::default();
    // heard[v][qi][i] = δ_h(sources[i], blockers[qi]) as learned by node v
    let mut heard: Vec<Vec<Vec<Weight>>> = vec![Vec::new(); n];
    for (qi, &c) in blockers.iter().enumerate() {
        let items: Vec<DistItem> = (0..k)
            .map(|i| DistItem {
                src_idx: i as u32,
                d: csssp.dist[i][c as usize],
            })
            .collect();
        let span = rec.begin("broadcast");
        let (tree, t_st) = build_bfs_tree(g, c, engine.clone());
        let (per_node, b_st) = pipeline_broadcast(g, &tree, items.clone(), engine.clone());
        rec.end(span, &t_st.then(&b_st));
        step4 = step4.then(&t_st);
        step4 = step4.then(&b_st);
        for (v, heard_v) in heard.iter_mut().enumerate() {
            let got = if v == c as usize {
                &items
            } else {
                &per_node[v]
            };
            assert_eq!(
                got.len(),
                k,
                "node {v} missed part of blocker {qi}'s broadcast"
            );
            let mut row = vec![INFINITY; k];
            for it in got {
                row[it.src_idx as usize] = it.d;
            }
            heard_v.push(row);
        }
    }
    stats = stats.then(&step4);

    // Step 5: local combine at every node —
    // δ(x,v) = min(δ_h(x,v), min_c δ_h(x,c) + δ(c,v)). No communication.
    let span = rec.begin("combine");
    let mut dist = vec![vec![INFINITY; n]; k];
    for i in 0..k {
        for v in 0..n {
            let mut best = csssp.dist[i][v];
            for qi in 0..blockers.len() {
                let to_c = heard[v][qi][i];
                let from_c = from_blocker[qi][v];
                if to_c != INFINITY && from_c != INFINITY {
                    best = best.min(to_c + from_c);
                }
            }
            dist[i][v] = best;
        }
    }
    // purely local: a zero-round span, present so the report accounts
    // for every step of Algorithm 3
    rec.end(span, &RunStats::default());

    Alg3Outcome {
        matrix: DistMatrix::new(sources.to_vec(), dist),
        blockers,
        stats,
        step1_rounds: step1.rounds,
        step2_rounds: blocker.stats.rounds,
        step3_rounds: step3.rounds,
        step4_rounds: step4.rounds,
        blocker,
    }
}

/// APSP via Algorithm 3 (`sources = V`), unrecorded.
pub fn alg3_apsp(g: &WGraph, h: u64, delta: Weight, engine: EngineConfig) -> Alg3Outcome {
    let sources: Vec<NodeId> = g.nodes().collect();
    alg3_k_ssp(g, &sources, h, delta, engine, &mut NullRecorder)
}

/// The hop parameter suggested by Theorem I.2's proof for the
/// weight-bounded regime: `h = n·log^{1/2}(n) / (W·k)^{1/4}`, clamped to
/// `[1, n]`.
pub fn suggested_h_weight_regime(n: usize, k: usize, w: Weight) -> u64 {
    let n_f = n as f64;
    let h = n_f * n_f.ln().max(1.0).sqrt() / ((w.max(1) as f64) * (k as f64)).powf(0.25);
    (h.round() as u64).clamp(1, n as u64)
}

/// The hop parameter suggested by Theorem I.3's proof for the
/// distance-bounded regime: `h = (n² log²n / (Δk))^{1/3}`, clamped.
pub fn suggested_h_distance_regime(n: usize, k: usize, delta: Weight) -> u64 {
    let n_f = n as f64;
    let ln2 = n_f.ln().max(1.0).powi(2);
    let h = (n_f * n_f * ln2 / ((delta.max(1) as f64) * (k as f64))).powf(1.0 / 3.0);
    (h.round() as u64).clamp(1, n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_graph::gen;
    use dw_seqref::{apsp_dijkstra, assert_matrices_equal, k_source_dijkstra};

    fn delta_for(g: &WGraph, h: u64) -> Weight {
        dw_seqref::max_finite_h_hop_distance(g, 2 * h as usize).max(1)
    }

    #[test]
    fn apsp_matches_dijkstra_small_h() {
        // h much smaller than n forces real blocker work
        let g = gen::zero_heavy(14, 0.18, 0.4, 5, true, 3);
        let h = 3;
        let out = alg3_apsp(&g, h, delta_for(&g, h), EngineConfig::default());
        assert_matrices_equal(&apsp_dijkstra(&g), &out.matrix, "alg3 apsp");
        assert!(!out.blockers.is_empty(), "h=3 should need blockers");
    }

    #[test]
    fn apsp_matches_dijkstra_various_h() {
        let g = gen::zero_heavy(12, 0.2, 0.5, 4, true, 9);
        for h in [1u64, 2, 5, 11] {
            let out = alg3_apsp(&g, h, delta_for(&g, h), EngineConfig::default());
            assert_matrices_equal(&apsp_dijkstra(&g), &out.matrix, &format!("alg3 h={h}"));
        }
    }

    #[test]
    fn k_ssp_subset_sources() {
        let g = gen::zero_heavy(15, 0.2, 0.4, 6, true, 21);
        let sources = vec![2u32, 7, 11];
        let h = 3;
        let out = alg3_k_ssp(
            &g,
            &sources,
            h,
            delta_for(&g, h),
            EngineConfig::default(),
            &mut NullRecorder,
        );
        assert_matrices_equal(&k_source_dijkstra(&g, &sources), &out.matrix, "alg3 k-ssp");
    }

    #[test]
    fn undirected_graphs_work() {
        let g = gen::zero_heavy(12, 0.25, 0.5, 4, false, 5);
        let h = 2;
        let out = alg3_apsp(&g, h, delta_for(&g, h), EngineConfig::default());
        assert_matrices_equal(&apsp_dijkstra(&g), &out.matrix, "alg3 undirected");
    }

    #[test]
    fn suggested_h_values_sane() {
        assert!(suggested_h_weight_regime(100, 100, 4) >= 1);
        assert!(suggested_h_weight_regime(100, 100, 4) <= 100);
        assert!(suggested_h_distance_regime(100, 100, 50) >= 1);
        // larger W/Δ shrink h
        assert!(suggested_h_weight_regime(200, 200, 64) <= suggested_h_weight_regime(200, 200, 1));
        assert!(
            suggested_h_distance_regime(200, 200, 1000)
                <= suggested_h_distance_regime(200, 200, 10)
        );
    }
}
