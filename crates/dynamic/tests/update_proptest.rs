//! Randomized update streams against the from-scratch oracle: the
//! dynamic subsystem's correctness contract, held as a property.
//!
//! For every seeded stream of batches (sizes 1..64) over grid and
//! power-law graphs:
//!
//! * **bit-equality** — after each applied batch, every row of the new
//!   generation (recomputed *and* carried-forward) equals a fresh
//!   Dijkstra on the patched graph, distances and parents byte-for-byte.
//!   Carried parents stay bit-identical because CSR rows are sorted by
//!   neighbor id — patching inserts/removes slack edges without
//!   reordering surviving entries, so a clean source's relaxation
//!   sequence is unchanged, not merely equivalent;
//! * **partition soundness** — every row whose answer actually changed
//!   was classified dirty (the rule may conservatively recompute an
//!   unchanged row, never the reverse), recomputed + reused covers all
//!   sources, and reused rows are carried by reference (`Arc::ptr_eq`),
//!   not copied;
//! * **generations** — each batch advances the generation by exactly 1.
//!
//! The Alg1 engine repairs cells in Algorithm 1's `(d, l, parent)`
//! order, so its contract depends on whose tables it is given:
//!
//! * from a **cold Algorithm-1 solve** — after each batch the whole
//!   snapshot equals the tables of a cold Algorithm-1 solve of the
//!   patched graph, distances and parents of every row
//!   (`alg1_repair_is_bit_identical_to_a_cold_solve`, the property the
//!   cell-level repair rests on);
//! * from **Dijkstra-built tables** — distance equality plus valid
//!   walkable paths (legitimate shortest-path trees, but neither
//!   solver's canonical one).

use dw_congest::{EngineConfig, RunOutcome};
use dw_dynamic::{apply_update_batch, gen_update_batch, RecomputeEngine};
use dw_graph::gen::{self, WeightDist};
use dw_graph::{NodeId, WGraph, INFINITY};
use dw_pipeline::k_ssp;
use dw_seqref::{dijkstra, max_finite_distance};
use dw_serve::{TableSnapshot, VersionedTables};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn tables_for(g: &WGraph) -> VersionedTables {
    let runs: Vec<_> = (0..g.n() as u32).map(|s| dijkstra(g, s)).collect();
    VersionedTables {
        generation: 0,
        snap: TableSnapshot::from_sssp(&runs, g.n() as u32),
    }
}

fn seed_graph(which: usize, seed: u64) -> WGraph {
    match which {
        0 => gen::grid2d(5, 5, WeightDist::Uniform { max: 9 }, seed),
        _ => gen::power_law(28, 2, WeightDist::Uniform { max: 9 }, seed),
    }
}

/// Drive `batches` seeded batches through the engine, checking the full
/// contract after each one.
fn run_stream(
    mut g: WGraph,
    batches: usize,
    batch_size: usize,
    seed: u64,
    engine: RecomputeEngine,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut vt = tables_for(&g);
    for b in 0..batches {
        let batch = gen_update_batch(&g, b as u64, batch_size, 9, &mut rng);
        let before = vt.clone();
        let (next, report) = apply_update_batch(&mut g, &vt, &batch, engine)
            .expect("streams drawn from the live graph always validate");

        assert_eq!(next.generation, before.generation + 1);
        assert_eq!(
            report.recomputed + report.reused,
            before.snap.tables.len(),
            "partition must cover all sources"
        );

        let mut shared = 0;
        for (old, new) in before.snap.tables.iter().zip(&next.snap.tables) {
            assert_eq!(old.source, new.source);
            let fresh = dijkstra(&g, new.source);
            match engine {
                RecomputeEngine::Oracle => {
                    assert_eq!(new.dist, fresh.dist, "dist of source {}", new.source);
                    assert_eq!(new.parent, fresh.parent, "parent of source {}", new.source);
                }
                RecomputeEngine::Alg1 => {
                    assert_eq!(new.dist, fresh.dist, "dist of source {}", new.source);
                    for v in 0..g.n() as u32 {
                        if new.dist[v as usize] != INFINITY {
                            let p = new.path_to(v).expect("reachable node walks");
                            assert_eq!(p.first(), Some(&new.source));
                            assert_eq!(p.last(), Some(&v));
                        }
                    }
                }
            }
            if Arc::ptr_eq(old, new) {
                shared += 1;
            }
            // Soundness direction: a row whose answer changed must have
            // been classified dirty (never carried by reference).
            if old.dist != new.dist {
                assert!(
                    !Arc::ptr_eq(old, new),
                    "source {} changed but was carried forward",
                    new.source
                );
            }
        }
        assert_eq!(
            shared, report.reused,
            "reused rows must be carried by reference"
        );
        vt = next;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Oracle engine, bit-identical to from-scratch, across graph
    // families, stream seeds and batch sizes 1..64.
    #[test]
    fn incremental_is_bit_identical_to_from_scratch(
        which in 0usize..2,
        graph_seed in 0u64..1000,
        stream_seed in any::<u64>(),
        batch_size in 1usize..64,
    ) {
        let g = seed_graph(which, graph_seed);
        run_stream(g, 4, batch_size, stream_seed, RecomputeEngine::Oracle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The pipelined engine agrees with the oracle on distances and
    // produces walkable trees (fewer cases: each one runs Algorithm 1).
    #[test]
    fn alg1_stream_matches_oracle_distances(
        which in 0usize..2,
        stream_seed in any::<u64>(),
        batch_size in 1usize..32,
    ) {
        let g = seed_graph(which, 7);
        run_stream(g, 2, batch_size, stream_seed, RecomputeEngine::Alg1);
    }
}

/// Tables of a cold, quiet Algorithm-1 k-SSP from `sources` on `g`.
fn cold_alg1_tables(g: &WGraph, sources: &[NodeId]) -> TableSnapshot {
    let mut delta = max_finite_distance(g).max(1);
    loop {
        let (res, _, outcome) = k_ssp(g, sources.to_vec(), delta, EngineConfig::default());
        if outcome == RunOutcome::Quiet {
            return TableSnapshot::from_result(&res);
        }
        delta *= 2;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The property the cell-level repair rests on: Algorithm 1's output
    // is the unique fixed point of its Step-9 order, so repairing its
    // tables reproduces a cold solve of the patched graph exactly.
    // Families: zero-heavy directed, power-law undirected with weights
    // 0..=max, grid, connected G(n,p) with weights 1..=max; APSP or
    // every other node as sources; one half of the cases loads the
    // tables from their file encoding first.
    #[test]
    fn alg1_repair_is_bit_identical_to_a_cold_solve(
        which in 0usize..4,
        graph_seed in 0u64..1000,
        stream_seed in any::<u64>(),
        batch_size in 1usize..64,
        source_stride in 1usize..3,
        through_file in 0usize..2,
    ) {
        let mut g = match which {
            0 => gen::zero_heavy(24, 0.12, 0.5, 6, true, graph_seed),
            1 => gen::power_law(24, 2, WeightDist::Uniform { max: 6 }, graph_seed),
            2 => gen::grid2d(5, 5, WeightDist::Uniform { max: 9 }, graph_seed),
            _ => gen::gnp_connected(24, 0.12, true, WeightDist::ZeroOr { p_zero: 0.0, max: 6 }, graph_seed),
        };
        let sources: Vec<NodeId> = g.nodes().step_by(source_stride).collect();
        let mut vt = VersionedTables { generation: 0, snap: cold_alg1_tables(&g, &sources) };
        if through_file == 1 {
            vt = VersionedTables::from_file_bytes(&vt.to_file_bytes()).expect("own encoding loads");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(stream_seed);
        for b in 0..4 {
            let batch = gen_update_batch(&g, b, batch_size, 9, &mut rng);
            let (next, report) = apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Alg1)
                .expect("streams drawn from the live graph always validate");
            prop_assert_eq!(&next.snap, &cold_alg1_tables(&g, &sources), "batch {}", b);
            prop_assert_eq!(report.recomputed + report.reused, sources.len());

            let (mut shared, mut differing) = (0, 0);
            for (old, new) in vt.snap.tables.iter().zip(&next.snap.tables) {
                if Arc::ptr_eq(old, new) {
                    shared += 1;
                }
                differing += (0..g.n())
                    .filter(|&v| (old.dist[v], old.parent[v]) != (new.dist[v], new.parent[v]))
                    .count();
            }
            // A row without a touched cell is carried by reference, and
            // no cell changes without being counted.
            prop_assert_eq!(shared, report.reused);
            prop_assert!(report.recomputed <= report.cells && differing <= report.cells);
            vt = next;
        }
    }
}
