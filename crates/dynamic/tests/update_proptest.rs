//! Randomized update streams against cold solves: the dynamic
//! subsystem's correctness contract, held as one property.
//!
//! The stack has one shortest-path-tree order, `(d, l, parent)`
//! (DESIGN.md §14), so for every seeded stream of batches (sizes 1..64)
//! over five graph families:
//!
//! * **one order** — generation 0 is the same bytes whether
//!   `dw_seqref::dijkstra` or a cold, quiet Algorithm-1 k-SSP built it;
//! * **bit-equality** — after each applied batch the whole snapshot,
//!   repaired *and* carried-forward rows, equals a fresh Dijkstra per
//!   source on the patched graph, distances and parents byte for byte,
//!   and (in the cases that pay for it) a cold Algorithm-1 solve too;
//! * **self-certification** — every generation passes
//!   `dw_seqref::verify_row`, the local check that needs no solver, and
//!   every row the repair wrote carries the hop column
//!   `dw_seqref::hops_from_parents` restores from it, which the next
//!   batch reads in place of walking the parents;
//! * **partition** — recomputed + reused covers all sources, reused
//!   rows are carried by reference (`Arc::ptr_eq`), never copied (a row
//!   whose answer changed is therefore never carried: carried rows are
//!   held to Dijkstra with the rest), and no cell changes without being
//!   counted in `UpdateReport::cells`;
//! * **generations** — each batch advances the generation by exactly 1.
//!
//! A second property holds the install frame to the same streams: the
//! delta between two chained generations rebuilds the newer one exactly,
//! copy-on-write, costs no more than the cells that differ, and
//! `TableSnapshot::apply` refuses it once it is made malformed. It lives
//! here, not beside `TableDelta` in dw-serve, because generations come
//! from `apply_update_batch` and dw-dynamic depends on dw-serve.

use dw_congest::{EngineConfig, RunOutcome};
use dw_dynamic::{apply_update_batch, gen_update_batch, RecomputeEngine};
use dw_graph::gen::{self, WeightDist};
use dw_graph::{NodeId, WGraph};
use dw_pipeline::k_ssp;
use dw_seqref::{dijkstra, hops_from_parents, max_finite_distance, verify_row};
use dw_serve::{RowPatch, TableDelta, TableSnapshot, VersionedTables};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Tables from one sequential Dijkstra per source.
fn dijkstra_tables(g: &WGraph, sources: &[NodeId]) -> TableSnapshot {
    let runs: Vec<_> = sources.iter().map(|&s| dijkstra(g, s)).collect();
    TableSnapshot::from_sssp(&runs, g.n() as u32)
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

fn seed_graph(which: usize, seed: u64) -> WGraph {
    match which {
        0 => gen::grid(5, 5, false, WeightDist::Uniform { max: 9 }, seed),
        1 => gen::power_law(28, 2, WeightDist::Uniform { max: 9 }, seed),
        2 => gen::zero_heavy(24, 0.12, 0.5, 6, true, seed),
        3 => gen::power_law(24, 2, WeightDist::Uniform { max: 6 }, seed),
        _ => {
            let positive = WeightDist::ZeroOr {
                p_zero: 0.0,
                max: 6,
            };
            gen::gnp_connected(24, 0.12, true, positive, seed)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The property the table repair rests on: a table is the unique
    // fixed point of the `(d, l, parent)` order, so repairing it
    // reproduces a cold solve of the patched graph exactly, whoever
    // built it. Families: grid and power-law with weights 0..=9,
    // zero-heavy directed, power-law 0..=6, connected directed G(n,p)
    // with weights 1..=6; APSP or every other node as sources; one half
    // of the cases loads the tables from their file encoding first; one
    // half also holds every generation against a cold Algorithm 1.
    #[test]
    fn repair_is_bit_identical_to_a_cold_solve(
        which in 0usize..5,
        graph_seed in 0u64..1000,
        stream_seed in any::<u64>(),
        batch_size in 1usize..64,
        source_stride in 1usize..3,
        through_file in 0usize..2,
        built_by_alg1 in 0usize..2,
    ) {
        let mut g = seed_graph(which, graph_seed);
        let sources: Vec<NodeId> = g.nodes().step_by(source_stride).collect();
        let (by_dijkstra, by_alg1) = (dijkstra_tables(&g, &sources), cold_alg1_tables(&g, &sources));
        prop_assert_eq!(&by_dijkstra, &by_alg1, "generation 0");
        let snap = if built_by_alg1 == 1 { by_alg1 } else { by_dijkstra };
        let mut vt = VersionedTables { generation: 0, snap };
        if through_file == 1 {
            vt = VersionedTables::from_file_bytes(&vt.to_file_bytes()).expect("own encoding loads");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(stream_seed);
        for b in 0..4 {
            let batch = gen_update_batch(&g, b, batch_size, 9, &mut rng);
            let (next, report) = apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Alg1)
                .expect("streams drawn from the live graph always validate");
            prop_assert_eq!(next.generation, vt.generation + 1);
            prop_assert_eq!(&next.snap, &dijkstra_tables(&g, &sources), "batch {}", b);
            if built_by_alg1 == 1 {
                prop_assert_eq!(&next.snap, &cold_alg1_tables(&g, &sources), "batch {}", b);
            }
            prop_assert_eq!(report.recomputed + report.reused, sources.len());

            let (mut shared, mut differing) = (0, 0);
            for (old, new) in vt.snap.tables.iter().zip(&next.snap.tables) {
                prop_assert_eq!(verify_row(&g, new.source, &new.dist, &new.parent).err(), None);
                if !Arc::ptr_eq(old, new) {
                    // A row the repair wrote holds its own hop column.
                    let hops = hops_from_parents(g.n(), new.source, &new.dist, &new.parent);
                    prop_assert_eq!(Some(&new.hops), hops.as_ref(), "batch {}", b);
                }
                shared += usize::from(Arc::ptr_eq(old, new));
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

/// Frame header (`n`, a base, the row count) and per-row header (tag,
/// source, a length prefix) of a delta's encoding, and the most a cell
/// costs: node, distance, tagged parent.
const DELTA_HEADER: usize = 4 + 9 + 4;
const ROW_HEADER: usize = 1 + 4 + 4;
const CELL_BYTES: usize = 4 + 8 + 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The delta install's contract over chained generations: grid,
    // zero-heavy directed and power-law graphs, batch sizes 1..16, four
    // batches a case, APSP or every other node as sources.
    #[test]
    fn a_delta_rebuilds_the_next_generation_from_the_changed_cells(
        family in 0usize..3,
        graph_seed in 0u64..1000,
        stream_seed in any::<u64>(),
        batch_size in 1usize..16,
        source_stride in 1usize..3,
        tamper in any::<u64>(),
    ) {
        let mut g = seed_graph(family, graph_seed);
        let sources: Vec<NodeId> = g.nodes().step_by(source_stride).collect();
        let n = g.n() as u32;
        let mut vt = VersionedTables { generation: 0, snap: dijkstra_tables(&g, &sources) };
        let mut rng = ChaCha8Rng::seed_from_u64(stream_seed);
        for b in 0..4 {
            let batch = gen_update_batch(&g, b, batch_size, 9, &mut rng);
            let (next, _) = apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Alg1)
                .expect("streams drawn from the live graph always validate");
            let delta = TableDelta::between(vt.generation, &vt.snap, &next.snap);
            prop_assert_eq!(delta.base, Some(vt.generation));

            // Exact, copy-on-write, and only onto its own base.
            let built = vt.apply(next.generation, &delta).expect("a delta onto its base applies");
            prop_assert_eq!(&built, &next, "batch {}", b);
            let named: Vec<NodeId> = delta.rows.iter().map(RowPatch::source).collect();
            for (old, new) in vt.snap.tables.iter().zip(&built.snap.tables) {
                prop_assert_eq!(Arc::ptr_eq(old, new), !named.contains(&old.source));
            }
            let elsewhere = VersionedTables { generation: vt.generation + 1, ..vt.clone() };
            prop_assert_eq!(elsewhere.apply(next.generation + 1, &delta), None);

            // No more bytes than the cells that differ.
            let mut bound = DELTA_HEADER;
            for (old, new) in vt.snap.tables.iter().zip(&next.snap.tables) {
                let differing = (0..g.n())
                    .filter(|&v| (old.dist[v], old.parent[v]) != (new.dist[v], new.parent[v]))
                    .count();
                bound += if differing > 0 { ROW_HEADER + CELL_BYTES * differing } else { 0 };
            }
            prop_assert_eq!(delta.encoded_len(), dw_congest::to_bytes(&delta).len());
            prop_assert!(delta.encoded_len() <= bound, "{} > {}", delta.encoded_len(), bound);

            // Malformed, it is refused whole.
            if let Some(i) = (!delta.rows.is_empty()).then(|| tamper as usize % delta.rows.len()) {
                let mut bad = delta.clone();
                match &mut bad.rows[i] {
                    RowPatch::Cells { cells, .. } => {
                        let c = tamper as usize % cells.len();
                        cells[c].0 = n;
                    }
                    RowPatch::Whole(t) => Arc::make_mut(t).parent[0] = Some(n + 1),
                }
                prop_assert_eq!(vt.snap.apply(&bad), None);
                let mut bad = delta.clone();
                let again = bad.rows[i].clone();
                bad.rows.insert(i, again);
                prop_assert_eq!(vt.snap.apply(&bad), None);
                let bad = TableDelta { base: None, ..delta.clone() };
                let cells_only = delta.rows.iter().any(|r| matches!(r, RowPatch::Cells { .. }));
                prop_assert_eq!(vt.snap.apply(&bad).is_none(), cells_only);
            }
            vt = next;
        }
    }
}
