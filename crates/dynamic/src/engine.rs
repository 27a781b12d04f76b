//! The recompute engine: one batch in, one table generation out.
//!
//! [`apply_update_batch`] is the dynamic subsystem's core transaction
//! (DESIGN.md §14):
//!
//! 1. **patch** — apply the batch to the graph in place
//!    ([`WGraph::apply_updates`] splices the touched CSR rows into the
//!    existing arrays) and get back the batch's normalized *net*
//!    changes;
//! 2. **repair** — bring every row up to the patched graph in the
//!    stack's one `(d, l, parent)` order ([`dw_pipeline::RowRepair`]):
//!    a row no change reaches is carried unread, the others are
//!    repaired cell by cell, each with its hop column — the one the
//!    previous repair left beside the row when [`hops_match`] accepts
//!    it, else restored from the parents;
//! 3. **version** — assemble the next [`VersionedTables`]: untouched
//!    rows carried by `Arc` reference (zero copy), the others fresh and
//!    holding their repaired hop column, generation bumped by one.
//!
//! So in a stream of batches a row pays the walk up its parents once,
//! the first time a batch reaches it, and a one-pass check after that.
//! The column is never trusted: a row whose carried column does not
//! match its parents — edited since, or never repaired — is walked as
//! if it had none.
//!
//! Tables canonical for the pre-batch graph in, tables canonical for
//! the patched graph out, whoever built them — a quiet Algorithm-1 run
//! on any runtime, [`dw_seqref::dijkstra()`], or an earlier batch.
//!
//! The whole transaction is all-or-nothing: a batch that fails
//! validation ([`PatchError`]) leaves the graph untouched and produces
//! no generation.

use crate::batch::UpdateBatch;
use dw_graph::{PatchError, WGraph};
use dw_pipeline::RowRepair;
use dw_seqref::{dijkstra, hops_match};
use dw_serve::{SourceTable, TableSnapshot, VersionedTables};
use std::sync::Arc;
use std::time::Instant;

/// Selects nothing: there is one recompute, whoever built the tables.
/// Kept only so `benchmark/src/layers.rs`, which names both variants
/// and passes one as [`apply_update_batch`]'s fourth argument, keeps
/// compiling (`benchmark/README.md`, "What `layers.rs` calls"). Drop it
/// when that file is next opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeEngine {
    Alg1,
    Oracle,
}

/// What one applied batch did, for operators and benches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateReport {
    /// The batch's pool sequence number.
    pub seq: u64,
    /// The generation the new tables carry.
    pub generation: u64,
    /// Sources whose rows were rewritten: at least one touched cell.
    pub recomputed: usize,
    /// Sources whose rows were carried forward by reference.
    pub reused: usize,
    /// Touched `(source, node)` cells: the cells the repair detached or
    /// offered a better record, and every cell of a row it had to
    /// replace.
    pub cells: usize,
    /// Reached rows whose hop column had to be restored from the
    /// parents, because none that [`hops_match`] accepts was carried
    /// beside them: rows no earlier batch repaired (fresh from a solver
    /// or a file) and rows edited since.
    pub walked: usize,
    /// Net edge effects of the batch (after normalization).
    pub inserted: usize,
    pub removed: usize,
    pub reweighted: usize,
    /// Updates that canceled out against the pre-batch graph.
    pub noops: usize,
    /// Wall time patching the CSR, in microseconds.
    pub patch_micros: u64,
    /// Wall time of everything after the patch — the reach test, the
    /// hop columns, the repair, assembling the rows — in microseconds.
    pub solve_micros: u64,
}

impl UpdateReport {
    /// Fraction of sources that had to be recomputed, in `[0, 1]`.
    pub fn recomputed_fraction(&self) -> f64 {
        let total = self.recomputed + self.reused;
        if total == 0 {
            0.0
        } else {
            self.recomputed as f64 / total as f64
        }
    }
}

/// Apply one batch: patch `g` in place, bring the rows of `tables` up
/// to it, and return the next generation plus its report.
///
/// `tables.snap` must be canonical for `g`'s pre-call state: same `n`,
/// full range (`h = n − 1`), no `Δ` truncation, every row the
/// `(d, l, parent)` tree of its source. The result is canonical for the
/// patched graph. On [`PatchError`] the graph is untouched and no
/// generation is produced.
///
/// The last argument is unused (see [`RecomputeEngine`]).
pub fn apply_update_batch(
    g: &mut WGraph,
    tables: &VersionedTables,
    batch: &UpdateBatch,
    _engine: RecomputeEngine,
) -> Result<(VersionedTables, UpdateReport), PatchError> {
    let t0 = Instant::now();
    let summary = g.apply_updates(&batch.updates)?;
    let patch_micros = t0.elapsed().as_micros() as u64;

    let t1 = Instant::now();
    let g = &*g;
    let mut repair = RowRepair::new(g, &summary.changes);
    let (mut recomputed, mut cells, mut walked) = (0, 0, 0);
    let new_tables: Vec<Arc<SourceTable>> = tables
        .snap
        .tables
        .iter()
        .map(|t| match next_row(&mut repair, g, t, &mut walked) {
            None => Arc::clone(t),
            Some((touched, row)) => {
                recomputed += 1;
                cells += touched;
                Arc::new(row)
            }
        })
        .collect();
    let solve_micros = t1.elapsed().as_micros() as u64;

    let generation = tables.generation + 1;
    let report = UpdateReport {
        seq: batch.seq,
        generation,
        recomputed,
        reused: new_tables.len() - recomputed,
        cells,
        walked,
        inserted: summary.inserted,
        removed: summary.removed,
        reweighted: summary.reweighted,
        noops: summary.noops,
        patch_micros,
        solve_micros,
    };
    let next = VersionedTables {
        generation,
        snap: TableSnapshot {
            n: tables.snap.n,
            tables: new_tables,
        },
    };
    Ok((next, report))
}

/// `t`'s successor and its touched-cell count, or `None` to carry `t`
/// by reference. A row no change reaches is carried before it is copied
/// or read further. A reached row is repaired in a copy, which needs
/// the hop column the order reads: the one carried beside `t` if
/// [`hops_match`] accepts it, else the one [`RowRepair::restore_hops`]
/// walks up the parents (counted in `walked`). A reached row whose
/// parents are not a tree is replaced by a cold one. The repaired copy
/// keeps its column for the next batch.
fn next_row(
    repair: &mut RowRepair,
    g: &WGraph,
    t: &SourceTable,
    walked: &mut usize,
) -> Option<(usize, SourceTable)> {
    if !repair.reaches(&t.dist, &t.parent) {
        return None;
    }
    let mut hops = Vec::new();
    if hops_match(g.n(), t.source, &t.dist, &t.parent, &t.hops) {
        hops.extend_from_slice(&t.hops);
    } else {
        *walked += 1;
        if !repair.restore_hops(t.source, &t.dist, &t.parent, &mut hops) {
            let cold = dijkstra(g, t.source);
            return Some((g.n(), SourceTable::new(t.source, cold.dist, cold.parent)));
        }
    }
    let mut row = SourceTable {
        source: t.source,
        dist: t.dist.clone(),
        parent: t.parent.clone(),
        hops,
    };
    let touched = repair.repair(t.source, &mut row.dist, &mut row.hops, &mut row.parent);
    (touched > 0).then_some((touched, row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_congest::EngineConfig;
    use dw_graph::gen::{self, WeightDist};
    use dw_graph::{EdgeUpdate, INFINITY};
    use dw_pipeline::apsp_auto;
    use dw_seqref::hops_from_parents;

    /// Tables from one sequential Dijkstra per source.
    fn tables_for(g: &WGraph) -> VersionedTables {
        let runs: Vec<_> = (0..g.n() as u32).map(|s| dijkstra(g, s)).collect();
        VersionedTables {
            generation: 0,
            snap: TableSnapshot::from_sssp(&runs, g.n() as u32),
        }
    }

    /// Tables of a cold Algorithm-1 APSP on `g`.
    fn alg1_tables_for(g: &WGraph) -> VersionedTables {
        let (res, _, _) = apsp_auto(g, EngineConfig::default());
        VersionedTables {
            generation: 0,
            snap: TableSnapshot::from_result(&res),
        }
    }

    fn batch(updates: Vec<EdgeUpdate>) -> UpdateBatch {
        UpdateBatch { seq: 0, updates }
    }

    fn carried_by_reference(old: &VersionedTables, new: &VersionedTables) -> usize {
        let pairs = old.snap.tables.iter().zip(&new.snap.tables);
        pairs.filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// The repair writes a cold solve's tables, and it pays for what the
    /// batch reaches: a batch of one or two updates recomputes fewer rows
    /// than a full recompute (every row) would.
    #[test]
    fn alg1_engine_is_a_cold_solve_cell_for_cell() {
        let s = |src, dst, w| EdgeUpdate::SetWeight { src, dst, w };
        let i = |src, dst, w| EdgeUpdate::Insert { src, dst, w };
        let d = |src, dst| EdgeUpdate::Remove { src, dst };
        let cases = [
            (
                gen::zero_heavy(24, 0.12, 0.5, 6, true, 8),
                vec![s(3, 4, 0), i(20, 2, 1)],
            ),
            (
                gen::gnp_connected(20, 0.2, false, WeightDist::Uniform { max: 9 }, 17),
                vec![s(0, 1, 1), i(3, 11, 2)],
            ),
            (
                gen::grid(5, 5, false, WeightDist::Uniform { max: 7 }, 3),
                vec![s(0, 1, 40), d(12, 13)],
            ),
            (
                gen::grid(8, 8, false, WeightDist::Uniform { max: 9 }, 1807),
                vec![s(27, 28, 40)],
            ),
        ];
        for (mut g, updates) in cases {
            let n = g.n();
            // Whoever built generation 0, it is the same bytes.
            let vt = alg1_tables_for(&g);
            assert_eq!(vt.snap, tables_for(&g).snap);

            let (next, report) =
                apply_update_batch(&mut g, &vt, &batch(updates), RecomputeEngine::Alg1).unwrap();
            assert_eq!(next.generation, 1);
            assert_eq!(next.snap, alg1_tables_for(&g).snap);
            assert_eq!(next.snap, tables_for(&g).snap);
            assert_eq!(report.recomputed + report.reused, n);
            assert!(report.recomputed > 0 && report.cells >= report.recomputed);
            assert!(report.recomputed < n && report.cells < report.recomputed * n);
            // Reused rows are the same allocation, not a copy.
            assert_eq!(carried_by_reference(&vt, &next), report.reused);
        }
    }

    /// DESIGN.md §14's example, as code: from G₁ to G₂ no distance from
    /// source 0 moves and no edge into node 4 changes, yet `parent(4)`
    /// moves from 2 to 3, two hops from the nearest changed edge —
    /// because `l(2)` grew, which node 4 can see in what 2 offers it.
    /// (A Dijkstra that takes parents in heap pop order moves it too,
    /// because 2 now enters the heap after 3 was popped; nothing at
    /// node 4 shows that, which is why that order could not be kept.)
    /// The repair, a cold Algorithm 1 and `dijkstra` all write 3.
    #[test]
    fn the_two_orders_break_a_zero_weight_tie_for_different_reasons() {
        use dw_graph::Edge;
        let g1 = [(0, 2, 1), (0, 3, 1), (2, 4, 1), (3, 4, 1)];
        let mut g = WGraph::from_edge_list(6, true, g1.iter().map(|&(u, v, w)| Edge::new(u, v, w)));
        let to_g2 = batch(vec![
            EdgeUpdate::Remove { src: 0, dst: 2 },
            EdgeUpdate::Insert {
                src: 0,
                dst: 5,
                w: 1,
            },
            EdgeUpdate::Insert {
                src: 5,
                dst: 2,
                w: 0,
            },
        ]);
        let before = tables_for(&g);
        assert_eq!(before.snap, alg1_tables_for(&g).snap);
        assert_eq!(before.snap.tables[0].parent[4], Some(2));

        let (after, _) =
            apply_update_batch(&mut g, &before, &to_g2, RecomputeEngine::Alg1).unwrap();
        let (row, row2) = (&before.snap.tables[0], &after.snap.tables[0]);
        assert_eq!(row.dist[..5], row2.dist[..5]);
        assert_eq!(row2.parent[4], Some(3));
        assert_eq!(after.snap, tables_for(&g).snap);
        assert_eq!(after.snap, alg1_tables_for(&g).snap);
    }

    #[test]
    fn corrupt_parent_columns_are_rebuilt_to_the_cold_row() {
        let mut g = gen::grid(4, 4, false, WeightDist::Uniform { max: 5 }, 6);
        let mut vt = alg1_tables_for(&g);
        // Rows 2 and 14: 5 and 6 name each other. Row 7: a parent past
        // n. Row 11: an inner node of the tree claims to be
        // unreachable, its child still hangs off it.
        let corrupt = |vt: &mut VersionedTables, row: usize, f: &dyn Fn(&mut SourceTable)| {
            f(Arc::make_mut(&mut vt.snap.tables[row]));
        };
        for row in [2, 14] {
            corrupt(&mut vt, row, &|t| {
                t.parent[5] = Some(6);
                t.parent[6] = Some(5);
            });
        }
        corrupt(&mut vt, 7, &|t| t.parent[15] = Some(16));
        corrupt(&mut vt, 11, &|t| {
            let inner = t.parent.iter().flatten().find(|&&p| p != t.source);
            let inner = *inner.expect("some path has two hops") as usize;
            t.dist[inner] = INFINITY;
            t.parent[inner] = None;
        });
        // Edge (0, 1) is a tree edge of rows 2, 7 and 11, which are
        // replaced by cold rows, and slack in row 14, which is carried
        // as it is: a row no change reaches is not read.
        let reaching = batch(vec![EdgeUpdate::SetWeight {
            src: 0,
            dst: 1,
            w: 40,
        }]);
        let (next, report) =
            apply_update_batch(&mut g, &vt, &reaching, RecomputeEngine::Alg1).unwrap();
        let cold = alg1_tables_for(&g).snap;
        for (i, row) in next.snap.tables.iter().enumerate() {
            if i == 14 {
                assert!(Arc::ptr_eq(row, &vt.snap.tables[14]));
            } else {
                assert_eq!(row, &cold.tables[i], "row {i}");
            }
        }
        assert_eq!(carried_by_reference(&vt, &next), report.reused);
        assert!(report.cells >= 3 * 16);
    }

    /// A batch that makes every edge of `g` one heavier: every tree edge
    /// of every row got heavier, so every row is rewritten.
    fn every_edge_heavier(g: &WGraph, seq: u64) -> UpdateBatch {
        let updates = g.edges().map(|e| EdgeUpdate::SetWeight {
            src: e.src,
            dst: e.dst,
            w: e.w + 1,
        });
        UpdateBatch {
            seq,
            updates: updates.collect(),
        }
    }

    fn carries_its_own_hops(t: &SourceTable, n: usize) -> bool {
        Some(&t.hops) == hops_from_parents(n, t.source, &t.dist, &t.parent).as_ref()
    }

    #[test]
    fn a_row_the_last_batch_repaired_is_not_walked_again() {
        let mut g = gen::grid(4, 5, false, WeightDist::Uniform { max: 5 }, 2);
        let (n, vt, heavier) = (g.n(), tables_for(&g), every_edge_heavier(&g, 0));
        let (vt, first) = apply_update_batch(&mut g, &vt, &heavier, RecomputeEngine::Alg1).unwrap();
        // Rows from a solver carry no column: every reached row is walked.
        assert_eq!((first.recomputed, first.walked), (n, n));
        assert!(vt.snap.tables.iter().all(|t| carries_its_own_hops(t, n)));

        let one = batch(vec![EdgeUpdate::SetWeight {
            src: 0,
            dst: 1,
            w: 40,
        }]);
        let (next, second) = apply_update_batch(&mut g, &vt, &one, RecomputeEngine::Alg1).unwrap();
        assert!(second.recomputed > 0);
        assert_eq!(second.walked, 0);
        assert_eq!(next.snap, tables_for(&g).snap);
    }

    #[test]
    fn a_carried_column_that_does_not_match_is_walked() {
        let mut g = gen::grid(4, 4, false, WeightDist::Uniform { max: 5 }, 6);
        let (n, vt, heavier) = (g.n(), tables_for(&g), every_edge_heavier(&g, 0));
        let (mut vt, _) = apply_update_batch(&mut g, &vt, &heavier, RecomputeEngine::Alg1).unwrap();
        // Row 3: one cell one hop off. Row 9: row 10's column.
        let row3 = Arc::make_mut(&mut vt.snap.tables[3]);
        let cell = (0..n).find(|&v| v != 3).unwrap();
        row3.hops[cell] += 1;
        let other = vt.snap.tables[10].hops.clone();
        Arc::make_mut(&mut vt.snap.tables[9]).hops = other;

        let heavier = every_edge_heavier(&g, 1);
        let (next, report) =
            apply_update_batch(&mut g, &vt, &heavier, RecomputeEngine::Alg1).unwrap();
        assert_eq!((report.recomputed, report.walked), (n, 2));
        let cold = alg1_tables_for(&g).snap;
        assert_eq!(next.snap, cold);
        assert!(next.snap.tables.iter().all(|t| carries_its_own_hops(t, n)));
    }

    #[test]
    fn rejected_batch_produces_no_generation_and_leaves_graph_alone() {
        let mut g = gen::grid(3, 3, false, WeightDist::Constant(2), 0);
        let vt = tables_for(&g);
        let before = g.clone();
        let batch = UpdateBatch {
            seq: 0,
            updates: vec![EdgeUpdate::Insert {
                src: 0,
                dst: 99,
                w: 1,
            }],
        };
        let err = apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Alg1);
        assert!(matches!(err, Err(PatchError::OutOfRange { .. })));
        assert_eq!(g, before);
    }

    #[test]
    fn noop_batch_bumps_generation_but_recomputes_nothing() {
        let mut g = gen::grid(3, 3, false, WeightDist::Constant(2), 0);
        let vt = tables_for(&g);
        let batch = UpdateBatch {
            seq: 5,
            updates: vec![EdgeUpdate::SetWeight {
                src: 0,
                dst: 1,
                w: 2,
            }], // same weight
        };
        let (next, report) =
            apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Alg1).unwrap();
        assert_eq!((report.recomputed, report.cells), (0, 0));
        assert_eq!(report.noops, 1);
        assert_eq!(next.generation, 1);
        assert_eq!(next.snap, vt.snap);
    }
}
