//! The recompute engine: one batch in, one table generation out.
//!
//! [`apply_update_batch`] is the dynamic subsystem's core transaction
//! (DESIGN.md §14):
//!
//! 1. **patch** — apply the batch to the graph in place
//!    ([`WGraph::apply_updates`] rebuilds only the touched CSR rows)
//!    and get back the batch's normalized *net* changes;
//! 2. **recompute** — bring every row up to the patched graph, in the
//!    order the tables were built in:
//!    * [`RecomputeEngine::Alg1`] repairs each row cell by cell in
//!      Algorithm 1's `(d, l, parent)` order
//!      ([`dw_pipeline::RowRepair`]) and is bit-identical to a cold
//!      Algorithm-1 solve of the patched graph;
//!    * [`RecomputeEngine::Oracle`] partitions the rows with the
//!      tight/slack rule ([`dw_graph::row_is_dirty`]) and re-runs
//!      Dijkstra on the dirty ones, and is bit-identical to
//!      [`dw_seqref::dijkstra`] on the patched graph;
//! 3. **version** — assemble the next [`VersionedTables`]: untouched
//!    rows carried by `Arc` reference (zero copy), the others fresh,
//!    generation bumped by one.
//!
//! The whole transaction is all-or-nothing: a batch that fails
//! validation ([`PatchError`]) leaves the graph untouched and produces
//! no generation.

use crate::batch::UpdateBatch;
use dw_graph::{row_is_dirty, PatchError, WGraph, INFINITY};
use dw_pipeline::RowRepair;
use dw_seqref::dijkstra;
use dw_serve::{SourceTable, TableSnapshot, VersionedTables};
use std::sync::Arc;
use std::time::Instant;

/// Whose tables these are, and so how a batch is carried into them.
/// The two orders differ in how they break ties between equally short
/// paths, and only one of them can be repaired locally (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeEngine {
    /// Tables from the paper's pipelined k-SSP (Algorithm 1): each row
    /// is repaired cell by cell in Step 9's `(d, l, parent)` order.
    Alg1,
    /// Tables from sequential Dijkstra: a row is either provably
    /// unchanged or re-solved whole.
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
    /// Touched `(source, node)` cells. Alg1 counts the cells it
    /// detached or offered a better record; Oracle re-solves whole
    /// rows, so every cell of a recomputed row counts.
    pub cells: usize,
    /// Net edge effects of the batch (after normalization).
    pub inserted: usize,
    pub removed: usize,
    pub reweighted: usize,
    /// Updates that canceled out against the pre-batch graph.
    pub noops: usize,
    /// Wall time patching the CSR, in microseconds.
    pub patch_micros: u64,
    /// Wall time of everything after the patch — invalidation, repair
    /// or re-solve, assembling the rows — in microseconds.
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
/// `tables.snap` must have been computed on `g`'s pre-call state (same
/// `n`, full range, no `Δ` truncation) by the solver `engine` names —
/// both arms read its rows as exact. On [`PatchError`] the graph is
/// untouched and no generation is produced.
pub fn apply_update_batch(
    g: &mut WGraph,
    tables: &VersionedTables,
    batch: &UpdateBatch,
    engine: RecomputeEngine,
) -> Result<(VersionedTables, UpdateReport), PatchError> {
    let t0 = Instant::now();
    let summary = g.apply_updates(&batch.updates)?;
    let patch_micros = t0.elapsed().as_micros() as u64;

    let t1 = Instant::now();
    let (g, changes) = (&*g, &summary.changes);
    let (new_tables, recomputed, cells) = match engine {
        RecomputeEngine::Oracle => next_rows(tables, |t| {
            row_is_dirty(&t.dist, changes, g.is_directed()).then(|| {
                let r = dijkstra(g, t.source);
                let fresh = SourceTable {
                    source: t.source,
                    dist: r.dist,
                    parent: r.parent,
                };
                (g.n(), fresh)
            })
        }),
        RecomputeEngine::Alg1 => {
            let mut repair = RowRepair::new(g, changes);
            next_rows(tables, |t| repair_row(&mut repair, g.n(), t))
        }
    };
    let solve_micros = t1.elapsed().as_micros() as u64;

    let generation = tables.generation + 1;
    let report = UpdateReport {
        seq: batch.seq,
        generation,
        recomputed,
        reused: new_tables.len() - recomputed,
        cells,
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

/// The next generation's rows, in the old order: `fresh` returns a
/// row's touched-cell count and its replacement, or `None` to carry the
/// row by reference. Also returns how many rows were replaced and the
/// cells touched over all of them.
fn next_rows(
    tables: &VersionedTables,
    mut fresh: impl FnMut(&SourceTable) -> Option<(usize, SourceTable)>,
) -> (Vec<Arc<SourceTable>>, usize, usize) {
    let (mut recomputed, mut cells) = (0, 0);
    let rows = tables
        .snap
        .tables
        .iter()
        .map(|t| match fresh(t) {
            None => Arc::clone(t),
            Some((touched, row)) => {
                recomputed += 1;
                cells += touched;
                Arc::new(row)
            }
        })
        .collect();
    (rows, recomputed, cells)
}

/// Repair a copy of `t`; `None` if no cell was touched. A row whose
/// parents are not a tree ([`hops_from_parents`]) is rebuilt from
/// nothing by the same repair.
fn repair_row(repair: &mut RowRepair, n: usize, t: &SourceTable) -> Option<(usize, SourceTable)> {
    let mut row = t.clone();
    let touched = match hops_from_parents(n, t) {
        Some(mut hops) => repair.repair(t.source, &mut row.dist, &mut hops, &mut row.parent),
        None => {
            row.dist.resize(n, INFINITY);
            row.parent.resize(n, None);
            repair.rebuild(t.source, &mut row.dist, &mut vec![0; n], &mut row.parent)
        }
    };
    (touched > 0).then_some((touched, row))
}

/// Every node's depth in the tree `t`'s parent pointers draw. Tables
/// persist distance and parent only; in Algorithm 1's output the hop
/// count `l` of a record is its depth, so this restores the column the
/// repair orders by.
///
/// The parents come from a file whose decoder checks column length and
/// source range, not tree shape, so this is a bounded walk: each node
/// is resolved once, a walk up marks its chain and stops at the first
/// resolved node, and meeting its own chain again is a cycle. `None`
/// unless the columns span `0..n`, the source sits at `(0, None)`,
/// every other reachable node chains up to it through parents `< n`,
/// and unreachable nodes have no parent.
fn hops_from_parents(n: usize, t: &SourceTable) -> Option<Vec<u64>> {
    const UNRESOLVED: u64 = u64::MAX;
    const ON_CHAIN: u64 = u64::MAX - 1;
    let s = t.source as usize;
    if t.dist.len() != n || t.parent.len() != n || s >= n || (t.dist[s], t.parent[s]) != (0, None) {
        return None;
    }
    let mut hops = vec![UNRESOLVED; n];
    hops[s] = 0;
    let mut chain = Vec::new();
    for v in 0..n {
        let mut at = v;
        while hops[at] == UNRESOLVED {
            if t.dist[at] == INFINITY {
                if t.parent[at].is_some() {
                    return None;
                }
                hops[at] = 0;
            } else {
                let p = t.parent[at]? as usize;
                if p >= n {
                    return None;
                }
                hops[at] = ON_CHAIN;
                chain.push(at);
                at = p;
            }
        }
        if hops[at] == ON_CHAIN || (t.dist[at] == INFINITY && !chain.is_empty()) {
            return None; // a cycle, or a path hanging off an unreachable node
        }
        let mut depth = hops[at];
        while let Some(c) = chain.pop() {
            depth += 1;
            hops[c] = depth;
        }
    }
    Some(hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_congest::EngineConfig;
    use dw_graph::gen::{self, WeightDist};
    use dw_graph::EdgeUpdate;
    use dw_pipeline::apsp_auto;
    use dw_seqref::dijkstra;

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

    fn check_exact(g: &WGraph, vt: &VersionedTables) {
        for t in &vt.snap.tables {
            let want = dijkstra(g, t.source);
            assert_eq!(t.dist, want.dist, "source {}", t.source);
            assert_eq!(t.parent, want.parent, "source {}", t.source);
        }
    }

    #[test]
    fn oracle_engine_matches_from_scratch_and_carries_clean_rows() {
        let mut g = gen::gnp_connected(20, 0.2, false, WeightDist::Uniform { max: 9 }, 17);
        let vt = tables_for(&g);
        let batch = UpdateBatch {
            seq: 0,
            updates: vec![
                EdgeUpdate::SetWeight {
                    src: 0,
                    dst: 1,
                    w: 1,
                },
                EdgeUpdate::Insert {
                    src: 3,
                    dst: 11,
                    w: 2,
                },
            ],
        };
        let (next, report) =
            apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Oracle).unwrap();
        assert_eq!(next.generation, 1);
        assert_eq!(report.recomputed + report.reused, 20);
        assert_eq!(report.cells, report.recomputed * 20);
        check_exact(&g, &next);
        // Reused rows must be the same allocation, not a copy.
        let reused_shared = vt
            .snap
            .tables
            .iter()
            .zip(&next.snap.tables)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert_eq!(reused_shared, report.reused);
    }

    #[test]
    fn alg1_engine_matches_oracle_distances() {
        let mut g = gen::grid2d(5, 5, WeightDist::Uniform { max: 7 }, 3);
        let vt = tables_for(&g);
        let batch = UpdateBatch {
            seq: 0,
            updates: vec![
                EdgeUpdate::SetWeight {
                    src: 0,
                    dst: 1,
                    w: 40,
                },
                EdgeUpdate::Remove { src: 12, dst: 13 },
            ],
        };
        let mut g2 = g.clone();
        let (next, _) = apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Alg1).unwrap();
        let (oracle_next, _) =
            apply_update_batch(&mut g2, &vt, &batch, RecomputeEngine::Oracle).unwrap();
        for (a, b) in next.snap.tables.iter().zip(&oracle_next.snap.tables) {
            assert_eq!(a.dist, b.dist, "source {}", a.source);
        }
        // Repaired from Dijkstra's rows the parents form *some* valid
        // tree: every path walks and its weight telescopes to the
        // distance.
        for t in &next.snap.tables {
            for v in 0..25u32 {
                if t.dist[v as usize] != dw_graph::INFINITY {
                    let p = t.path_to(v).expect("reachable node walks");
                    assert_eq!(p.first(), Some(&t.source));
                    assert_eq!(p.last(), Some(&v));
                }
            }
        }
    }

    #[test]
    fn alg1_engine_is_a_cold_solve_cell_for_cell() {
        let mut g = gen::zero_heavy(24, 0.12, 0.5, 6, true, 8);
        let vt = alg1_tables_for(&g);
        let batch = UpdateBatch {
            seq: 0,
            updates: vec![
                EdgeUpdate::SetWeight {
                    src: 3,
                    dst: 4,
                    w: 0,
                },
                EdgeUpdate::Insert {
                    src: 20,
                    dst: 2,
                    w: 1,
                },
            ],
        };
        let (next, report) =
            apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Alg1).unwrap();
        assert_eq!(next.snap, alg1_tables_for(&g).snap);
        assert!(report.cells >= report.recomputed);
        assert!(report.cells < report.recomputed * 24);
    }

    /// DESIGN.md §14's counterexample, as code: from G₁ to G₂ no
    /// distance from source 0 moves and no edge into node 4 changes,
    /// yet both solvers move `parent(4)` from 2 to 3 — Dijkstra because
    /// 2 now enters the heap after 3 was popped, Algorithm 1 because
    /// `l(2)` grew. Only the second reason is visible from node 4.
    #[test]
    fn the_two_orders_break_a_zero_weight_tie_for_different_reasons() {
        use dw_graph::Edge;
        let g1 = [(0, 2, 1), (0, 3, 1), (2, 4, 1), (3, 4, 1)];
        let mut g = WGraph::from_edge_list(6, true, g1.iter().map(|&(u, v, w)| Edge::new(u, v, w)));
        let to_g2 = UpdateBatch {
            seq: 0,
            updates: vec![
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
            ],
        };
        let (oracle, alg1) = (tables_for(&g), alg1_tables_for(&g));
        assert_eq!(oracle.snap.tables[0].parent[4], Some(2));
        assert_eq!(alg1.snap.tables[0].parent[4], Some(2));

        let mut g2 = g.clone();
        let (oracle2, _) =
            apply_update_batch(&mut g2, &oracle, &to_g2, RecomputeEngine::Oracle).unwrap();
        let (alg1_2, _) = apply_update_batch(&mut g, &alg1, &to_g2, RecomputeEngine::Alg1).unwrap();
        for (before, after) in [(&oracle, &oracle2), (&alg1, &alg1_2)] {
            let (before, after) = (&before.snap.tables[0], &after.snap.tables[0]);
            assert_eq!(before.dist[..5], after.dist[..5]);
            assert_eq!(after.parent[4], Some(3));
        }
        check_exact(&g2, &oracle2);
        assert_eq!(alg1_2.snap, alg1_tables_for(&g).snap);
    }

    fn table(source: u32, dist: &[u64], parent: &[Option<u32>]) -> SourceTable {
        SourceTable {
            source,
            dist: dist.to_vec(),
            parent: parent.to_vec(),
        }
    }

    #[test]
    fn hops_are_tree_depths_and_a_bad_parent_column_is_refused() {
        const INF: u64 = INFINITY;
        // 1 is the source; 1 → 0 → 3; 2 is unreachable.
        let good = table(1, &[4, 0, INF, 4], &[Some(1), None, None, Some(0)]);
        assert_eq!(hops_from_parents(4, &good), Some(vec![1, 0, 0, 2]));
        assert_eq!(hops_from_parents(5, &good), None); // columns do not span n

        let refused = [
            ("cycle", table(0, &[0, 1, 1], &[None, Some(2), Some(1)])),
            ("self loop", table(0, &[0, 1], &[None, Some(1)])),
            ("parent out of range", table(0, &[0, 1], &[None, Some(2)])),
            ("no parent", table(0, &[0, 1], &[None, None])),
            (
                "hangs off an unreachable node",
                table(0, &[0, INF, 3], &[None, None, Some(1)]),
            ),
            (
                "unreachable with a parent",
                table(0, &[0, INF], &[None, Some(0)]),
            ),
            (
                "source has a parent",
                table(0, &[0, 1], &[Some(1), Some(0)]),
            ),
            (
                "source not at distance 0",
                table(0, &[2, 3], &[None, Some(0)]),
            ),
            ("source out of range", table(7, &[0, 1], &[None, Some(0)])),
        ];
        for (what, t) in refused {
            assert_eq!(hops_from_parents(t.dist.len(), &t), None, "{what}");
        }
    }

    #[test]
    fn corrupt_parent_columns_are_rebuilt_to_the_cold_row() {
        let mut g = gen::grid2d(4, 4, WeightDist::Uniform { max: 5 }, 6);
        let mut vt = alg1_tables_for(&g);
        // Row 2: 5 and 6 name each other. Row 7: a parent past n. Row
        // 11: an inner node of the tree claims to be unreachable, its
        // child still hangs off it.
        let corrupt = |vt: &mut VersionedTables, row: usize, f: &dyn Fn(&mut SourceTable)| {
            f(Arc::make_mut(&mut vt.snap.tables[row]));
        };
        corrupt(&mut vt, 2, &|t| {
            t.parent[5] = Some(6);
            t.parent[6] = Some(5);
        });
        corrupt(&mut vt, 7, &|t| t.parent[0] = Some(16));
        corrupt(&mut vt, 11, &|t| {
            let inner = t.parent.iter().flatten().find(|&&p| p != t.source);
            let inner = *inner.expect("some path has two hops") as usize;
            t.dist[inner] = INFINITY;
            t.parent[inner] = None;
        });
        // A batch that touches nothing: the rebuild is owed to the
        // columns, not to the changes.
        let batch = UpdateBatch {
            seq: 0,
            updates: vec![EdgeUpdate::Insert {
                src: 0,
                dst: 15,
                w: 10_000,
            }],
        };
        let (next, report) =
            apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Alg1).unwrap();
        assert_eq!(next.snap, alg1_tables_for(&g).snap);
        assert_eq!((report.recomputed, report.cells), (3, 3 * 15));
    }

    #[test]
    fn rejected_batch_produces_no_generation_and_leaves_graph_alone() {
        let mut g = gen::grid2d(3, 3, WeightDist::Constant(2), 0);
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
        let err = apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Oracle);
        assert!(matches!(err, Err(PatchError::OutOfRange { .. })));
        assert_eq!(g, before);
    }

    #[test]
    fn noop_batch_bumps_generation_but_recomputes_nothing() {
        let mut g = gen::grid2d(3, 3, WeightDist::Constant(2), 0);
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
