//! `e20_dynamic`: incremental recompute throughput of the `dw-dynamic`
//! subsystem (EXPERIMENTS.md E20).
//!
//! One seeded update stream (the 50/25/25 reweight/remove/insert mix of
//! [`dw_dynamic::gen_update_batch`]) applied to full APSP tables over a
//! 20×20 grid, measured at batch sizes 1, 8 and 64 through
//! [`apply_update_batch`]'s cell-level repair, against a from-scratch
//! baseline that re-runs one sequential Dijkstra per source per batch.
//! Both start from and arrive at the same tables, so the ratio is what
//! repairing the touched cells saves over re-solving every row.
//!
//! `Measurement` mapping: a "round" is one applied batch, so
//! `rounds_per_sec` is batches/sec and `p50_us`/`p99_us` are per-batch
//! update latency percentiles. `messages` counts the source rows with
//! at least one touched cell across the run — `messages / (rounds · n)`
//! is the mean recomputed fraction, the number E20 reports per entry. The
//! stream is seeded, so the round structure is deterministic (the
//! unit test below pins that).

use crate::engine_bench::Measurement;
use dw_dynamic::{apply_update_batch, gen_update_batch, RecomputeEngine};
use dw_graph::gen::{self, WeightDist};
use dw_graph::WGraph;
use dw_seqref::dijkstra;
use dw_serve::{TableSnapshot, VersionedTables};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const STREAM_SEED: u64 = 2020;
const MAX_W: u64 = 9;

fn seed_instance(smoke: bool) -> (WGraph, VersionedTables) {
    let side = if smoke { 8 } else { 20 };
    let g = gen::grid2d(side, side, WeightDist::Uniform { max: MAX_W }, 1807);
    let runs: Vec<_> = (0..g.n() as u32).map(|s| dijkstra(&g, s)).collect();
    let vt = VersionedTables {
        generation: 0,
        snap: TableSnapshot::from_sssp(&runs, g.n() as u32),
    };
    (g, vt)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn finish(
    workload: &'static str,
    mode: &'static str,
    n: usize,
    batches: u64,
    recomputed_rows: u64,
    mut lat_us: Vec<u64>,
    wall_ms: f64,
) -> Measurement {
    lat_us.sort_unstable();
    Measurement {
        workload,
        mode,
        n,
        rounds: batches,
        rounds_executed: batches,
        messages: recomputed_rows,
        wall_ms,
        rounds_per_sec: batches as f64 / (wall_ms / 1e3).max(1e-9),
        slab_bytes: 0,
        slab_peak: 0,
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
    }
}

/// Incremental path: patch, then repair the rows the batch reaches.
fn measure_incremental(
    mode: &'static str,
    smoke: bool,
    batches: usize,
    batch_size: usize,
) -> Measurement {
    let (mut g, mut vt) = seed_instance(smoke);
    let n = g.n();
    let mut rng = ChaCha8Rng::seed_from_u64(STREAM_SEED);
    let mut recomputed_rows = 0u64;
    let mut lat_us = Vec::with_capacity(batches);
    let start = Instant::now();
    for b in 0..batches {
        let batch = gen_update_batch(&g, b as u64, batch_size, MAX_W, &mut rng);
        let t0 = Instant::now();
        let (next, report) = apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Alg1)
            .expect("seeded streams drawn from the live graph always validate");
        lat_us.push(t0.elapsed().as_micros() as u64);
        recomputed_rows += report.recomputed as u64;
        vt = next;
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    finish(
        "dynamic_update_batch",
        mode,
        n,
        batches as u64,
        recomputed_rows,
        lat_us,
        wall_ms,
    )
}

/// From-scratch baseline: the same stream, but every batch re-runs all
/// n sources on the patched graph.
fn measure_full(smoke: bool, batches: usize, batch_size: usize) -> Measurement {
    let (mut g, _) = seed_instance(smoke);
    let n = g.n();
    let mut rng = ChaCha8Rng::seed_from_u64(STREAM_SEED);
    let mut recomputed_rows = 0u64;
    let mut lat_us = Vec::with_capacity(batches);
    let start = Instant::now();
    for b in 0..batches {
        let batch = gen_update_batch(&g, b as u64, batch_size, MAX_W, &mut rng);
        let t0 = Instant::now();
        g.apply_updates(&batch.updates)
            .expect("seeded streams always validate");
        let runs: Vec<_> = (0..n as u32).map(|s| dijkstra(&g, s)).collect();
        let _ = TableSnapshot::from_sssp(&runs, n as u32);
        lat_us.push(t0.elapsed().as_micros() as u64);
        recomputed_rows += n as u64;
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    finish(
        "dynamic_full_recompute",
        "batch_8",
        n,
        batches as u64,
        recomputed_rows,
        lat_us,
        wall_ms,
    )
}

/// The fixed `e20_dynamic` measurement set, in stable order. `smoke`
/// shrinks the grid and the stream for `make bench-smoke` and the unit
/// test below.
pub fn run_all_dynamic(smoke: bool) -> Vec<Measurement> {
    let batches = if smoke { 8 } else { 32 };
    vec![
        measure_incremental("batch_1", smoke, batches, 1),
        measure_incremental("batch_8", smoke, batches, 8),
        measure_incremental("batch_64", smoke, batches, 64),
        measure_full(smoke, batches, 8),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke set is the full pipeline in miniature: deterministic
    /// round structure, and the repair must actually save work — small
    /// batches touch a cell in strictly fewer rows than the from-scratch
    /// baseline re-runs.
    #[test]
    fn dynamic_bench_smoke_set_is_clean() {
        let ms = run_all_dynamic(true);
        assert_eq!(ms.len(), 4);
        for m in &ms {
            assert_eq!(m.rounds, 8, "{}/{}", m.workload, m.mode);
            assert_eq!(m.rounds_executed, 8);
            assert!(m.messages > 0 && m.rounds_per_sec > 0.0);
            assert!(m.p99_us >= m.p50_us);
        }
        let batch_1 = &ms[0];
        let full = &ms[3];
        assert_eq!(full.messages, 8 * full.n as u64);
        assert!(
            batch_1.messages < full.messages,
            "single-update batches must touch fewer rows than full recompute \
             ({} vs {})",
            batch_1.messages,
            full.messages
        );
        // Same seed, same mix: two runs at the same batch size agree on
        // the round structure.
        let again = run_all_dynamic(true);
        for (a, b) in ms.iter().zip(&again) {
            assert_eq!((a.rounds, a.messages), (b.rounds, b.messages));
        }
    }

    /// What spreading independent rows over two threads can buy on this
    /// machine: the same CPU-bound loop (64-bit LCGs, no memory
    /// traffic) run once on one thread and once on each of two threads
    /// at the same time, with one dependent chain (latency-bound) and
    /// with eight independent ones (throughput-bound). A ratio near 1.0
    /// means two threads get twice the work done; near 2.0, none.
    /// `cargo test --release -p dw-bench -- --ignored --nocapture
    /// two_threads_of_alu_work`.
    #[test]
    #[ignore]
    fn two_threads_of_alu_work() {
        fn spin<const LANES: usize>(steps: u64) {
            let mut x = [1u64; LANES];
            for _ in 0..steps {
                for (i, v) in x.iter_mut().enumerate() {
                    *v = v
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(i as u64 | 1);
                }
                x = std::hint::black_box(x);
            }
        }
        let time = |f: fn(), threads: usize| {
            let t = Instant::now();
            std::thread::scope(|s| (0..threads).for_each(|_| drop(s.spawn(f))));
            t.elapsed().as_secs_f64()
        };
        let loops: [(&str, fn()); 2] = [
            ("one chain", || spin::<1>(200_000_000)),
            ("eight chains", || spin::<8>(50_000_000)),
        ];
        let cpus = std::thread::available_parallelism().map_or(0, usize::from);
        eprintln!("available parallelism: {cpus}");
        for (what, f) in loops {
            let mut ratios: Vec<f64> = (0..9).map(|_| time(f, 2) / time(f, 1)).collect();
            ratios.sort_by(f64::total_cmp);
            let [lo, mid, hi] = [ratios[0], ratios[4], ratios[8]];
            eprintln!(
                "{what}: two threads / one thread, wall time: median {mid:.2} \
                 (min {lo:.2}, max {hi:.2}, 9 reps)"
            );
        }
    }

    /// The E20 addendum: what the cell-level repair touches and costs
    /// per batch, at batch sizes 1/8/16/64, on
    /// the four graphs of the pipeline benchmark (`benchmark/src/
    /// workloads.rs`: same generators, sizes and source sets) with
    /// tables from a cold Algorithm-1 solve, whose time is printed for
    /// scale. Per batch, by phase: `patch` and `solve` (everything after
    /// the patch) as `UpdateReport` times them; `restore`, the hop
    /// columns of the rows the batch reaches, timed apart on a patched
    /// copy of the graph — as `apply_update_batch` gets them (a carried
    /// column checked, the others walked) and, for comparison, walked
    /// from the parents every time; `repair` is `solve` less `restore`.
    /// `cargo test --release -p dw-bench -- --ignored --nocapture
    /// repair_sweep` regenerates the EXPERIMENTS.md table.
    #[test]
    #[ignore]
    fn repair_sweep() {
        use dw_congest::{EngineConfig, RunOutcome};
        use dw_graph::{EdgeUpdate, NodeId};
        use dw_pipeline::{k_ssp, RowRepair};
        use dw_seqref::{hops_from_parents, hops_match};
        use dw_serve::SourceTable;

        // The hop columns of the rows `batch` reaches, the engine's way
        // and the walk-every-row way, in µs.
        let restore_us =
            |g: &WGraph, rows: &[std::sync::Arc<SourceTable>], batch: &[EdgeUpdate]| {
                let mut patched = g.clone();
                let changes = patched.apply_updates(batch).unwrap().changes;
                let mut repair = RowRepair::new(&patched, &changes);
                let reached: Vec<&SourceTable> = rows
                    .iter()
                    .map(|t| t.as_ref())
                    .filter(|t| repair.reaches(&t.dist, &t.parent))
                    .collect();
                let (n, mut hops) = (g.n(), Vec::new());
                let t = Instant::now();
                for t in &reached {
                    if !hops_match(n, t.source, &t.dist, &t.parent, &t.hops) {
                        repair.restore_hops(t.source, &t.dist, &t.parent, &mut hops);
                    }
                }
                let now = t.elapsed().as_secs_f64() * 1e6;
                let t = Instant::now();
                for t in &reached {
                    std::hint::black_box(hops_from_parents(n, t.source, &t.dist, &t.parent));
                }
                (now, t.elapsed().as_secs_f64() * 1e6)
            };
        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };

        let spread = |n: usize, k: usize| (0..k).map(|i| (i * n / k) as NodeId).collect();
        let positive = WeightDist::ZeroOr {
            p_zero: 0.0,
            max: 4,
        };
        let uniform = |max| WeightDist::Uniform { max };
        let instances: [(&str, WGraph, Vec<NodeId>); 4] = [
            (
                "apsp256 (zero_heavy, directed)",
                gen::zero_heavy(256, 3.0 / 256.0, 0.4, 6, true, 1),
                (0..256).collect(),
            ),
            (
                "kssp1k (gnp 1..=4, directed, k=16)",
                gen::gnp_connected(1024, 3.0 / 1024.0, true, positive, 1),
                spread(1024, 16),
            ),
            (
                "kssp20k (power_law 0..=4, k=4)",
                gen::power_law(20_000, 2, uniform(4), 1),
                (0..4).map(|i| (i * 12_007 % 20_000) as NodeId).collect(),
            ),
            (
                "apsp384 (gnp 0..=9, directed)",
                gen::gnp_connected(384, 3.0 / 384.0, true, uniform(9), 1),
                (0..384).collect(),
            ),
        ];
        for (name, g0, mut sources) in instances {
            sources.sort_unstable();
            let t0 = Instant::now();
            let mut delta = g0.max_weight().max(1) * 8;
            let cold = loop {
                let (res, _, outcome) = k_ssp(&g0, sources.clone(), delta, EngineConfig::default());
                if outcome == RunOutcome::Quiet {
                    break res;
                }
                delta *= 2;
            };
            let (k, n) = (sources.len(), g0.n());
            eprintln!(
                "{name}: n={n} m={} k={k}, cold solve(s) {:.0} ms",
                g0.m(),
                t0.elapsed().as_secs_f64() * 1e3
            );
            for batch_size in [1usize, 8, 16, 64] {
                let mut g = g0.clone();
                let mut vt = VersionedTables {
                    generation: 0,
                    snap: TableSnapshot::from_result(&cold),
                };
                let mut rng = ChaCha8Rng::seed_from_u64(STREAM_SEED);
                let (mut rows, mut cells, mut walked) = (0, 0, 0);
                let mut phases: [Vec<f64>; 5] = Default::default();
                let batches = 16;
                for b in 0..batches {
                    let batch = gen_update_batch(&g, b, batch_size, g0.max_weight(), &mut rng);
                    let (restore, walk_all) = restore_us(&g, &vt.snap.tables, &batch.updates);
                    let t = Instant::now();
                    let (next, report) =
                        apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Alg1).unwrap();
                    let total = t.elapsed().as_secs_f64() * 1e6;
                    let (patch, solve) = (report.patch_micros as f64, report.solve_micros as f64);
                    for (col, v) in phases.iter_mut().zip([
                        patch,
                        restore,
                        walk_all,
                        (solve - restore).max(0.0),
                        total,
                    ]) {
                        col.push(v);
                    }
                    rows += report.recomputed;
                    cells += report.cells;
                    walked += report.walked;
                    vt = next;
                }
                let [patch, restore, walk_all, repair, total] = phases.map(median);
                eprintln!(
                    "  batch {batch_size:>2}: rows touched {:>5.1} %  cells touched {:>5.2} %  \
                     rows walked {:>5.1} %  µs/batch: patch {patch:>6.0}  restore {restore:>6.0} \
                     (walking every row {walk_all:>6.0})  repair {repair:>6.0}  total {total:>6.0} \
                     (medians of {batches})",
                    100.0 * rows as f64 / (batches as usize * k) as f64,
                    100.0 * cells as f64 / (batches as usize * k * n) as f64,
                    100.0 * walked as f64 / (batches as usize * k) as f64,
                );
            }
        }
    }
}
