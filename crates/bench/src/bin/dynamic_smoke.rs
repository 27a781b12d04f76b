//! Dynamic-update smoke test (`make dynamic-smoke`): seeded update
//! batches against a **live** 2-shard deployment, end to end.
//!
//! 1. Compute APSP tables over a 6×6 grid with Algorithm 1, stand up 2
//!    shard servers plus the gateway on loopback (generation 0).
//! 2. Start a hammer thread that queries continuously throughout the
//!    run — every answer must be typed (never `ShardUnavailable`: a
//!    swap must not drop or degrade in-flight queries), and every
//!    answer for the probe pair must equal some *installed* generation's
//!    answer (old or new — never a mix, never a torn read).
//! 3. Apply 3 seeded update batches through the incremental engine
//!    (cell-level repair in the `(d, l, parent)` order) and push each
//!    generation through `ServeClient::apply_tables`; every swap must
//!    be accepted by the whole fleet and bump the gateway generation.
//!    The first push goes whole (the client holds no base yet); the
//!    second and third must be deltas (`ServeStats::installs_full`)
//!    whose bytes (`ServeStats::install_bytes`) are within a frame
//!    header, 9 B per changed row and 17 B per changed cell, and below
//!    the first push's.
//! 4. After the last swap, the final generation must pass
//!    `dw_seqref::verify_row` row by row and equal, cell for cell
//!    (distance and parent), both one sequential Dijkstra per source
//!    and a cold Algorithm-1 APSP on the patched graph, and a sweep of
//!    **all** n² pairs must answer every distance like those Dijkstra
//!    rows.
//!
//! Exit 0 on success, 1 on any violation.

use dw_congest::EngineConfig;
use dw_dynamic::{apply_update_batch, gen_update_batch, RecomputeEngine};
use dw_graph::gen::{self, WeightDist};
use dw_graph::{NodeId, INFINITY};
use dw_pipeline::apsp_auto;
use dw_seqref::{dijkstra, verify_row};
use dw_serve::{
    Deployment, GatewayConfig, QueryOutcome, ServeClient, TableSnapshot, VersionedTables,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn fail(msg: String) -> ! {
    eprintln!("dynamic_smoke: FAIL: {msg}");
    exit(1);
}

/// A delta's frame header (`n`, a base, the row count), per-row header
/// (tag, source, a length prefix) and largest cell (node, distance,
/// tagged parent), in bytes.
const DELTA_HEADER: u64 = 17;
const ROW_HEADER: u64 = 9;
const CELL_BYTES: u64 = 17;

/// Rows, and cells, whose `(dist, parent)` differ between two generations.
fn changed_rows_and_cells(old: &TableSnapshot, new: &TableSnapshot) -> (u64, u64) {
    let (mut rows, mut cells) = (0, 0);
    for (a, b) in old.tables.iter().zip(&new.tables) {
        let differing = (0..a.dist.len())
            .filter(|&v| (a.dist[v], a.parent[v]) != (b.dist[v], b.parent[v]))
            .count() as u64;
        rows += u64::from(differing > 0);
        cells += differing;
    }
    (rows, cells)
}

/// Queries the hammer must land between two swaps. A repair of this
/// graph takes less time than one query, so "the hammer runs
/// throughout" is made true by waiting for it, not assumed.
const HAMMER_QUERIES_PER_SWAP: u64 = 50;

/// Block until the hammer has landed `HAMMER_QUERIES_PER_SWAP` more
/// queries than it had when this was called.
fn let_the_hammer_run(landed: &AtomicU64) {
    let target = landed.load(Ordering::Relaxed) + HAMMER_QUERIES_PER_SWAP;
    let deadline = Instant::now() + Duration::from_secs(10);
    while landed.load(Ordering::Relaxed) < target {
        if Instant::now() > deadline {
            fail(format!(
                "hammer stalled at {} queries",
                landed.load(Ordering::Relaxed)
            ));
        }
        std::thread::yield_now();
    }
}

fn main() {
    let mut g = gen::grid2d(6, 6, WeightDist::Uniform { max: 9 }, 42);
    let n = g.n();
    let probe = (0u32, n as NodeId - 1);

    let (cold, _, _) = apsp_auto(&g, EngineConfig::default());
    let mut vt = VersionedTables {
        generation: 0,
        snap: TableSnapshot::from_result(&cold),
    };

    let d = Deployment::spawn(&vt.snap, 2, GatewayConfig::default())
        .unwrap_or_else(|e| fail(format!("cannot spawn deployment: {e}")));
    eprintln!(
        "dynamic_smoke: 2 shards + gateway up at {} (n={n})",
        d.gateway.addr
    );

    // Every distance the probe pair has legitimately had across the
    // installed generations; the hammer may observe any of them
    // mid-swap, but nothing else.
    let valid_probe: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    valid_probe
        .lock()
        .unwrap()
        .insert(dijkstra(&g, probe.0).dist[probe.1 as usize]);

    let stop = Arc::new(AtomicBool::new(false));
    let landed = Arc::new(AtomicU64::new(0));
    let hammer = {
        let stop = Arc::clone(&stop);
        let landed = Arc::clone(&landed);
        let valid_probe = Arc::clone(&valid_probe);
        let addr = d.gateway.addr;
        std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr, Duration::from_secs(5))
                .unwrap_or_else(|e| fail(format!("hammer cannot connect: {e}")));
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                // Mostly the probe pair (its valid-answer set is
                // tracked); a rotating pair keeps the other rows warm.
                let (src, dst) = if i.is_multiple_of(4) {
                    (i % n as u32, (i * 7 + 3) % n as u32)
                } else {
                    (probe.0, probe.1)
                };
                let outcome = client
                    .query(src, dst, false)
                    .unwrap_or_else(|e| fail(format!("hammer query failed: {e}")));
                if let QueryOutcome::ShardUnavailable { shard, .. } = outcome {
                    fail(format!(
                        "shard {shard} unavailable mid-swap (query {src}->{dst})"
                    ));
                }
                if (src, dst) == probe {
                    let key = outcome
                        .distance()
                        .unwrap_or_else(|| fail(format!("untyped probe answer {outcome:?}")));
                    if !valid_probe.lock().unwrap().contains(&key) {
                        fail(format!(
                            "probe {src}->{dst} answered {key}, not any installed generation"
                        ));
                    }
                }
                landed.fetch_add(1, Ordering::Relaxed);
                i = i.wrapping_add(1);
            }
        })
    };

    // Three seeded batches through the pipelined engine, each pushed
    // live. The new generation's probe answer becomes valid *before*
    // the push — mid-swap the hammer may see old or new, never a third
    // value.
    let mut push = d
        .client()
        .unwrap_or_else(|e| fail(format!("cannot connect: {e}")));
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut first_push_bytes = 0u64;
    for b in 0..3u64 {
        let batch = gen_update_batch(&g, b, 8, 9, &mut rng);
        let (next, report) = apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Alg1)
            .unwrap_or_else(|e| fail(format!("batch {b} rejected: {e}")));
        let changed = changed_rows_and_cells(&vt.snap, &next.snap);
        vt = next;
        valid_probe.lock().unwrap().insert(
            vt.snap
                .table_for(probe.0)
                .map_or(INFINITY, |t| t.dist[probe.1 as usize]),
        );
        let_the_hammer_run(&landed);
        let before = d.gateway.stats();
        let rep = push
            .apply_tables(vt.generation, &vt.snap)
            .unwrap_or_else(|e| fail(format!("apply {b} failed: {e}")));
        let after = d.gateway.stats();
        let (bytes, full) = (
            after.install_bytes - before.install_bytes,
            after.installs_full - before.installs_full,
        );
        if b == 0 {
            if full != 1 {
                fail(format!("push {b} was not a full install"));
            }
            first_push_bytes = bytes;
        } else {
            let (rows, cells) = changed;
            let bound = DELTA_HEADER + ROW_HEADER * rows + CELL_BYTES * cells;
            if full != 0 || bytes > bound || bytes >= first_push_bytes {
                fail(format!(
                    "push {b} not a delta of the changed cells: {bytes} bytes (full={full}), \
                     {cells} cells in {rows} rows changed (bound {bound}), first push \
                     {first_push_bytes}"
                ));
            }
        }
        if !rep.accepted || rep.shards_installed != 2 || rep.generation != vt.generation {
            fail(format!(
                "swap {b} not clean: accepted={} installed={} down={} generation={}",
                rep.accepted, rep.shards_installed, rep.shards_down, rep.generation
            ));
        }
        eprintln!(
            "dynamic_smoke: batch {b} -> generation {} swapped \
             (recomputed {}/{} rows, cells touched {} of {}, hop columns walked {}; \
             {} {bytes} install bytes)",
            rep.generation,
            report.recomputed,
            report.recomputed + report.reused,
            report.cells,
            n * n,
            report.walked,
            if full == 1 { "full," } else { "delta," }
        );
    }

    let_the_hammer_run(&landed);
    stop.store(true, Ordering::Relaxed);
    hammer.join().unwrap_or_else(|_| {
        fail("hammer thread panicked".to_string());
    });
    let hammered = landed.load(Ordering::Relaxed);

    // The repaired tables certify themselves, and are the ones a cold
    // solve would have written — by Dijkstra, and by Algorithm 1 as the
    // third witness.
    for t in &vt.snap.tables {
        if let Err(e) = verify_row(&g, t.source, &t.dist, &t.parent) {
            fail(format!("final generation is not canonical: {e}"));
        }
    }
    let oracle: Vec<_> = (0..n as u32).map(|s| dijkstra(&g, s)).collect();
    if vt.snap != TableSnapshot::from_sssp(&oracle, n as u32) {
        fail("final generation differs from Dijkstra's tables on the patched graph".into());
    }
    let (cold, _, _) = apsp_auto(&g, EngineConfig::default());
    if vt.snap != TableSnapshot::from_result(&cold) {
        fail("final generation differs from a cold Algorithm-1 APSP on the patched graph".into());
    }

    // Post-swap sweep: the live deployment must now answer exactly like
    // a fresh Dijkstra on the patched graph, for every pair.
    for (s, oracle) in (0..n as u32).zip(&oracle) {
        for v in 0..n as u32 {
            let outcome = push
                .query(s, v, false)
                .unwrap_or_else(|e| fail(format!("sweep query failed: {e}")));
            let want = oracle.dist[v as usize];
            if outcome.distance() != Some(want) {
                fail(format!(
                    "post-swap {s}->{v}: got {outcome:?}, oracle says {want}"
                ));
            }
        }
    }
    eprintln!(
        "dynamic_smoke: {hammered} mid-swap queries all typed and generation-consistent; \
         final generation is canonical and equals Dijkstra and a cold Algorithm-1 APSP cell \
         for cell; \
         {} post-swap answers match Dijkstra ✓",
        n * n
    );
    eprintln!("dynamic_smoke: ok");
}
