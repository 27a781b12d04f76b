//! Serving-plane smoke test (`make serve-smoke`): the full
//! compute-once / query-forever path on loopback, end to end.
//!
//! 1. Compute APSP tables with the paper's Algorithm 1 on the simulator
//!    and persist them through the snapshot codec (a byte round trip,
//!    exactly what `dwapsp tables` writes and `dwapsp serve` reads).
//! 2. Stand up 2 shard servers plus the gateway and fire ~1k mixed
//!    distance/path queries; **every** answer is checked against a
//!    sequential Dijkstra oracle — distances equal, returned paths walk
//!    real edges and sum to the reported distance.
//! 3. Kill one shard and require the typed degraded answer: queries for
//!    the dead shard's source block must come back `ShardUnavailable`
//!    (with the right block bounds) within a bounded deadline — not an
//!    error, and above all not a hang — while the surviving shard keeps
//!    answering correctly.
//!
//! Exit 0 on success, 1 on any violation.

use dw_congest::EngineConfig;
use dw_graph::gen;
use dw_graph::{NodeId, INFINITY};
use dw_pipeline::apsp;
use dw_seqref::{dijkstra, max_finite_distance};
use dw_serve::{spawn_loopback, GatewayConfig, QueryOutcome, ServeClient, TableSnapshot};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::process::exit;
use std::time::{Duration, Instant};

fn fail(msg: String) -> ! {
    eprintln!("serve_smoke: FAIL: {msg}");
    exit(1);
}

fn main() {
    let n = 36usize;
    let g = gen::zero_heavy(n, 0.18, 0.4, 7, true, 1231);
    let delta = max_finite_distance(&g).max(1);

    // Compute once (Algorithm 1, all sources), persist, re-read: the
    // tables the shards serve went through the file codec.
    let (result, stats, _) = apsp(&g, delta, EngineConfig::default());
    let bytes = TableSnapshot::from_result(&result).to_file_bytes();
    let snap = TableSnapshot::from_file_bytes(&bytes)
        .unwrap_or_else(|| fail("persisted snapshot failed to re-read".into()));
    eprintln!(
        "serve_smoke: tables computed in {} rounds, persisted {} bytes",
        stats.rounds,
        bytes.len()
    );

    let oracle: Vec<_> = (0..n as NodeId).map(|s| dijkstra(&g, s)).collect();
    let (mut gw, mut shards, map) = spawn_loopback(&snap, 2, GatewayConfig::default())
        .unwrap_or_else(|e| fail(format!("cannot spawn deployment: {e}")));
    let mut client = ServeClient::connect(gw.addr, Duration::from_secs(5))
        .unwrap_or_else(|e| fail(format!("cannot connect: {e}")));

    // ~1k mixed queries, every one checked against the oracle.
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let queries = 1000usize;
    for q in 0..queries {
        let src = rng.gen_range(0..n as NodeId);
        let dst = rng.gen_range(0..n as NodeId);
        let want_path = rng.gen_bool(0.5);
        let want = oracle[src as usize].dist[dst as usize];
        let got = client
            .query(src, dst, want_path)
            .unwrap_or_else(|e| fail(format!("query {q} ({src}->{dst}) errored: {e}")));
        match got {
            QueryOutcome::Dist { dist } if dist == want => {}
            QueryOutcome::Unreachable if want == INFINITY => {}
            QueryOutcome::Path { dist, path } if dist == want => {
                if path.first() != Some(&src) || path.last() != Some(&dst) {
                    fail(format!("path endpoints wrong for {src}->{dst}: {path:?}"));
                }
                let mut walked = 0u64;
                for pair in path.windows(2) {
                    match g.out_edges(pair[0]).iter().find(|&&(u, _)| u == pair[1]) {
                        Some(&(_, w)) => walked += w,
                        None => fail(format!(
                            "path for {src}->{dst} uses non-edge {}->{}",
                            pair[0], pair[1]
                        )),
                    }
                }
                if walked != want {
                    fail(format!(
                        "path weight for {src}->{dst}: walked {walked}, oracle {want}"
                    ));
                }
            }
            other => fail(format!(
                "query {src}->{dst} (want_path={want_path}): oracle {want}, got {other:?}"
            )),
        }
    }
    let st = gw.stats();
    eprintln!(
        "serve_smoke: {queries} queries verified against Dijkstra \
         (cache-hit-rate={:.2}, mean-batch={:.1})",
        st.cache_hit_rate(),
        st.mean_batch_size()
    );

    // Kill shard 1. Its block must degrade to the *typed* answer within
    // a bounded deadline; the deadline is what "not a hang" means here.
    shards[1].stop();
    let dead = map.nodes(1);
    let probe_src = dead.start;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if Instant::now() > deadline {
            fail("shard loss never surfaced as ShardUnavailable within 10s".into());
        }
        match client.query(probe_src, 1, false) {
            Ok(QueryOutcome::ShardUnavailable { shard, lo, hi }) => {
                if shard != 1 || (lo..hi) != dead {
                    fail(format!(
                        "degraded answer blames shard {shard} [{lo},{hi}), expected 1 {dead:?}"
                    ));
                }
                break;
            }
            // In-flight batches and the LRU may still answer right
            // after the kill; retry on the same pair until the typed
            // error surfaces.
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => fail(format!("degraded query errored instead of typing: {e}")),
        }
    }

    // The surviving shard keeps answering, and correctly.
    let live_src = 0;
    let want = oracle[live_src as usize].dist[5];
    match client.query(live_src, 5, false) {
        Ok(QueryOutcome::Dist { dist }) if dist == want => {}
        Ok(QueryOutcome::Unreachable) if want == INFINITY => {}
        other => fail(format!(
            "surviving shard misbehaved after peer loss: {other:?}"
        )),
    }
    eprintln!(
        "serve_smoke: shard 1 loss degraded to typed ShardUnavailable [{}, {}); shard 0 still serving ✓",
        dead.start, dead.end
    );

    gw.shutdown();
    for s in &mut shards {
        s.stop();
    }
    eprintln!("serve_smoke: ok");
}
