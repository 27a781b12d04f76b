//! **dw-serve** — the query serving plane over precomputed shortest
//! paths (ROADMAP item 1).
//!
//! The paper's pipelined k-SSP/APSP algorithms compute per-source
//! distance tables; everything else in this workspace is about
//! computing them faster. This crate is about what a deployment does
//! *afterwards*: persist the tables once and answer point-to-point
//! distance/path queries at high QPS, long after the compute fleet is
//! gone.
//!
//! Architecture (DESIGN.md §13):
//!
//! ```text
//!  clients ──> gateway ──> shard 0  (sources [0, n/P))
//!              │  LRU  ──> shard 1  (sources [n/P, 2n/P))
//!              │ batch  ──> …
//!              └────────> shard P-1
//! ```
//!
//! * [`table`] — per-source distance + parent tables, persisted via the
//!   canonical [`dw_congest::WireCodec`] snapshot machinery;
//! * [`proto`] — the query wire protocol, framed exactly like the
//!   transport runtime's round traffic;
//! * [`server`] — shard workers answering batched lookups for their
//!   contiguous source block ([`dw_transport::shard::ShardMap`] reuse);
//! * [`gateway`] — stateless routing front end: per-shard batching
//!   (whatever parks during one shard round trip is the next frame; no
//!   timer), a bounded LRU of hot pairs, typed `ShardUnavailable`
//!   degradation on worker loss;
//! * [`client`] / [`loadgen`] — the synchronous client and the
//!   closed-loop Zipf/uniform load generator behind `dwapsp loadgen`
//!   and BENCH_7;
//! * [`metrics`] — route/batch/lookup/path-walk phase accounting,
//!   exported as [`dw_obs::Recording`] wall spans.

mod accept;
pub mod cache;
pub mod client;
pub mod gateway;
pub mod loadgen;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod table;
pub mod zipf;

pub use cache::{CachedAnswer, PathCache};
pub use client::ServeClient;
pub use gateway::{Gateway, GatewayConfig, CLIENT_WRITE_TIMEOUT};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use metrics::ServeStats;
pub use proto::{
    ApplyReport, ClientReply, ClientRequest, QueryBatch, QueryOutcome, QueryReply, QueryRequest,
    ReplyBatch, ShardFrame, ShardReply,
};
pub use server::{answer, answer_batch, serve_shard, shared_tables, ShardHandle, SharedTables};
pub use table::{
    RowPatch, SourceTable, TableDelta, TableSnapshot, VersionedTables, TABLE_MAGIC, TABLE_V2_MAGIC,
    TABLE_VERSION,
};
pub use zipf::Zipf;

use dw_graph::NodeId;
use dw_transport::shard::ShardMap;
use std::io;

/// Spawn a full loopback deployment — `shards` shard servers plus a
/// gateway — serving `snap` as generation 0. Returns the gateway (whose
/// `addr` clients connect to) and the shard handles (kill one to
/// exercise degraded mode). This is the in-process path used by `dwapsp
/// serve`, the smoke tests and the serve bench.
pub fn spawn_loopback(
    snap: &TableSnapshot,
    shards: usize,
    cfg: GatewayConfig,
) -> io::Result<(Gateway, Vec<ShardHandle>, ShardMap)> {
    spawn_loopback_versioned(
        &VersionedTables {
            generation: 0,
            snap: snap.clone(),
        },
        shards,
        cfg,
    )
}

/// As [`spawn_loopback`], but the tables carry a starting generation (a
/// `DWD1` file's): shards boot at it and the gateway only accepts
/// installs that beat it.
pub fn spawn_loopback_versioned(
    tables: &VersionedTables,
    shards: usize,
    mut cfg: GatewayConfig,
) -> io::Result<(Gateway, Vec<ShardHandle>, ShardMap)> {
    let map = ShardMap::new(tables.snap.n as usize, shards);
    let mut handles = Vec::with_capacity(map.shards());
    let mut addrs = Vec::with_capacity(map.shards());
    for s in 0..map.shards() {
        let h = ShardHandle::spawn_versioned(VersionedTables {
            generation: tables.generation,
            snap: tables.snap.for_shard(&map, s as NodeId),
        })?;
        addrs.push(h.addr);
        handles.push(h);
    }
    cfg.initial_generation = tables.generation;
    let gateway = Gateway::spawn(map.clone(), &addrs, cfg)?;
    Ok((gateway, handles, map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_graph::gen::{self, WeightDist};
    use dw_graph::INFINITY;
    use dw_seqref::dijkstra;
    use std::time::Duration;

    fn snapshot(n: u32, k: u32, seed: u64) -> (dw_graph::WGraph, TableSnapshot) {
        let g = gen::gnp(n as usize, 0.2, false, WeightDist::Uniform { max: 9 }, seed);
        let runs: Vec<_> = (0..k).map(|s| dijkstra(&g, s)).collect();
        let snap = TableSnapshot::from_sssp(&runs, n);
        (g, snap)
    }

    #[test]
    fn end_to_end_queries_match_the_oracle() {
        let (g, snap) = snapshot(30, 30, 42);
        let (mut gw, mut shards, _) = spawn_loopback(&snap, 3, GatewayConfig::default()).unwrap();
        let mut client = ServeClient::connect(gw.addr, Duration::from_secs(5)).unwrap();
        for src in 0..30u32 {
            let oracle = dijkstra(&g, src);
            for dst in 0..30u32 {
                let want = oracle.dist[dst as usize];
                match client.query(src, dst, (src + dst) % 2 == 0).unwrap() {
                    QueryOutcome::Dist { dist } => assert_eq!(dist, want, "{src}->{dst}"),
                    QueryOutcome::Path { dist, path } => {
                        assert_eq!(dist, want, "{src}->{dst}");
                        assert_eq!(path.first(), Some(&src));
                        assert_eq!(path.last(), Some(&dst));
                        let walked: u64 = path
                            .windows(2)
                            .map(|p| {
                                g.out_edges(p[0])
                                    .iter()
                                    .find(|&&(u, _)| u == p[1])
                                    .map(|&(_, w)| w)
                                    .expect("path edge exists")
                            })
                            .sum();
                        assert_eq!(walked, want, "{src}->{dst}");
                    }
                    QueryOutcome::Unreachable => assert_eq!(want, INFINITY, "{src}->{dst}"),
                    other => panic!("unexpected outcome {other:?} for {src}->{dst}"),
                }
            }
        }
        let stats = gw.stats();
        assert_eq!(stats.queries, 900);
        assert_eq!(stats.cache_hits + stats.cache_misses, 900);
        gw.shutdown();
        for s in &mut shards {
            s.stop();
        }
    }

    #[test]
    fn killed_shard_degrades_to_typed_unavailable() {
        let (_, snap) = snapshot(20, 20, 7);
        let (mut gw, mut shards, map) = spawn_loopback(&snap, 2, GatewayConfig::default()).unwrap();
        let mut client = ServeClient::connect(gw.addr, Duration::from_secs(5)).unwrap();

        // Warm: both shards answer.
        assert!(matches!(
            client.query(0, 5, false).unwrap(),
            QueryOutcome::Dist { .. } | QueryOutcome::Unreachable
        ));
        let hi_src = map.nodes(1).start;
        assert!(matches!(
            client.query(hi_src, 3, false).unwrap(),
            QueryOutcome::Dist { .. } | QueryOutcome::Unreachable
        ));

        // Kill shard 1; its block must fail typed, shard 0 keeps going.
        shards[1].stop();
        let mut saw_unavailable = false;
        for _ in 0..50 {
            match client.query(hi_src, 4, false).unwrap() {
                QueryOutcome::ShardUnavailable { shard, lo, hi } => {
                    assert_eq!(shard, 1);
                    assert_eq!(lo..hi, map.nodes(1));
                    saw_unavailable = true;
                    break;
                }
                // Cached answers and in-flight batches may still
                // succeed right after the kill; retry on a fresh pair.
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        assert!(saw_unavailable, "shard loss never surfaced as typed error");
        assert!(matches!(
            client.query(1, 6, false).unwrap(),
            QueryOutcome::Dist { .. } | QueryOutcome::Unreachable
        ));
        gw.shutdown();
        for s in &mut shards {
            s.stop();
        }
    }

    #[test]
    fn apply_tables_swaps_generations_end_to_end() {
        // Two graphs over the same nodes; the swap must atomically move
        // every answer (and the cache) from the first to the second.
        let (g0, snap0) = snapshot(24, 24, 11);
        let g1 = {
            let mut g = g0.clone();
            // Make a visible change: every existing edge gets heavier.
            let updates: Vec<dw_graph::EdgeUpdate> = g0
                .edges()
                .map(|e| dw_graph::EdgeUpdate::SetWeight {
                    src: e.src,
                    dst: e.dst,
                    w: e.w + 3,
                })
                .collect();
            g.apply_updates(&updates).unwrap();
            g
        };
        let runs: Vec<_> = (0..24).map(|s| dijkstra(&g1, s)).collect();
        let snap1 = TableSnapshot::from_sssp(&runs, 24);

        let (mut gw, mut shards, _) = spawn_loopback(&snap0, 2, GatewayConfig::default()).unwrap();
        let mut client = ServeClient::connect(gw.addr, Duration::from_secs(5)).unwrap();

        // Warm the cache on the old generation.
        let pre = client.query(0, 7, false).unwrap();
        assert_eq!(client.query(0, 7, false).unwrap(), pre);
        assert_eq!(gw.generation(), 0);

        // A non-advancing generation is rejected without touching shards.
        let report = client.apply_tables(0, &snap1).unwrap();
        assert!(!report.accepted);
        assert_eq!(report.generation, 0);

        let report = client.apply_tables(1, &snap1).unwrap();
        assert!(report.accepted, "swap failed: {report:?}");
        assert_eq!(report.generation, 1);
        assert_eq!(report.shards_installed, 2);
        assert_eq!(report.shards_down, 0);
        assert_eq!(gw.generation(), 1);

        // Every post-swap answer — including the previously cached pair
        // — must match the new oracle.
        for src in 0..24u32 {
            let oracle = dijkstra(&g1, src);
            for dst in 0..24u32 {
                let want = oracle.dist[dst as usize];
                match client.query(src, dst, false).unwrap() {
                    QueryOutcome::Dist { dist } => assert_eq!(dist, want, "{src}->{dst}"),
                    QueryOutcome::Unreachable => assert_eq!(want, INFINITY, "{src}->{dst}"),
                    other => panic!("unexpected outcome {other:?} for {src}->{dst}"),
                }
            }
        }
        gw.shutdown();
        for s in &mut shards {
            s.stop();
        }
    }

    #[test]
    fn versioned_boot_rejects_stale_installs() {
        let (_, snap) = snapshot(16, 16, 5);
        let tables = VersionedTables {
            generation: 4,
            snap: snap.clone(),
        };
        let (mut gw, mut shards, _) =
            spawn_loopback_versioned(&tables, 2, GatewayConfig::default()).unwrap();
        let mut client = ServeClient::connect(gw.addr, Duration::from_secs(5)).unwrap();
        assert_eq!(gw.generation(), 4);
        // Installing at or below the boot generation is refused.
        let report = client.apply_tables(4, &snap).unwrap();
        assert!(!report.accepted);
        assert_eq!(report.generation, 4);
        // Advancing works.
        let report = client.apply_tables(5, &snap).unwrap();
        assert!(report.accepted);
        assert_eq!(report.generation, 5);
        gw.shutdown();
        for s in &mut shards {
            s.stop();
        }
    }

    #[test]
    fn apply_with_a_dead_shard_installs_the_rest() {
        let (_, snap) = snapshot(20, 20, 13);
        let (mut gw, mut shards, map) = spawn_loopback(&snap, 2, GatewayConfig::default()).unwrap();
        let mut client = ServeClient::connect(gw.addr, Duration::from_secs(5)).unwrap();

        // Kill shard 1 and let the gateway notice (queries to its block
        // must surface the typed error first).
        shards[1].stop();
        let hi_src = map.nodes(1).start;
        let mut noticed = false;
        for _ in 0..100 {
            if matches!(
                client.query(hi_src, 1, false).unwrap(),
                QueryOutcome::ShardUnavailable { .. }
            ) {
                noticed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(noticed, "gateway never noticed the dead shard");

        // The swap lands on the surviving shard; the report says the
        // deployment is degraded, and the generation still advances so
        // live shards serve consistent (new) answers.
        let report = client.apply_tables(1, &snap).unwrap();
        assert!(!report.accepted, "a degraded swap must not claim success");
        assert_eq!(report.shards_installed, 1);
        assert_eq!(report.shards_down, 1);
        assert_eq!(report.generation, 1);
        assert_eq!(gw.generation(), 1);
        assert!(matches!(
            client.query(0, 3, false).unwrap(),
            QueryOutcome::Dist { .. } | QueryOutcome::Unreachable
        ));
        gw.shutdown();
        for s in &mut shards {
            s.stop();
        }
    }

    #[test]
    fn cache_serves_repeat_pairs() {
        let (_, snap) = snapshot(16, 16, 3);
        let (mut gw, mut shards, _) = spawn_loopback(&snap, 2, GatewayConfig::default()).unwrap();
        let mut client = ServeClient::connect(gw.addr, Duration::from_secs(5)).unwrap();
        for _ in 0..20 {
            let _ = client.query(2, 9, true).unwrap();
        }
        let stats = gw.stats();
        assert!(
            stats.cache_hits >= 19,
            "expected repeats to hit the cache, got {stats:?}"
        );
        gw.shutdown();
        for s in &mut shards {
            s.stop();
        }
    }
}
