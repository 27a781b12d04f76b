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
//!   closed-loop Zipf/uniform load generator behind `dwapsp loadgen`;
//! * [`deployment`] — the one bootstrap: shards plus gateway on
//!   loopback, with the kill / stall / restart hooks chaos runs script;
//! * [`metrics`] — route/batch/lookup/path-walk phase accounting,
//!   exported as [`dw_obs::Recording`] wall spans.

mod accept;
pub mod cache;
pub mod client;
pub mod deployment;
pub mod gateway;
pub mod loadgen;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod table;
pub mod zipf;

pub use accept::AcceptStop;
pub use cache::{CachedAnswer, PathCache};
pub use client::ServeClient;
pub use deployment::Deployment;
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

use dw_transport::shard::ShardMap;
use std::io;

/// [`Deployment::spawn`] as a `(gateway, shards, layout)` tuple, kept
/// for `benchmark/src/layers.rs`.
pub fn spawn_loopback(
    snap: &TableSnapshot,
    shards: usize,
    cfg: GatewayConfig,
) -> io::Result<(Gateway, Vec<ShardHandle>, ShardMap)> {
    let Deployment {
        gateway,
        map,
        shards,
        ..
    } = Deployment::spawn(snap, shards, cfg)?;
    Ok((gateway, shards, map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_congest::EngineConfig;
    use dw_graph::gen::{self, WeightDist};
    use dw_graph::{NodeId, INFINITY};
    use dw_seqref::{dijkstra, max_finite_distance};
    use std::time::{Duration, Instant};

    fn snapshot(n: u32, k: u32, seed: u64) -> (dw_graph::WGraph, TableSnapshot) {
        let g = gen::gnp(n as usize, 0.2, false, WeightDist::Uniform { max: 9 }, seed);
        let runs: Vec<_> = (0..k).map(|s| dijkstra(&g, s)).collect();
        let snap = TableSnapshot::from_sssp(&runs, n);
        (g, snap)
    }

    /// The compute-once / query-forever path: Algorithm 1's tables on a
    /// graph with zero-weight edges, through the file codec exactly as
    /// `dwapsp tables` writes and `dwapsp serve` reads them, then every
    /// pair asked both ways. Distances equal Dijkstra's; a path starts
    /// and ends where asked, walks real edges and sums to the distance.
    #[test]
    fn end_to_end_queries_match_the_oracle() {
        let g = gen::zero_heavy(36, 0.18, 0.4, 7, true, 1231);
        let n = g.n() as NodeId;
        let delta = max_finite_distance(&g).max(1);
        let (result, _, _) = dw_pipeline::apsp(&g, delta, EngineConfig::default());
        let bytes = TableSnapshot::from_result(&result).to_file_bytes();
        let snap = TableSnapshot::from_file_bytes(&bytes).unwrap();
        let d = Deployment::spawn(&snap, 3, GatewayConfig::default()).unwrap();
        let mut client = d.client().unwrap();
        for src in 0..n {
            let oracle = dijkstra(&g, src);
            for dst in 0..n {
                let want = oracle.dist[dst as usize];
                for want_path in [false, true] {
                    let got = client.query(src, dst, want_path).unwrap();
                    assert_eq!(got.distance(), Some(want), "{src}->{dst}");
                    let QueryOutcome::Path { path, .. } = got else {
                        assert!(!want_path || want == INFINITY, "{src}->{dst}: {got:?}");
                        continue;
                    };
                    assert_eq!((path.first(), path.last()), (Some(&src), Some(&dst)));
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
            }
        }
        let stats = d.gateway.stats();
        let asked = 2 * u64::from(n * n);
        assert_eq!(stats.queries, asked);
        assert_eq!(stats.cache_hits + stats.cache_misses, asked);
    }

    #[test]
    fn killed_shard_degrades_to_typed_unavailable() {
        let (g, snap) = snapshot(20, 20, 7);
        let mut d = Deployment::spawn(&snap, 2, GatewayConfig::default()).unwrap();
        let mut client = d.client().unwrap();
        let dist = |src: NodeId, dst: NodeId| Some(dijkstra(&g, src).dist[dst as usize]);

        // Warm: both shards answer.
        assert_eq!(client.query(0, 5, false).unwrap().distance(), dist(0, 5));
        let hi_src = d.map.nodes(1).start;
        assert_eq!(
            client.query(hi_src, 3, false).unwrap().distance(),
            dist(hi_src, 3)
        );

        // Kill shard 1; its block must fail typed within a deadline (not
        // hang), shard 0 keeps going.
        d.kill(1);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client.query(hi_src, 4, false).unwrap() {
                QueryOutcome::ShardUnavailable { shard, lo, hi } => {
                    assert_eq!((shard, lo..hi), (1, d.map.nodes(1)));
                    break;
                }
                // Cached answers and in-flight batches may still
                // succeed right after the kill; retry.
                _ => {
                    assert!(
                        Instant::now() < deadline,
                        "shard loss never surfaced as typed error"
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        assert_eq!(client.query(1, 6, false).unwrap().distance(), dist(1, 6));
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

        let d = Deployment::spawn(&snap0, 2, GatewayConfig::default()).unwrap();
        let mut client = d.client().unwrap();

        // Warm the cache on the old generation.
        let pre = client.query(0, 7, false).unwrap();
        assert_eq!(client.query(0, 7, false).unwrap(), pre);
        assert_eq!(d.gateway.generation(), 0);

        // A non-advancing generation is rejected without touching shards.
        let report = client.apply_tables(0, &snap1).unwrap();
        assert!(!report.accepted);
        assert_eq!(report.generation, 0);

        let report = client.apply_tables(1, &snap1).unwrap();
        assert!(report.accepted, "swap failed: {report:?}");
        assert_eq!(report.generation, 1);
        assert_eq!(report.shards_installed, 2);
        assert_eq!(report.shards_down, 0);
        assert_eq!(d.gateway.generation(), 1);

        // Every post-swap answer — including the previously cached pair
        // — must match the new oracle.
        for src in 0..24u32 {
            let oracle = dijkstra(&g1, src);
            for dst in 0..24u32 {
                let got = client.query(src, dst, false).unwrap();
                assert_eq!(
                    got.distance(),
                    Some(oracle.dist[dst as usize]),
                    "{src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn versioned_boot_rejects_stale_installs() {
        let (_, snap) = snapshot(16, 16, 5);
        let cfg = GatewayConfig {
            initial_generation: 4,
            ..GatewayConfig::default()
        };
        let d = Deployment::spawn(&snap, 2, cfg).unwrap();
        let mut client = d.client().unwrap();
        assert_eq!(d.gateway.generation(), 4);
        // Installing at or below the boot generation is refused.
        let report = client.apply_tables(4, &snap).unwrap();
        assert!(!report.accepted);
        assert_eq!(report.generation, 4);
        // Advancing works.
        let report = client.apply_tables(5, &snap).unwrap();
        assert!(report.accepted);
        assert_eq!(report.generation, 5);
    }

    #[test]
    fn apply_with_a_dead_shard_installs_the_rest() {
        let (_, snap) = snapshot(20, 20, 13);
        let mut d = Deployment::spawn(&snap, 2, GatewayConfig::default()).unwrap();
        let mut client = d.client().unwrap();

        // Kill shard 1 and let the gateway notice (queries to its block
        // must surface the typed error first).
        d.kill(1);
        let hi_src = d.map.nodes(1).start;
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
        assert_eq!(d.gateway.generation(), 1);
        assert!(client.query(0, 3, false).unwrap().distance().is_some());
    }

    #[test]
    fn cache_serves_repeat_pairs() {
        let (_, snap) = snapshot(16, 16, 3);
        let d = Deployment::spawn(&snap, 2, GatewayConfig::default()).unwrap();
        let mut client = d.client().unwrap();
        for _ in 0..20 {
            let _ = client.query(2, 9, true).unwrap();
        }
        let stats = d.gateway.stats();
        assert!(
            stats.cache_hits >= 19,
            "expected repeats to hit the cache, got {stats:?}"
        );
    }
}
