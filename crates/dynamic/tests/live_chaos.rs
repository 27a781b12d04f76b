//! Serving-plane chaos (`make serve-chaos`, DESIGN.md §15): a **live**
//! 3-shard loopback deployment under a hammer and three table swaps,
//! with a nemesis before the first two.
//!
//! * Swap 1 rides out a transient partition: shard 1's link stalls for
//!   [`CUT_MS`], inside the gateway's `shard_timeout`. No query may come
//!   back `ShardUnavailable`, and the swap must land on all 3 shards.
//! * Swap 2 follows a kill of shard 2. Its block may answer
//!   `ShardUnavailable` from then on; the others keep answering.
//! * Swap 3 must reach the survivors as a delta on swap 2's generation,
//!   not whole: a dead shard leaves the survivors on the fleet's base.
//!
//! After each swap, every live probe answers exactly the newest
//! generation, and the run ends with the surviving blocks answering
//! like Dijkstra. Prints one E21 row per nemesis.
//!
//! Covered elsewhere and not asserted here: a stalled link holds, not
//! drops, the answer (dw-serve's `a_stalled_link_holds_the_answer_until_it_heals`);
//! a killed shard's block fails typed with its own range, and a swap
//! with a dead shard reports itself degraded
//! (`killed_shard_degrades_to_typed_unavailable`,
//! `apply_with_a_dead_shard_installs_the_rest`).

mod common;

use common::{answer, assert_answers_like_dijkstra, Hammer};
use dw_graph::gen::{self, WeightDist};
use dw_graph::{EdgeUpdate, NodeId, WGraph};
use dw_seqref::dijkstra;
use dw_serve::{Deployment, GatewayConfig, QueryOutcome, TableSnapshot};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// How long the transient partition stalls shard 1's link.
const CUT_MS: u64 = 300;
/// The gateway's `shard_timeout`: the cut fits well inside it.
const SHARD_TIMEOUT: Duration = Duration::from_millis(1500);
/// No query, under either nemesis, may take longer than this.
const MAX_QUERY_LATENCY: Duration = Duration::from_secs(5);

fn snapshot_for(g: &WGraph) -> TableSnapshot {
    let runs: Vec<_> = g.nodes().map(|s| dijkstra(g, s)).collect();
    TableSnapshot::from_sssp(&runs, g.n() as u32)
}

#[test]
#[ignore = "a live loopback deployment under a stall and a kill; run by `make serve-chaos`"]
fn a_live_deployment_rides_out_a_stall_and_a_kill_without_a_stale_answer() {
    let mut g = gen::grid2d(6, 6, WeightDist::Uniform { max: 9 }, 42);
    let n = g.n() as NodeId;
    let mut snap = snapshot_for(&g);
    let cfg = GatewayConfig {
        shard_timeout: SHARD_TIMEOUT,
        ..GatewayConfig::default()
    };
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let mut d = Deployment::spawn_on(listener, &snap, 3, cfg, &[1]).unwrap();
    let map = d.map.clone();
    let probes: Vec<_> = (0..3).map(|s| (map.nodes(s).start, n - 1)).collect();
    let mut hammer = Hammer::start(d.gateway.addr, probes.clone(), &snap);
    let (mut push, mut probe) = (d.client().unwrap(), d.client().unwrap());

    for generation in 1..=3u64 {
        // Every edge +3 makes each generation's probe answers new
        // values; swap 3 moves one edge, which a delta carries.
        let updates: Vec<EdgeUpdate> = g
            .edges()
            .take(if generation == 3 { 1 } else { usize::MAX })
            .map(|e| EdgeUpdate::SetWeight {
                src: e.src,
                dst: e.dst,
                w: e.w + 3,
            })
            .collect();
        g.apply_updates(&updates).unwrap();
        snap = snapshot_for(&g);
        hammer.allow(&snap);
        hammer.let_run();

        let healing = (generation == 1).then(|| {
            d.stall(1, Duration::from_millis(CUT_MS))
                .expect("shard 1 is stallable")
        });
        let detected = (generation == 2).then(|| {
            hammer.allow_down(2);
            d.kill(2);
            // Rotate the destination so every try misses the cache.
            let (killed, src) = (Instant::now(), probes[2].0);
            for dst in (0..n).cycle() {
                let got = probe.query(src, dst, false).unwrap();
                if matches!(got, QueryOutcome::ShardUnavailable { .. }) {
                    break;
                }
                assert!(killed.elapsed() < 2 * SHARD_TIMEOUT + Duration::from_secs(3));
                std::thread::sleep(Duration::from_millis(10));
            }
            killed.elapsed()
        });

        let installs_full = d.gateway.stats().installs_full;
        let rep = push.apply_tables(generation, &snap).unwrap();
        let healed = healing.map(|h| h.join().unwrap());
        if generation == 1 {
            assert!(rep.accepted && rep.shards_installed == 3, "{rep:?}");
        }
        if generation == 3 {
            assert!(!rep.full, "{rep:?}");
            assert_eq!(d.gateway.stats().installs_full, installs_full);
            eprintln!(
                "live_chaos: post-kill push reached the survivors as a {}-byte delta",
                rep.install_bytes
            );
        }

        // The fence: once the swap is acknowledged, a live block answers
        // the newest generation, never an older one.
        let live = if generation == 1 { 3 } else { 2 };
        for &p in &probes[..live] {
            let got = probe.query(p.0, p.1, false).unwrap();
            assert_eq!(got.distance(), Some(answer(&snap, p)), "{p:?} after swap");
        }
        if let Some(healed) = healed {
            eprintln!(
                "live_chaos: E21 nemesis=transient-partition shard=1 cut_ms={CUT_MS} \
                 recovery_ms={} degradation=none swap=accepted(installed={}) gen={generation}",
                healed.elapsed().as_millis(),
                rep.shards_installed
            );
        }
        if let Some(detect) = detected {
            let b = map.nodes(2);
            eprintln!(
                "live_chaos: E21 nemesis=shard-kill shard=2 detect_ms={} \
                 degradation=ShardUnavailable({}..{}) swap=accepted:{}(installed={},down={}) \
                 gen={generation}",
                detect.as_millis(),
                b.start,
                b.end,
                rep.accepted,
                rep.shards_installed,
                rep.shards_down
            );
        }
    }

    let (landed, slowest) = hammer.stop();
    assert!(slowest <= MAX_QUERY_LATENCY, "a query hung {slowest:?}");
    assert_answers_like_dijkstra(&mut probe, &g, map.nodes(0).start..map.nodes(1).end);
    eprintln!("live_chaos: {landed} mid-nemesis queries typed and generation-consistent");
}
