//! Serving-plane chaos (`make serve-chaos`): a scripted nemesis run
//! against a **live** 3-shard deployment under a mixed query +
//! table-swap stream (DESIGN.md §15).
//!
//! The script ([`SCRIPT`]) is indexed by *swap step*: before pushing
//! generation `r`, every nemesis scheduled at step `r` fires:
//!
//! * [`Nemesis::Stall`]`(s)` — a transient
//!   gateway↔shard network partition: shard `s` sits behind the
//!   deployment's byte relay, which *stalls* its link (never closes,
//!   never drops) for [`CUT_MS`] while queries and the swap keep flowing
//!   ([`Deployment::stall`]). Healing inside
//!   `shard_timeout` means the gateway must ride it out: zero
//!   `ShardUnavailable`, the mid-cut swap lands, and recovery latency is
//!   measured from the heal instant to the shard's next answered probe.
//! * [`Nemesis::Kill`]`(s)` — shard `s`'s process stops. Its block must
//!   degrade to the *typed* `ShardUnavailable` within the detection
//!   budget (no hang past `shard_timeout`), live shards keep answering,
//!   and the swap pushed while degraded reports itself honestly
//!   (`accepted: false`, the generation still advancing for the
//!   survivors). The push after it (step 3, no nemesis) must reach the
//!   survivors as a delta on the degraded swap's generation, not a full
//!   install: a dead shard leaves the fleet generation the survivors
//!   hold.
//!
//! Generation fencing is asserted two ways: during a swap every probe
//! answer must equal an *installed* generation's value (old or new,
//! never a third), and after `apply_tables` returns accepted, probes
//! must answer **exactly** the newest generation — a stale-generation
//! answer after the fence is a failure. The run ends with a full sweep
//! of the surviving blocks against sequential Dijkstra on the final
//! graph.
//!
//! Prints one E21 row per nemesis (recovery/detection latency and
//! degradation shape). Exit 0 on success, 1 on any violation.

use dw_graph::gen::{self, WeightDist};
use dw_graph::{EdgeUpdate, NodeId, INFINITY};
use dw_seqref::{dijkstra, verify_row};
use dw_serve::{Deployment, GatewayConfig, QueryOutcome, ServeClient, TableSnapshot};
use std::collections::HashSet;
use std::net::TcpListener;
use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a scripted transient partition stalls the relayed link.
const CUT_MS: u64 = 300;
/// Gateway `shard_timeout`: a transient cut must fit well inside it, a
/// killed shard must be detected within a small multiple of it.
const SHARD_TIMEOUT: Duration = Duration::from_millis(1500);
/// No query, under any scripted nemesis, may take longer than this.
const MAX_QUERY_LATENCY: Duration = Duration::from_secs(5);

/// One serving-plane nemesis, by shard id.
#[derive(Debug, Clone, Copy)]
enum Nemesis {
    /// Stall the gateway<->shard relay for [`CUT_MS`], then heal.
    Stall(usize),
    /// Stop the shard's process for good.
    Kill(usize),
}

/// `(swap step, nemesis)`: swap 1 rides out a transient gateway<->shard-1
/// partition; swap 2 happens with shard 2 freshly killed; swap 3
/// follows on the survivors.
const SCRIPT: [(u64, Nemesis); 2] = [(1, Nemesis::Stall(1)), (2, Nemesis::Kill(2))];

fn fail(msg: String) -> ! {
    eprintln!("serve_chaos: FAIL: {msg}");
    exit(1);
}

fn snapshot_for(g: &dw_graph::WGraph) -> TableSnapshot {
    let runs: Vec<_> = (0..g.n() as u32).map(|s| dijkstra(g, s)).collect();
    TableSnapshot::from_sssp(&runs, g.n() as u32)
}

fn expected(snap: &TableSnapshot, (s, d): (NodeId, NodeId)) -> u64 {
    snap.table_for(s).map_or(INFINITY, |t| t.dist[d as usize])
}

fn main() {
    let mut g = gen::grid2d(6, 6, WeightDist::Uniform { max: 9 }, 42);
    let n = g.n();
    let shards = 3usize;

    let mut snap = snapshot_for(&g);
    let mut generation = 0u64;

    // The shards the script stalls sit behind the stallable relay; the
    // rest are dialled directly.
    let stallable: Vec<usize> = SCRIPT
        .iter()
        .filter_map(|&(_, nemesis)| match nemesis {
            Nemesis::Stall(s) => Some(s),
            Nemesis::Kill(_) => None,
        })
        .collect();
    let cfg = GatewayConfig {
        shard_timeout: SHARD_TIMEOUT,
        ..GatewayConfig::default()
    };
    let mut d = TcpListener::bind(("127.0.0.1", 0))
        .and_then(|l| Deployment::spawn_on(l, &snap, shards, cfg, &stallable))
        .unwrap_or_else(|e| fail(format!("cannot spawn deployment: {e}")));
    let map = d.map.clone();
    eprintln!(
        "serve_chaos: 3 shards (stallable {stallable:?}) + gateway up at {} (n={n})",
        d.gateway.addr
    );

    // One probe pair per shard block; every answer the pair has had
    // across installed generations is valid mid-swap, nothing else.
    let probes: Vec<(NodeId, NodeId)> = (0..shards)
        .map(|s| (map.nodes(s as NodeId).start, n as NodeId - 1))
        .collect();
    let valid: Vec<Arc<Mutex<HashSet<u64>>>> = probes
        .iter()
        .map(|&p| Arc::new(Mutex::new(HashSet::from([expected(&snap, p)]))))
        .collect();

    // `u64::MAX` = shard 2 still alive; otherwise the kill instant
    // (nanos since start) — hammer answers for its block may then be
    // ShardUnavailable.
    let t0 = Instant::now();
    let killed_at = Arc::new(AtomicU64::new(u64::MAX));
    let stop = Arc::new(AtomicBool::new(false));

    let hammer = {
        let stop = Arc::clone(&stop);
        let killed_at = Arc::clone(&killed_at);
        let valid: Vec<_> = valid.iter().map(Arc::clone).collect();
        let probes = probes.clone();
        let addr = d.gateway.addr;
        std::thread::spawn(move || -> (u64, Duration) {
            let mut client = ServeClient::connect(addr, Duration::from_secs(5))
                .unwrap_or_else(|e| fail(format!("hammer cannot connect: {e}")));
            let mut queries = 0u64;
            let mut max_latency = Duration::ZERO;
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let (src, dst) = probes[i % probes.len()];
                let q0 = Instant::now();
                let outcome = client
                    .query(src, dst, false)
                    .unwrap_or_else(|e| fail(format!("hammer query failed: {e}")));
                max_latency = max_latency.max(q0.elapsed());
                match &outcome {
                    QueryOutcome::ShardUnavailable { shard, .. } => {
                        let s = *shard as usize;
                        if s != 2 || killed_at.load(Ordering::Relaxed) == u64::MAX {
                            fail(format!(
                                "shard {s} unavailable without a scripted kill \
                                 (query {src}->{dst})"
                            ));
                        }
                    }
                    _ => {
                        let key = outcome
                            .distance()
                            .unwrap_or_else(|| fail(format!("untyped answer {outcome:?}")));
                        if !valid[i % probes.len()].lock().unwrap().contains(&key) {
                            fail(format!(
                                "probe {src}->{dst} answered {key}: no installed \
                                 generation ever had that value"
                            ));
                        }
                    }
                }
                queries += 1;
                i += 1;
            }
            (queries, max_latency)
        })
    };

    let connect = || {
        d.client()
            .unwrap_or_else(|e| fail(format!("cannot connect: {e}")))
    };
    let (mut push, mut probe_client) = (connect(), connect());

    for step in 1..=3u64 {
        // Recompute the next generation's tables on a visibly changed
        // graph (every edge +3: probe distances strictly increase, so
        // generations are distinguishable by value); step 3 moves one
        // edge, which a delta carries in a few cells.
        let updates: Vec<EdgeUpdate> = g
            .edges()
            .take(if step == 3 { 1 } else { usize::MAX })
            .map(|e| EdgeUpdate::SetWeight {
                src: e.src,
                dst: e.dst,
                w: e.w + 3,
            })
            .collect();
        g.apply_updates(&updates)
            .unwrap_or_else(|e| fail(format!("cannot patch graph: {e}")));
        snap = snapshot_for(&g);
        generation += 1;
        for (p, v) in probes.iter().zip(&valid) {
            v.lock().unwrap().insert(expected(&snap, *p));
        }

        // Fire this step's scripted nemeses.
        let mut healing = None;
        let mut kill_detect_ms: Option<u128> = None;
        for &(at, nemesis) in &SCRIPT {
            if at != step {
                continue;
            }
            match nemesis {
                Nemesis::Stall(s) => {
                    eprintln!(
                        "serve_chaos: step {step}: partitioning gateway<->shard {s} \
                         for {CUT_MS}ms (timeout {SHARD_TIMEOUT:?})"
                    );
                    healing = Some(
                        d.stall(s, Duration::from_millis(CUT_MS))
                            .unwrap_or_else(|e| fail(format!("cannot stall shard {s}: {e}"))),
                    );
                }
                Nemesis::Kill(s) => {
                    eprintln!("serve_chaos: step {step}: killing shard {s}");
                    d.kill(s);
                    killed_at.store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    // Detection: the block must surface the *typed*
                    // error, within a small multiple of shard_timeout.
                    // Rotate the destination so every attempt is a
                    // cache miss — a hot pair is (correctly) served
                    // from the gateway cache without touching the dead
                    // shard, which is availability, not detection.
                    let k0 = Instant::now();
                    let (src, _) = probes[s];
                    let mut dst_rot = 0u32;
                    loop {
                        let dst = dst_rot % n as u32;
                        dst_rot += 1;
                        match probe_client
                            .query(src, dst, false)
                            .unwrap_or_else(|e| fail(format!("detect query failed: {e}")))
                        {
                            QueryOutcome::ShardUnavailable { shard, lo, hi } => {
                                if (shard as usize, lo..hi) != (s, map.nodes(s as NodeId)) {
                                    fail(format!(
                                        "wrong degradation shape: shard={shard} {lo}..{hi}"
                                    ));
                                }
                                break;
                            }
                            _ if k0.elapsed() > 2 * SHARD_TIMEOUT + Duration::from_secs(3) => {
                                fail(format!(
                                    "shard {s} loss not detected within {:?}",
                                    k0.elapsed()
                                ));
                            }
                            _ => std::thread::sleep(Duration::from_millis(10)),
                        }
                    }
                    kill_detect_ms = Some(k0.elapsed().as_millis());
                }
            }
        }

        // Push the swap through whatever the nemesis left standing.
        let installs_full = d.gateway.stats().installs_full;
        let rep = push
            .apply_tables(generation, &snap)
            .unwrap_or_else(|e| fail(format!("apply {generation} failed: {e}")));
        if rep.generation != generation {
            fail(format!(
                "swap {generation} did not advance the fleet: {rep:?}"
            ));
        }
        match (healing.as_ref(), kill_detect_ms) {
            (Some(_), None) => {
                // Transient partition: the mid-cut swap must land on the
                // full fleet — the cut healed inside shard_timeout.
                if !rep.accepted || rep.shards_installed != 3 || rep.shards_down != 0 {
                    fail(format!("swap through a healed cut not clean: {rep:?}"));
                }
            }
            (None, Some(_)) => {
                // Killed shard: the swap must report the degradation
                // honestly while the survivors advance.
                if rep.accepted || rep.shards_installed != 2 || rep.shards_down != 1 {
                    fail(format!("degraded swap misreported: {rep:?}"));
                }
            }
            (None, None) if step == 3 => {
                // After the degraded swap: still degraded, and the
                // survivors get a delta, not a full install.
                if rep.accepted || rep.shards_installed != 2 || rep.shards_down != 1 {
                    fail(format!("post-kill swap misreported: {rep:?}"));
                }
                if rep.full || d.gateway.stats().installs_full != installs_full {
                    fail(format!(
                        "post-kill swap went whole, not as a delta: {rep:?}"
                    ));
                }
                eprintln!(
                    "serve_chaos: step 3: post-kill push reached the survivors as a \
                     {}-byte delta",
                    rep.install_bytes
                );
            }
            _ => fail(format!("step {step} scripted exactly one nemesis")),
        }

        // Generation fence: from here on, probes on live blocks must
        // answer *exactly* the newest generation — a stale answer after
        // an acknowledged swap is a fencing bug.
        let live: &[usize] = if killed_at.load(Ordering::Relaxed) != u64::MAX {
            &[0, 1]
        } else {
            &[0, 1, 2]
        };
        for &s in live {
            let (src, dst) = probes[s];
            let want = expected(&snap, (src, dst));
            match probe_client
                .query(src, dst, false)
                .unwrap_or_else(|e| fail(format!("fence probe failed: {e}")))
            {
                o if o.distance() == Some(want) => {}
                other => fail(format!(
                    "stale answer after accepted swap {generation}: \
                     {src}->{dst} = {other:?}, newest generation says {want}"
                )),
            }
        }

        // E21 row: recovery latency + degradation shape per nemesis.
        if let Some(healing) = healing {
            let healed = healing
                .join()
                .unwrap_or_else(|_| fail("heal thread panicked".to_string()));
            let (src, dst) = probes[1];
            let want = expected(&snap, (src, dst));
            let recovery = loop {
                match probe_client
                    .query(src, dst, false)
                    .unwrap_or_else(|e| fail(format!("recovery probe failed: {e}")))
                {
                    o if o.distance() == Some(want) => break healed.elapsed(),
                    QueryOutcome::ShardUnavailable { .. } => {
                        fail("healed partition degraded to ShardUnavailable".to_string())
                    }
                    _ => std::thread::sleep(Duration::from_millis(5)),
                }
            };
            eprintln!(
                "serve_chaos: E21 nemesis=transient-partition shard=1 cut_ms={CUT_MS} \
                 recovery_ms={} degradation=none swap=accepted gen={generation}",
                recovery.as_millis()
            );
        }
        if let Some(detect) = kill_detect_ms {
            let b = map.nodes(2);
            eprintln!(
                "serve_chaos: E21 nemesis=shard-kill shard=2 detect_ms={detect} \
                 degradation=ShardUnavailable({}..{}) swap=degraded(installed=2,down=1) \
                 gen={generation}",
                b.start, b.end
            );
        }
    }

    stop.store(true, Ordering::Relaxed);
    let (hammered, max_latency) = hammer
        .join()
        .unwrap_or_else(|_| fail("hammer thread panicked".to_string()));
    if hammered < 100 {
        fail(format!("hammer only landed {hammered} queries"));
    }
    if max_latency > MAX_QUERY_LATENCY {
        fail(format!(
            "a query hung {max_latency:?} (budget {MAX_QUERY_LATENCY:?})"
        ));
    }

    // The newest generation certifies itself: the local check shares
    // no code with the Dijkstra that built it.
    for t in &snap.tables {
        if let Err(e) = verify_row(&g, t.source, &t.dist, &t.parent) {
            fail(format!("final generation is not canonical: {e}"));
        }
    }

    // Final sweep: the surviving blocks answer exactly the newest
    // generation (fresh Dijkstra on the patched graph); the killed
    // block stays typed-unavailable.
    for s in [0usize, 1] {
        for src in map.nodes(s as NodeId) {
            let oracle = dijkstra(&g, src);
            for dst in 0..n as u32 {
                let want = oracle.dist[dst as usize];
                let got = probe_client
                    .query(src, dst, false)
                    .unwrap_or_else(|e| fail(format!("sweep query failed: {e}")));
                if got.distance() != Some(want) {
                    fail(format!(
                        "post-chaos {src}->{dst}: got {got:?}, oracle says {want}"
                    ));
                }
            }
        }
    }
    match probe_client
        .query(map.nodes(2).start, 0, false)
        .unwrap_or_else(|e| fail(format!("dead-block query failed: {e}")))
    {
        QueryOutcome::ShardUnavailable { shard: 2, .. } => {}
        other => fail(format!("dead block answered {other:?}")),
    }

    eprintln!(
        "serve_chaos: {hammered} mid-nemesis queries all typed and \
         generation-consistent (max latency {max_latency:?}); surviving \
         blocks sweep clean vs Dijkstra ✓"
    );
    eprintln!("serve_chaos: ok");
}
