//! The gateway's hot-path contract (DESIGN.md §13), driven from outside:
//! batching without a timer, replies written by the thread that holds
//! them, reads that never lose half a frame, and a shutdown that waits
//! neither for clients to leave nor on a clock, on any listen address.
//!
//! Where a test needs the shard to be slow it talks to a [`FakeShard`]:
//! a scripted peer that reports every frame it receives and answers it
//! only when told to, so the interleaving under test is forced, not
//! slept for. `make serve-conformance` runs this file in `--release` on
//! one test thread.
//!
//! The install half (DESIGN.md §14, "Atomic swap"): each shard is sent
//! only its rows of a delta, every shard moves generation, a delta on a
//! base the gateway cannot vouch for never fans out, a shard on the
//! wrong base installs nothing, and a probe never sees a half-applied
//! generation.

use dw_graph::{NodeId, INFINITY};
use dw_serve::{
    ApplyReport, ClientReply, ClientRequest, Deployment, Gateway, GatewayConfig, QueryOutcome,
    QueryReply, QueryRequest, ReplyBatch, RowPatch, ServeClient, ShardFrame, ShardHandle,
    ShardReply, SourceTable, TableDelta, TableSnapshot, VersionedTables, CLIENT_WRITE_TIMEOUT,
};
use dw_transport::shard::ShardMap;
use dw_transport::wire::{read_frame, write_frame};
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const PATIENCE: Duration = Duration::from_secs(10);

/// The distance a [`FakeShard`] answers with, so a reply that reached
/// the wrong query shows.
fn fake_dist(src: NodeId, dst: NodeId) -> u64 {
    1000 * src as u64 + dst as u64
}

/// A scripted shard: serves one connection (the gateway's dispatcher),
/// hands each received frame to the test, and answers it after the test
/// says `go`. It holds no tables, only a generation, which an install
/// moves by the real shard's rule: strictly newer, and full or based on
/// exactly the live generation.
struct FakeShard {
    addr: SocketAddr,
    frames: Receiver<ShardFrame>,
    go: Sender<()>,
    /// The live generation; a test may move it behind the gateway's back.
    live: Arc<AtomicU64>,
    thread: JoinHandle<()>,
}

impl FakeShard {
    fn spawn() -> FakeShard {
        FakeShard::spawn_mangling(|_| {})
    }

    /// As [`FakeShard::spawn`], with `mangle` let loose on every reply
    /// batch before it is sent: the shard bug of the test's choice.
    fn spawn_mangling(mangle: fn(&mut Vec<QueryReply>)) -> FakeShard {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let (frames_tx, frames) = channel();
        let (go, go_rx) = channel::<()>();
        let live = Arc::new(AtomicU64::new(0));
        let held = Arc::clone(&live);
        let thread = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut scratch = Vec::new();
            while let Ok(Some(frame)) = read_frame::<_, ShardFrame>(&mut conn) {
                // Answered after `go`, so a test can move `live` first.
                if frames_tx.send(frame.clone()).is_err() || go_rx.recv().is_err() {
                    return;
                }
                let reply = match frame {
                    ShardFrame::Queries(batch) => {
                        let mut replies = batch
                            .queries
                            .iter()
                            .map(|q| QueryReply {
                                id: q.id,
                                outcome: QueryOutcome::Dist {
                                    dist: fake_dist(q.src, q.dst),
                                },
                            })
                            .collect();
                        mangle(&mut replies);
                        ShardReply::Replies(ReplyBatch {
                            seq: batch.seq,
                            replies,
                            lookup_ns: 0,
                            walk_ns: 0,
                        })
                    }
                    ShardFrame::Install { generation, delta } => {
                        let live = held.load(Ordering::SeqCst);
                        if generation > live && delta.base.is_none_or(|b| b == live) {
                            held.store(generation, Ordering::SeqCst);
                        }
                        ShardReply::Installed {
                            generation: held.load(Ordering::SeqCst),
                        }
                    }
                };
                if write_frame(&mut conn, &reply, &mut scratch).is_err() {
                    return;
                }
            }
        });
        FakeShard {
            addr,
            frames,
            go,
            live,
            thread,
        }
    }

    fn next_frame(&self) -> ShardFrame {
        self.frames
            .recv_timeout(PATIENCE)
            .expect("the gateway sent the shard a frame")
    }

    fn release(&self) {
        self.go.send(()).unwrap();
    }

    /// The next frame, which must be an install; answered at once.
    fn next_install(&self) -> (u64, TableDelta) {
        let frame = self.next_frame();
        self.release();
        match frame {
            ShardFrame::Install { generation, delta } => (generation, delta),
            ShardFrame::Queries(batch) => panic!("expected an install, got {batch:?}"),
        }
    }

    /// The gateway has gone: the served connection ends and the thread
    /// with it.
    fn join(self) {
        drop(self.go);
        self.thread.join().unwrap();
    }
}

/// A pipelining client: writes requests without waiting for replies.
struct RawClient {
    stream: TcpStream,
    scratch: Vec<u8>,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> RawClient {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(PATIENCE)).unwrap();
        RawClient {
            stream,
            scratch: Vec::new(),
        }
    }

    fn ask(&mut self, id: u64, src: NodeId, dst: NodeId, want_path: bool) {
        let req = ClientRequest::Query(QueryRequest {
            id,
            src,
            dst,
            want_path,
        });
        write_frame(&mut self.stream, &req, &mut self.scratch).unwrap();
    }

    fn next_reply(&mut self) -> QueryReply {
        match read_frame::<_, ClientReply>(&mut self.stream).unwrap() {
            Some(ClientReply::Query(reply)) => reply,
            other => panic!("expected a query reply, got {other:?}"),
        }
    }
}

fn queries_of(frame: ShardFrame) -> Vec<(NodeId, NodeId)> {
    match frame {
        ShardFrame::Queries(batch) => batch.queries.iter().map(|q| (q.src, q.dst)).collect(),
        ShardFrame::Install { generation, .. } => {
            panic!("expected a query batch, got the install of generation {generation}")
        }
    }
}

/// A row for every source of `0..n`, each cell `fake_dist` plus `bump`.
fn all_rows(n: u32, bump: u64) -> TableSnapshot {
    TableSnapshot {
        n,
        tables: (0..n)
            .map(|s| {
                Arc::new(SourceTable::new(
                    s,
                    (0..n).map(|v| fake_dist(s, v) + bump).collect(),
                    (0..n).map(|v| (v != s).then_some(s)).collect(),
                ))
            })
            .collect(),
    }
}

/// `snap` with cell `(source, v)` set to `dist`.
fn with_cell(snap: &TableSnapshot, source: NodeId, v: NodeId, dist: u64) -> TableSnapshot {
    let mut next = snap.clone();
    let i = next.tables.iter().position(|t| t.source == source).unwrap();
    Arc::make_mut(&mut next.tables[i]).dist[v as usize] = dist;
    next
}

fn sources_of(delta: &TableDelta) -> Vec<NodeId> {
    delta.rows.iter().map(RowPatch::source).collect()
}

/// One source row over a path `0 - 1 - … - n-1`: the answer to
/// `(0, n-1, want_path)` carries all `n` nodes, which is what makes a
/// reply big.
fn path_snapshot(n: u32) -> TableSnapshot {
    TableSnapshot {
        n,
        tables: vec![Arc::new(SourceTable::new(
            0,
            (0..n as u64).collect(),
            (0..n).map(|v| v.checked_sub(1)).collect(),
        ))],
    }
}

#[test]
fn queries_parked_during_a_round_trip_ship_as_one_frame_behind_the_install() {
    // Shard 0 owns sources 0..4 and is the slow one; shard 1 owns 4..8.
    let (slow, other) = (FakeShard::spawn(), FakeShard::spawn());
    let map = ShardMap::new(8, 2);
    let cfg = GatewayConfig {
        cache_capacity: 0,
        ..GatewayConfig::default()
    };
    let mut gw = Gateway::spawn(map, &[slow.addr, other.addr], cfg).unwrap();
    let mut client = RawClient::connect(gw.addr);

    // An idle dispatcher ships a lone query at once: frame 1.
    client.ask(1, 0, 1, false);
    assert_eq!(queries_of(slow.next_frame()), vec![(0, 1)]);

    // While the shard sits on frame 1, five more queries arrive. The
    // sentinel behind them is answered at the gate by the same intake
    // thread, so its reply proves the five are parked.
    let parked: Vec<(NodeId, NodeId)> = (0..5).map(|i| (i % 4, 7 - i)).collect();
    for (i, &(src, dst)) in parked.iter().enumerate() {
        client.ask(2 + i as u64, src, dst, false);
    }
    client.ask(99, 100, 0, false);
    assert_eq!(
        client.next_reply(),
        QueryReply {
            id: 99,
            outcome: QueryOutcome::OutOfRange
        }
    );

    // A table swap arrives meanwhile. The gateway queues the installs
    // shard by shard in layout order, so the idle shard 1 receiving its
    // install proves shard 0's is already in its mailbox.
    let addr = gw.addr;
    let swap = std::thread::spawn(move || {
        let mut c = ServeClient::connect(addr, PATIENCE).unwrap();
        c.apply_tables(
            1,
            &TableSnapshot {
                n: 8,
                tables: vec![],
            },
        )
        .unwrap()
    });
    assert!(matches!(
        other.next_frame(),
        ShardFrame::Install { generation: 1, .. }
    ));
    other.release();

    // The shard answers frame 1. What follows on its connection is the
    // install, then the five parked queries as exactly one frame, in
    // arrival order: the round trip was the coalescing window.
    slow.release();
    assert!(matches!(
        slow.next_frame(),
        ShardFrame::Install { generation: 1, .. }
    ));
    slow.release();
    assert_eq!(queries_of(slow.next_frame()), parked);
    slow.release();

    let mut got = vec![client.next_reply()];
    for _ in &parked {
        got.push(client.next_reply());
    }
    let want: Vec<QueryReply> = std::iter::once((0, 1))
        .chain(parked.iter().copied())
        .zip(1u64..)
        .map(|((src, dst), id)| QueryReply {
            id,
            outcome: QueryOutcome::Dist {
                dist: fake_dist(src, dst),
            },
        })
        .collect();
    assert_eq!(got, want);
    assert_eq!(
        swap.join().unwrap(),
        ApplyReport {
            accepted: true,
            generation: 1,
            shards_installed: 2,
            shards_down: 0,
            install_bytes: 9, // n, no base, no rows
            full: true,
        }
    );

    let stats = gw.stats();
    assert_eq!((stats.batches, stats.batched_queries), (2, 6));
    assert_eq!((stats.queries, stats.replies), (7, 7));
    gw.shutdown();
    slow.join();
    other.join();
}

#[test]
fn no_query_waits_on_a_clock() {
    // Every query here misses (no cache) and crosses a shard. Behind a
    // flush tick none of them could come back in under the tick; with
    // nothing but thread hand-offs in the way, some round trip does.
    const OLD_TICK: Duration = Duration::from_micros(200);
    let cfg = GatewayConfig {
        cache_capacity: 0,
        ..GatewayConfig::default()
    };
    let d = Deployment::spawn(&path_snapshot(64), 1, cfg).unwrap();
    let mut client = d.client().unwrap();
    let mut best = Duration::MAX;
    for i in 0..5000u32 {
        let t0 = Instant::now();
        let outcome = client.query(0, i % 64, false).unwrap();
        best = best.min(t0.elapsed());
        assert_eq!(
            outcome,
            QueryOutcome::Dist {
                dist: (i % 64) as u64
            }
        );
        if best < OLD_TICK {
            break;
        }
    }
    assert!(
        best < OLD_TICK,
        "fastest of 5000 cache-miss round trips took {best:?}"
    );
}

#[test]
fn a_cache_hit_overtakes_a_shard_round_trip_and_is_matched_by_id() {
    let shard = FakeShard::spawn();
    let mut gw =
        Gateway::spawn(ShardMap::new(8, 1), &[shard.addr], GatewayConfig::default()).unwrap();
    let mut client = RawClient::connect(gw.addr);
    let dist = |src, dst| QueryOutcome::Dist {
        dist: fake_dist(src, dst),
    };

    // Warm the cache with (0, 1).
    client.ask(1, 0, 1, false);
    shard.next_frame();
    shard.release();
    assert_eq!(
        client.next_reply(),
        QueryReply {
            id: 1,
            outcome: dist(0, 1)
        }
    );

    // (0, 2) misses and is held at the shard; (0, 1), asked after it,
    // is a hit and comes back first.
    client.ask(2, 0, 2, false);
    assert_eq!(queries_of(shard.next_frame()), vec![(0, 2)]);
    client.ask(3, 0, 1, false);
    assert_eq!(
        client.next_reply(),
        QueryReply {
            id: 3,
            outcome: dist(0, 1)
        }
    );
    shard.release();
    assert_eq!(
        client.next_reply(),
        QueryReply {
            id: 2,
            outcome: dist(0, 2)
        }
    );
    assert_eq!(gw.stats().cache_hits, 1);
    gw.shutdown();
    shard.join();
}

#[test]
fn a_reply_batch_out_of_order_fails_closed() {
    // A shard that answers a batch in the wrong order. Position and id
    // disagree, so neither client may be handed the other's answer.
    let shard = FakeShard::spawn_mangling(|replies| replies.reverse());
    let cfg = GatewayConfig {
        cache_capacity: 0,
        ..GatewayConfig::default()
    };
    let mut gw = Gateway::spawn(ShardMap::new(8, 1), &[shard.addr], cfg).unwrap();
    let mut client = RawClient::connect(gw.addr);

    // Frame 1 is one query (nothing to reorder); two more park behind
    // it, proven by the sentinel, and ship together as frame 2.
    client.ask(1, 0, 1, false);
    shard.next_frame();
    client.ask(2, 0, 2, false);
    client.ask(3, 0, 3, false);
    client.ask(99, 100, 0, false);
    assert_eq!(client.next_reply().id, 99);
    shard.release();
    assert_eq!(client.next_reply().id, 1);
    assert_eq!(queries_of(shard.next_frame()), vec![(0, 2), (0, 3)]);
    shard.release();

    let unavailable = QueryOutcome::ShardUnavailable {
        shard: 0,
        lo: 0,
        hi: 8,
    };
    for id in [2, 3] {
        assert_eq!(
            client.next_reply(),
            QueryReply {
                id,
                outcome: unavailable.clone()
            }
        );
    }
    assert_eq!(gw.stats().shard_unavailable, 2);
    gw.shutdown();
    shard.join();
}

#[test]
fn reply_frames_from_two_writers_never_interleave() {
    // One pipelined connection whose replies are written by two threads
    // at once: cached 16 KB paths by its intake thread, uncached ones by
    // the dispatcher. A byte of one frame inside another would fail the
    // decode below or break the id/answer pairing.
    const N: u32 = 4096;
    const ASKED: u64 = 2000;
    let d = Deployment::spawn(&path_snapshot(N), 1, GatewayConfig::default()).unwrap();
    let mut warm = d.client().unwrap();
    warm.query(0, N - 1, true).unwrap();

    // Even ids ask the cached pair, odd ids a pair nobody asked before.
    let dst_of = |id: u64| {
        if id.is_multiple_of(2) {
            N - 1
        } else {
            N - 2 - id as u32
        }
    };
    let mut client = RawClient::connect(d.gateway.addr);
    let mut writer = RawClient {
        stream: client.stream.try_clone().unwrap(),
        scratch: Vec::new(),
    };
    let asking = std::thread::spawn(move || {
        for id in 0..ASKED {
            writer.ask(id, 0, dst_of(id), true);
        }
    });
    let mut seen = vec![false; ASKED as usize];
    for _ in 0..ASKED {
        let reply = client.next_reply();
        let dst = dst_of(reply.id);
        assert_eq!(
            reply.outcome,
            QueryOutcome::Path {
                dist: dst as u64,
                path: (0..=dst).collect()
            },
            "reply {}",
            reply.id
        );
        assert!(!std::mem::replace(&mut seen[reply.id as usize], true));
    }
    asking.join().unwrap();
    let stats = d.gateway.stats();
    assert!(stats.cache_hits >= ASKED / 2 && stats.batched_queries >= ASKED / 2);
}

#[test]
fn a_client_that_stops_reading_is_dropped_and_delays_nobody_for_long() {
    // 64 MB of path replies nobody reads: more than the socket buffers
    // between the gateway and the stalled client can ever hold.
    const N: u32 = 4096;
    const FLOOD: u64 = 4000;
    let cfg = GatewayConfig {
        cache_capacity: 0,
        ..GatewayConfig::default()
    };
    let d = Deployment::spawn(&path_snapshot(N), 1, cfg).unwrap();

    let mut stalled = RawClient::connect(d.gateway.addr);
    for id in 0..FLOOD {
        stalled.ask(id, 0, N - 1, true);
    }

    // A well-behaved client on another connection keeps asking the same
    // shard until the stalled one is gone.
    let done = Arc::new(AtomicBool::new(false));
    let (done2, addr) = (Arc::clone(&done), d.gateway.addr);
    let bystander = std::thread::spawn(move || {
        let mut c = ServeClient::connect(addr, PATIENCE).unwrap();
        let mut worst = Duration::ZERO;
        while !done2.load(Ordering::Relaxed) {
            let t0 = Instant::now();
            let outcome = c.query(0, 9, false).unwrap();
            worst = worst.max(t0.elapsed());
            assert_eq!(outcome, QueryOutcome::Dist { dist: 9 });
        }
        worst
    });

    // Dropped means the gateway closed the connection: once the replies
    // that did fit in the buffers are drained, the stream ends. A
    // gateway that queued the rest instead would keep it open (and this
    // read would run into its timeout).
    let t0 = Instant::now();
    let mut dropped_after = None;
    while t0.elapsed() < PATIENCE {
        // Still open? A write fails once the gateway has shut the
        // socket down; until then this costs one refused query.
        let probe = ClientRequest::Query(QueryRequest {
            id: u64::MAX,
            src: N,
            dst: 0,
            want_path: false,
        });
        if write_frame(&mut stalled.stream, &probe, &mut stalled.scratch).is_err() {
            dropped_after = Some(t0.elapsed());
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    done.store(true, Ordering::Relaxed);
    let worst = bystander.join().unwrap();
    let dropped_after = dropped_after.expect("the stalled client was never dropped");

    let mut drained = 0usize;
    let mut buf = vec![0u8; 1 << 16];
    let ended = loop {
        match stalled.stream.read(&mut buf) {
            Ok(0) => break true,
            Ok(k) => drained += k,
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break true,
            Err(_) => break false,
        }
    };
    assert!(ended, "the stalled connection is still open");
    assert!(
        drained < FLOOD as usize * N as usize * 4,
        "every reply was queued: {drained} bytes"
    );
    // One reply write may block for the write timeout, once; after that
    // the connection is dead and skipped.
    assert!(
        worst < CLIENT_WRITE_TIMEOUT + Duration::from_secs(2),
        "a bystander waited {worst:?} (stalled client dropped after {dropped_after:?})"
    );
}

/// Write `frame` in two halves with a pause between them that outlasts
/// any sane polling interval of the reader.
fn write_in_two_halves(stream: &mut TcpStream, frame: &[u8]) {
    let (head, tail) = frame.split_at(frame.len() / 2);
    stream.write_all(head).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(120));
    stream.write_all(tail).unwrap();
}

#[test]
fn a_pause_inside_an_apply_tables_frame_still_gets_apply_done() {
    let d = Deployment::spawn(&path_snapshot(64), 2, GatewayConfig::default()).unwrap();
    let mut client = RawClient::connect(d.gateway.addr);
    let mut frame = Vec::new();
    let req = ClientRequest::ApplyTables {
        generation: 1,
        delta: TableDelta::full(&path_snapshot(64)),
    };
    write_frame(&mut frame, &req, &mut Vec::new()).unwrap();
    write_in_two_halves(&mut client.stream, &frame);
    match read_frame::<_, ClientReply>(&mut client.stream).unwrap() {
        Some(ClientReply::ApplyDone(report)) => {
            assert!(report.accepted, "{report:?}");
            assert_eq!(report.generation, 1);
        }
        other => panic!("expected ApplyDone, got {other:?}"),
    }
}

#[test]
fn a_pause_inside_an_install_frame_still_gets_installed() {
    let mut shard = ShardHandle::spawn(path_snapshot(64)).unwrap();
    let mut conn = TcpStream::connect(shard.addr).unwrap();
    conn.set_read_timeout(Some(PATIENCE)).unwrap();
    let mut frame = Vec::new();
    let install = ShardFrame::Install {
        generation: 3,
        delta: TableDelta::full(&path_snapshot(64)),
    };
    write_frame(&mut frame, &install, &mut Vec::new()).unwrap();
    write_in_two_halves(&mut conn, &frame);
    assert_eq!(
        read_frame::<_, ShardReply>(&mut conn).unwrap(),
        Some(ShardReply::Installed { generation: 3 })
    );
    shard.stop();
}

#[test]
fn shutdown_does_not_wait_for_attached_clients() {
    let d = Deployment::spawn(&path_snapshot(64), 2, GatewayConfig::default()).unwrap();
    let mut idle = d.client().unwrap();
    assert_eq!(
        idle.query(0, 5, false).unwrap(),
        QueryOutcome::Dist { dist: 5 }
    );

    // On its own thread, so a shutdown that never returns fails the
    // test instead of hanging it.
    let (returned_tx, returned) = channel();
    let stopping = std::thread::spawn(move || {
        drop(d);
        let _ = returned_tx.send(());
    });
    returned
        .recv_timeout(Duration::from_secs(1))
        .expect("Gateway::shutdown returned within 1 s of an idle client being attached");
    stopping.join().unwrap();
    // The attached client was hung up on, not left waiting.
    assert!(idle.query(0, 5, false).is_err());
}

#[test]
fn a_deployment_stops_without_waiting_on_a_clock() {
    // An accept loop that polled its stop flag would sleep out one poll
    // per loop here (three loops: the gateway's and each shard's).
    const REPS: usize = 20;
    let snap = path_snapshot(64);
    let mut stops = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut d = Deployment::spawn(&snap, 2, GatewayConfig::default()).unwrap();
        let first = d.client().unwrap().query(0, 5, false).unwrap();
        assert_eq!(first, QueryOutcome::Dist { dist: 5 });
        let t0 = Instant::now();
        d.gateway.shutdown();
        d.kill(0);
        d.kill(1);
        stops.push(t0.elapsed());
    }
    stops.sort();
    let median = stops[REPS / 2];
    assert!(
        median < Duration::from_millis(4),
        "Gateway::shutdown plus both ShardHandle::stop took {median:?} at the median: {stops:?}"
    );
}

/// A shard server and a gateway listening on `wildcard`, which no client
/// ever reached, stop within a watchdog bound: a stop's wake has to dial
/// `loopback`, the loopback of the same family.
fn wildcard_listeners_stop(wildcard: IpAddr, loopback: IpAddr) {
    let listener = TcpListener::bind((wildcard, 0)).unwrap();
    let port = listener.local_addr().unwrap().port();
    let tables = VersionedTables {
        generation: 0,
        snap: path_snapshot(8),
    };
    let mut shard = ShardHandle::spawn_on(listener, tables).unwrap();
    let mut gateway = Gateway::spawn_on(
        TcpListener::bind((wildcard, 0)).unwrap(),
        ShardMap::new(8, 1),
        &[SocketAddr::new(loopback, port)],
        GatewayConfig::default(),
    )
    .unwrap();
    assert!(gateway.addr.ip().is_unspecified() && shard.addr.ip().is_unspecified());

    let (stopped_tx, stopped) = channel();
    let stopping = std::thread::spawn(move || {
        gateway.shutdown();
        shard.stop();
        let _ = stopped_tx.send(());
    });
    stopped
        .recv_timeout(Duration::from_secs(2))
        .unwrap_or_else(|_| panic!("listeners on {wildcard} did not stop within 2 s"));
    stopping.join().unwrap();
}

#[test]
fn listeners_on_the_ipv4_wildcard_stop() {
    wildcard_listeners_stop(Ipv4Addr::UNSPECIFIED.into(), Ipv4Addr::LOCALHOST.into());
}

#[test]
fn listeners_on_the_ipv6_wildcard_stop() {
    if TcpListener::bind((Ipv6Addr::LOCALHOST, 0)).is_err() {
        eprintln!("skipped: this host has no IPv6 loopback");
        return;
    }
    wildcard_listeners_stop(Ipv6Addr::UNSPECIFIED.into(), Ipv6Addr::LOCALHOST.into());
}

#[test]
fn a_delta_reaches_each_shard_as_its_rows_and_every_shard_moves() {
    let (lo, hi) = (FakeShard::spawn(), FakeShard::spawn());
    let map = ShardMap::new(8, 2);
    let mut gw = Gateway::spawn(map, &[lo.addr, hi.addr], GatewayConfig::default()).unwrap();
    let addr = gw.addr;
    // Generation 2 moves two cells, both in rows of shard 0 (sources 0..4).
    let g1 = all_rows(8, 0);
    let g2 = with_cell(&with_cell(&g1, 1, 6, 5), 3, 0, 7);
    let pusher = std::thread::spawn(move || {
        let mut c = ServeClient::connect(addr, PATIENCE).unwrap();
        (
            c.apply_tables(1, &g1).unwrap(),
            c.apply_tables(2, &g2).unwrap(),
        )
    });

    // The client had no base, so generation 1 goes whole: each shard
    // its own block of rows.
    for (shard, block) in [(&lo, 0..4), (&hi, 4..8)] {
        let (generation, delta) = shard.next_install();
        assert_eq!((generation, delta.base), (1, None));
        assert_eq!(sources_of(&delta), block.collect::<Vec<NodeId>>());
    }
    // Generation 2: shard 0 gets its two cells, shard 1 an empty delta
    // on the same base, which still moves it.
    let (generation, delta) = lo.next_install();
    assert_eq!((generation, delta.base), (2, Some(1)));
    assert_eq!(
        delta.rows,
        vec![
            RowPatch::Cells {
                source: 1,
                cells: vec![(6, 5, Some(1))]
            },
            RowPatch::Cells {
                source: 3,
                cells: vec![(0, 7, Some(3))]
            },
        ]
    );
    let (generation, delta) = hi.next_install();
    assert_eq!((generation, delta.base, delta.rows.len()), (2, Some(1), 0));

    let (first, second) = pusher.join().unwrap();
    assert!(first.accepted && first.full, "{first:?}");
    assert!(second.accepted && !second.full, "{second:?}");
    assert!(second.install_bytes * 10 < first.install_bytes);
    assert_eq!(hi.live.load(Ordering::SeqCst), 2);
    let stats = gw.stats();
    assert_eq!(stats.installs_full, 1);
    assert_eq!(
        stats.install_bytes,
        first.install_bytes + second.install_bytes
    );
    gw.shutdown();
    lo.join();
    hi.join();
}

#[test]
fn a_delta_on_a_base_the_fleet_may_not_hold_is_refused_then_sent_whole() {
    let cfg = GatewayConfig {
        cache_capacity: 0,
        ..GatewayConfig::default()
    };
    let g0 = all_rows(8, 0);
    let d = Deployment::spawn(&g0, 2, cfg).unwrap();
    let g1 = with_cell(&g0, 0, 5, 1);
    let g2 = with_cell(&g1, 5, 2, 2);
    let g3 = with_cell(&g2, 0, 5, 3);

    // Client `a` pushes generation 1; client `b` then pushes 2, so the
    // base `a` remembers is no longer what the fleet holds.
    let mut a = d.client().unwrap();
    let mut b = d.client().unwrap();
    assert!(a.apply_tables(1, &g1).unwrap().accepted);
    assert!(b.apply_tables(2, &g2).unwrap().accepted);

    // On the wire: a delta onto generation 1 is refused, typed, and
    // changes nothing.
    let before = d.gateway.stats();
    let mut raw = RawClient::connect(d.gateway.addr);
    let stale = ClientRequest::ApplyTables {
        generation: 3,
        delta: TableDelta::between(1, &g1, &g3),
    };
    write_frame(&mut raw.stream, &stale, &mut raw.scratch).unwrap();
    assert_eq!(
        read_frame::<_, ClientReply>(&mut raw.stream).unwrap(),
        Some(ClientReply::NeedFull)
    );
    assert_eq!((d.gateway.generation(), d.gateway.stats()), (2, before));

    // Through `ServeClient` the refusal is one extra round trip: the
    // same generation goes whole and lands.
    let report = a.apply_tables(3, &g3).unwrap();
    assert!(report.accepted && report.full, "{report:?}");
    assert_eq!(report.generation, 3);
    let after = d.gateway.stats();
    assert_eq!(after.installs_full, before.installs_full + 1);
    assert_eq!(
        after.install_bytes,
        before.install_bytes + report.install_bytes
    );
    assert_eq!(a.dist(0, 5).unwrap(), QueryOutcome::Dist { dist: 3 });
    // And `a` is back on deltas.
    let report = a.apply_tables(4, &with_cell(&g3, 6, 1, 4)).unwrap();
    assert!(report.accepted && !report.full, "{report:?}");
    assert_eq!(a.dist(6, 1).unwrap(), QueryOutcome::Dist { dist: 4 });
}

#[test]
fn a_shard_on_the_wrong_base_installs_nothing_and_the_next_push_is_full() {
    let (lo, hi) = (FakeShard::spawn(), FakeShard::spawn());
    let map = ShardMap::new(8, 2);
    let mut gw = Gateway::spawn(map, &[lo.addr, hi.addr], GatewayConfig::default()).unwrap();
    let addr = gw.addr;
    let g1 = all_rows(8, 0);
    let g2 = with_cell(&with_cell(&g1, 1, 2, 2), 6, 2, 2);
    let g3 = with_cell(&g2, 6, 3, 3);
    let pusher = std::thread::spawn(move || {
        let mut c = ServeClient::connect(addr, PATIENCE).unwrap();
        [1, 2, 3].map(|g| c.apply_tables(g, [&g1, &g2, &g3][g as usize - 1]).unwrap())
    });
    for shard in [&lo, &hi] {
        assert_eq!(shard.next_install().0, 1);
    }
    // Shard 1 goes back to generation 0 behind the gateway's back (a
    // restart from its boot file), so generation 2's delta, based on 1,
    // is not its to apply.
    let t0 = Instant::now();
    while hi.live.load(Ordering::SeqCst) != 1 {
        assert!(
            t0.elapsed() < PATIENCE,
            "shard 1 never installed generation 1"
        );
        std::thread::yield_now();
    }
    hi.live.store(0, Ordering::SeqCst);
    assert_eq!(lo.next_install().1.base, Some(1));
    assert_eq!(hi.next_install().1.base, Some(1));
    // Generation 3: the client's base is 2, which the fleet does not
    // hold, so both shards get it whole. Shard 1's ack of 2 went out
    // before the client could push 3: it installed nothing.
    for shard in [&lo, &hi] {
        let frame = shard.next_frame();
        assert!(matches!(
            frame,
            ShardFrame::Install {
                generation: 3,
                delta: TableDelta { base: None, .. }
            }
        ));
        if std::ptr::eq(shard, &hi) {
            assert_eq!(hi.live.load(Ordering::SeqCst), 0, "installed nothing");
        }
        shard.release();
    }
    let [_, second, third] = pusher.join().unwrap();
    assert_eq!(
        (second.accepted, second.shards_installed, second.shards_down),
        (false, 1, 1),
        "{second:?}"
    );
    assert!(third.accepted && third.full, "{third:?}");
    assert_eq!(hi.live.load(Ordering::SeqCst), 3);
    gw.shutdown();
    lo.join();
    hi.join();
}

/// Rows 0 and 1 over a chain `s → s+1 → … → n-1`; with `detour`, the
/// chain's last two cells are reached by 2-hop skips, 100 heavier.
fn chain(n: u32, detour: bool) -> TableSnapshot {
    let tables = (0..2)
        .map(|s| {
            let mut dist: Vec<u64> = (0..n)
                .map(|v| if v >= s { u64::from(v - s) } else { INFINITY })
                .collect();
            let mut parent: Vec<Option<NodeId>> = (0..n).map(|v| (v > s).then(|| v - 1)).collect();
            if detour {
                for v in [n - 3, n - 1] {
                    parent[v as usize] = Some(v - 2);
                    dist[v as usize] += 100;
                }
            }
            Arc::new(SourceTable::new(s, dist, parent))
        })
        .collect();
    TableSnapshot { n, tables }
}

#[test]
fn a_probe_mid_swap_never_sees_a_half_applied_generation() {
    const N: u32 = 64;
    let cfg = GatewayConfig {
        cache_capacity: 0,
        ..GatewayConfig::default()
    };
    let (plain, detour) = (chain(N, false), chain(N, true));
    let answer = |snap: &TableSnapshot, s: NodeId| {
        let t = snap.table_for(s).unwrap();
        QueryOutcome::Path {
            dist: t.dist[N as usize - 1],
            path: t.path_to(N - 1).unwrap(),
        }
    };
    let valid: Vec<[QueryOutcome; 2]> = (0..2)
        .map(|s| [answer(&plain, s), answer(&detour, s)])
        .collect();
    let d = Deployment::spawn(&plain, 2, cfg).unwrap();

    // The hammer walks both rows' paths through every swap: each walk
    // reads cells the delta moves and cells it does not, so a row
    // patched in place, or a batch answered half from either side,
    // would show as a path of neither generation.
    let (stop, landed) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicU64::new(0)),
    );
    let hammer = {
        let (stop, landed, addr) = (Arc::clone(&stop), Arc::clone(&landed), d.gateway.addr);
        std::thread::spawn(move || {
            let mut c = ServeClient::connect(addr, PATIENCE).unwrap();
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let s = i % 2;
                let got = c.path(s, N - 1).unwrap();
                assert!(valid[s as usize].contains(&got), "source {s}: {got:?}");
                landed.fetch_add(1, Ordering::Relaxed);
                i += 1;
            }
        })
    };
    let mut push = d.client().unwrap();
    let mut fence = d.client().unwrap();
    for generation in 1..=16u64 {
        let target = landed.load(Ordering::Relaxed) + 8;
        let t0 = Instant::now();
        while landed.load(Ordering::Relaxed) < target {
            assert!(t0.elapsed() < PATIENCE, "the hammer stalled");
            std::thread::yield_now();
        }
        let next = if generation % 2 == 1 { &detour } else { &plain };
        let report = push.apply_tables(generation, next).unwrap();
        assert!(report.accepted, "{report:?}");
        assert_eq!(report.full, generation == 1, "{report:?}");
        for s in 0..2 {
            assert_eq!(fence.path(s, N - 1).unwrap(), answer(next, s));
        }
    }
    stop.store(true, Ordering::Relaxed);
    hammer.join().unwrap();
}
