//! The stateless query gateway: route, coalesce, cache, degrade, swap.
//!
//! Clients connect to one address and never learn the shard layout.
//! For every incoming [`QueryRequest`] the gateway:
//!
//! 1. **routes** — resolves the owning shard from the source node via
//!    the same [`ShardMap`] the transport runtime shards by, and probes
//!    the LRU cache; a hit (or an out-of-range source/destination)
//!    answers immediately without touching any shard;
//! 2. **batches** — parks the query on the owning shard's dispatcher.
//!    The dispatcher ships whatever is parked the moment its shard
//!    connection is free, as one [`QueryBatch`] frame and one write; the
//!    queries that arrive while that round trip is in flight are the
//!    next batch. No query waits on a clock: an idle shard gets a lone
//!    query at once, a busy one gets batches that grow with the load
//!    (`max_batch` only caps the frame);
//! 3. **caches** — folds every distance/path/unreachable answer back
//!    into the shared LRU so hot pairs short-circuit at intake;
//! 4. **degrades** — a dead shard connection marks that shard down and
//!    turns its queued and future queries into typed
//!    [`QueryOutcome::ShardUnavailable`] replies carrying the orphaned
//!    source range, while every other shard keeps serving;
//! 5. **swaps** — a [`ClientRequest::ApplyTables`] fans each live shard
//!    its part of the new generation's [`TableDelta`] *through the
//!    dispatcher mailboxes* (so installs serialize with query batches on
//!    each shard connection — FIFO, no second socket — and ship ahead of
//!    the queries parked beside them), waits for the acks, then bumps
//!    the gateway generation and invalidates the cache. Installs run one
//!    at a time, and the gateway keeps the *fleet generation*: the one
//!    every shard not marked down is known to hold. A delta based on
//!    anything else is answered [`ClientReply::NeedFull`] before it fans
//!    out. See DESIGN.md §14 for the protocol's old-or-new guarantee.
//!
//! Threading: one dispatcher thread per shard (owns that shard's
//! connection; write-then-read per frame, so batches to *different*
//! shards overlap freely) and one intake thread per client connection.
//! A reply is written to the client's socket by the thread that holds
//! it — a cache hit by the intake thread, a shard answer by the
//! dispatcher — under the connection's `ClientSink` lock, so frames
//! never interleave. Replies complete out of submission order (cache
//! hits overtake shard round trips); clients correlate by id. A client
//! that stops reading is cut off after [`CLIENT_WRITE_TIMEOUT`] rather
//! than queued for without bound.
//!
//! # Why queries carry their intake generation
//!
//! A query parked before a swap can be answered by the shard *after*
//! the shard installed the new tables. Delivering that (new-generation)
//! answer to the client is fine — during a swap a client may see old or
//! new, never a mix within one answer. But folding it into the cache
//! stamped with the *old* gateway generation, or folding an
//! old-generation answer in after the bump, would poison the cache. So
//! every parked query records the generation it was admitted under and
//! `cache_put` drops answers whose intake generation is no longer
//! current — the cheap, conservative rule.

use crate::accept::accept_until_stopped;
use crate::cache::{CachedAnswer, PathCache};
use crate::metrics::ServeStats;
use crate::proto::{
    ApplyReport, ClientReply, ClientRequest, QueryBatch, QueryOutcome, QueryReply, QueryRequest,
    ReplyBatch, ShardFrame, ShardReply,
};
use crate::table::TableDelta;
use dw_graph::{NodeId, INFINITY};
use dw_transport::shard::ShardMap;
use dw_transport::tcp::retry_connect;
use dw_transport::wire::{read_frame, write_frame};
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Most queries one shard frame may carry. A dispatcher never waits
    /// to fill a frame; what is parked beyond the cap ships next.
    pub max_batch: usize,
    /// LRU capacity in `(src, dst)` entries; zero disables caching.
    pub cache_capacity: usize,
    /// How long to keep retrying the initial shard connections.
    pub connect_timeout: Duration,
    /// Per-batch shard read timeout: a shard silent this long is
    /// declared down (a *closed* socket is detected immediately; the
    /// timeout catches a wedged one).
    pub shard_timeout: Duration,
    /// How long one `ApplyTables` waits for all shard install acks
    /// before counting the stragglers as failed.
    pub apply_timeout: Duration,
    /// The generation the deployment starts at — the generation of the
    /// tables file the shards were booted from (0 for legacy `DWT1`
    /// files). Installs must beat this to be accepted.
    pub initial_generation: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            max_batch: 128,
            cache_capacity: 4096,
            connect_timeout: Duration::from_secs(5),
            shard_timeout: Duration::from_secs(5),
            apply_timeout: Duration::from_secs(30),
            initial_generation: 0,
        }
    }
}

/// How long one reply write may block on a client that is not reading
/// before the connection is dropped. A write blocks only once the
/// socket buffers are full of replies the client has not taken, and a
/// dispatcher stuck in it holds up its whole shard, so this is short.
pub const CLIENT_WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// The write half of one client connection, shared by the connection's
/// intake thread and every dispatcher holding one of its queries.
struct ClientSink {
    out: Mutex<(TcpStream, Vec<u8>)>,
    /// Raised on the first failed write. A timed-out write may have put
    /// half a frame on the wire, so nothing may follow it.
    dead: AtomicBool,
}

impl ClientSink {
    fn new(stream: TcpStream) -> ClientSink {
        ClientSink {
            out: Mutex::new((stream, Vec::new())),
            dead: AtomicBool::new(false),
        }
    }

    /// Write one reply frame. A client that hung up or stopped reading
    /// loses the reply and the connection: shutting the socket down also
    /// ends the intake thread's blocked read.
    fn send(&self, reply: &ClientReply) {
        if self.is_dead() {
            return;
        }
        let mut out = self.out.lock().expect("no thread panics mid-write");
        let (stream, scratch) = &mut *out;
        if write_frame(stream, reply, scratch).is_err() {
            self.dead.store(true, Ordering::Relaxed);
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    fn send_query(&self, id: u64, outcome: QueryOutcome) {
        self.send(&ClientReply::Query(QueryReply { id, outcome }));
    }
}

/// A query parked on a dispatcher: the shard-hop request (re-tagged
/// with an internal id) plus the way home.
struct Parked {
    query: QueryRequest,
    /// The owning client connection.
    home: Arc<ClientSink>,
    /// The client's original correlation id.
    client_id: u64,
    /// The gateway generation this query was admitted under; answers
    /// whose intake generation is no longer current are not cached.
    gen: u64,
}

/// A table install parked on a dispatcher, serialized with query
/// batches on the shard connection. `done` reports the generation the
/// shard acked, or `None` if the shard was lost first.
struct InstallJob {
    generation: u64,
    delta: TableDelta,
    done: Sender<Option<u64>>,
}

/// One shard dispatcher's mailbox.
#[derive(Default)]
struct Mailbox {
    parked: Vec<Parked>,
    /// Pending table installs; shipped before the next query batch.
    installs: Vec<InstallJob>,
    /// Set once the shard is declared dead; guarded by the same lock
    /// so intake and dispatcher agree on who answers a parked query.
    down: bool,
}

struct Dispatcher {
    mailbox: Mutex<Mailbox>,
    wake: Condvar,
    /// The source-node block this shard owns (for `ShardUnavailable`).
    lo: NodeId,
    hi: NodeId,
}

impl Dispatcher {
    fn mailbox(&self) -> std::sync::MutexGuard<'_, Mailbox> {
        self.mailbox
            .lock()
            .expect("no thread panics holding a mailbox")
    }
}

struct Shared {
    map: ShardMap,
    dispatchers: Vec<Arc<Dispatcher>>,
    cache: Mutex<PathCache>,
    stats: Mutex<ServeStats>,
    stop: AtomicBool,
    /// The currently installed table generation (monotone).
    generation: AtomicU64,
    /// The fleet generation: the one every shard not marked down is
    /// known to hold, `None` once a live shard failed to ack an install
    /// at exactly its generation. Locked for the whole of an install, so
    /// installs run one at a time.
    fleet: Mutex<Option<u64>>,
    apply_timeout: Duration,
}

impl Shared {
    fn unavailable(&self, shard: NodeId) -> QueryOutcome {
        let d = &self.dispatchers[shard as usize];
        QueryOutcome::ShardUnavailable {
            shard,
            lo: d.lo,
            hi: d.hi,
        }
    }

    /// Fold one request's or one batch's tallies into the totals: one
    /// lock however many counters moved.
    fn tally(&self, fold: impl FnOnce(&mut ServeStats)) {
        fold(&mut self.stats.lock().expect("stats updates cannot panic"));
    }

    fn cache(&self) -> std::sync::MutexGuard<'_, PathCache> {
        self.cache.lock().expect("cache updates do not panic")
    }

    fn fleet(&self) -> std::sync::MutexGuard<'_, Option<u64>> {
        self.fleet.lock().unwrap_or_else(|poisoned| {
            // An install that panicked may have left shards between
            // generations: nothing is known of the fleet any more, so
            // the next push goes whole.
            self.fleet.clear_poison();
            let mut fleet = poisoned.into_inner();
            *fleet = None;
            fleet
        })
    }
}

/// Fold a shard answer into the cache (only answers that are facts
/// about the graph — not errors — are cacheable, and only when the
/// query's intake generation is still the live one).
fn cache_put(shared: &Shared, gen: u64, src: NodeId, dst: NodeId, outcome: &QueryOutcome) {
    if gen != shared.generation.load(Ordering::SeqCst) {
        return;
    }
    let answer = match outcome {
        QueryOutcome::Dist { dist } => CachedAnswer {
            dist: *dist,
            path: None,
        },
        QueryOutcome::Path { dist, path } => CachedAnswer {
            dist: *dist,
            path: Some(path.clone()),
        },
        QueryOutcome::Unreachable => CachedAnswer {
            dist: INFINITY,
            path: None,
        },
        _ => return,
    };
    shared.cache().put(src, dst, answer);
}

/// What a dispatcher pulled out of its mailbox for one round.
enum Work {
    /// Installs ship first, in arrival order, one frame each.
    Installs(Vec<InstallJob>),
    /// The parked queries, moved into the dispatcher's batch buffer.
    Batch,
}

/// The per-shard dispatcher loop: sleep until something is parked, ship
/// it (installs first, then up to `max_batch` queries as one frame),
/// route the replies home. Whatever parks during the round trip is the
/// next round's work, so batches form by themselves under load.
fn dispatcher_main(
    shared: &Shared,
    shard: usize,
    mut conn: Option<BufReader<TcpStream>>,
    max_batch: usize,
) {
    let d = &shared.dispatchers[shard];
    let mut scratch = Vec::new();
    let mut seq = 0u64;
    // Swapped with the mailbox's vector each round, so both keep their
    // capacity and a round allocates nothing for the hand-over.
    let mut batch: Vec<Parked> = Vec::new();
    loop {
        let work = {
            let mut mb = d.mailbox();
            while mb.parked.is_empty()
                && mb.installs.is_empty()
                && !shared.stop.load(Ordering::Relaxed)
            {
                mb = d.wake.wait(mb).expect("no thread panics holding a mailbox");
            }
            if !mb.installs.is_empty() {
                Work::Installs(std::mem::take(&mut mb.installs))
            } else if mb.parked.is_empty() {
                return; // stopped while idle
            } else if mb.parked.len() <= max_batch {
                std::mem::swap(&mut mb.parked, &mut batch);
                Work::Batch
            } else {
                batch.extend(mb.parked.drain(..max_batch));
                Work::Batch
            }
        };

        match work {
            Work::Installs(jobs) => {
                let mut jobs = jobs.into_iter();
                for InstallJob {
                    generation,
                    delta,
                    done,
                } in jobs.by_ref()
                {
                    let frame = ShardFrame::Install { generation, delta };
                    let acked = match &mut conn {
                        None => Err(io::Error::new(io::ErrorKind::NotConnected, "shard down")),
                        Some(stream) => ship_install(stream, &mut scratch, &frame),
                    };
                    match acked {
                        Ok(live_gen) => {
                            let _ = done.send(Some(live_gen));
                        }
                        Err(_) => {
                            // Down first: the installer reads a lost ack
                            // from a shard marked down as "left the fleet".
                            mark_down(shared, d, shard, &mut conn, &mut batch);
                            let _ = done.send(None);
                            break;
                        }
                    }
                }
                // A connection death mid-install fails the rest too.
                for job in jobs {
                    let _ = job.done.send(None);
                }
            }
            Work::Batch => {
                // A client that was cut off gets no answers, so the
                // shard is not asked for them: what such a client left
                // parked costs nothing further.
                batch.retain(|p| !p.home.is_dead());
                if batch.is_empty() {
                    continue;
                }
                let t0 = Instant::now();
                let outcome = match &mut conn {
                    None => Err(io::Error::new(io::ErrorKind::NotConnected, "shard down")),
                    Some(stream) => ship_batch(stream, &mut scratch, &mut seq, &batch),
                };
                match outcome {
                    Ok(reply) => {
                        let batch_ns = t0.elapsed().as_nanos() as u64;
                        route_home(shared, shard, &mut batch, reply, batch_ns);
                    }
                    Err(_) => mark_down(shared, d, shard, &mut conn, &mut batch),
                }
            }
        }
    }
}

/// Hand one reply batch back to the clients that asked. `answer_batch`
/// keeps query order, so reply `i` answers `batch[i]`; the id is still
/// checked, and a position whose id does not match (a reply lost or
/// reordered: a shard bug) fails closed to `ShardUnavailable` rather
/// than reach the wrong client.
fn route_home(
    shared: &Shared,
    shard: usize,
    batch: &mut Vec<Parked>,
    reply: ReplyBatch,
    batch_ns: u64,
) {
    // Counted before the first reply is written: a client that has its
    // answer finds it in `Gateway::stats`.
    shared.tally(|st| {
        st.batches += 1;
        st.batched_queries += batch.len() as u64;
        st.batch_ns += batch_ns;
        st.lookup_ns += reply.lookup_ns;
        st.walk_ns += reply.walk_ns;
        st.replies += batch.len() as u64;
    });
    let mut replies = reply.replies.into_iter();
    for p in batch.drain(..) {
        let outcome = match replies.next() {
            Some(r) if r.id == p.query.id => {
                cache_put(shared, p.gen, p.query.src, p.query.dst, &r.outcome);
                r.outcome
            }
            _ => {
                // Same rule as above, one lock a loss: this arm is a
                // shard bug, not traffic.
                shared.tally(|st| st.shard_unavailable += 1);
                shared.unavailable(shard as NodeId)
            }
        };
        p.home.send_query(p.client_id, outcome);
    }
}

/// The shard is gone: mark it down under the mailbox lock (so no new
/// query can park in between), then fail `batch` and anything parked or
/// queued for install meanwhile.
fn mark_down(
    shared: &Shared,
    d: &Dispatcher,
    shard: usize,
    conn: &mut Option<BufReader<TcpStream>>,
    batch: &mut Vec<Parked>,
) {
    let installs = {
        let mut mb = d.mailbox();
        mb.down = true;
        batch.append(&mut mb.parked);
        std::mem::take(&mut mb.installs)
    };
    *conn = None;
    shared.tally(|st| {
        st.replies += batch.len() as u64;
        st.shard_unavailable += batch.len() as u64;
    });
    for p in batch.drain(..) {
        p.home
            .send_query(p.client_id, shared.unavailable(shard as NodeId));
    }
    for job in installs {
        let _ = job.done.send(None);
    }
}

/// One batched round trip on the shard connection.
fn ship_batch(
    stream: &mut BufReader<TcpStream>,
    scratch: &mut Vec<u8>,
    seq: &mut u64,
    batch: &[Parked],
) -> io::Result<ReplyBatch> {
    *seq += 1;
    let frame = ShardFrame::Queries(QueryBatch {
        seq: *seq,
        queries: batch.iter().map(|p| p.query.clone()).collect(),
    });
    write_frame(stream.get_mut(), &frame, scratch)?;
    loop {
        match read_frame::<_, ShardReply>(stream) {
            Ok(Some(ShardReply::Replies(reply))) if reply.seq == *seq => return Ok(reply),
            // A stale reply (from a batch or install we already gave up
            // on) is skipped; anything else is a dead or misbehaving
            // shard.
            Ok(Some(_)) => continue,
            Ok(None) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Err(e) => return Err(e),
        }
    }
}

/// One install round trip on the shard connection. Returns the
/// generation the shard reports live after the install.
fn ship_install(
    stream: &mut BufReader<TcpStream>,
    scratch: &mut Vec<u8>,
    frame: &ShardFrame,
) -> io::Result<u64> {
    write_frame(stream.get_mut(), frame, scratch)?;
    loop {
        match read_frame::<_, ShardReply>(stream) {
            Ok(Some(ShardReply::Installed { generation })) => return Ok(generation),
            // Stale query replies from an abandoned batch are skipped.
            Ok(Some(ShardReply::Replies(_))) => continue,
            Ok(None) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Err(e) => return Err(e),
        }
    }
}

/// Handle one `ApplyTables` from a client: validate, fence the base,
/// fan each live shard its part of the delta through its dispatcher —
/// every shard gets one, empty or not, so every shard moves to the new
/// generation — await the acks, bump the gateway generation and
/// invalidate the cache if anything installed, and report back.
fn handle_apply(shared: &Shared, generation: u64, delta: TableDelta, home: &ClientSink) {
    let mut fleet = shared.fleet();
    let current = shared.generation.load(Ordering::SeqCst);
    if generation <= current || delta.n as usize != shared.map.n() {
        home.send(&ClientReply::ApplyDone(ApplyReport {
            accepted: false,
            generation: current,
            shards_installed: 0,
            shards_down: 0,
            install_bytes: 0,
            full: false,
        }));
        return;
    }
    // A delta onto a generation some live shard may not hold could only
    // be refused shard by shard, after others applied it.
    if delta.base.is_some() && delta.base != *fleet {
        home.send(&ClientReply::NeedFull);
        return;
    }
    let (install_bytes, full) = (delta.encoded_len() as u64, delta.base.is_none());
    shared.tally(|st| {
        st.install_bytes += install_bytes;
        st.installs_full += u64::from(full);
    });

    let mut waits = Vec::new();
    let mut shards_down = 0u32;
    for (s, d) in shared.dispatchers.iter().enumerate() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let mut mb = d.mailbox();
        if mb.down {
            shards_down += 1;
            continue;
        }
        mb.installs.push(InstallJob {
            generation,
            delta: delta.for_shard(&shared.map, s as NodeId),
            done: done_tx,
        });
        d.wake.notify_one();
        drop(mb);
        waits.push((d, done_rx));
    }

    let deadline = Instant::now() + shared.apply_timeout;
    let (mut installed, mut failed) = (0u32, 0u32);
    // Whether every shard still up now holds exactly `generation`.
    let mut fleet_holds = true;
    for (d, rx) in waits {
        let left = deadline.saturating_duration_since(Instant::now());
        let acked = rx.recv_timeout(left).ok().flatten();
        if acked.is_some_and(|g| g >= generation) {
            installed += 1;
        } else {
            failed += 1;
        }
        if acked != Some(generation) && !d.mailbox().down {
            fleet_holds = false;
        }
    }
    *fleet = (installed > 0 && fleet_holds).then_some(generation);

    // Any successful install means live shards are now answering from
    // the new generation: the gateway must follow (and drop every
    // cached fact about the old graph), even if some other shard died
    // mid-swap — its queries degrade to ShardUnavailable anyway.
    let live_gen = if installed > 0 {
        shared.generation.fetch_max(generation, Ordering::SeqCst);
        let g = shared.generation.load(Ordering::SeqCst);
        shared.cache().set_generation(g);
        g
    } else {
        current
    };
    // `accepted` means the *whole* fleet now serves the new generation;
    // a degraded swap (some shard down or failing mid-install) still
    // advances the live shards but reports itself honestly.
    home.send(&ClientReply::ApplyDone(ApplyReport {
        accepted: failed == 0 && shards_down == 0 && installed > 0,
        generation: live_gen,
        shards_installed: installed,
        shards_down: shards_down + failed,
        install_bytes,
        full,
    }));
}

/// Admit one query: answer it at the gate if the gate can (out of
/// range, or cached), else park it on the owning shard's dispatcher.
fn handle_query(shared: &Shared, req: QueryRequest, home: &Arc<ClientSink>, internal_id: u64) {
    let t0 = Instant::now();
    let n = shared.map.n() as NodeId;

    // What the gate itself can say: out-of-range coordinates (no shard
    // owns them) fail fast, a cached pair is answered from the LRU.
    let (at_gate, hit) = if req.src >= n || req.dst >= n {
        (Some(QueryOutcome::OutOfRange), false)
    } else {
        match shared.cache().get(req.src, req.dst, req.want_path) {
            Some(hit) => {
                let outcome = match (req.want_path, hit.path) {
                    _ if hit.dist == INFINITY => QueryOutcome::Unreachable,
                    (true, Some(path)) => QueryOutcome::Path {
                        dist: hit.dist,
                        path,
                    },
                    _ => QueryOutcome::Dist { dist: hit.dist },
                };
                (Some(outcome), true)
            }
            None => (None, false),
        }
    };
    if let Some(outcome) = at_gate {
        shared.tally(|st| {
            st.queries += 1;
            st.replies += 1;
            st.cache_hits += hit as u64;
            st.route_ns += t0.elapsed().as_nanos() as u64;
        });
        home.send_query(req.id, outcome);
        return;
    }

    // Route to the owning shard's dispatcher. The query is counted
    // before the dispatcher can see it: by the time its reply exists,
    // `Gateway::stats` includes it.
    shared.tally(|st| {
        st.queries += 1;
        st.cache_misses += 1;
        st.route_ns += t0.elapsed().as_nanos() as u64;
    });
    let shard = shared.map.shard_of(req.src);
    let d = &shared.dispatchers[shard as usize];
    let client_id = req.id;
    let parked = Parked {
        query: QueryRequest {
            id: internal_id,
            ..req
        },
        home: Arc::clone(home),
        client_id,
        gen: shared.generation.load(Ordering::SeqCst),
    };
    let mut mb = d.mailbox();
    if !mb.down {
        // The dispatcher sleeps only on an empty mailbox, so only the
        // query that ends the emptiness has anyone to wake; the rest
        // are found when the round trip in flight returns.
        let was_idle = mb.parked.is_empty();
        mb.parked.push(parked);
        drop(mb);
        if was_idle {
            d.wake.notify_one();
        }
        return;
    }
    drop(mb);
    shared.tally(|st| {
        st.replies += 1;
        st.shard_unavailable += 1;
    });
    home.send_query(client_id, shared.unavailable(shard));
}

/// One client connection's intake loop: read requests, answer what can
/// be answered at the gate, park the rest on the owning dispatcher.
/// Table swaps are handled inline (one at a time per connection). The
/// read blocks with no timeout — one that fired inside a frame would
/// lose the bytes already consumed — and ends when the client hangs up,
/// a reply write fails, or [`Gateway::shutdown`] closes the socket.
fn client_main(shared: &Shared, stream: TcpStream, next_internal: &AtomicU64) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    if stream.set_nodelay(true).is_err()
        || write_half
            .set_write_timeout(Some(CLIENT_WRITE_TIMEOUT))
            .is_err()
    {
        return;
    }
    let home = Arc::new(ClientSink::new(write_half));
    let mut stream = BufReader::new(stream);
    // A malformed frame ends the connection like a hang-up does.
    while let Ok(Some(req)) = read_frame::<_, ClientRequest>(&mut stream) {
        match req {
            ClientRequest::Query(q) => {
                let internal_id = next_internal.fetch_add(1, Ordering::Relaxed);
                handle_query(shared, q, &home, internal_id);
            }
            ClientRequest::ApplyTables { generation, delta } => {
                handle_apply(shared, generation, delta, &home);
            }
        }
    }
    // Replies still in flight are written by the dispatchers holding
    // them; the socket closes when the last of those lets go.
}

/// A running gateway: accept loop + shard dispatchers on background
/// threads. Stop with [`Gateway::shutdown`]; dropping shuts down too.
pub struct Gateway {
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Gateway {
    /// Connect to `shard_addrs` (shard `s` serves the `s`-th block of
    /// `map`) and start accepting clients on a fresh loopback listener.
    pub fn spawn(
        map: ShardMap,
        shard_addrs: &[SocketAddr],
        cfg: GatewayConfig,
    ) -> io::Result<Gateway> {
        Gateway::spawn_on(TcpListener::bind(("127.0.0.1", 0))?, map, shard_addrs, cfg)
    }

    /// As [`Gateway::spawn`], on a caller-provided listener.
    pub fn spawn_on(
        listener: TcpListener,
        map: ShardMap,
        shard_addrs: &[SocketAddr],
        cfg: GatewayConfig,
    ) -> io::Result<Gateway> {
        assert_eq!(
            map.shards(),
            shard_addrs.len(),
            "one shard address per shard of the layout"
        );
        let addr = listener.local_addr()?;
        let dispatchers: Vec<Arc<Dispatcher>> = (0..map.shards())
            .map(|s| {
                let block = map.nodes(s as NodeId);
                Arc::new(Dispatcher {
                    mailbox: Mutex::new(Mailbox::default()),
                    wake: Condvar::new(),
                    lo: block.start,
                    hi: block.end,
                })
            })
            .collect();
        let mut cache = PathCache::new(cfg.cache_capacity);
        cache.set_generation(cfg.initial_generation);
        let shared = Arc::new(Shared {
            map,
            dispatchers,
            cache: Mutex::new(cache),
            stats: Mutex::new(ServeStats::default()),
            stop: AtomicBool::new(false),
            generation: AtomicU64::new(cfg.initial_generation),
            fleet: Mutex::new(Some(cfg.initial_generation)),
            apply_timeout: cfg.apply_timeout,
        });

        let mut threads = Vec::new();
        for (s, &peer) in shard_addrs.iter().enumerate() {
            // A shard that is already down at startup degrades exactly
            // like one that dies later: its dispatcher starts with no
            // connection and answers `ShardUnavailable`.
            let conn = retry_connect(peer, cfg.connect_timeout)
                .and_then(|c| {
                    c.set_nodelay(true)?;
                    c.set_read_timeout(Some(cfg.shard_timeout))?;
                    c.set_write_timeout(Some(cfg.shard_timeout))?;
                    Ok(BufReader::new(c))
                })
                .ok();
            if conn.is_none() {
                shared.dispatchers[s].mailbox().down = true;
            }
            let shared2 = Arc::clone(&shared);
            let max_batch = cfg.max_batch.max(1);
            threads.push(std::thread::spawn(move || {
                dispatcher_main(&shared2, s, conn, max_batch);
            }));
        }

        let shared2 = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            let shared3 = Arc::clone(&shared2);
            let next_internal = AtomicU64::new(1);
            // A listener error ends intake; the dispatchers drain on.
            let _ = accept_until_stopped(listener, &shared2.stop, move |stream| {
                client_main(&shared3, stream, &next_internal);
            });
        }));

        Ok(Gateway {
            addr,
            shared,
            threads,
        })
    }

    /// Snapshot of the aggregate serve metrics.
    pub fn stats(&self) -> ServeStats {
        *self
            .shared
            .stats
            .lock()
            .expect("stats updates cannot panic")
    }

    /// The table generation the gateway currently believes live.
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::SeqCst)
    }

    /// Observed cache hit rate (from the cache's own counters, which
    /// include probes answered before routing).
    pub fn cache_hit_rate(&self) -> f64 {
        self.shared.cache().hit_rate()
    }

    /// Stop accepting, close every client connection (attached clients
    /// see end of stream), drain the dispatchers, join every thread.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        for d in &self.shared.dispatchers {
            // Under the mailbox lock, so a dispatcher is either before
            // its check of `stop` or already waiting: no lost wake-up.
            let _mb = d.mailbox();
            d.wake.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}
