//! TCP backend: length-prefixed [`WireCodec`] frames between OS
//! endpoints.
//!
//! Topology: one socket per adjacent pair of workers (see
//! [`crate::shard`]; at `P = n` that is one per graph link) plus one
//! socket per worker to the coordinator, so the socket count scales
//! with the worker count, not the graph. Connections are established
//! deterministically — of two adjacent workers the lower id dials and
//! the higher id listens — and every stream starts with a 4-byte
//! little-endian handshake carrying the dialer's id. Each worker
//! multiplexes its sockets into one event queue with a reader thread
//! per connection; TCP's per-stream ordering gives the per-link FIFO
//! guarantee the round protocol relies on. Outbound, a round is at most
//! one `RoundBatch` plus one `EndRound` per peer, which the worker
//! thread writes itself through a per-peer `BufWriter` flushed at the
//! marker: one write per peer per round, with no writer thread to wake,
//! and a failed write is a typed error at the call.
//!
//! The coordinator ([`run_coordinator_tcp`]) accepts every worker, then
//! parks one blocking reader thread on each connection: a `Done` wakes
//! exactly the thread that forwards it, with no polling interval
//! between the last `Done` and the next `Go` (DESIGN.md §8 has the
//! measurement that retired the polling multiplexer).
//!
//! Failure semantics: reader threads never panic. A clean EOF mid-run
//! (the peer process died and the kernel sent FIN) silently ends the
//! reader — the *coordinator's* deadline-and-ping failure detector is
//! what notices the silence, exactly as with any other crash. A read
//! *error* (reset, malformed frame, oversized header) is pushed into
//! the worker's event queue as [`Event::Lost`] and surfaces as a typed
//! [`TransportError`].
//!
//! [`run_tcp_loopback`] wires a whole network inside one process (the
//! conformance and bench configuration); [`run_shard_tcp`] and
//! [`run_coordinator_tcp`] are the building blocks the `dwapsp
//! run-node` / `dwapsp coordinator` CLI uses to run each worker as its
//! own OS process. [`run_tcp_loopback_chaos`] is the crash-fault
//! configuration: recoverable workers, a deadline-driven coordinator,
//! and scripted [`crate::chaos::ChaosPlan`] faults over real sockets.

use crate::channels::{assemble, chaos_coord_config, PartialRun, TransportRun};
use crate::chaos::splitmix64;
use crate::coordinator::{coordinate, CoordConfig, CoordEndpoint};
use crate::error::TransportError;
use crate::shard::{
    shard_main, shard_main_recoverable, NodeEndpoint, ShardError, ShardMap, TransportConfig,
};
use crate::wire::{
    abort_reason, encode_frame, errkind, read_frame, write_frame, CtlMsg, Event, Frame, NodeReport,
};
use dw_congest::{Checkpointable, Protocol, Recorder, Round, RunOutcome, RunStats, WireCodec};
use dw_graph::{NodeId, WGraph};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// The dial backoff schedule: exponential from 2ms, capped at 250ms,
/// with deterministic seeded jitter (so a thundering herd of workers
/// dialing one listener de-synchronizes, reproducibly). Pure function
/// of `(seed, attempt)`.
pub fn connect_backoff(seed: u64, attempt: u32) -> Duration {
    let base_ms: u64 = (2u64 << attempt.min(7)).min(250);
    let jitter_ms = splitmix64(seed ^ u64::from(attempt)) % (base_ms / 2 + 1);
    Duration::from_millis(base_ms + jitter_ms)
}

/// Dial `addr`, retrying with [`connect_backoff`] while the peer is
/// still binding/accepting (processes in a multi-process run start in
/// arbitrary order). Returns the stream and the number of connect
/// attempts made.
pub fn retry_connect_seeded(
    addr: SocketAddr,
    timeout: Duration,
    seed: u64,
) -> io::Result<(TcpStream, u32)> {
    let deadline = Instant::now() + timeout;
    let mut attempt = 0u32;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok((s, attempt + 1)),
            Err(e) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(e);
                }
                std::thread::sleep(connect_backoff(seed, attempt).min(deadline - now));
                attempt += 1;
            }
        }
    }
}

/// [`retry_connect_seeded`] with a zero seed, discarding the attempt
/// count.
pub fn retry_connect(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    retry_connect_seeded(addr, timeout, 0).map(|(s, _)| s)
}

fn handshake_out(stream: &mut TcpStream, id: NodeId) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.write_all(&id.to_le_bytes())
}

fn handshake_in(stream: &mut TcpStream) -> io::Result<NodeId> {
    stream.set_nodelay(true)?;
    let mut raw = [0u8; 4];
    stream.read_exact(&mut raw)?;
    Ok(NodeId::from_le_bytes(raw))
}

/// Forward each frame `stream` carries into `tx`, wrapped by `event`,
/// until EOF or the receiver hangs up. A clean EOF is normal at the end
/// of a run; mid-run it means the sender died, which the coordinator's
/// failure detector owns. A read fault becomes an [`Event::Lost`]
/// naming `from` (`None` for the coordinator link).
fn frame_reader<T: WireCodec, M>(
    stream: TcpStream,
    from: Option<NodeId>,
    tx: Sender<Event<M>>,
    event: impl Fn(T) -> Event<M>,
) {
    let mut r = BufReader::new(stream);
    let detail = loop {
        match read_frame(&mut r) {
            Ok(Some(v)) => {
                if tx.send(event(v)).is_err() {
                    return;
                }
            }
            Ok(None) => return,
            Err(e) => break e.to_string(),
        }
    };
    let _ = tx.send(Event::Lost { from, detail });
}

/// Establish worker `id`'s link sockets to its adjacent workers `nbrs`
/// (sorted): accept from the lower ids on `listener`, dial the higher
/// ids at their `peer_addrs` entry. `peer_addrs` may be the whole
/// deployment's address book — entries for non-adjacent workers are
/// ignored — but must cover every higher-id neighbor. Returns the
/// streams in rank (peer id) order.
fn connect_links(
    id: NodeId,
    nbrs: &[NodeId],
    listener: &TcpListener,
    peer_addrs: &[(NodeId, SocketAddr)],
    timeout: Duration,
) -> io::Result<Vec<(NodeId, TcpStream)>> {
    let dial: Vec<(NodeId, SocketAddr)> = nbrs
        .iter()
        .filter(|&&u| u > id)
        .map(|&u| {
            let addr = peer_addrs.iter().find(|&&(v, _)| v == u).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("no address for adjacent worker {u}"),
                )
            })?;
            Ok(*addr)
        })
        .collect::<io::Result<_>>()?;
    let accept_n = nbrs.iter().filter(|&&u| u < id).count();
    let mut links: Vec<(NodeId, TcpStream)> = Vec::with_capacity(nbrs.len());
    std::thread::scope(|s| -> io::Result<()> {
        // Dial concurrently with accepting, or two mutually-listening
        // neighbors could deadlock.
        let dialer = s.spawn(|| -> io::Result<Vec<(NodeId, TcpStream)>> {
            dial.iter()
                .map(|&(u, addr)| {
                    let (mut stream, _) = retry_connect_seeded(addr, timeout, u64::from(id))?;
                    handshake_out(&mut stream, id)?;
                    Ok((u, stream))
                })
                .collect()
        });
        for _ in 0..accept_n {
            let (mut stream, _) = listener.accept()?;
            let from = handshake_in(&mut stream)?;
            links.push((from, stream));
        }
        let dialed = dialer
            .join()
            .map_err(|_| io::Error::other("dialer thread panicked"))??;
        links.extend(dialed);
        Ok(())
    })?;
    links.sort_by_key(|&(u, _)| u);
    debug_assert_eq!(
        links.iter().map(|&(u, _)| u).collect::<Vec<_>>(),
        nbrs,
        "link sockets must cover exactly the adjacent workers"
    );
    Ok(links)
}

/// A worker's socket bundle. The worker thread writes its outbound
/// frames itself, into one `BufWriter` per peer shard flushed at every
/// `EndRound` and `BatchReplay`: a round's `RoundBatch` + `EndRound`
/// pair leaves as one write. Inbound traffic is multiplexed by reader
/// threads into `rx`.
struct ShardTcpNode<M> {
    shard: NodeId,
    /// Buffered link sockets to each peer shard, rank order.
    peers: Vec<(NodeId, BufWriter<TcpStream>)>,
    ctl: TcpStream,
    rx: Receiver<Event<M>>,
    scratch: Vec<u8>,
}

impl<M: WireCodec> NodeEndpoint<M> for ShardTcpNode<M> {
    fn send_peer(&mut self, to: NodeId, frame: Frame<M>) -> Result<(), TransportError> {
        let i = self
            .peers
            .binary_search_by_key(&to, |&(v, _)| v)
            .map_err(|_| {
                TransportError::protocol(format!(
                    "shard {}: send to non-adjacent shard {to}",
                    self.shard
                ))
            })?;
        let w = &mut self.peers[i].1;
        write_frame(w, &frame, &mut self.scratch)
            .and_then(|()| match frame {
                Frame::RoundBatch { .. } => Ok(()),
                _ => w.flush(),
            })
            .map_err(|e| {
                TransportError::peer_lost(format!("shard {}: link to {to}: {e}", self.shard))
            })
    }
    fn send_ctl(&mut self, msg: CtlMsg) -> Result<(), TransportError> {
        write_frame(&mut self.ctl, &msg, &mut self.scratch).map_err(|e| {
            TransportError::io(format!("shard {}: write to coordinator", self.shard), &e)
        })
    }
    fn recv(&mut self) -> Result<Event<M>, TransportError> {
        self.rx.recv().map_err(|_| {
            TransportError::peer_lost(format!("shard {}: all reader threads hung up", self.shard))
        })
    }
}

/// Socket setup plus reader-thread lifecycle around one worker
/// drive function ([`shard_main`] or [`shard_main_recoverable`] —
/// everything else is identical between the plain and the recoverable
/// entry points).
#[allow(clippy::too_many_arguments)] // deployment entry point: each arg is one wire-level endpoint
fn shard_tcp_session<P, F>(
    map: &ShardMap,
    shard: NodeId,
    g: &WGraph,
    nodes: Vec<P>,
    listener: TcpListener,
    peer_addrs: &[(NodeId, SocketAddr)],
    coord_addr: SocketAddr,
    timeout: Duration,
    drive: F,
) -> Result<(Vec<P>, NodeReport, RunOutcome), Box<ShardError<P>>>
where
    P: Protocol,
    P::Msg: WireCodec,
    F: FnOnce(
        Vec<P>,
        &mut ShardTcpNode<P::Msg>,
    ) -> Result<(Vec<P>, NodeReport, RunOutcome), Box<ShardError<P>>>,
{
    let setup_err = |e: io::Error| {
        Box::new(ShardError {
            error: TransportError::io(format!("shard {shard}: transport setup"), &e),
            nodes: None,
        })
    };
    let nbrs = map.peer_shards(g, shard);
    let links = connect_links(shard, &nbrs, &listener, peer_addrs, timeout).map_err(setup_err)?;
    let (mut ctl, _) =
        retry_connect_seeded(coord_addr, timeout, u64::from(shard)).map_err(setup_err)?;
    handshake_out(&mut ctl, shard).map_err(setup_err)?;

    let (tx, rx) = channel();
    // Nothing here unwinds past the joins: `drive` catches a panic (see
    // `run_worker`) and the readers only read.
    std::thread::scope(|s| {
        let mut peers = Vec::with_capacity(links.len());
        for (u, stream) in links {
            let Ok(read_half) = stream.try_clone() else {
                return Err(Box::new(ShardError {
                    error: TransportError::peer_lost(format!(
                        "shard {shard}: could not clone the link socket to {u}"
                    )),
                    nodes: None,
                }));
            };
            let rtx = tx.clone();
            s.spawn(move || {
                frame_reader(read_half, Some(u), rtx, |frame| Event::Peer {
                    from: u,
                    frame,
                })
            });
            peers.push((u, BufWriter::new(stream)));
        }
        {
            let Ok(read_half) = ctl.try_clone() else {
                return Err(Box::new(ShardError {
                    error: TransportError::peer_lost(format!(
                        "shard {shard}: could not clone the coordinator socket"
                    )),
                    nodes: None,
                }));
            };
            let tx = tx.clone();
            s.spawn(move || frame_reader(read_half, None, tx, Event::Ctl));
        }
        drop(tx);
        let mut ep = ShardTcpNode {
            shard,
            peers,
            ctl,
            rx,
            scratch: Vec::new(),
        };
        let result = drive(nodes, &mut ep);
        // FIN every socket: the cascade unblocks every reader (ours and
        // the peers') with a clean EOF so the scope joins. Runs on the
        // error path too — an aborted worker must not wedge its
        // neighbors' readers.
        for (_, w) in &mut ep.peers {
            let _ = w.flush();
            let _ = w.get_ref().shutdown(Shutdown::Write);
        }
        let _ = ep.ctl.shutdown(Shutdown::Write);
        result
    })
}

/// Run shard `shard` of the layout over TCP: accept/dial one socket per
/// *adjacent shard*, connect to the coordinator, then drive
/// [`shard_main`] over all hosted nodes until the coordinator stops the
/// run. The multi-process deployment entry the `dwapsp run-node` CLI
/// uses (one hosted node per process unless `--shards` says otherwise).
#[allow(clippy::too_many_arguments)] // deployment entry point: each arg is one wire-level endpoint
pub fn run_shard_tcp<P: Protocol>(
    map: &ShardMap,
    shard: NodeId,
    g: &WGraph,
    cfg: &TransportConfig,
    nodes: Vec<P>,
    listener: TcpListener,
    peer_addrs: &[(NodeId, SocketAddr)],
    coord_addr: SocketAddr,
    timeout: Duration,
) -> Result<(Vec<P>, RunOutcome), TransportError>
where
    P::Msg: WireCodec,
{
    shard_tcp_session(
        map,
        shard,
        g,
        nodes,
        listener,
        peer_addrs,
        coord_addr,
        timeout,
        |nodes, ep| shard_main(map, shard, g, cfg, nodes, ep),
    )
    .map(|(nodes, _report, outcome)| (nodes, outcome))
    .map_err(|se| se.error)
}

struct TcpCoord {
    streams: Vec<TcpStream>,
    rx: Receiver<(NodeId, CtlMsg)>,
    scratch: Vec<u8>,
}

impl CoordEndpoint for TcpCoord {
    fn broadcast(&mut self, msg: CtlMsg) -> Result<(), TransportError> {
        // One encoding for all streams. Attempt every worker even if
        // some writes fail — an abort must reach the survivors.
        encode_frame(&msg, &mut self.scratch);
        let mut first_err = None;
        for (v, stream) in self.streams.iter_mut().enumerate() {
            if let Err(e) = stream.write_all(&self.scratch) {
                if first_err.is_none() {
                    first_err = Some(TransportError::io(
                        format!("coordinator: write to worker {v}"),
                        &e,
                    ));
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
    fn send_to(&mut self, node: NodeId, msg: CtlMsg) -> Result<(), TransportError> {
        let Some(stream) = self.streams.get_mut(node as usize) else {
            return Err(TransportError::protocol(format!(
                "coordinator: no connection for worker {node}"
            )));
        };
        write_frame(stream, &msg, &mut self.scratch)
            .map_err(|e| TransportError::io(format!("coordinator: write to worker {node}"), &e))
    }
    fn recv(
        &mut self,
        timeout: Option<Duration>,
    ) -> Result<Option<(NodeId, CtlMsg)>, TransportError> {
        match timeout {
            None => self.rx.recv().map(Some).map_err(|_| {
                TransportError::peer_lost("coordinator: all worker connections hung up")
            }),
            Some(d) => match self.rx.recv_timeout(d) {
                Ok(m) => Ok(Some(m)),
                Err(RecvTimeoutError::Timeout) => Ok(None),
                Err(RecvTimeoutError::Disconnected) => Err(TransportError::peer_lost(
                    "coordinator: all worker connections hung up",
                )),
            },
        }
    }
}

/// The TCP coordinator: accept `participants` worker connections on
/// `listener`, then run [`coordinate`] under `cfg` (deadlines, probes,
/// recovery; `CoordConfig::default()` for a fault-free run) and return
/// the outcome with aggregated [`RunStats`]. One blocking reader thread
/// per connection forwards control messages and reports
/// per-connection faults as synthesized [`CtlMsg::Error`] messages; a
/// clean mid-run EOF is silence the deadline machinery attributes.
pub fn run_coordinator_tcp(
    participants: usize,
    budget: Round,
    cfg: &CoordConfig,
    listener: TcpListener,
    rec: &mut dyn Recorder,
) -> Result<(RunOutcome, RunStats), TransportError> {
    let io_err = |context: &str, e: &io::Error| TransportError::io(context, e);
    let mut conns: Vec<(NodeId, TcpStream)> = Vec::with_capacity(participants);
    for _ in 0..participants {
        let (mut stream, _) = listener
            .accept()
            .map_err(|e| io_err("coordinator: accept", &e))?;
        let id = handshake_in(&mut stream).map_err(|e| io_err("coordinator: handshake", &e))?;
        conns.push((id, stream));
    }
    conns.sort_by_key(|&(id, _)| id);
    let (tx, rx) = channel();
    // Nothing here unwinds past the joins: `coordinate` catches a panic
    // and the readers only read.
    std::thread::scope(|s| -> Result<(RunOutcome, RunStats), TransportError> {
        let mut streams = Vec::with_capacity(participants);
        for (id, stream) in conns {
            let read_half = stream
                .try_clone()
                .map_err(|e| io_err("coordinator: clone worker socket", &e))?;
            let tx = tx.clone();
            s.spawn(move || {
                let mut r = BufReader::new(read_half);
                loop {
                    match read_frame::<_, CtlMsg>(&mut r) {
                        Ok(Some(msg)) => {
                            if tx.send((id, msg)).is_err() {
                                break;
                            }
                        }
                        // Clean EOF: either the run is over, or the
                        // worker died — the latter shows up as barrier
                        // silence, which the deadline machinery owns.
                        Ok(None) => break,
                        Err(_) => {
                            // Surface a broken connection as a fatal
                            // worker-scoped fault.
                            let _ = tx.send((
                                id,
                                CtlMsg::Error {
                                    kind: errkind::IO,
                                    peer: None,
                                    round: 0,
                                },
                            ));
                            break;
                        }
                    }
                }
            });
            streams.push(stream);
        }
        drop(tx);
        let mut ep = TcpCoord {
            streams,
            rx,
            scratch: Vec::new(),
        };
        let result = coordinate(participants, budget, cfg, &mut ep, rec);
        if result.is_err() {
            // Belt and braces: `coordinate` already broadcast an abort
            // on its own failure paths, but a `?` on a broadcast error
            // may not have — make sure nobody waits forever.
            let _ = ep.broadcast(CtlMsg::Abort {
                reason: abort_reason::PEER_ERROR,
            });
        }
        for stream in &ep.streams {
            let _ = stream.shutdown(Shutdown::Write);
        }
        // Drain until every reader saw EOF (and dropped its sender) so
        // the scope joins; stray post-run traffic (late pongs,
        // checkpoints, the odd error from a torn-down socket) is
        // discarded.
        while ep.rx.recv().is_ok() {}
        result
    })
}

/// Bind one listener per worker plus the coordinator's.
fn bind_fabric(
    p: usize,
) -> io::Result<(Vec<TcpListener>, Vec<SocketAddr>, TcpListener, SocketAddr)> {
    let listeners: Vec<TcpListener> = (0..p)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr())
        .collect::<io::Result<_>>()?;
    let coord_listener = TcpListener::bind("127.0.0.1:0")?;
    let coord_addr = coord_listener.local_addr()?;
    Ok((listeners, addrs, coord_listener, coord_addr))
}

/// The one body of the loopback configuration: lay `g` out over
/// `shards` workers, run a [`shard_tcp_session`] around `drive` on a
/// thread per shard, coordinate on the calling thread (with the chaos
/// control plane iff `deadline` is set).
#[allow(clippy::too_many_arguments)] // the loopback entry points' arguments plus the drive function
fn run_on_loopback<P, F>(
    g: &WGraph,
    cfg: &TransportConfig,
    budget: Round,
    shards: usize,
    deadline: Option<Duration>,
    mut make: impl FnMut(NodeId) -> P,
    rec: &mut dyn Recorder,
    drive: F,
) -> Result<TransportRun<P>, Box<PartialRun<P>>>
where
    P: Protocol,
    P::Msg: WireCodec,
    F: Fn(
            &ShardMap,
            NodeId,
            Vec<P>,
            &mut ShardTcpNode<P::Msg>,
        ) -> Result<(Vec<P>, NodeReport, RunOutcome), Box<ShardError<P>>>
        + Sync,
{
    let map = ShardMap::new(g.n(), shards);
    let p = map.shards();
    let adj = map.shard_adjacency(g);
    let timeout = Duration::from_secs(10);
    let (listeners, addrs, coord_listener, coord_addr) = match bind_fabric(p) {
        Ok(f) => f,
        Err(e) => {
            return Err(Box::new(PartialRun {
                nodes: (0..g.n()).map(|_| None).collect(),
                failed: Vec::new(),
                round: 0,
                error: TransportError::io("tcp loopback setup", &e),
            }))
        }
    };
    let coord_cfg = match deadline {
        Some(d) => chaos_coord_config(cfg, d, adj.clone()),
        None => CoordConfig::default(),
    };
    let (map, adj, addrs, drive) = (&map, &adj, &addrs, &drive);
    std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(sid, listener)| {
                let sid = sid as NodeId;
                let nodes: Vec<P> = map.nodes(sid).map(&mut make).collect();
                s.spawn(move || {
                    let peer_addrs: Vec<(NodeId, SocketAddr)> = adj[sid as usize]
                        .iter()
                        .map(|&u| (u, addrs[u as usize]))
                        .collect();
                    shard_tcp_session(
                        map,
                        sid,
                        g,
                        nodes,
                        listener,
                        &peer_addrs,
                        coord_addr,
                        timeout,
                        |nodes, ep| drive(map, sid, nodes, ep),
                    )
                })
            })
            .collect();
        let coord_result = run_coordinator_tcp(p, budget, &coord_cfg, coord_listener, rec);
        assemble(map, coord_result, handles.into_iter().map(|h| h.join()))
    })
}

/// Run a whole network over TCP loopback inside one process: `shards`
/// workers plus the coordinator, one real socket pair per adjacent
/// worker pair, per-round [`Recorder`] events from the coordinator. The
/// conformance configuration for the TCP backend (the multi-process
/// deployment uses [`run_shard_tcp`] / [`run_coordinator_tcp`] via the
/// CLI with identical wire traffic). Bit-identical to the thread
/// backend and the simulator for every shard count; `shards = g.n()` is
/// the paper's one-processor-per-node layout.
pub fn run_tcp_loopback<P: Protocol>(
    g: &WGraph,
    cfg: &TransportConfig,
    budget: Round,
    shards: usize,
    make: impl FnMut(NodeId) -> P,
    rec: &mut dyn Recorder,
) -> Result<TransportRun<P>, TransportError>
where
    P::Msg: WireCodec,
{
    run_on_loopback(
        g,
        cfg,
        budget,
        shards,
        None,
        make,
        rec,
        |map, sid, nodes, ep| shard_main(map, sid, g, cfg, nodes, ep),
    )
    .map_err(|partial| partial.error)
}

/// Run a network over TCP loopback with the full crash-fault control
/// plane: recoverable workers, whole-shard checkpoints and replay per
/// `cfg`, failure detection on `deadline`, scripted chaos. The
/// socket-level twin of [`crate::channels::run_threads_chaos`]; a lost
/// worker's [`PartialRun`] accounts for every node it hosted.
pub fn run_tcp_loopback_chaos<P>(
    g: &WGraph,
    cfg: &TransportConfig,
    budget: Round,
    shards: usize,
    deadline: Duration,
    make: impl FnMut(NodeId) -> P,
    rec: &mut dyn Recorder,
) -> Result<TransportRun<P>, Box<PartialRun<P>>>
where
    P: Checkpointable,
    P::Msg: WireCodec,
{
    let drive = |map: &ShardMap, sid, nodes, ep: &mut ShardTcpNode<P::Msg>| {
        shard_main_recoverable(map, sid, g, cfg, nodes, ep)
    };
    run_on_loopback(g, cfg, budget, shards, Some(deadline), make, rec, drive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPlan;
    use dw_congest::{EngineConfig, Envelope, Network, NodeCtx, NullRecorder, Outbox};
    use dw_graph::gen::{self, WeightDist};

    /// Weighted SSSP relaxation from node 0 (each improvement is
    /// re-announced), exercising unicast sends over real sockets.
    #[derive(Clone)]
    struct Relax {
        dist: Option<u64>,
        fresh: bool,
    }

    impl Protocol for Relax {
        type Msg = u64;
        fn init(&mut self, ctx: &NodeCtx) {
            if ctx.id == 0 {
                self.dist = Some(0);
                self.fresh = true;
            }
        }
        fn send(&mut self, _round: Round, ctx: &NodeCtx, out: &mut Outbox<u64>) {
            if let (Some(d), true) = (self.dist, self.fresh) {
                for &(v, _) in ctx.out_edges() {
                    if ctx.comm_neighbors().contains(&v) {
                        out.unicast(v, d);
                    }
                }
                self.fresh = false;
            }
        }
        fn receive(&mut self, _round: Round, inbox: &[Envelope<u64>], ctx: &NodeCtx) {
            for env in inbox {
                let Some(w) = ctx.in_weight_from(env.from) else {
                    continue;
                };
                let cand = env.msg() + w;
                if self.dist.is_none_or(|d| cand < d) {
                    self.dist = Some(cand);
                    self.fresh = true;
                }
            }
        }
    }

    impl Checkpointable for Relax {
        fn snapshot(&self, out: &mut Vec<u8>) {
            self.dist.encode(out);
            self.fresh.encode(out);
        }
        fn restore(&mut self, buf: &mut &[u8]) -> Option<()> {
            self.dist = Option::<u64>::decode(buf)?;
            self.fresh = bool::decode(buf)?;
            Some(())
        }
    }

    fn new_relax(_v: NodeId) -> Relax {
        Relax {
            dist: None,
            fresh: false,
        }
    }

    #[test]
    fn tcp_loopback_matches_simulator() {
        let g = gen::gnp_connected(10, 0.3, false, WeightDist::Uniform { max: 9 }, 3);
        let mut net = Network::new(&g, EngineConfig::default(), new_relax);
        let sim_outcome = net.run(400);
        let sim_stats = net.stats();
        let sim_dists: Vec<_> = net.nodes().map(|x| x.dist).collect();

        let run = match run_tcp_loopback(
            &g,
            &TransportConfig::default(),
            400,
            g.n(),
            new_relax,
            &mut NullRecorder,
        ) {
            Ok(run) => run,
            Err(e) => panic!("tcp loopback failed: {e}"),
        };
        assert_eq!(run.outcome, sim_outcome);
        assert_eq!(
            run.nodes.iter().map(|x| x.dist).collect::<Vec<_>>(),
            sim_dists
        );
        assert_eq!(run.stats, sim_stats);
    }

    #[test]
    fn tcp_chaos_kill_with_recovery_is_bit_identical_to_simulator() {
        let g = gen::gnp_connected(10, 0.3, false, WeightDist::Uniform { max: 9 }, 3);
        let mut net = Network::new(&g, EngineConfig::default(), new_relax);
        let sim_outcome = net.run(400);
        let sim_stats = net.stats();
        let sim_dists: Vec<_> = net.nodes().map(|x| x.dist).collect();

        let cfg = TransportConfig {
            checkpoint_cadence: Some(2),
            chaos: Some(ChaosPlan::new(4).with_kill(2, 3)),
            ..TransportConfig::default()
        };
        let run = match run_tcp_loopback_chaos(
            &g,
            &cfg,
            400,
            g.n(),
            Duration::from_millis(400),
            new_relax,
            &mut NullRecorder,
        ) {
            Ok(run) => run,
            Err(p) => panic!("tcp chaos run did not recover: {}", p.error),
        };
        assert_eq!(run.outcome, sim_outcome);
        assert_eq!(
            run.nodes.iter().map(|x| x.dist).collect::<Vec<_>>(),
            sim_dists,
            "recovered distances over sockets must be bit-identical"
        );
        assert_eq!(run.stats, sim_stats);
    }

    #[test]
    fn tcp_sharded_loopback_matches_simulator_for_every_shard_count() {
        let g = gen::gnp_connected(10, 0.3, false, WeightDist::Uniform { max: 9 }, 3);
        let mut net = Network::new(&g, EngineConfig::default(), new_relax);
        let sim_outcome = net.run(400);
        let sim_stats = net.stats();
        let sim_dists: Vec<_> = net.nodes().map(|x| x.dist).collect();

        for shards in [1usize, 3, 10] {
            let run = match run_tcp_loopback(
                &g,
                &TransportConfig::default(),
                400,
                shards,
                new_relax,
                &mut NullRecorder,
            ) {
                Ok(run) => run,
                Err(e) => panic!("tcp sharded loopback (P={shards}) failed: {e}"),
            };
            assert_eq!(run.outcome, sim_outcome, "P={shards}");
            assert_eq!(
                run.nodes.iter().map(|x| x.dist).collect::<Vec<_>>(),
                sim_dists,
                "P={shards}"
            );
            assert_eq!(run.stats, sim_stats, "P={shards}");
        }
    }

    #[test]
    fn tcp_sharded_chaos_kill_recovers_bit_identical() {
        let g = gen::gnp_connected(10, 0.3, false, WeightDist::Uniform { max: 9 }, 3);
        let mut net = Network::new(&g, EngineConfig::default(), new_relax);
        let sim_outcome = net.run(400);
        let sim_stats = net.stats();
        let sim_dists: Vec<_> = net.nodes().map(|x| x.dist).collect();

        // Kill node 2 at round 3: with P=4 that takes down a multi-node
        // shard, and recovery must restore every node it hosted.
        let cfg = TransportConfig {
            checkpoint_cadence: Some(2),
            chaos: Some(ChaosPlan::new(4).with_kill(2, 3)),
            ..TransportConfig::default()
        };
        let run = match run_tcp_loopback_chaos(
            &g,
            &cfg,
            400,
            4,
            Duration::from_millis(400),
            new_relax,
            &mut NullRecorder,
        ) {
            Ok(run) => run,
            Err(p) => panic!("tcp sharded chaos run did not recover: {}", p.error),
        };
        assert_eq!(run.outcome, sim_outcome);
        assert_eq!(
            run.nodes.iter().map(|x| x.dist).collect::<Vec<_>>(),
            sim_dists,
            "recovered sharded distances over sockets must be bit-identical"
        );
        assert_eq!(run.stats, sim_stats);
    }

    /// A severed link over sockets: the reporting worker's typed error
    /// reaches the coordinator, the other workers stand down (a write
    /// to a worker that already left is a typed error at the call), and
    /// the run ends as a `PartialRun` blaming the reporting endpoint's
    /// worker — well inside the deadline, so neither a hang nor the
    /// failure detector ends it.
    #[test]
    fn tcp_chaos_sever_terminates_with_partial_run() {
        let g = gen::gnp_connected(10, 0.3, false, WeightDist::Uniform { max: 9 }, 3);
        let Some(&peer) = g.comm_neighbors(1).first() else {
            panic!("node 1 has no neighbors in this fixture");
        };
        let cfg = TransportConfig {
            checkpoint_cadence: Some(2),
            chaos: Some(ChaosPlan::new(2).with_sever(1, peer, 3)),
            ..TransportConfig::default()
        };
        let deadline = Duration::from_secs(2);
        for shards in [2, g.n()] {
            let start = Instant::now();
            let partial = match run_tcp_loopback_chaos(
                &g,
                &cfg,
                200,
                shards,
                deadline,
                new_relax,
                &mut NullRecorder,
            ) {
                Ok(_) => panic!("P={shards}: a severed link must not produce a full run"),
                Err(p) => p,
            };
            assert!(
                start.elapsed() < deadline,
                "P={shards}: took {:?}",
                start.elapsed()
            );
            let map = ShardMap::new(g.n(), shards);
            let blamed: Vec<NodeId> = map.nodes(map.shard_of(1)).collect();
            assert_eq!(partial.failed, blamed, "P={shards}");
            assert!(
                matches!(partial.error, TransportError::Unrecoverable { .. }),
                "P={shards}: {:?}",
                partial.error
            );
        }
    }

    #[test]
    fn retry_connect_backs_off_and_counts_attempts() {
        // Grab a port that nothing listens on by binding and dropping.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let start = Instant::now();
        let result = retry_connect_seeded(addr, Duration::from_millis(80), 7);
        let (Err(_), elapsed) = (result.as_ref().map(|_| ()), start.elapsed()) else {
            // Extremely unlikely: something claimed the port between
            // drop and dial. Nothing to assert in that case.
            return;
        };
        assert!(
            elapsed >= Duration::from_millis(80),
            "must keep retrying until the timeout, gave up after {elapsed:?}"
        );
        // Exponential backoff bounds the attempt count: 2+3+... ms of
        // sleeps cover 80ms in far fewer than the ~40 tries a fixed
        // 2ms spin would make. (Attempt count is returned on success
        // only, so bound it via the schedule instead.)
        let total: Duration = (0..6).map(|a| connect_backoff(7, a)).sum();
        assert!(
            total >= Duration::from_millis(80),
            "six backoff steps must cover the timeout window, got {total:?}"
        );
    }

    #[test]
    fn connect_backoff_is_deterministic_capped_and_growing() {
        for a in 0..20 {
            assert_eq!(
                connect_backoff(9, a),
                connect_backoff(9, a),
                "deterministic"
            );
        }
        // Cap: base saturates at 250ms, jitter adds at most half.
        for a in 10..20 {
            let d = connect_backoff(1, a);
            assert!(d >= Duration::from_millis(250) && d <= Duration::from_millis(375));
        }
        // Growth: the base doubles, so attempt 6 strictly dominates
        // attempt 0 even with maximal jitter on attempt 0.
        assert!(connect_backoff(3, 6) > connect_backoff(3, 0));
    }
}
