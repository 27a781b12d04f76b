//! In-process thread backend: one OS thread per worker, mpsc channels
//! as links.
//!
//! The cheapest real transport — messages move as typed values (no
//! serialization), but the execution structure is the full distributed
//! one: P independent workers ([`crate::shard`]), a coordinator, and
//! nothing shared but channels. This is the reference backend for
//! conformance testing because any divergence from the simulator here
//! is a logic bug in the worker/coordinator protocol, not an I/O
//! artifact.
//!
//! [`run_threads_chaos`] is the crash-fault entry point: workers run
//! [`shard_main_recoverable`], the coordinator runs with a round
//! deadline, and the fail-recover model of DESIGN.md §10 applies — a
//! killed worker loses its state but keeps its channels (the "process"
//! restarts on the same links), so the coordinator can rejoin it from a
//! checkpoint. Unrecoverable runs terminate with a [`PartialRun`]
//! carrying whatever node states survived.

use crate::chaos::ChaosPlan;
use crate::coordinator::{coordinate, CoordConfig, CoordEndpoint};
use crate::error::TransportError;
use crate::shard::{
    shard_main, shard_main_recoverable, NodeEndpoint, ShardError, ShardMap, TransportConfig,
};
use crate::wire::{abort_reason, CtlMsg, Event, Frame, NodeReport};
use dw_congest::{Checkpointable, Protocol, Recorder, Round, RunOutcome, RunStats, WireCodec};
use dw_graph::{NodeId, WGraph};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Result of a transport run: final node programs (id order), the
/// aggregated statistics and the outcome — the same data a simulator
/// run exposes via `Network::{into_nodes, stats}` and `run`.
pub struct TransportRun<P> {
    pub nodes: Vec<P>,
    pub stats: RunStats,
    pub outcome: RunOutcome,
}

/// What is left of a run the coordinator had to give up on: the typed
/// error, the nodes it blames, and every salvageable node state — a
/// crashed or aborted worker's distances are still sound upper bounds,
/// which is what dw-pipeline degrades into a `PartialOutcome`.
#[derive(Debug)]
pub struct PartialRun<P> {
    /// Final protocol state per node where salvageable, id order.
    pub nodes: Vec<Option<P>>,
    /// Nodes the coordinator declared failed (empty when the fault was
    /// not node-scoped): every node a failed worker hosted.
    pub failed: Vec<NodeId>,
    /// The round the run died in (0 if it never started).
    pub round: Round,
    pub error: TransportError,
}

struct ChannelNode<M> {
    id: NodeId,
    /// Senders into each adjacent worker's event channel, rank order.
    peers: Vec<(NodeId, Sender<Event<M>>)>,
    ctl: Sender<(NodeId, CtlMsg)>,
    rx: Receiver<Event<M>>,
}

impl<M> NodeEndpoint<M> for ChannelNode<M> {
    fn send_peer(&mut self, to: NodeId, frame: Frame<M>) -> Result<(), TransportError> {
        let i = self
            .peers
            .binary_search_by_key(&to, |&(v, _)| v)
            .map_err(|_| {
                TransportError::protocol(format!("worker {}: send to non-neighbor {to}", self.id))
            })?;
        self.peers[i]
            .1
            .send(Event::Peer {
                from: self.id,
                frame,
            })
            .map_err(|_| {
                TransportError::peer_lost(format!("worker {}: channel to {to} hung up", self.id))
            })
    }
    fn send_ctl(&mut self, msg: CtlMsg) -> Result<(), TransportError> {
        self.ctl.send((self.id, msg)).map_err(|_| {
            TransportError::peer_lost(format!("worker {}: coordinator channel hung up", self.id))
        })
    }
    fn recv(&mut self) -> Result<Event<M>, TransportError> {
        self.rx.recv().map_err(|_| {
            TransportError::peer_lost(format!("worker {}: all inbound channels hung up", self.id))
        })
    }
}

struct ChannelCoord<M> {
    txs: Vec<Sender<Event<M>>>,
    rx: Receiver<(NodeId, CtlMsg)>,
}

impl<M> CoordEndpoint for ChannelCoord<M> {
    fn broadcast(&mut self, msg: CtlMsg) -> Result<(), TransportError> {
        // Attempt every worker even if some channels are dead — an
        // abort must reach the survivors.
        let mut first_err = None;
        for (v, tx) in self.txs.iter().enumerate() {
            if tx.send(Event::Ctl(msg.clone())).is_err() && first_err.is_none() {
                first_err = Some(TransportError::peer_lost(format!(
                    "coordinator: channel to worker {v} hung up"
                )));
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
    fn send_to(&mut self, node: NodeId, msg: CtlMsg) -> Result<(), TransportError> {
        let Some(tx) = self.txs.get(node as usize) else {
            return Err(TransportError::protocol(format!(
                "coordinator: no channel for worker {node}"
            )));
        };
        tx.send(Event::Ctl(msg)).map_err(|_| {
            TransportError::peer_lost(format!("coordinator: channel to worker {node} hung up"))
        })
    }
    fn recv(
        &mut self,
        timeout: Option<Duration>,
    ) -> Result<Option<(NodeId, CtlMsg)>, TransportError> {
        match timeout {
            None => self
                .rx
                .recv()
                .map(Some)
                .map_err(|_| TransportError::peer_lost("coordinator: all workers hung up")),
            Some(d) => match self.rx.recv_timeout(d) {
                Ok(m) => Ok(Some(m)),
                Err(RecvTimeoutError::Timeout) => Ok(None),
                Err(RecvTimeoutError::Disconnected) => Err(TransportError::peer_lost(
                    "coordinator: all workers hung up",
                )),
            },
        }
    }
}

/// Wire up a channel fabric over the shard adjacency of a [`ShardMap`]:
/// worker `i` gets senders into each of `adj[i]`'s event channels.
fn make_fabric<M>(adj: &[Vec<NodeId>]) -> (Vec<ChannelNode<M>>, ChannelCoord<M>) {
    let n = adj.len();
    let (ctl_tx, ctl_rx) = channel();
    let mut event_txs: Vec<Sender<Event<M>>> = Vec::with_capacity(n);
    let mut event_rxs: Vec<Receiver<Event<M>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        event_txs.push(tx);
        event_rxs.push(rx);
    }
    let endpoints: Vec<ChannelNode<M>> = event_rxs
        .into_iter()
        .enumerate()
        .map(|(v, rx)| ChannelNode {
            id: v as NodeId,
            peers: adj[v]
                .iter()
                .map(|&u| (u, event_txs[u as usize].clone()))
                .collect(),
            ctl: ctl_tx.clone(),
            rx,
        })
        .collect();
    drop(ctl_tx);
    let coord = ChannelCoord {
        txs: event_txs,
        rx: ctl_rx,
    };
    (endpoints, coord)
}

/// What one worker thread hands back: [`shard_main`]'s result.
type Joined<P> = std::thread::Result<Result<(Vec<P>, NodeReport, RunOutcome), Box<ShardError<P>>>>;

/// The coordinator configuration of a chaos run: failure detection on
/// `deadline`, recovery routed along the shard adjacency, and the
/// plan's scripted coordinator stalls.
pub(crate) fn chaos_coord_config(
    cfg: &TransportConfig,
    deadline: Duration,
    adj: Vec<Vec<NodeId>>,
) -> CoordConfig {
    CoordConfig {
        round_deadline: Some(deadline),
        neighbors: Some(adj),
        stalls: cfg
            .chaos
            .as_ref()
            .map(ChaosPlan::stalls)
            .unwrap_or_default(),
    }
}

/// Fold the coordinator's verdict and the joined workers (shard order,
/// which is node-id order) into a run. Anything short of "coordinator
/// finished and every worker returned its nodes" is a [`PartialRun`]:
/// the coordinator's diagnosis outranks the workers' secondary errors,
/// aborted workers are collateral rather than the fault, and — because
/// the coordinator blames worker slots while its caller speaks node
/// ids — each failed worker in its [`TransportError::Unrecoverable`]
/// expands to the block it hosted, and the first worker error that is
/// not an abort joins its context (it says what went wrong there).
pub(crate) fn assemble<P>(
    map: &ShardMap,
    coord_result: Result<(RunOutcome, RunStats), TransportError>,
    joined: impl Iterator<Item = Joined<P>>,
) -> Result<TransportRun<P>, Box<PartialRun<P>>> {
    let mut nodes: Vec<Option<P>> = Vec::with_capacity(map.n());
    let mut worker_err: Option<TransportError> = None;
    for (sid, j) in joined.enumerate() {
        let hosted = map.nodes(sid as NodeId).len();
        match j {
            Ok(Ok((shard_nodes, _report, shard_outcome))) => {
                if let Ok((outcome, _)) = &coord_result {
                    debug_assert_eq!(shard_outcome, *outcome);
                }
                nodes.extend(shard_nodes.into_iter().map(Some));
            }
            Ok(Err(se)) => {
                let ShardError { error, nodes: sn } = *se;
                if worker_err.is_none() && !matches!(error, TransportError::Aborted { .. }) {
                    worker_err = Some(error);
                }
                match sn {
                    Some(sn) => nodes.extend(sn.into_iter().map(Some)),
                    None => nodes.extend((0..hosted).map(|_| None)),
                }
            }
            Err(_) => {
                worker_err = Some(TransportError::protocol("a worker thread panicked"));
                nodes.extend((0..hosted).map(|_| None));
            }
        }
    }
    let (round, error) = match coord_result {
        Ok((outcome, stats)) if nodes.iter().all(Option::is_some) => {
            return Ok(TransportRun {
                nodes: nodes.into_iter().flatten().collect(),
                stats,
                outcome,
            })
        }
        Ok(_) => (
            0,
            worker_err.unwrap_or_else(|| {
                TransportError::protocol("a worker died in a run the coordinator finished")
            }),
        ),
        Err(TransportError::Unrecoverable {
            failed,
            round,
            context,
        }) => {
            let failed = failed.iter().flat_map(|&slot| map.nodes(slot)).collect();
            let context = match worker_err {
                Some(e) => format!("{context} ({e})"),
                None => context,
            };
            let error = TransportError::Unrecoverable {
                failed,
                round,
                context,
            };
            (round, error)
        }
        Err(coord_err) => (0, coord_err),
    };
    Err(Box::new(PartialRun {
        failed: error.failed_nodes().to_vec(),
        round,
        nodes,
        error,
    }))
}

/// The one body of the thread backend: lay `g` out over `shards`
/// workers, run `worker` on a thread per shard, coordinate on the
/// calling thread (with the chaos control plane iff `deadline` is set).
#[allow(clippy::too_many_arguments)] // the thread entry points' arguments plus the worker function
fn run_on_threads<P: Protocol>(
    g: &WGraph,
    cfg: &TransportConfig,
    budget: Round,
    shards: usize,
    deadline: Option<Duration>,
    mut make: impl FnMut(NodeId) -> P,
    rec: &mut dyn Recorder,
    worker: impl Fn(
            &ShardMap,
            NodeId,
            Vec<P>,
            &mut ChannelNode<P::Msg>,
        ) -> Result<(Vec<P>, NodeReport, RunOutcome), Box<ShardError<P>>>
        + Sync,
) -> Result<TransportRun<P>, Box<PartialRun<P>>> {
    let map = ShardMap::new(g.n(), shards);
    let adj = map.shard_adjacency(g);
    let (mut endpoints, mut coord) = make_fabric::<P::Msg>(&adj);
    let coord_cfg = match deadline {
        Some(d) => chaos_coord_config(cfg, d, adj),
        None => CoordConfig::default(),
    };
    let (map, worker) = (&map, &worker);
    std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .drain(..)
            .enumerate()
            .map(|(sid, mut ep)| {
                let nodes: Vec<P> = map.nodes(sid as NodeId).map(&mut make).collect();
                s.spawn(move || worker(map, sid as NodeId, nodes, &mut ep))
            })
            .collect();
        let coord_result = coordinate(map.shards(), budget, &coord_cfg, &mut coord, rec);
        if coord_result.is_err() {
            // Make sure nobody is left blocked on a barrier that will
            // never complete before we join the threads.
            let _ = coord.broadcast(CtlMsg::Abort {
                reason: abort_reason::PEER_ERROR,
            });
        }
        assemble(map, coord_result, handles.into_iter().map(|h| h.join()))
    })
}

/// Run a protocol over the thread backend with `shards` worker threads,
/// each hosting a contiguous block of nodes (see [`crate::shard`]);
/// node `v` of `g` runs `make(v)`, the calling thread coordinates and
/// emits per-round [`Recorder`] events (the workers stay
/// uninstrumented — observability is a coordinator-side concern,
/// matching the simulator's engine hook). `shards = g.n()` is the
/// paper's one-processor-per-node layout; `shards = 1` runs the whole
/// network in one worker with a one-participant barrier. Results are
/// bit-identical to the simulator for every shard count.
pub fn run_threads<P: Protocol>(
    g: &WGraph,
    cfg: &TransportConfig,
    budget: Round,
    shards: usize,
    make: impl FnMut(NodeId) -> P,
    rec: &mut dyn Recorder,
) -> Result<TransportRun<P>, TransportError> {
    run_on_threads(
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

/// Run a protocol over the thread backend with the full crash-fault
/// control plane: checkpointing at `cfg.checkpoint_cadence`, failure
/// detection on a `deadline` per barrier, scripted chaos from
/// `cfg.chaos`, and coordinator-mediated recovery. A scripted kill
/// takes a whole worker (and every node it hosts) down; checkpoints and
/// replay streams are per worker. A recoverable run returns the same
/// [`TransportRun`] a fault-free one does — with distances and
/// statistics bit-identical to the simulator's. An unrecoverable one
/// terminates (no hangs: every wait in the system is bounded by
/// `deadline`-derived budgets) with a [`PartialRun`] that accounts for
/// every node on a lost worker.
pub fn run_threads_chaos<P>(
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
    let worker = |map: &ShardMap, sid, nodes, ep: &mut ChannelNode<P::Msg>| {
        shard_main_recoverable(map, sid, g, cfg, nodes, ep)
    };
    run_on_threads(g, cfg, budget, shards, Some(deadline), make, rec, worker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::merge_report;
    use dw_congest::{EngineConfig, Network, NodeCtx, NullRecorder, Outbox};
    use dw_graph::gen::{self, WeightDist};

    /// Hop-count flood from node 0; each node announces its distance
    /// once.
    #[derive(Clone)]
    struct Flood {
        dist: Option<u64>,
        announced: bool,
    }

    impl Protocol for Flood {
        type Msg = u64;
        fn init(&mut self, ctx: &NodeCtx) {
            if ctx.id == 0 {
                self.dist = Some(0);
            }
        }
        fn send(&mut self, _round: Round, _ctx: &NodeCtx, out: &mut Outbox<u64>) {
            if let (Some(d), false) = (self.dist, self.announced) {
                out.broadcast(d);
                self.announced = true;
            }
        }
        fn receive(&mut self, _round: Round, inbox: &[dw_congest::Envelope<u64>], _ctx: &NodeCtx) {
            for env in inbox {
                let cand = env.msg() + 1;
                if self.dist.is_none_or(|d| cand < d) {
                    self.dist = Some(cand);
                    self.announced = false;
                }
            }
        }
    }

    impl Checkpointable for Flood {
        fn snapshot(&self, out: &mut Vec<u8>) {
            self.dist.encode(out);
            self.announced.encode(out);
        }
        fn restore(&mut self, buf: &mut &[u8]) -> Option<()> {
            self.dist = Option::<u64>::decode(buf)?;
            self.announced = bool::decode(buf)?;
            Some(())
        }
    }

    fn new_flood(_v: NodeId) -> Flood {
        Flood {
            dist: None,
            announced: false,
        }
    }

    fn unwrap_run<P>(r: Result<TransportRun<P>, TransportError>) -> TransportRun<P> {
        match r {
            Ok(run) => run,
            Err(e) => panic!("transport run failed: {e}"),
        }
    }

    #[test]
    fn threads_match_simulator_on_flood() {
        let g = gen::gnp_connected(24, 0.15, false, WeightDist::Constant(1), 11);
        let mut net = Network::new(&g, EngineConfig::default(), new_flood);
        let sim_outcome = net.run(200);
        let sim_stats = net.stats();
        let sim_dists: Vec<_> = net.nodes().map(|f| f.dist).collect();

        let run = unwrap_run(run_threads(
            &g,
            &TransportConfig::default(),
            200,
            g.n(),
            new_flood,
            &mut NullRecorder,
        ));
        let dists: Vec<_> = run.nodes.iter().map(|f| f.dist).collect();
        assert_eq!(run.outcome, sim_outcome);
        assert_eq!(dists, sim_dists);
        assert_eq!(run.stats, sim_stats);
    }

    #[test]
    fn threads_match_simulator_under_faults() {
        let g = gen::gnp_connected(16, 0.2, false, WeightDist::Constant(1), 7);
        let faults = dw_congest::FaultPlan::new(42)
            .with_drop(0.1)
            .with_duplicate(0.05)
            .with_delay(0.1, 4);
        let engine = EngineConfig {
            faults: Some(faults.clone()),
            ..EngineConfig::default()
        };
        let mut net = Network::new(&g, engine, new_flood);
        let sim_outcome = net.run(300);
        let sim_stats = net.stats();
        let sim_dists: Vec<_> = net.nodes().map(|f| f.dist).collect();

        let cfg = TransportConfig {
            faults: Some(faults),
            ..TransportConfig::default()
        };
        let run = unwrap_run(run_threads(
            &g,
            &cfg,
            300,
            g.n(),
            new_flood,
            &mut NullRecorder,
        ));
        let dists: Vec<_> = run.nodes.iter().map(|f| f.dist).collect();
        assert_eq!(run.outcome, sim_outcome);
        assert_eq!(dists, sim_dists);
        assert_eq!(run.stats, sim_stats, "fault tallies must agree too");
    }

    /// Node 0 broadcasts once, in round 1000; nothing else ever sends.
    struct LateSender {
        sent: bool,
    }

    impl Protocol for LateSender {
        type Msg = u64;
        fn send(&mut self, round: Round, ctx: &NodeCtx, out: &mut Outbox<u64>) {
            if round == 1000 && ctx.id == 0 && !self.sent {
                self.sent = true;
                out.broadcast(7);
            }
        }
        fn receive(&mut self, _r: Round, _i: &[dw_congest::Envelope<u64>], _c: &NodeCtx) {}
        fn earliest_send(&self, after: Round, ctx: &NodeCtx) -> Option<Round> {
            (ctx.id == 0 && !self.sent).then_some(after.max(1000))
        }
    }

    /// A `Round::MAX` budget through `coordinate` runs to quiescence
    /// exactly as a bounded one: the fast-forward's jump target must not
    /// overflow past it.
    #[test]
    fn unbounded_budget_fast_forwards_like_a_bounded_one() {
        let g = gen::path(3, false, WeightDist::Constant(1), 0);
        let run = |budget| {
            let late = |_| LateSender { sent: false };
            let cfg = TransportConfig::default();
            unwrap_run(run_threads(&g, &cfg, budget, 2, late, &mut NullRecorder))
        };
        let unbounded = run(Round::MAX);
        assert_eq!(unbounded.outcome, RunOutcome::Quiet);
        assert_eq!(
            unbounded.stats.messages, 1,
            "the round-1000 message was sent"
        );
        let bounded = run(5000);
        assert_eq!(bounded.outcome, RunOutcome::Quiet);
        assert_eq!(unbounded.stats, bounded.stats);
    }

    #[test]
    fn budget_exhaustion_matches() {
        let g = gen::path(6, false, WeightDist::Constant(1), 0);
        let mut net = Network::new(&g, EngineConfig::default(), new_flood);
        let sim_outcome = net.run(2);
        let run = unwrap_run(run_threads(
            &g,
            &TransportConfig::default(),
            2,
            g.n(),
            new_flood,
            &mut NullRecorder,
        ));
        assert_eq!(run.outcome, sim_outcome);
        assert_eq!(run.outcome, RunOutcome::BudgetExhausted);
        assert_eq!(run.stats, net.stats());
    }

    fn sim_reference(g: &WGraph, budget: Round) -> (RunOutcome, RunStats, Vec<Option<u64>>) {
        let mut net = Network::new(g, EngineConfig::default(), new_flood);
        let outcome = net.run(budget);
        let stats = net.stats();
        let dists = net.nodes().map(|f| f.dist).collect();
        (outcome, stats, dists)
    }

    #[test]
    fn chaos_kill_with_recovery_is_bit_identical_to_simulator() {
        let g = gen::gnp_connected(16, 0.2, false, WeightDist::Constant(1), 7);
        let (sim_outcome, sim_stats, sim_dists) = sim_reference(&g, 300);

        let cfg = TransportConfig {
            checkpoint_cadence: Some(2),
            chaos: Some(ChaosPlan::new(1).with_kill(3, 2)),
            ..TransportConfig::default()
        };
        let run = run_threads_chaos(
            &g,
            &cfg,
            300,
            g.n(),
            Duration::from_millis(150),
            new_flood,
            &mut NullRecorder,
        );
        let run = match run {
            Ok(run) => run,
            Err(p) => panic!("chaos run did not recover: {}", p.error),
        };
        let dists: Vec<_> = run.nodes.iter().map(|f| f.dist).collect();
        assert_eq!(run.outcome, sim_outcome);
        assert_eq!(
            dists, sim_dists,
            "recovered distances must be bit-identical"
        );
        assert_eq!(
            run.stats, sim_stats,
            "replayed rounds must not double-count any counter"
        );
    }

    #[test]
    fn chaos_kill_under_message_faults_recovers_bit_identically() {
        let g = gen::gnp_connected(12, 0.25, false, WeightDist::Constant(1), 5);
        let faults = dw_congest::FaultPlan::new(42)
            .with_drop(0.1)
            .with_duplicate(0.05)
            .with_delay(0.1, 4);
        let engine = EngineConfig {
            faults: Some(faults.clone()),
            ..EngineConfig::default()
        };
        let mut net = Network::new(&g, engine, new_flood);
        let sim_outcome = net.run(300);
        let sim_stats = net.stats();
        let sim_dists: Vec<_> = net.nodes().map(|f| f.dist).collect();

        let cfg = TransportConfig {
            faults: Some(faults),
            checkpoint_cadence: Some(3),
            chaos: Some(ChaosPlan::new(9).with_kill(5, 4)),
        };
        let run = run_threads_chaos(
            &g,
            &cfg,
            300,
            g.n(),
            Duration::from_millis(150),
            new_flood,
            &mut NullRecorder,
        );
        let run = match run {
            Ok(run) => run,
            Err(p) => panic!("chaos run did not recover: {}", p.error),
        };
        let dists: Vec<_> = run.nodes.iter().map(|f| f.dist).collect();
        assert_eq!(run.outcome, sim_outcome);
        assert_eq!(dists, sim_dists);
        assert_eq!(
            run.stats, sim_stats,
            "fault tallies must survive a crash-replay cycle"
        );
    }

    #[test]
    fn chaos_kill_without_checkpointing_terminates_with_partial_run() {
        let g = gen::gnp_connected(10, 0.3, false, WeightDist::Constant(1), 3);
        let cfg = TransportConfig {
            checkpoint_cadence: None, // no checkpoints -> unrecoverable
            chaos: Some(ChaosPlan::new(2).with_kill(4, 2)),
            ..TransportConfig::default()
        };
        let partial = match run_threads_chaos(
            &g,
            &cfg,
            200,
            g.n(),
            Duration::from_millis(60),
            new_flood,
            &mut NullRecorder,
        ) {
            Ok(_) => panic!("an uncheckpointed kill must not produce a full run"),
            Err(p) => p,
        };
        assert_eq!(partial.failed, vec![4]);
        assert!(matches!(
            partial.error,
            TransportError::Unrecoverable { .. }
        ));
        assert!(partial.round >= 2);
        let salvaged = partial.nodes.iter().filter(|n| n.is_some()).count();
        assert!(
            salvaged >= g.n() - 1,
            "survivors' states must be salvaged, got {salvaged}"
        );
    }

    #[test]
    fn sharded_chaos_kill_recovers_bit_identical() {
        let g = gen::gnp_connected(16, 0.2, false, WeightDist::Constant(1), 7);
        let (sim_outcome, sim_stats, sim_dists) = sim_reference(&g, 300);

        // Kill node 5 at round 2: with P=4 on n=16 each worker hosts 4
        // nodes, so the kill takes a whole multi-node shard down. The
        // rejoin must restore all four hosted nodes from one shard
        // checkpoint plus the peers' replayed cross-shard batches.
        let cfg = TransportConfig {
            checkpoint_cadence: Some(2),
            chaos: Some(ChaosPlan::new(1).with_kill(5, 2)),
            ..TransportConfig::default()
        };
        let run = run_threads_chaos(
            &g,
            &cfg,
            300,
            4,
            Duration::from_millis(150),
            new_flood,
            &mut NullRecorder,
        );
        let run = match run {
            Ok(run) => run,
            Err(p) => panic!("sharded chaos run did not recover: {}", p.error),
        };
        let dists: Vec<_> = run.nodes.iter().map(|f| f.dist).collect();
        assert_eq!(run.outcome, sim_outcome);
        assert_eq!(
            dists, sim_dists,
            "recovered multi-node shard must be bit-identical"
        );
        assert_eq!(
            run.stats, sim_stats,
            "whole-shard replay must not double-count any counter"
        );
    }

    #[test]
    fn sharded_uncheckpointed_kill_blames_the_whole_shard() {
        let g = gen::gnp_connected(16, 0.2, false, WeightDist::Constant(1), 7);
        let map = ShardMap::new(16, 4);
        let cfg = TransportConfig {
            checkpoint_cadence: None, // no checkpoints -> unrecoverable
            chaos: Some(ChaosPlan::new(2).with_kill(5, 2)),
            ..TransportConfig::default()
        };
        let partial = match run_threads_chaos(
            &g,
            &cfg,
            200,
            4,
            Duration::from_millis(60),
            new_flood,
            &mut NullRecorder,
        ) {
            Ok(_) => panic!("an uncheckpointed shard kill must not produce a full run"),
            Err(p) => p,
        };
        // Node 5 lives on shard 1; the kill takes the whole worker, so
        // the PartialRun must account for every node that shard hosted.
        let victim = map.shard_of(5);
        let lost: Vec<NodeId> = map.nodes(victim).collect();
        assert_eq!(partial.failed, lost, "the whole hosted block is blamed");
        assert!(matches!(
            partial.error,
            TransportError::Unrecoverable { .. }
        ));
        for v in 0..16u32 {
            if map.shard_of(v) == victim {
                assert!(
                    partial.nodes[v as usize].is_none(),
                    "node {v} on the killed shard must not be salvaged"
                );
            } else {
                assert!(
                    partial.nodes[v as usize].is_some(),
                    "survivor {v} must be salvaged"
                );
            }
        }
    }

    #[test]
    fn chaos_sever_terminates_with_partial_run() {
        let g = gen::gnp_connected(10, 0.3, false, WeightDist::Constant(1), 3);
        let Some(&peer) = g.comm_neighbors(1).first() else {
            panic!("node 1 has no neighbors in this fixture");
        };
        let cfg = TransportConfig {
            checkpoint_cadence: Some(2),
            chaos: Some(ChaosPlan::new(2).with_sever(1, peer, 3)),
            ..TransportConfig::default()
        };
        let partial = match run_threads_chaos(
            &g,
            &cfg,
            200,
            g.n(),
            Duration::from_millis(60),
            new_flood,
            &mut NullRecorder,
        ) {
            Ok(_) => panic!("a severed link must not produce a full run"),
            Err(p) => p,
        };
        assert_eq!(partial.failed, vec![1], "the reporting endpoint is blamed");
        assert!(matches!(
            partial.error,
            TransportError::Unrecoverable { .. }
        ));
    }

    #[test]
    fn chaos_coordinator_stall_is_bit_identical_to_simulator() {
        let g = gen::gnp_connected(12, 0.25, false, WeightDist::Constant(1), 5);
        let (sim_outcome, sim_stats, sim_dists) = sim_reference(&g, 200);
        let cfg = TransportConfig {
            checkpoint_cadence: Some(4),
            chaos: Some(ChaosPlan::new(3).with_stall(2, 40)),
            ..TransportConfig::default()
        };
        let run = run_threads_chaos(
            &g,
            &cfg,
            200,
            g.n(),
            Duration::from_millis(300),
            new_flood,
            &mut NullRecorder,
        );
        let run = match run {
            Ok(run) => run,
            Err(p) => panic!("a stalled coordinator must not fail the run: {}", p.error),
        };
        let dists: Vec<_> = run.nodes.iter().map(|f| f.dist).collect();
        assert_eq!(run.outcome, sim_outcome);
        assert_eq!(dists, sim_dists);
        assert_eq!(run.stats, sim_stats);
    }

    #[test]
    fn chaos_recovery_emits_obs_events() {
        let g = gen::gnp_connected(16, 0.2, false, WeightDist::Constant(1), 7);
        let cfg = TransportConfig {
            checkpoint_cadence: Some(2),
            chaos: Some(ChaosPlan::new(1).with_kill(3, 2)),
            ..TransportConfig::default()
        };
        let mut rec = dw_congest::ObsRecorder::new();
        let run = run_threads_chaos(
            &g,
            &cfg,
            300,
            g.n(),
            Duration::from_millis(150),
            new_flood,
            &mut rec,
        );
        assert!(run.is_ok(), "recovery expected");
        let recording = rec.into_recording();
        let names: Vec<&str> = recording.events.iter().map(|e| e.name).collect();
        for expected in [
            "checkpoint.stored",
            "failure.suspect",
            "failure.crash",
            "recovery.rejoin",
            "recovery.done",
        ] {
            assert!(
                names.contains(&expected),
                "missing obs event {expected}, got {names:?}"
            );
        }
    }

    #[test]
    fn fault_free_chaos_path_is_bit_identical_with_checkpoints_on() {
        // Checkpointing alone (no chaos) must not perturb the run.
        let g = gen::gnp_connected(14, 0.2, false, WeightDist::Constant(1), 13);
        let (sim_outcome, sim_stats, sim_dists) = sim_reference(&g, 200);
        let cfg = TransportConfig {
            checkpoint_cadence: Some(3),
            ..TransportConfig::default()
        };
        let run = run_threads_chaos(
            &g,
            &cfg,
            200,
            g.n(),
            Duration::from_millis(200),
            new_flood,
            &mut NullRecorder,
        );
        let run = match run {
            Ok(run) => run,
            Err(p) => panic!("fault-free chaos run failed: {}", p.error),
        };
        let dists: Vec<_> = run.nodes.iter().map(|f| f.dist).collect();
        assert_eq!(run.outcome, sim_outcome);
        assert_eq!(dists, sim_dists);
        assert_eq!(run.stats, sim_stats);
    }

    #[test]
    fn merge_report_is_single_count_per_node() {
        // The coordinator folds exactly one Final per node; a rejoined
        // node's report reflects re-derived (not double) counters, so
        // merging the same report once vs a run with recovery must
        // agree. This pins the merge arithmetic itself.
        let mut stats = RunStats::default();
        let r = NodeReport {
            node_sends: 2,
            messages: 5,
            total_words: 7,
            max_link_load: 3,
            dropped: 1,
            outage_dropped: 0,
            duplicated: 2,
            delayed: 1,
            late_delivered: 1,
        };
        merge_report(&mut stats, &r);
        assert_eq!(stats.messages, 5);
        assert_eq!(stats.total_words, 7);
        assert_eq!(stats.max_link_load, 3);
        assert_eq!(stats.max_node_sends, 2);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.duplicated, 2);
        assert_eq!(stats.delayed, 1);
        assert_eq!(stats.late_delivered, 1);
        let mut twice = RunStats::default();
        merge_report(&mut twice, &r);
        merge_report(&mut twice, &r);
        assert_eq!(
            twice.messages, 10,
            "merging twice doubles sums — which is why the coordinator \
             accepts exactly one Final per node"
        );
    }
}
