//! The worker: one process (or thread) hosting a contiguous block of
//! protocol nodes and driving them through the coordinator's rounds.
//!
//! This is the only worker plane. The paper's literal model — one
//! processor per node — is the layout `P = n`: n workers hosting one
//! node each. Every other shard count runs the same loop and amortizes
//! the per-round cost three ways:
//!
//! * **intra-shard links never hit the wire** — messages between two
//!   hosted nodes go straight into the receiver's per-rank buffers,
//!   exactly like the simulator's in-memory delivery;
//! * **cross-shard frames are coalesced** — everything one shard emits
//!   toward one peer shard in one round travels as a single
//!   [`Frame::RoundBatch`], closed by a single [`Frame::EndRound`]
//!   marker per shard *pair* (not per node link);
//! * **the coordinator barrier shrinks** — P shards report one `Done`
//!   each, and [`crate::coordinator::coordinate`] aggregates them.
//!
//! [`shard_main`] runs against any [`NodeEndpoint`] — an in-process
//! channel pair or a bundle of TCP sockets.
//! Rounds are driven by the coordinator's `Go`/`Stop` control messages;
//! within a round the worker replicates the simulator's phase order and
//! delivery order *exactly*, which is what the conformance suite checks:
//!
//! 1. deliver the held messages (delay faults, partitions awaiting
//!    their heal round, bandwidth-cap spill) parked on the shard whose
//!    due round has arrived (due-round then arrival order — the simulator's
//!    `BTreeMap` pop order);
//! 2. send phase, due nodes only, in id order (the simulator's loop
//!    order): the worker keeps the simulator's active-set schedule
//!    (DESIGN.md §7) — one [`Schedule`] over the hosted nodes — and
//!    polls the nodes whose round has come, which
//!    under the `earliest_send` contract are the only ones that can
//!    send; each poll validates CONGEST constraints in the shared
//!    [`NodeRunner`], evaluates the fault plan sender-side (the one
//!    [`FaultPlan::decide`], against the shard's own cap buckets),
//!    delivers intra-shard messages in place and batches cross-shard
//!    ones;
//! 3. ship one batch and one [`Frame::EndRound`] marker per peer shard;
//! 4. collect frames until every peer shard's marker is in (per-link
//!    FIFO makes the marker a completeness proof), appending entries to
//!    the destination node's inbox and listing it as touched;
//! 5. stable-sort each touched inbox by sender — one sender's messages
//!    keep their emission order, so this is the simulator's delivery
//!    order;
//! 6. receive phase for the touched nodes only;
//! 7. re-query `earliest_send` for the polled and touched nodes (no
//!    other node's state changed), then one `Done` with the summed send
//!    and late counts, the cached schedule's minimum as the hint and the
//!    first parked due round — everything the coordinator needs to
//!    replicate the simulator's `run` loop.
//!
//! Bit-identity with the simulator holds for every P because every
//! reduction the coordinator performs is associative: `Done` sums
//! `sent`/`late` and minimizes the schedule hints, and `merge_report`
//! sums or maxes the counters, so P pre-aggregated shard reports reduce
//! to the same [`dw_congest::RunStats`] as n per-node ones. The
//! conformance suite checks P ∈ {1, 2, ⌈n/3⌉, n}.
//!
//! Every runtime fault propagates as a [`TransportError`] value — no
//! panic on any error path. [`shard_main_recoverable`] adds the
//! crash-fault side of DESIGN.md §10 at shard granularity: the whole
//! shard checkpoints as one snapshot at a round cadence, replay buffers
//! hold *cross-shard* traffic only (intra-shard traffic is re-derived by
//! re-executing the hosted nodes together), liveness pings are
//! answered, and a worker killed by a [`crate::chaos::ChaosPlan`]
//! rejoins by restoring every hosted node from the shard snapshot,
//! rebuilding the schedule from the restored states, and replaying
//! peer-shard [`Frame::BatchReplay`] batches.

use crate::chaos::ChaosPlan;
use crate::error::TransportError;
use crate::wire::{abort_reason, errkind, BatchEntry, CtlMsg, Event, Frame, NodeReport};
use dw_congest::{
    CapBuckets, Checkpointable, Envelope, FaultAction, FaultPlan, NodeRunner, Protocol, Round,
    RunOutcome, Schedule, SendSink, WireCodec,
};
use dw_graph::{NodeId, WGraph};
use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;

/// One worker's view of the transport: typed sends to peer workers and
/// the coordinator, and a single blocking event stream multiplexing
/// both. Peers are addressed by shard id (= node id at `P = n`).
///
/// Implementations must preserve per-link FIFO order (frames from one
/// peer arrive in send order) — both transports here do: an mpsc
/// channel and a TCP connection. Every method is
/// fallible: a dead channel or socket is a runtime fault, not a panic.
pub trait NodeEndpoint<M> {
    /// Send a frame to adjacent worker `to`.
    fn send_peer(&mut self, to: NodeId, frame: Frame<M>) -> Result<(), TransportError>;
    /// Send a control message to the coordinator.
    fn send_ctl(&mut self, msg: CtlMsg) -> Result<(), TransportError>;
    /// Block until the next event (peer frame or control message).
    fn recv(&mut self) -> Result<Event<M>, TransportError>;
}

/// How the runtime perturbs message passing; the transport-relevant
/// subset of [`dw_congest::EngineConfig`] plus the crash-fault knobs.
/// The word budget is [`dw_congest::MAX_WORDS`], as in the simulator.
#[derive(Debug, Clone, Default)]
pub struct TransportConfig {
    /// Deterministic link faults — the seeded mix, outages, partitions,
    /// bandwidth caps — evaluated sender-side by the one
    /// [`FaultPlan::decide`] the simulator runs. Each decision is a pure
    /// function of `(sender, receiver, round, seed)` plus, on a capped
    /// link, the sending worker's own bucket, so a transport run makes
    /// exactly the decisions the simulator makes.
    pub faults: Option<FaultPlan>,
    /// Checkpoint every this-many *executed* rounds (the schedule is
    /// global — all workers execute the same rounds — so cadence
    /// windows align across workers). `None` disables checkpointing and
    /// replay buffering, making crashes unrecoverable.
    pub checkpoint_cadence: Option<u64>,
    /// Scripted process-level faults (see [`ChaosPlan`]): kills and
    /// severs, honored only by [`shard_main_recoverable`], and
    /// coordinator stalls. Link faults belong in `faults`.
    pub chaos: Option<ChaosPlan>,
}

impl From<&dw_congest::EngineConfig> for TransportConfig {
    fn from(cfg: &dw_congest::EngineConfig) -> Self {
        TransportConfig {
            faults: cfg.faults.clone(),
            checkpoint_cadence: None,
            chaos: None,
        }
    }
}

/// Receiver-side counters a hosted node accumulates outside its
/// [`NodeRunner`] (which owns the send-side counters).
#[derive(Default, Clone)]
struct LocalTally {
    dropped: u64,
    outage_dropped: u64,
    duplicated: u64,
    delayed: u64,
    late_delivered: u64,
}

impl LocalTally {
    fn encode(&self, out: &mut Vec<u8>) {
        self.dropped.encode(out);
        self.outage_dropped.encode(out);
        self.duplicated.encode(out);
        self.delayed.encode(out);
        self.late_delivered.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(LocalTally {
            dropped: u64::decode(buf)?,
            outage_dropped: u64::decode(buf)?,
            duplicated: u64::decode(buf)?,
            delayed: u64::decode(buf)?,
            late_delivered: u64::decode(buf)?,
        })
    }
}

/// The shard layout: a balanced contiguous partition of `0..n` into
/// `P` blocks, shared by every worker and the coordinator. Shard `s`
/// owns `[s*n/P, (s+1)*n/P)`, so the concatenation of all shards in
/// shard-id order is exactly node-id order — the property that lets
/// sharded results be compared (and returned) positionally.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// Block boundaries; `starts[s]..starts[s + 1]` is shard `s`.
    starts: Vec<NodeId>,
}

impl ShardMap {
    /// Partition `n` nodes into `shards` blocks. The count is clamped
    /// to `[1, n]`: one worker per node is the finest layout that
    /// exists, and at least one shard must host everything.
    pub fn new(n: usize, shards: usize) -> ShardMap {
        let p = shards.clamp(1, n.max(1));
        let starts = (0..=p).map(|s| ((s * n) / p) as NodeId).collect();
        ShardMap { starts }
    }

    pub fn shards(&self) -> usize {
        self.starts.len() - 1
    }

    pub fn n(&self) -> usize {
        *self.starts.last().expect("non-empty starts") as usize
    }

    /// The shard that owns node `v`.
    pub fn shard_of(&self, v: NodeId) -> NodeId {
        debug_assert!((v as usize) < self.n(), "node {v} outside the layout");
        (self.starts.partition_point(|&s| s <= v) - 1) as NodeId
    }

    /// The node-id block shard `s` owns.
    pub fn nodes(&self, s: NodeId) -> std::ops::Range<NodeId> {
        self.starts[s as usize]..self.starts[s as usize + 1]
    }

    /// Shard `s`'s sorted peer shards: shard `t` is listed iff some comm
    /// link of `g` crosses between `s` and `t`.
    pub fn peer_shards(&self, g: &WGraph, s: NodeId) -> Vec<NodeId> {
        let mut peers: Vec<NodeId> = self
            .nodes(s)
            .flat_map(|v| g.comm_neighbors(v).iter().copied())
            .map(|v| self.shard_of(v))
            .filter(|&t| t != s)
            .collect();
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    /// Every shard's [`ShardMap::peer_shards`] list. This is the comm
    /// topology of the worker plane — markers, batches and the
    /// coordinator's recovery neighbor sets all follow it.
    pub fn shard_adjacency(&self, g: &WGraph) -> Vec<Vec<NodeId>> {
        (0..self.shards() as NodeId)
            .map(|s| self.peer_shards(g, s))
            .collect()
    }
}

/// One due round's parked delayed messages `(to, from, msg)` in
/// snapshot wire form.
type ParkedBatch<M> = (Round, Vec<(NodeId, NodeId, M)>);

/// A cross-shard replay record: `(emission round, entry)`.
type ShardReplayRecord<M> = (Round, BatchEntry<M>);

/// One hosted node's private state inside a [`ShardWorker`]. Its inbox
/// lives in the shard's [`Mailboxes`] so the send phase can borrow one
/// node's runner and every node's inbox disjointly.
struct NodeState<P: Protocol> {
    runner: NodeRunner<P>,
    tally: LocalTally,
}

/// Every hosted node's incoming mail. An inbox fills in arrival order
/// and is stable-sorted by sender before its receive, which reproduces
/// the simulator's sender-order delivery (one sender's messages keep
/// their emission order). `touched` lists the nodes whose inbox went
/// non-empty this round — the receive phase walks those only.
struct Mailboxes<M> {
    base: NodeId,
    inboxes: Vec<Vec<Envelope<M>>>,
    touched: Vec<u32>,
    /// Held messages `(to, from, msg)` (delay faults, partitions
    /// awaiting their heal round, bandwidth-cap spill) parked until
    /// their due round, in arrival order within a round.
    parked: BTreeMap<Round, Vec<(NodeId, NodeId, M)>>,
}

impl<M> Mailboxes<M> {
    fn push(&mut self, from: NodeId, to: NodeId, msg: M) {
        let local = (to - self.base) as usize;
        if self.inboxes[local].is_empty() {
            self.touched.push(local as u32);
        }
        self.inboxes[local].push(Envelope::new(from, msg));
    }

    fn deliver(&mut self, round: Round, from: NodeId, to: NodeId, due: Round, msg: M) {
        if due == round {
            self.push(from, to, msg);
        } else {
            self.parked.entry(due).or_default().push((to, from, msg));
        }
    }
}

/// The transport [`SendSink`]: evaluates the fault plan at the sender
/// and delivers what survives, split by destination shard. A dropped
/// message occupies the link (the runner already charged it) but goes
/// nowhere; a held message travels immediately, stamped with its due
/// round, and is parked at the *receiver* — keeping the wire
/// round-synchronous so end-of-round markers stay a completeness proof.
/// Intra-shard messages land directly in the receiver's mailbox (even
/// when `emit` is off — a replayed round must re-deliver locally,
/// because the receivers lost their state too); cross-shard messages
/// are appended to the per-peer-shard batch (wire emission, gated by
/// `emit`) and the replay log (always, so a rejoined shard can serve
/// its own neighbors later).
struct ShardSink<'a, M> {
    map: &'a ShardMap,
    shard: NodeId,
    peer_shards: &'a [NodeId],
    /// Consulted on intra-shard links too: a partition separates
    /// *nodes*, and two nodes in one process are still two CONGEST
    /// endpoints.
    faults: Option<&'a FaultPlan>,
    buckets: &'a mut CapBuckets,
    tally: &'a mut LocalTally,
    round: Round,
    emit: bool,
    mail: &'a mut Mailboxes<M>,
    batches: &'a mut [Vec<BatchEntry<M>>],
    replay: Option<&'a mut Vec<Vec<ShardReplayRecord<M>>>>,
}

impl<M: Clone> ShardSink<'_, M> {
    fn put(&mut self, u: NodeId, v: NodeId, due: Round, msg: M) {
        let sv = self.map.shard_of(v);
        if sv == self.shard {
            self.mail.deliver(self.round, u, v, due, msg);
        } else {
            let ps = self
                .peer_shards
                .binary_search(&sv)
                .expect("cross-shard link within the shard adjacency");
            let entry = BatchEntry {
                from: u,
                to: v,
                due,
                msg,
            };
            if let Some(replay) = self.replay.as_deref_mut() {
                replay[ps].push((self.round, entry.clone()));
            }
            if self.emit {
                self.batches[ps].push(entry);
            }
        }
    }

    fn dispatch(&mut self, u: NodeId, v: NodeId, msg: M, words: usize) {
        let round = self.round;
        let Some(plan) = self.faults else {
            self.put(u, v, round, msg);
            return;
        };
        match plan.decide(u, v, round, words, self.buckets) {
            FaultAction::Deliver { due, duplicate } => {
                if duplicate {
                    self.tally.duplicated += 1;
                    self.put(u, v, due, msg.clone());
                }
                if due > round {
                    self.tally.delayed += 1;
                }
                self.put(u, v, due, msg);
            }
            FaultAction::Drop => self.tally.dropped += 1,
            FaultAction::OutageDrop => self.tally.outage_dropped += 1,
        }
    }
}

impl<M: Clone> SendSink<M> for ShardSink<'_, M> {
    fn unicast(&mut self, from: NodeId, _rank: usize, to: NodeId, msg: M, words: usize) {
        self.dispatch(from, to, msg, words);
    }
    fn broadcast(&mut self, from: NodeId, nbrs: &[NodeId], msg: M, words: usize) {
        for &v in nbrs {
            self.dispatch(from, v, msg.clone(), words);
        }
    }
}

/// A worker failure: the typed fault plus every hosted node's protocol
/// state when the wreckage still holds it — an aborted worker holds a
/// valid prefix of the computation (its distances are sound upper
/// bounds), which is what dw-pipeline degrades into a `PartialOutcome`.
#[derive(Debug)]
pub struct ShardError<P> {
    pub error: TransportError,
    pub nodes: Option<Vec<P>>,
}

/// All of one shard worker's mutable state, shared by the plain and
/// the recoverable drive loops.
struct ShardWorker<'g, P: Protocol> {
    shard: NodeId,
    base: NodeId,
    g: &'g WGraph,
    map: &'g ShardMap,
    cfg: &'g TransportConfig,
    nodes: Vec<NodeState<P>>,
    mail: Mailboxes<P::Msg>,
    /// The fault plan's bandwidth-cap state for the links this shard's
    /// nodes send on. Each directed link has exactly one sending shard,
    /// so the shards' buckets together are the simulator's; they ride in
    /// the snapshot so a crash re-execution replays identical spill
    /// decisions.
    buckets: CapBuckets,
    /// The active-set schedule over local slots (DESIGN.md §7). A round
    /// polls the due nodes only.
    schedule: Schedule,
    /// This round's polled nodes (scratch).
    polled: Vec<u32>,
    /// Sorted peer shards (shards sharing at least one comm link).
    peer_shards: Vec<NodeId>,
    /// This round's outgoing cross-shard batches, per peer-shard rank.
    batches: Vec<Vec<BatchEntry<P::Msg>>>,
    /// Cross-shard emitted-frame log per peer-shard rank, for replaying
    /// to crashed peers. `None` when checkpointing is off.
    replay: Option<Vec<Vec<ShardReplayRecord<P::Msg>>>>,
    /// Frames that raced ahead of the control plane: a peer may start
    /// (and finish) sending for round r while we are still waiting for
    /// our own Go(r). Nothing can run further ahead than that — the
    /// coordinator only issues Go(r + 1) after *our* Done(r) — so every
    /// stashed frame belongs to the round we are about to execute.
    stash: VecDeque<(NodeId, Frame<P::Msg>)>,
    /// Executed-round count — the checkpoint cadence clock. Identical
    /// on every worker because the round schedule is global.
    executed: u64,
    /// Round of the most recent checkpoint.
    last_checkpoint: Round,
    /// The checkpoint before that: the replay-buffer prune floor. Kept
    /// one window back so a rejoin against the previous checkpoint
    /// (should the latest one still be in flight) stays serviceable.
    prev_checkpoint: Round,
    /// Last `Go` round seen; reported in `Pong`s for diagnostics.
    current_round: Round,
    /// True from the moment a scripted crash discards the shard's state
    /// until the rejoin fully restores it. Fail-stop: a worker that
    /// errors out in this window has no node state worth salvaging.
    state_lost: bool,
}

impl<'g, P: Protocol> ShardWorker<'g, P> {
    /// Wrap the hosted nodes; [`ShardWorker::start`] runs their `init`.
    fn new(
        map: &'g ShardMap,
        shard: NodeId,
        g: &'g WGraph,
        cfg: &'g TransportConfig,
        nodes: Vec<P>,
        buffered: bool,
    ) -> Self {
        let range = map.nodes(shard);
        let base = range.start;
        assert_eq!(
            nodes.len(),
            range.len(),
            "shard {shard} hosts {} nodes, got {}",
            range.len(),
            nodes.len()
        );
        let peer_shards = map.peer_shards(g, shard);
        let deg = peer_shards.len();
        let states: Vec<NodeState<P>> = range
            .zip(nodes)
            .map(|(id, node)| NodeState {
                runner: NodeRunner::new(id, g, node),
                tally: LocalTally::default(),
            })
            .collect();
        let hosted = states.len();
        ShardWorker {
            shard,
            base,
            g,
            map,
            cfg,
            nodes: states,
            mail: Mailboxes {
                base,
                inboxes: (0..hosted).map(|_| Vec::new()).collect(),
                touched: Vec::new(),
                parked: BTreeMap::new(),
            },
            buckets: CapBuckets::default(),
            schedule: Schedule::default(),
            polled: Vec::new(),
            peer_shards,
            batches: (0..deg).map(|_| Vec::new()).collect(),
            replay: buffered.then(|| (0..deg).map(|_| Vec::new()).collect()),
            stash: VecDeque::new(),
            executed: 0,
            last_checkpoint: 0,
            prev_checkpoint: 0,
            current_round: 0,
            state_lost: false,
        }
    }

    /// Round 0: run every hosted node's `init` and seed the schedule.
    fn start(&mut self) {
        for st in &mut self.nodes {
            st.runner.init(self.g);
        }
        self.schedule.rebuild(self.nodes.len(), |l| {
            self.nodes[l].runner.earliest_send(1, self.g)
        });
    }

    fn peer_rank(&self, from: NodeId) -> Result<usize, TransportError> {
        self.peer_shards.binary_search(&from).map_err(|_| {
            TransportError::protocol(format!(
                "shard {}: frame from non-peer shard {from}",
                self.shard
            ))
        })
    }

    /// Route one cross-shard entry into the destination node's mailbox,
    /// validating that the destination is hosted here, the origin lives
    /// on `from_shard`, and the link exists.
    fn stage_entry(
        &mut self,
        from_shard: NodeId,
        e: BatchEntry<P::Msg>,
        round: Round,
    ) -> Result<(), TransportError> {
        if (e.to as usize) >= self.map.n() || self.map.shard_of(e.to) != self.shard {
            return Err(TransportError::protocol(format!(
                "shard {}: batch entry for non-hosted node {} from shard {from_shard}",
                self.shard, e.to
            )));
        }
        if (e.from as usize) >= self.map.n() || self.map.shard_of(e.from) != from_shard {
            return Err(TransportError::protocol(format!(
                "shard {}: batch entry from node {} not owned by shard {from_shard}",
                self.shard, e.from
            )));
        }
        if self.g.comm_neighbors(e.to).binary_search(&e.from).is_err() {
            return Err(TransportError::protocol(format!(
                "shard {}: batch entry over non-link {} -> {}",
                self.shard, e.from, e.to
            )));
        }
        self.mail.deliver(round, e.from, e.to, e.due, e.msg);
        Ok(())
    }

    /// Resend every cross-shard frame we emitted toward `target` in
    /// rounds after `from_round`, as one batch (the crashed shard's
    /// rejoin input).
    fn serve_replay<E: NodeEndpoint<P::Msg>>(
        &mut self,
        target: NodeId,
        from_round: Round,
        endpoint: &mut E,
    ) -> Result<(), TransportError> {
        let ps = self.peer_rank(target)?;
        let frames: Vec<ShardReplayRecord<P::Msg>> = match &self.replay {
            Some(buf) => buf[ps]
                .iter()
                .filter(|(r, _)| *r > from_round)
                .cloned()
                .collect(),
            None => Vec::new(),
        };
        endpoint.send_peer(target, Frame::BatchReplay { frames })
    }

    /// Wait for the next control message addressed to the drive loop,
    /// stashing racing peer frames, answering pings and serving replay.
    fn wait_ctl<E: NodeEndpoint<P::Msg>>(
        &mut self,
        endpoint: &mut E,
    ) -> Result<CtlMsg, TransportError> {
        loop {
            match endpoint.recv()? {
                Event::Peer { from, frame } => self.stash.push_back((from, frame)),
                Event::Ctl(CtlMsg::Ping) => endpoint.send_ctl(CtlMsg::Pong {
                    round: self.current_round,
                })?,
                Event::Ctl(CtlMsg::ReplayRequest { target, from_round }) => {
                    self.serve_replay(target, from_round, endpoint)?
                }
                Event::Ctl(c) => return Ok(c),
                Event::Lost { from, detail } => {
                    return Err(TransportError::peer_lost(match from {
                        Some(p) => format!("shard {}: link to {p} died: {detail}", self.shard),
                        None => {
                            format!("shard {}: coordinator link died: {detail}", self.shard)
                        }
                    }))
                }
            }
        }
    }

    /// Execute one round: the due nodes send, in node-id order, and the
    /// nodes that got mail receive. `live` controls whether anything
    /// reaches the wire (batches, markers, `Done`); replayed rounds
    /// after a crash run with `live = false`, repeating all fault
    /// decisions and accounting without re-delivering across shards —
    /// intra-shard delivery always happens (local receivers need their
    /// input whether or not the wire is live). `replayed` holds a
    /// rejoin's replay batches: the round's cross-shard input comes from
    /// them instead of the collection loop.
    fn run_round<E: NodeEndpoint<P::Msg>>(
        &mut self,
        round: Round,
        endpoint: &mut E,
        live: bool,
        replayed: Option<&mut [VecDeque<ShardReplayRecord<P::Msg>>]>,
    ) -> Result<(), TransportError> {
        self.current_round = round;

        // --- 1. late deliveries of held messages ---
        let mut late_total = 0u64;
        while let Some(entry) = self.mail.parked.first_entry() {
            if *entry.key() > round {
                break;
            }
            for (to, from, msg) in entry.remove() {
                self.nodes[(to - self.base) as usize].tally.late_delivered += 1;
                self.mail.push(from, to, msg);
                late_total += 1;
            }
        }

        // --- 2. send phase, due nodes only; intra-shard messages are
        //        delivered in place, cross-shard ones accumulate in the
        //        per-peer-shard batches ---
        self.schedule.pop_due(round, &mut self.polled);
        let mut sent_total = 0u64;
        {
            let ShardWorker {
                shard,
                g,
                map,
                cfg,
                nodes,
                mail,
                buckets,
                polled,
                peer_shards,
                batches,
                replay,
                ..
            } = self;
            for &local in polled.iter() {
                let st = &mut nodes[local as usize];
                st.runner.poll_send(round, g);
                let mut sink = ShardSink {
                    map,
                    shard: *shard,
                    peer_shards,
                    faults: cfg.faults.as_ref(),
                    buckets,
                    tally: &mut st.tally,
                    round,
                    emit: live,
                    mail,
                    batches,
                    replay: replay.as_mut(),
                };
                sent_total += st.runner.drain_sends(round, g, &mut sink);
            }
        }

        // --- 3. ship batches and one marker per peer shard ---
        if live {
            for ps in 0..self.peer_shards.len() {
                let peer = self.peer_shards[ps];
                if !self.batches[ps].is_empty() {
                    let entries = std::mem::take(&mut self.batches[ps]);
                    endpoint.send_peer(peer, Frame::RoundBatch { round, entries })?;
                }
                endpoint.send_peer(peer, Frame::EndRound { round })?;
            }
        } else {
            debug_assert!(
                self.batches.iter().all(|b| b.is_empty()),
                "a non-live round staged wire batches"
            );
        }

        // --- 4. collect this round's cross-shard frames (after the
        //        late deliveries, as on the live path) ---
        match replayed {
            Some(batches) => self.prefill_round(batches, round)?,
            None => self.collect_round(round, endpoint)?,
        }

        // --- 5/6. sort and receive the touched inboxes ---
        for &local in &self.mail.touched {
            let inbox = &mut self.mail.inboxes[local as usize];
            inbox.sort_by_key(|e| e.from);
            self.nodes[local as usize]
                .runner
                .receive(round, inbox, self.g);
            inbox.clear();
        }
        self.executed += 1;

        // --- 7. re-query the polled and woken nodes; one barrier report
        //        for the whole shard ---
        self.polled.append(&mut self.mail.touched);
        self.polled.sort_unstable();
        self.polled.dedup();
        for &local in &self.polled {
            let r = self.nodes[local as usize]
                .runner
                .earliest_send(round + 1, self.g);
            self.schedule.set(local, r);
        }
        self.polled.clear();
        if live {
            endpoint.send_ctl(CtlMsg::Done {
                round,
                sent: sent_total,
                late: late_total,
                hint: self.schedule.next_round(),
                pending_due: self.mail.parked.keys().next().copied(),
            })?;
        }
        Ok(())
    }

    /// Stage one round's worth of replay entries into the mailboxes.
    /// Entries per peer shard arrive in emission order, so rounds are
    /// non-decreasing and a front-drain suffices.
    fn prefill_round(
        &mut self,
        batches: &mut [VecDeque<ShardReplayRecord<P::Msg>>],
        round: Round,
    ) -> Result<(), TransportError> {
        for (ps, batch) in batches.iter_mut().enumerate() {
            let from_shard = self.peer_shards[ps];
            while batch.front().is_some_and(|(r, _)| *r == round) {
                let Some((_, entry)) = batch.pop_front() else {
                    break;
                };
                self.stage_entry(from_shard, entry, round)?;
            }
        }
        Ok(())
    }

    /// The collection loop of a live round: pull frames until every
    /// peer shard's end-of-round marker is in, unpacking batch entries
    /// into the destination nodes' mailboxes.
    fn collect_round<E: NodeEndpoint<P::Msg>>(
        &mut self,
        round: Round,
        endpoint: &mut E,
    ) -> Result<(), TransportError> {
        let deg = self.peer_shards.len();
        let mut markers = 0usize;
        while markers < deg {
            let (from, frame) = match self.stash.pop_front() {
                Some(e) => e,
                None => match endpoint.recv()? {
                    Event::Peer { from, frame } => (from, frame),
                    Event::Ctl(CtlMsg::Ping) => {
                        endpoint.send_ctl(CtlMsg::Pong { round })?;
                        continue;
                    }
                    Event::Ctl(CtlMsg::ReplayRequest { target, from_round }) => {
                        self.serve_replay(target, from_round, endpoint)?;
                        continue;
                    }
                    Event::Ctl(CtlMsg::Abort { reason }) => {
                        return Err(TransportError::Aborted {
                            reason: abort_reason::name(reason).to_string(),
                        })
                    }
                    Event::Ctl(other) => {
                        return Err(TransportError::protocol(format!(
                            "shard {}: unexpected control message {other:?} while collecting round {round}",
                            self.shard
                        )))
                    }
                    Event::Lost { from, detail } => {
                        return Err(TransportError::peer_lost(match from {
                            Some(p) => format!(
                                "shard {}: link to {p} died collecting round {round}: {detail}",
                                self.shard
                            ),
                            None => format!(
                                "shard {}: coordinator link died collecting round {round}: {detail}",
                                self.shard
                            ),
                        }))
                    }
                },
            };
            self.peer_rank(from)?;
            match frame {
                Frame::EndRound { round: r } => {
                    if r != round {
                        return Err(TransportError::protocol(format!(
                            "shard {}: round-{r} marker from {from} during round {round}",
                            self.shard
                        )));
                    }
                    markers += 1;
                }
                Frame::RoundBatch { round: r, entries } => {
                    if r != round {
                        return Err(TransportError::protocol(format!(
                            "shard {}: round-{r} batch from {from} during round {round}",
                            self.shard
                        )));
                    }
                    for e in entries {
                        self.stage_entry(from, e, round)?;
                    }
                }
                Frame::BatchReplay { .. } => {
                    return Err(TransportError::protocol(format!(
                        "shard {}: unsolicited replay batch from {from} during round {round}",
                        self.shard
                    )))
                }
            }
        }
        Ok(())
    }

    /// The shard's aggregate counters: sums where the network total is
    /// a sum, maxes where `RunStats` takes a max over nodes
    /// (`node_sends` feeds `max_node_sends`, `max_link_load` is already
    /// a max) — the same reduction `merge_report` applies across
    /// reports, so P shard reports merge to the identical `RunStats`.
    fn report(&self) -> NodeReport {
        let mut rep = NodeReport {
            node_sends: 0,
            messages: 0,
            total_words: 0,
            max_link_load: 0,
            dropped: 0,
            outage_dropped: 0,
            duplicated: 0,
            delayed: 0,
            late_delivered: 0,
        };
        for st in &self.nodes {
            rep.node_sends = rep.node_sends.max(st.runner.node_sends());
            rep.messages += st.runner.messages();
            rep.total_words += st.runner.total_words();
            rep.max_link_load = rep.max_link_load.max(st.runner.max_link_load());
            rep.dropped += st.tally.dropped;
            rep.outage_dropped += st.tally.outage_dropped;
            rep.duplicated += st.tally.duplicated;
            rep.delayed += st.tally.delayed;
            rep.late_delivered += st.tally.late_delivered;
        }
        rep
    }

    fn into_nodes(self) -> Vec<P> {
        self.nodes
            .into_iter()
            .map(|st| st.runner.into_node())
            .collect()
    }

    /// The plain drive loop: no checkpoints, no chaos.
    fn drive_plain<E: NodeEndpoint<P::Msg>>(
        &mut self,
        endpoint: &mut E,
    ) -> Result<RunOutcome, TransportError> {
        loop {
            match self.wait_ctl(endpoint)? {
                CtlMsg::Go { round } => self.run_round(round, endpoint, true, None)?,
                CtlMsg::Stop { outcome } => {
                    debug_assert!(
                        self.stash.is_empty(),
                        "frames in flight past the final barrier"
                    );
                    return Ok(outcome);
                }
                CtlMsg::Abort { reason } => {
                    return Err(TransportError::Aborted {
                        reason: abort_reason::name(reason).to_string(),
                    })
                }
                other => {
                    return Err(TransportError::protocol(format!(
                        "shard {}: coordinator sent {other:?} at a round boundary",
                        self.shard
                    )))
                }
            }
        }
    }
}

impl<P: Checkpointable> ShardWorker<'_, P>
where
    P::Msg: WireCodec,
{
    /// Serialize the whole shard: the cadence clock once, then every
    /// hosted node's protocol snapshot, runner accounting and fault
    /// tally in node-id order, then the parked messages and the cap
    /// buckets.
    fn encode_snapshot(&self, out: &mut Vec<u8>) {
        self.executed.encode(out);
        for st in &self.nodes {
            let mut proto = Vec::new();
            st.runner.node().snapshot(&mut proto);
            proto.encode(out);
            st.runner.encode_accounting(out);
            st.tally.encode(out);
        }
        let parked: Vec<ParkedBatch<P::Msg>> = self
            .mail
            .parked
            .iter()
            .map(|(&due, batch)| (due, batch.clone()))
            .collect();
        parked.encode(out);
        self.buckets.state().encode(out);
    }

    fn restore_snapshot(&mut self, buf: &mut &[u8]) -> Option<()> {
        self.executed = u64::decode(buf)?;
        for st in &mut self.nodes {
            let proto = Vec::<u8>::decode(buf)?;
            let mut view = proto.as_slice();
            st.runner.node_mut().restore(&mut view)?;
            if !view.is_empty() {
                return None;
            }
            st.runner.restore_accounting(buf)?;
            st.tally = LocalTally::decode(buf)?;
        }
        let parked = Vec::<ParkedBatch<P::Msg>>::decode(buf)?;
        self.mail.parked = parked.into_iter().collect();
        let buckets = Vec::<((NodeId, NodeId), (Round, u64))>::decode(buf)?;
        self.buckets = CapBuckets::from_state(buckets);
        Some(())
    }

    /// Snapshot, ship to the coordinator, and prune replay buffers one
    /// cadence window back (buffers therefore hold at most two windows
    /// of traffic — the memory side of the cadence trade-off).
    fn take_checkpoint<E: NodeEndpoint<P::Msg>>(
        &mut self,
        round: Round,
        endpoint: &mut E,
    ) -> Result<(), TransportError> {
        let mut data = Vec::new();
        self.encode_snapshot(&mut data);
        endpoint.send_ctl(CtlMsg::Checkpoint { round, data })?;
        let floor = self.last_checkpoint;
        if let Some(buf) = &mut self.replay {
            for link in buf.iter_mut() {
                link.retain(|(r, _)| *r > floor);
            }
        }
        self.prev_checkpoint = self.last_checkpoint;
        self.last_checkpoint = round;
        Ok(())
    }

    /// The crash: discard every hosted node's dynamic state and go
    /// silent, then rejoin — restore the shard snapshot and rebuild the
    /// schedule from it, collect one replay batch per peer shard,
    /// re-execute the lost rounds without emitting (intra-shard traffic
    /// regenerates locally), and execute the crash round live.
    fn crash_and_rejoin<E: NodeEndpoint<P::Msg>>(
        &mut self,
        endpoint: &mut E,
        pristine: &[P],
    ) -> Result<(), TransportError> {
        // Fail-stop: everything volatile on the whole shard is gone.
        self.state_lost = true;
        self.stash.clear();
        for st in &mut self.nodes {
            st.tally = LocalTally::default();
        }
        for &local in &self.mail.touched {
            self.mail.inboxes[local as usize].clear();
        }
        self.mail.touched.clear();
        self.mail.parked.clear();
        for b in &mut self.batches {
            b.clear();
        }
        if let Some(buf) = &mut self.replay {
            for link in buf.iter_mut() {
                link.clear();
            }
        }

        // Silent wait for the rejoin handshake.
        let deg = self.peer_shards.len();
        let mut batches: Vec<VecDeque<ShardReplayRecord<P::Msg>>> =
            (0..deg).map(|_| VecDeque::new()).collect();
        let mut got = vec![false; deg];
        let mut got_count = 0usize;
        let (round, checkpoint_round, snapshot, executed_rounds) = loop {
            match endpoint.recv()? {
                Event::Peer {
                    from,
                    frame: Frame::BatchReplay { frames },
                } => {
                    let ps = self.peer_rank(from)?;
                    if !got[ps] {
                        got[ps] = true;
                        got_count += 1;
                    }
                    batches[ps] = frames.into();
                }
                Event::Peer { .. } => {}
                Event::Ctl(CtlMsg::Rejoin {
                    round,
                    checkpoint_round,
                    snapshot,
                    executed,
                }) => break (round, checkpoint_round, snapshot, executed),
                Event::Ctl(CtlMsg::Abort { reason }) => {
                    return Err(TransportError::Aborted {
                        reason: abort_reason::name(reason).to_string(),
                    })
                }
                Event::Ctl(_) => {}
                Event::Lost { from: Some(_), .. } => {}
                Event::Lost { from: None, detail } => {
                    return Err(TransportError::peer_lost(format!(
                        "shard {}: coordinator link died while crashed: {detail}",
                        self.shard
                    )))
                }
            }
        };

        // Restore: pristine clones + init + shard snapshot overlay.
        for (st, p) in self.nodes.iter_mut().zip(pristine) {
            *st.runner.node_mut() = p.clone();
            st.runner.init(self.g);
        }
        let mut view = snapshot.as_slice();
        if self.restore_snapshot(&mut view).is_none() || !view.is_empty() {
            return Err(TransportError::MalformedFrame {
                context: format!("shard {}: undecodable rejoin snapshot", self.shard),
            });
        }
        self.last_checkpoint = checkpoint_round;
        self.prev_checkpoint = checkpoint_round;
        self.schedule.rebuild(self.nodes.len(), |l| {
            self.nodes[l]
                .runner
                .earliest_send(checkpoint_round + 1, self.g)
        });

        // Collect the remaining replay batches; pings get answered.
        while got_count < deg {
            match endpoint.recv()? {
                Event::Peer {
                    from,
                    frame: Frame::BatchReplay { frames },
                } => {
                    let ps = self.peer_rank(from)?;
                    if !got[ps] {
                        got[ps] = true;
                        got_count += 1;
                    }
                    batches[ps] = frames.into();
                }
                Event::Peer { .. } => {}
                Event::Ctl(CtlMsg::Ping) => endpoint.send_ctl(CtlMsg::Pong { round })?,
                Event::Ctl(CtlMsg::Abort { reason }) => {
                    return Err(TransportError::Aborted {
                        reason: abort_reason::name(reason).to_string(),
                    })
                }
                Event::Ctl(other) => {
                    return Err(TransportError::protocol(format!(
                        "shard {}: unexpected {other:?} while collecting replay batches",
                        self.shard
                    )))
                }
                Event::Lost { from, detail } => {
                    return Err(TransportError::peer_lost(format!(
                        "shard {}: link to {from:?} died during rejoin: {detail}",
                        self.shard
                    )))
                }
            }
        }

        // Re-execute the lost rounds: cross-shard input from the replay
        // batches, intra-shard input regenerated by the hosted nodes
        // executing together.
        for &rho in &executed_rounds {
            self.run_round(rho, endpoint, false, Some(&mut batches))?;
        }

        // The crash round runs live, unblocking the peer shards parked
        // in its collection loop.
        self.run_round(round, endpoint, true, Some(&mut batches))?;
        debug_assert!(
            batches.iter().all(|b| b.is_empty()),
            "replay batches contained rounds outside (checkpoint, crash]"
        );
        self.state_lost = false;
        Ok(())
    }

    /// The recoverable drive loop: checkpoints at the cadence, serves
    /// replay, and honors the chaos script. A kill scripted for *any*
    /// hosted node takes the whole worker process down (fail-stop is
    /// per process, not per node), at the earliest scripted round.
    fn drive_recoverable<E: NodeEndpoint<P::Msg>>(
        &mut self,
        endpoint: &mut E,
        pristine: &[P],
    ) -> Result<RunOutcome, TransportError> {
        let kill_round = self.cfg.chaos.as_ref().and_then(|c| {
            self.map
                .nodes(self.shard)
                .filter_map(|v| c.kill_round(v))
                .min()
        });
        let sever = self.cfg.chaos.as_ref().and_then(|c| {
            self.map
                .nodes(self.shard)
                .filter_map(|v| c.sever_for(v))
                .min_by_key(|&(_, r)| r)
        });
        let mut died = false;

        if self.cfg.checkpoint_cadence.is_some() {
            self.take_checkpoint(0, endpoint)?;
        }

        loop {
            match self.wait_ctl(endpoint)? {
                CtlMsg::Go { round } => {
                    if let Some((peer, sr)) = sever {
                        if round >= sr {
                            endpoint.send_ctl(CtlMsg::Error {
                                kind: errkind::PEER_LOST,
                                peer: Some(peer),
                                round,
                            })?;
                            return Err(TransportError::peer_lost(format!(
                                "shard {}: link to node {peer} severed at round {round} (chaos)",
                                self.shard
                            )));
                        }
                    }
                    if !died && kill_round.is_some_and(|kr| round >= kr) {
                        died = true;
                        self.crash_and_rejoin(endpoint, pristine)?;
                    } else {
                        self.run_round(round, endpoint, true, None)?;
                    }
                    if let Some(k) = self.cfg.checkpoint_cadence {
                        if k > 0 && self.executed.is_multiple_of(k) {
                            self.take_checkpoint(round, endpoint)?;
                        }
                    }
                }
                CtlMsg::Stop { outcome } => {
                    debug_assert!(
                        self.stash.is_empty(),
                        "frames in flight past the final barrier"
                    );
                    return Ok(outcome);
                }
                CtlMsg::Abort { reason } => {
                    return Err(TransportError::Aborted {
                        reason: abort_reason::name(reason).to_string(),
                    })
                }
                other => {
                    return Err(TransportError::protocol(format!(
                        "shard {}: coordinator sent {other:?} at a round boundary",
                        self.shard
                    )))
                }
            }
        }
    }
}

/// Start `w` and run `drive` to completion over `endpoint`. A success
/// ships the `Final` report and hands back every hosted node's state,
/// in node-id order; a fault hands back the states too, unless a crash
/// had discarded them. A panic (in a node program, say) is caught here:
/// the coordinator, which would otherwise wait for a `Done` that never
/// comes, hears a protocol `Error` and aborts the run, and the caller
/// gets a `Protocol` error with no node states, which a panic leaves in
/// no known condition.
fn run_worker<'g, P, E>(
    mut w: ShardWorker<'g, P>,
    endpoint: &mut E,
    drive: impl FnOnce(&mut ShardWorker<'g, P>, &mut E) -> Result<RunOutcome, TransportError>,
) -> Result<(Vec<P>, NodeReport, RunOutcome), Box<ShardError<P>>>
where
    P: Protocol,
    E: NodeEndpoint<P::Msg>,
{
    let driven = std::panic::catch_unwind(AssertUnwindSafe(|| {
        w.start();
        drive(&mut w, endpoint)
    }));
    let error = match driven {
        Ok(Ok(outcome)) => {
            let report = w.report();
            match endpoint.send_ctl(CtlMsg::Final { report }) {
                Ok(()) => return Ok((w.into_nodes(), report, outcome)),
                Err(error) => error,
            }
        }
        Ok(Err(error)) => error,
        Err(payload) => {
            let _ = endpoint.send_ctl(CtlMsg::Error {
                kind: errkind::PROTOCOL,
                peer: None,
                round: w.current_round,
            });
            let who = format!("shard {}", w.shard);
            return Err(Box::new(ShardError {
                error: TransportError::panicked(&who, &*payload),
                nodes: None,
            }));
        }
    };
    let salvage = !w.state_lost;
    Err(Box::new(ShardError {
        error,
        nodes: salvage.then(|| w.into_nodes()),
    }))
}

/// Run shard `shard` of the layout to completion over `endpoint`:
/// every node in `map.nodes(shard)`, with `nodes` their protocol states
/// in node-id order. Returns the final states (same order), the shard's
/// aggregate counters and the coordinator's outcome.
pub fn shard_main<P, E>(
    map: &ShardMap,
    shard: NodeId,
    g: &WGraph,
    cfg: &TransportConfig,
    nodes: Vec<P>,
    endpoint: &mut E,
) -> Result<(Vec<P>, NodeReport, RunOutcome), Box<ShardError<P>>>
where
    P: Protocol,
    E: NodeEndpoint<P::Msg>,
{
    let w = ShardWorker::new(map, shard, g, cfg, nodes, false);
    run_worker(w, endpoint, |w, ep| w.drive_plain(ep))
}

/// As [`shard_main`], with crash-fault tolerance at shard granularity:
/// one checkpoint and one replay stream per shard, chaos kills taking
/// the whole worker down, and the rejoin handshake restoring every
/// hosted node.
pub fn shard_main_recoverable<P, E>(
    map: &ShardMap,
    shard: NodeId,
    g: &WGraph,
    cfg: &TransportConfig,
    nodes: Vec<P>,
    endpoint: &mut E,
) -> Result<(Vec<P>, NodeReport, RunOutcome), Box<ShardError<P>>>
where
    P: Checkpointable,
    P::Msg: WireCodec,
    E: NodeEndpoint<P::Msg>,
{
    let pristine = nodes.clone();
    let buffered = cfg.checkpoint_cadence.is_some();
    let w = ShardWorker::new(map, shard, g, cfg, nodes, buffered);
    run_worker(w, endpoint, |w, ep| w.drive_recoverable(ep, &pristine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_graph::gen::{self, WeightDist};

    #[test]
    fn shard_map_is_a_balanced_contiguous_partition() {
        for n in [1usize, 2, 3, 7, 10, 64] {
            for p in [1usize, 2, 3, 5, 64, 1000] {
                let map = ShardMap::new(n, p);
                let eff = map.shards();
                assert!(eff >= 1 && eff <= n);
                assert_eq!(map.n(), n);
                let mut seen = 0usize;
                for s in 0..eff as NodeId {
                    let block = map.nodes(s);
                    assert!(!block.is_empty(), "empty shard {s} (n={n}, p={p})");
                    assert_eq!(block.start as usize, seen);
                    for v in block.clone() {
                        assert_eq!(map.shard_of(v), s);
                    }
                    seen = block.end as usize;
                }
                assert_eq!(seen, n, "blocks cover 0..n");
                // Balance: block sizes differ by at most one.
                let sizes: Vec<usize> = (0..eff as NodeId).map(|s| map.nodes(s).len()).collect();
                let (lo, hi) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "unbalanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn shard_adjacency_is_symmetric_and_excludes_self() {
        let g = gen::gnp(24, 0.2, false, WeightDist::Uniform { max: 9 }, 7);
        let map = ShardMap::new(24, 5);
        let adj = map.shard_adjacency(&g);
        assert_eq!(adj.len(), 5);
        for (s, peers) in adj.iter().enumerate() {
            for &t in peers {
                assert_ne!(t as usize, s);
                assert!(
                    adj[t as usize].contains(&(s as NodeId)),
                    "adjacency not symmetric: {s} -> {t}"
                );
            }
        }
    }
}
