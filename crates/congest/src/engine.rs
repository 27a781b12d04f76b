//! The synchronous round engine.
//!
//! Two scheduling modes drive the same round semantics:
//!
//! * [`SchedulingMode::ActiveSet`] (default) — the engine keeps a cached
//!   next-send round per node (fed by [`Protocol::earliest_send`]) in a
//!   lazy min-heap and, each executed round, polls only nodes that are due
//!   plus nodes woken by a receive. Quiet-round fast-forward is a heap
//!   peek instead of an O(n) scan.
//! * [`SchedulingMode::ExhaustivePoll`] — the original engine: every node
//!   is polled every executed round. Kept as the behavioral reference; the
//!   conformance suite proves both modes bit-identical (`RunStats`,
//!   traces, distances), which is what the `earliest_send` soundness +
//!   stability contract guarantees.
//!
//! Per-node execution (send validation, CONGEST accounting) lives in
//! [`crate::runner::NodeRunner`], shared with the `dw-transport`
//! message-passing runtime; this module owns only what is global to a
//! lockstep simulation: the poll set, delivery into in-memory inboxes
//! (where fault decisions are applied), and quiet-round fast-forward.
//!
//! Hot paths are allocation-free in steady state: per-node [`Outbox`](crate::Outbox)
//! buffers are reused round to round, inboxes live in a recycled
//! [`Slab`] (a node holds a buffer only between its first delivery and
//! its receive, so resident memory tracks the per-round dirty set, not
//! `n`), delivery marks a dirty-inbox list so the receive phase and the
//! late-delivery sort touch only mailboxes that actually got mail, and a
//! broadcast allocates its payload exactly once (shared via `Arc` with
//! index-only fan-out — no per-recipient clone). The parallel phases run
//! on a persistent [`WorkerPool`] with chunk-ordered writes into
//! disjoint slots: the calling thread runs the first chunk of every phase
//! and claims further chunks beside the workers (see [`crate::pool`] for
//! the handoff).
//!
//! For scale, the active-set schedule is **sharded**: nodes are split
//! into one contiguous chunk per worker thread, each with its own lazy
//! min-heap, so the schedule refresh — the per-round `earliest_send`
//! queries — parallelizes with disjoint writes. Soundness is unchanged:
//! each shard's heap maintains the exact invariant the global heap did,
//! restricted to its node range, and the due set is the (sorted) union
//! of the per-shard pops, which is the same set the global heap would
//! pop. A **density fallback** switches
//! to exhaustive polling while almost every node is active each round
//! (see [`EngineConfig::dense_poll_fraction`]): polling a node early is
//! a no-op under the `earliest_send` contract, so the fallback is
//! bit-identical while skipping all heap bookkeeping on dense rounds.

use crate::slab::{Slab, SlabRef};

use crate::fault::{CapBuckets, FaultAction, FaultPlan};
use crate::message::Envelope;
use crate::metrics::RunStats;
use crate::pool::{Ptr, WorkerPool};
use crate::protocol::{Protocol, Round};
use crate::runner::{NodeRunner, SendSink};
use dw_graph::{NodeId, WGraph};
use dw_obs::{NullRecorder, Recorder};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// How the engine decides which nodes to poll in an executed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingMode {
    /// Poll only nodes whose cached `earliest_send` is due, plus nodes
    /// woken by a receive. Requires the soundness/stability contract on
    /// [`Protocol::earliest_send`] (which the default conservative
    /// implementation satisfies trivially).
    ActiveSet,
    /// Poll every node every executed round (the original engine).
    /// Reference implementation for conformance testing.
    ExhaustivePoll,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Per-message word budget (a word = one `O(log n)`-bit quantity).
    /// Exceeding it is a protocol bug and panics.
    pub max_words: usize,
    /// Use the thread-parallel send/receive phases when the number of
    /// nodes scheduled in a round (active senders, resp. dirty inboxes)
    /// is at least this threshold. `usize::MAX` disables parallelism.
    /// Under [`SchedulingMode::ActiveSet`] this counts *active* nodes,
    /// not `n` — idle-heavy workloads stay on the cheap sequential path
    /// even on huge graphs.
    pub parallel_threshold: usize,
    /// Worker threads for the parallel phases (the calling thread counts
    /// toward this number; the persistent pool holds `threads - 1`).
    /// The active-set schedule has one shard per thread; any count runs
    /// bit-identically.
    pub threads: usize,
    /// Node polling strategy; see [`SchedulingMode`].
    pub scheduling: SchedulingMode,
    /// Density fallback threshold for [`SchedulingMode::ActiveSet`]:
    /// when the due set of a round reaches this fraction of `n`, the
    /// engine stops maintaining the schedule heaps and polls every node
    /// (heap bookkeeping is pure overhead when nearly everyone is
    /// active). It returns to heap scheduling — via a full
    /// `earliest_send` rescan — once the fraction of nodes that
    /// actually *sent* drops below half this threshold (hysteresis, so
    /// workloads hovering at the boundary don't thrash). Polling a node
    /// before its due round is a no-op under the `earliest_send`
    /// contract, so both transitions are bit-identical to never
    /// switching. Set above `1.0` to disable.
    pub dense_poll_fraction: f64,
    /// Optional deterministic fault injection (see [`crate::fault`]).
    /// `None` leaves the delivery path byte-identical to the fault-free
    /// engine.
    pub faults: Option<FaultPlan>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_words: 8,
            parallel_threshold: 1024,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            scheduling: SchedulingMode::ActiveSet,
            dense_poll_fraction: 0.5,
            faults: None,
        }
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// No node will ever send again: the protocol has converged.
    Quiet,
    /// The round budget was exhausted before the protocol went quiet.
    BudgetExhausted,
}

/// Messages held back by the engine (delay faults, partitions awaiting
/// their heal round, bandwidth-cap spill), keyed by due round; each
/// entry is (recipient, envelope).
type DelayedQueue<M> = BTreeMap<Round, Vec<(NodeId, Envelope<M>)>>;

/// Tally of fault decisions that tampered with a message.
#[derive(Debug, Clone, Default)]
struct FaultTally {
    dropped: u64,
    outage_dropped: u64,
    duplicated: u64,
    delayed: u64,
    late_delivered: u64,
}

impl FaultTally {
    /// Tampering events excluding late deliveries (those are the delayed
    /// messages arriving, not new decisions).
    fn events(&self) -> u64 {
        self.dropped + self.outage_dropped + self.duplicated + self.delayed
    }
}

/// The simulator's [`SendSink`]: applies fault decisions and pushes
/// envelopes straight into the recipients' slab-backed inboxes.
struct EngineSink<'a, M> {
    slab: &'a mut Slab<Envelope<M>>,
    inbox_ref: &'a mut [SlabRef],
    dirty: &'a mut Vec<NodeId>,
    inbox_mark: &'a mut [Round],
    pending: &'a mut DelayedQueue<M>,
    faults: Option<&'a FaultPlan>,
    buckets: &'a mut CapBuckets,
    tally: &'a mut FaultTally,
    round: Round,
    on_msg: &'a mut dyn FnMut(NodeId, NodeId, &M),
}

impl<M: Clone> EngineSink<'_, M> {
    /// The inbox buffer for `v`, acquiring a slab slot on the first
    /// delivery of the round (which also marks `v` dirty — at most one
    /// `dirty` entry per node per round).
    #[inline]
    fn inbox_of(&mut self, v: NodeId) -> &mut Vec<Envelope<M>> {
        let i = v as usize;
        if self.inbox_mark[i] != self.round {
            self.inbox_mark[i] = self.round;
            self.dirty.push(v);
            self.inbox_ref[i] = self.slab.acquire();
        }
        self.slab.get_mut(self.inbox_ref[i])
    }

    /// Into `v`'s inbox now, or held until round `due`.
    fn put(&mut self, v: NodeId, due: Round, env: Envelope<M>) {
        if due == self.round {
            self.inbox_of(v).push(env);
        } else {
            self.pending.entry(due).or_default().push((v, env));
        }
    }

    /// The sender occupied the link either way; only delivery is faulted.
    fn deliver(&mut self, u: NodeId, v: NodeId, env: Envelope<M>, words: usize) {
        let Some(plan) = self.faults else {
            self.inbox_of(v).push(env);
            return;
        };
        match plan.decide(u, v, self.round, words, self.buckets) {
            FaultAction::Deliver { due, duplicate } => {
                if duplicate {
                    self.tally.duplicated += 1;
                    self.put(v, due, env.clone());
                }
                if due > self.round {
                    self.tally.delayed += 1;
                }
                self.put(v, due, env);
            }
            FaultAction::Drop => {
                self.tally.dropped += 1;
            }
            FaultAction::OutageDrop => {
                self.tally.outage_dropped += 1;
            }
        }
    }
}

impl<M: Clone> SendSink<M> for EngineSink<'_, M> {
    fn unicast(&mut self, from: NodeId, _rank: usize, to: NodeId, msg: M, words: usize) {
        (self.on_msg)(from, to, &msg);
        self.deliver(from, to, Envelope::new(from, msg), words);
    }

    fn broadcast(&mut self, from: NodeId, nbrs: &[NodeId], msg: M, words: usize) {
        // Zero-copy means "never duplicate a heap payload per recipient",
        // not "always share". Word-sized plain-old-data messages
        // (`needs_drop` = false guarantees the clone is a flat memcpy)
        // are cheaper to copy than to share: an `Arc` costs an allocation
        // per broadcast plus two atomics per delivery, which dense
        // small-message workloads (BENCH `dense_ping`) pay millions of
        // times per run. Both conditions are compile-time constants, so
        // each monomorphization keeps exactly one arm.
        if !std::mem::needs_drop::<M>() && std::mem::size_of::<M>() <= 32 {
            for &v in nbrs {
                (self.on_msg)(from, v, &msg);
                self.deliver(from, v, Envelope::new(from, msg.clone()), words);
            }
            return;
        }
        // The payload owns heap memory (or is large): allocate it exactly
        // once and fan out `(from, Arc)` envelopes — no per-recipient
        // clone of the message itself.
        let payload = Arc::new(msg);
        for &v in nbrs {
            (self.on_msg)(from, v, &payload);
            self.deliver(from, v, Envelope::shared(from, Arc::clone(&payload)), words);
        }
    }
}

/// A network of `n` nodes running the same protocol type.
pub struct Network<'g, P: Protocol> {
    g: &'g WGraph,
    cfg: EngineConfig,
    runners: Vec<NodeRunner<P>>,
    round: Round,
    /// Recycled inbox buffers; a node holds a slot only between its first
    /// delivery of a round and its receive.
    slab: Slab<Envelope<P::Msg>>,
    /// Per-node handle into `slab` (`SlabRef::NONE` when idle).
    inbox_ref: Vec<SlabRef>,
    /// Authoritative cached next-send round per node; `Round::MAX` means
    /// dormant (will not send until woken by a receive).
    next_send: Vec<Round>,
    /// Per-shard lazy min-heaps over `(next_send[v], v)`, shard `s`
    /// covering node ids `[s * shard_size, (s+1) * shard_size)`. An entry
    /// is valid iff its round still equals `next_send[v]`; stale entries
    /// are discarded at pop time.
    heaps: Vec<BinaryHeap<Reverse<(Round, NodeId)>>>,
    /// Nodes per schedule shard (the last shard may be short).
    shard_size: usize,
    /// Density fallback engaged: poll everyone, skip heap bookkeeping.
    dense_mode: bool,
    /// Scratch: nodes polled this round (sorted, deduped).
    active_scratch: Vec<NodeId>,
    /// Scratch: nodes whose inbox got mail this round.
    dirty: Vec<NodeId>,
    /// Round stamp deduplicating `dirty` pushes.
    inbox_mark: Vec<Round>,
    /// Per-node "sent something this round" flag, consumed by the
    /// schedule refresh (sender-stays-hot fast path).
    sent_flag: Vec<bool>,
    /// Persistent workers for the parallel phases (created on first use).
    pool: Option<WorkerPool>,
    last_activity: Round,
    rounds_executed: u64,
    max_round_messages: u64,
    /// Held messages awaiting delivery, keyed by due round.
    pending: DelayedQueue<P::Msg>,
    /// The fault plan's bandwidth-cap state, one bucket per capped link.
    buckets: CapBuckets,
    tally: FaultTally,
}

impl<'g, P: Protocol> Network<'g, P> {
    /// Build a network over communication graph `g`, with node `v` running
    /// `make(v)`. Calls [`Protocol::init`] on every node (round 0).
    pub fn new(g: &'g WGraph, cfg: EngineConfig, mut make: impl FnMut(NodeId) -> P) -> Self {
        let n = g.n();
        let mut runners: Vec<NodeRunner<P>> = (0..n as NodeId)
            .map(|v| NodeRunner::new(v, g, make(v)))
            .collect();
        for r in runners.iter_mut() {
            r.init(g);
        }
        // One schedule shard per worker thread. Any layout is
        // bit-identical (the due set is the sorted union of per-shard pops
        // either way), so this only affects parallelism.
        let shards = cfg.threads.clamp(1, n.max(1));
        let shard_size = n.div_ceil(shards).max(1);
        let heap_count = if n == 0 { 1 } else { (n - 1) / shard_size + 1 };
        let mut heaps: Vec<BinaryHeap<Reverse<(Round, NodeId)>>> =
            (0..heap_count).map(|_| BinaryHeap::new()).collect();
        // Seed the active-set schedule from the post-init node states.
        let mut next_send = vec![Round::MAX; n];
        if cfg.scheduling == SchedulingMode::ActiveSet {
            for (v, runner) in runners.iter().enumerate() {
                if let Some(r) = runner.earliest_send(1, g) {
                    debug_assert!(r >= 1, "earliest_send must be >= after");
                    next_send[v] = r;
                    heaps[v / shard_size].push(Reverse((r, v as NodeId)));
                }
            }
        }
        Network {
            g,
            cfg,
            runners,
            round: 0,
            slab: Slab::new(),
            inbox_ref: vec![SlabRef::NONE; n],
            next_send,
            heaps,
            shard_size,
            dense_mode: false,
            active_scratch: Vec::new(),
            dirty: Vec::new(),
            inbox_mark: vec![0; n],
            sent_flag: vec![false; n],
            pool: None,
            last_activity: 0,
            rounds_executed: 0,
            max_round_messages: 0,
            pending: BTreeMap::new(),
            buckets: CapBuckets::default(),
            tally: FaultTally::default(),
        }
    }

    /// Last completed round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Immutable access to node `v`'s program (for result extraction and
    /// test instrumentation; a real deployment would read local state the
    /// same way).
    pub fn node(&self, v: NodeId) -> &P {
        self.runners[v as usize].node()
    }

    /// Iterate over all node programs in id order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = &P> + '_ {
        self.runners.iter().map(NodeRunner::node)
    }

    /// The communication graph.
    pub fn graph(&self) -> &'g WGraph {
        self.g
    }

    /// Execute exactly one round; returns the number of messages sent.
    pub fn step_one(&mut self) -> u64 {
        self.step_inner(&mut |_, _, _| {})
    }

    /// As [`Network::step_one`], recording the round into `trace`
    /// (message counts, senders, and — if the trace keeps payloads — a
    /// `Debug` rendering of every message).
    pub fn step_traced(&mut self, trace: &mut crate::trace::RoundTrace) -> u64
    where
        P::Msg: std::fmt::Debug,
    {
        let mut senders: Vec<NodeId> = Vec::new();
        let mut payloads = Vec::new();
        let keep = trace.keep_payloads();
        let faults_before = self.tally.events();
        let late_before = self.tally.late_delivered;
        let sent = self.step_inner(&mut |from, to, msg: &P::Msg| {
            senders.push(from);
            if keep {
                payloads.push((from, to, format!("{msg:?}")));
            }
        });
        let fault_events = self.tally.events() - faults_before;
        let late_delivered = self.tally.late_delivered - late_before;
        if sent > 0 || fault_events > 0 || late_delivered > 0 {
            senders.sort_unstable();
            senders.dedup();
            trace.push(crate::trace::RoundRecord {
                round: self.round,
                messages: sent,
                senders,
                payloads,
                fault_events,
                late_delivered,
            });
        }
        sent
    }

    /// Held messages still in flight.
    pub fn pending_deliveries(&self) -> usize {
        self.pending.values().map(|b| b.len()).sum()
    }

    /// Move every pending delivery due at or before `round` into the
    /// inboxes. Returns how many messages arrived late this round.
    fn deliver_pending(&mut self, round: Round) -> u64 {
        let mut late = 0u64;
        while let Some((&due, _)) = self.pending.first_key_value() {
            if due > round {
                break;
            }
            let (_, batch) = self.pending.pop_first().expect("checked non-empty");
            for (v, env) in batch {
                let i = v as usize;
                if self.inbox_mark[i] != round {
                    self.inbox_mark[i] = round;
                    self.dirty.push(v);
                    self.inbox_ref[i] = self.slab.acquire();
                }
                self.slab.get_mut(self.inbox_ref[i]).push(env);
                late += 1;
            }
        }
        self.tally.late_delivered += late;
        late
    }

    fn step_inner(&mut self, on_msg: &mut dyn FnMut(NodeId, NodeId, &P::Msg)) -> u64 {
        self.round += 1;
        self.rounds_executed += 1;
        let round = self.round;
        let n = self.g.n();

        // --- late deliveries of held messages ---
        let late = if self.cfg.faults.is_some() {
            self.deliver_pending(round)
        } else {
            0
        };
        // The dirty list starts each round empty, so right now it holds
        // exactly the late-touched inboxes — the only ones that can be out
        // of sender order after the send phase appends to them.
        let late_prefix = self.dirty.len();

        // --- build the poll set ---
        let mut active = std::mem::take(&mut self.active_scratch);
        match self.cfg.scheduling {
            SchedulingMode::ExhaustivePoll => active.extend(0..n as NodeId),
            SchedulingMode::ActiveSet if self.dense_mode => {
                // Density fallback: poll everyone. Sound because polling a
                // node before its true send round is a no-op (the same
                // contract the ExhaustivePoll conformance relies on).
                active.extend(0..n as NodeId);
            }
            SchedulingMode::ActiveSet => {
                let next_send = &self.next_send;
                for heap in self.heaps.iter_mut() {
                    while let Some(&Reverse((r, v))) = heap.peek() {
                        if r > round {
                            break;
                        }
                        heap.pop();
                        // Stale entries (superseded schedule) are discarded.
                        if next_send[v as usize] == r {
                            active.push(v);
                        }
                    }
                }
                active.sort_unstable();
                active.dedup();
                // Dense-entry check: when almost everyone is due, heap
                // bookkeeping is pure overhead — switch to full polling.
                if (active.len() as f64) >= self.cfg.dense_poll_fraction * n as f64 {
                    self.dense_mode = true;
                    active.clear();
                    active.extend(0..n as NodeId);
                }
            }
        }

        // --- send phase (into the persistent outboxes) ---
        let parallel = active.len() >= self.cfg.parallel_threshold && self.cfg.threads > 1;
        if parallel {
            self.send_phase_parallel(round, &active);
        } else {
            let g = self.g;
            for &v in &active {
                self.runners[v as usize].poll_send(round, g);
            }
        }

        // --- delivery (sequential: validates constraints, deterministic) ---
        let mut sent_this_round = 0u64;
        let mut senders = 0usize;
        {
            let g = self.g;
            let mut sink = EngineSink {
                slab: &mut self.slab,
                inbox_ref: &mut self.inbox_ref,
                dirty: &mut self.dirty,
                inbox_mark: &mut self.inbox_mark,
                pending: &mut self.pending,
                faults: self.cfg.faults.as_ref(),
                buckets: &mut self.buckets,
                tally: &mut self.tally,
                round,
                on_msg,
            };
            for &u in &active {
                let sent =
                    self.runners[u as usize].drain_sends(round, g, self.cfg.max_words, &mut sink);
                if sent > 0 {
                    senders += 1;
                    // Flag only when a message actually hit a link (a
                    // broadcast from a neighborless node transmits nothing):
                    // the hot-path reschedule below must imply the round is
                    // busy, or it would distort `run`'s quiet-round jumps.
                    // In dense mode the flag stays clear — there is no heap
                    // state to keep warm.
                    if self.cfg.scheduling == SchedulingMode::ActiveSet && !self.dense_mode {
                        self.sent_flag[u as usize] = true;
                    }
                }
                sent_this_round += sent;
            }
        }
        self.max_round_messages = self.max_round_messages.max(sent_this_round);
        if sent_this_round > 0 || late > 0 {
            self.last_activity = round;
        }

        // --- receive phase (dirty inboxes only) ---
        let mut dirty = std::mem::take(&mut self.dirty);
        if late > 0 {
            // Late arrivals were queued before this round's sends, so only
            // the late-touched inboxes can be out of sender order. The
            // stable sort is the identity on every other inbox, so sorting
            // just these is bit-identical to sorting all of them.
            for &v in &dirty[..late_prefix] {
                let inbox = self.slab.get_mut(self.inbox_ref[v as usize]);
                if inbox.len() > 1 {
                    inbox.sort_by_key(|e| e.from);
                }
            }
        }
        dirty.sort_unstable();
        if !dirty.is_empty() {
            let par_recv = dirty.len() >= self.cfg.parallel_threshold && self.cfg.threads > 1;
            if par_recv {
                self.receive_phase_parallel(round, &dirty);
            } else {
                let runners = &mut self.runners;
                let slab = &self.slab;
                let g = self.g;
                for &v in &dirty {
                    let i = v as usize;
                    runners[i].receive(round, slab.get(self.inbox_ref[i]), g);
                }
            }
            // Return every touched buffer to the pool (cheap: the parallel
            // path already cleared them; release just recycles the slot).
            for &v in &dirty {
                let i = v as usize;
                self.slab.release(self.inbox_ref[i]);
                self.inbox_ref[i] = SlabRef::NONE;
            }
        }

        // --- schedule refresh: polled nodes and woken (dirty) nodes ---
        if self.cfg.scheduling == SchedulingMode::ActiveSet && !self.dense_mode {
            let par_refresh = active.len() + dirty.len() >= self.cfg.parallel_threshold
                && self.cfg.threads > 1
                && self.heaps.len() > 1;
            if par_refresh {
                self.refresh_schedule_parallel(round, &active, &dirty);
            } else {
                self.refresh_schedule(round, &active, &dirty);
            }
        } else if self.cfg.scheduling == SchedulingMode::ActiveSet {
            // Dense exit (hysteresis): once actual senders drop below half
            // the entry fraction, heap scheduling pays again. A full
            // rescan re-seeds the schedule. A quiet round (zero senders)
            // exits unconditionally — even at threshold 0 — so `run`'s
            // fast-forward only ever consults the heaps in non-dense
            // state.
            if senders == 0 || (senders as f64) < self.cfg.dense_poll_fraction * 0.5 * n as f64 {
                self.rebuild_schedule(round);
                self.dense_mode = false;
            }
        }

        // Hand the scratch allocations back for the next round.
        active.clear();
        self.active_scratch = active;
        dirty.clear();
        self.dirty = dirty;

        sent_this_round
    }

    fn send_phase_parallel(&mut self, round: Round, active: &[NodeId]) {
        let g = self.g;
        let size = active.len().div_ceil(self.cfg.threads).max(1);
        let runners = Ptr(self.runners.as_mut_ptr());
        let pool = worker_pool(&mut self.pool, self.cfg.threads);
        pool.for_each_chunk(active.len().div_ceil(size), &|c| {
            for &v in chunk(active, size, c) {
                // SAFETY: active ids are sorted+deduped and chunks are
                // disjoint, so each index is touched by exactly one chunk;
                // for_each_chunk returns only after every chunk finished.
                let runner = unsafe { runners.at(v as usize) };
                runner.poll_send(round, g);
            }
        });
    }

    fn receive_phase_parallel(&mut self, round: Round, dirty: &[NodeId]) {
        let g = self.g;
        let size = dirty.len().div_ceil(self.cfg.threads).max(1);
        let runners = Ptr(self.runners.as_mut_ptr());
        let (bufs, gens) = self.slab.raw_parts();
        let refs: &[SlabRef] = &self.inbox_ref;
        let pool = worker_pool(&mut self.pool, self.cfg.threads);
        pool.for_each_chunk(dirty.len().div_ceil(size), &|c| {
            for &v in chunk(dirty, size, c) {
                // SAFETY: dirty ids are sorted and unique (stamp dedup),
                // each holds a distinct live slab slot, and chunks are
                // disjoint — so each runner index and each slot index is
                // touched by exactly one chunk; for_each_chunk returns only
                // after every chunk finished.
                let r = refs[v as usize];
                debug_assert_eq!(
                    gens[r.slot()],
                    r.generation(),
                    "stale slab handle in parallel receive"
                );
                let runner = unsafe { runners.at(v as usize) };
                let inbox = unsafe { bufs.at(r.slot()) };
                runner.receive(round, inbox, g);
                inbox.clear();
            }
        });
    }

    /// Shard index owning node `v`.
    #[inline]
    fn shard_of(&self, v: NodeId) -> usize {
        v as usize / self.shard_size
    }

    /// Sequential schedule refresh after round `round`: reinstall heap
    /// entries for polled nodes, re-query woken (dirty-but-not-polled)
    /// nodes.
    fn refresh_schedule(&mut self, round: Round, active: &[NodeId], dirty: &[NodeId]) {
        let g = self.g;
        for &v in active {
            // Popped nodes lost their heap entry; always reinstall.
            let i = v as usize;
            let shard = self.shard_of(v);
            if self.sent_flag[i] {
                // Sender-stays-hot: a node that sent this round is
                // simply re-polled next round instead of paying an
                // `earliest_send` query (which may scan protocol
                // state). This is unobservable: `run` always executes
                // the round after a busy one before considering a
                // jump, and polling a node before its true send round
                // is a no-op, after which the exact query runs. At
                // jump time every surviving heap entry is exact,
                // because a conservative entry is consumed in the
                // very next executed round and is only ever pushed in
                // a busy (non-jumping) round.
                self.sent_flag[i] = false;
                self.next_send[i] = round + 1;
                self.heaps[shard].push(Reverse((round + 1, v)));
                continue;
            }
            match self.runners[i].earliest_send(round + 1, g) {
                Some(r) => {
                    debug_assert!(r > round, "earliest_send must be in the future");
                    self.next_send[i] = r;
                    self.heaps[shard].push(Reverse((r, v)));
                }
                None => self.next_send[i] = Round::MAX,
            }
        }
        for &v in dirty {
            if active.binary_search(&v).is_ok() {
                continue; // already refreshed above
            }
            let i = v as usize;
            let r_new = self.runners[i]
                .earliest_send(round + 1, g)
                .unwrap_or(Round::MAX);
            if r_new != self.next_send[i] {
                self.next_send[i] = r_new;
                if r_new != Round::MAX {
                    debug_assert!(r_new > round, "earliest_send must be in the future");
                    let shard = self.shard_of(v);
                    self.heaps[shard].push(Reverse((r_new, v)));
                }
                // The superseded heap entry (if any) is now stale and
                // will be discarded at pop time.
            }
        }
    }

    /// Parallel schedule refresh: one chunk per shard, operating on the
    /// shard's contiguous subranges of `active` and `dirty` with disjoint
    /// writes into its own heap / `next_send` / `sent_flag` slots.
    ///
    /// Bit-identical to [`Network::refresh_schedule`]: that loop visits
    /// active (sorted) then dirty (sorted), so restricted to one shard it
    /// performs exactly the insertion sequence the shard chunk performs,
    /// and heap contents per shard are therefore identical. The pop order
    /// across shards is re-sorted into the global order at poll time.
    fn refresh_schedule_parallel(&mut self, round: Round, active: &[NodeId], dirty: &[NodeId]) {
        let g = self.g;
        let shard_size = self.shard_size;
        let heaps = Ptr(self.heaps.as_mut_ptr());
        let next_send = Ptr(self.next_send.as_mut_ptr());
        let sent_flag = Ptr(self.sent_flag.as_mut_ptr());
        let runners = Ptr(self.runners.as_mut_ptr());
        let pool = worker_pool(&mut self.pool, self.cfg.threads);
        pool.for_each_chunk(self.heaps.len(), &|s| {
            let (lo, hi) = ((s * shard_size) as NodeId, ((s + 1) * shard_size) as NodeId);
            let within =
                |xs: &[NodeId]| xs.partition_point(|&v| v < lo)..xs.partition_point(|&v| v < hi);
            let (active_s, dirty_s) = (&active[within(active)], &dirty[within(dirty)]);
            if active_s.is_empty() && dirty_s.is_empty() {
                return;
            }
            // SAFETY: all node ids here lie in shard `s`'s range and shard
            // ranges are disjoint, so each runner, `next_send` /
            // `sent_flag` slot, and the shard heap are touched by exactly
            // one chunk; for_each_chunk returns only after every chunk
            // finished.
            let heap = unsafe { heaps.at(s) };
            for &v in active_s {
                let i = v as usize;
                let flag = unsafe { sent_flag.at(i) };
                if *flag {
                    *flag = false;
                    *unsafe { next_send.at(i) } = round + 1;
                    heap.push(Reverse((round + 1, v)));
                    continue;
                }
                let runner = unsafe { runners.at(i) };
                match runner.earliest_send(round + 1, g) {
                    Some(r) => {
                        debug_assert!(r > round, "earliest_send must be in the future");
                        *unsafe { next_send.at(i) } = r;
                        heap.push(Reverse((r, v)));
                    }
                    None => *unsafe { next_send.at(i) } = Round::MAX,
                }
            }
            for &v in dirty_s {
                if active_s.binary_search(&v).is_ok() {
                    continue;
                }
                let i = v as usize;
                let runner = unsafe { runners.at(i) };
                let r_new = runner.earliest_send(round + 1, g).unwrap_or(Round::MAX);
                let slot = unsafe { next_send.at(i) };
                if r_new != *slot {
                    *slot = r_new;
                    if r_new != Round::MAX {
                        debug_assert!(r_new > round, "earliest_send must be in the future");
                        heap.push(Reverse((r_new, v)));
                    }
                }
            }
        });
    }

    /// Re-seed the schedule from scratch (dense-mode exit): clear every
    /// shard heap and re-query `earliest_send` for all nodes.
    fn rebuild_schedule(&mut self, round: Round) {
        let g = self.g;
        for heap in self.heaps.iter_mut() {
            heap.clear();
        }
        for (v, runner) in self.runners.iter().enumerate() {
            match runner.earliest_send(round + 1, g) {
                Some(r) => {
                    debug_assert!(r > round, "earliest_send must be in the future");
                    self.next_send[v] = r;
                    self.heaps[v / self.shard_size].push(Reverse((r, v as NodeId)));
                }
                None => self.next_send[v] = Round::MAX,
            }
        }
    }

    /// Earliest future send round across all nodes, by scanning every
    /// node ([`SchedulingMode::ExhaustivePoll`]'s quiet path).
    fn scan_earliest(&self) -> Option<Round> {
        let g = self.g;
        let mut next: Option<Round> = None;
        for runner in &self.runners {
            if let Some(r) = runner.earliest_send(self.round + 1, g) {
                debug_assert!(r > self.round, "earliest_send must be in the future");
                next = Some(next.map_or(r, |cur| cur.min(r)));
            }
        }
        next
    }

    /// Earliest future send round across all nodes, from the schedule
    /// heaps ([`SchedulingMode::ActiveSet`]'s quiet path): per shard,
    /// discard stale tops then peek; take the minimum over shards.
    /// O(stale log n) amortized instead of O(n). Only called in non-dense
    /// state (a quiet round always exits dense mode first).
    fn next_scheduled(&mut self) -> Option<Round> {
        debug_assert!(!self.dense_mode, "quiet rounds exit dense mode");
        let round = self.round;
        let next_send = &self.next_send;
        let mut next: Option<Round> = None;
        for heap in self.heaps.iter_mut() {
            while let Some(&Reverse((r, v))) = heap.peek() {
                if next_send[v as usize] == r {
                    debug_assert!(r > round, "schedule must be in the future");
                    next = Some(next.map_or(r, |cur| cur.min(r)));
                    break;
                }
                heap.pop();
            }
        }
        next
    }

    /// Run until the protocol goes quiet or `max_rounds` have elapsed.
    ///
    /// Silent rounds are fast-forwarded using [`Protocol::earliest_send`]:
    /// they count toward the round complexity but are not simulated.
    pub fn run(&mut self, max_rounds: Round) -> RunOutcome {
        self.run_recorded(max_rounds, &mut NullRecorder)
    }

    /// As [`Network::run`], emitting one [`Recorder::round`] event per
    /// *executed* round that sent anything (fast-forwarded silent rounds
    /// produce no event). This is the engine's one loop; a
    /// [`NullRecorder`] costs it one no-op virtual call per such round.
    pub fn run_recorded(&mut self, max_rounds: Round, rec: &mut dyn Recorder) -> RunOutcome {
        loop {
            if self.round >= max_rounds {
                return RunOutcome::BudgetExhausted;
            }
            let sent = self.step_one();
            if sent > 0 {
                rec.round(self.round, sent);
            } else {
                // Nothing moved. When might any node next send?
                let mut next = match self.cfg.scheduling {
                    SchedulingMode::ExhaustivePoll => self.scan_earliest(),
                    SchedulingMode::ActiveSet => self.next_scheduled(),
                };
                // A held message still in flight forces its due
                // round to be simulated (all pending rounds are > round:
                // deliver_pending drained the rest at the top of the step).
                if let Some((&due, _)) = self.pending.first_key_value() {
                    next = Some(next.map_or(due, |cur| cur.min(due)));
                }
                match next {
                    None => return RunOutcome::Quiet,
                    Some(r) => {
                        // Jump to just before round r (bounded by budget).
                        let target = r.min(max_rounds + 1) - 1;
                        if target > self.round {
                            self.round = target;
                        }
                    }
                }
            }
        }
    }

    /// Metrics snapshot.
    pub fn stats(&self) -> RunStats {
        RunStats {
            rounds: self.last_activity,
            rounds_executed: self.rounds_executed,
            messages: self.runners.iter().map(NodeRunner::messages).sum(),
            max_link_load: self
                .runners
                .iter()
                .map(NodeRunner::max_link_load)
                .max()
                .unwrap_or(0),
            max_node_sends: self
                .runners
                .iter()
                .map(NodeRunner::node_sends)
                .max()
                .unwrap_or(0),
            max_round_messages: self.max_round_messages,
            total_words: self.runners.iter().map(NodeRunner::total_words).sum(),
            dropped: self.tally.dropped,
            outage_dropped: self.tally.outage_dropped,
            duplicated: self.tally.duplicated,
            delayed: self.tally.delayed,
            late_delivered: self.tally.late_delivered,
            ..RunStats::default()
        }
    }

    /// As [`Network::stats`], additionally filling the memory counters
    /// (`slab_bytes` / `slab_peak`) from the inbox slab. Kept separate so
    /// plain `stats()` stays bit-comparable across runtimes that have no
    /// slab (the sim↔transport conformance suites compare `RunStats`
    /// structs wholesale).
    pub fn stats_with_memory(&self) -> RunStats {
        let mut s = self.stats();
        s.slab_bytes = self.slab.resident_bytes() as u64;
        s.slab_peak = self.slab.peak_live() as u64;
        s
    }

    /// Per-node send-round counts (Algorithm 2's per-node congestion).
    pub fn node_sends(&self) -> Vec<u64> {
        self.runners.iter().map(NodeRunner::node_sends).collect()
    }

    /// Consume the network, returning the node programs for result
    /// extraction.
    pub fn into_nodes(self) -> Vec<P> {
        self.runners
            .into_iter()
            .map(NodeRunner::into_node)
            .collect()
    }
}

/// The persistent pool, created on the first parallel phase. The calling
/// thread runs chunks too, so the pool holds one worker fewer than the
/// configured parallelism.
fn worker_pool(pool: &mut Option<WorkerPool>, threads: usize) -> &mut WorkerPool {
    pool.get_or_insert_with(|| WorkerPool::new(threads - 1))
}

/// Chunk `c` of `xs` cut into pieces of `size`.
fn chunk<T>(xs: &[T], size: usize, c: usize) -> &[T] {
    &xs[c * size..((c + 1) * size).min(xs.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgSize;
    use crate::outbox::Outbox;
    use crate::protocol::NodeCtx;
    use dw_graph::gen::{self, WeightDist};

    /// Unweighted BFS flood: each node learns its hop distance from node 0
    /// and announces it once.
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
                self.announced = true;
                out.broadcast(d);
            }
        }

        fn receive(&mut self, _round: Round, inbox: &[Envelope<u64>], _ctx: &NodeCtx) {
            for e in inbox {
                let cand = *e.msg() + 1;
                if self.dist.is_none_or(|d| cand < d) {
                    self.dist = Some(cand);
                    self.announced = false;
                }
            }
        }

        fn earliest_send(&self, after: Round, _ctx: &NodeCtx) -> Option<Round> {
            if self.dist.is_some() && !self.announced {
                Some(after)
            } else {
                None
            }
        }
    }

    fn flood_net(g: &WGraph, cfg: EngineConfig) -> Vec<Option<u64>> {
        let mut net = Network::new(g, cfg, |_| Flood {
            dist: None,
            announced: false,
        });
        assert_eq!(net.run(10_000), RunOutcome::Quiet);
        net.nodes().map(|f| f.dist).collect()
    }

    #[test]
    fn bfs_flood_on_path() {
        let g = gen::path(6, false, WeightDist::Constant(1), 0);
        let d = flood_net(&g, EngineConfig::default());
        assert_eq!(d, (0..6).map(|i| Some(i as u64)).collect::<Vec<_>>());
    }

    #[test]
    fn bfs_flood_round_complexity_is_eccentricity() {
        let g = gen::path(6, false, WeightDist::Constant(1), 0);
        let mut net = Network::new(&g, EngineConfig::default(), |_| Flood {
            dist: None,
            announced: false,
        });
        net.run(100);
        // node 0 announces in round 1, farthest node (hop 5) hears in round 5
        // and announces in round 6.
        assert_eq!(net.stats().rounds, 6);
    }

    #[test]
    fn run_recorded_matches_run_and_emits_executed_rounds() {
        let g = gen::gnp_connected(32, 0.12, false, WeightDist::Constant(1), 5);
        let mk = |_| Flood {
            dist: None,
            announced: false,
        };
        let mut plain = Network::new(&g, EngineConfig::default(), mk);
        assert_eq!(plain.run(10_000), RunOutcome::Quiet);

        let mut rec = dw_obs::ObsRecorder::new();
        let mut recorded = Network::new(&g, EngineConfig::default(), mk);
        use dw_obs::Recorder as _;
        let span = rec.begin("flood");
        assert_eq!(recorded.run_recorded(10_000, &mut rec), RunOutcome::Quiet);
        rec.end(span, &recorded.stats());

        // identical execution...
        assert_eq!(plain.stats(), recorded.stats());
        let r = rec.into_recording();
        // ...and one round event per round that carried messages, whose
        // message counts sum to the stats total
        assert_eq!(r.rounds.len() as u64, {
            let mut t = crate::trace::RoundTrace::new();
            let mut net = Network::new(&g, EngineConfig::default(), mk);
            while net.step_traced(&mut t) > 0 || net.pending_deliveries() > 0 {}
            t.records().len() as u64
        });
        let event_msgs: u64 = r.rounds.iter().map(|&(_, m)| m).sum();
        assert_eq!(event_msgs, recorded.stats().messages);
        assert_eq!(r.spans[0].stats, recorded.stats());
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = gen::gnp_connected(64, 0.08, false, WeightDist::Constant(1), 9);
        let seq = flood_net(&g, EngineConfig::default());
        let par = flood_net(
            &g,
            EngineConfig {
                parallel_threshold: 1,
                threads: 4,
                ..EngineConfig::default()
            },
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn exhaustive_poll_matches_active_set() {
        let g = gen::gnp_connected(48, 0.1, false, WeightDist::Constant(1), 21);
        let run = |mode| {
            let mut net = Network::new(
                &g,
                EngineConfig {
                    scheduling: mode,
                    ..EngineConfig::default()
                },
                |_| Flood {
                    dist: None,
                    announced: false,
                },
            );
            assert_eq!(net.run(10_000), RunOutcome::Quiet);
            let d: Vec<_> = net.nodes().map(|f| f.dist).collect();
            (d, net.stats())
        };
        let (d_ex, s_ex) = run(SchedulingMode::ExhaustivePoll);
        let (d_as, s_as) = run(SchedulingMode::ActiveSet);
        assert_eq!(d_ex, d_as);
        assert_eq!(s_ex, s_as, "bit-identical RunStats across modes");
    }

    #[test]
    fn stats_count_messages_and_congestion() {
        let g = gen::path(3, false, WeightDist::Constant(1), 0);
        let mut net = Network::new(&g, EngineConfig::default(), |_| Flood {
            dist: None,
            announced: false,
        });
        net.run(100);
        let st = net.stats();
        // node0 broadcasts 1 msg; node1 broadcasts 2; node2 broadcasts 1.
        assert_eq!(st.messages, 4);
        assert_eq!(st.max_link_load, 1);
        assert_eq!(st.max_node_sends, 1);
        assert!(st.total_words >= st.messages);
    }

    /// A protocol that (wrongly) unicasts twice over one link in a round.
    struct DoubleSend;
    impl Protocol for DoubleSend {
        type Msg = u64;
        fn send(&mut self, round: Round, ctx: &NodeCtx, out: &mut Outbox<u64>) {
            if round == 1 && ctx.id == 0 {
                out.unicast(1, 1);
                out.unicast(1, 2);
            }
        }
        fn receive(&mut self, _r: Round, _i: &[Envelope<u64>], _c: &NodeCtx) {}
    }

    #[test]
    #[should_panic(expected = "two messages over link")]
    fn double_send_rejected() {
        let g = gen::path(2, false, WeightDist::Constant(1), 0);
        let mut net = Network::new(&g, EngineConfig::default(), |_| DoubleSend);
        net.step_one();
    }

    /// A protocol that (wrongly) broadcasts and unicasts to the same
    /// neighbor in one round (exercises the hoisted broadcast link path).
    struct BroadcastPlusUnicast;
    impl Protocol for BroadcastPlusUnicast {
        type Msg = u64;
        fn send(&mut self, round: Round, ctx: &NodeCtx, out: &mut Outbox<u64>) {
            if round == 1 && ctx.id == 0 {
                out.broadcast(1);
                out.unicast(1, 2);
            }
        }
        fn receive(&mut self, _r: Round, _i: &[Envelope<u64>], _c: &NodeCtx) {}
    }

    #[test]
    #[should_panic(expected = "two messages over link")]
    fn broadcast_then_unicast_rejected() {
        let g = gen::path(2, false, WeightDist::Constant(1), 0);
        let mut net = Network::new(&g, EngineConfig::default(), |_| BroadcastPlusUnicast);
        net.step_one();
    }

    /// A protocol that sends to a node it has no link to.
    struct BadTarget;
    impl Protocol for BadTarget {
        type Msg = u64;
        fn send(&mut self, round: Round, ctx: &NodeCtx, out: &mut Outbox<u64>) {
            if round == 1 && ctx.id == 0 {
                out.unicast(2, 1);
            }
        }
        fn receive(&mut self, _r: Round, _i: &[Envelope<u64>], _c: &NodeCtx) {}
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn non_neighbor_rejected() {
        let g = gen::path(3, false, WeightDist::Constant(1), 0); // 0-1-2
        let mut net = Network::new(&g, EngineConfig::default(), |_| BadTarget);
        net.step_one();
    }

    /// A protocol with an oversized message.
    struct BigMsg;
    #[derive(Clone)]
    struct Huge;
    impl MsgSize for Huge {
        fn size_words(&self) -> usize {
            99
        }
    }
    impl Protocol for BigMsg {
        type Msg = Huge;
        fn send(&mut self, round: Round, ctx: &NodeCtx, out: &mut Outbox<Huge>) {
            if round == 1 && ctx.id == 0 {
                out.broadcast(Huge);
            }
        }
        fn receive(&mut self, _r: Round, _i: &[Envelope<Huge>], _c: &NodeCtx) {}
    }

    #[test]
    #[should_panic(expected = "99-word message")]
    fn oversized_message_rejected() {
        let g = gen::path(2, false, WeightDist::Constant(1), 0);
        let mut net = Network::new(&g, EngineConfig::default(), |_| BigMsg);
        net.step_one();
    }

    /// Sparse schedule: node 0 sends only in round 1000. Fast-forward must
    /// make this cheap while still reporting 1000 rounds.
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
        fn receive(&mut self, _r: Round, _i: &[Envelope<u64>], _c: &NodeCtx) {}
        fn earliest_send(&self, after: Round, ctx: &NodeCtx) -> Option<Round> {
            if ctx.id == 0 && !self.sent {
                Some(after.max(1000))
            } else {
                None
            }
        }
    }

    #[test]
    fn fast_forward_skips_silent_rounds() {
        let g = gen::path(2, false, WeightDist::Constant(1), 0);
        let mut net = Network::new(&g, EngineConfig::default(), |_| LateSender { sent: false });
        assert_eq!(net.run(5000), RunOutcome::Quiet);
        let st = net.stats();
        assert_eq!(st.rounds, 1000);
        assert!(st.rounds_executed < 10, "executed {}", st.rounds_executed);
        assert_eq!(st.messages, 1);
    }

    #[test]
    fn tracing_records_executed_rounds() {
        let g = gen::path(4, false, WeightDist::Constant(1), 0);
        let mut net = Network::new(&g, EngineConfig::default(), |_| Flood {
            dist: None,
            announced: false,
        });
        let mut trace = crate::trace::RoundTrace::with_payloads();
        for _ in 0..6 {
            net.step_traced(&mut trace);
        }
        // node0 announces in round 1; farthest announces in round 4
        assert_eq!(trace.send_rounds_of(0), vec![1]);
        assert_eq!(trace.send_rounds_of(3), vec![4]);
        let r1 = trace.round(1).unwrap();
        assert_eq!(r1.messages, 1);
        assert!(r1
            .payloads
            .iter()
            .any(|(f, t, p)| *f == 0 && *t == 1 && p == "0"));
        // silent rounds after quiescence produce no records
        assert!(trace.round(6).is_none());
    }

    #[test]
    fn budget_exhaustion_reported() {
        let g = gen::path(2, false, WeightDist::Constant(1), 0);
        let mut net = Network::new(&g, EngineConfig::default(), |_| LateSender { sent: false });
        assert_eq!(net.run(10), RunOutcome::BudgetExhausted);
    }

    // ---- fault injection ----

    use crate::fault::{FaultPlan, Outage};

    fn flood_run(g: &WGraph, cfg: EngineConfig) -> (Vec<Option<u64>>, RunStats) {
        let mut net = Network::new(g, cfg, |_| Flood {
            dist: None,
            announced: false,
        });
        net.run(100_000);
        let dists = net.nodes().map(|f| f.dist).collect();
        (dists, net.stats())
    }

    #[test]
    fn pristine_fault_plan_is_byte_identical() {
        let g = gen::gnp_connected(40, 0.1, false, WeightDist::Constant(1), 13);
        let (d_none, s_none) = flood_run(&g, EngineConfig::default());
        let (d_plan, s_plan) = flood_run(
            &g,
            EngineConfig {
                faults: Some(FaultPlan::new(42)),
                ..EngineConfig::default()
            },
        );
        assert_eq!(d_none, d_plan);
        assert_eq!(s_none, s_plan);
        assert_eq!(s_plan.fault_events(), 0);
    }

    #[test]
    fn outage_drops_are_counted_and_partition() {
        // Path 0-1-2 with the 1->2 direction permanently dead: node 2
        // never hears anything, node 1 still converges.
        let g = gen::path(3, false, WeightDist::Constant(1), 0);
        let plan = FaultPlan::new(7).with_outage(Outage {
            from: 1,
            to: 2,
            start: 1,
            end: u64::MAX,
            symmetric: false,
        });
        let (dists, st) = flood_run(
            &g,
            EngineConfig {
                faults: Some(plan),
                ..EngineConfig::default()
            },
        );
        assert_eq!(dists[0], Some(0));
        assert_eq!(dists[1], Some(1));
        assert_eq!(dists[2], None);
        assert!(st.outage_dropped > 0);
        assert_eq!(st.dropped, 0);
    }

    /// Node 0 broadcasts one message in round 1; node 1 counts envelopes.
    struct CountRecv {
        sent: bool,
        received: u64,
    }
    impl Protocol for CountRecv {
        type Msg = u64;
        fn send(&mut self, _round: Round, ctx: &NodeCtx, out: &mut Outbox<u64>) {
            if ctx.id == 0 && !self.sent {
                self.sent = true;
                out.broadcast(1);
            }
        }
        fn receive(&mut self, _r: Round, inbox: &[Envelope<u64>], _c: &NodeCtx) {
            self.received += inbox.len() as u64;
        }
        fn earliest_send(&self, after: Round, ctx: &NodeCtx) -> Option<Round> {
            if ctx.id == 0 && !self.sent {
                Some(after)
            } else {
                None
            }
        }
    }

    #[test]
    fn duplicates_deliver_two_copies() {
        let g = gen::path(2, false, WeightDist::Constant(1), 0);
        let plan = FaultPlan::new(3).with_duplicate(1.0);
        let mut net = Network::new(
            &g,
            EngineConfig {
                faults: Some(plan),
                ..EngineConfig::default()
            },
            |_| CountRecv {
                sent: false,
                received: 0,
            },
        );
        assert_eq!(net.run(100), RunOutcome::Quiet);
        assert_eq!(net.node(1).received, 2);
        let st = net.stats();
        assert_eq!(st.duplicated, 1);
        assert_eq!(st.messages, 1, "the wire carried one message");
    }

    #[test]
    fn delayed_messages_arrive_late_and_extend_the_run() {
        let g = gen::path(2, false, WeightDist::Constant(1), 0);
        let plan = FaultPlan::new(11).with_delay(1.0, 4);
        let mut net = Network::new(
            &g,
            EngineConfig {
                faults: Some(plan),
                ..EngineConfig::default()
            },
            |_| CountRecv {
                sent: false,
                received: 0,
            },
        );
        assert_eq!(net.run(100), RunOutcome::Quiet);
        assert_eq!(net.node(1).received, 1, "delayed message still arrives");
        let st = net.stats();
        assert_eq!(st.delayed, 1);
        assert_eq!(st.late_delivered, 1);
        assert!(
            st.rounds > 1,
            "delivery round {} must exceed the send round",
            st.rounds
        );
        assert_eq!(net.pending_deliveries(), 0);
    }

    #[test]
    fn fast_forward_does_not_skip_pending_deliveries() {
        // Sender transmits in round 1000; delivery is delayed further. The
        // fast-forward path must simulate both the send round and the
        // later delivery round.
        let g = gen::path(2, false, WeightDist::Constant(1), 0);
        let plan = FaultPlan::new(2).with_delay(1.0, 3);
        let mut net = Network::new(
            &g,
            EngineConfig {
                faults: Some(plan),
                ..EngineConfig::default()
            },
            |_| LateSender { sent: false },
        );
        assert_eq!(net.run(5000), RunOutcome::Quiet);
        let st = net.stats();
        assert_eq!(st.delayed, 1);
        assert_eq!(st.late_delivered, 1);
        assert!(st.rounds > 1000, "late delivery after round 1000");
        assert!(st.rounds_executed < 10, "executed {}", st.rounds_executed);
    }

    #[test]
    fn random_drops_lose_announcements() {
        // With heavy random loss the fragile announce-once flood must both
        // record drops and (on this seed) leave some node unreached.
        let g = gen::path(8, false, WeightDist::Constant(1), 0);
        let plan = FaultPlan::drop_only(19, 0.9);
        let (dists, st) = flood_run(
            &g,
            EngineConfig {
                faults: Some(plan),
                ..EngineConfig::default()
            },
        );
        assert!(st.dropped > 0);
        assert!(
            dists.iter().any(|d| d.is_none()),
            "90% loss on a path should strand some node (seeded)"
        );
    }

    #[test]
    fn traced_rounds_record_fault_events() {
        let g = gen::path(2, false, WeightDist::Constant(1), 0);
        let plan = FaultPlan::new(11).with_delay(1.0, 4);
        let mut net = Network::new(
            &g,
            EngineConfig {
                faults: Some(plan),
                ..EngineConfig::default()
            },
            |_| CountRecv {
                sent: false,
                received: 0,
            },
        );
        let mut trace = crate::trace::RoundTrace::new();
        for _ in 0..10 {
            net.step_traced(&mut trace);
        }
        let r1 = trace.round(1).expect("send round recorded");
        assert_eq!(r1.fault_events, 1);
        assert_eq!(r1.late_delivered, 0);
        let late: Vec<_> = trace
            .records()
            .iter()
            .filter(|r| r.late_delivered > 0)
            .collect();
        assert_eq!(late.len(), 1, "exactly one late-delivery round");
        assert_eq!(late[0].messages, 0, "no new wire traffic that round");
    }
}
