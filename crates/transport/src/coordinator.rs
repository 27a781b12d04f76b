//! The bulk-synchronous round coordinator.
//!
//! [`coordinate`] replicates the simulator's `Network::run` loop over a
//! [`CoordEndpoint`]: it issues `Go(round)` tokens, waits for every
//! participant's `Done(round)`, and applies the same budget check and
//! quiet-round fast-forward arithmetic — `Done` carries each worker's
//! `earliest_send` hint and earliest parked due round, whose minima are
//! exactly the quantities `run` computes globally. After the loop it
//! broadcasts `Stop` and merges the workers' `Final` reports into a
//! [`RunStats`] with the same aggregation the simulator uses (sums for
//! messages/words/fault counters, maxima for link load and per-node
//! send rounds). A participant is one worker of [`crate::shard`]; at
//! `P = n` that is one graph node.
//!
//! It is also the full control plane (DESIGN.md §10). With
//! a round deadline configured it doubles as the failure detector: a
//! barrier that misses its deadline triggers a `Ping` probe sweep, and
//! a node that neither finished the round nor answered the probe within
//! the grace window is declared crashed. If exactly one node failed and
//! a checkpoint plus the comm-neighbor lists are at hand, the
//! coordinator orchestrates recovery — [`CtlMsg::ReplayRequest`] to the
//! victim's neighbors, [`CtlMsg::Rejoin`] to the victim — and the
//! barrier completes as if nothing happened. Anything else is a
//! structured abort: [`CtlMsg::Abort`] is broadcast best-effort so
//! workers stand down instead of hanging, and the caller gets a typed
//! [`TransportError`] naming the failed nodes.

use crate::error::TransportError;
use crate::wire::{abort_reason, CtlMsg, NodeReport};
use dw_congest::{Round, RunOutcome, RunStats};
use dw_graph::NodeId;
use dw_obs::Recorder;
use std::panic::AssertUnwindSafe;
use std::time::Duration;

/// The coordinator's view of the transport: sends to one or all nodes
/// and a single stream of node control messages with optional timeout.
pub trait CoordEndpoint {
    /// Send `msg` to every node. Implementations must *attempt* the
    /// send to every node even if some fail (an abort must reach the
    /// survivors), returning the first error afterwards.
    fn broadcast(&mut self, msg: CtlMsg) -> Result<(), TransportError>;
    /// Send `msg` to one node.
    fn send_to(&mut self, node: NodeId, msg: CtlMsg) -> Result<(), TransportError>;
    /// Wait up to `timeout` (forever if `None`) for the next control
    /// message from any node. `Ok(None)` means the timeout elapsed.
    fn recv(
        &mut self,
        timeout: Option<Duration>,
    ) -> Result<Option<(NodeId, CtlMsg)>, TransportError>;
}

/// Failure-detection and recovery knobs for [`coordinate`]. The
/// default configuration (no deadline, no neighbor lists) makes the
/// control plane purely passive — byte-identical behavior to the
/// pre-recovery coordinator — which is what the conformance paths use.
#[derive(Debug, Clone, Default)]
pub struct CoordConfig {
    /// How long a barrier may take before the coordinator suspects a
    /// failure; probed nodes get as long again to answer a `Ping`, and
    /// a rejoining node gets ten deadlines to complete the crash round.
    /// `None` disables failure detection: `recv` blocks forever, as a
    /// fault-free run wants.
    pub round_deadline: Option<Duration>,
    /// Comm-neighbor lists by node id, required to route
    /// [`CtlMsg::ReplayRequest`]s. `None` disables recovery (detected
    /// failures abort the run).
    pub neighbors: Option<Vec<Vec<NodeId>>>,
    /// Scripted coordinator stalls as `(round, millis)`: before issuing
    /// `Go` for the first round `>= round`, sleep `millis`. From
    /// [`crate::chaos::ChaosPlan::stalls`].
    pub stalls: Vec<(Round, u64)>,
}

/// Round deadlines a rejoining node gets to complete the crash round.
const RECOVERY_DEADLINES: u32 = 10;

/// Probe sweeps tolerated with *no* new failures before the coordinator
/// gives up on a wedged barrier.
const MAX_PROBE_CYCLES: u32 = 10;

pub(crate) fn min_opt(a: Option<Round>, b: Option<Round>) -> Option<Round> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Per-node recovery state the coordinator keeps while driving a run.
struct NodeSlot {
    /// Latest checkpoint received: `(round, snapshot bytes)`.
    checkpoint: Option<(Round, Vec<u8>)>,
}

/// Abort the run: record the event, tell every reachable worker to
/// stand down (best effort — their links may be the problem), and
/// surface `err` to the caller.
fn abort<E: CoordEndpoint>(
    endpoint: &mut E,
    rec: &mut dyn Recorder,
    round: Round,
    reason: u8,
    err: TransportError,
) -> TransportError {
    rec.event(round, "run.aborted", reason as u64);
    let _ = endpoint.broadcast(CtlMsg::Abort { reason });
    err
}

/// Drive `n` participants until the protocol goes quiet or `budget`
/// rounds have elapsed; silent stretches are fast-forwarded, not
/// executed. Failure detection and checkpoint-based recovery follow
/// `cfg` (`CoordConfig::default()` is the passive barrier). Emits one
/// [`Recorder::round`] event per executed round that sent anything —
/// the transport-side mirror of `Network::run_recorded`, so a recorded
/// run decomposes into the same per-phase round timeline on every
/// runtime. Returns the outcome and the run's aggregated statistics.
///
/// A panic inside the loop (a recorder's, an arithmetic overflow's)
/// comes back as a [`TransportError::Protocol`]: the callers then
/// abort the workers, which would otherwise wait in `recv` for a
/// coordinator that is gone while their scope waits to join them.
pub fn coordinate<E: CoordEndpoint>(
    n: usize,
    budget: Round,
    cfg: &CoordConfig,
    endpoint: &mut E,
    rec: &mut dyn Recorder,
) -> Result<(RunOutcome, RunStats), TransportError> {
    let run = AssertUnwindSafe(|| drive(n, budget, cfg, endpoint, rec));
    std::panic::catch_unwind(run)
        .unwrap_or_else(|payload| Err(TransportError::panicked("the coordinator", &*payload)))
}

/// [`coordinate`]'s loop.
fn drive<E: CoordEndpoint>(
    n: usize,
    budget: Round,
    cfg: &CoordConfig,
    endpoint: &mut E,
    rec: &mut dyn Recorder,
) -> Result<(RunOutcome, RunStats), TransportError> {
    let mut round: Round = 0;
    let mut last_activity: Round = 0;
    let mut rounds_executed = 0u64;
    let mut messages_total = 0u64;
    let mut max_round_messages = 0u64;
    let mut slots: Vec<NodeSlot> = (0..n).map(|_| NodeSlot { checkpoint: None }).collect();
    // Rounds actually executed (sparse under fast-forward) — the
    // re-execution script for a `Rejoin`.
    let mut executed_log: Vec<Round> = Vec::new();
    let mut stalls = cfg.stalls.clone();
    stalls.sort_unstable();

    let outcome = loop {
        if round >= budget {
            break RunOutcome::BudgetExhausted;
        }
        round += 1;
        rounds_executed += 1;

        // Scripted coordinator stall (consume-once, first matching).
        if let Some(pos) = stalls.iter().position(|&(r, _)| round >= r) {
            let (_, millis) = stalls.remove(pos);
            rec.event(round, "coordinator.stall", millis);
            std::thread::sleep(Duration::from_millis(millis));
        }

        executed_log.push(round);
        endpoint.broadcast(CtlMsg::Go { round })?;

        let mut sent = 0u64;
        let mut late = 0u64;
        let mut hint: Option<Round> = None;
        let mut pending_due: Option<Round> = None;

        // Barrier state, including the failure-detector machine.
        let mut done = vec![false; n];
        let mut done_count = 0usize;
        let mut probing = false;
        let mut ponged = vec![false; n];
        let mut probe_cycles = 0u32;
        let mut recovering: Option<NodeId> = None;

        while done_count < n {
            let timeout = match recovering {
                Some(_) => cfg.round_deadline.map(|d| d * RECOVERY_DEADLINES),
                None => cfg.round_deadline,
            };
            let Some((from, msg)) = endpoint
                .recv(timeout)
                .map_err(|e| abort(endpoint, rec, round, abort_reason::PEER_ERROR, e))?
            else {
                // --- deadline elapsed: the failure detector turns ---
                if recovering.is_some() {
                    let failed: Vec<NodeId> = recovering.into_iter().collect();
                    return Err(abort(
                        endpoint,
                        rec,
                        round,
                        abort_reason::RECOVERY_TIMEOUT,
                        TransportError::Unrecoverable {
                            failed,
                            round,
                            context: "rejoined node did not complete the crash round".into(),
                        },
                    ));
                }
                if !probing {
                    probing = true;
                    rec.event(round, "failure.suspect", (n - done_count) as u64);
                    endpoint
                        .broadcast(CtlMsg::Ping)
                        .map_err(|e| abort(endpoint, rec, round, abort_reason::PEER_ERROR, e))?;
                    continue;
                }
                // A probe window closed: failed = silent ∧ not done.
                let failed: Vec<NodeId> = (0..n)
                    .filter(|&v| !done[v] && !ponged[v])
                    .map(|v| v as NodeId)
                    .collect();
                if failed.is_empty() {
                    probe_cycles += 1;
                    if probe_cycles >= MAX_PROBE_CYCLES {
                        return Err(abort(
                            endpoint,
                            rec,
                            round,
                            abort_reason::PROBES_EXHAUSTED,
                            TransportError::protocol(format!(
                                "barrier for round {round} wedged: all nodes answer pings \
                                 but {} never reported Done",
                                n - done_count
                            )),
                        ));
                    }
                    for p in ponged.iter_mut() {
                        *p = false;
                    }
                    endpoint
                        .broadcast(CtlMsg::Ping)
                        .map_err(|e| abort(endpoint, rec, round, abort_reason::PEER_ERROR, e))?;
                    continue;
                }
                let recoverable = failed.len() == 1
                    && cfg.neighbors.is_some()
                    && failed
                        .first()
                        .is_some_and(|&v| slots[v as usize].checkpoint.is_some());
                if !recoverable {
                    return Err(abort(
                        endpoint,
                        rec,
                        round,
                        abort_reason::UNRECOVERABLE,
                        TransportError::Unrecoverable {
                            failed: failed.clone(),
                            round,
                            context: if failed.len() > 1 {
                                "multiple simultaneous failures".into()
                            } else if cfg.neighbors.is_none() {
                                "recovery disabled (no neighbor lists)".into()
                            } else {
                                "no checkpoint on file".into()
                            },
                        },
                    ));
                }
                let Some(&victim) = failed.first() else {
                    continue;
                };
                let Some((c_round, snapshot)) = slots[victim as usize].checkpoint.clone() else {
                    continue;
                };
                let Some(nbrs) = cfg
                    .neighbors
                    .as_ref()
                    .and_then(|nb| nb.get(victim as usize))
                else {
                    continue;
                };
                rec.event(round, "failure.crash", victim as u64);
                for &u in nbrs {
                    endpoint
                        .send_to(
                            u,
                            CtlMsg::ReplayRequest {
                                target: victim,
                                from_round: c_round,
                            },
                        )
                        .map_err(|e| abort(endpoint, rec, round, abort_reason::PEER_ERROR, e))?;
                }
                let replay: Vec<Round> = executed_log
                    .iter()
                    .copied()
                    .filter(|&x| x > c_round && x < round)
                    .collect();
                endpoint
                    .send_to(
                        victim,
                        CtlMsg::Rejoin {
                            round,
                            checkpoint_round: c_round,
                            snapshot,
                            executed: replay,
                        },
                    )
                    .map_err(|e| abort(endpoint, rec, round, abort_reason::PEER_ERROR, e))?;
                rec.event(round, "recovery.rejoin", victim as u64);
                recovering = Some(victim);
                continue;
            };

            let slot = from as usize;
            if slot >= n {
                return Err(abort(
                    endpoint,
                    rec,
                    round,
                    abort_reason::PROTOCOL,
                    TransportError::protocol(format!("control message from unknown worker {from}")),
                ));
            }
            match msg {
                CtlMsg::Done {
                    round: r,
                    sent: s,
                    late: l,
                    hint: h,
                    pending_due: p,
                } => {
                    if r != round || done[slot] {
                        return Err(abort(
                            endpoint,
                            rec,
                            round,
                            abort_reason::PROTOCOL,
                            TransportError::protocol(format!(
                                "worker {from} reported round {r} during round {round}{}",
                                if done[slot] { " (duplicate Done)" } else { "" }
                            )),
                        ));
                    }
                    done[slot] = true;
                    done_count += 1;
                    sent += s;
                    late += l;
                    hint = min_opt(hint, h);
                    pending_due = min_opt(pending_due, p);
                    if recovering == Some(from) {
                        recovering = None;
                        rec.event(round, "recovery.done", from as u64);
                    }
                }
                CtlMsg::Checkpoint { round: r, data } => {
                    rec.event(r, "checkpoint.stored", data.len() as u64);
                    slots[slot].checkpoint = Some((r, data));
                }
                CtlMsg::Pong { .. } => ponged[slot] = true,
                CtlMsg::Error {
                    kind,
                    peer,
                    round: r,
                } => {
                    return Err(abort(
                        endpoint,
                        rec,
                        round,
                        abort_reason::PEER_ERROR,
                        TransportError::Unrecoverable {
                            failed: vec![from],
                            round: r,
                            context: format!(
                                "worker {from} reported a fatal {} fault{}",
                                crate::wire::errkind::name(kind),
                                match peer {
                                    Some(p) => format!(" on its link to {p}"),
                                    None => String::new(),
                                }
                            ),
                        },
                    ));
                }
                other => {
                    return Err(abort(
                        endpoint,
                        rec,
                        round,
                        abort_reason::PROTOCOL,
                        TransportError::protocol(format!(
                            "unexpected control message {other:?} from worker {from} \
                             during round {round}"
                        )),
                    ));
                }
            }
        }

        messages_total += sent;
        max_round_messages = max_round_messages.max(sent);
        if sent > 0 || late > 0 {
            last_activity = round;
        }
        if sent > 0 {
            rec.round(round, sent);
        }
        if sent == 0 {
            // Nothing moved; jump to just before the next scheduled send
            // or pending delivery (bounded by the budget), as `run` does.
            match min_opt(hint, pending_due) {
                None => break RunOutcome::Quiet,
                Some(r) => {
                    // r > round >= 0, and `budget` may be `Round::MAX`.
                    let target = (r - 1).min(budget);
                    if target > round {
                        round = target;
                    }
                }
            }
        }
    };

    endpoint.broadcast(CtlMsg::Stop { outcome })?;
    let mut stats = RunStats {
        rounds: last_activity,
        rounds_executed,
        max_round_messages,
        ..RunStats::default()
    };
    let mut finals = 0usize;
    while finals < n {
        let Some((from, msg)) = endpoint.recv(cfg.round_deadline)? else {
            return Err(TransportError::protocol(format!(
                "final barrier timed out with {} report(s) missing",
                n - finals
            )));
        };
        match msg {
            CtlMsg::Final { report } => {
                merge_report(&mut stats, &report);
                finals += 1;
            }
            // Stale checkpoint/pong traffic can trail the Stop.
            CtlMsg::Checkpoint { .. } | CtlMsg::Pong { .. } => {}
            CtlMsg::Error {
                kind,
                peer,
                round: r,
            } => {
                return Err(TransportError::Unrecoverable {
                    failed: vec![from],
                    round: r,
                    context: format!(
                        "worker {from} reported a fatal {} fault{} at the final barrier",
                        crate::wire::errkind::name(kind),
                        match peer {
                            Some(p) => format!(" on its link to {p}"),
                            None => String::new(),
                        }
                    ),
                })
            }
            other => {
                return Err(TransportError::protocol(format!(
                    "unexpected control message {other:?} from worker {from} after Stop"
                )))
            }
        }
    }
    debug_assert_eq!(
        stats.messages, messages_total,
        "per-round send counts disagree with final node counters"
    );
    Ok((outcome, stats))
}

/// Fold one node's counters into the run stats (the simulator's
/// `Network::stats` aggregation).
pub fn merge_report(stats: &mut RunStats, r: &NodeReport) {
    stats.messages += r.messages;
    stats.total_words += r.total_words;
    stats.max_link_load = stats.max_link_load.max(r.max_link_load);
    stats.max_node_sends = stats.max_node_sends.max(r.node_sends);
    stats.dropped += r.dropped;
    stats.outage_dropped += r.outage_dropped;
    stats.duplicated += r.duplicated;
    stats.delayed += r.delayed;
    stats.late_delivered += r.late_delivered;
}
