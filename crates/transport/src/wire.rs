//! The dw-transport wire protocol.
//!
//! Two message families cross the wire:
//!
//! * [`Frame`] — worker-to-worker traffic on shard links: one batch of
//!   protocol payloads per round plus the per-link end-of-round marker
//!   that makes round collection possible without global knowledge
//!   (FIFO links mean "marker for round `r` arrived" implies "every
//!   round-`r` payload on this link arrived").
//! * [`CtlMsg`] — worker-to-coordinator traffic implementing the
//!   bulk-synchronous barrier: `Go`/`Stop` downstream, `Done`/`Final`
//!   upstream. `Done` carries exactly the quantities the simulator's
//!   `run` loop aggregates globally (messages sent, late deliveries,
//!   the `earliest_send` fast-forward hint, the earliest due round of
//!   delay-faulted traffic), pre-reduced over the worker's hosted
//!   nodes, so the coordinator can replicate its quiet-round jumps bit
//!   for bit.
//!
//! Everything implements [`WireCodec`], and this encoding is the one
//! definition of each message on every byte backend: TCP moves it as
//! length-prefixed frames via [`write_frame`] / [`read_frame`], and the
//! stdio backend carries the same bytes as the `data` array of a JSON
//! line (`crate::stdio`). Only the in-process channel backend moves the
//! typed values directly.

use dw_congest::{Round, RunOutcome, WireCodec};
use dw_graph::NodeId;
use std::io::{self, Read, Write};

/// Worker-to-worker traffic over one shard link. Wire tags 0 and 2
/// belonged to the retired one-frame-per-message kinds and stay
/// unassigned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<M> {
    /// "I have sent everything I will send on this link for `round`."
    EndRound { round: Round },
    /// Every cross-shard payload one shard worker emits toward one peer
    /// shard in `round`, coalesced into a single wire message (see
    /// [`crate::shard`]). Entries are in emission order, which
    /// preserves per-(from, to) FIFO order — the property the receive
    /// path's per-rank buffers rely on. The per-shard-pair
    /// [`Frame::EndRound`] that follows is the completeness marker.
    RoundBatch {
        round: Round,
        entries: Vec<BatchEntry<M>>,
    },
    /// Crash recovery: every cross-shard payload this shard emitted
    /// toward the rejoining shard since its checkpoint round, as
    /// `(round, entry)` records in emission order (duplicates included,
    /// fault-dropped messages excluded). Sent in response to a
    /// [`CtlMsg::ReplayRequest`]; the batch is complete per round, so
    /// it substitutes for the per-round `EndRound` markers the rejoiner
    /// missed.
    BatchReplay { frames: Vec<(Round, BatchEntry<M>)> },
}

/// One cross-shard payload inside a [`Frame::RoundBatch`] or
/// [`Frame::BatchReplay`]: the originating node, the destination node
/// (both resolve to shards via the shared layout), and the payload with
/// its due round. `due > round` marks a delay-faulted message: the
/// recipient holds it back and delivers it at the start of round `due`
/// (or its first executed round after, under fast-forward), exactly
/// like the simulator's delayed queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEntry<M> {
    pub from: NodeId,
    pub to: NodeId,
    pub due: Round,
    pub msg: M,
}

impl<M: WireCodec> WireCodec for BatchEntry<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.encode(out);
        self.to.encode(out);
        self.due.encode(out);
        self.msg.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(BatchEntry {
            from: NodeId::decode(buf)?,
            to: NodeId::decode(buf)?,
            due: Round::decode(buf)?,
            msg: M::decode(buf)?,
        })
    }
}

/// Coordinator barrier traffic. "Node" below is a barrier participant:
/// one worker, reporting for every node it hosts (exactly one at
/// `P = n`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtlMsg {
    /// Coordinator -> node: execute round `round` (not necessarily the
    /// successor of the previous one — quiet stretches are jumped).
    Go { round: Round },
    /// Coordinator -> node: the run is over; reply with `Final`.
    Stop { outcome: RunOutcome },
    /// Node -> coordinator: round `round` finished locally.
    Done {
        round: Round,
        /// Wire transmissions by this node this round.
        sent: u64,
        /// Delay-faulted messages this node delivered late this round.
        late: u64,
        /// This node's `earliest_send(round + 1)` hint.
        hint: Option<Round>,
        /// Earliest due round among delayed messages parked here.
        pending_due: Option<Round>,
    },
    /// Node -> coordinator: final local counters, after `Stop`.
    Final { report: NodeReport },
    /// Node -> coordinator: a state snapshot taken after executing
    /// `round` (round 0 = right after `init`). The coordinator stores
    /// the latest one per node for crash recovery.
    Checkpoint { round: Round, data: Vec<u8> },
    /// Coordinator -> node: liveness probe. Live nodes answer
    /// [`CtlMsg::Pong`] from wherever they are blocked; crashed nodes
    /// stay silent — that asymmetry is the failure detector.
    Ping,
    /// Node -> coordinator: answer to a `Ping`; `round` is the node's
    /// current round, for diagnostics only.
    Pong { round: Round },
    /// Coordinator -> node: rejoin handshake after a detected crash.
    /// Restore `snapshot` (taken at `checkpoint_round`), collect one
    /// [`Frame::BatchReplay`] per neighbor, re-execute the rounds in
    /// `executed` (the executed rounds strictly between checkpoint and
    /// crash — sparse under fast-forward), then execute `round` live.
    Rejoin {
        round: Round,
        checkpoint_round: Round,
        snapshot: Vec<u8>,
        executed: Vec<Round>,
    },
    /// Coordinator -> node: resend every frame you emitted to `target`
    /// in rounds after `from_round`, as one [`Frame::BatchReplay`].
    ReplayRequest { target: NodeId, from_round: Round },
    /// Node -> coordinator: a local transport fault this node cannot
    /// continue past (kind is an [`errkind`] code; `peer` names the
    /// link's other end when the fault is link-scoped).
    Error {
        kind: u8,
        peer: Option<NodeId>,
        round: Round,
    },
    /// Coordinator -> nodes: the run is being torn down without a
    /// result; stand down and report the abort upward.
    Abort { reason: u8 },
}

/// Wire codes for [`CtlMsg::Error::kind`].
pub mod errkind {
    pub const PEER_LOST: u8 = 0;
    pub const IO: u8 = 1;
    pub const MALFORMED: u8 = 2;
    pub const PROTOCOL: u8 = 3;

    pub fn name(kind: u8) -> &'static str {
        match kind {
            PEER_LOST => "peer-lost",
            IO => "io",
            MALFORMED => "malformed-frame",
            _ => "protocol",
        }
    }
}

/// Wire codes for [`CtlMsg::Abort::reason`].
pub mod abort_reason {
    pub const UNRECOVERABLE: u8 = 0;
    pub const PROBES_EXHAUSTED: u8 = 1;
    pub const PEER_ERROR: u8 = 2;
    pub const RECOVERY_TIMEOUT: u8 = 3;
    pub const PROTOCOL: u8 = 4;

    pub fn name(reason: u8) -> &'static str {
        match reason {
            UNRECOVERABLE => "unrecoverable node failure",
            PROBES_EXHAUSTED => "liveness probes exhausted",
            PEER_ERROR => "a node reported a fatal transport error",
            RECOVERY_TIMEOUT => "recovery did not complete in time",
            _ => "barrier protocol violation",
        }
    }
}

/// A worker's lifetime counters over its hosted nodes (sums, except
/// `node_sends` and `max_link_load`, which are maxima — the reductions
/// `RunStats` applies), merged by the coordinator into the run's
/// [`dw_congest::RunStats`]. Senders account drop/duplicate/delay
/// decisions (they evaluate the pure fault plan); receivers account
/// late deliveries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeReport {
    pub node_sends: u64,
    pub messages: u64,
    pub total_words: u64,
    pub max_link_load: u64,
    pub dropped: u64,
    pub outage_dropped: u64,
    pub duplicated: u64,
    pub delayed: u64,
    pub late_delivered: u64,
}

impl<M: WireCodec> WireCodec for Frame<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frame::EndRound { round } => {
                out.push(1);
                round.encode(out);
            }
            Frame::RoundBatch { round, entries } => {
                out.push(3);
                round.encode(out);
                entries.encode(out);
            }
            Frame::BatchReplay { frames } => {
                out.push(4);
                frames.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            1 => Some(Frame::EndRound {
                round: Round::decode(buf)?,
            }),
            3 => Some(Frame::RoundBatch {
                round: Round::decode(buf)?,
                entries: Vec::<BatchEntry<M>>::decode(buf)?,
            }),
            4 => Some(Frame::BatchReplay {
                frames: Vec::<(Round, BatchEntry<M>)>::decode(buf)?,
            }),
            _ => None,
        }
    }
}

impl WireCodec for NodeReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node_sends.encode(out);
        self.messages.encode(out);
        self.total_words.encode(out);
        self.max_link_load.encode(out);
        self.dropped.encode(out);
        self.outage_dropped.encode(out);
        self.duplicated.encode(out);
        self.delayed.encode(out);
        self.late_delivered.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(NodeReport {
            node_sends: u64::decode(buf)?,
            messages: u64::decode(buf)?,
            total_words: u64::decode(buf)?,
            max_link_load: u64::decode(buf)?,
            dropped: u64::decode(buf)?,
            outage_dropped: u64::decode(buf)?,
            duplicated: u64::decode(buf)?,
            delayed: u64::decode(buf)?,
            late_delivered: u64::decode(buf)?,
        })
    }
}

/// `RunOutcome` as a wire byte.
pub fn outcome_code(o: RunOutcome) -> u8 {
    match o {
        RunOutcome::Quiet => 0,
        RunOutcome::BudgetExhausted => 1,
    }
}

/// Inverse of [`outcome_code`].
pub fn outcome_from_code(c: u8) -> Option<RunOutcome> {
    match c {
        0 => Some(RunOutcome::Quiet),
        1 => Some(RunOutcome::BudgetExhausted),
        _ => None,
    }
}

impl WireCodec for CtlMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CtlMsg::Go { round } => {
                out.push(0);
                round.encode(out);
            }
            CtlMsg::Stop { outcome } => {
                out.push(1);
                out.push(outcome_code(*outcome));
            }
            CtlMsg::Done {
                round,
                sent,
                late,
                hint,
                pending_due,
            } => {
                out.push(2);
                round.encode(out);
                sent.encode(out);
                late.encode(out);
                hint.encode(out);
                pending_due.encode(out);
            }
            CtlMsg::Final { report } => {
                out.push(3);
                report.encode(out);
            }
            CtlMsg::Checkpoint { round, data } => {
                out.push(4);
                round.encode(out);
                data.encode(out);
            }
            CtlMsg::Ping => out.push(5),
            CtlMsg::Pong { round } => {
                out.push(6);
                round.encode(out);
            }
            CtlMsg::Rejoin {
                round,
                checkpoint_round,
                snapshot,
                executed,
            } => {
                out.push(7);
                round.encode(out);
                checkpoint_round.encode(out);
                snapshot.encode(out);
                executed.encode(out);
            }
            CtlMsg::ReplayRequest { target, from_round } => {
                out.push(8);
                target.encode(out);
                from_round.encode(out);
            }
            CtlMsg::Error { kind, peer, round } => {
                out.push(9);
                kind.encode(out);
                peer.encode(out);
                round.encode(out);
            }
            CtlMsg::Abort { reason } => {
                out.push(10);
                reason.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(CtlMsg::Go {
                round: Round::decode(buf)?,
            }),
            1 => Some(CtlMsg::Stop {
                outcome: outcome_from_code(u8::decode(buf)?)?,
            }),
            2 => Some(CtlMsg::Done {
                round: Round::decode(buf)?,
                sent: u64::decode(buf)?,
                late: u64::decode(buf)?,
                hint: Option::<Round>::decode(buf)?,
                pending_due: Option::<Round>::decode(buf)?,
            }),
            3 => Some(CtlMsg::Final {
                report: NodeReport::decode(buf)?,
            }),
            4 => Some(CtlMsg::Checkpoint {
                round: Round::decode(buf)?,
                data: Vec::<u8>::decode(buf)?,
            }),
            5 => Some(CtlMsg::Ping),
            6 => Some(CtlMsg::Pong {
                round: Round::decode(buf)?,
            }),
            7 => Some(CtlMsg::Rejoin {
                round: Round::decode(buf)?,
                checkpoint_round: Round::decode(buf)?,
                snapshot: Vec::<u8>::decode(buf)?,
                executed: Vec::<Round>::decode(buf)?,
            }),
            8 => Some(CtlMsg::ReplayRequest {
                target: NodeId::decode(buf)?,
                from_round: Round::decode(buf)?,
            }),
            9 => Some(CtlMsg::Error {
                kind: u8::decode(buf)?,
                peer: Option::<NodeId>::decode(buf)?,
                round: Round::decode(buf)?,
            }),
            10 => Some(CtlMsg::Abort {
                reason: u8::decode(buf)?,
            }),
            _ => None,
        }
    }
}

/// Encode one length-prefixed frame into `scratch` (replacing its
/// contents): a `u32` little-endian byte count followed by the value's
/// [`WireCodec`] encoding.
pub fn encode_frame<T: WireCodec>(value: &T, scratch: &mut Vec<u8>) {
    scratch.clear();
    scratch.extend_from_slice(&[0u8; 4]);
    value.encode(scratch);
    let body = (scratch.len() - 4) as u32;
    scratch[..4].copy_from_slice(&body.to_le_bytes());
}

/// Write one length-prefixed frame ([`encode_frame`]) in a single
/// `write_all` (one syscall on an OS stream). `scratch` is reused
/// across calls to stay allocation-free in steady state.
pub fn write_frame<W: Write, T: WireCodec>(
    w: &mut W,
    value: &T,
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    encode_frame(value, scratch);
    w.write_all(scratch)
}

/// Upper bound on a frame body, enforced before allocating: a
/// corrupted or hostile length prefix must not be able to demand a
/// multi-gigabyte buffer. Generous for real traffic — the largest
/// legitimate frames are rejoin snapshots and replay batches, which
/// scale with one node's state, not the graph.
pub const MAX_FRAME_BYTES: usize = 1 << 26;

/// Read one length-prefixed frame. `Ok(None)` is a clean end of stream
/// (the peer closed between frames); a close mid-frame or an encoding
/// the codec rejects is an error.
pub fn read_frame<R: Read, T: WireCodec>(r: &mut R) -> io::Result<Option<T>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let k = r.read(&mut len[filled..])?;
        if k == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream closed inside a frame header",
            ));
        }
        filled += k;
    }
    let body = u32::from_le_bytes(len) as usize;
    if body > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {body} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; body];
    r.read_exact(&mut buf)?;
    let value = decode_exact(&buf).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed frame body or trailing bytes",
        )
    })?;
    Ok(Some(value))
}

/// Decode one value that must span all of `bytes`; `None` if it does
/// not decode or leaves bytes over.
pub(crate) fn decode_exact<T: WireCodec>(mut bytes: &[u8]) -> Option<T> {
    let value = T::decode(&mut bytes)?;
    bytes.is_empty().then_some(value)
}

/// An event a worker pulls off its transport: a frame from a peer
/// worker, a control message from the coordinator, or a transport
/// fault reported by a reader thread (a connection that died mid-run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<M> {
    Peer {
        from: NodeId,
        frame: Frame<M>,
    },
    Ctl(CtlMsg),
    /// A connection was lost: `from` names the peer when the dead
    /// stream was a graph link, `None` when it was the coordinator
    /// channel.
    Lost {
        from: Option<NodeId>,
        detail: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_congest::codec::roundtrip;

    fn entry(due: Round, msg: u64) -> BatchEntry<u64> {
        BatchEntry {
            from: 1,
            to: 2,
            due,
            msg,
        }
    }

    #[test]
    fn frames_roundtrip() {
        let p: Frame<u64> = Frame::RoundBatch {
            round: 3,
            entries: vec![entry(3, 42), entry(7, 43)],
        };
        assert_eq!(roundtrip(&p), Some(p.clone()));
        let e: Frame<u64> = Frame::EndRound { round: 9 };
        assert_eq!(roundtrip(&e), Some(e.clone()));
        let b: Frame<u64> = Frame::BatchReplay {
            frames: vec![(4, entry(4, 11)), (4, entry(6, 12)), (5, entry(5, 13))],
        };
        assert_eq!(roundtrip(&b), Some(b.clone()));
        // Surviving kinds keep their tags; the retired ones are rejected.
        let mut bytes = Vec::new();
        e.encode(&mut bytes);
        assert_eq!(bytes[0], 1);
        for retired in [0u8, 2] {
            bytes[0] = retired;
            assert_eq!(Frame::<u64>::decode(&mut bytes.as_slice()), None);
        }
    }

    #[test]
    fn recovery_ctl_roundtrip() {
        for msg in [
            CtlMsg::Checkpoint {
                round: 8,
                data: vec![1, 2, 3],
            },
            CtlMsg::Ping,
            CtlMsg::Pong { round: 12 },
            CtlMsg::Rejoin {
                round: 9,
                checkpoint_round: 4,
                snapshot: vec![9, 9],
                executed: vec![5, 7],
            },
            CtlMsg::ReplayRequest {
                target: 3,
                from_round: 4,
            },
            CtlMsg::Error {
                kind: errkind::PEER_LOST,
                peer: Some(2),
                round: 6,
            },
            CtlMsg::Abort {
                reason: abort_reason::UNRECOVERABLE,
            },
        ] {
            assert_eq!(roundtrip(&msg), Some(msg.clone()));
        }
    }

    #[test]
    fn oversized_frame_header_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = buf.as_slice();
        let err = read_frame::<_, CtlMsg>(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cap"));
    }

    #[test]
    fn ctl_roundtrip() {
        for msg in [
            CtlMsg::Go { round: 5 },
            CtlMsg::Stop {
                outcome: RunOutcome::Quiet,
            },
            CtlMsg::Stop {
                outcome: RunOutcome::BudgetExhausted,
            },
            CtlMsg::Done {
                round: 4,
                sent: 10,
                late: 2,
                hint: Some(9),
                pending_due: None,
            },
            CtlMsg::Final {
                report: NodeReport {
                    node_sends: 1,
                    messages: 2,
                    total_words: 3,
                    max_link_load: 4,
                    dropped: 5,
                    outage_dropped: 6,
                    duplicated: 7,
                    delayed: 8,
                    late_delivered: 9,
                },
            },
        ] {
            assert_eq!(roundtrip(&msg), Some(msg.clone()));
        }
    }

    #[test]
    fn framed_io_roundtrip() {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut buf, &CtlMsg::Go { round: 2 }, &mut scratch).unwrap();
        let batch = Frame::RoundBatch {
            round: 2,
            entries: vec![entry(2, 77)],
        };
        write_frame(&mut buf, &batch, &mut scratch).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(
            read_frame::<_, CtlMsg>(&mut r).unwrap(),
            Some(CtlMsg::Go { round: 2 })
        );
        assert_eq!(read_frame::<_, Frame<u64>>(&mut r).unwrap(), Some(batch));
        assert_eq!(read_frame::<_, Frame<u64>>(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_frame_errors() {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut buf, &CtlMsg::Go { round: 2 }, &mut scratch).unwrap();
        let mut r = &buf[..buf.len() - 1];
        assert!(read_frame::<_, CtlMsg>(&mut r).is_err());
        let mut r = &buf[..2];
        assert!(read_frame::<_, CtlMsg>(&mut r).is_err());
    }
}
