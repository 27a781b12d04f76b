//! Maelstrom-style stdio backend: each worker is a process speaking
//! JSON lines on stdin/stdout, routed by an external harness.
//!
//! One message per line, shaped like a Maelstrom network message:
//!
//! ```json
//! {"src":"n0","dest":"n1","body":{"type":"end_round","round":3}}
//! ```
//!
//! Worker `s` of the [`ShardMap`] layout is named `n<s>` — with one
//! node per worker (`P = n`, what a harness that names graph nodes
//! wants) that is the node's own id; the coordinator is [`COORD`]
//! (`c0`). Body types mirror the binary wire protocol one-to-one:
//! `end_round` / `round_batch` / `batch_replay` for [`Frame`], `go` /
//! `stop` / `done` / `final` plus the recovery family (`checkpoint`,
//! `ping`, `pong`, `rejoin`, `replay_request`, `error`, `abort`) for
//! [`CtlMsg`]; batches ride as their [`WireCodec`] bytes in a JSON
//! integer array, so any `Protocol` the binary backends can run, this
//! one can too.
//!
//! The JSON emitted here is compact and single-line; parsing is a
//! small field scanner (the repo builds offline — no serde), tolerant
//! of whitespace after `:` but not of exotic re-orderings inside
//! `body`, which is fine for harnesses that echo messages verbatim.
//! [`pipe`] provides in-memory stdin/stdout pairs so a whole network
//! plus router can run inside one process (see the conformance tests).
//!
//! Error semantics: every runtime fault — stdin closing mid-run, a
//! write to a dead pipe, a malformed or misrouted line — surfaces as a
//! typed [`TransportError`], never a panic, so a harness-driven node
//! process exits nonzero with a diagnostic instead of aborting.

use crate::error::TransportError;
use crate::shard::{shard_main, NodeEndpoint, ShardError, ShardMap, TransportConfig};
use crate::wire::{BatchEntry, CtlMsg, Event, Frame, NodeReport};
use dw_congest::{Protocol, Round, RunOutcome, WireCodec};
use dw_graph::{NodeId, WGraph};
use std::fmt::Write as _;
use std::io::{self, BufRead, Read, Write};
use std::sync::mpsc::{Receiver, Sender};
use std::time::Duration;

/// The coordinator's node name.
pub const COORD: &str = "c0";

/// Name of worker `v` on the wire.
pub fn node_name(v: NodeId) -> String {
    format!("n{v}")
}

/// Inverse of [`node_name`]; `None` for the coordinator or garbage.
pub fn parse_node_name(name: &str) -> Option<NodeId> {
    name.strip_prefix('n')?.parse().ok()
}

// --- JSON scanning helpers -------------------------------------------------

/// Position just after `"key":` (plus whitespace) in `line`.
pub(crate) fn value_start<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    Some(line[at..].trim_start())
}

pub(crate) fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = value_start(line, key)?.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

pub(crate) fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = value_start(line, key)?;
    let digits: &str = &rest[..rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len())];
    digits.parse().ok()
}

/// `"key":null` (or absent key) is `None`; a number is `Some`.
fn json_opt_u64(line: &str, key: &str) -> Option<u64> {
    let rest = value_start(line, key)?;
    if rest.starts_with("null") {
        return None;
    }
    json_u64(line, key)
}

fn json_bytes(line: &str, key: &str) -> Option<Vec<u8>> {
    let rest = value_start(line, key)?.strip_prefix('[')?;
    let end = rest.find(']')?;
    let body = &rest[..end];
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    body.split(',')
        .map(|tok| tok.trim().parse::<u8>().ok())
        .collect()
}

fn json_u64s(line: &str, key: &str) -> Option<Vec<u64>> {
    let rest = value_start(line, key)?.strip_prefix('[')?;
    let end = rest.find(']')?;
    let body = &rest[..end];
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    body.split(',')
        .map(|tok| tok.trim().parse::<u64>().ok())
        .collect()
}

// --- rendering -------------------------------------------------------------

fn push_opt(out: &mut String, key: &str, v: Option<u64>) {
    match v {
        Some(x) => {
            let _ = write!(out, "\"{key}\":{x}");
        }
        None => {
            let _ = write!(out, "\"{key}\":null");
        }
    }
}

fn push_byte_array(out: &mut String, bytes: &[u8]) {
    out.push('[');
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push(']');
}

/// Render a frame as a JSON body object.
pub fn frame_body<M: WireCodec>(frame: &Frame<M>) -> String {
    match frame {
        Frame::EndRound { round } => {
            format!("{{\"type\":\"end_round\",\"round\":{round}}}")
        }
        Frame::RoundBatch { round, entries } => {
            // The whole batch rides as its binary encoding; the harness
            // routes it opaquely.
            let mut bytes = Vec::new();
            entries.encode(&mut bytes);
            let mut s = format!("{{\"type\":\"round_batch\",\"round\":{round},\"data\":");
            push_byte_array(&mut s, &bytes);
            s.push('}');
            s
        }
        Frame::BatchReplay { frames } => {
            let mut bytes = Vec::new();
            frames.encode(&mut bytes);
            let mut s = String::from("{\"type\":\"batch_replay\",\"data\":");
            push_byte_array(&mut s, &bytes);
            s.push('}');
            s
        }
    }
}

/// Render a control message as a JSON body object.
pub fn ctl_body(msg: &CtlMsg) -> String {
    match msg {
        CtlMsg::Go { round } => format!("{{\"type\":\"go\",\"round\":{round}}}"),
        CtlMsg::Stop { outcome } => {
            let word = match outcome {
                RunOutcome::Quiet => "quiet",
                RunOutcome::BudgetExhausted => "budget",
            };
            format!("{{\"type\":\"stop\",\"outcome\":\"{word}\"}}")
        }
        CtlMsg::Done {
            round,
            sent,
            late,
            hint,
            pending_due,
        } => {
            let mut s =
                format!("{{\"type\":\"done\",\"round\":{round},\"sent\":{sent},\"late\":{late},");
            push_opt(&mut s, "hint", *hint);
            s.push(',');
            push_opt(&mut s, "pending_due", *pending_due);
            s.push('}');
            s
        }
        CtlMsg::Final { report } => format!(
            "{{\"type\":\"final\",\"node_sends\":{},\"messages\":{},\"total_words\":{},\
             \"max_link_load\":{},\"dropped\":{},\"outage_dropped\":{},\"duplicated\":{},\
             \"delayed\":{},\"late_delivered\":{}}}",
            report.node_sends,
            report.messages,
            report.total_words,
            report.max_link_load,
            report.dropped,
            report.outage_dropped,
            report.duplicated,
            report.delayed,
            report.late_delivered,
        ),
        CtlMsg::Checkpoint { round, data } => {
            let mut s = format!("{{\"type\":\"checkpoint\",\"round\":{round},\"data\":");
            push_byte_array(&mut s, data);
            s.push('}');
            s
        }
        CtlMsg::Ping => String::from("{\"type\":\"ping\"}"),
        CtlMsg::Pong { round } => format!("{{\"type\":\"pong\",\"round\":{round}}}"),
        CtlMsg::Rejoin {
            round,
            checkpoint_round,
            snapshot,
            executed,
        } => {
            let mut s = format!(
                "{{\"type\":\"rejoin\",\"round\":{round},\
                 \"checkpoint_round\":{checkpoint_round},\"snapshot\":"
            );
            push_byte_array(&mut s, snapshot);
            s.push_str(",\"executed\":[");
            for (i, r) in executed.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{r}");
            }
            s.push_str("]}");
            s
        }
        CtlMsg::ReplayRequest { target, from_round } => format!(
            "{{\"type\":\"replay_request\",\"target\":{target},\"from_round\":{from_round}}}"
        ),
        CtlMsg::Error { kind, peer, round } => {
            let mut s = format!("{{\"type\":\"error\",\"kind\":{kind},");
            push_opt(&mut s, "peer", peer.map(u64::from));
            let _ = write!(s, ",\"round\":{round}}}");
            s
        }
        CtlMsg::Abort { reason } => format!("{{\"type\":\"abort\",\"reason\":{reason}}}"),
    }
}

/// Write one complete message line (`write_all` of a single buffer, so
/// in-memory pipes see one chunk per line) and flush.
pub fn write_line<W: Write>(w: &mut W, src: &str, dest: &str, body: &str) -> io::Result<()> {
    let line = format!("{{\"src\":\"{src}\",\"dest\":\"{dest}\",\"body\":{body}}}\n");
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// The `dest` field of a message line — the only thing a router needs,
/// so it can forward lines without decoding bodies.
pub fn line_dest(line: &str) -> Option<&str> {
    json_str(line, "dest")
}

/// A parsed message body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineBody<M> {
    Frame(Frame<M>),
    Ctl(CtlMsg),
}

/// Parse one message line into `(src, dest, body)`.
pub fn parse_line<M: WireCodec>(line: &str) -> Option<(String, String, LineBody<M>)> {
    let src = json_str(line, "src")?.to_string();
    let dest = json_str(line, "dest")?.to_string();
    let body = match json_str(line, "type")? {
        "end_round" => LineBody::Frame(Frame::EndRound {
            round: json_u64(line, "round")?,
        }),
        "round_batch" => {
            let bytes = json_bytes(line, "data")?;
            let mut view = bytes.as_slice();
            let entries = Vec::<BatchEntry<M>>::decode(&mut view)?;
            if !view.is_empty() {
                return None;
            }
            LineBody::Frame(Frame::RoundBatch {
                round: json_u64(line, "round")?,
                entries,
            })
        }
        "batch_replay" => {
            let bytes = json_bytes(line, "data")?;
            let mut view = bytes.as_slice();
            let frames = Vec::<(Round, BatchEntry<M>)>::decode(&mut view)?;
            if !view.is_empty() {
                return None;
            }
            LineBody::Frame(Frame::BatchReplay { frames })
        }
        "go" => LineBody::Ctl(CtlMsg::Go {
            round: json_u64(line, "round")?,
        }),
        "stop" => LineBody::Ctl(CtlMsg::Stop {
            outcome: match json_str(line, "outcome")? {
                "quiet" => RunOutcome::Quiet,
                "budget" => RunOutcome::BudgetExhausted,
                _ => return None,
            },
        }),
        "done" => LineBody::Ctl(CtlMsg::Done {
            round: json_u64(line, "round")?,
            sent: json_u64(line, "sent")?,
            late: json_u64(line, "late")?,
            hint: json_opt_u64(line, "hint"),
            pending_due: json_opt_u64(line, "pending_due"),
        }),
        "final" => LineBody::Ctl(CtlMsg::Final {
            report: NodeReport {
                node_sends: json_u64(line, "node_sends")?,
                messages: json_u64(line, "messages")?,
                total_words: json_u64(line, "total_words")?,
                max_link_load: json_u64(line, "max_link_load")?,
                dropped: json_u64(line, "dropped")?,
                outage_dropped: json_u64(line, "outage_dropped")?,
                duplicated: json_u64(line, "duplicated")?,
                delayed: json_u64(line, "delayed")?,
                late_delivered: json_u64(line, "late_delivered")?,
            },
        }),
        "checkpoint" => LineBody::Ctl(CtlMsg::Checkpoint {
            round: json_u64(line, "round")?,
            data: json_bytes(line, "data")?,
        }),
        "ping" => LineBody::Ctl(CtlMsg::Ping),
        "pong" => LineBody::Ctl(CtlMsg::Pong {
            round: json_u64(line, "round")?,
        }),
        "rejoin" => LineBody::Ctl(CtlMsg::Rejoin {
            round: json_u64(line, "round")?,
            checkpoint_round: json_u64(line, "checkpoint_round")?,
            snapshot: json_bytes(line, "snapshot")?,
            executed: json_u64s(line, "executed")?,
        }),
        "replay_request" => LineBody::Ctl(CtlMsg::ReplayRequest {
            target: json_u64(line, "target")? as NodeId,
            from_round: json_u64(line, "from_round")?,
        }),
        "error" => LineBody::Ctl(CtlMsg::Error {
            kind: json_u64(line, "kind")? as u8,
            peer: json_opt_u64(line, "peer").map(|p| p as NodeId),
            round: json_u64(line, "round")?,
        }),
        "abort" => LineBody::Ctl(CtlMsg::Abort {
            reason: json_u64(line, "reason")? as u8,
        }),
        _ => return None,
    };
    Some((src, dest, body))
}

// --- endpoints -------------------------------------------------------------

/// A worker endpoint over a line stream (stdin/stdout or [`pipe`]s).
pub struct StdioNode<M, R: BufRead, W: Write> {
    name: String,
    reader: R,
    writer: W,
    line: String,
    _msg: std::marker::PhantomData<M>,
}

impl<M, R: BufRead, W: Write> StdioNode<M, R, W> {
    pub fn new(id: NodeId, reader: R, writer: W) -> Self {
        StdioNode {
            name: node_name(id),
            reader,
            writer,
            line: String::new(),
            _msg: std::marker::PhantomData,
        }
    }
}

impl<M: WireCodec, R: BufRead, W: Write> NodeEndpoint<M> for StdioNode<M, R, W> {
    fn send_peer(&mut self, to: NodeId, frame: Frame<M>) -> Result<(), TransportError> {
        let body = frame_body(&frame);
        write_line(&mut self.writer, &self.name, &node_name(to), &body)
            .map_err(|e| TransportError::io(format!("{}: stdout write", self.name), &e))
    }
    fn send_ctl(&mut self, msg: CtlMsg) -> Result<(), TransportError> {
        let body = ctl_body(&msg);
        write_line(&mut self.writer, &self.name, COORD, &body)
            .map_err(|e| TransportError::io(format!("{}: stdout write", self.name), &e))
    }
    fn recv(&mut self) -> Result<Event<M>, TransportError> {
        loop {
            self.line.clear();
            let k = self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| TransportError::io(format!("{}: stdin read", self.name), &e))?;
            if k == 0 {
                // The harness hung up: a clean typed fault, so the node
                // process exits nonzero instead of hanging or aborting.
                return Err(TransportError::peer_lost(format!(
                    "{}: stdin closed mid-run",
                    self.name
                )));
            }
            let line = self.line.trim_end();
            if line.is_empty() {
                continue;
            }
            let Some((src, dest, body)) = parse_line::<M>(line) else {
                return Err(TransportError::MalformedFrame {
                    context: format!("{}: malformed message line: {line}", self.name),
                });
            };
            if dest != self.name {
                return Err(TransportError::protocol(format!(
                    "{}: misrouted line from {src} (dest {dest})",
                    self.name
                )));
            }
            return match body {
                LineBody::Ctl(msg) => {
                    if src != COORD {
                        return Err(TransportError::protocol(format!(
                            "{}: control message from {src}",
                            self.name
                        )));
                    }
                    Ok(Event::Ctl(msg))
                }
                LineBody::Frame(frame) => {
                    let Some(from) = parse_node_name(&src) else {
                        return Err(TransportError::protocol(format!(
                            "{}: frame from non-node {src}",
                            self.name
                        )));
                    };
                    Ok(Event::Peer { from, frame })
                }
            };
        }
    }
}

/// Run worker `shard` of the layout as a stdio process hosting `nodes`
/// (the protocol states of `map.nodes(shard)`, id order): reads its
/// harness-routed lines from `reader`, writes its own messages to
/// `writer`, returns the final states when the coordinator stops the
/// run. With `io::stdin().lock()` and `io::stdout()` this is the whole
/// body of a Maelstrom-style binary. A transport fault (stdin closing
/// mid-run, a malformed line) comes back as the typed error for the
/// caller to exit nonzero on.
pub fn run_shard_stdio<P: Protocol>(
    map: &ShardMap,
    shard: NodeId,
    g: &WGraph,
    cfg: &TransportConfig,
    nodes: Vec<P>,
    reader: impl BufRead,
    writer: impl Write,
) -> Result<(Vec<P>, RunOutcome), Box<ShardError<P>>>
where
    P::Msg: WireCodec,
{
    let mut ep = StdioNode::new(shard, reader, writer);
    let (nodes, _report, outcome) = shard_main(map, shard, g, cfg, nodes, &mut ep)?;
    Ok((nodes, outcome))
}

/// The coordinator as a stdio participant: broadcasts `go`/`stop`
/// lines to workers `n0..n{n-1}`, reads `done`/`final` lines routed to
/// `c0`.
///
/// Line streams have no timeout machinery, so a configured
/// `round_deadline` degrades to a blocking read — the stdio backend is
/// a conformance/harness transport, not a failure-detecting one.
pub struct StdioCoord<R: BufRead, W: Write> {
    n: usize,
    reader: R,
    writer: W,
    line: String,
}

impl<R: BufRead, W: Write> StdioCoord<R, W> {
    pub fn new(n: usize, reader: R, writer: W) -> Self {
        StdioCoord {
            n,
            reader,
            writer,
            line: String::new(),
        }
    }
}

impl<R: BufRead, W: Write> crate::coordinator::CoordEndpoint for StdioCoord<R, W> {
    fn broadcast(&mut self, msg: CtlMsg) -> Result<(), TransportError> {
        let body = ctl_body(&msg);
        let mut first_err = None;
        for v in 0..self.n {
            if let Err(e) = write_line(&mut self.writer, COORD, &node_name(v as NodeId), &body) {
                if first_err.is_none() {
                    first_err = Some(TransportError::io("coordinator: stdout write", &e));
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
    fn send_to(&mut self, node: NodeId, msg: CtlMsg) -> Result<(), TransportError> {
        let body = ctl_body(&msg);
        write_line(&mut self.writer, COORD, &node_name(node), &body)
            .map_err(|e| TransportError::io("coordinator: stdout write", &e))
    }
    fn recv(
        &mut self,
        _timeout: Option<Duration>,
    ) -> Result<Option<(NodeId, CtlMsg)>, TransportError> {
        loop {
            self.line.clear();
            let k = self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| TransportError::io("coordinator: stdin read", &e))?;
            if k == 0 {
                return Err(TransportError::peer_lost(
                    "coordinator: stdin closed mid-run",
                ));
            }
            let line = self.line.trim_end();
            if line.is_empty() {
                continue;
            }
            // Control lines carry no payload bytes, so the unit codec
            // suffices for parsing.
            let Some((src, dest, body)) = parse_line::<()>(line) else {
                return Err(TransportError::MalformedFrame {
                    context: format!("coordinator: malformed line: {line}"),
                });
            };
            if dest != COORD {
                return Err(TransportError::protocol(format!(
                    "coordinator: misrouted line from {src} (dest {dest})"
                )));
            }
            match body {
                LineBody::Ctl(msg) => {
                    let Some(id) = parse_node_name(&src) else {
                        return Err(TransportError::protocol(format!(
                            "coordinator: line from non-node {src}"
                        )));
                    };
                    return Ok(Some((id, msg)));
                }
                LineBody::Frame(_) => {
                    return Err(TransportError::protocol(format!(
                        "coordinator: got a node-to-node frame from {src}"
                    )))
                }
            }
        }
    }
}

// --- in-memory pipes for single-process harnesses --------------------------

/// Write half of an in-memory pipe; each `write` call forwards one
/// chunk, so a [`write_line`] arrives as exactly one message.
pub struct PipeWriter {
    tx: Sender<Vec<u8>>,
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx
            .send(buf.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "pipe reader dropped"))?;
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Read half of an in-memory pipe; EOF once every writer is dropped.
pub struct PipeReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let k = (self.buf.len() - self.pos).min(out.len());
        out[..k].copy_from_slice(&self.buf[self.pos..self.pos + k]);
        self.pos += k;
        Ok(k)
    }
}

/// An in-memory pipe pair. `PipeWriter` is cheap to construct from the
/// returned sender's clones via [`pipe_writer`] when several
/// participants share one sink (e.g. a router collecting all stdout).
pub fn pipe() -> (PipeWriter, PipeReader) {
    let (tx, rx) = std::sync::mpsc::channel();
    (
        PipeWriter { tx },
        PipeReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        },
    )
}

/// A writer into an existing pipe sink.
pub fn pipe_writer(tx: Sender<Vec<u8>>) -> PipeWriter {
    PipeWriter { tx }
}

/// The sender side of a fresh pipe, exposed for router fan-in wiring.
pub fn pipe_with_sender() -> (Sender<Vec<u8>>, PipeReader) {
    let (tx, rx) = std::sync::mpsc::channel();
    (
        tx,
        PipeReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{abort_reason, errkind};
    use std::io::BufReader;

    #[test]
    fn bodies_roundtrip_through_json() {
        let entry = |due, msg| BatchEntry {
            from: 4,
            to: 9,
            due,
            msg,
        };
        let frames: Vec<Frame<u64>> = vec![
            Frame::RoundBatch {
                round: 3,
                entries: vec![entry(3, 0xfeed), entry(7, 1)],
            },
            Frame::EndRound { round: 12 },
            Frame::BatchReplay {
                frames: vec![(4, entry(4, 11)), (5, entry(9, 12))],
            },
            Frame::BatchReplay { frames: vec![] },
        ];
        for f in frames {
            let line = format!(
                "{{\"src\":\"n1\",\"dest\":\"n2\",\"body\":{}}}",
                frame_body(&f)
            );
            let (src, dest, body) = parse_line::<u64>(&line).unwrap();
            assert_eq!((src.as_str(), dest.as_str()), ("n1", "n2"));
            assert_eq!(body, LineBody::Frame(f));
        }
        let ctls = vec![
            CtlMsg::Go { round: 9 },
            CtlMsg::Stop {
                outcome: RunOutcome::Quiet,
            },
            CtlMsg::Done {
                round: 4,
                sent: 2,
                late: 0,
                hint: None,
                pending_due: Some(8),
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
            CtlMsg::Checkpoint {
                round: 6,
                data: vec![1, 2, 250],
            },
            CtlMsg::Checkpoint {
                round: 0,
                data: vec![],
            },
            CtlMsg::Ping,
            CtlMsg::Pong { round: 11 },
            CtlMsg::Rejoin {
                round: 9,
                checkpoint_round: 6,
                snapshot: vec![7, 8],
                executed: vec![7, 8],
            },
            CtlMsg::ReplayRequest {
                target: 3,
                from_round: 6,
            },
            CtlMsg::Error {
                kind: errkind::PEER_LOST,
                peer: Some(2),
                round: 4,
            },
            CtlMsg::Error {
                kind: errkind::IO,
                peer: None,
                round: 0,
            },
            CtlMsg::Abort {
                reason: abort_reason::UNRECOVERABLE,
            },
        ];
        for c in ctls {
            let line = format!(
                "{{\"src\":\"c0\",\"dest\":\"n0\",\"body\":{}}}",
                ctl_body(&c)
            );
            let (src, _, body) = parse_line::<u64>(&line).unwrap();
            assert_eq!(src, "c0");
            assert_eq!(body, LineBody::Ctl(c));
        }
    }

    #[test]
    fn whitespace_after_colons_is_tolerated() {
        let line = "{\"src\": \"n0\", \"dest\": \"c0\", \"body\": {\"type\": \"done\", \
                    \"round\": 2, \"sent\": 1, \"late\": 0, \"hint\": null, \"pending_due\": 5}}";
        let (src, dest, body) = parse_line::<u64>(line).unwrap();
        assert_eq!((src.as_str(), dest.as_str()), ("n0", "c0"));
        assert_eq!(
            body,
            LineBody::Ctl(CtlMsg::Done {
                round: 2,
                sent: 1,
                late: 0,
                hint: None,
                pending_due: Some(5),
            })
        );
    }

    #[test]
    fn node_names_roundtrip() {
        assert_eq!(parse_node_name(&node_name(17)), Some(17));
        assert_eq!(parse_node_name(COORD), None);
        assert_eq!(parse_node_name("x3"), None);
    }

    #[test]
    fn stdin_eof_mid_run_is_a_typed_peer_lost_error() {
        // The harness dies (empty stdin). The node must surface a
        // typed PeerLost, not panic or hang.
        let reader = BufReader::new(io::empty());
        let mut sink = Vec::new();
        let mut ep: StdioNode<u64, _, _> = StdioNode::new(3, reader, &mut sink);
        match ep.recv() {
            Err(TransportError::PeerLost { context }) => {
                assert!(context.contains("n3"), "names the node: {context}");
                assert!(context.contains("closed mid-run"));
            }
            other => panic!("expected PeerLost, got {other:?}"),
        }
    }

    #[test]
    fn coordinator_stdin_eof_is_a_typed_peer_lost_error() {
        use crate::coordinator::CoordEndpoint as _;
        let reader = BufReader::new(io::empty());
        let mut sink = Vec::new();
        let mut coord = StdioCoord::new(2, reader, &mut sink);
        match coord.recv(None) {
            Err(TransportError::PeerLost { context }) => {
                assert!(context.contains("coordinator"));
            }
            other => panic!("expected PeerLost, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_typed_errors_not_panics() {
        let reader = BufReader::new("this is not json\n".as_bytes());
        let mut sink = Vec::new();
        let mut ep: StdioNode<u64, _, _> = StdioNode::new(0, reader, &mut sink);
        assert!(matches!(
            ep.recv(),
            Err(TransportError::MalformedFrame { .. })
        ));

        let reader = BufReader::new(
            "{\"src\":\"n1\",\"dest\":\"n9\",\"body\":{\"type\":\"end_round\",\"round\":1}}\n"
                .as_bytes(),
        );
        let mut sink = Vec::new();
        let mut ep: StdioNode<u64, _, _> = StdioNode::new(0, reader, &mut sink);
        assert!(matches!(ep.recv(), Err(TransportError::Protocol { .. })));
    }
}
