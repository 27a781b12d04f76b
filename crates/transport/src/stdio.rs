//! Maelstrom-style stdio backend: each worker is a process speaking
//! JSON lines on stdin/stdout, routed by an external harness.
//!
//! One message per line, shaped like a Maelstrom network message:
//!
//! ```json
//! {"src":"n0","dest":"n1","body":{"type":"frame","data":[1,3,0,0,0,0,0,0,0]}}
//! ```
//!
//! Worker `s` of the [`ShardMap`] layout is named `n<s>` — with one
//! node per worker (`P = n`, what a harness that names graph nodes
//! wants) that is the node's own id; the coordinator is [`COORD`]
//! (`c0`). A body is `{"type":"frame","data":[…]}` for worker-to-worker
//! traffic ([`Frame`]) or `{"type":"ctl","data":[…]}` for the barrier
//! and recovery family ([`CtlMsg`]); `data` is the message's
//! [`WireCodec`] encoding as a JSON integer array — the bytes the TCP
//! backend puts in a length-prefixed frame. So any `Protocol` the
//! binary backends can run, this one can too, and a message is defined
//! once, in [`crate::wire`].
//!
//! Lines are written compact and single-line and read with
//! [`dw_graph::json`] (the repo builds offline — no serde), which
//! accepts any whitespace and any key order in the envelope and the
//! body. [`pipe_with_sender`] and [`pipe_writer`] provide in-memory
//! stdin/stdout pairs, so a whole network plus router can run inside
//! one process (see the conformance tests).
//!
//! Error semantics: every runtime fault — stdin closing mid-run, a
//! write to a dead pipe, a malformed or misrouted line — surfaces as a
//! typed [`TransportError`], never a panic, so a harness-driven node
//! process exits nonzero with a diagnostic instead of aborting.

use crate::error::TransportError;
use crate::shard::{shard_main, NodeEndpoint, ShardError, ShardMap, TransportConfig};
use crate::wire::{decode_exact, CtlMsg, Event, Frame};
use dw_congest::{Protocol, RunOutcome, WireCodec};
use dw_graph::json::{JsonError, Reader};
use dw_graph::{NodeId, WGraph};
use std::borrow::Cow;
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

// --- lines -----------------------------------------------------------------

/// `{"type":<tag>,"data":[…]}`, `data` being `msg`'s wire bytes; the
/// tag is `"frame"` for a [`Frame`] and `"ctl"` for a [`CtlMsg`].
fn body<T: WireCodec>(tag: &str, msg: &T) -> String {
    let mut bytes = Vec::new();
    msg.encode(&mut bytes);
    let data: Vec<String> = bytes.iter().map(u8::to_string).collect();
    format!("{{\"type\":\"{tag}\",\"data\":[{}]}}", data.join(","))
}

/// The `dest` field of a message line — the only thing a router needs,
/// so it can forward lines without decoding bodies.
pub fn line_dest(line: &str) -> Option<&str> {
    let (mut r, mut dest) = (Reader::new(line), None);
    r.object(|r, key| match key {
        "dest" => r.str().map(|d| dest = Some(d)),
        _ => r.skip(),
    })
    .ok()?;
    match dest? {
        Cow::Borrowed(dest) => Some(dest),
        Cow::Owned(_) => None,
    }
}

/// A parsed message body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineBody<M> {
    Frame(Frame<M>),
    Ctl(CtlMsg),
}

/// Parse one message line into `(src, dest, body)`, keys in any order
/// at both levels. The body's `data` must decode as the message its
/// `type` names with no bytes left over.
pub fn parse_line<M: WireCodec>(line: &str) -> Option<(String, String, LineBody<M>)> {
    let mut r = Reader::new(line);
    let (mut src, mut dest, mut tag, mut data) = (None, None, None, None);
    r.object(|r, key| match key {
        "src" => r.str().map(|s| src = Some(s.into_owned())),
        "dest" => r.str().map(|d| dest = Some(d.into_owned())),
        "body" => r.object(|r, key| match key {
            "type" => r.str().map(|t| tag = Some(t)),
            "data" => bytes(r).map(|b| data = Some(b)),
            _ => r.skip(),
        }),
        _ => r.skip(),
    })
    .and_then(|()| r.end())
    .ok()?;
    let data = data?;
    let body = match tag?.as_ref() {
        "frame" => LineBody::Frame(decode_exact(&data)?),
        "ctl" => LineBody::Ctl(decode_exact(&data)?),
        _ => return None,
    };
    Some((src?, dest?, body))
}

fn bytes(r: &mut Reader) -> Result<Vec<u8>, JsonError> {
    let mut out = Vec::new();
    r.array(|r| {
        let b = r.u64()?;
        out.push(u8::try_from(b).map_err(|_| r.err("byte out of range"))?);
        Ok(())
    })?;
    Ok(out)
}

// --- endpoints -------------------------------------------------------------

/// One participant's end of the line streams: its wire name, the lines
/// routed to it and the lines it writes.
struct Lines<R, W> {
    name: String,
    reader: R,
    writer: W,
    line: String,
}

impl<R: BufRead, W: Write> Lines<R, W> {
    fn new(name: String, reader: R, writer: W) -> Self {
        Lines {
            name,
            reader,
            writer,
            line: String::new(),
        }
    }

    /// Who errors name: the worker's wire name, or "coordinator".
    fn label(&self) -> &str {
        if self.name == COORD {
            "coordinator"
        } else {
            &self.name
        }
    }

    /// Write one complete line (`write_all` of a single buffer, so
    /// in-memory pipes see one chunk per line) and flush.
    fn send(&mut self, dest: &str, body: &str) -> Result<(), TransportError> {
        let line = format!(
            "{{\"src\":\"{}\",\"dest\":\"{dest}\",\"body\":{body}}}\n",
            self.name
        );
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| TransportError::io(format!("{}: stdout write", self.label()), &e))
    }

    /// The next non-blank line, which must be addressed to this
    /// participant, as its sender and body.
    fn recv<M: WireCodec>(&mut self) -> Result<(String, LineBody<M>), TransportError> {
        loop {
            self.line.clear();
            let k = self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| TransportError::io(format!("{}: stdin read", self.label()), &e))?;
            if k == 0 {
                // The harness hung up: a clean typed fault, so the
                // process exits nonzero instead of hanging or aborting.
                return Err(TransportError::peer_lost(format!(
                    "{}: stdin closed mid-run",
                    self.label()
                )));
            }
            let line = self.line.trim_end();
            if line.is_empty() {
                continue;
            }
            let Some((src, dest, body)) = parse_line::<M>(line) else {
                return Err(TransportError::MalformedFrame {
                    context: format!("{}: malformed message line: {line}", self.label()),
                });
            };
            if dest != self.name {
                return Err(TransportError::protocol(format!(
                    "{}: misrouted line from {src} (dest {dest})",
                    self.label()
                )));
            }
            return Ok((src, body));
        }
    }
}

/// A worker endpoint over a line stream (stdin/stdout or in-memory
/// pipes).
pub struct StdioNode<R, W>(Lines<R, W>);

impl<R: BufRead, W: Write> StdioNode<R, W> {
    pub fn new(id: NodeId, reader: R, writer: W) -> Self {
        StdioNode(Lines::new(node_name(id), reader, writer))
    }
}

impl<M: WireCodec, R: BufRead, W: Write> NodeEndpoint<M> for StdioNode<R, W> {
    fn send_peer(&mut self, to: NodeId, frame: Frame<M>) -> Result<(), TransportError> {
        self.0.send(&node_name(to), &body("frame", &frame))
    }
    fn send_ctl(&mut self, msg: CtlMsg) -> Result<(), TransportError> {
        self.0.send(COORD, &body("ctl", &msg))
    }
    fn recv(&mut self) -> Result<Event<M>, TransportError> {
        let (src, body) = self.0.recv::<M>()?;
        let me = &self.0.name;
        match body {
            LineBody::Ctl(msg) if src == COORD => Ok(Event::Ctl(msg)),
            LineBody::Ctl(_) => Err(TransportError::protocol(format!(
                "{me}: control message from {src}"
            ))),
            LineBody::Frame(frame) => match parse_node_name(&src) {
                Some(from) => Ok(Event::Peer { from, frame }),
                None => Err(TransportError::protocol(format!(
                    "{me}: frame from non-node {src}"
                ))),
            },
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

/// The coordinator as a stdio participant: broadcasts control lines to
/// workers `n0..n{n-1}`, reads the control lines routed to `c0`.
///
/// Line streams have no timeout machinery, so a configured
/// `round_deadline` degrades to a blocking read — the stdio backend is
/// a conformance/harness transport, not a failure-detecting one.
pub struct StdioCoord<R, W> {
    n: usize,
    lines: Lines<R, W>,
}

impl<R: BufRead, W: Write> StdioCoord<R, W> {
    pub fn new(n: usize, reader: R, writer: W) -> Self {
        StdioCoord {
            n,
            lines: Lines::new(COORD.to_string(), reader, writer),
        }
    }
}

impl<R: BufRead, W: Write> crate::coordinator::CoordEndpoint for StdioCoord<R, W> {
    fn broadcast(&mut self, msg: CtlMsg) -> Result<(), TransportError> {
        let body = body("ctl", &msg);
        // Every worker gets the line; the first failed write is reported.
        let mut result = Ok(());
        for v in 0..self.n {
            let sent = self.lines.send(&node_name(v as NodeId), &body);
            result = result.and(sent);
        }
        result
    }
    fn send_to(&mut self, node: NodeId, msg: CtlMsg) -> Result<(), TransportError> {
        self.lines.send(&node_name(node), &body("ctl", &msg))
    }
    fn recv(
        &mut self,
        _timeout: Option<Duration>,
    ) -> Result<Option<(NodeId, CtlMsg)>, TransportError> {
        // Control lines carry no payload, so the unit codec suffices.
        let (src, body) = self.lines.recv::<()>()?;
        match (body, parse_node_name(&src)) {
            (LineBody::Ctl(msg), Some(id)) => Ok(Some((id, msg))),
            (LineBody::Ctl(_), None) => Err(TransportError::protocol(format!(
                "coordinator: line from non-node {src}"
            ))),
            (LineBody::Frame(_), _) => Err(TransportError::protocol(format!(
                "coordinator: got a node-to-node frame from {src}"
            ))),
        }
    }
}

// --- in-memory pipes for single-process harnesses --------------------------

/// Write half of an in-memory pipe; each `write` call forwards one
/// chunk, so a line written whole arrives as exactly one message.
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
    chunk: io::Cursor<Vec<u8>>,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.chunk.position() == self.chunk.get_ref().len() as u64 {
            match self.rx.recv() {
                Ok(chunk) => self.chunk = io::Cursor::new(chunk),
                Err(_) => return Ok(0),
            }
        }
        self.chunk.read(out)
    }
}

/// A writer into an existing pipe sink.
pub fn pipe_writer(tx: Sender<Vec<u8>>) -> PipeWriter {
    PipeWriter { tx }
}

/// The sender side of a fresh pipe, exposed for router fan-in wiring.
pub fn pipe_with_sender() -> (Sender<Vec<u8>>, PipeReader) {
    let (tx, rx) = std::sync::mpsc::channel();
    let chunk = io::Cursor::new(Vec::new());
    (tx, PipeReader { rx, chunk })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::BatchEntry;
    use std::io::BufReader;

    /// A line whose body is `{"type":<tag>,"data":[<bytes>]}`, spelled
    /// with the given separator after every `:` and `,`.
    fn line(tag: &str, bytes: &[u8], sep: &str) -> String {
        let data: Vec<String> = bytes.iter().map(u8::to_string).collect();
        let data = data.join(&format!(",{sep}"));
        format!(
            "{{\"src\":{sep}\"n0\",{sep}\"dest\":{sep}\"c0\",{sep}\"body\":{sep}\
             {{\"type\":{sep}\"{tag}\",{sep}\"data\":{sep}[{data}]}}}}"
        )
    }

    // Every message variant's bytes are pinned by `wire.rs`'s tests and
    // `codec_fuzz`; a line only wraps them, so a few shapes suffice.
    #[test]
    fn bodies_roundtrip_through_json() {
        let entry = BatchEntry {
            from: 4,
            to: 9,
            due: 7,
            msg: 0xfeed_u64,
        };
        for f in [
            Frame::RoundBatch {
                round: 3,
                entries: vec![entry.clone(), entry.clone()],
            },
            Frame::EndRound { round: 12 },
            Frame::BatchReplay { frames: vec![] },
        ] {
            let body = body("frame", &f);
            assert!(body.starts_with(r#"{"type":"frame","data":["#), "{body}");
            let line = format!("{{\"src\":\"n1\",\"dest\":\"n2\",\"body\":{body}}}");
            let parsed = parse_line::<u64>(&line).unwrap();
            assert_eq!(parsed, ("n1".into(), "n2".into(), LineBody::Frame(f)));
        }
        for c in [
            CtlMsg::Go { round: 9 },
            CtlMsg::Rejoin {
                round: 9,
                checkpoint_round: 6,
                snapshot: vec![7, 8],
                executed: vec![7, 8],
            },
        ] {
            let body = body("ctl", &c);
            assert!(body.starts_with(r#"{"type":"ctl","data":["#), "{body}");
            let line = format!("{{\"src\":\"c0\",\"dest\":\"n0\",\"body\":{body}}}");
            let parsed = parse_line::<u64>(&line).unwrap();
            assert_eq!(parsed, ("c0".into(), "n0".into(), LineBody::Ctl(c)));
        }
        // Trailing bytes, a payload of the other family and an unknown
        // type are all refused.
        let mut bytes = Vec::new();
        CtlMsg::Ping.encode(&mut bytes);
        assert!(parse_line::<u64>(&line("ctl", &bytes, "")).is_some());
        assert!(parse_line::<u64>(&line("frame", &bytes, "")).is_none());
        assert!(parse_line::<u64>(&line("ping", &bytes, "")).is_none());
        bytes.push(0);
        assert!(parse_line::<u64>(&line("ctl", &bytes, "")).is_none());
    }

    #[test]
    fn whitespace_after_colons_is_tolerated() {
        let done = CtlMsg::Done {
            round: 2,
            sent: 1,
            late: 0,
            hint: None,
            pending_due: Some(5),
        };
        let mut bytes = Vec::new();
        done.encode(&mut bytes);
        let (src, dest, body) = parse_line::<u64>(&line("ctl", &bytes, " \n\t")).unwrap();
        assert_eq!((src.as_str(), dest.as_str()), ("n0", "c0"));
        assert_eq!(body, LineBody::Ctl(done.clone()));
        // Keys in any order, at both levels.
        let data: Vec<String> = bytes.iter().map(u8::to_string).collect();
        let reordered = format!(
            "{{\"body\":{{\"data\":[{}],\"type\":\"ctl\"}},\"dest\":\"c0\",\"src\":\"n0\"}}",
            data.join(",")
        );
        assert_eq!(
            parse_line::<u64>(&reordered).unwrap(),
            ("n0".into(), "c0".into(), LineBody::Ctl(done))
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
        let mut ep = StdioNode::new(3, reader, &mut sink);
        match NodeEndpoint::<u64>::recv(&mut ep) {
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
        let mut ep = StdioNode::new(0, reader, &mut sink);
        assert!(matches!(
            NodeEndpoint::<u64>::recv(&mut ep),
            Err(TransportError::MalformedFrame { .. })
        ));

        let misrouted = format!(
            "{{\"src\":\"n1\",\"dest\":\"n9\",\"body\":{}}}\n",
            body("frame", &Frame::<u64>::EndRound { round: 1 })
        );
        let reader = BufReader::new(misrouted.as_bytes());
        let mut sink = Vec::new();
        let mut ep = StdioNode::new(0, reader, &mut sink);
        assert!(matches!(
            NodeEndpoint::<u64>::recv(&mut ep),
            Err(TransportError::Protocol { .. })
        ));
    }
}
