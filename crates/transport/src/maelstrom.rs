//! A true [Maelstrom](https://github.com/jepsen-io/maelstrom) node: the
//! init/echo protocol the Jepsen harness speaks, in
//! `{"src":..,"dest":..,"body":{..}}` JSON lines read with the
//! workspace's one JSON reader, [`dw_graph::json`].
//!
//! Maelstrom drives binaries over stdin/stdout: it first sends an
//! `init` message naming this node and the full cluster
//! (`{"type":"init","msg_id":1,"node_id":"n2","node_ids":["n1","n2","n3"]}`),
//! expects `init_ok`, then runs a workload — for the echo workload,
//! `echo` requests whose `echo` value must come back verbatim in
//! `echo_ok` — while its nemeses (partitions, kills) batter the
//! cluster. A node that keeps answering through a partition and never
//! crashes on a garbled line passes.
//!
//! Two things bridge Maelstrom's world to ours:
//!
//! * **Node-id remapping.** Maelstrom names nodes `n1..nN` (1-based,
//!   arbitrary order per message); the transport numbers them `0..N`
//!   as [`dw_graph::NodeId`]s. [`MaelstromInit`] fixes a bijection by
//!   sorting `node_ids` (length-first, so `n2 < n10`) and taking each
//!   name's rank as its internal id — every node computes the same map
//!   from its own init message, no coordination needed.
//! * **Fault tolerance by construction.** [`maelstrom_serve`] never
//!   panics: unparseable lines are counted and skipped, unknown request
//!   types get Maelstrom's standard `error` body (code 10, "not
//!   supported"), and EOF after init is a clean shutdown — exactly the
//!   behavior the harness's partition nemesis expects from a node that
//!   stays up while the network misbehaves.
//!
//! A line is read once, keys in any order at both levels, into one
//! `Request` (`Init | Echo | Topology | Other`) that one loop answers. A
//! reply's `dest` and an `echo_ok`'s value reflect the request's `src`
//! and `echo` as spelled, so nothing is re-encoded.
//!
//! `dwapsp run-node --maelstrom` wraps [`maelstrom_serve`] around real
//! stdin/stdout; `make maelstrom-smoke` runs it under the real harness
//! when one is available (see `scripts/maelstrom_smoke.sh`).

use crate::error::TransportError;
use dw_graph::json::{JsonError, Reader};
use dw_graph::NodeId;
use std::borrow::Cow;
use std::io::{BufRead, Write};

/// The fields of one Maelstrom message this node reads: the envelope's
/// `src` and the body's fields, keys in any order at both levels. A
/// line without a `body` is read as a bare body.
#[derive(Default)]
struct Message<'a> {
    /// The sender as spelled (quotes included): a reply's `dest`
    /// reflects it, as `echo_ok` reflects the `echo` value.
    src: Option<&'a str>,
    typ: Option<Cow<'a, str>>,
    msg_id: Option<u64>,
    /// The `echo` value as spelled.
    echo: Option<&'a str>,
    node_id: Option<String>,
    node_ids: Option<Vec<String>>,
}

impl<'a> Message<'a> {
    fn parse(line: &'a str) -> Result<Message<'a>, JsonError> {
        let mut r = Reader::new(line);
        let (mut src, mut top, mut body) = (None, Message::default(), None);
        r.object(|r, key| match key {
            "src" => {
                if r.peek() != Some(b'"') {
                    return Err(r.err("src is not a string"));
                }
                src = Some(r.raw()?);
                Ok(())
            }
            "body" => {
                let mut fields = Message::default();
                r.object(|r, key| fields.field(r, key))?;
                body = Some(fields);
                Ok(())
            }
            _ => top.field(r, key),
        })?;
        r.end()?;
        let mut msg = body.unwrap_or(top);
        msg.src = src;
        Ok(msg)
    }

    /// One body field; fields this node does not read are skipped.
    fn field(&mut self, r: &mut Reader<'a>, key: &str) -> Result<(), JsonError> {
        match key {
            "type" => self.typ = Some(r.str()?),
            "msg_id" => self.msg_id = Some(r.u64()?),
            "echo" => self.echo = Some(r.raw()?),
            "node_id" => self.node_id = Some(r.str()?.into_owned()),
            "node_ids" => {
                let mut ids = Vec::new();
                r.array(|r| {
                    ids.push(r.str()?.into_owned());
                    Ok(())
                })?;
                self.node_ids = Some(ids);
            }
            _ => r.skip()?,
        }
        Ok(())
    }

    /// The init facts; `None` if the node's own id is missing from the
    /// cluster list or would need escaping in a reply's `src`.
    fn init(&self) -> Option<MaelstromInit> {
        let node_id = self.node_id.clone()?;
        if node_id.chars().any(|c| matches!(c, '"' | '\\') || c < ' ') {
            return None;
        }
        let mut node_ids = self.node_ids.clone()?;
        node_ids.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        node_ids
            .contains(&node_id)
            .then_some(MaelstromInit { node_id, node_ids })
    }
}

/// What a Maelstrom message asks of this node.
#[derive(Debug, PartialEq, Eq)]
enum Request<'a> {
    Init(MaelstromInit),
    /// The `echo` value as spelled, to come back verbatim.
    Echo(&'a str),
    Topology,
    /// A type this node does not serve.
    Other,
}

/// A line as `(raw src, msg_id, request)`; `None` when it is no
/// request: not JSON, no `src` or `type`, an `init` whose own id is
/// missing from its cluster list or needs escaping, an `echo` without a
/// value.
fn parse_request(line: &str) -> Option<(&str, Option<u64>, Request<'_>)> {
    let msg = Message::parse(line).ok()?;
    let request = match msg.typ.as_deref()? {
        "init" => Request::Init(msg.init()?),
        "echo" => Request::Echo(msg.echo?),
        "topology" => Request::Topology,
        _ => Request::Other,
    };
    Some((msg.src?, msg.msg_id, request))
}

/// The cluster facts from Maelstrom's `init` message, plus the derived
/// name-to-internal-id bijection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaelstromInit {
    /// This node's Maelstrom name (e.g. `"n2"`).
    pub node_id: String,
    /// Every node's Maelstrom name, in canonical (length, lexicographic)
    /// order — each name's position here is its internal [`NodeId`].
    pub node_ids: Vec<String>,
}

impl MaelstromInit {
    /// Parse from an `init` message line; `None` if the node's own id
    /// is missing from the cluster list or holds a character a JSON
    /// string must escape.
    pub fn from_line(line: &str) -> Option<MaelstromInit> {
        Message::parse(line).ok()?.init()
    }

    /// This node's internal id: its name's rank in the sorted cluster
    /// list. Every node derives the same total map, so `n2` in a
    /// 3-node cluster is internal node 1 everywhere.
    pub fn internal_id(&self) -> NodeId {
        self.index_of(&self.node_id).expect("own id is in node_ids")
    }

    /// Internal id of any cluster member by Maelstrom name.
    pub fn index_of(&self, name: &str) -> Option<NodeId> {
        self.node_ids
            .iter()
            .position(|x| x == name)
            .map(|i| i as NodeId)
    }

    /// Maelstrom name of an internal id (inverse of [`Self::index_of`]).
    pub fn name_of(&self, id: NodeId) -> Option<&str> {
        self.node_ids.get(id as usize).map(String::as_str)
    }
}

/// What a serve loop saw, for smoke-test assertions and exit codes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaelstromStats {
    /// `echo` requests answered.
    pub echoes: u64,
    /// Known-typed requests we answered with the standard `error` body.
    pub unsupported: u64,
    /// Lines that did not parse as any message; skipped, never fatal.
    pub skipped: u64,
}

/// Serve the Maelstrom node protocol until the harness hangs up.
///
/// Blocks on `reader` line by line: answers `init` with `init_ok`
/// (recording the cluster map), `echo` with `echo_ok` (value reflected
/// verbatim), `topology` with `topology_ok`, anything else carrying a
/// `msg_id` with Maelstrom's `error` code 10. Returns the init facts
/// and counters at EOF. The only errors are I/O faults and the harness
/// closing stdin *before* ever sending `init` — after init, EOF is the
/// normal end of a test.
pub fn maelstrom_serve<R: BufRead, W: Write>(
    mut reader: R,
    mut writer: W,
) -> Result<(MaelstromInit, MaelstromStats), TransportError> {
    let mut init: Option<MaelstromInit> = None;
    let mut stats = MaelstromStats::default();
    let mut next_id: u64 = 0;
    let mut line = String::new();
    loop {
        line.clear();
        let k = reader
            .read_line(&mut line)
            .map_err(|e| TransportError::io("maelstrom: stdin read", &e))?;
        if k == 0 {
            return match init {
                Some(init) => Ok((init, stats)),
                None => Err(TransportError::peer_lost(
                    "maelstrom: stdin closed before init",
                )),
            };
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let Some((src, msg_id, request)) = parse_request(trimmed) else {
            stats.skipped += 1;
            continue;
        };
        let (kind, in_reply_to, extra) = match (request, msg_id) {
            (Request::Init(parsed), m) => {
                init = Some(parsed);
                ("init_ok", m.unwrap_or(0), String::new())
            }
            (Request::Echo(echo), Some(m)) => {
                stats.echoes += 1;
                ("echo_ok", m, format!(",\"echo\":{echo}"))
            }
            (Request::Topology, Some(m)) => ("topology_ok", m, String::new()),
            // A well-formed request we do not serve: the standard
            // Maelstrom "not supported" error, so the harness can tell a
            // healthy node from a wedged one.
            (Request::Other, Some(m)) => {
                stats.unsupported += 1;
                (
                    "error",
                    m,
                    ",\"code\":10,\"text\":\"not supported\"".to_string(),
                )
            }
            (_, None) => {
                stats.skipped += 1;
                continue;
            }
        };
        next_id += 1;
        let me = init.as_ref().map_or("n?", |i| i.node_id.as_str());
        let reply = format!(
            "{{\"src\":\"{me}\",\"dest\":{src},\"body\":{{\"type\":\"{kind}\",\
             \"msg_id\":{next_id},\"in_reply_to\":{in_reply_to}{extra}}}}}\n"
        );
        writer
            .write_all(reply.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| TransportError::io("maelstrom: stdout write", &e))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn init_remaps_names_to_dense_internal_ids() {
        let line = r#"{"src":"c1","dest":"n10","body":{"type":"init","msg_id":1,"node_id":"n10","node_ids":["n10","n2","n1"]}}"#;
        let init = MaelstromInit::from_line(line).unwrap();
        // Length-first order: n1, n2, n10 — numeric for uniform prefixes.
        assert_eq!(init.node_ids, vec!["n1", "n2", "n10"]);
        assert_eq!(init.internal_id(), 2);
        assert_eq!(init.index_of("n1"), Some(0));
        assert_eq!(init.index_of("n2"), Some(1));
        assert_eq!(init.index_of("nope"), None);
        assert_eq!(init.name_of(1), Some("n2"));
        // Every node derives the same map from its own init.
        let peer = r#"{"type":"init","msg_id":1,"node_id":"n2","node_ids":["n1","n10","n2"]}"#;
        assert_eq!(
            MaelstromInit::from_line(peer).unwrap().node_ids,
            init.node_ids
        );
    }

    #[test]
    fn init_missing_own_id_is_rejected() {
        let line = r#"{"type":"init","msg_id":1,"node_id":"n9","node_ids":["n1","n2"]}"#;
        assert_eq!(MaelstromInit::from_line(line), None);
    }

    // Replies spell the own id unescaped in `src`, so an id that needs
    // escaping never becomes the node's name.
    #[test]
    fn init_with_an_id_needing_escapes_is_rejected() {
        for id in [r#"n"1"#, r#"n\1"#, r#"n1"#] {
            let init = format!(
                r#"{{"src":"c1","body":{{"type":"init","msg_id":1,"node_id":"{id}","node_ids":["{id}"]}}}}"#
            );
            assert_eq!(MaelstromInit::from_line(&init), None);
            let echo = r#"{"src":"c1","body":{"type":"echo","msg_id":2,"echo":3}}"#;
            let (_, _, replies) = serve(&[INIT_N1, &init, echo]);
            assert_eq!(replies.len(), 2);
            assert!(replies[1].starts_with(r#"{"src":"n1","#), "{}", replies[1]);
        }
    }

    #[test]
    fn json_raw_extracts_every_value_shape() {
        for value in [
            r#"{"x":[1,2],"y":"s}"}"#,
            r#"[3,{"z":4}]"#,
            r#""he\"llo""#,
            r#""\ud83d\ude00""#,
            "42",
            "null",
        ] {
            let line =
                format!(r#"{{"src":"c1","body":{{"echo":{value},"type":"echo","msg_id":7}}}}"#);
            assert_eq!(
                parse_request(&line),
                Some((r#""c1""#, Some(7), Request::Echo(value)))
            );
        }
        // Truncated nesting never closes: no request, no panic.
        let cut = r#"{"src":"c1","body":{"type":"echo","msg_id":1,"echo":{"x":[1,2"#;
        assert_eq!(parse_request(cut), None);
        // An echo without an `echo` value is not answered.
        let bare = r#"{"src":"c1","body":{"type":"echo","msg_id":7}}"#;
        assert_eq!(parse_request(bare), None);
    }

    /// Serve `lines`; the init, the stats and the reply lines.
    fn serve(lines: &[&str]) -> (MaelstromInit, MaelstromStats, Vec<String>) {
        let input = lines.join("\n");
        let mut out = Vec::new();
        let (init, stats) = maelstrom_serve(input.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        (init, stats, out.lines().map(str::to_string).collect())
    }

    const INIT_N1: &str = r#"{"src":"c1","dest":"n1","body":{"type":"init","msg_id":1,"node_id":"n1","node_ids":["n1","n2","n3"]}}"#;

    #[test]
    fn keys_in_any_order_and_nested_types_read_as_meant() {
        let (_, _, replies) = serve(&[
            INIT_N1,
            // A `"type"` inside the echo value does not hide the echo.
            r#"{"src":"c1","dest":"n1","body":{"echo":{"type":"init","msg_id":9},"type":"echo","msg_id":2}}"#,
            // The reply goes to the envelope's `src`, not the body's.
            r#"{"dest":"n1","body":{"src":"x","type":"echo","msg_id":4,"echo":1},"src":"c1"}"#,
        ]);
        assert_eq!(
            replies[1..],
            [
                r#"{"src":"n1","dest":"c1","body":{"type":"echo_ok","msg_id":2,"in_reply_to":2,"echo":{"type":"init","msg_id":9}}}"#,
                r#"{"src":"n1","dest":"c1","body":{"type":"echo_ok","msg_id":3,"in_reply_to":4,"echo":1}}"#,
            ]
        );
    }

    #[test]
    fn serve_handshakes_echoes_and_survives_garbage() {
        let (init, stats, lines) = serve(&[
            r#"{"src":"c1","dest":"n2","body":{"type":"init","msg_id":1,"node_id":"n2","node_ids":["n1","n2","n3"]}}"#,
            "%%% not json at all %%%",
            r#"{"src":"c1","dest":"n2","body":{"type":"echo","msg_id":2,"echo":"Please echo 35"}}"#,
            r#"{"src":"c1","dest":"n2","body":{"type":"echo","msg_id":3,"echo":{"deep":[1,2,3]}}}"#,
            r#"{"src":"c1","dest":"n2","body":{"type":"broadcast","msg_id":4,"message":7}}"#,
        ]);
        let want = MaelstromStats {
            echoes: 2,
            unsupported: 1,
            skipped: 1,
        };
        assert_eq!((init.internal_id(), stats), (1, want));
        assert_eq!(lines.len(), 4);
        assert!(
            lines[0].contains(r#""type":"init_ok""#) && lines[0].contains(r#""in_reply_to":1"#)
        );
        assert!(lines[1].contains(r#""echo":"Please echo 35""#));
        assert!(lines[2].contains(r#""echo":{"deep":[1,2,3]}"#));
        assert!(lines[3].contains(r#""code":10"#));
        for l in &lines {
            assert!(
                l.starts_with(r#"{"src":"n2","dest":"c1","#),
                "replies come from us and go to the asker: {l}"
            );
        }
    }

    #[test]
    fn eof_before_init_is_a_typed_error() {
        let reader = BufReader::new(std::io::empty());
        let mut sink = Vec::new();
        assert!(matches!(
            maelstrom_serve(reader, &mut sink),
            Err(TransportError::PeerLost { .. })
        ));
    }
}
