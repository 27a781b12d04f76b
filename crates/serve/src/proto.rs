//! The `dwapsp-serve-v3` wire protocol.
//!
//! Two hops, one framing. Clients speak [`ClientRequest`] /
//! [`ClientReply`] to the gateway; the gateway speaks [`ShardFrame`] /
//! [`ShardReply`] to the shard workers. Each hop's frame is a tagged
//! enum: the query-path payloads ([`QueryRequest`] / [`QueryReply`] /
//! [`QueryBatch`] / [`ReplyBatch`]) are unchanged from v1, and the
//! other variants carry the dynamic-update subsystem's *install*
//! traffic — a new generation pushed through the gateway to every
//! shard, acknowledged per shard, swapped atomically (DESIGN.md §14).
//! v3 moves a generation as a [`TableDelta`]: the cells that changed
//! since a base generation the receiver holds, or every row when there
//! is no base. A delta the gateway cannot vouch for is answered
//! [`ClientReply::NeedFull`], and the client sends the generation whole.
//! Both hops move values as length-prefixed frames via
//! [`dw_transport::wire::write_frame`] /
//! [`read_frame`](dw_transport::wire::read_frame) — the same
//! framing, length cap and malformed-input discipline as the transport
//! runtime's round traffic, so the codec fuzz suite applies unchanged.
//!
//! Request ids are correlation tokens: clients choose them freely (the
//! gateway echoes each back on the matching reply), and the gateway
//! re-tags queries with its own ids on the shard hop so replies from a
//! batched frame route back to the right client connection. A reply
//! batch answers its query batch in order, and the gateway checks each
//! position's id — a reply batch that lost or reordered entries is
//! detected, not silently misattributed.

use crate::table::TableDelta;
use dw_congest::WireCodec;
use dw_graph::{NodeId, Weight, INFINITY};

/// One point-to-point lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// Correlation id, echoed on the reply.
    pub id: u64,
    /// Source node — selects the table row, and thereby the owning
    /// shard (sources shard by contiguous node-id blocks).
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Ask for the full path, reconstructed from parent pointers, not
    /// just the distance.
    pub want_path: bool,
}

/// The outcome of one query. Transport-level failure is data here, not
/// a connection error: a gateway whose shard died answers
/// [`QueryOutcome::ShardUnavailable`] for that source range and keeps
/// serving everything else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The shortest-path distance.
    Dist { dist: Weight },
    /// Distance plus the node sequence `src, …, dst` achieving it.
    Path { dist: Weight, path: Vec<NodeId> },
    /// No path (or none within the computed hop/distance regime).
    Unreachable,
    /// `src` is not a source row of the computed tables (a k-SSP table
    /// set only covers its k sources).
    UnknownSource,
    /// `src` or `dst` is outside `0..n`.
    OutOfRange,
    /// The shard owning `src`'s block (`lo..hi`) is down. The typed
    /// degraded-mode answer: other shards keep serving.
    ShardUnavailable {
        shard: NodeId,
        lo: NodeId,
        hi: NodeId,
    },
}

impl QueryOutcome {
    /// The distance the answer states, in table units: [`INFINITY`] for
    /// `Unreachable`, `None` for an answer that states no distance.
    pub fn distance(&self) -> Option<Weight> {
        match self {
            QueryOutcome::Dist { dist } | QueryOutcome::Path { dist, .. } => Some(*dist),
            QueryOutcome::Unreachable => Some(INFINITY),
            _ => None,
        }
    }
}

/// One answered query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReply {
    /// The request's correlation id.
    pub id: u64,
    pub outcome: QueryOutcome,
}

/// Gateway → shard: every query that parked for one shard while its
/// previous round trip was in flight, coalesced into a single frame (the
/// serving-plane twin of the transport's `RoundBatch`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryBatch {
    /// Batch sequence number on this connection, for diagnostics.
    pub seq: u64,
    pub queries: Vec<QueryRequest>,
}

/// Shard → gateway: the answers to one [`QueryBatch`], in query order,
/// plus the shard-side phase timings the gateway folds into its
/// aggregate serve metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyBatch {
    /// Echo of the request batch's `seq`.
    pub seq: u64,
    pub replies: Vec<QueryReply>,
    /// Nanoseconds this batch spent in table lookups.
    pub lookup_ns: u64,
    /// Nanoseconds this batch spent walking parent pointers.
    pub walk_ns: u64,
}

/// Client → gateway: one frame per request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientRequest {
    /// The common case: a point-to-point lookup.
    Query(QueryRequest),
    /// Install a new table generation across the fleet (the `dwapsp
    /// apply-updates` path). The gateway fans each shard its part of the
    /// delta, waits for their acks, flips its own generation and
    /// invalidates the cache, then answers with one [`ApplyReport`] — or,
    /// for a delta whose base is not the generation the whole live fleet
    /// holds, with [`ClientReply::NeedFull`] before anything fans out.
    ApplyTables { generation: u64, delta: TableDelta },
}

/// Gateway → client: one frame per reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientReply {
    Query(QueryReply),
    ApplyDone(ApplyReport),
    /// The install's base is not the generation every live shard is
    /// known to hold; nothing was changed. Send the generation again as
    /// a full install ([`TableDelta::full`]).
    NeedFull,
}

/// The gateway's answer to an [`ClientRequest::ApplyTables`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyReport {
    /// Whether the install was accepted and fully applied: the
    /// generation was newer than the gateway's, the delta's domain
    /// matched, and every *live* shard acknowledged it.
    pub accepted: bool,
    /// The gateway's generation after the call.
    pub generation: u64,
    /// Shards that acknowledged the install.
    pub shards_installed: u32,
    /// Shards that were down (or died during the install); they pick up
    /// the current tables when restarted from the persisted file.
    pub shards_down: u32,
    /// Encoded bytes of the delta that fanned out; 0 when none did.
    pub install_bytes: u64,
    /// Whether what fanned out was a full install (no base).
    pub full: bool,
}

/// Gateway → shard: query batches interleaved with installs, FIFO on
/// the shard connection (so a shard's answers are always against the
/// latest installed generation at batch-arrival time — old-or-new per
/// batch, never mixed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFrame {
    Queries(QueryBatch),
    /// Install this shard's part of a new table generation: applied only
    /// if `generation` is newer than the live one and the delta is full
    /// or based on exactly the live one ([`crate::VersionedTables::apply`]).
    Install {
        generation: u64,
        delta: TableDelta,
    },
}

/// Shard → gateway: the answer to one [`ShardFrame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardReply {
    Replies(ReplyBatch),
    /// Ack of an install: the shard's generation after applying it
    /// (unchanged if the install was stale or wrongly based and ignored).
    Installed {
        generation: u64,
    },
}

impl WireCodec for QueryRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.src.encode(out);
        self.dst.encode(out);
        self.want_path.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(QueryRequest {
            id: u64::decode(buf)?,
            src: NodeId::decode(buf)?,
            dst: NodeId::decode(buf)?,
            want_path: bool::decode(buf)?,
        })
    }
}

impl WireCodec for QueryOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            QueryOutcome::Dist { dist } => {
                out.push(0);
                dist.encode(out);
            }
            QueryOutcome::Path { dist, path } => {
                out.push(1);
                dist.encode(out);
                path.encode(out);
            }
            QueryOutcome::Unreachable => out.push(2),
            QueryOutcome::UnknownSource => out.push(3),
            QueryOutcome::OutOfRange => out.push(4),
            QueryOutcome::ShardUnavailable { shard, lo, hi } => {
                out.push(5);
                shard.encode(out);
                lo.encode(out);
                hi.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(QueryOutcome::Dist {
                dist: Weight::decode(buf)?,
            }),
            1 => Some(QueryOutcome::Path {
                dist: Weight::decode(buf)?,
                path: Vec::<NodeId>::decode(buf)?,
            }),
            2 => Some(QueryOutcome::Unreachable),
            3 => Some(QueryOutcome::UnknownSource),
            4 => Some(QueryOutcome::OutOfRange),
            5 => Some(QueryOutcome::ShardUnavailable {
                shard: NodeId::decode(buf)?,
                lo: NodeId::decode(buf)?,
                hi: NodeId::decode(buf)?,
            }),
            _ => None,
        }
    }
}

impl WireCodec for QueryReply {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.outcome.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(QueryReply {
            id: u64::decode(buf)?,
            outcome: QueryOutcome::decode(buf)?,
        })
    }
}

impl WireCodec for QueryBatch {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.queries.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(QueryBatch {
            seq: u64::decode(buf)?,
            queries: Vec::<QueryRequest>::decode(buf)?,
        })
    }
}

impl WireCodec for ReplyBatch {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.replies.encode(out);
        self.lookup_ns.encode(out);
        self.walk_ns.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(ReplyBatch {
            seq: u64::decode(buf)?,
            replies: Vec::<QueryReply>::decode(buf)?,
            lookup_ns: u64::decode(buf)?,
            walk_ns: u64::decode(buf)?,
        })
    }
}

impl WireCodec for ClientRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClientRequest::Query(q) => {
                out.push(0);
                q.encode(out);
            }
            ClientRequest::ApplyTables { generation, delta } => {
                out.push(1);
                generation.encode(out);
                delta.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(ClientRequest::Query(QueryRequest::decode(buf)?)),
            1 => Some(ClientRequest::ApplyTables {
                generation: u64::decode(buf)?,
                delta: TableDelta::decode(buf)?,
            }),
            _ => None,
        }
    }
}

impl WireCodec for ApplyReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.accepted.encode(out);
        self.generation.encode(out);
        self.shards_installed.encode(out);
        self.shards_down.encode(out);
        self.install_bytes.encode(out);
        self.full.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(ApplyReport {
            accepted: bool::decode(buf)?,
            generation: u64::decode(buf)?,
            shards_installed: u32::decode(buf)?,
            shards_down: u32::decode(buf)?,
            install_bytes: u64::decode(buf)?,
            full: bool::decode(buf)?,
        })
    }
}

impl WireCodec for ClientReply {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClientReply::Query(r) => {
                out.push(0);
                r.encode(out);
            }
            ClientReply::ApplyDone(report) => {
                out.push(1);
                report.encode(out);
            }
            ClientReply::NeedFull => out.push(2),
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(ClientReply::Query(QueryReply::decode(buf)?)),
            1 => Some(ClientReply::ApplyDone(ApplyReport::decode(buf)?)),
            2 => Some(ClientReply::NeedFull),
            _ => None,
        }
    }
}

impl WireCodec for ShardFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ShardFrame::Queries(b) => {
                out.push(0);
                b.encode(out);
            }
            ShardFrame::Install { generation, delta } => {
                out.push(1);
                generation.encode(out);
                delta.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(ShardFrame::Queries(QueryBatch::decode(buf)?)),
            1 => Some(ShardFrame::Install {
                generation: u64::decode(buf)?,
                delta: TableDelta::decode(buf)?,
            }),
            _ => None,
        }
    }
}

impl WireCodec for ShardReply {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ShardReply::Replies(b) => {
                out.push(0);
                b.encode(out);
            }
            ShardReply::Installed { generation } => {
                out.push(1);
                generation.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(ShardReply::Replies(ReplyBatch::decode(buf)?)),
            1 => Some(ShardReply::Installed {
                generation: u64::decode(buf)?,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_congest::codec::roundtrip;

    #[test]
    fn query_types_roundtrip() {
        let q = QueryRequest {
            id: 7,
            src: 3,
            dst: 9,
            want_path: true,
        };
        assert_eq!(roundtrip(&q), Some(q.clone()));
        for outcome in [
            QueryOutcome::Dist { dist: 42 },
            QueryOutcome::Path {
                dist: 11,
                path: vec![3, 5, 9],
            },
            QueryOutcome::Unreachable,
            QueryOutcome::UnknownSource,
            QueryOutcome::OutOfRange,
            QueryOutcome::ShardUnavailable {
                shard: 1,
                lo: 8,
                hi: 16,
            },
        ] {
            let r = QueryReply { id: 9, outcome };
            assert_eq!(roundtrip(&r), Some(r.clone()));
        }
    }

    #[test]
    fn batches_roundtrip() {
        let b = QueryBatch {
            seq: 4,
            queries: vec![
                QueryRequest {
                    id: 1,
                    src: 0,
                    dst: 5,
                    want_path: false,
                },
                QueryRequest {
                    id: 2,
                    src: 1,
                    dst: 0,
                    want_path: true,
                },
            ],
        };
        assert_eq!(roundtrip(&b), Some(b.clone()));
        let r = ReplyBatch {
            seq: 4,
            replies: vec![QueryReply {
                id: 1,
                outcome: QueryOutcome::Dist { dist: 3 },
            }],
            lookup_ns: 120,
            walk_ns: 0,
        };
        assert_eq!(roundtrip(&r), Some(r.clone()));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let mut bytes = dw_congest::to_bytes(&QueryOutcome::Unreachable);
        bytes[0] = 99;
        assert_eq!(dw_congest::from_bytes::<QueryOutcome>(&bytes), None);
        let mut bytes = dw_congest::to_bytes(&ShardReply::Installed { generation: 1 });
        bytes[0] = 7;
        assert_eq!(dw_congest::from_bytes::<ShardReply>(&bytes), None);
    }

    #[test]
    fn tagged_frames_roundtrip() {
        use crate::table::{RowPatch, SourceTable};
        use std::sync::Arc;
        let delta = TableDelta {
            n: 3,
            base: Some(8),
            rows: vec![
                RowPatch::Whole(Arc::new(SourceTable::new(
                    1,
                    vec![2, 0, 5],
                    vec![Some(1), None, Some(1)],
                ))),
                RowPatch::Cells {
                    source: 2,
                    cells: vec![(0, 4, Some(1)), (1, 3, None)],
                },
            ],
        };
        for req in [
            ClientRequest::Query(QueryRequest {
                id: 3,
                src: 0,
                dst: 2,
                want_path: true,
            }),
            ClientRequest::ApplyTables {
                generation: 9,
                delta: delta.clone(),
            },
        ] {
            assert_eq!(roundtrip(&req), Some(req.clone()));
        }
        for reply in [
            ClientReply::Query(QueryReply {
                id: 3,
                outcome: QueryOutcome::Dist { dist: 5 },
            }),
            ClientReply::ApplyDone(ApplyReport {
                accepted: true,
                generation: 9,
                shards_installed: 2,
                shards_down: 0,
                install_bytes: 1234,
                full: false,
            }),
            ClientReply::NeedFull,
        ] {
            assert_eq!(roundtrip(&reply), Some(reply.clone()));
        }
        for frame in [
            ShardFrame::Queries(QueryBatch {
                seq: 1,
                queries: vec![],
            }),
            ShardFrame::Install {
                generation: 9,
                delta,
            },
        ] {
            assert_eq!(roundtrip(&frame), Some(frame.clone()));
        }
        for reply in [
            ShardReply::Replies(ReplyBatch {
                seq: 1,
                replies: vec![],
                lookup_ns: 0,
                walk_ns: 0,
            }),
            ShardReply::Installed { generation: 9 },
        ] {
            assert_eq!(roundtrip(&reply), Some(reply.clone()));
        }
    }
}
