//! The typed error control plane of the transport runtime.
//!
//! Every runtime failure path in dw-transport — an I/O error on a
//! socket, a frame the codec rejects, a barrier-protocol violation, a
//! peer vanishing mid-run — surfaces as a [`TransportError`] value
//! propagated through `shard_main` / `coordinate` instead of a panic.
//! Faults become values the coordinator can act on: suspect the node,
//! recover it from a checkpoint, or abort the run with a structured
//! partial outcome (DESIGN.md §10). A panic is a programming error —
//! a protocol bug dw-congest's validation catches (word budget, link
//! capacity) or one in a node program — not a runtime fault, but the
//! worker and the coordinator each catch their own and return it as a
//! [`TransportError::Protocol`], so a bug ends the run instead of
//! hanging it.

use dw_congest::Round;
use dw_graph::NodeId;
use std::fmt;

/// A runtime fault in the transport stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// An OS-level I/O failure (socket write, pipe read…).
    Io { context: String },
    /// Bytes arrived that the wire codec rejects (truncated body,
    /// unknown tag, trailing garbage, oversized frame).
    MalformedFrame { context: String },
    /// A well-formed message that violates the barrier protocol (wrong
    /// round, message from a non-neighbor, control message out of
    /// phase).
    Protocol { context: String },
    /// A peer hung up mid-run: EOF on a stream, a disconnected channel,
    /// a reader thread reporting a dead connection.
    PeerLost { context: String },
    /// The coordinator aborted the run and this worker was told to
    /// stand down.
    Aborted { reason: String },
    /// The coordinator gave up on the run: the named nodes were
    /// declared failed at `round` and no recovery path existed.
    Unrecoverable {
        failed: Vec<NodeId>,
        round: Round,
        context: String,
    },
}

impl TransportError {
    /// Wrap an `io::Error` with a location string.
    pub fn io(context: impl Into<String>, err: &std::io::Error) -> Self {
        TransportError::Io {
            context: format!("{}: {err}", context.into()),
        }
    }

    pub fn protocol(context: impl Into<String>) -> Self {
        TransportError::Protocol {
            context: context.into(),
        }
    }

    pub fn peer_lost(context: impl Into<String>) -> Self {
        TransportError::PeerLost {
            context: context.into(),
        }
    }

    /// A caught panic of `who`, with the payload's message when it is
    /// a string.
    pub(crate) fn panicked(who: &str, payload: &(dyn std::any::Any + Send)) -> Self {
        let what = (payload.downcast_ref::<&str>().copied())
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("a non-string payload");
        TransportError::protocol(format!("{who} panicked: {what}"))
    }

    /// The nodes this error blames, if it carries any.
    pub fn failed_nodes(&self) -> &[NodeId] {
        match self {
            TransportError::Unrecoverable { failed, .. } => failed,
            _ => &[],
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io { context } => write!(f, "transport i/o error: {context}"),
            TransportError::MalformedFrame { context } => {
                write!(f, "malformed frame: {context}")
            }
            TransportError::Protocol { context } => {
                write!(f, "transport protocol violation: {context}")
            }
            TransportError::PeerLost { context } => write!(f, "peer lost: {context}"),
            TransportError::Aborted { reason } => write!(f, "run aborted: {reason}"),
            TransportError::Unrecoverable {
                failed,
                round,
                context,
            } => write!(
                f,
                "unrecoverable failure of node(s) {failed:?} at round {round}: {context}"
            ),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(err: std::io::Error) -> Self {
        TransportError::Io {
            context: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TransportError::Unrecoverable {
            failed: vec![3],
            round: 17,
            context: "no checkpoint".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("[3]"));
        assert!(s.contains("17"));
        assert!(s.contains("no checkpoint"));
        assert_eq!(e.failed_nodes(), &[3]);
        assert!(TransportError::peer_lost("x").failed_nodes().is_empty());
    }
}
