//! Message plumbing and size accounting.

use dw_graph::NodeId;
use std::sync::Arc;

/// The per-message word budget: the model's one `O(log n)`-bit message
/// per link per round, as a count of words. Exceeding it is a protocol
/// bug and panics, on the simulator and on every transport alike.
pub const MAX_WORDS: usize = 8;

/// Size accounting for CONGEST messages.
///
/// The model allows `O(log n)` bits per message. We account in *words*,
/// where one word holds one `O(log n)`-bit quantity (a node id, a distance,
/// a hop count, a counter). A message's size is the number of such
/// quantities it carries; every runtime enforces the per-message word
/// budget [`MAX_WORDS`].
pub trait MsgSize {
    /// Number of `O(log n)`-bit words in this message.
    fn size_words(&self) -> usize;
}

impl MsgSize for () {
    fn size_words(&self) -> usize {
        0
    }
}

impl MsgSize for u64 {
    fn size_words(&self) -> usize {
        1
    }
}

impl MsgSize for u32 {
    fn size_words(&self) -> usize {
        1
    }
}

impl<A: MsgSize, B: MsgSize> MsgSize for (A, B) {
    fn size_words(&self) -> usize {
        self.0.size_words() + self.1.size_words()
    }
}

/// How an envelope holds its message.
///
/// Unicasts own their payload. Broadcast deliveries share one allocation
/// across all recipient inboxes (`Arc`), so a degree-`d` broadcast costs
/// one clone instead of `d` — the receiver-facing API is unchanged because
/// payloads are read-only by contract ([`crate::Protocol::receive`] takes
/// the inbox by shared reference).
#[derive(Debug)]
enum Payload<M> {
    Own(M),
    Shared(Arc<M>),
}

impl<M> Payload<M> {
    #[inline]
    fn get(&self) -> &M {
        match self {
            Payload::Own(m) => m,
            Payload::Shared(a) => a,
        }
    }
}

impl<M: Clone> Clone for Payload<M> {
    fn clone(&self) -> Self {
        match self {
            // Cloning a shared payload bumps the refcount; the message
            // itself is cloned at most once per broadcast.
            Payload::Own(m) => Payload::Own(m.clone()),
            Payload::Shared(a) => Payload::Shared(Arc::clone(a)),
        }
    }
}

/// A delivered message together with its sender.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    pub from: NodeId,
    payload: Payload<M>,
}

impl<M> Envelope<M> {
    /// An envelope owning its payload (unicast delivery, tests, adapters).
    pub fn new(from: NodeId, msg: M) -> Self {
        Envelope {
            from,
            payload: Payload::Own(msg),
        }
    }

    /// An envelope sharing a broadcast payload (engine delivery path).
    pub(crate) fn shared(from: NodeId, msg: Arc<M>) -> Self {
        Envelope {
            from,
            payload: Payload::Shared(msg),
        }
    }

    /// The message carried by this envelope.
    #[inline]
    pub fn msg(&self) -> &M {
        self.payload.get()
    }
}

impl<M: PartialEq> PartialEq for Envelope<M> {
    fn eq(&self, other: &Self) -> bool {
        self.from == other.from && self.msg() == other.msg()
    }
}

impl<M: Eq> Eq for Envelope<M> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_sizes_add() {
        let m = (3u64, (4u32, 5u64));
        assert_eq!(m.size_words(), 3);
    }

    #[test]
    fn unit_is_free() {
        assert_eq!(().size_words(), 0);
    }

    #[test]
    fn shared_and_owned_envelopes_compare_by_content() {
        let a = Envelope::new(3, 42u64);
        let b = Envelope::shared(3, Arc::new(42u64));
        assert_eq!(a, b);
        assert_eq!(*b.msg(), 42);
        let c = b.clone();
        assert_eq!(c, b);
        assert_ne!(Envelope::new(3, 7u64), a);
        assert_ne!(Envelope::new(4, 42u64), a);
    }
}
