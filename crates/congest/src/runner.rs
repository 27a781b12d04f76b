//! The shared per-node execution path.
//!
//! [`NodeRunner`] owns one node's protocol state plus everything the
//! CONGEST model charges to that node locally: its send buffer, its
//! per-out-link load and capacity stamps, and its send/word counters.
//! Both execution environments drive rounds through this one type:
//!
//! * the lockstep simulator ([`crate::engine::Network`]) holds a
//!   `Vec<NodeRunner<P>>` and plays all of them in-process;
//! * the message-passing runtime (`dw-transport`) gives every node a
//!   worker hosts — on a thread, or in an OS process behind a TCP
//!   socket — its own `NodeRunner` and moves the emitted messages over
//!   a real channel.
//!
//! The CONGEST validation rules (word budget, one message per directed
//! link per round, neighbors only) therefore live here, in exactly one
//! place, and a conformance failure between the two environments can
//! only come from delivery ordering — never from divergent send-side
//! accounting.

use crate::message::{Envelope, MsgSize, MAX_WORDS};
use crate::outbox::{Outbox, SendOp};
use crate::protocol::{NodeCtx, Protocol, Round};
use dw_graph::{NodeId, WGraph};

/// Where a [`NodeRunner`] puts validated transmissions.
///
/// The runner has already charged the word budget, stamped link
/// capacity and counted the transmission by the time a sink method
/// runs; the sink only decides how the message travels. The simulator's
/// sink pushes into in-memory inboxes (applying fault decisions); the
/// transport sinks serialize frames onto channels or sockets.
pub trait SendSink<M> {
    /// One message over the single link `from -> to`. `rank` is the
    /// index of `to` in `from`'s sorted comm-neighbor list.
    fn unicast(&mut self, from: NodeId, rank: usize, to: NodeId, msg: M, words: usize);

    /// One message over every incident link of `from`. `nbrs` is
    /// `from`'s full comm-neighbor list; sinks may share one payload
    /// allocation across recipients.
    fn broadcast(&mut self, from: NodeId, nbrs: &[NodeId], msg: M, words: usize);
}

/// One node's protocol state plus its local CONGEST accounting.
pub struct NodeRunner<P: Protocol> {
    id: NodeId,
    node: P,
    outbox: Outbox<P::Msg>,
    /// Messages carried per out-link (comm-neighbor rank order).
    link_load: Vec<u64>,
    /// Round stamp of the last use of each out-link (capacity check).
    link_stamp: Vec<Round>,
    /// Rounds in which this node's outbox was non-empty.
    node_sends: u64,
    /// Wire transmissions (a degree-`d` broadcast counts `d`).
    messages: u64,
    /// Words put on the wire.
    total_words: u64,
}

impl<P: Protocol> NodeRunner<P> {
    /// Wrap `node` as node `id` of `g`. Does **not** call
    /// [`Protocol::init`]; use [`NodeRunner::init`] once the whole
    /// network is constructed (round 0 semantics).
    pub fn new(id: NodeId, g: &WGraph, node: P) -> Self {
        let degree = g.comm_neighbors(id).len();
        NodeRunner {
            id,
            node,
            outbox: Outbox::new(),
            link_load: vec![0; degree],
            link_stamp: vec![0; degree],
            node_sends: 0,
            messages: 0,
            total_words: 0,
        }
    }

    /// Local initialization (round 0, no communication).
    pub fn init(&mut self, g: &WGraph) {
        self.node.init(&NodeCtx::new(self.id, g));
    }

    pub fn id(&self) -> NodeId {
        self.id
    }

    pub fn node(&self) -> &P {
        &self.node
    }

    pub fn node_mut(&mut self) -> &mut P {
        &mut self.node
    }

    pub fn into_node(self) -> P {
        self.node
    }

    /// The node's schedule hint (see [`Protocol::earliest_send`]).
    pub fn earliest_send(&self, after: Round, g: &WGraph) -> Option<Round> {
        self.node.earliest_send(after, &NodeCtx::new(self.id, g))
    }

    /// Send phase: let the protocol fill the outbox for `round`.
    pub fn poll_send(&mut self, round: Round, g: &WGraph) {
        self.node
            .send(round, &NodeCtx::new(self.id, g), &mut self.outbox);
    }

    /// Drain the outbox filled by [`NodeRunner::poll_send`], validating
    /// the CONGEST constraints and handing each transmission to `sink`.
    /// Returns the number of wire transmissions this round (a broadcast
    /// from a neighborless node contributes zero).
    pub fn drain_sends<S: SendSink<P::Msg>>(
        &mut self,
        round: Round,
        g: &WGraph,
        sink: &mut S,
    ) -> u64 {
        let mut ops = self.outbox.take_ops();
        if ops.is_empty() {
            self.outbox.restore(ops);
            return 0;
        }
        self.node_sends += 1;
        let u = self.id;
        let mut sent = 0u64;
        let mut words_sent = 0u64;
        for op in ops.drain(..) {
            match op {
                SendOp::Broadcast(m) => {
                    let words = m.size_words();
                    check_words(u, words);
                    let nbrs = g.comm_neighbors(u);
                    for (rank, &v) in nbrs.iter().enumerate() {
                        self.stamp(rank, round, v);
                    }
                    sent += nbrs.len() as u64;
                    words_sent += (words * nbrs.len()) as u64;
                    sink.broadcast(u, nbrs, m, words);
                }
                SendOp::Unicast(v, m) => {
                    let words = m.size_words();
                    check_words(u, words);
                    let rank = g
                        .comm_neighbors(u)
                        .binary_search(&v)
                        .unwrap_or_else(|_| panic!("protocol bug: {u} sent to non-neighbor {v}"));
                    self.stamp(rank, round, v);
                    sent += 1;
                    words_sent += words as u64;
                    sink.unicast(u, rank, v, m, words);
                }
            }
        }
        self.messages += sent;
        self.total_words += words_sent;
        self.outbox.restore(ops);
        sent
    }

    /// Receive phase: hand `inbox` (sorted by sender id) to the node.
    pub fn receive(&mut self, round: Round, inbox: &[Envelope<P::Msg>], g: &WGraph) {
        self.node.receive(round, inbox, &NodeCtx::new(self.id, g));
    }

    #[inline]
    fn stamp(&mut self, rank: usize, round: Round, v: NodeId) {
        assert!(
            self.link_stamp[rank] != round,
            "protocol bug: node {u} sent two messages over link {u}->{v} in round {round}",
            u = self.id,
        );
        self.link_stamp[rank] = round;
        self.link_load[rank] += 1;
    }

    /// Maximum load over this node's out-links.
    pub fn max_link_load(&self) -> u64 {
        self.link_load.iter().copied().max().unwrap_or(0)
    }

    /// Rounds in which this node emitted at least one send op.
    pub fn node_sends(&self) -> u64 {
        self.node_sends
    }

    /// Total wire transmissions by this node.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total words put on the wire by this node.
    pub fn total_words(&self) -> u64 {
        self.total_words
    }

    /// Serialize the runner's own accounting (send/word counters, link
    /// loads, capacity stamps) for a crash-recovery checkpoint. The
    /// protocol state is serialized separately via
    /// [`crate::Checkpointable`].
    pub fn encode_accounting(&self, out: &mut Vec<u8>) {
        use crate::codec::WireCodec;
        self.node_sends.encode(out);
        self.messages.encode(out);
        self.total_words.encode(out);
        self.link_load.encode(out);
        self.link_stamp.encode(out);
    }

    /// Restore accounting previously written by
    /// [`NodeRunner::encode_accounting`]. `None` means the bytes are
    /// malformed or the link vectors do not match this node's degree.
    pub fn restore_accounting(&mut self, buf: &mut &[u8]) -> Option<()> {
        use crate::codec::WireCodec;
        let node_sends = u64::decode(buf)?;
        let messages = u64::decode(buf)?;
        let total_words = u64::decode(buf)?;
        let link_load = Vec::<u64>::decode(buf)?;
        let link_stamp = Vec::<Round>::decode(buf)?;
        if link_load.len() != self.link_load.len() || link_stamp.len() != self.link_stamp.len() {
            return None;
        }
        self.node_sends = node_sends;
        self.messages = messages;
        self.total_words = total_words;
        self.link_load = link_load;
        self.link_stamp = link_stamp;
        Some(())
    }
}

/// The word budget, checked once for every runtime: a message over
/// [`MAX_WORDS`] is a protocol bug.
#[inline]
pub(crate) fn check_words(u: NodeId, words: usize) {
    assert!(
        words <= MAX_WORDS,
        "protocol bug: node {u} sent a {words}-word message (budget {MAX_WORDS})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_graph::gen::{self, WeightDist};

    struct Chatter;
    impl Protocol for Chatter {
        type Msg = u64;
        fn send(&mut self, round: Round, ctx: &NodeCtx, out: &mut Outbox<u64>) {
            if round == 1 {
                out.broadcast(7);
            } else if round == 2 && ctx.comm_neighbors().contains(&0) {
                out.unicast(0, 9);
            }
        }
        fn receive(&mut self, _r: Round, _i: &[Envelope<u64>], _c: &NodeCtx) {}
    }

    #[derive(Default)]
    struct Collect {
        unicasts: Vec<(NodeId, NodeId)>,
        broadcasts: Vec<(NodeId, usize)>,
    }
    impl SendSink<u64> for Collect {
        fn unicast(&mut self, from: NodeId, _rank: usize, to: NodeId, _m: u64, _w: usize) {
            self.unicasts.push((from, to));
        }
        fn broadcast(&mut self, from: NodeId, nbrs: &[NodeId], _m: u64, _w: usize) {
            self.broadcasts.push((from, nbrs.len()));
        }
    }

    #[test]
    fn accounts_broadcast_and_unicast() {
        let g = gen::path(3, false, WeightDist::Constant(1), 0); // 0-1-2
        let mut r = NodeRunner::new(1, &g, Chatter);
        r.init(&g);
        let mut sink = Collect::default();

        r.poll_send(1, &g);
        assert_eq!(r.drain_sends(1, &g, &mut sink), 2);
        r.poll_send(2, &g);
        assert_eq!(r.drain_sends(2, &g, &mut sink), 1);
        r.poll_send(3, &g);
        assert_eq!(r.drain_sends(3, &g, &mut sink), 0, "empty outbox");

        assert_eq!(sink.broadcasts, vec![(1, 2)]);
        assert_eq!(sink.unicasts, vec![(1, 0)]);
        assert_eq!(r.node_sends(), 2, "round 3 was silent");
        assert_eq!(r.messages(), 3);
        assert_eq!(r.total_words(), 3);
        assert_eq!(r.max_link_load(), 2);
    }

    struct DoubleUnicast;
    impl Protocol for DoubleUnicast {
        type Msg = u64;
        fn send(&mut self, _r: Round, _c: &NodeCtx, out: &mut Outbox<u64>) {
            out.unicast(1, 1);
            out.unicast(1, 2);
        }
        fn receive(&mut self, _r: Round, _i: &[Envelope<u64>], _c: &NodeCtx) {}
    }

    #[test]
    #[should_panic(expected = "two messages over link")]
    fn capacity_violation_panics() {
        let g = gen::path(2, false, WeightDist::Constant(1), 0);
        let mut r = NodeRunner::new(0, &g, DoubleUnicast);
        r.poll_send(1, &g);
        r.drain_sends(1, &g, &mut Collect::default());
    }
}
