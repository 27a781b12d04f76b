//! The per-node program abstraction.

use crate::message::{Envelope, MsgSize};
use crate::outbox::Outbox;
use dw_graph::{NodeId, WGraph};

/// Round counter. Round 0 is initialization (no communication, per the
/// paper's Algorithm 1 "there are no Sends in round 0"); communication
/// rounds are `1, 2, ...`.
pub type Round = u64;

/// Read-only view a node has of its own position in the network.
///
/// Although the simulator owns the whole graph, protocols must only use
/// *local* knowledge: the node's id, its incident edges (with weights and
/// directions) and globally-known scalars (`n`, parameters). The accessors
/// here expose exactly that. (The CONGEST model gives each node knowledge
/// of its incident edges only — Section I-B.)
#[derive(Clone, Copy)]
pub struct NodeCtx<'g> {
    pub id: NodeId,
    graph: &'g WGraph,
}

impl<'g> NodeCtx<'g> {
    pub(crate) fn new(id: NodeId, graph: &'g WGraph) -> Self {
        NodeCtx { id, graph }
    }

    /// Total number of nodes `n` (globally known in the CONGEST model).
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Communication neighbors (underlying undirected graph).
    #[inline]
    pub fn comm_neighbors(&self) -> &'g [NodeId] {
        self.graph.comm_neighbors(self.id)
    }

    /// Outgoing weighted edges of this node in `G`.
    #[inline]
    pub fn out_edges(&self) -> &'g [(NodeId, u64)] {
        self.graph.out_edges(self.id)
    }

    /// Incoming weighted edges of this node in `G`.
    #[inline]
    pub fn in_edges(&self) -> &'g [(NodeId, u64)] {
        self.graph.in_edges(self.id)
    }

    /// Weight of the edge `from -> self.id`, if it exists in `G`.
    /// This is the weight a node uses to extend a path announced by a
    /// communication neighbor.
    #[inline]
    pub fn in_weight_from(&self, from: NodeId) -> Option<u64> {
        let row = self.in_edges();
        row.binary_search_by_key(&from, |&(u, _)| u)
            .ok()
            .map(|i| row[i].1)
    }
}

/// A node program for a synchronous CONGEST protocol.
///
/// The engine drives each round `r >= 1` as: every node's [`Protocol::send`]
/// is called (producing at most one message per incident link), then every
/// node's [`Protocol::receive`] is called with the messages addressed to it
/// in round `r`.
pub trait Protocol: Send {
    /// Message type carried by this protocol.
    ///
    /// `Sync` is required because a broadcast delivery shares one payload
    /// allocation across all recipient inboxes, and the parallel receive
    /// phase reads those inboxes from worker threads. Message types are
    /// plain data, so this costs nothing in practice.
    type Msg: Clone + MsgSize + Send + Sync;

    /// Local initialization (round 0, no communication).
    fn init(&mut self, ctx: &NodeCtx) {
        let _ = ctx;
    }

    /// Send phase of round `round`.
    fn send(&mut self, round: Round, ctx: &NodeCtx, out: &mut Outbox<Self::Msg>);

    /// Receive phase of round `round`; `inbox` is sorted by sender id.
    fn receive(&mut self, round: Round, inbox: &[Envelope<Self::Msg>], ctx: &NodeCtx);

    /// The earliest round `>= after` in which this node *might* send,
    /// given its current state, or `None` if it will stay silent until it
    /// receives something.
    ///
    /// Pipelined protocols have sparse send schedules (a node sends for
    /// source `s` only in round `⌈κ⌉ + pos`); implementing this lets the
    /// engine fast-forward through silent rounds (they are still counted in
    /// the round complexity, just not simulated one by one). The default is
    /// conservative: "might send every round".
    ///
    /// # Contract (required by active-set scheduling)
    ///
    /// The answer may be *conservative* — earlier than the node actually
    /// sends, or `Some(after)` always, as the default is — but it must be
    /// **sound** and **stable**:
    ///
    /// * **Sound**: the node never sends in a round `r >= after` strictly
    ///   before the returned round, and never sends at all (until its state
    ///   changes) after returning `None`. State changes only in `init`,
    ///   `send` and `receive`.
    /// * **Stable**: between state changes, answers are consistent with one
    ///   earlier answer. If `earliest_send(a)` returned `Some(r)`, then for
    ///   any `a <= a' <= r`, `earliest_send(a')` returns `Some(r)`; if it
    ///   returned `None`, every later query returns `None` until the state
    ///   changes.
    ///
    /// Under this contract the active-set scheduler, which caches one
    /// pending send round per node and only re-queries nodes whose state
    /// changed, polls exactly the same nodes the exhaustive engine would
    /// observe sending — which is what makes the two modes bit-identical.
    fn earliest_send(&self, after: Round, ctx: &NodeCtx) -> Option<Round> {
        let _ = ctx;
        Some(after)
    }
}

/// A protocol whose dynamic state can be serialized for crash recovery.
///
/// The transport runtime checkpoints workers at a round cadence and, after
/// a crash, rebuilds the node as "pristine clone + `init` + `restore`"
/// before replaying the frames received since the checkpoint round. That
/// split fixes the contract:
///
/// * `Clone` must reproduce the node *as constructed* — configuration
///   parameters (`k`, `h`, Δ, source flags…) travel by cloning, never
///   over the wire;
/// * [`Checkpointable::snapshot`] serializes only the *dynamic* state
///   accumulated since `init` (distance lists, best maps, counters),
///   using the [`crate::WireCodec`] building blocks;
/// * [`Checkpointable::restore`] overwrites that dynamic state on a
///   freshly constructed and `init`-ed instance.
///
/// Because the round schedule is deterministic and barrier-synchronous,
/// a restored node that replays its post-checkpoint inbox re-derives
/// exactly the state it lost (DESIGN.md §10).
pub trait Checkpointable: Protocol + Clone {
    /// Append the node's dynamic state to `out`.
    fn snapshot(&self, out: &mut Vec<u8>);

    /// Overwrite the dynamic state from the front of `buf`, advancing it
    /// past the consumed bytes. `None` means the bytes are malformed.
    fn restore(&mut self, buf: &mut &[u8]) -> Option<()>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_graph::GraphBuilder;

    #[test]
    fn ctx_local_views() {
        let mut b = GraphBuilder::new(3, true);
        b.add_edge(0, 1, 5);
        b.add_edge(2, 1, 7);
        let g = b.build();
        let ctx = NodeCtx::new(1, &g);
        assert_eq!(ctx.n(), 3);
        assert_eq!(ctx.comm_neighbors(), &[0, 2]);
        assert_eq!(ctx.in_weight_from(0), Some(5));
        assert_eq!(ctx.in_weight_from(2), Some(7));
        assert_eq!(ctx.in_weight_from(1), None);
        assert_eq!(ctx.out_edges(), &[]);
    }
}
