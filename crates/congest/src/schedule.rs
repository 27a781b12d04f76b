//! The active-set schedule: which nodes can send in a round.
//!
//! Every lockstep runtime in the workspace — the simulator's
//! [`Network`](crate::Network), each `dw-transport` shard worker, and
//! each instance of the random-delay [`scheduler`](crate::scheduler) —
//! holds one [`Schedule`] over its nodes. It caches each node's answer
//! to [`Protocol::earliest_send`](crate::Protocol::earliest_send) and
//! keeps a lazy min-heap over the cache: an entry is valid iff its round
//! still equals the node's cached round, and a superseded entry stays in
//! the heap until it surfaces and is discarded.
//!
//! A runtime polls the nodes [`Schedule::pop_due`] hands it, then
//! re-queries exactly the nodes whose state may have changed (the polled
//! ones and the ones that received) and [`Schedule::set`]s the answers.
//! Under the `earliest_send` soundness + stability contract that keeps
//! every cached round exact, so the popped nodes are every node that can
//! send, and [`Schedule::next_round`] is the round a quiet stretch can
//! jump to.

use crate::protocol::Round;
use dw_graph::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A cached next send round per node plus a lazy min-heap over it.
/// Nodes are indices `0..len` — node ids, or a worker's local slots.
#[derive(Debug, Default)]
pub struct Schedule {
    /// Next send round per node; `Round::MAX` = dormant (silent until
    /// re-`set`; popped nodes are dormant until re-queried).
    next: Vec<Round>,
    /// `(round, node)` entries, valid iff `round == next[node]`.
    heap: BinaryHeap<Reverse<(Round, NodeId)>>,
}

impl Schedule {
    /// Re-seed from scratch: `len` nodes, node `v` at `earliest(v)`.
    /// Used after `init` and wherever node states were replaced
    /// wholesale (a rejoin's restore, the engine's dense-mode exit).
    pub fn rebuild(&mut self, len: usize, mut earliest: impl FnMut(usize) -> Option<Round>) {
        self.heap.clear();
        self.next.clear();
        self.next.resize(len, Round::MAX);
        for v in 0..len {
            self.set(v as NodeId, earliest(v));
        }
    }

    /// Node `v` will next send in round `r` (`None`: dormant). Pushes a
    /// heap entry only when the round changed; the one it supersedes
    /// goes stale.
    pub fn set(&mut self, v: NodeId, r: Option<Round>) {
        let r = r.unwrap_or(Round::MAX);
        let slot = &mut self.next[v as usize];
        if *slot != r {
            *slot = r;
            if r != Round::MAX {
                self.heap.push(Reverse((r, v)));
            }
        }
    }

    /// Replace `due` with every node scheduled at or before `round`, in
    /// ascending order. Each appears once: popping makes a node dormant
    /// until its next `set`.
    pub fn pop_due(&mut self, round: Round, due: &mut Vec<NodeId>) {
        due.clear();
        while let Some(&Reverse((r, v))) = self.heap.peek() {
            if r > round {
                break;
            }
            self.heap.pop();
            let slot = &mut self.next[v as usize];
            if *slot == r {
                *slot = Round::MAX;
                due.push(v);
            }
        }
        due.sort_unstable();
    }

    /// The earliest scheduled round, discarding stale tops on the way;
    /// `None` when every node is dormant.
    pub fn next_round(&mut self) -> Option<Round> {
        while let Some(&Reverse((r, v))) = self.heap.peek() {
            if self.next[v as usize] == r {
                return Some(r);
            }
            self.heap.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(rounds: &[Option<Round>]) -> Schedule {
        let mut s = Schedule::default();
        s.rebuild(rounds.len(), |v| rounds[v]);
        s
    }

    #[test]
    fn a_superseded_entry_is_never_popped() {
        let mut s = seeded(&[Some(3), Some(5)]);
        s.set(0, Some(8)); // (3, 0) goes stale
        s.set(1, None); // (5, 1) goes stale
        let mut due = Vec::new();
        s.pop_due(7, &mut due);
        assert!(due.is_empty(), "popped {due:?}");
        s.pop_due(8, &mut due);
        assert_eq!(due, [0]);
        // An earlier round supersedes a later one too.
        s.set(1, Some(20));
        s.set(1, Some(12));
        s.pop_due(19, &mut due);
        assert_eq!(due, [1]);
        s.pop_due(u64::MAX - 1, &mut due);
        assert!(due.is_empty(), "(20, 1) was superseded: {due:?}");
    }

    #[test]
    fn pop_due_is_sorted_deduped_and_leaves_nodes_dormant() {
        let mut s = seeded(&[Some(4), None, Some(2), Some(9), Some(2), Some(3)]);
        // Re-set node 0 to a round it held before: two equal entries.
        s.set(0, Some(6));
        s.set(0, Some(4));
        let mut due = vec![77];
        s.pop_due(4, &mut due);
        assert_eq!(due, [0, 2, 4, 5]);
        // Popped nodes are dormant: nothing due again until re-set.
        s.pop_due(8, &mut due);
        assert!(due.is_empty(), "popped twice: {due:?}");
        assert_eq!(s.next_round(), Some(9));
        s.set(2, Some(9));
        s.pop_due(9, &mut due);
        assert_eq!(due, [2, 3]);
        assert_eq!(s.next_round(), None);
    }

    #[test]
    fn next_round_skips_stale_tops() {
        let mut s = seeded(&[Some(1), Some(2), Some(7)]);
        assert_eq!(s.next_round(), Some(1));
        s.set(0, Some(10));
        s.set(1, None);
        assert_eq!(s.next_round(), Some(7));
        s.set(2, None);
        assert_eq!(s.next_round(), Some(10));
        s.set(0, None);
        assert_eq!(s.next_round(), None);
    }

    #[test]
    fn rebuild_after_a_restore_equals_a_fresh_seed() {
        let restored = [Some(5), None, Some(5), Some(6), None];
        // A schedule that ran on: entries popped, superseded, dormant.
        let mut s = seeded(&[Some(1), Some(2), None, Some(3), Some(8)]);
        let mut due = Vec::new();
        s.pop_due(2, &mut due);
        s.set(4, Some(40));
        s.set(0, Some(30));
        s.rebuild(restored.len(), |v| restored[v]);
        let mut fresh = seeded(&restored);
        assert_eq!(s.next, fresh.next);
        for round in [4, 5, 6, 100] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            s.pop_due(round, &mut a);
            fresh.pop_due(round, &mut b);
            assert_eq!(a, b, "round {round}");
            assert_eq!(s.next_round(), fresh.next_round());
        }
    }
}
