//! Score updates after a blocker node `c` is chosen.
//!
//! * **Ancestor updates** (\[3\], reused here): in every tree where `c` has
//!   a positive score, each ancestor of `c` subtracts `c`'s score for that
//!   tree. Messages climb the per-tree parent links with per-link FIFOs
//!   (the in-tree property of Lemma III.7 keeps paths consistent).
//! * **Descendant updates — Algorithm 4 of the paper**: `c` pipelines one
//!   tree-id per round down its subtrees; every descendant zeroes its
//!   score for that tree and forwards one round later. CSSSP consistency
//!   (Lemma III.6) guarantees each node receives at most one message per
//!   round, so the whole update needs `k + h - 1` rounds (Lemma III.8) —
//!   and the engine's link-capacity checks would catch any violation.

use crate::knowledge::TreeKnowledge;
use dw_congest::{
    EngineConfig, Envelope, MsgSize, Network, NodeCtx, Outbox, Protocol, Round, RunStats,
};
use dw_graph::{NodeId, WGraph};
use std::collections::{HashMap, VecDeque};

/// `(tree index, score delta)` — 2 words.
#[derive(Debug, Clone, Copy)]
struct AncMsg {
    tree: u32,
    delta: u64,
}

impl MsgSize for AncMsg {
    fn size_words(&self) -> usize {
        2
    }
}

struct AncestorNode {
    knowledge: TreeKnowledge,
    c: NodeId,
    scores: Vec<u64>,
    queues: HashMap<NodeId, VecDeque<AncMsg>>,
}

impl AncestorNode {
    fn forward(&mut self, v: NodeId, tree: u32, delta: u64) {
        if let Some(p) = self.knowledge.node(v).parent[tree as usize] {
            self.queues
                .entry(p)
                .or_default()
                .push_back(AncMsg { tree, delta });
        }
    }
}

impl Protocol for AncestorNode {
    type Msg = AncMsg;

    fn init(&mut self, ctx: &NodeCtx) {
        if ctx.id == self.c {
            for i in 0..self.knowledge.k() {
                if self.scores[i] > 0 && self.knowledge.node(ctx.id).in_tree(i) {
                    let delta = self.scores[i];
                    self.forward(ctx.id, i as u32, delta);
                }
            }
        }
    }

    fn send(&mut self, _round: Round, _ctx: &NodeCtx, out: &mut Outbox<AncMsg>) {
        let mut parents: Vec<NodeId> = self
            .queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&p, _)| p)
            .collect();
        parents.sort_unstable();
        for p in parents {
            if let Some(m) = self.queues.get_mut(&p).and_then(|q| q.pop_front()) {
                out.unicast(p, m);
            }
        }
    }

    fn receive(&mut self, _round: Round, inbox: &[Envelope<AncMsg>], ctx: &NodeCtx) {
        for env in inbox {
            let i = env.msg().tree as usize;
            self.scores[i] = self.scores[i]
                .checked_sub(env.msg().delta)
                .expect("ancestor update underflow: score bookkeeping bug");
            self.forward(ctx.id, env.msg().tree, env.msg().delta);
        }
    }

    fn earliest_send(&self, after: Round, _ctx: &NodeCtx) -> Option<Round> {
        if self.queues.values().any(|q| !q.is_empty()) {
            Some(after)
        } else {
            None
        }
    }
}

/// Subtract `c`'s scores from all its ancestors, in all trees. `scores`
/// is the full score table (`scores[v][i]`), updated in place.
pub fn ancestor_updates(
    g: &WGraph,
    knowledge: &TreeKnowledge,
    c: NodeId,
    scores: &mut [Vec<u64>],
    engine: EngineConfig,
) -> RunStats {
    let mut net = Network::new(g, engine, |v| AncestorNode {
        knowledge: knowledge.clone(),
        c,
        scores: scores[v as usize].clone(),
        queues: HashMap::new(),
    });
    net.run(2 * (knowledge.k() as u64 + knowledge.h + 2) + g.n() as u64);
    let stats = net.stats();
    for (v, node) in net.into_nodes().into_iter().enumerate() {
        scores[v] = node.scores;
    }
    stats
}

/// Tree-id payload of Algorithm 4 — 1 word.
#[derive(Debug, Clone, Copy)]
struct DescMsg {
    tree: u32,
}

impl MsgSize for DescMsg {
    fn size_words(&self) -> usize {
        1
    }
}

struct DescendantNode {
    knowledge: TreeKnowledge,
    c: NodeId,
    scores: Vec<u64>,
    /// At `c`: the pipelined list of tree ids (Algorithm 4's `list_c`).
    list: VecDeque<u32>,
    /// Per-child-link FIFO of tree ids to forward. With a perfectly
    /// consistent CSSSP collection (Lemma III.6) every queue holds at most
    /// one element and this degenerates to Algorithm 4's literal
    /// "forward next round"; the queues make the protocol robust to the
    /// rare hop-boundary inconsistencies measured by experiment E4b.
    queues: HashMap<NodeId, VecDeque<DescMsg>>,
    /// Diagnostic: max messages received in one round (Lemma III.6 says 1).
    pub max_inbox: usize,
}

impl DescendantNode {
    fn enqueue_children(&mut self, v: NodeId, tree: u32) {
        let children = self.knowledge.node(v).children[tree as usize].clone();
        for ch in children {
            self.queues
                .entry(ch)
                .or_default()
                .push_back(DescMsg { tree });
        }
    }
}

impl Protocol for DescendantNode {
    type Msg = DescMsg;

    /// Local step at `c` (Algorithm 4 line 1): build `list_c` from trees
    /// with nonzero score, then zero out all own scores.
    fn init(&mut self, ctx: &NodeCtx) {
        if ctx.id == self.c {
            for i in 0..self.knowledge.k() {
                if self.scores[i] != 0 && self.knowledge.node(ctx.id).in_tree(i) {
                    self.list.push_back(i as u32);
                }
                self.scores[i] = 0;
            }
        }
    }

    fn send(&mut self, _round: Round, ctx: &NodeCtx, out: &mut Outbox<DescMsg>) {
        // c injects the next list entry (line 2)...
        if ctx.id == self.c {
            if let Some(i) = self.list.pop_front() {
                self.enqueue_children(ctx.id, i);
            }
        }
        // ...and everyone drains one message per child link (lines 3-4).
        let mut targets: Vec<NodeId> = self
            .queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&t, _)| t)
            .collect();
        targets.sort_unstable();
        for t in targets {
            if let Some(m) = self.queues.get_mut(&t).and_then(|q| q.pop_front()) {
                out.unicast(t, m);
            }
        }
    }

    fn receive(&mut self, _round: Round, inbox: &[Envelope<DescMsg>], ctx: &NodeCtx) {
        self.max_inbox = self.max_inbox.max(inbox.len());
        for env in inbox {
            let i = env.msg().tree as usize;
            // lines 5-6: zero the score; forward next round
            self.scores[i] = 0;
            self.enqueue_children(ctx.id, env.msg().tree);
        }
    }

    fn earliest_send(&self, after: Round, _ctx: &NodeCtx) -> Option<Round> {
        if self.list.is_empty() && self.queues.values().all(|q| q.is_empty()) {
            None
        } else {
            Some(after)
        }
    }
}

/// Outcome diagnostics of one Algorithm 4 run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescendantOutcome {
    pub stats: RunStats,
    /// Largest per-round inbox any node saw (Lemma III.6 ⇒ 1).
    pub max_inbox: usize,
}

/// Algorithm 4: zero the scores of all descendants of `c` (and of `c`
/// itself), pipelined over trees. `k + h - 1` rounds (Lemma III.8).
pub fn descendant_updates(
    g: &WGraph,
    knowledge: &TreeKnowledge,
    c: NodeId,
    scores: &mut [Vec<u64>],
    engine: EngineConfig,
) -> DescendantOutcome {
    let mut net = Network::new(g, engine, |v| DescendantNode {
        knowledge: knowledge.clone(),
        c,
        scores: scores[v as usize].clone(),
        list: VecDeque::new(),
        queues: HashMap::new(),
        max_inbox: 0,
    });
    net.run(knowledge.k() as u64 + knowledge.h + 2);
    let stats = net.stats();
    let mut max_inbox = 0;
    for (v, node) in net.into_nodes().into_iter().enumerate() {
        max_inbox = max_inbox.max(node.max_inbox);
        scores[v] = node.scores;
    }
    DescendantOutcome { stats, max_inbox }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scores::{compute_initial_scores, reference_scores};

    fn setup(n: usize, h: u64, seed: u64) -> (WGraph, TreeKnowledge, Vec<Vec<u64>>) {
        let (g, know) = crate::knowledge::fixture(n, h, 4, seed);
        let (scores, _) = compute_initial_scores(&g, &know, EngineConfig::default());
        (g, know, scores)
    }

    /// Centralized reference of both updates for cross-checking.
    fn reference_after_pick(know: &TreeKnowledge, scores: &[Vec<u64>], c: NodeId) -> Vec<Vec<u64>> {
        let mut out = scores.to_vec();
        for i in 0..know.k() {
            if !know.node(c).in_tree(i) {
                continue;
            }
            let sc = scores[c as usize][i];
            if sc > 0 {
                // ancestors: walk c's parent chain
                let mut cur = c;
                while let Some(p) = know.node(cur).parent[i] {
                    out[p as usize][i] -= sc;
                    cur = p;
                }
                // descendants (incl. c): zero everything in c's subtree
                let mut stack = vec![c];
                while let Some(u) = stack.pop() {
                    out[u as usize][i] = 0;
                    stack.extend(know.node(u).children[i].iter().copied());
                }
            }
            out[c as usize][i] = 0;
        }
        out
    }

    #[test]
    fn updates_match_reference() {
        let (g, know, scores) = setup(14, 3, 6);
        // pick the max-score node like the greedy loop would
        let totals: Vec<u64> = scores.iter().map(|r| r.iter().sum()).collect();
        let c = (0..g.n() as NodeId)
            .max_by_key(|&v| (totals[v as usize], std::cmp::Reverse(v)))
            .unwrap();
        let expect = reference_after_pick(&know, &scores, c);

        let mut got = scores.clone();
        ancestor_updates(&g, &know, c, &mut got, EngineConfig::default());
        let desc = descendant_updates(&g, &know, c, &mut got, EngineConfig::default());
        assert_eq!(got, expect);
        assert!(desc.max_inbox <= 1, "Lemma III.6: one message per round");
    }

    #[test]
    fn algorithm4_round_bound() {
        let (g, know, scores) = setup(16, 3, 8);
        let totals: Vec<u64> = scores.iter().map(|r| r.iter().sum()).collect();
        let c = (0..g.n() as NodeId)
            .max_by_key(|&v| (totals[v as usize], std::cmp::Reverse(v)))
            .unwrap();
        let mut work = scores.clone();
        ancestor_updates(&g, &know, c, &mut work, EngineConfig::default());
        let desc = descendant_updates(&g, &know, c, &mut work, EngineConfig::default());
        assert!(
            desc.stats.rounds <= know.k() as u64 + know.h,
            "Lemma III.8: {} > k+h-1",
            desc.stats.rounds
        );
    }

    #[test]
    fn scores_stay_consistent_reference() {
        // sanity: reference_scores and compute_initial_scores agree (the
        // scores module tests this too; here we guard the setup path)
        let (_, know, scores) = setup(12, 2, 10);
        assert_eq!(scores, reference_scores(&know));
    }
}
