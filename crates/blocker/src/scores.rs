//! Pipelined initial score computation.
//!
//! The *score* of node `v` in tree `T_x` is the number of depth-`h` leaves
//! in `v`'s subtree of `T_x` (including `v` itself if it sits at depth
//! `h`); the sum over trees counts exactly the h-length root-to-leaf paths
//! through `v`. Scores are aggregated leaves-up per tree; messages for
//! different trees pipeline over the (per-tree) parent links with per-link
//! FIFO queues, the timestamp-pipelining idea the paper borrows from \[12\]
//! (each node emits at most one message per tree, so each link carries at
//! most `k` messages and the whole aggregation completes in `O(k + h)`
//! rounds — measured by experiment E6).

use crate::knowledge::TreeKnowledge;
use dw_congest::{
    EngineConfig, Envelope, MsgSize, Network, NodeCtx, Outbox, Protocol, Round, RunStats,
};
use dw_graph::{NodeId, WGraph};
use std::collections::{HashMap, VecDeque};

/// `(tree index, subtree leaf count)` — 2 words.
#[derive(Debug, Clone, Copy)]
struct ScoreMsg {
    tree: u32,
    count: u64,
}

impl MsgSize for ScoreMsg {
    fn size_words(&self) -> usize {
        2
    }
}

struct ScoreNode {
    knowledge: TreeKnowledge,
    /// Children yet to report, per tree.
    pending: Vec<usize>,
    /// Accumulated subtree leaf count per tree (starts with the node's own
    /// depth-h contribution).
    score: Vec<u64>,
    /// Per-parent-link FIFO of ready reports.
    queues: HashMap<NodeId, VecDeque<ScoreMsg>>,
    /// Whether the report for tree i has been enqueued.
    reported: Vec<bool>,
}

impl ScoreNode {
    fn try_report(&mut self, v: NodeId, i: usize) {
        if self.reported[i] || self.pending[i] > 0 {
            return;
        }
        let nt = self.knowledge.node(v);
        if !nt.in_tree(i) {
            return;
        }
        self.reported[i] = true;
        if let Some(p) = nt.parent[i] {
            self.queues.entry(p).or_default().push_back(ScoreMsg {
                tree: i as u32,
                count: self.score[i],
            });
        }
    }
}

impl Protocol for ScoreNode {
    type Msg = ScoreMsg;

    fn init(&mut self, ctx: &NodeCtx) {
        let k = self.knowledge.k();
        let h = self.knowledge.h;
        let nt = self.knowledge.node(ctx.id);
        for i in 0..k {
            self.pending[i] = nt.children[i].len();
            self.score[i] = u64::from(nt.depth[i] == h);
        }
        for i in 0..k {
            self.try_report(ctx.id, i);
        }
    }

    fn send(&mut self, _round: Round, _ctx: &NodeCtx, out: &mut Outbox<ScoreMsg>) {
        // one queued report per parent link per round
        let mut parents: Vec<NodeId> = self
            .queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&p, _)| p)
            .collect();
        parents.sort_unstable(); // determinism
        for p in parents {
            if let Some(m) = self.queues.get_mut(&p).and_then(|q| q.pop_front()) {
                out.unicast(p, m);
            }
        }
    }

    fn receive(&mut self, _round: Round, inbox: &[Envelope<ScoreMsg>], ctx: &NodeCtx) {
        for env in inbox {
            let i = env.msg().tree as usize;
            self.score[i] += env.msg().count;
            self.pending[i] -= 1;
            self.try_report(ctx.id, i);
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

/// Compute initial scores for every node and tree. Returns
/// `scores[v][i]` = number of depth-`h` leaves of tree `i` in `v`'s
/// subtree, plus run stats.
pub fn compute_initial_scores(
    g: &WGraph,
    knowledge: &TreeKnowledge,
    engine: EngineConfig,
) -> (Vec<Vec<u64>>, RunStats) {
    let k = knowledge.k();
    let mut net = Network::new(g, engine, |_| ScoreNode {
        knowledge: knowledge.clone(),
        pending: vec![0; k],
        score: vec![0; k],
        queues: HashMap::new(),
        reported: vec![false; k],
    });
    // every node emits ≤ k reports; dilation ≤ h; generous budget
    net.run((k as u64 + knowledge.h + 2) * 4 + g.n() as u64);
    let stats = net.stats();
    let scores = net.into_nodes().into_iter().map(|nd| nd.score).collect();
    (scores, stats)
}

/// Centralized reference for tests: count depth-h leaves per subtree.
#[cfg(test)]
pub(crate) fn reference_scores(knowledge: &TreeKnowledge) -> Vec<Vec<u64>> {
    let n = knowledge.n();
    let k = knowledge.k();
    let h = knowledge.h;
    let mut scores = vec![vec![0u64; k]; n];
    #[allow(clippy::needless_range_loop)]
    for i in 0..k {
        // process nodes in decreasing depth
        let mut order: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| knowledge.node(v).in_tree(i))
            .collect();
        order.sort_by_key(|&v| std::cmp::Reverse(knowledge.node(v).depth[i]));
        for v in order {
            let mut s = u64::from(knowledge.node(v).depth[i] == h);
            for &c in &knowledge.node(v).children[i] {
                s += scores[c as usize][i];
            }
            scores[v as usize][i] = s;
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::fixture;

    #[test]
    fn distributed_scores_match_reference() {
        let (g, know) = fixture(14, 3, 4, 4);
        let (scores, stats) = compute_initial_scores(&g, &know, EngineConfig::default());
        assert_eq!(scores, reference_scores(&know));
        assert!(stats.messages > 0);
    }

    #[test]
    fn root_score_counts_h_paths() {
        let (g, know) = fixture(12, 2, 4, 9);
        let (scores, _) = compute_initial_scores(&g, &know, EngineConfig::default());
        for (i, &s) in know.sources.iter().enumerate() {
            let leaves = (0..g.n() as NodeId)
                .filter(|&v| know.node(v).depth[i] == know.h)
                .count() as u64;
            assert_eq!(scores[s as usize][i], leaves, "tree {i}");
        }
    }

    #[test]
    fn pipelining_rounds_linear_in_k_plus_h() {
        let (g, know) = fixture(16, 3, 4, 11);
        let (_, stats) = compute_initial_scores(&g, &know, EngineConfig::default());
        let bound = 3 * (know.k() as u64 + know.h + 2);
        assert!(
            stats.rounds <= bound,
            "rounds {} exceed pipelining bound {bound}",
            stats.rounds
        );
    }
}
