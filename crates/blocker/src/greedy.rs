//! The greedy blocker-set selection loop (Section III-B).
//!
//! Repeat until every h-length root-to-leaf path is covered: find the node
//! with maximum total score (convergecast over a BFS spanning tree),
//! announce it (broadcast), then run the ancestor and descendant
//! (Algorithm 4) score updates. The greedy set-cover argument gives
//! `|Q| = O((n log n)/h)` because each h-length path has `h+1` nodes, so a
//! fractional cover of size `n/h` always exists.

use crate::knowledge::TreeKnowledge;
use crate::scores::compute_initial_scores;
use crate::update::{ancestor_updates, descendant_updates};
use dw_congest::primitives::{build_bfs_tree, converge_max, pipeline_broadcast};
use dw_congest::{EngineConfig, Recorder, RunStats};
use dw_graph::{NodeId, WGraph};

/// Result of the blocker-set computation.
#[derive(Debug, Clone)]
pub struct BlockerOutcome {
    /// The blocker set `Q`, in selection order.
    pub blockers: Vec<NodeId>,
    /// Composed rounds/messages across every distributed phase.
    pub stats: RunStats,
    /// Rounds spent in the initial score aggregation alone.
    pub score_rounds: u64,
    /// Largest single-round inbox seen by Algorithm 4 (Lemma III.6 ⇒ 1).
    pub alg4_max_inbox: usize,
    /// Max rounds of any single Algorithm 4 invocation (Lemma III.8 ⇒
    /// `<= k + h - 1`).
    pub alg4_max_rounds: u64,
    /// Final score table (all zeros on success).
    pub final_scores: Vec<Vec<u64>>,
}

/// Compute a blocker set for the CSSSP collection described by
/// `knowledge`, recording phase spans on `rec`: `blocker_scores` (initial
/// score aggregation + BFS spanning tree), one `blocker_select` per greedy
/// iteration (the converge-max plus the announcement broadcast —
/// including the final probe that finds no positive score), one
/// `alg4_update` per selection (ancestor + descendant score updates), and
/// a `blocker.selected` counter.
pub fn find_blocker_set(
    g: &WGraph,
    knowledge: &TreeKnowledge,
    engine: EngineConfig,
    rec: &mut dyn Recorder,
) -> BlockerOutcome {
    let span = rec.begin("blocker_scores");
    let (mut scores, score_stats) = compute_initial_scores(g, knowledge, engine.clone());
    let mut stats = score_stats.clone();
    let (bfs, bfs_stats) = build_bfs_tree(g, 0, engine.clone());
    stats = stats.then(&bfs_stats);
    rec.end(span, &stats);

    let mut blockers = Vec::new();
    let mut alg4_max_inbox = 0;
    let mut alg4_max_rounds = 0;
    loop {
        let totals: Vec<u64> = scores.iter().map(|row| row.iter().sum()).collect();
        let span = rec.begin("blocker_select");
        let ((best, c), cc_stats) = converge_max(g, &bfs, &totals, engine.clone());
        let mut select_stats = cc_stats;
        if best == 0 {
            rec.end(span, &select_stats);
            stats = stats.then(&select_stats);
            break;
        }
        // announce the chosen blocker to every node
        let (_, bc_stats) = pipeline_broadcast(g, &bfs, vec![c as u64], engine.clone());
        select_stats = select_stats.then(&bc_stats);
        rec.end(span, &select_stats);
        stats = stats.then(&select_stats);
        blockers.push(c);
        rec.counter("blocker.selected", 1);

        let span = rec.begin("alg4_update");
        let anc_stats = ancestor_updates(g, knowledge, c, &mut scores, engine.clone());
        let desc = descendant_updates(g, knowledge, c, &mut scores, engine.clone());
        alg4_max_inbox = alg4_max_inbox.max(desc.max_inbox);
        alg4_max_rounds = alg4_max_rounds.max(desc.stats.rounds);
        let update_stats = anc_stats.then(&desc.stats);
        rec.end(span, &update_stats);
        stats = stats.then(&update_stats);
    }

    BlockerOutcome {
        blockers,
        stats,
        score_rounds: score_stats.rounds,
        alg4_max_inbox,
        alg4_max_rounds,
        final_scores: scores,
    }
}

/// Verify Definition III.1 centrally: every depth-h node's root path in
/// every tree contains a blocker.
pub fn verify_blocker_coverage(
    knowledge: &TreeKnowledge,
    blockers: &[NodeId],
) -> Result<(), String> {
    let in_q: std::collections::HashSet<NodeId> = blockers.iter().copied().collect();
    for i in 0..knowledge.k() {
        for v in 0..knowledge.n() as NodeId {
            if knowledge.node(v).depth[i] != knowledge.h {
                continue;
            }
            // walk the root path; some node must be in Q
            let mut cur = v;
            let mut covered = in_q.contains(&cur);
            while let Some(p) = knowledge.node(cur).parent[i] {
                cur = p;
                covered |= in_q.contains(&cur);
            }
            if !covered {
                return Err(format!(
                    "h-path to {v} in tree {} (source {}) uncovered",
                    i, knowledge.sources[i]
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::fixture;
    use dw_congest::NullRecorder;

    #[test]
    fn blocker_set_covers_all_h_paths() {
        let (g, know) = fixture(16, 3, 4, 5);
        let out = find_blocker_set(&g, &know, EngineConfig::default(), &mut NullRecorder);
        verify_blocker_coverage(&know, &out.blockers).unwrap();
        assert!(out.final_scores.iter().flatten().all(|&s| s == 0));
        assert!(out.alg4_max_inbox <= 1);
        assert!(out.alg4_max_rounds <= know.k() as u64 + know.h);
    }

    #[test]
    fn empty_when_no_deep_paths() {
        // h larger than any tree height: nothing to cover
        let (g, know) = fixture(10, 9, 4, 7);
        let deep = (0..know.k())
            .flat_map(|i| (0..know.n() as NodeId).map(move |v| (i, v)))
            .filter(|&(i, v)| know.node(v).depth[i] == know.h)
            .count();
        let out = find_blocker_set(&g, &know, EngineConfig::default(), &mut NullRecorder);
        if deep == 0 {
            assert!(out.blockers.is_empty());
        } else {
            verify_blocker_coverage(&know, &out.blockers).unwrap();
        }
    }

    #[test]
    fn greedy_size_within_set_cover_bound() {
        let (g, know) = fixture(18, 3, 4, 11);
        let out = find_blocker_set(&g, &know, EngineConfig::default(), &mut NullRecorder);
        verify_blocker_coverage(&know, &out.blockers).unwrap();
        // generous O((n ln(nk))/h) sanity bound
        let n = g.n() as f64;
        let k = know.k() as f64;
        let bound = (n / know.h as f64) * ((n * k).ln() + 1.0) + 1.0;
        assert!(
            (out.blockers.len() as f64) <= bound,
            "|Q| = {} exceeds {bound}",
            out.blockers.len()
        );
    }
}
