//! E12 — ablation: greedy blocker selection vs uniform sampling.
//!
//! The greedy algorithm (Section III-B) pays `O(D + k + h)` rounds per
//! picked node but adapts to the instance; uniform sampling is free in
//! rounds but its size is pinned at `≈ (c·n·ln nk)/h` regardless of how
//! few deep paths exist. Since Algorithm 3 pays `O(n)` rounds per blocker
//! downstream (Steps 3–4), the trade flips exactly when the instance has
//! far fewer deep paths than the worst case — which the zero-heavy
//! workloads exhibit strongly at larger `h`.

use crate::experiments::ok;
use crate::table::Table;
use crate::trow;
use crate::workloads;
use dw_blocker::random::random_blocker_set;
use dw_blocker::{find_blocker_set, verify_blocker_coverage, TreeKnowledge};
use dw_congest::{EngineConfig, NullRecorder};
use dw_graph::NodeId;
use dw_pipeline::build_csssp;

pub fn run(full: bool) -> Vec<Table> {
    let n = if full { 32 } else { 20 };
    let mut t = Table::new(
        "E12 — blocker selection ablation: greedy vs uniform sampling",
        &[
            "h",
            "greedy |Q|",
            "greedy rounds",
            "sampled |Q|",
            "sampling rounds",
            "downstream Δrounds (≈n·(|Qs|-|Qg|))",
            "both cover",
        ],
    );
    let hs: &[u64] = if full { &[2, 3, 4, 6] } else { &[2, 3, 4] };
    let wl = workloads::zero_heavy(n, 5, 777);
    for &h in hs {
        let sources: Vec<NodeId> = (0..wl.n() as NodeId).collect();
        let delta = wl.delta_h(2 * h as usize);
        let (c, _) = build_csssp(
            &wl.graph,
            &sources,
            h,
            delta,
            EngineConfig::default(),
            &mut NullRecorder,
        );
        let know = TreeKnowledge::from_csssp(&c);
        let greedy = find_blocker_set(&wl.graph, &know, EngineConfig::default(), &mut NullRecorder);
        let sampled = random_blocker_set(&know, 1000 + h);
        let cover = verify_blocker_coverage(&know, &greedy.blockers).is_ok()
            && verify_blocker_coverage(&know, &sampled.blockers).is_ok();
        let downstream = (sampled.blockers.len() as i64 - greedy.blockers.len() as i64) * n as i64;
        t.row(trow![
            h,
            greedy.blockers.len(),
            greedy.stats.rounds,
            sampled.blockers.len(),
            0,
            downstream,
            ok(cover)
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn ablation_rows_cover() {
        let tables = super::run(false);
        let r = tables[0].render();
        assert!(!r.contains("NO"), "{r}");
    }
}
