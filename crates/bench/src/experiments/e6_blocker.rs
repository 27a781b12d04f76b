//! E6 — blocker-set machinery: greedy set size vs the `O((n ln n)/h)`
//! bound, Algorithm 4's `k+h-1` rounds (Lemma III.8), and the
//! one-message-per-round property (Lemma III.6).

use crate::experiments::ok;
use crate::table::Table;
use crate::trow;
use crate::workloads;
use dw_blocker::{find_blocker_set, verify_blocker_coverage, TreeKnowledge};
use dw_congest::{EngineConfig, NullRecorder};
use dw_graph::NodeId;
use dw_pipeline::build_csssp;

pub fn run(full: bool) -> Vec<Table> {
    let n = if full { 32 } else { 20 };
    let mut t = Table::new(
        "E6 — blocker set: size, Algorithm 4 rounds, per-round inbox",
        &[
            "workload",
            "h",
            "|Q|",
            "bound (n/h)(ln nk +1)",
            "within",
            "alg4 max rounds",
            "bound k+h-1",
            "within ",
            "alg4 max inbox",
            "covered",
        ],
    );
    let hs: &[u64] = if full { &[2, 3, 4, 6] } else { &[2, 3, 4] };
    for seed in 0..2u64 {
        let wl = workloads::zero_heavy(n, 5, 100 + seed);
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
            let out =
                find_blocker_set(&wl.graph, &know, EngineConfig::default(), &mut NullRecorder);
            let covered = verify_blocker_coverage(&know, &out.blockers).is_ok();
            let k = know.k() as f64;
            let bound = (wl.n() as f64 / h as f64) * ((wl.n() as f64 * k).ln() + 1.0);
            t.row(trow![
                wl.name,
                h,
                out.blockers.len(),
                format!("{bound:.0}"),
                ok((out.blockers.len() as f64) <= bound),
                out.alg4_max_rounds,
                know.k() as u64 + h - 1,
                ok(out.alg4_max_rounds < know.k() as u64 + h),
                out.alg4_max_inbox,
                ok(covered)
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn blocker_bounds_hold() {
        let tables = super::run(false);
        let r = tables[0].render();
        assert!(!r.contains("NO"), "{r}");
    }
}
