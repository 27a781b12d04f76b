//! Aggregation of the per-node invariant instrumentation.
//!
//! Invariant 1 (Lemma II.12): an entry added to `list_v` in round `r` has
//! `r < ⌈κ⌉ + pos`. Invariant 2 (Lemma II.11): at most `sqrt(Δh/k) + 1`
//! entries per source on any list. Both are checked *during* execution by
//! [`crate::node::PipelinedNode`]; this module reduces the per-node
//! counters into a run-level report (experiment E3).

use crate::node::PipelinedNode;

/// Run-level invariant report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvariantReport {
    pub inv1_violations: u64,
    /// `[round, schedule, d, l, src]` of some Invariant-1 violation.
    pub sample_inv1: Option<[u64; 5]>,
    /// `[round, count, d, src]` of some Invariant-2 violation.
    pub sample_inv2: Option<[u64; 4]>,
    pub inv2_violations: u64,
    /// Largest list ever observed at any node.
    pub max_list_len: usize,
    /// Largest per-source entry count ever observed at any node.
    pub max_per_source: usize,
    /// Total inserts / admission-rule drops across all nodes.
    pub inserts: u64,
    pub drops: u64,
    /// Total re-armed (late) announcements — 0 whenever Invariant 1
    /// holds everywhere.
    pub late_sends: u64,
    /// The round by which every node's shortest-path records were final —
    /// the quantity Lemma II.14 bounds (residual non-SP traffic may
    /// continue after it).
    pub convergence_round: u64,
}

impl InvariantReport {
    pub fn holds(&self) -> bool {
        self.inv1_violations == 0 && self.inv2_violations == 0
    }
}

/// Gather the report from final node states.
pub fn gather<'a>(nodes: impl Iterator<Item = &'a PipelinedNode>) -> InvariantReport {
    let mut r = InvariantReport::default();
    for nd in nodes {
        let s = &nd.stats;
        r.inv1_violations += s.inv1_violations;
        if r.sample_inv1.is_none() {
            r.sample_inv1 = s.last_inv1;
        }
        if r.sample_inv2.is_none() {
            r.sample_inv2 = s.last_inv2;
        }
        r.inv2_violations += s.inv2_violations;
        r.max_list_len = r.max_list_len.max(s.max_list_len);
        r.max_per_source = r.max_per_source.max(s.max_per_source);
        r.inserts += s.inserts;
        r.drops += s.drops;
        r.late_sends += s.late_sends;
        r.convergence_round = r.convergence_round.max(s.last_best_update);
    }
    r
}

/// Run `(h,k)`-SSP and return the invariant report alongside results
/// (convenience for tests and experiments).
pub fn run_with_report(
    g: &dw_graph::WGraph,
    cfg: &crate::config::SspConfig,
    engine: dw_congest::EngineConfig,
) -> (
    crate::result::HkSspResult,
    dw_congest::RunStats,
    InvariantReport,
) {
    let budget = crate::driver::default_budget(cfg, g.n());
    let make = crate::runtime::hk_ssp_nodes(cfg, g.n());
    let rec = &mut dw_congest::NullRecorder;
    let ((result, report), stats, _) =
        crate::runtime::simulate(g, engine, budget, "hk_ssp", rec, make, |nodes| {
            let nodes: Vec<&PipelinedNode> = nodes.collect();
            let result = crate::driver::extract(g, &cfg.sources, nodes.iter().copied().map(Some));
            (result, gather(nodes.into_iter()))
        });
    (result, stats, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SspConfig;
    use dw_congest::EngineConfig;
    use dw_graph::gen;
    use dw_seqref::max_finite_distance;

    #[test]
    fn invariants_hold_on_zero_heavy_graph() {
        let g = gen::zero_heavy(24, 0.12, 0.5, 6, true, 5);
        let delta = max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let (_, _, report) = run_with_report(&g, &cfg, EngineConfig::default());
        assert!(report.holds(), "{report:?}");
        assert!(report.inserts > 0);
    }

    #[test]
    fn invariants_hold_on_staircase() {
        let g = gen::staircase(4, 4, 3, true);
        let delta = max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let (_, _, report) = run_with_report(&g, &cfg, EngineConfig::default());
        assert!(report.holds(), "{report:?}");
        // the staircase really does force multiple entries per source
        assert!(report.max_per_source >= 2, "{report:?}");
    }
}
