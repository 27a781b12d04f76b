//! Drivers: wire the node program to the engine, run to the theorem
//! bound, extract results.

use crate::bound::hk_round_bound;
use crate::config::SspConfig;
use crate::key::Gamma;
use crate::node::PipelinedNode;
use crate::result::HkSspResult;
use crate::runtime::hk_ssp_nodes;
use dw_congest::{EngineConfig, Network, NullRecorder, Recorder, RunOutcome, RunStats};
use dw_graph::{NodeId, WGraph, Weight, INFINITY};

/// Run Algorithm 1 with the given configuration. The round budget is the
/// Theorem I.1 bound `⌈2·sqrt(Δhk)⌉ + k + h`; by the theorem the protocol
/// is quiet (or at least correct) within it.
pub fn run_hk_ssp(
    g: &WGraph,
    cfg: &SspConfig,
    engine: EngineConfig,
) -> (HkSspResult, RunStats, RunOutcome) {
    run_hk_ssp_recorded(g, cfg, engine, &mut NullRecorder)
}

/// As [`run_hk_ssp`], wrapping the run in an `hk_ssp` span on `rec`.
pub fn run_hk_ssp_recorded(
    g: &WGraph,
    cfg: &SspConfig,
    engine: EngineConfig,
    rec: &mut dyn Recorder,
) -> (HkSspResult, RunStats, RunOutcome) {
    let k = cfg.k();
    let gamma = Gamma::new(k, cfg.h, cfg.delta);
    run_with_budget_recorded(g, cfg, gamma, default_budget(cfg, g.n()), engine, rec)
}

/// The default round cap: twice the Theorem I.1 bound plus slack.
///
/// In the regimes where the paper's invariants hold the run goes quiet
/// within the theorem bound itself (measured by experiment E2); the slack
/// only matters in the stressed regimes where re-armed late announcements
/// extend the schedule (see `NodeList::find_send`).
pub fn default_budget(cfg: &SspConfig, n: usize) -> u64 {
    2 * hk_round_bound(cfg.h, cfg.k(), cfg.delta) + 2 * n as u64 + 128
}

/// As [`run_hk_ssp`] but with an explicit round budget (used by
/// [`apsp_auto`]'s guess-and-double and by experiments probing tightness).
pub fn run_with_budget(
    g: &WGraph,
    cfg: &SspConfig,
    gamma: Gamma,
    budget: u64,
    engine: EngineConfig,
) -> (HkSspResult, RunStats, RunOutcome) {
    run_with_budget_recorded(g, cfg, gamma, budget, engine, &mut NullRecorder)
}

/// As [`run_with_budget`], wrapping the engine run in an `hk_ssp` span
/// (with per-round events) on `rec`.
pub fn run_with_budget_recorded(
    g: &WGraph,
    cfg: &SspConfig,
    gamma: Gamma,
    budget: u64,
    engine: EngineConfig,
    rec: &mut dyn Recorder,
) -> (HkSspResult, RunStats, RunOutcome) {
    run_with_budget_named(g, cfg, gamma, budget, engine, rec, "hk_ssp")
}

/// The span name is a call-site concern: the same Algorithm 1 run is
/// `hk_ssp` standalone but `hk_2h` inside a CSSSP construction.
pub(crate) fn run_with_budget_named(
    g: &WGraph,
    cfg: &SspConfig,
    gamma: Gamma,
    budget: u64,
    engine: EngineConfig,
    rec: &mut dyn Recorder,
    span_name: &'static str,
) -> (HkSspResult, RunStats, RunOutcome) {
    let mut net = Network::new(g, engine, hk_ssp_nodes(cfg, gamma, g.n()));
    let span = rec.begin(span_name);
    let outcome = net.run_recorded(budget, rec);
    let stats = net.stats();
    rec.end(span, &stats);
    let result = extract(g, &cfg.sources, net.nodes());
    (result, stats, outcome)
}

/// Pull per-source records out of the final node states. Takes the
/// nodes as an iterator so both execution environments feed it: the
/// simulator yields borrows out of [`Network::nodes`], the transport
/// runtime out of its joined worker results.
pub(crate) fn extract<'a>(
    g: &WGraph,
    sources: &[NodeId],
    nodes: impl Iterator<Item = &'a PipelinedNode>,
) -> HkSspResult {
    let n = g.n();
    let mut dist = vec![vec![INFINITY; n]; sources.len()];
    let mut hops = vec![vec![0u64; n]; sources.len()];
    let mut parent = vec![vec![None; n]; sources.len()];
    for (v, node) in nodes.enumerate() {
        for (i, &s) in sources.iter().enumerate() {
            if let Some(b) = node.best_for(s) {
                dist[i][v] = b.d;
                hops[i][v] = b.l;
                parent[i][v] = if v as NodeId == s {
                    None
                } else {
                    Some(b.parent)
                };
            }
        }
    }
    HkSspResult {
        sources: sources.to_vec(),
        dist,
        hops,
        parent,
    }
}

/// APSP for shortest-path distances at most `delta`
/// (Theorem I.1(ii): `2n·sqrt(Δ) + 2n` rounds).
pub fn apsp(
    g: &WGraph,
    delta: Weight,
    engine: EngineConfig,
) -> (HkSspResult, RunStats, RunOutcome) {
    run_hk_ssp(g, &SspConfig::apsp(g.n(), delta), engine)
}

/// `k`-SSP for shortest-path distances at most `delta`
/// (Theorem I.1(iii)).
pub fn k_ssp(
    g: &WGraph,
    sources: Vec<NodeId>,
    delta: Weight,
    engine: EngineConfig,
) -> (HkSspResult, RunStats, RunOutcome) {
    run_hk_ssp(g, &SspConfig::k_ssp(g.n(), sources, delta), engine)
}

/// APSP when `Δ` is unknown: guess-and-double.
///
/// Correctness of Algorithm 1 does not depend on `Δ` (only the round bound
/// does), so a run that goes **quiet** within its budget has fully
/// converged and its answers are exact. We start from `Δ₀ = max(W, 1)` and
/// double until the run is quiet inside the Theorem I.1 budget for the
/// current guess. Total rounds are within a constant factor of the final
/// run (geometric sum).
pub fn apsp_auto(g: &WGraph, engine: EngineConfig) -> (HkSspResult, RunStats, Weight) {
    let mut guess: Weight = g.max_weight().max(1);
    let mut total = RunStats::default();
    loop {
        let (res, stats, outcome) = apsp(g, guess, engine.clone());
        total = total.then(&stats);
        if outcome == RunOutcome::Quiet {
            return (res, total, guess);
        }
        guess = guess.saturating_mul(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_graph::gen::{self, WeightDist};
    use dw_seqref::{apsp_dijkstra, assert_matrices_equal, max_finite_distance};

    #[test]
    fn apsp_small_path() {
        let g = gen::path(4, false, WeightDist::Constant(2), 0);
        let delta = max_finite_distance(&g);
        let (res, stats, _) = apsp(&g, delta, EngineConfig::default());
        assert_matrices_equal(&apsp_dijkstra(&g), &res.to_matrix(), "path apsp");
        assert!(stats.rounds <= crate::bound::apsp_round_bound(4, delta));
    }

    #[test]
    fn apsp_auto_finds_delta() {
        let g = gen::gnp_connected(16, 0.1, false, WeightDist::Uniform { max: 9 }, 3);
        let (res, _, guess) = apsp_auto(&g, EngineConfig::default());
        assert_matrices_equal(&apsp_dijkstra(&g), &res.to_matrix(), "apsp_auto");
        assert!(guess >= 1);
    }

    #[test]
    fn parent_pointers_name_real_edges() {
        let g = gen::gnp_connected(
            12,
            0.2,
            true,
            WeightDist::ZeroOr {
                p_zero: 0.3,
                max: 5,
            },
            7,
        );
        let delta = max_finite_distance(&g);
        let (res, _, _) = apsp(&g, delta, EngineConfig::default());
        for (i, &s) in res.sources.iter().enumerate() {
            for v in g.nodes() {
                if let Some(p) = res.parent[i][v as usize] {
                    assert!(v != s);
                    let w = g.edge_weight(p, v).expect("parent edge must exist");
                    assert!(res.dist[i][v as usize] >= w);
                }
            }
        }
    }
}
