//! Algorithm 1's solve call, [`solve_hk_ssp`]: wire the node program to
//! the engine or a transport, run to the theorem bound, extract results.
//! Theorem I.1's shapes ([`apsp`], [`k_ssp`], [`apsp_auto`]) take its
//! simulator arm, which cannot fail.

use crate::bound::hk_round_bound;
use crate::config::SspConfig;
use crate::node::PipelinedNode;
use crate::recovery::solve_reliable;
use crate::result::HkSspResult;
use crate::runtime::{
    degrade_on_permanent_cuts, execute, hk_ssp_nodes, simulate, solve_chaos, Recovery, Run,
    Runtime, SolveError, Solved,
};
use dw_congest::{EngineConfig, NullRecorder, Recorder, RunOutcome, RunStats};
use dw_graph::{NodeId, WGraph, Weight, INFINITY};

/// Algorithm 1 `(h,k)`-SSP as `run` says: on `run.runtime`, under
/// `run.recovery`, within `run.budget` (by default [`default_budget`];
/// by the theorem the protocol is quiet, or at least correct, within
/// it), inside an `hk_ssp` span on `rec` — the same phase attribution on
/// every runtime, which is what lets the conformance tests compare
/// recordings bit-for-bit across sim/threads/TCP.
pub fn solve_hk_ssp(
    g: &WGraph,
    cfg: &SspConfig,
    run: &Run,
    rec: &mut dyn Recorder,
) -> Result<Solved<HkSspResult>, SolveError> {
    let budget = run.round_cap(default_budget(cfg, g.n()), 0);
    let make = hk_ssp_nodes(cfg, g.n());
    let finish = |nodes: &mut dyn ExactSizeIterator<Item = &PipelinedNode>| {
        extract(g, &cfg.sources, nodes.map(Some))
    };
    let solved = match &run.recovery {
        Some(Recovery::Reliable) => {
            let late = |n: &PipelinedNode| n.stats.late_sends;
            solve_reliable(g, run, budget, "hk_ssp", rec, make, late, finish)
        }
        Some(Recovery::Chaos(chaos)) if run.runtime != Runtime::Sim => {
            solve_chaos(g, cfg, run, chaos, budget, rec, make)
        }
        _ => Ok(execute(g, run, budget, "hk_ssp", rec, make, finish)?.into()),
    }?;
    degrade_on_permanent_cuts(g, &cfg.sources, run.engine.faults.as_ref(), solved)
}

/// [`solve_hk_ssp`] as a tuple, on `rt` with `engine`. Kept for
/// `benchmark/src/layers.rs`, which changes only with the benchmark (the
/// way `dw_dynamic::RecomputeEngine` is kept); new code calls
/// [`solve_hk_ssp`].
pub fn run_hk_ssp_on_recorded(
    rt: Runtime,
    g: &WGraph,
    cfg: &SspConfig,
    engine: EngineConfig,
    rec: &mut dyn Recorder,
) -> Result<(HkSspResult, RunStats, RunOutcome), SolveError> {
    let run = Run {
        engine,
        ..Run::on(rt)
    };
    let s = solve_hk_ssp(g, cfg, &run, rec)?;
    Ok((s.result, s.stats, s.outcome))
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

/// [`solve_hk_ssp`]'s simulator arm at the default budget with no
/// recovery, which cannot fail. The span name is a call-site concern:
/// the same run is `hk_ssp` standalone but `hk_2h` inside a CSSSP
/// construction.
pub(crate) fn simulate_hk(
    g: &WGraph,
    cfg: &SspConfig,
    engine: EngineConfig,
    span: &'static str,
    rec: &mut dyn Recorder,
) -> (HkSspResult, RunStats, RunOutcome) {
    let budget = default_budget(cfg, g.n());
    let make = hk_ssp_nodes(cfg, g.n());
    simulate(g, engine, budget, span, rec, make, |nodes| {
        extract(g, &cfg.sources, nodes.map(Some))
    })
}

/// Pull per-source records out of the final node states, in id order. A
/// `None` is a node whose state was lost (a crashed worker's, in a
/// [`crate::PartialOutcome`]): its column stays unreported.
pub(crate) fn extract<'a>(
    g: &WGraph,
    sources: &[NodeId],
    nodes: impl Iterator<Item = Option<&'a PipelinedNode>>,
) -> HkSspResult {
    let n = g.n();
    let mut dist = vec![vec![INFINITY; n]; sources.len()];
    let mut hops = vec![vec![0u64; n]; sources.len()];
    let mut parent = vec![vec![None; n]; sources.len()];
    for (v, node) in nodes.enumerate() {
        let Some(node) = node else { continue };
        for (i, &s) in sources.iter().enumerate() {
            if let Some(b) = node.best_for(s) {
                dist[i][v] = b.d;
                hops[i][v] = b.l;
                parent[i][v] = (v as NodeId != s).then_some(b.parent);
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
    simulate_hk(
        g,
        &SspConfig::apsp(g.n(), delta),
        engine,
        "hk_ssp",
        &mut NullRecorder,
    )
}

/// `k`-SSP for shortest-path distances at most `delta`
/// (Theorem I.1(iii)).
pub fn k_ssp(
    g: &WGraph,
    sources: Vec<NodeId>,
    delta: Weight,
    engine: EngineConfig,
) -> (HkSspResult, RunStats, RunOutcome) {
    let cfg = SspConfig::k_ssp(g.n(), sources, delta);
    simulate_hk(g, &cfg, engine, "hk_ssp", &mut NullRecorder)
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
