//! Recovery drivers: run Algorithm 1 / Algorithm 2 over **faulty links**
//! and still converge to correct h-hop distances.
//!
//! The fault model lives in the engine ([`dw_congest::FaultPlan`]: seeded
//! drops, duplicates, delays and link outages). This module composes two
//! mechanisms on top of it:
//!
//! 1. **Reliable links** — every node program is wrapped in
//!    [`dw_congest::Reliable`], the per-link sequence/ack/retransmit layer.
//!    Dropped frames are retransmitted after `retry_after` rounds,
//!    duplicates are suppressed, and delayed frames are re-ordered back
//!    into per-link FIFO order, so the wrapped protocol observes a lossless
//!    (if slower) network. Termination is acknowledgment-based: the run is
//!    quiet only once every data frame has been cumulatively acked
//!    (`Reliable::earliest_send` keeps the engine awake while anything is
//!    in flight).
//! 2. **Schedule re-arm** — delivery through the reliable layer can lag
//!    the sender's round, so an entry can arrive with its announcement
//!    round `⌈κ⌉ + pos` already in the past. Algorithm 1's
//!    `NodeList::find_send` and Algorithm 2's announced-flag both use a
//!    `<= r` test, announcing such entries immediately (counted as
//!    `late_sends`). In fault-free runs the paper's Invariant 1 /
//!    Lemma II.15 guarantee schedules are always in the future, so the
//!    re-arm path never fires and runs are byte-identical with the layer
//!    disabled.
//!
//! Under this composition the pipelined schedule degrades gracefully: the
//! theorem round bounds no longer hold verbatim, but correctness does —
//! each [`DegradationReport`] quantifies the price (extra rounds, retries,
//! late announcements) relative to a fault-free baseline of the same
//! stack.

use crate::config::SspConfig;
use crate::driver::{default_budget, extract};
use crate::key::Gamma;
use crate::node::PipelinedNode;
use crate::result::HkSspResult;
use crate::runtime::hk_ssp_nodes;
use crate::short_range::{extract_instance, short_range_gamma, ShortRangeNode, ShortRangeResult};
use dw_congest::{
    EngineConfig, Network, Reliable, ReliableConfig, ReliableStats, RunOutcome, RunStats,
};
use dw_graph::{NodeId, WGraph, Weight};

/// Knobs for a recovered run.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Retransmission policy of the per-link reliable channel.
    pub reliable: ReliableConfig,
    /// Round-budget multiplier over the fault-free driver budget. Retries
    /// and ack round-trips stretch the schedule, so recovered runs get
    /// `budget_factor ×` the theorem-derived cap (plus slack) before the
    /// engine gives up.
    pub budget_factor: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            reliable: ReliableConfig::default(),
            budget_factor: 6,
        }
    }
}

/// How much a faulty run degraded relative to the fault-free baseline of
/// the same reliable stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationReport {
    /// Rounds of the (possibly faulty) run.
    pub rounds: u64,
    /// Rounds the identical stack takes with faults disabled.
    pub base_rounds: u64,
    /// `rounds - base_rounds`, floored at 0 (dropped residual non-SP
    /// traffic can occasionally *shorten* a run).
    pub extra_rounds: u64,
    /// Data-frame retransmissions across all links.
    pub retries: u64,
    /// Announcements sent past their scheduled round (protocol-level
    /// re-arms; 0 in fault-free runs).
    pub late_sends: u64,
    /// How the run ended (`Quiet` = ack-drained termination).
    pub outcome: RunOutcome,
    /// Engine metrics of the faulty run (includes fault accounting).
    pub stats: RunStats,
    /// Aggregated reliable-channel metrics of the faulty run.
    pub reliable: ReliableStats,
}

fn degradation(
    rounds: u64,
    base_rounds: u64,
    late_sends: u64,
    outcome: RunOutcome,
    stats: RunStats,
    reliable: ReliableStats,
) -> DegradationReport {
    DegradationReport {
        rounds,
        base_rounds,
        extra_rounds: rounds.saturating_sub(base_rounds),
        retries: reliable.retries,
        late_sends,
        outcome,
        stats,
        reliable,
    }
}

fn reliable_hk_run(
    g: &WGraph,
    cfg: &SspConfig,
    gamma: Gamma,
    budget: u64,
    engine: EngineConfig,
    rc: &RecoveryConfig,
) -> (HkSspResult, RunStats, RunOutcome, ReliableStats, u64) {
    let make = hk_ssp_nodes(cfg, gamma, g.n());
    let mut net = Network::new(g, engine, |v| Reliable::new(make(v), rc.reliable));
    let outcome = net.run(budget);
    let stats = net.stats();
    let mut rstats = ReliableStats::default();
    let nodes: Vec<PipelinedNode> = net
        .into_nodes()
        .into_iter()
        .map(|r| {
            rstats = rstats.merge(r.stats());
            r.into_inner()
        })
        .collect();
    let late = nodes.iter().map(|nd| nd.stats.late_sends).sum();
    let result = extract(g, &cfg.sources, nodes.iter());
    (result, stats, outcome, rstats, late)
}

/// Algorithm 1 `(h,k)`-SSP over reliable links, tolerant of the faults in
/// `engine.faults`.
///
/// When faults are enabled, a second fault-free run of the same stack
/// establishes the `base_rounds` baseline for the report; with faults
/// disabled the run *is* its own baseline (`extra_rounds = 0`).
pub fn run_hk_ssp_reliable(
    g: &WGraph,
    cfg: &SspConfig,
    engine: EngineConfig,
    rc: &RecoveryConfig,
) -> (HkSspResult, DegradationReport) {
    let gamma = Gamma::new(cfg.k(), cfg.h, cfg.delta);
    let budget = default_budget(cfg, g.n()).saturating_mul(rc.budget_factor.max(1));
    let (result, stats, outcome, rstats, late) =
        reliable_hk_run(g, cfg, gamma, budget, engine.clone(), rc);
    let base_rounds = if engine.faults.is_some() {
        let mut clean = engine;
        clean.faults = None;
        reliable_hk_run(g, cfg, gamma, budget, clean, rc).1.rounds
    } else {
        stats.rounds
    };
    let report = degradation(stats.rounds, base_rounds, late, outcome, stats, rstats);
    (result, report)
}

fn reliable_sr_run(
    g: &WGraph,
    x: NodeId,
    init: &[Option<Weight>],
    h: u64,
    budget: u64,
    engine: EngineConfig,
    rc: &RecoveryConfig,
) -> (ShortRangeResult, RunStats, RunOutcome, ReliableStats) {
    let gamma = short_range_gamma(h);
    let mut net = Network::new(g, engine, |v| {
        Reliable::new(ShortRangeNode::new(gamma, h, init[v as usize]), rc.reliable)
    });
    let outcome = net.run(budget);
    let stats = net.stats();
    let mut rstats = ReliableStats::default();
    let nodes: Vec<ShortRangeNode> = net
        .into_nodes()
        .into_iter()
        .map(|r| {
            rstats = rstats.merge(r.stats());
            r.into_inner()
        })
        .collect();
    (extract_instance(x, &nodes), stats, outcome, rstats)
}

/// Algorithm 2 h-hop SSSP from `x` over reliable links (the recovered
/// counterpart of [`crate::short_range::short_range_sssp`]).
pub fn short_range_sssp_reliable(
    g: &WGraph,
    x: NodeId,
    h: u64,
    delta: Weight,
    engine: EngineConfig,
    rc: &RecoveryConfig,
) -> (ShortRangeResult, DegradationReport) {
    assert!(g.n() > 0);
    let init: Vec<Option<Weight>> = (0..g.n())
        .map(|v| (v as NodeId == x).then_some(0))
        .collect();
    let gamma = short_range_gamma(h);
    let budget = (gamma.ceil_kappa(delta.max(1), h) + 2)
        .saturating_mul(rc.budget_factor.max(1))
        .saturating_add(64);
    let (result, stats, outcome, rstats) =
        reliable_sr_run(g, x, &init, h, budget, engine.clone(), rc);
    let base_rounds = if engine.faults.is_some() {
        let mut clean = engine;
        clean.faults = None;
        reliable_sr_run(g, x, &init, h, budget, clean, rc).1.rounds
    } else {
        stats.rounds
    };
    let late = result.late_sends.iter().sum();
    let report = degradation(stats.rounds, base_rounds, late, outcome, stats, rstats);
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_congest::FaultPlan;
    use dw_graph::gen::{self, WeightDist};
    use dw_graph::INFINITY;
    use dw_seqref::{apsp_dijkstra, assert_matrices_equal, max_finite_distance};

    fn faulty_engine(plan: FaultPlan) -> EngineConfig {
        EngineConfig {
            faults: Some(plan),
            ..EngineConfig::default()
        }
    }

    #[test]
    fn fault_free_reliable_apsp_matches_dijkstra_with_zero_degradation() {
        let g = gen::gnp_connected(12, 0.25, false, WeightDist::Uniform { max: 6 }, 5);
        let delta = max_finite_distance(&g);
        let cfg = SspConfig::apsp(g.n(), delta);
        let (res, rep) = run_hk_ssp_reliable(
            &g,
            &cfg,
            EngineConfig::default(),
            &RecoveryConfig::default(),
        );
        assert_matrices_equal(&apsp_dijkstra(&g), &res.to_matrix(), "reliable apsp");
        assert_eq!(rep.outcome, RunOutcome::Quiet);
        assert_eq!(rep.extra_rounds, 0);
        assert_eq!(rep.retries, 0);
        assert_eq!(rep.late_sends, 0);
        assert_eq!(rep.reliable.dups_suppressed, 0);
    }

    #[test]
    fn hk_ssp_survives_five_percent_drops() {
        let g = gen::zero_heavy(14, 0.2, 0.4, 5, false, 11);
        let delta = max_finite_distance(&g);
        let cfg = SspConfig::apsp(g.n(), delta);
        let (res, rep) = run_hk_ssp_reliable(
            &g,
            &cfg,
            faulty_engine(FaultPlan::drop_only(0xFA_17, 0.05)),
            &RecoveryConfig::default(),
        );
        assert_matrices_equal(&apsp_dijkstra(&g), &res.to_matrix(), "5% drop apsp");
        assert_eq!(rep.outcome, RunOutcome::Quiet);
        assert!(rep.stats.dropped > 0, "plan should actually drop frames");
        assert!(rep.retries > 0, "drops must be recovered by retransmission");
    }

    #[test]
    fn short_range_survives_drops_dups_and_delays() {
        let g = gen::zero_heavy(16, 0.18, 0.5, 4, true, 23);
        let delta = max_finite_distance(&g).max(1);
        let h = 8u64;
        let plan = FaultPlan::new(99)
            .with_drop(0.08)
            .with_duplicate(0.05)
            .with_delay(0.05, 3);
        let (res, rep) = short_range_sssp_reliable(
            &g,
            0,
            h,
            delta,
            faulty_engine(plan),
            &RecoveryConfig::default(),
        );
        assert_eq!(rep.outcome, RunOutcome::Quiet);
        let exact = dw_seqref::bellman_ford(&g, 0);
        for v in g.nodes() {
            let vi = v as usize;
            if exact[vi].is_reachable() && u64::from(exact[vi].hops) <= h {
                assert_eq!(res.dist[vi], exact[vi].dist, "0 -> {v} under faults");
            } else if res.dist[vi] != INFINITY {
                assert!(res.dist[vi] >= exact[vi].dist, "no underestimates");
            }
        }
    }

    #[test]
    fn short_range_fault_free_reliable_matches_plain_distances() {
        let g = gen::gnp_connected(10, 0.3, false, WeightDist::Uniform { max: 5 }, 3);
        let delta = max_finite_distance(&g).max(1);
        let h = 6u64;
        let (plain, _) =
            crate::short_range::short_range_sssp(&g, 2, h, delta, EngineConfig::default());
        let (rel, rep) = short_range_sssp_reliable(
            &g,
            2,
            h,
            delta,
            EngineConfig::default(),
            &RecoveryConfig::default(),
        );
        assert_eq!(plain.dist, rel.dist);
        assert_eq!(plain.hops, rel.hops);
        assert_eq!(rep.extra_rounds, 0);
        assert_eq!(rep.retries, 0);
        assert_eq!(rep.late_sends, 0);
    }

    #[test]
    fn transient_outage_heals_and_converges() {
        use dw_congest::Outage;
        let g = gen::path(8, false, WeightDist::Constant(1), 0);
        let delta = max_finite_distance(&g);
        let cfg = SspConfig::apsp(g.n(), delta);
        // Sever the middle link (both directions) for rounds 1..=40 —
        // past the fault-free convergence round, so the retransmissions
        // that heal it must visibly extend the run. (A short outage is
        // absorbed into the pipeline's schedule slack without costing
        // any rounds at all.)
        let plan = FaultPlan::new(7).with_outage(Outage {
            from: 3,
            to: 4,
            start: 1,
            end: 40,
            symmetric: true,
        });
        let (res, rep) =
            run_hk_ssp_reliable(&g, &cfg, faulty_engine(plan), &RecoveryConfig::default());
        assert_matrices_equal(&apsp_dijkstra(&g), &res.to_matrix(), "outage apsp");
        assert_eq!(rep.outcome, RunOutcome::Quiet);
        assert!(rep.stats.outage_dropped > 0);
        assert!(rep.extra_rounds > 0, "the outage must cost rounds");
    }
}
