//! Reliable links: run Algorithm 1 / Algorithm 2 over **faulty links**
//! and still converge to correct h-hop distances — the
//! [`crate::Recovery::Reliable`] arm of both solve calls, on any runtime.
//!
//! The fault model lives in the engine ([`dw_congest::FaultPlan`]: seeded
//! drops, duplicates, delays and link outages), and the transports make
//! the same fault decisions. This module composes two mechanisms on top
//! of it:
//!
//! 1. **Reliable links** — every node program is wrapped in
//!    [`dw_congest::Reliable`], the per-link sequence/ack/retransmit layer.
//!    Dropped frames are retransmitted after
//!    [`dw_congest::reliable::RETRY_AFTER`] rounds,
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

use crate::runtime::{execute, Run, SolveError, Solved};
use dw_congest::{
    EngineConfig, NullRecorder, Protocol, Recorder, Reliable, ReliableStats, Round, WireCodec,
};
use dw_graph::{NodeId, WGraph};

/// Round-budget multiplier of a reliable run over the fault-free driver
/// budget. Retries and ack round-trips stretch the schedule, so recovered
/// runs get `BUDGET_FACTOR ×` the theorem-derived cap (plus slack) before
/// the engine gives up.
pub const BUDGET_FACTOR: u64 = 6;

/// How much a faulty run degraded relative to the fault-free baseline of
/// the same reliable stack. The run's own rounds, fault accounting and
/// outcome (`Quiet` = ack-drained termination) are the [`Solved`]'s
/// `stats` and `outcome`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationReport {
    /// Rounds the identical stack takes with faults disabled.
    pub base_rounds: u64,
    /// `stats.rounds - base_rounds`, floored at 0 (dropped residual
    /// non-SP traffic can occasionally *shorten* a run).
    pub extra_rounds: u64,
    /// Announcements sent past their scheduled round (protocol-level
    /// re-arms; 0 in fault-free runs).
    pub late_sends: u64,
    /// Aggregated reliable-channel metrics of the faulty run
    /// (`reliable.retries` counts the data-frame retransmissions).
    pub reliable: ReliableStats,
}

/// The [`crate::Recovery::Reliable`] arm of both solve calls: wrap every node
/// `make` builds in [`dw_congest::Reliable`], run once with
/// `run.engine`'s faults and, when there are any, once more without them
/// for the report's `base_rounds` (with faults disabled the run *is* its
/// own baseline, `extra_rounds = 0`). `late_sends` reads one node's
/// re-armed announcements.
#[allow(clippy::too_many_arguments)] // `execute`'s arguments plus the re-arm count
pub(crate) fn solve_reliable<P, R>(
    g: &WGraph,
    run: &Run,
    budget: Round,
    span: &'static str,
    rec: &mut dyn Recorder,
    make: impl Fn(NodeId) -> P,
    late_sends: impl Fn(&P) -> u64,
    finish: impl FnOnce(&mut dyn ExactSizeIterator<Item = &P>) -> R,
) -> Result<Solved<R>, SolveError>
where
    P: Protocol,
    P::Msg: WireCodec,
{
    let wrapped = |v: NodeId| Reliable::new(make(v));
    let mut reliable = ReliableStats::default();
    let mut late = 0;
    let (result, stats, outcome) = execute(g, run, budget, span, rec, &wrapped, |nodes| {
        let inner: Vec<&P> = nodes
            .map(|r| {
                reliable = reliable.merge(r.stats());
                late += late_sends(r.inner());
                r.inner()
            })
            .collect();
        finish(&mut inner.into_iter())
    })?;
    let base_rounds = match &run.engine.faults {
        None => stats.rounds,
        Some(_) => {
            let engine = EngineConfig {
                faults: None,
                ..run.engine.clone()
            };
            let clean = Run {
                engine,
                ..Run::on(run.runtime)
            };
            let rec = &mut NullRecorder;
            execute(g, &clean, budget, span, rec, &wrapped, |_| ())?
                .1
                .rounds
        }
    };
    let degradation = Some(DegradationReport {
        base_rounds,
        extra_rounds: stats.rounds.saturating_sub(base_rounds),
        late_sends: late,
        reliable,
    });
    Ok(Solved {
        result,
        stats,
        outcome,
        degradation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SspConfig;
    use crate::result::HkSspResult;
    use crate::short_range::ShortRangeResult;
    use crate::{solve_hk_ssp, solve_short_range};
    use dw_congest::{FaultPlan, RunOutcome};
    use dw_graph::gen::{self, WeightDist};
    use dw_graph::INFINITY;
    use dw_seqref::{apsp_dijkstra, assert_matrices_equal, max_finite_distance};

    fn hk(g: &WGraph, cfg: &SspConfig, run: &Run) -> (Solved<HkSspResult>, DegradationReport) {
        let s = solve_hk_ssp(g, cfg, run, &mut NullRecorder).unwrap();
        let rep = s.degradation.clone().unwrap();
        (s, rep)
    }

    fn sr(
        g: &WGraph,
        x: NodeId,
        h: u64,
        run: &Run,
    ) -> (Solved<ShortRangeResult>, DegradationReport) {
        let delta = max_finite_distance(g).max(1);
        let s = solve_short_range(g, x, h, delta, run, &mut NullRecorder).unwrap();
        let rep = s.degradation.clone().unwrap();
        (s, rep)
    }

    #[test]
    fn fault_free_reliable_apsp_matches_dijkstra_with_zero_degradation() {
        let g = gen::gnp_connected(12, 0.25, false, WeightDist::Uniform { max: 6 }, 5);
        let delta = max_finite_distance(&g);
        let cfg = SspConfig::apsp(g.n(), delta);
        let (res, rep) = hk(&g, &cfg, &Run::reliable(None));
        assert_matrices_equal(&apsp_dijkstra(&g), &res.result.to_matrix(), "reliable apsp");
        assert_eq!(res.outcome, RunOutcome::Quiet);
        assert_eq!(rep.extra_rounds, 0);
        assert_eq!(rep.reliable.retries, 0);
        assert_eq!(rep.late_sends, 0);
        assert_eq!(rep.reliable.dups_suppressed, 0);
    }

    #[test]
    fn hk_ssp_survives_five_percent_drops() {
        let g = gen::zero_heavy(14, 0.2, 0.4, 5, false, 11);
        let delta = max_finite_distance(&g);
        let cfg = SspConfig::apsp(g.n(), delta);
        let (res, rep) = hk(
            &g,
            &cfg,
            &Run::reliable(Some(FaultPlan::drop_only(0xFA_17, 0.05))),
        );
        assert_matrices_equal(&apsp_dijkstra(&g), &res.result.to_matrix(), "5% drop apsp");
        assert_eq!(res.outcome, RunOutcome::Quiet);
        assert!(res.stats.dropped > 0, "plan should actually drop frames");
        assert!(
            rep.reliable.retries > 0,
            "drops must be recovered by retransmission"
        );
    }

    #[test]
    fn short_range_survives_drops_dups_and_delays() {
        let g = gen::zero_heavy(16, 0.18, 0.5, 4, true, 23);
        let h = 8u64;
        let plan = FaultPlan::new(99)
            .with_drop(0.08)
            .with_duplicate(0.05)
            .with_delay(0.05, 3);
        let (solved, _) = sr(&g, 0, h, &Run::reliable(Some(plan)));
        assert_eq!(solved.outcome, RunOutcome::Quiet);
        let res = solved.result;
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
        let plain = solve_short_range(&g, 2, h, delta, &Run::default(), &mut NullRecorder)
            .unwrap()
            .result;
        let (rel, rep) = sr(&g, 2, h, &Run::reliable(None));
        assert_eq!(plain.dist, rel.result.dist);
        assert_eq!(plain.hops, rel.result.hops);
        assert_eq!(rep.extra_rounds, 0);
        assert_eq!(rep.reliable.retries, 0);
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
        let (res, rep) = hk(&g, &cfg, &Run::reliable(Some(plan)));
        assert_matrices_equal(&apsp_dijkstra(&g), &res.result.to_matrix(), "outage apsp");
        assert_eq!(res.outcome, RunOutcome::Quiet);
        assert!(res.stats.outage_dropped > 0);
        assert!(rep.extra_rounds > 0, "the outage must cost rounds");
    }
}
