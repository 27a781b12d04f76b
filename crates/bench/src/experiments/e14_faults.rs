//! E14 — fault injection and recovery: how gracefully do the paper's
//! pipelined schedules degrade on unreliable links?
//!
//! The paper assumes the CONGEST model's perfectly reliable synchronous
//! links. This experiment measures the price of dropping that assumption:
//! Algorithm 1 (and Algorithm 2) are run through the reliable-channel +
//! schedule-re-arm recovery stack (`dw_pipeline::recovery`) against
//! seeded fault plans, and each row reports the degradation relative to
//! the fault-free run of the same stack — extra rounds, retransmissions,
//! late (re-armed) announcements — along with exactness of the final
//! distances against Dijkstra.

use crate::experiments::ok;
use crate::table::Table;
use crate::trow;
use crate::workloads;
use dw_congest::{FaultPlan, Outage};
use dw_obs::NullRecorder;
use dw_pipeline::{solve_hk_ssp, solve_short_range, Run, SspConfig};
use dw_seqref::apsp_dijkstra;

pub fn run(full: bool) -> Vec<Table> {
    let n = if full { 32 } else { 18 };
    let wl = workloads::zero_heavy(n, 6, 14);
    let cfg = SspConfig::apsp(n, wl.delta);
    let reference = apsp_dijkstra(&wl.graph);

    // E14a: Algorithm 1 APSP under increasing drop rates plus two mixed
    // adversaries.
    let mut t = Table::new(
        "E14 / fault recovery — Algorithm 1 APSP over unreliable links",
        &[
            "plan",
            "faulted msgs",
            "rounds",
            "fault-free",
            "extra",
            "retries",
            "late sends",
            "quiet",
            "exact",
        ],
    );
    let mut plans: Vec<(String, FaultPlan)> = vec![
        ("drop 1%".into(), FaultPlan::drop_only(140, 0.01)),
        ("drop 5%".into(), FaultPlan::drop_only(141, 0.05)),
        ("drop 15%".into(), FaultPlan::drop_only(142, 0.15)),
        (
            "dup 5% + delay 5%x3".into(),
            FaultPlan::new(143).with_duplicate(0.05).with_delay(0.05, 3),
        ),
        (
            "drop 5% + outage".into(),
            FaultPlan::drop_only(144, 0.05).with_outage(Outage {
                from: 0,
                to: wl.graph.comm_neighbors(0)[0],
                start: 1,
                end: 30,
                symmetric: true,
            }),
        ),
    ];
    if full {
        plans.push(("drop 30%".into(), FaultPlan::drop_only(145, 0.3)));
    }
    for (name, plan) in plans {
        let solved = solve_hk_ssp(
            &wl.graph,
            &cfg,
            &Run::reliable(Some(plan)),
            &mut NullRecorder,
        )
        .expect("simulator run");
        let rep = solved.degradation.expect("reliable run");
        let exact = solved.result.to_matrix() == reference;
        t.row(trow![
            name,
            solved.stats.fault_events(),
            solved.stats.rounds,
            rep.base_rounds,
            rep.extra_rounds,
            rep.retries,
            rep.late_sends,
            ok(solved.outcome == dw_congest::RunOutcome::Quiet),
            ok(exact)
        ]);
    }

    // E14b: Algorithm 2 (short-range) under the same drop sweep — the
    // single-announcement protocol leans entirely on the announced-flag
    // re-arm plus retransmission.
    let mut t2 = Table::new(
        "E14b / fault recovery — short-range h-hop SSSP under drops",
        &[
            "drop",
            "h",
            "rounds",
            "fault-free",
            "extra",
            "retries",
            "late sends",
            "h-hop exact",
        ],
    );
    let h = if full { 9 } else { 6 };
    let exact_ref = dw_seqref::bellman_ford(&wl.graph, 0);
    for drop_pct in [0u32, 1, 5, 15] {
        let plan = FaultPlan::drop_only(150 + drop_pct as u64, drop_pct as f64 / 100.0);
        let run = Run::reliable(Some(plan));
        let solved = solve_short_range(&wl.graph, 0, h, wl.delta, &run, &mut NullRecorder)
            .expect("simulator run");
        let rep = solved.degradation.expect("reliable run");
        let res = solved.result;
        let mut exact = true;
        for v in wl.graph.nodes() {
            let vi = v as usize;
            if exact_ref[vi].is_reachable()
                && u64::from(exact_ref[vi].hops) <= h
                && res.dist[vi] != exact_ref[vi].dist
            {
                exact = false;
            }
        }
        t2.row(trow![
            format!("{drop_pct}%"),
            h,
            solved.stats.rounds,
            rep.base_rounds,
            rep.extra_rounds,
            rep.retries,
            rep.late_sends,
            ok(exact)
        ]);
    }

    vec![t, t2]
}
