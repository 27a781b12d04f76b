//! E5 — Lemma II.15: the short-range algorithm's dilation
//! (`⌈Δ√h⌉ + h` rounds) and per-node congestion (`√h + 1` sends), plus
//! the Ghaffari-style scheduled composition of all-source instances.

use crate::experiments::ok;
use crate::table::Table;
use crate::trow;
use crate::workloads;
use dw_congest::scheduler::schedule_instances;
use dw_congest::EngineConfig;
use dw_graph::NodeId;
use dw_obs::NullRecorder;
use dw_pipeline::short_range::{
    extract_instance, short_range_budget, short_range_instances, solve_short_range,
};
use dw_pipeline::Run;

pub fn run(full: bool) -> Vec<Table> {
    let n = if full { 48 } else { 30 };
    // sparse positive weights: real distance spread, so the √h schedule
    // actually spaces announcements and nodes re-send on improvements
    let wl = workloads::sparse_positive(n, 9, 13);
    let mut t = Table::new(
        "E5 / Lemma II.15 — short-range dilation and per-node congestion",
        &[
            "h",
            "rounds",
            "dilation bound ⌈Δ√h⌉+h+2",
            "within",
            "max sends/node",
            "bound √h+1",
            "within ",
        ],
    );
    let hs: &[u64] = if full {
        &[4, 9, 16, 25, 36]
    } else {
        &[4, 9, 16]
    };
    for &h in hs {
        let run = Run::default();
        let solved = solve_short_range(&wl.graph, 0, h, wl.delta, &run, &mut NullRecorder)
            .expect("simulator run");
        let (res, st) = (solved.result, solved.stats);
        let dil_bound = short_range_budget(h, wl.delta);
        let send_bound = (h as f64).sqrt() as u64 + 1;
        let max_sends = res.sends.iter().copied().max().unwrap_or(0);
        t.row(trow![
            h,
            st.rounds,
            dil_bound,
            ok(st.rounds <= dil_bound),
            max_sends,
            send_bound,
            ok(max_sends <= send_bound)
        ]);
    }

    // Scheduled all-source composition (the role of Ghaffari's framework).
    let mut t2 = Table::new(
        "E5b — random-delay scheduling of k short-range instances (γ = √(hk/Δ))",
        &[
            "k",
            "h",
            "offset window",
            "global rounds",
            "total stalls",
            "messages",
            "all correct",
        ],
    );
    let h = 6u64;
    let ks: &[usize] = if full { &[4, 8, 16, n] } else { &[4, 8, n] };
    for &k in ks {
        let sources: Vec<NodeId> = (0..k as NodeId).collect();
        let instances = short_range_instances(&wl.graph, &sources, h, wl.delta);
        let window = (k as u64) * 2;
        let (done, st) = schedule_instances(
            &wl.graph,
            instances,
            &EngineConfig::default(),
            42,
            window,
            1_000_000,
        );
        let mut correct = true;
        for (i, nodes) in done.iter().enumerate() {
            let res = extract_instance(sources[i], nodes);
            let exact = dw_seqref::bellman_ford(&wl.graph, sources[i]);
            for v in wl.graph.nodes() {
                let vi = v as usize;
                if exact[vi].is_reachable()
                    && u64::from(exact[vi].hops) <= h
                    && res.dist[vi] != exact[vi].dist
                {
                    correct = false;
                }
            }
        }
        t2.row(trow![
            k,
            h,
            window,
            st.global_rounds,
            st.stalls.iter().sum::<u64>(),
            st.messages,
            ok(correct)
        ]);
    }
    vec![t, t2]
}

#[cfg(test)]
mod tests {
    #[test]
    fn bounds_hold() {
        let tables = super::run(false);
        for t in &tables {
            let r = t.render();
            assert!(!r.contains("NO"), "{r}");
        }
    }
}
