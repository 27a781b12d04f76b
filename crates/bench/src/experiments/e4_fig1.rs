//! E4 — Fig. 1: h-hop parent pointers can chain far beyond `h`; the
//! CSSSP construction (Lemma III.4) restores height `<= h` and full
//! cross-tree consistency.

use crate::experiments::ok;
use crate::table::Table;
use crate::trow;
use dw_congest::EngineConfig;
use dw_graph::gen;
use dw_obs::NullRecorder;
use dw_pipeline::csssp::{check_consistency, parent_chain_hops};
use dw_pipeline::{build_csssp, solve_hk_ssp, Run, SspConfig};

pub fn run(full: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E4 / Fig. 1 — naive h-hop parent chains vs CSSSP (2h trick)",
        &[
            "gadget",
            "h",
            "naive max chain",
            "exceeds h",
            "CSSSP height",
            "<= h",
            "consistent",
        ],
    );
    let copies_list: &[usize] = if full { &[1, 2, 4, 8] } else { &[1, 2, 4] };
    let h = 4u64;
    for &copies in copies_list {
        let (g, nds) = gen::fig1_chain(h as usize, copies, 7, true);
        let s = nds[0].s;
        let delta_h = dw_seqref::max_finite_h_hop_distance(&g, h as usize).max(1);
        let cfg = SspConfig::new(vec![s], h, delta_h);
        let raw = solve_hk_ssp(&g, &cfg, &Run::default(), &mut NullRecorder)
            .expect("simulator run")
            .result;
        let naive_max = g
            .nodes()
            .filter_map(|v| parent_chain_hops(&raw, 0, v))
            .max()
            .unwrap_or(0);

        let delta2h = dw_seqref::max_finite_h_hop_distance(&g, 2 * h as usize).max(1);
        let (c, _) = build_csssp(&g, &[s], h, delta2h, EngineConfig::default());
        let consistent = check_consistency(&g, &c).is_ok();
        t.row(trow![
            format!("fig1_chain(h={h}, copies={copies}, n={})", g.n()),
            h,
            naive_max,
            ok(naive_max > h),
            c.height(0),
            ok(c.height(0) <= h),
            ok(consistent)
        ]);
    }

    // also: CSSSP consistency on random zero-heavy graphs, all sources
    // Cross-tree consistency is Definition III.3's strongest clause; the
    // 2h construction attains it except in rare hop-boundary cases
    // involving nodes whose true shortest paths need more than 2h hops
    // (reproduction finding; the blocker pipeline is robust to these).
    let mut t2 = Table::new(
        "E4b — CSSSP cross-tree consistency rate vs hop slack (ablation; paper uses slack 2)",
        &["slack", "consistent instances", "avg step-1 rounds"],
    );
    let n = if full { 20 } else { 14 };
    let seeds = if full { 12u64 } else { 8 };
    for slack in [2u64, 3, 4, n as u64] {
        let mut good = 0usize;
        let mut rounds = 0u64;
        for seed in 0..seeds {
            let g = gen::zero_heavy(n, 0.18, 0.5, 5, true, seed);
            let h = 4u64;
            let delta = dw_seqref::max_finite_h_hop_distance(&g, (slack * h) as usize).max(1);
            let sources: Vec<u32> = (0..g.n() as u32).collect();
            let (c, st) = dw_pipeline::build_csssp_with_slack(
                &g,
                &sources,
                h,
                slack,
                delta,
                EngineConfig::default(),
            );
            if check_consistency(&g, &c).is_ok() {
                good += 1;
            }
            rounds += st.rounds;
        }
        t2.row(trow![slack, format!("{good}/{seeds}"), rounds / seeds]);
    }
    vec![t, t2]
}

#[cfg(test)]
mod tests {
    #[test]
    fn pathology_shown_and_cured() {
        let tables = super::run(false);
        // the Fig. 1 table must be all-good; E4b reports measured
        // cross-tree consistency (hop-boundary cases can fail it — a
        // reproduction finding discussed in EXPERIMENTS.md)
        let r = tables[0].render();
        assert!(!r.contains("NO"), "{r}");
        assert!(tables[1].n_rows() >= 3);
    }
}
