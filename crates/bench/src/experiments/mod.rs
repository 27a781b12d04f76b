//! One module per experiment (see crate docs for the id ↔ artifact map).

pub mod e10_baselines;
pub mod e11_admission;
pub mod e12_blocker_ablation;
pub mod e13_scaling_future;
pub mod e14_faults;
pub mod e1_table1;
pub mod e2_theorem11;
pub mod e3_invariants;
pub mod e4_fig1;
pub mod e5_short_range;
pub mod e6_blocker;
pub mod e7_crossover;
pub mod e8_approx;
pub mod e9_scaling;

use crate::table::Table;
use dw_pipeline::invariants::InvariantReport;

/// Marker rendered in "within bound?" columns.
pub fn ok(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}

/// The "within bound" cell of an Algorithm 1 run measured against a
/// Theorem I.1 `bound`: "yes" when the run converged by it, else "no"
/// with the late sends and invariant violations that explain why.
///
/// Lemma II.14 bounds the round by which all shortest-path records are
/// in place (residual non-SP traffic may continue after it), and its
/// derivation uses both invariants. So the bound is asserted exactly
/// when the run was healthy: Invariants 1-2 held and no announcement
/// had to be re-armed.
pub fn within_bound(rep: &InvariantReport, bound: u64) -> String {
    let within = rep.convergence_round <= bound;
    if rep.holds() && rep.late_sends == 0 {
        assert!(within, "healthy run ⇒ Theorem I.1 bound must hold");
    }
    if within {
        "yes".into()
    } else {
        format!(
            "no (late={}, inv viol.={})",
            rep.late_sends,
            rep.inv1_violations + rep.inv2_violations
        )
    }
}

/// All experiment ids in order.
pub const ALL: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
];

/// Dispatch one experiment by id. `full` selects the larger sweeps.
pub fn run(id: &str, full: bool) -> Vec<Table> {
    match id {
        "e1" => e1_table1::run(full),
        "e2" => e2_theorem11::run(full),
        "e3" => e3_invariants::run(full),
        "e4" => e4_fig1::run(full),
        "e5" => e5_short_range::run(full),
        "e6" => e6_blocker::run(full),
        "e7" => e7_crossover::run(full),
        "e8" => e8_approx::run(full),
        "e9" => e9_scaling::run(full),
        "e10" => e10_baselines::run(full),
        "e11" => e11_admission::run(full),
        "e12" => e12_blocker_ablation::run(full),
        "e13" => e13_scaling_future::run(full),
        "e14" => e14_faults::run(full),
        other => panic!("unknown experiment id {other:?} (known: {ALL:?})"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_rejected() {
        let _ = super::run("e99", false);
    }

    #[test]
    fn ok_marker() {
        assert_eq!(super::ok(true), "yes");
        assert_eq!(super::ok(false), "NO");
    }
}
