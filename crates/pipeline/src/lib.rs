//! The paper's primary contribution: the **pipelined `(h,k)`-SSP
//! algorithm** (Algorithm 1), its single-source streamlining (Algorithm 2,
//! the short-range algorithm), and consistent h-hop tree (CSSSP)
//! construction (Section III-A).
//!
//! # Algorithm 1 in one paragraph
//!
//! Every node `v` keeps a list of *entries* `Z = (κ, d, l, x)`: a path from
//! source `x` to `v` of weighted distance `d` and hop length `l`, keyed by
//! `κ = d·γ + l` with `γ = sqrt(kh/Δ)`. The list is sorted by `(κ, d, x)`.
//! In round `r` node `v` sends the (unique) entry with
//! `⌈κ⌉ + pos(Z) = r` to all neighbors. On receiving an entry, `v` extends
//! it by the connecting edge; if it improves the current shortest
//! `(d, l, parent-id)` for that source it is flagged SP and inserted;
//! otherwise it is inserted only if fewer than `Z⁻.ν` entries for that
//! source with smaller key are already present (`Z⁻.ν` = the sender-side
//! count, shipped in the message). Every insert evicts the closest non-SP
//! entry for the same source above the insertion point. The two invariants
//! (Invariant 1: an entry added in round `r` has `r < ⌈κ⌉ + pos`;
//! Invariant 2: at most `sqrt(Δh/k) + 1` entries per source) give the
//! `2·sqrt(Δhk) + k + h` round bound of Theorem I.1.
//!
//! Keys are irrational; this crate compares and ceils them **exactly** with
//! integer arithmetic (see [`key`]), so executions are bit-deterministic.

pub mod bound;
pub mod config;
pub mod csssp;
pub mod driver;
pub mod entry;
pub mod incremental;
pub mod invariants;
pub mod key;
pub mod list;
pub mod node;
pub mod recovery;
pub mod result;
pub mod runtime;
pub mod scaling;
pub mod short_range;

pub use bound::{apsp_round_bound, hk_round_bound, per_source_list_bound_holds, total_list_bound};
pub use config::{AdmissionRule, SspConfig};
pub use csssp::{build_csssp, build_csssp_with_slack, Csssp};
pub use driver::{apsp, apsp_auto, default_budget, k_ssp, run_hk_ssp_on_recorded, solve_hk_ssp};
pub use incremental::{recompute_incremental, IncrementalOutcome, RowRepair};
pub use key::Gamma;
pub use recovery::DegradationReport;
pub use result::HkSspResult;
pub use runtime::{
    hk_ssp_node, hk_ssp_nodes, ChaosConfig, PartialOutcome, Recovery, Run, Runtime, SolveError,
    Solved,
};
pub use scaling::{scaling_apsp, ScalingOutcome};
pub use short_range::{solve_short_range, ShortRangeResult};
