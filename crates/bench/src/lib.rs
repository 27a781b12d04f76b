//! Experiment harness: regenerates every table and figure of the paper
//! as measured round counts on the CONGEST simulator.
//!
//! Experiment ids follow DESIGN.md §3:
//!
//! | id  | paper artifact |
//! |-----|----------------|
//! | E1  | Table I — exact weighted APSP comparison |
//! | E2  | Theorem I.1 round bounds |
//! | E3  | Invariant 2 / Lemma II.11 list sizes |
//! | E4  | Fig. 1 pathology + Lemma III.4 CSSSP cure |
//! | E5  | Lemma II.15 short-range dilation & congestion |
//! | E6  | Blocker set size, Algorithm 4 / Lemma III.8 |
//! | E7  | Corollary I.4 crossover regimes |
//! | E8  | Table II — (1+ε)-approximate APSP |
//! | E9  | Theorem I.2 / I.3 scaling exponents |
//! | E10 | \[12\] unweighted pipeline & zero-weight failure of weight-expansion |
//!
//! Run them all with `cargo run -p dw-bench --bin report --release`; pass
//! `--exp e3` for one experiment and `--full` for the larger sweeps.

pub mod experiments;
pub mod fit;
pub mod table;
pub mod workloads;

pub use fit::{fit_power_law, PowerFit};
pub use table::Table;
