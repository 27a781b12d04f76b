//! Deterministic, seeded workload generators.
//!
//! Every generator takes explicit parameters plus (where randomized) a
//! `u64` seed, and produces bit-identical graphs across runs and platforms
//! (ChaCha-based RNG). These are the workloads used by the experiment
//! harness in `dw-bench` (see DESIGN.md §3). Every generator ends in
//! [`crate::WGraph::from_edge_list`], directly or through
//! [`crate::GraphBuilder`], so a generated graph and a loaded one obey
//! the same normalisation.

mod classic;
mod fig1;
mod hard;
mod random;
mod scale;
mod structured;
mod weights;

pub use classic::{complete, grid, path, ring, star};
pub use fig1::{fig1_chain, fig1_gadget};
pub use hard::{layered_conflict, staircase, staircase_anchor};
pub use random::{gnp, gnp_connected, zero_heavy};
pub use scale::power_law;
pub use structured::{barbell, binary_tree, expanderish, torus};
pub use weights::WeightDist;
