//! Sequential reference algorithms (ground truth for every distributed
//! algorithm in the workspace).
//!
//! Everything here is centralized and straightforward: zero-weight-safe
//! Dijkstra writing the stack's one `(d, l, parent)` shortest-path tree
//! (and the local check that a row is that tree), hop-limited Bellman–Ford (the `h`-hop distances the paper's
//! `(h,k)`-SSP computes), Floyd–Warshall for small instances, and
//! validation helpers that diff distributed results against references.

pub mod apsp;
pub mod bellman_ford;
pub mod dijkstra;
pub mod floyd_warshall;
pub mod hop_limited;
pub mod matrix;
pub mod paths;
pub mod validate;

pub use apsp::{apsp_dijkstra, k_source_dijkstra, max_finite_distance};
pub use bellman_ford::bellman_ford;
pub use dijkstra::{
    dijkstra, hops_from_parents, hops_from_parents_into, hops_match, verify_row, HeapKey,
};
pub use floyd_warshall::floyd_warshall;
pub use hop_limited::{h_hop_distances, h_hop_sssp, max_finite_h_hop_distance, HopDist};
pub use matrix::DistMatrix;
pub use paths::{reconstruct_path, verify_sssp_witnesses, PathError, PathWitness};
pub use validate::{assert_matrices_equal, matrices_equal, MatrixDiff};
