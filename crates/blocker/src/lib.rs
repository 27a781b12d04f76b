//! The blocker-set machinery of Section III and the overall **Algorithm 3**
//! (k-SSP / APSP via CSSSP + blocker set).
//!
//! A *blocker set* `Q` for a collection of rooted h-hop trees is a set of
//! vertices hitting every root-to-leaf path of length `h`
//! (Definition III.1). Algorithm 3 computes k-SSP as:
//!
//! 1. build an h-hop CSSSP collection (consistent trees, `dw-pipeline`);
//! 2. greedily pick blocker nodes by maximum *score* (= number of
//!    uncovered depth-h leaves in the node's subtrees), maintaining scores
//!    distributedly: pipelined initial score aggregation, pipelined
//!    ancestor updates, and the pipelined descendant zeroing of
//!    **Algorithm 4** (Lemma III.8: `k + h - 1` rounds);
//! 3. compute an exact SSSP tree from every blocker (Bellman–Ford);
//! 4. broadcast each blocker's h-hop distances from the `k` sources;
//! 5. combine locally: `δ(x,v) = min(δ_h(x,v), min_c δ_h(x,c) + δ(c,v))`.
//!
//! Every phase is a real protocol on the CONGEST engine; the returned
//! statistics compose the phases' rounds (experiments E6/E7/E9).

pub mod alg3;
pub mod greedy;
pub mod knowledge;
pub mod random;
pub mod scores;
pub mod update;

pub use alg3::{alg3_apsp, alg3_k_ssp, Alg3Outcome};
pub use greedy::{find_blocker_set, verify_blocker_coverage, BlockerOutcome};
pub use knowledge::TreeKnowledge;
pub use random::{random_blocker_set, RandomBlockerOutcome};
pub use scores::compute_initial_scores;
