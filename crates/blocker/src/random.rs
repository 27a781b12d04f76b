//! Randomized blocker-set baseline: uniform sampling.
//!
//! The classical alternative to the greedy algorithm (mentioned alongside
//! the blocker technique in \[3\], \[14\]): sample each node independently
//! with probability `p = min(1, c·ln(N+1)/(h+1))` where `N = n·k` bounds
//! the number of h-length root-to-leaf paths. Each such path has `h+1`
//! nodes, so it is left uncovered with probability
//! `(1-p)^{h+1} <= e^{-c·ln(N+1)} = (N+1)^{-c}`; a union bound over at
//! most `N` paths makes full coverage hold w.h.p. for `c > 1`.
//!
//! Sampling is entirely local (zero communication rounds!). The price is
//! the **size**: `E[|Q|] = p·n ≈ (c·n·ln N)/h` versus greedy's
//! instance-adaptive set, which can be far smaller (experiment E12). A
//! larger `Q` is paid downstream: Algorithm 3's Steps 3–4 cost
//! `O(n)` rounds *per blocker*.
//!
//! If a sample misses some path, the driver doubles `c` and retries
//! (coverage is verified centrally here; distributedly it is an
//! `O(k + h)`-round check along the trees).

use crate::greedy::verify_blocker_coverage;
use crate::knowledge::TreeKnowledge;
use dw_graph::NodeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Outcome of the sampling baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomBlockerOutcome {
    pub blockers: Vec<NodeId>,
    /// The constant `c` that first achieved coverage.
    pub c_used: f64,
    /// Sampling attempts (retries double `c`).
    pub attempts: u32,
    /// Sampling probability of the successful attempt.
    pub p: f64,
}

/// Sample a blocker set for the collection in `knowledge`.
pub fn random_blocker_set(knowledge: &TreeKnowledge, seed: u64) -> RandomBlockerOutcome {
    let n = knowledge.n();
    let k = knowledge.k();
    let h = knowledge.h;
    let big_n = (n * k) as f64;
    let mut c = 1.5f64;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut attempts = 0;
    loop {
        attempts += 1;
        let p = (c * (big_n + 1.0).ln() / (h as f64 + 1.0)).min(1.0);
        let blockers: Vec<NodeId> = (0..n as NodeId).filter(|_| rng.gen_bool(p)).collect();
        if verify_blocker_coverage(knowledge, &blockers).is_ok() {
            return RandomBlockerOutcome {
                blockers,
                c_used: c,
                attempts,
                p,
            };
        }
        c *= 2.0;
        assert!(c < 1e6, "sampling cannot cover: malformed tree collection");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::fixture;
    use dw_congest::{EngineConfig, NullRecorder};

    #[test]
    fn sampled_set_covers() {
        let (_, know) = fixture(18, 3, 5, 4);
        let out = random_blocker_set(&know, 99);
        verify_blocker_coverage(&know, &out.blockers).unwrap();
        assert!(out.p > 0.0 && out.p <= 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (_, know) = fixture(14, 2, 5, 7);
        assert_eq!(random_blocker_set(&know, 3), random_blocker_set(&know, 3));
    }

    #[test]
    fn usually_larger_than_greedy() {
        let (g, know) = fixture(20, 3, 5, 11);
        let greedy =
            crate::greedy::find_blocker_set(&g, &know, EngineConfig::default(), &mut NullRecorder);
        let sampled = random_blocker_set(&know, 5);
        // not a theorem, but with h=3 and ln(nk) ≈ 6 the sampling rate is
        // high; allow equality to avoid flakes
        assert!(sampled.blockers.len() >= greedy.blockers.len());
    }
}
