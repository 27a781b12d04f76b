//! Run configuration for the pipelined `(h,k)`-SSP algorithm.

use crate::key::Gamma;
use dw_graph::{NodeId, Weight};

/// How Step 13 counts existing same-source entries when deciding whether
/// to admit a non-SP entry (ablation knob; experiment E11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionRule {
    /// Count by full list order (the `(κ, d, src)` triple) below the
    /// newcomer's insertion point. This matches the order `pos`/`ν` use,
    /// which is what the position-transfer lemmas behind Invariants 1–2
    /// need. The default.
    #[default]
    ListOrder,
    /// Count only entries with **strictly smaller κ** (a literal reading
    /// of the paper's "key < Z.key"). Admits more entries when keys tie;
    /// measurably inflates lists past Invariant 2's bound (E11).
    StrictKappa,
}

/// Parameters of one `(h,k)`-SSP execution (paper Algorithm 1).
///
/// The paper assumes `Δ` (a bound on the shortest-path distances of
/// interest) is known — it parameterizes the key via `γ = sqrt(kh/Δ)`.
/// Correctness does not depend on `Δ` being exact; only the round bound
/// does. Use [`crate::driver::apsp_auto`] when `Δ` is unknown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SspConfig {
    /// The `k` sources.
    pub sources: Vec<NodeId>,
    /// Hop bound `h`: compute h-hop shortest paths.
    pub h: u64,
    /// Distance bound `Δ` used for the key schedule.
    pub delta: Weight,
    /// Step-13 admission counting rule (see [`AdmissionRule`]).
    pub admission: AdmissionRule,
}

impl SspConfig {
    /// `(h,k)`-SSP configuration.
    pub fn new(sources: Vec<NodeId>, h: u64, delta: Weight) -> Self {
        assert!(!sources.is_empty(), "need at least one source");
        assert!(h >= 1, "hop bound must be at least 1");
        SspConfig {
            sources,
            h,
            delta,
            admission: AdmissionRule::default(),
        }
    }

    /// APSP: every node a source, hop bound `n` (Theorem I.1(ii)).
    pub fn apsp(n: usize, delta: Weight) -> Self {
        Self::new((0..n as NodeId).collect(), n as u64, delta)
    }

    /// `k`-SSP: given sources, hop bound `n` (Theorem I.1(iii)).
    pub fn k_ssp(n: usize, sources: Vec<NodeId>, delta: Weight) -> Self {
        Self::new(sources, n as u64, delta)
    }

    pub fn k(&self) -> u64 {
        self.sources.len() as u64
    }

    /// The key schedule `γ = sqrt(kh/Δ)` of this configuration.
    pub fn gamma(&self) -> Gamma {
        Gamma::new(self.k(), self.h, self.delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let c = SspConfig::apsp(5, 9);
        assert_eq!(c.k(), 5);
        assert_eq!(c.h, 5);
        let k = SspConfig::k_ssp(5, vec![1, 3], 9);
        assert_eq!(k.k(), 2);
        assert_eq!(k.h, 5);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_sources_rejected() {
        let _ = SspConfig::new(vec![], 3, 1);
    }
}
