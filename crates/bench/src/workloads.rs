//! Named workloads shared by the experiments.

use dw_graph::gen::{self, WeightDist};
use dw_graph::{WGraph, Weight};

/// A reproducible workload: a graph plus the Δ parameters experiments
/// need (computed once, centrally — the same role the paper's "distances
/// at most Δ" promise plays).
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub graph: WGraph,
    /// Max finite (unrestricted) shortest-path distance.
    pub delta: Weight,
}

impl Workload {
    pub fn new(name: impl Into<String>, graph: WGraph) -> Self {
        let delta = dw_seqref::max_finite_distance(&graph).max(1);
        Workload {
            name: name.into(),
            graph,
            delta,
        }
    }

    /// Δ for an h-hop run (Lemma II.14's parameter).
    pub fn delta_h(&self, h: usize) -> Weight {
        dw_seqref::max_finite_h_hop_distance(&self.graph, h).max(1)
    }

    pub fn n(&self) -> usize {
        self.graph.n()
    }
}

/// The standard zero-heavy random workload (the paper's motivating
/// regime): connected, directed, 50% zero edges, weights `<= w_max`.
pub fn zero_heavy(n: usize, w_max: Weight, seed: u64) -> Workload {
    Workload::new(
        format!("zero-heavy(n={n},W={w_max},s={seed})"),
        gen::zero_heavy(n, 12.0 / n as f64, 0.5, w_max, true, seed),
    )
}

/// Sparse zero-heavy workload (average communication degree ~3): real
/// hop diameters and distance spreads, for the scaling experiments where
/// a dense graph's `Δ ≈ 1` would flatten every curve.
pub fn sparse_zero_heavy(n: usize, w_max: Weight, seed: u64) -> Workload {
    Workload::new(
        format!("sparse-zero(n={n},W={w_max},s={seed})"),
        gen::zero_heavy(n, 1.5 / n as f64, 0.3, w_max, true, seed),
    )
}

/// Sparse positive-weight workload (no zeros) for W/Δ scaling sweeps.
pub fn sparse_positive(n: usize, w_max: Weight, seed: u64) -> Workload {
    Workload::new(
        format!("sparse-pos(n={n},W={w_max},s={seed})"),
        gen::gnp_connected(
            n,
            1.5 / n as f64,
            true,
            WeightDist::ZeroOr {
                p_zero: 0.0,
                max: w_max,
            },
            seed,
        ),
    )
}

/// Undirected grid with mixed weights.
pub fn grid(rows: usize, cols: usize, w_max: Weight, seed: u64) -> Workload {
    Workload::new(
        format!("grid({rows}x{cols},W={w_max},s={seed})"),
        gen::grid(
            rows,
            cols,
            false,
            WeightDist::ZeroOr {
                p_zero: 0.3,
                max: w_max,
            },
            seed,
        ),
    )
}

/// The staircase stress instance (many Pareto-optimal `(d,l)` pairs).
pub fn staircase(segments: usize, rung_hops: usize, heavy_w: Weight) -> Workload {
    Workload::new(
        format!("staircase({segments}x{rung_hops},w={heavy_w})"),
        gen::staircase(segments, rung_hops, heavy_w, true),
    )
}

/// Unweighted random graph (for E10).
pub fn unweighted(n: usize, seed: u64) -> Workload {
    Workload::new(
        format!("unweighted(n={n},s={seed})"),
        gen::gnp_connected(n, 10.0 / n as f64, true, WeightDist::Constant(1), seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_delta_positive() {
        let w = zero_heavy(20, 6, 1);
        assert!(w.delta >= 1);
        assert_eq!(w.n(), 20);
        assert!(w.delta_h(3) >= w.delta_h(20).max(1));
    }

    #[test]
    fn names_are_reproducible_labels() {
        let a = zero_heavy(16, 4, 7);
        let b = zero_heavy(16, 4, 7);
        assert_eq!(a.name, b.name);
        assert_eq!(a.graph, b.graph);
    }
}
