//! Deterministic structured topologies.

use crate::builder::GraphBuilder;
use crate::gen::weights::WeightDist;
use crate::graph::{NodeId, WGraph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Simple path `0 - 1 - ... - n-1`.
pub fn path(n: usize, directed: bool, dist: WeightDist, seed: u64) -> WGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n, directed);
    for v in 1..n {
        b.add_edge((v - 1) as NodeId, v as NodeId, dist.sample(&mut rng));
    }
    b.build()
}

/// Cycle on `n` nodes (requires `n >= 3`).
pub fn ring(n: usize, directed: bool, dist: WeightDist, seed: u64) -> WGraph {
    assert!(n >= 3, "ring needs at least 3 nodes");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n, directed);
    for v in 0..n {
        b.add_edge(v as NodeId, ((v + 1) % n) as NodeId, dist.sample(&mut rng));
    }
    b.build()
}

/// Star with center 0.
pub fn star(n: usize, directed: bool, dist: WeightDist, seed: u64) -> WGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n, directed);
    for v in 1..n {
        b.add_edge(0, v as NodeId, dist.sample(&mut rng));
    }
    b.build()
}

/// Complete graph (undirected) or complete digraph.
pub fn complete(n: usize, directed: bool, dist: WeightDist, seed: u64) -> WGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n, directed);
    for u in 0..n {
        for v in 0..n {
            if u == v {
                continue;
            }
            if !directed && u > v {
                continue;
            }
            b.add_edge(u as NodeId, v as NodeId, dist.sample(&mut rng));
        }
    }
    b.build()
}

/// `rows x cols` grid, 4-neighborhood. Undirected, it is the
/// bounded-degree planar workload for short-range SSSP at scale
/// (diameter `rows + cols`, degree ≤ 4; `dwapsp gen --family grid2d`).
pub fn grid(rows: usize, cols: usize, directed: bool, dist: WeightDist, seed: u64) -> WGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rows * cols;
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut b = GraphBuilder::new(n, directed);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1), dist.sample(&mut rng));
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c), dist.sample(&mut rng));
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNIT: WeightDist = WeightDist::Constant(1);

    #[test]
    fn path_shape() {
        let g = path(5, false, UNIT, 0);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 4);
        assert_eq!(g.comm_degree(0), 1);
        assert_eq!(g.comm_degree(2), 2);
    }

    #[test]
    fn ring_shape() {
        let g = ring(6, true, UNIT, 0);
        assert_eq!(g.m(), 6);
        for v in g.nodes() {
            assert_eq!(g.out_edges(v).len(), 1);
            assert_eq!(g.in_edges(v).len(), 1);
        }
    }

    #[test]
    fn star_shape() {
        let g = star(7, false, UNIT, 0);
        assert_eq!(g.m(), 6);
        assert_eq!(g.comm_degree(0), 6);
        assert_eq!(g.comm_degree(3), 1);
    }

    #[test]
    fn complete_shape() {
        let gu = complete(5, false, UNIT, 0);
        assert_eq!(gu.m(), 10);
        let gd = complete(5, true, UNIT, 0);
        assert_eq!(gd.m(), 20);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4, false, UNIT, 0);
        assert_eq!(g.n(), 12);
        // 3*3 horizontal + 2*4 vertical
        assert_eq!(g.m(), 9 + 8);
    }

    #[test]
    fn grid_degrees_and_weights() {
        let g = grid(3, 4, false, WeightDist::Constant(2), 7);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // rows*(cols-1) + (rows-1)*cols
        assert_eq!(g.comm_degree(0), 2); // corner
        assert_eq!(g.comm_degree(5), 4); // interior
        assert_eq!(g.max_weight(), 2);
    }

    #[test]
    fn grid_scale_probe() {
        // Big enough to catch accidental O(n²) behavior by timeout, small
        // enough for a debug test run.
        let g = grid(200, 200, false, WeightDist::Uniform { max: 100 }, 1);
        assert_eq!(g.n(), 40_000);
        assert_eq!(g.m(), 200 * 199 * 2);
        assert!(g.csr_bytes() > 0);
    }

    #[test]
    fn generators_deterministic_per_seed() {
        let d = WeightDist::Uniform { max: 10 };
        assert_eq!(grid(4, 4, false, d, 42), grid(4, 4, false, d, 42));
        assert_ne!(
            grid(4, 4, false, d, 42)
                .edges()
                .map(|e| e.w)
                .collect::<Vec<_>>(),
            grid(4, 4, false, d, 43)
                .edges()
                .map(|e| e.w)
                .collect::<Vec<_>>()
        );
    }
}
