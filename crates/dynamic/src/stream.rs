//! Seeded random update streams, for benches, smoke tests and the
//! randomized correctness suite.
//!
//! The mix mirrors what a real dynamic workload does to a road-ish
//! graph: mostly reweights (congestion), some removals (closures), some
//! insertions (new links). Drawing from the *current* graph keeps the
//! stream meaningful across batches — reweights and removals always hit
//! live edges.

use crate::batch::UpdateBatch;
use dw_graph::{EdgeUpdate, NodeId, WGraph, Weight};
use rand::Rng;

/// Generate one seeded batch of `size` updates against the current
/// state of `g`: ~50% reweights of existing edges, ~25% removals of
/// existing edges, ~25% insertions of random pairs (weights uniform in
/// `0..=max_w`). On an edgeless graph everything degrades to
/// insertions.
pub fn gen_update_batch<R: Rng>(
    g: &WGraph,
    seq: u64,
    size: usize,
    max_w: Weight,
    rng: &mut R,
) -> UpdateBatch {
    let edges: Vec<(NodeId, NodeId)> = g.edges().map(|e| (e.src, e.dst)).collect();
    let n = g.n() as NodeId;
    let mut updates = Vec::with_capacity(size);
    for _ in 0..size {
        let roll = if edges.is_empty() {
            3
        } else {
            rng.gen_range(0..4u32)
        };
        let update = match roll {
            0 | 1 => {
                let (src, dst) = edges[rng.gen_range(0..edges.len())];
                EdgeUpdate::SetWeight {
                    src,
                    dst,
                    w: rng.gen_range(0..=max_w),
                }
            }
            2 => {
                let (src, dst) = edges[rng.gen_range(0..edges.len())];
                EdgeUpdate::Remove { src, dst }
            }
            _ => {
                let src = rng.gen_range(0..n);
                let mut dst = rng.gen_range(0..n);
                if dst == src {
                    dst = (dst + 1) % n;
                }
                EdgeUpdate::Insert {
                    src,
                    dst,
                    w: rng.gen_range(0..=max_w),
                }
            }
        };
        updates.push(update);
    }
    UpdateBatch { seq, updates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_graph::gen::{self, WeightDist};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn batches_are_deterministic_per_seed_and_always_apply() {
        let mut g = gen::grid(4, 4, false, WeightDist::Uniform { max: 9 }, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let a = gen_update_batch(&g, 0, 16, 9, &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let b = gen_update_batch(&g, 0, 16, 9, &mut rng);
        assert_eq!(a, b);
        assert_eq!(a.updates.len(), 16);
        // Streams built against the live graph always validate.
        g.apply_updates(&a.updates).unwrap();
    }

    #[test]
    fn edgeless_graph_degrades_to_insertions() {
        let g = gen::gnp(6, 0.0, false, WeightDist::Constant(1), 0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let b = gen_update_batch(&g, 3, 8, 5, &mut rng);
        assert!(b
            .updates
            .iter()
            .all(|u| matches!(u, EdgeUpdate::Insert { .. })));
    }
}
