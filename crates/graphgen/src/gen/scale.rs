//! Large-graph families: O(m) generation with no O(n²) pair loop, so
//! they reach 100k+ nodes. Like every generator they end in
//! [`WGraph::from_edge_list`].

use crate::gen::weights::WeightDist;
use crate::graph::{Edge, NodeId, WGraph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Preferential-attachment power-law graph (Barabási–Albert flavor):
/// nodes arrive one at a time and connect to `attach` distinct earlier
/// nodes sampled proportionally to current degree. Undirected, connected
/// by construction, ~`attach·n` edges, heavy-tailed degrees — the
/// "social graph" shape of the millions-of-users regime.
///
/// The degree-proportional sampling uses the repeated-endpoint trick: a
/// flat vector holding every edge endpoint seen so far, from which a
/// uniform index is degree-proportional. O(m) memory, no per-node state.
pub fn power_law(n: usize, attach: usize, dist: WeightDist, seed: u64) -> WGraph {
    assert!(n >= 2, "power_law needs at least 2 nodes");
    let attach = attach.max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges: Vec<Edge> = Vec::with_capacity(n.saturating_mul(attach));
    // Every endpoint of every accepted edge; sampling a uniform element
    // samples a node with probability proportional to its degree.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n.saturating_mul(attach));
    // Seed: an edge between the first two nodes.
    edges.push(Edge::new(0, 1, dist.sample(&mut rng)));
    endpoints.extend([0, 1]);
    let mut picked: Vec<NodeId> = Vec::with_capacity(attach);
    for v in 2..n as NodeId {
        picked.clear();
        let want = attach.min(v as usize);
        // Rejection-sample distinct targets; `want <= v`, so at most `v`
        // distinct candidates exist and the loop terminates quickly (the
        // endpoint list always covers every earlier node's degree ≥ 1
        // once it has been attached, and nodes 0..2 are seeded).
        let mut guard = 0usize;
        while picked.len() < want {
            let t = if guard < 64 * want {
                endpoints[rng.gen_range(0..endpoints.len())]
            } else {
                // Pathological rejection streak: fall back to uniform.
                rng.gen_range(0..v)
            };
            guard += 1;
            if t != v && !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            edges.push(Edge::new(v, t, dist.sample(&mut rng)));
            endpoints.extend([v, t]);
        }
    }
    WGraph::from_edge_list(n, false, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_deterministic_and_connected_shape() {
        let d = WeightDist::Uniform { max: 9 };
        let g = power_law(500, 3, d, 42);
        assert_eq!(g, power_law(500, 3, d, 42));
        assert_eq!(g.n(), 500);
        // ~3 edges per arriving node (dedup can only shrink, attachment
        // never crosses the same pair twice within one node's batch).
        assert!(g.m() >= 3 * 498 / 2 && g.m() <= 1 + 3 * 498);
        // Every node attached to an earlier one: no isolated nodes.
        for v in g.nodes() {
            assert!(g.comm_degree(v) >= 1, "node {v} isolated");
        }
        // Heavy tail: some hub should far exceed the attach count.
        let max_deg = g.nodes().map(|v| g.comm_degree(v)).max().unwrap();
        assert!(max_deg > 12, "no hub emerged (max degree {max_deg})");
    }

    #[test]
    fn power_law_small_n() {
        let g = power_law(2, 4, WeightDist::Constant(1), 0);
        assert_eq!(g.m(), 1);
        let g3 = power_law(3, 4, WeightDist::Constant(1), 0);
        assert!(g3.m() >= 2); // node 2 attaches to both earlier nodes
    }
}
