//! Property tests for the graph substrate: builder invariants,
//! serialization round-trips, and generator guarantees.

use dw_graph::gen::{self, WeightDist};
use dw_graph::{analysis, io, Edge, GraphBuilder, NodeId, WGraph, Weight};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_edges(n: usize) -> impl Strategy<Value = Vec<(NodeId, NodeId, u64)>> {
    proptest::collection::vec((0..n as NodeId, 0..n as NodeId, 0u64..50), 0..4 * n)
}

/// A graph as per-node rows, the way the naive reference builds it.
struct Rows {
    out: Vec<Vec<(NodeId, Weight)>>,
    inc: Vec<Vec<(NodeId, Weight)>>,
    comm: Vec<Vec<NodeId>>,
    edges: Vec<Edge>,
}

/// The naive reference for [`WGraph::from_edge_list`]: the logical edge
/// set through a `BTreeMap` (self loops dropped, an undirected pair keyed
/// `src < dst`, the minimum weight kept), then per-node out, in and
/// communication rows filled from it.
fn reference(n: usize, directed: bool, edges: &[Edge]) -> Rows {
    let mut logical: BTreeMap<(NodeId, NodeId), Weight> = BTreeMap::new();
    for e in edges.iter().filter(|e| e.src != e.dst) {
        let key = if directed {
            (e.src, e.dst)
        } else {
            (e.src.min(e.dst), e.src.max(e.dst))
        };
        let w = logical.entry(key).or_insert(e.w);
        *w = (*w).min(e.w);
    }
    let (mut out, mut inc, mut comm) = (
        vec![Vec::new(); n],
        vec![Vec::new(); n],
        vec![Vec::new(); n],
    );
    for (&(s, d), &w) in &logical {
        out[s as usize].push((d, w));
        inc[d as usize].push((s, w));
        if !directed {
            out[d as usize].push((s, w));
            inc[s as usize].push((d, w));
        }
    }
    for v in 0..n {
        out[v].sort_unstable();
        inc[v].sort_unstable();
        comm[v] = out[v].iter().chain(&inc[v]).map(|&(u, _)| u).collect();
        comm[v].sort_unstable();
        comm[v].dedup();
    }
    let edges = logical
        .into_iter()
        .map(|((s, d), w)| Edge::new(s, d, w))
        .collect();
    Rows {
        out,
        inc,
        comm,
        edges,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn builder_invariants(n in 2usize..20, edges in arb_edges(20), directed: bool) {
        let mut b = GraphBuilder::new(20, directed);
        let _ = n;
        for (s, d, w) in &edges {
            b.add_edge(*s, *d, *w);
        }
        let g = b.build();
        // adjacency sorted and deduplicated
        for v in g.nodes() {
            let out = g.out_edges(v);
            prop_assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
            let inc = g.in_edges(v);
            prop_assert!(inc.windows(2).all(|w| w[0].0 < w[1].0));
            // no self loops survive
            prop_assert!(out.iter().all(|&(u, _)| u != v));
            // comm neighborhood symmetric
            for &u in g.comm_neighbors(v) {
                prop_assert!(g.comm_neighbors(u).contains(&v), "{u} <-> {v}");
            }
        }
        // every out edge mirrored as an in edge
        for e in g.edges() {
            prop_assert_eq!(g.edge_weight(e.src, e.dst), Some(e.w));
            prop_assert!(g.in_edges(e.dst).iter().any(|&(u, w)| u == e.src && w == e.w));
        }
        // parallel edges keep the minimum weight
        for (s, d, w) in &edges {
            if s != d {
                if let Some(kept) = g.edge_weight(*s, *d) {
                    prop_assert!(kept <= *w || !directed);
                }
            }
        }
    }

    #[test]
    fn json_roundtrip(edges in arb_edges(15), directed: bool) {
        let mut b = GraphBuilder::new(15, directed);
        for (s, d, w) in edges {
            b.add_edge(s, d, w);
        }
        let g = b.build();
        let g2 = io::from_json(&io::to_json(&g)).unwrap();
        prop_assert_eq!(g, g2);
    }

    // The TCP runtime distributes instances as `io` JSON files, so the
    // codec must preserve structure exactly on the paper's awkward
    // cases: zero-weight edges (which must not collapse or renumber)
    // and fully disconnected trailing nodes (which a sloppy codec that
    // infers `n` from the edge list would silently drop).
    #[test]
    fn json_roundtrip_zero_weights_and_disconnected_nodes(
        used in 2usize..12,
        isolated in 1usize..6,
        edges in arb_edges(12),
        directed: bool,
    ) {
        let n = used + isolated;
        let mut b = GraphBuilder::new(n, directed);
        for (s, d, w) in edges {
            if (s as usize) < used && (d as usize) < used {
                b.add_edge(s, d, w % 2); // at least half the edges weigh zero
            }
        }
        let g = b.build();
        let text = io::to_json(&g);
        let g2 = io::from_json(&text).unwrap();
        prop_assert_eq!(&g, &g2);
        // Structural equality spelled out (not just PartialEq): size,
        // orientation, adjacency with weights, and the isolated tail.
        prop_assert_eq!(g.n(), g2.n());
        prop_assert_eq!(g.m(), g2.m());
        prop_assert_eq!(g.is_directed(), g2.is_directed());
        for v in g.nodes() {
            prop_assert_eq!(g.out_edges(v), g2.out_edges(v));
            prop_assert_eq!(g.in_edges(v), g2.in_edges(v));
        }
        prop_assert_eq!(g.zero_weight_edges(), g2.zero_weight_edges());
        for v in used..n {
            prop_assert!(g2.out_edges(v as NodeId).is_empty());
            prop_assert!(g2.in_edges(v as NodeId).is_empty());
        }
        // The serialized form is a fixed point: parse(print(g)) prints
        // the same bytes, so files survive rewrite cycles untouched.
        prop_assert_eq!(text, io::to_json(&g2));
    }

    #[test]
    fn gnp_connected_is_connected(n in 2usize..40, seed: u64) {
        let g = gen::gnp_connected(n, 0.05, false, WeightDist::Constant(1), seed);
        prop_assert!(analysis::comm_connected(&g));
    }

    #[test]
    fn zero_heavy_weight_range(n in 4usize..30, seed: u64, w in 1u64..20) {
        let g = gen::zero_heavy(n, 0.2, 0.5, w, true, seed);
        prop_assert!(g.max_weight() <= w);
        prop_assert!(analysis::comm_connected(&g));
    }

    #[test]
    fn map_weights_preserves_topology(edges in arb_edges(12), directed: bool) {
        let mut b = GraphBuilder::new(12, directed);
        for (s, d, w) in edges {
            b.add_edge(s, d, w);
        }
        let g = b.build();
        let t = g.map_weights(|e| e.w * 2 + 1);
        prop_assert_eq!(g.n(), t.n());
        prop_assert_eq!(g.m(), t.m());
        for e in g.edges() {
            prop_assert_eq!(t.edge_weight(e.src, e.dst), Some(e.w * 2 + 1));
        }
        for v in g.nodes() {
            prop_assert_eq!(g.comm_neighbors(v), t.comm_neighbors(v));
        }
    }

    // The one constructor against the naive reference: all three CSR
    // views, `m` and `edges()`, on directed and undirected graphs with
    // self loops, parallel edges of different weights, both orientations
    // of one pair, isolated nodes and n from 0 up.
    #[test]
    fn csr_roundtrip_matches_vec_form(
        used in 0usize..12,
        isolated in 0usize..5,
        edges in arb_edges(12),
        directed: bool,
    ) {
        let n = used + isolated;
        let mut list: Vec<Edge> = Vec::new();
        if used > 0 {
            let id = |v: NodeId| v % used as NodeId;
            // w % 4 keeps zero weights and weight clashes in play.
            list.extend(edges.iter().map(|&(s, d, w)| Edge::new(id(s), id(d), w % 4)));
        }
        if used >= 2 {
            list.extend([Edge::new(1, 0, 3), Edge::new(0, 1, 2), Edge::new(0, 1, 5)]);
        }
        let g = WGraph::from_edge_list(n, directed, list.iter().copied());
        let want = reference(n, directed, &list);
        prop_assert_eq!(g.n(), n);
        prop_assert_eq!(g.m(), want.edges.len());
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), want.edges);
        for v in g.nodes() {
            prop_assert_eq!(g.out_edges(v), &want.out[v as usize][..]);
            prop_assert_eq!(g.in_edges(v), &want.inc[v as usize][..]);
            prop_assert_eq!(g.comm_neighbors(v), &want.comm[v as usize][..]);
        }
        // The builder is the same constructor.
        let mut b = GraphBuilder::new(n, directed);
        b.extend(list.iter().map(|e| (e.src, e.dst, e.w)));
        prop_assert_eq!(&b.build(), &g);
    }

    #[test]
    fn zero_subgraph_subset(edges in arb_edges(12)) {
        let mut b = GraphBuilder::new(12, true);
        for (s, d, w) in edges {
            b.add_edge(s, d, w % 3); // plenty of zeros
        }
        let g = b.build();
        let z = g.zero_subgraph();
        prop_assert_eq!(z.n(), g.n());
        for e in z.edges() {
            prop_assert_eq!(e.w, 0);
            prop_assert_eq!(g.edge_weight(e.src, e.dst), Some(0));
        }
        prop_assert_eq!(z.m(), g.zero_weight_edges());
    }
}
