//! Path reconstruction and verification helpers.
//!
//! Every distributed algorithm here reports, per (source, node), a
//! distance plus the last edge of a witnessing path. These utilities walk
//! the parent pointers into explicit paths and check them against the
//! graph — the glue between "the matrix matches Dijkstra" and "the
//! *routes* are real".

use dw_graph::{NodeId, WGraph, Weight, INFINITY};

/// A reconstructed path with its total weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathWitness {
    /// Node sequence, source first.
    pub nodes: Vec<NodeId>,
    pub weight: Weight,
}

impl PathWitness {
    pub fn hops(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }
}

/// Errors a parent table can exhibit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// Walking parents revisited a node (cycle) or exceeded `n` steps.
    Cycle { at: NodeId },
    /// A parent pointer names a non-edge.
    MissingEdge { from: NodeId, to: NodeId },
    /// The walk ended somewhere other than the source.
    WrongRoot { reached: NodeId },
}

/// Reconstruct the path `source -> v` from a parent table
/// (`parent[u] = predecessor of u`). Returns `None` for the source itself
/// or unreachable nodes (no parent).
pub fn reconstruct_path(
    g: &WGraph,
    source: NodeId,
    v: NodeId,
    parent: &[Option<NodeId>],
) -> Result<Option<PathWitness>, PathError> {
    if v == source || parent[v as usize].is_none() {
        return Ok(None);
    }
    let mut nodes = vec![v];
    let mut weight: Weight = 0;
    let mut cur = v;
    let mut seen = vec![false; g.n()];
    seen[v as usize] = true;
    while let Some(p) = parent[cur as usize] {
        let w = g
            .edge_weight(p, cur)
            .ok_or(PathError::MissingEdge { from: p, to: cur })?;
        weight += w;
        if seen[p as usize] {
            return Err(PathError::Cycle { at: p });
        }
        seen[p as usize] = true;
        nodes.push(p);
        cur = p;
        if cur == source {
            nodes.reverse();
            return Ok(Some(PathWitness { nodes, weight }));
        }
    }
    Err(PathError::WrongRoot { reached: cur })
}

/// Verify a whole parent table against claimed distances: every finite
/// `dist[v]` must be witnessed by a real path of exactly that weight, and
/// every infinite entry must have no parent. Returns the first problem as
/// a readable string.
pub fn verify_sssp_witnesses(
    g: &WGraph,
    source: NodeId,
    dist: &[Weight],
    parent: &[Option<NodeId>],
) -> Result<(), String> {
    for v in g.nodes() {
        let vi = v as usize;
        if dist[vi] == INFINITY {
            if parent[vi].is_some() {
                return Err(format!("unreachable {v} has a parent"));
            }
            continue;
        }
        match reconstruct_path(g, source, v, parent) {
            Ok(None) => {
                if v != source && dist[vi] != 0 {
                    // a reachable non-source node must have a parent unless
                    // it IS the source
                    return Err(format!("reachable {v} lacks a parent"));
                }
                if v == source && dist[vi] != 0 {
                    return Err(format!("source distance is {} not 0", dist[vi]));
                }
            }
            Ok(Some(w)) => {
                if w.weight != dist[vi] {
                    return Err(format!(
                        "witness for {v} weighs {} but claimed {}",
                        w.weight, dist[vi]
                    ));
                }
            }
            Err(e) => return Err(format!("bad witness for {v}: {e:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use dw_graph::gen::{self, WeightDist};
    use dw_graph::GraphBuilder;

    #[test]
    fn dijkstra_witnesses_verify() {
        let g = gen::zero_heavy(20, 0.2, 0.4, 6, true, 3);
        for s in [0u32, 7, 19] {
            let r = dijkstra(&g, s);
            verify_sssp_witnesses(&g, s, &r.dist, &r.parent).unwrap();
        }
    }

    #[test]
    fn reconstruct_simple_path() {
        let g = gen::path(4, true, WeightDist::Constant(3), 0);
        let r = dijkstra(&g, 0);
        let w = reconstruct_path(&g, 0, 3, &r.parent).unwrap().unwrap();
        assert_eq!(w.nodes, vec![0, 1, 2, 3]);
        assert_eq!(w.weight, 9);
        assert_eq!(w.hops(), 3);
        assert!(reconstruct_path(&g, 0, 0, &r.parent).unwrap().is_none());
    }

    #[test]
    fn detects_cycles() {
        let mut b = GraphBuilder::new(3, true);
        b.add_edge(0, 1, 1).add_edge(1, 2, 1).add_edge(2, 1, 1);
        let g = b.build();
        let parent = vec![None, Some(2), Some(1)]; // 1 <-> 2 loop
        assert!(matches!(
            reconstruct_path(&g, 0, 2, &parent),
            Err(PathError::Cycle { .. })
        ));
    }

    #[test]
    fn detects_missing_edges() {
        let mut b = GraphBuilder::new(3, true);
        b.add_edge(0, 1, 1);
        let g = b.build();
        let parent = vec![None, Some(0), Some(1)]; // edge 1->2 doesn't exist
        assert_eq!(
            reconstruct_path(&g, 0, 2, &parent),
            Err(PathError::MissingEdge { from: 1, to: 2 })
        );
    }

    #[test]
    fn detects_wrong_weights() {
        let mut b = GraphBuilder::new(2, true);
        b.add_edge(0, 1, 5);
        let g = b.build();
        let err = verify_sssp_witnesses(&g, 0, &[0, 4], &[None, Some(0)]).unwrap_err();
        assert!(err.contains("weighs 5 but claimed 4"), "{err}");
    }
}
