//! Results of an `(h,k)`-SSP run.

use dw_graph::{NodeId, WGraph, Weight, INFINITY};
use dw_seqref::{dijkstra, hops_from_parents, DistMatrix, HopDist};

/// Per-source, per-node output of Algorithm 1: the h-hop shortest-path
/// distance, the hop length of the recorded path, and the predecessor
/// ("the last edge on such a shortest path", paper Section I-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HkSspResult {
    pub sources: Vec<NodeId>,
    /// `dist[i][v]`: distance from `sources[i]` to `v` (INFINITY if no
    /// path within the hop bound).
    pub dist: Vec<Vec<Weight>>,
    /// `hops[i][v]`: hop length of the recorded path (0 if unreachable).
    pub hops: Vec<Vec<u64>>,
    /// `parent[i][v]`: predecessor of `v` on the recorded path.
    pub parent: Vec<Vec<Option<NodeId>>>,
}

impl HkSspResult {
    /// View as a plain distance matrix.
    pub fn to_matrix(&self) -> DistMatrix {
        DistMatrix::new(self.sources.clone(), self.dist.clone())
    }

    /// Distance+hops for `(source row i, node v)`.
    pub fn hop_dist(&self, i: usize, v: NodeId) -> HopDist {
        if self.dist[i][v as usize] == INFINITY {
            HopDist::UNREACHABLE
        } else {
            HopDist {
                dist: self.dist[i][v as usize],
                hops: self.hops[i][v as usize] as u32,
            }
        }
    }

    /// Reconstruct the recorded shortest path `sources[i], …, dst` by
    /// walking parent pointers backwards. `None` when `dst` is
    /// unreachable or out of range, or when the parent chain is corrupt
    /// (a cycle or a dangling pointer): the walk is bounded by `n`
    /// hops, so a bad chain fails the call instead of looping. This is
    /// what the serving plane persists per source row.
    pub fn path(&self, i: usize, dst: NodeId) -> Option<Vec<NodeId>> {
        let n = self.n();
        if i >= self.k() || (dst as usize) >= n || self.dist[i][dst as usize] == INFINITY {
            return None;
        }
        let source = self.sources[i];
        let mut rev = vec![dst];
        let mut at = dst;
        while at != source {
            at = self.parent[i][at as usize]?;
            if (at as usize) >= n || rev.len() > n {
                return None; // dangling pointer or cycle
            }
            rev.push(at);
        }
        rev.reverse();
        Some(rev)
    }

    /// Hold a full-range, quiet result against [`dijkstra()`] on `g`:
    /// dist, hops and parent of every cell, the first difference as the
    /// error. Both write the one `(d, l, parent)` tree (DESIGN.md §14),
    /// so a difference is a bug in one of them. Hop-bounded (`h < n − 1`)
    /// and `Δ`-truncated results are not tables — a record there is the
    /// best *within the bound*, not the canonical one — and keep their
    /// distance and hop checks.
    pub fn check_against_dijkstra(&self, g: &WGraph) -> Result<(), String> {
        for (i, &s) in self.sources.iter().enumerate() {
            if self.dist[i].len() != g.n() {
                return Err(format!("source {s}: the row does not span the graph"));
            }
            let want = dijkstra(g, s);
            let want_hops = hops_from_parents(g.n(), s, &want.dist, &want.parent)
                .expect("Dijkstra's parents draw a tree");
            let cell = |v: usize| (self.dist[i][v], self.hops[i][v], self.parent[i][v]);
            let want_cell = |v: usize| (want.dist[v], want_hops[v], want.parent[v]);
            if let Some(v) = (0..g.n()).find(|&v| cell(v) != want_cell(v)) {
                return Err(format!(
                    "source {s}, node {v}: (d, l, parent) is {:?}, Dijkstra writes {:?}",
                    cell(v),
                    want_cell(v)
                ));
            }
        }
        Ok(())
    }

    pub fn k(&self) -> usize {
        self.sources.len()
    }

    pub fn n(&self) -> usize {
        self.dist.first().map_or(0, |r| r.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_and_hopdist_views() {
        let r = HkSspResult {
            sources: vec![3],
            dist: vec![vec![INFINITY, 0, 4]],
            hops: vec![vec![0, 0, 2]],
            parent: vec![vec![None, None, Some(1)]],
        };
        assert_eq!(r.k(), 1);
        assert_eq!(r.n(), 3);
        assert_eq!(r.to_matrix().at(0, 2), 4);
        assert_eq!(r.hop_dist(0, 2), HopDist { dist: 4, hops: 2 });
        assert_eq!(r.hop_dist(0, 0), HopDist::UNREACHABLE);
    }

    #[test]
    fn path_walks_parents_and_fails_closed() {
        // source 3 in a 4-node row: 3 -> 1 -> 2, node 0 unreachable.
        let r = HkSspResult {
            sources: vec![3],
            dist: vec![vec![INFINITY, 2, 6, 0]],
            hops: vec![vec![0, 1, 2, 0]],
            parent: vec![vec![None, Some(3), Some(1), None]],
        };
        assert_eq!(r.path(0, 3), Some(vec![3]));
        assert_eq!(r.path(0, 2), Some(vec![3, 1, 2]));
        assert_eq!(r.path(0, 0), None); // unreachable
        assert_eq!(r.path(0, 9), None); // out of range
        assert_eq!(r.path(1, 2), None); // no such source row

        // A corrupt cycle must fail, not loop.
        let bad = HkSspResult {
            sources: vec![0],
            dist: vec![vec![0, 1, 2]],
            hops: vec![vec![0, 1, 2]],
            parent: vec![vec![None, Some(2), Some(1)]],
        };
        assert_eq!(bad.path(0, 2), None);
    }
}
