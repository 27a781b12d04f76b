//! Source-indexed distance matrices.

use dw_graph::{NodeId, Weight, INFINITY};

/// Distances from `k` sources to all `n` nodes: `dist[i][v]` is the
/// distance from `sources[i]` to node `v` (`INFINITY` if unreachable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistMatrix {
    pub sources: Vec<NodeId>,
    pub dist: Vec<Vec<Weight>>,
}

impl DistMatrix {
    pub fn new(sources: Vec<NodeId>, dist: Vec<Vec<Weight>>) -> Self {
        assert_eq!(sources.len(), dist.len(), "one row per source");
        DistMatrix { sources, dist }
    }

    /// Number of sources `k`.
    pub fn k(&self) -> usize {
        self.sources.len()
    }

    /// Number of target nodes `n`.
    pub fn n(&self) -> usize {
        self.dist.first().map_or(0, |r| r.len())
    }

    /// Distance from `source` (a node id, not a row index) to `v`.
    pub fn from_source(&self, source: NodeId, v: NodeId) -> Option<Weight> {
        let i = self.sources.iter().position(|&s| s == source)?;
        Some(self.dist[i][v as usize])
    }

    /// Distance by row index.
    #[inline]
    pub fn at(&self, row: usize, v: NodeId) -> Weight {
        self.dist[row][v as usize]
    }

    /// Largest finite entry (0 for an all-infinite matrix).
    pub fn max_finite(&self) -> Weight {
        self.dist
            .iter()
            .flatten()
            .copied()
            .filter(|&d| d != INFINITY)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DistMatrix {
        DistMatrix::new(vec![2, 5], vec![vec![0, 3, INFINITY], vec![7, 0, 1]])
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert_eq!(m.k(), 2);
        assert_eq!(m.n(), 3);
        assert_eq!(m.from_source(2, 1), Some(3));
        assert_eq!(m.from_source(5, 0), Some(7));
        assert_eq!(m.from_source(9, 0), None);
        assert_eq!(m.at(0, 2), INFINITY);
    }

    #[test]
    fn stats() {
        let m = sample();
        assert_eq!(m.max_finite(), 7);
    }

    #[test]
    #[should_panic(expected = "one row per source")]
    fn shape_mismatch_panics() {
        let _ = DistMatrix::new(vec![0], vec![vec![0], vec![1]]);
    }
}
