//! Persisted per-source distance + parent-pointer tables.
//!
//! A serving deployment computes shortest paths **once** — on any of
//! the existing runtimes (simulator, threads, TCP shards) or the
//! sequential reference — and persists the answer as a
//! [`TableSnapshot`]: one [`SourceTable`] per source row, each holding
//! the full `dist[v]` / `parent[v]` columns for that source. Queries
//! then never touch the graph again; a point-to-point distance is one
//! array read and a path is a parent-pointer walk.
//!
//! The encoding is the repo's canonical [`WireCodec`] layout behind a
//! magic/version header, written and read through
//! [`dw_congest::to_bytes`] / [`from_bytes`] — the same machinery that
//! persists checkpoint snapshots, with the same contract: a file is one
//! encoding, trailing bytes are malformed, and byte-identical inputs
//! produce byte-identical files (which is what the golden test pins).

use dw_congest::WireCodec;
use dw_graph::{NodeId, Weight, INFINITY};
use dw_pipeline::HkSspResult;
use dw_seqref::dijkstra::SsspResult;
use dw_transport::shard::ShardMap;
use std::sync::Arc;

/// File magic: `DWT1` ("distance-weighted tables, layout 1").
pub const TABLE_MAGIC: u32 = u32::from_le_bytes(*b"DWT1");
/// File magic of the *versioned* layout produced by the dynamic-update
/// subsystem: `DWD1` ("distance-weighted dynamic, layout 1") — a
/// generation counter followed by the same table payload as `DWT1`.
pub const TABLE_V2_MAGIC: u32 = u32::from_le_bytes(*b"DWD1");
/// Layout version inside the magic; bump on any field change.
pub const TABLE_VERSION: u32 = 1;

/// One source's complete answer: `dist[v]` and `parent[v]` for every
/// node `v` in `0..n`. `parent` is `None` for the source itself and for
/// unreachable nodes. Whoever computed it, a row is the one
/// `(d, l, parent)` shortest-path tree of its source
/// ([`dw_seqref::dijkstra`]'s module header): the fewest hops among the
/// shortest paths, then the smallest parent id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceTable {
    pub source: NodeId,
    pub dist: Vec<Weight>,
    pub parent: Vec<Option<NodeId>>,
}

impl SourceTable {
    /// Reconstruct the recorded shortest path `source, …, dst` by
    /// walking parent pointers backwards. `None` when `dst` is
    /// unreachable or out of range, or when the parent chain is
    /// corrupt (a cycle or a dangling pointer) — a walk is bounded by
    /// `n` hops, so corrupt tables fail the query instead of hanging
    /// the server.
    pub fn path_to(&self, dst: NodeId) -> Option<Vec<NodeId>> {
        let n = self.dist.len();
        if (dst as usize) >= n || self.dist[dst as usize] == INFINITY {
            return None;
        }
        let mut rev = vec![dst];
        let mut at = dst;
        while at != self.source {
            at = self.parent[at as usize]?;
            if (at as usize) >= n || rev.len() > n {
                return None; // dangling pointer or cycle
            }
            rev.push(at);
        }
        rev.reverse();
        Some(rev)
    }
}

impl WireCodec for SourceTable {
    fn encode(&self, out: &mut Vec<u8>) {
        self.source.encode(out);
        self.dist.encode(out);
        self.parent.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let source = NodeId::decode(buf)?;
        let dist = Vec::<Weight>::decode(buf)?;
        let parent = Vec::<Option<NodeId>>::decode(buf)?;
        if dist.len() != parent.len() {
            return None;
        }
        Some(SourceTable {
            source,
            dist,
            parent,
        })
    }
}

/// The persisted table set: every computed source row over a graph of
/// `n` nodes. For k-SSP runs `tables.len() == k`; for full APSP it is
/// `n`. Rows are kept sorted by source id so lookup is a binary search
/// and the encoding is canonical regardless of compute order.
///
/// Rows are held behind `Arc` so the dynamic-update path can carry
/// clean rows from one snapshot generation to the next *by reference*
/// (and [`TableSnapshot::for_shard`] is a handful of pointer bumps, not
/// a deep copy). The wire encoding is unchanged — an `Arc<SourceTable>`
/// encodes exactly as its payload — so `DWT1` files are byte-stable
/// across this refactor (the golden test pins that).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSnapshot {
    /// Node-id domain `0..n` the tables cover.
    pub n: u32,
    pub tables: Vec<Arc<SourceTable>>,
}

impl TableSnapshot {
    fn normalize(mut tables: Vec<Arc<SourceTable>>, n: u32) -> TableSnapshot {
        tables.sort_by_key(|t| t.source);
        TableSnapshot { n, tables }
    }

    /// Build from a pipeline k-SSP result (the serving path: compute on
    /// any runtime, persist, serve).
    pub fn from_result(r: &HkSspResult) -> TableSnapshot {
        let tables = r
            .sources
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                Arc::new(SourceTable {
                    source: s,
                    dist: r.dist[i].clone(),
                    parent: r.parent[i].clone(),
                })
            })
            .collect();
        TableSnapshot::normalize(tables, r.n() as u32)
    }

    /// Build from sequential-reference runs: the same bytes
    /// [`TableSnapshot::from_result`] builds from a quiet, full-range
    /// Algorithm-1 run over the same sources.
    pub fn from_sssp(runs: &[SsspResult], n: u32) -> TableSnapshot {
        let tables = runs
            .iter()
            .map(|r| {
                Arc::new(SourceTable {
                    source: r.source,
                    dist: r.dist.clone(),
                    parent: r.parent.clone(),
                })
            })
            .collect();
        TableSnapshot::normalize(tables, n)
    }

    /// The table row for `source`, if it was computed.
    pub fn table_for(&self, source: NodeId) -> Option<&SourceTable> {
        self.tables
            .binary_search_by_key(&source, |t| t.source)
            .ok()
            .map(|i| self.tables[i].as_ref())
    }

    /// The sub-snapshot shard `shard` of `map` serves: the rows whose
    /// source falls in the shard's contiguous node-id block. Sources
    /// shard by the same [`ShardMap`] the transport runtime uses, so a
    /// serving fleet and a compute fleet can share a layout.
    pub fn for_shard(&self, map: &ShardMap, shard: NodeId) -> TableSnapshot {
        let block = map.nodes(shard);
        TableSnapshot {
            n: self.n,
            tables: self
                .tables
                .iter()
                .filter(|t| block.contains(&t.source))
                .cloned()
                .collect(),
        }
    }

    /// Serialize with the magic/version header.
    pub fn to_file_bytes(&self) -> Vec<u8> {
        dw_congest::to_bytes(&(TABLE_MAGIC, TABLE_VERSION, self.clone()))
    }

    /// Parse a persisted snapshot, rejecting wrong magic or version,
    /// trailing bytes, and rows whose columns don't span `0..n`.
    pub fn from_file_bytes(bytes: &[u8]) -> Option<TableSnapshot> {
        let (magic, version, snap): (u32, u32, TableSnapshot) = dw_congest::from_bytes(bytes)?;
        if magic != TABLE_MAGIC || version != TABLE_VERSION {
            return None;
        }
        Some(snap)
    }

    /// Total heap footprint of the table payload, for capacity logs.
    pub fn payload_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(|t| {
                t.dist.len() * std::mem::size_of::<Weight>()
                    + t.parent.len() * std::mem::size_of::<Option<NodeId>>()
            })
            .sum()
    }
}

impl WireCodec for TableSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.n.encode(out);
        self.tables.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let n = u32::decode(buf)?;
        let tables = Vec::<Arc<SourceTable>>::decode(buf)?;
        // Validate invariants so a decoded snapshot is usable as-is:
        // every row spans 0..n, source in range, rows sorted + unique.
        let mut prev: Option<NodeId> = None;
        for t in &tables {
            if t.dist.len() != n as usize || t.source >= n {
                return None;
            }
            if prev.is_some_and(|p| p >= t.source) {
                return None;
            }
            prev = Some(t.source);
        }
        Some(TableSnapshot { n, tables })
    }
}

/// A table set stamped with its swap *generation* — the unit the
/// dynamic-update subsystem produces and the serving plane installs
/// atomically (DESIGN.md §14). Generation 0 is the initial compute; the
/// gateway only accepts installs with a strictly larger generation, so
/// duplicated or reordered installs are idempotent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedTables {
    pub generation: u64,
    pub snap: TableSnapshot,
}

impl VersionedTables {
    /// Serialize with the `DWD1` magic/version header.
    pub fn to_file_bytes(&self) -> Vec<u8> {
        dw_congest::to_bytes(&(
            TABLE_V2_MAGIC,
            TABLE_VERSION,
            self.generation,
            self.snap.clone(),
        ))
    }

    /// Parse a persisted `DWD1` file, with the same rejection rules as
    /// [`TableSnapshot::from_file_bytes`].
    pub fn from_file_bytes(bytes: &[u8]) -> Option<VersionedTables> {
        let (magic, version, generation, snap): (u32, u32, u64, TableSnapshot) =
            dw_congest::from_bytes(bytes)?;
        if magic != TABLE_V2_MAGIC || version != TABLE_VERSION {
            return None;
        }
        Some(VersionedTables { generation, snap })
    }

    /// Parse either table format: a `DWD1` file keeps its generation, a
    /// legacy `DWT1` file loads as generation 0. This is what `dwapsp`
    /// uses everywhere a tables file is read.
    pub fn from_any_file_bytes(bytes: &[u8]) -> Option<VersionedTables> {
        if let Some(vt) = VersionedTables::from_file_bytes(bytes) {
            return Some(vt);
        }
        TableSnapshot::from_file_bytes(bytes).map(|snap| VersionedTables {
            generation: 0,
            snap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_graph::gen::{self, WeightDist};
    use dw_seqref::dijkstra;

    fn sample() -> TableSnapshot {
        let g = gen::gnp(12, 0.3, false, WeightDist::Uniform { max: 9 }, 5);
        let runs: Vec<SsspResult> = (0..4).map(|s| dijkstra(&g, s)).collect();
        TableSnapshot::from_sssp(&runs, 12)
    }

    #[test]
    fn file_bytes_roundtrip() {
        let snap = sample();
        let bytes = snap.to_file_bytes();
        assert_eq!(TableSnapshot::from_file_bytes(&bytes), Some(snap));
    }

    #[test]
    fn wrong_magic_version_or_trailing_bytes_rejected() {
        let snap = sample();
        let mut bytes = snap.to_file_bytes();
        bytes[0] ^= 0xff;
        assert_eq!(TableSnapshot::from_file_bytes(&bytes), None);
        let mut bytes = snap.to_file_bytes();
        bytes[4] = 9; // version
        assert_eq!(TableSnapshot::from_file_bytes(&bytes), None);
        let mut bytes = snap.to_file_bytes();
        bytes.push(0);
        assert_eq!(TableSnapshot::from_file_bytes(&bytes), None);
    }

    #[test]
    fn path_walk_matches_distances() {
        let g = gen::gnp(20, 0.25, false, WeightDist::Uniform { max: 7 }, 3);
        let runs: Vec<SsspResult> = (0..20).map(|s| dijkstra(&g, s)).collect();
        let snap = TableSnapshot::from_sssp(&runs, 20);
        for t in &snap.tables {
            for v in 0..20u32 {
                match t.path_to(v) {
                    None => assert_eq!(t.dist[v as usize], INFINITY),
                    Some(p) => {
                        assert_eq!(p.first(), Some(&t.source));
                        assert_eq!(p.last(), Some(&v));
                        let mut w = 0;
                        for pair in p.windows(2) {
                            let ew = g
                                .out_edges(pair[0])
                                .iter()
                                .find(|&&(u, _)| u == pair[1])
                                .map(|&(_, w)| w)
                                .expect("path uses real edges");
                            w += ew;
                        }
                        assert_eq!(w, t.dist[v as usize]);
                    }
                }
            }
        }
    }

    #[test]
    fn versioned_file_roundtrip_and_fallback() {
        let vt = VersionedTables {
            generation: 7,
            snap: sample(),
        };
        let bytes = vt.to_file_bytes();
        assert_eq!(VersionedTables::from_file_bytes(&bytes), Some(vt.clone()));
        assert_eq!(
            VersionedTables::from_any_file_bytes(&bytes),
            Some(vt.clone())
        );
        // Wrong magic, version, or trailing bytes all reject.
        let mut bad = vt.to_file_bytes();
        bad[0] ^= 0xff;
        assert_eq!(VersionedTables::from_file_bytes(&bad), None);
        let mut bad = vt.to_file_bytes();
        bad.push(0);
        assert_eq!(VersionedTables::from_file_bytes(&bad), None);
        // A legacy DWT1 file loads as generation 0.
        let legacy = vt.snap.to_file_bytes();
        assert_eq!(
            VersionedTables::from_any_file_bytes(&legacy),
            Some(VersionedTables {
                generation: 0,
                snap: vt.snap
            })
        );
    }

    #[test]
    fn arc_rows_keep_dwt1_bytes_stable() {
        // Carrying a row by reference into a second snapshot must not
        // change either snapshot's encoding.
        let snap = sample();
        let carried = TableSnapshot {
            n: snap.n,
            tables: snap.tables.clone(), // Arc clones, no deep copy
        };
        assert_eq!(snap.to_file_bytes(), carried.to_file_bytes());
        assert!(Arc::ptr_eq(&snap.tables[0], &carried.tables[0]));
    }

    #[test]
    fn corrupt_parent_chain_fails_closed() {
        let mut t = SourceTable {
            source: 0,
            dist: vec![0, 1, 2],
            parent: vec![None, Some(2), Some(1)], // 1 <-> 2 cycle
        };
        assert_eq!(t.path_to(2), None);
        t.parent = vec![None, None, Some(1)]; // dangling chain at 1
        assert_eq!(t.path_to(2), None);
    }

    #[test]
    fn shard_filter_partitions_rows() {
        let snap = sample();
        let map = ShardMap::new(12, 3);
        let mut total = 0;
        for s in 0..3 {
            let sub = snap.for_shard(&map, s);
            assert_eq!(sub.n, snap.n);
            for t in &sub.tables {
                assert_eq!(map.shard_of(t.source), s);
            }
            total += sub.tables.len();
        }
        assert_eq!(total, snap.tables.len());
    }
}
