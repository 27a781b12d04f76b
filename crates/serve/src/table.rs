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
//! [`dw_congest::to_bytes`] / [`from_bytes`](dw_congest::from_bytes) — the same machinery that
//! persists checkpoint snapshots, with the same contract: a file is one
//! encoding, trailing bytes are malformed, and byte-identical inputs
//! produce byte-identical files (which is what the golden test pins).
//!
//! A table swap moves a [`TableDelta`], not a snapshot: the rows and
//! cells that differ from a base generation the receiver already holds,
//! applied copy-on-write by [`TableSnapshot::apply`]. A full install is
//! the same frame with no base and every row whole.
//!
//! A row may also hold, in memory only, the hop column the table repair
//! last wrote into it ([`SourceTable::hops`]). It is derived data: not
//! encoded, so `DWT1` / `DWD1` files and install frames are the same
//! bytes with or without it; not compared; left empty by every
//! constructor and decoder and on every row [`TableSnapshot::apply`]
//! patches; and checked by its one reader before use.

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
/// ([`dw_seqref::dijkstra`](mod@dw_seqref::dijkstra)'s module header): the fewest hops among the
/// shortest paths, then the smallest parent id.
///
/// `hops` is derived, in-memory data beside the row: the hop column `l`
/// (each cell's depth in the parent tree) that the table repair last
/// wrote into it, so that the next batch need not restore it from the
/// parents. It is empty unless the repair wrote the row; it is not
/// encoded and not part of equality; and nobody trusts it — the repair
/// uses it only after [`dw_seqref::hops_match`] has accepted it against
/// `dist` and `parent`, which it does exactly when it is the column
/// [`dw_seqref::hops_from_parents`] would restore.
#[derive(Debug, Clone)]
pub struct SourceTable {
    pub source: NodeId,
    pub dist: Vec<Weight>,
    pub parent: Vec<Option<NodeId>>,
    pub hops: Vec<u64>,
}

impl PartialEq for SourceTable {
    fn eq(&self, other: &Self) -> bool {
        (self.source, &self.dist, &self.parent) == (other.source, &other.dist, &other.parent)
    }
}

impl Eq for SourceTable {}

impl SourceTable {
    /// A row with no hop column beside it.
    pub fn new(source: NodeId, dist: Vec<Weight>, parent: Vec<Option<NodeId>>) -> SourceTable {
        SourceTable {
            source,
            dist,
            parent,
            hops: Vec::new(),
        }
    }

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
        Some(SourceTable::new(source, dist, parent))
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
            .map(|(i, &s)| Arc::new(SourceTable::new(s, r.dist[i].clone(), r.parent[i].clone())))
            .collect();
        TableSnapshot::normalize(tables, r.n() as u32)
    }

    /// Build from sequential-reference runs: the same bytes
    /// [`TableSnapshot::from_result`] builds from a quiet, full-range
    /// Algorithm-1 run over the same sources.
    pub fn from_sssp(runs: &[SsspResult], n: u32) -> TableSnapshot {
        let tables = runs
            .iter()
            .map(|r| Arc::new(SourceTable::new(r.source, r.dist.clone(), r.parent.clone())))
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

    /// Heap footprint of the persisted columns (distance and parent),
    /// for capacity logs.
    pub fn payload_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(|t| {
                t.dist.len() * std::mem::size_of::<Weight>()
                    + t.parent.len() * std::mem::size_of::<Option<NodeId>>()
            })
            .sum()
    }

    /// The snapshot `delta` describes, built copy-on-write: a delta with
    /// a base patches `self` (rows it does not name stay the same `Arc`s),
    /// one without a base ([`TableDelta::full`]) replaces it. `None` — and
    /// nothing built — for a delta that is not well formed
    /// ([`TableDelta::is_well_formed`]), whose `n` differs from its base's,
    /// or that patches cells of a row the base lacks. Whether `self` *is*
    /// the generation the delta names is the caller's check
    /// ([`VersionedTables::apply`]).
    pub fn apply(&self, delta: &TableDelta) -> Option<TableSnapshot> {
        let base: &[Arc<SourceTable>] = match delta.base {
            None => &[],
            Some(_) if delta.n != self.n => return None,
            Some(_) => &self.tables,
        };
        if !delta.is_well_formed() {
            return None;
        }
        let mut tables = Vec::with_capacity(base.len().max(delta.rows.len()));
        let mut carried = base.iter().peekable();
        for patch in &delta.rows {
            let source = patch.source();
            while let Some(t) = carried.next_if(|t| t.source < source) {
                tables.push(Arc::clone(t));
            }
            let old = carried.next_if(|t| t.source == source);
            tables.push(match patch {
                RowPatch::Whole(row) => Arc::clone(row),
                RowPatch::Cells { cells, .. } => {
                    // A patched row's old hop column no longer fits it.
                    let old = old?;
                    let mut row = SourceTable::new(source, old.dist.clone(), old.parent.clone());
                    for &(v, d, p) in cells {
                        *row.dist.get_mut(v as usize)? = d;
                        *row.parent.get_mut(v as usize)? = p;
                    }
                    Arc::new(row)
                }
            });
        }
        tables.extend(carried.cloned());
        Some(TableSnapshot { n: delta.n, tables })
    }
}

/// Wire bytes of one `Option<NodeId>`: a tag, then the id if present.
fn parent_wire_bytes(p: &Option<NodeId>) -> usize {
    if p.is_some() {
        5
    } else {
        1
    }
}

/// One row of a [`TableDelta`]: the whole row, or the cells that differ
/// from the base's row of the same source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowPatch {
    Whole(Arc<SourceTable>),
    /// `(node, dist, parent)` per changed cell, nodes strictly increasing.
    Cells {
        source: NodeId,
        cells: Vec<(NodeId, Weight, Option<NodeId>)>,
    },
}

impl RowPatch {
    pub fn source(&self) -> NodeId {
        match self {
            RowPatch::Whole(t) => t.source,
            RowPatch::Cells { source, .. } => *source,
        }
    }

    /// Exactly `dw_congest::to_bytes(self).len()`, without encoding.
    pub fn encoded_len(&self) -> usize {
        // tag + source + one length prefix per vector
        match self {
            RowPatch::Whole(t) => {
                let parents: usize = t.parent.iter().map(parent_wire_bytes).sum();
                1 + 4 + 4 + 8 * t.dist.len() + 4 + parents
            }
            RowPatch::Cells { cells, .. } => {
                let cells: usize = cells
                    .iter()
                    .map(|(_, _, p)| 12 + parent_wire_bytes(p))
                    .sum();
                1 + 4 + 4 + cells
            }
        }
    }

    /// How `new` differs from `old` (same source), whichever of the two
    /// shapes encodes smaller; `None` when no cell differs.
    fn diff(old: &SourceTable, new: &Arc<SourceTable>) -> Option<RowPatch> {
        let whole = RowPatch::Whole(Arc::clone(new));
        if old.dist.len() != new.dist.len() {
            return Some(whole);
        }
        let cells: Vec<_> = (0..new.dist.len())
            .filter(|&v| (old.dist[v], old.parent[v]) != (new.dist[v], new.parent[v]))
            .map(|v| (v as NodeId, new.dist[v], new.parent[v]))
            .collect();
        if cells.is_empty() {
            return None;
        }
        let cells = RowPatch::Cells {
            source: new.source,
            cells,
        };
        Some(if whole.encoded_len() < cells.encoded_len() {
            whole
        } else {
            cells
        })
    }
}

/// What a table install carries (DESIGN.md §14): the rows and cells of
/// a new generation that differ from generation `base`, which the
/// receiver must already hold, or — with `base: None` — every row whole.
/// Every table in the stack is the one `(d, l, parent)` tree of its
/// source, so a cell a batch did not move is the same bytes in both
/// generations and a diff carries exactly the cells that changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDelta {
    /// Node-id domain of the generation this builds.
    pub n: u32,
    /// The generation the patches apply to; `None` for a full install.
    pub base: Option<u64>,
    /// Sorted by source, one entry per source at most.
    pub rows: Vec<RowPatch>,
}

impl TableDelta {
    /// A full install: no base, every row of `snap` whole (by `Arc`).
    pub fn full(snap: &TableSnapshot) -> TableDelta {
        TableDelta {
            n: snap.n,
            base: None,
            rows: snap.tables.iter().cloned().map(RowPatch::Whole).collect(),
        }
    }

    /// `new` as patches onto `old`, generation `base`. A row that is the
    /// same `Arc` in both is skipped unread; any other is diffed cell by
    /// cell and sent as the smaller of its changed cells and the whole
    /// row. Snapshots over different domains or source sets are not
    /// diffed: that is [`TableDelta::full`].
    pub fn between(base: u64, old: &TableSnapshot, new: &TableSnapshot) -> TableDelta {
        let same_rows = old.n == new.n
            && old.tables.len() == new.tables.len()
            && old
                .tables
                .iter()
                .zip(&new.tables)
                .all(|(a, b)| a.source == b.source);
        if !same_rows {
            return TableDelta::full(new);
        }
        let rows = old
            .tables
            .iter()
            .zip(&new.tables)
            .filter(|(a, b)| !Arc::ptr_eq(a, b))
            .filter_map(|(a, b)| RowPatch::diff(a, b))
            .collect();
        TableDelta {
            n: new.n,
            base: Some(base),
            rows,
        }
    }

    /// The part of this delta shard `shard` of `map` installs: the rows
    /// whose source falls in its block ([`TableSnapshot::for_shard`]),
    /// same domain and base. A shard with no changed row gets an empty
    /// delta, which still moves it to the new generation.
    pub fn for_shard(&self, map: &ShardMap, shard: NodeId) -> TableDelta {
        let block = map.nodes(shard);
        TableDelta {
            n: self.n,
            base: self.base,
            rows: self
                .rows
                .iter()
                .filter(|r| block.contains(&r.source()))
                .cloned()
                .collect(),
        }
    }

    /// Rows strictly increasing by source, every source, cell and parent
    /// inside `0..n`, whole rows spanning `0..n`, each row's cells
    /// strictly increasing by node. Decoding refuses a frame that is not
    /// well formed, and [`TableSnapshot::apply`] a delta.
    pub fn is_well_formed(&self) -> bool {
        let n = self.n;
        let in_range = |p: &Option<NodeId>| p.is_none_or(|p| p < n);
        let row_ok = |r: &RowPatch| match r {
            RowPatch::Whole(t) => {
                t.dist.len() == n as usize
                    && t.parent.len() == n as usize
                    && t.parent.iter().all(in_range)
            }
            RowPatch::Cells { cells, .. } => {
                cells.iter().all(|(v, _, p)| *v < n && in_range(p))
                    && cells.windows(2).all(|w| w[0].0 < w[1].0)
            }
        };
        self.rows.iter().all(|r| r.source() < n && row_ok(r))
            && self.rows.windows(2).all(|w| w[0].source() < w[1].source())
    }

    /// Exactly `dw_congest::to_bytes(self).len()`, without encoding: what
    /// the install moves on the client connection, less the frame's
    /// length prefix.
    pub fn encoded_len(&self) -> usize {
        let base = if self.base.is_some() { 9 } else { 1 };
        let rows: usize = self.rows.iter().map(RowPatch::encoded_len).sum();
        4 + base + 4 + rows
    }
}

impl WireCodec for RowPatch {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RowPatch::Whole(t) => {
                out.push(0);
                t.encode(out);
            }
            RowPatch::Cells { source, cells } => {
                out.push(1);
                source.encode(out);
                cells.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(RowPatch::Whole(Arc::<SourceTable>::decode(buf)?)),
            1 => Some(RowPatch::Cells {
                source: NodeId::decode(buf)?,
                cells: Vec::decode(buf)?,
            }),
            _ => None,
        }
    }
}

impl WireCodec for TableDelta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.n.encode(out);
        self.base.encode(out);
        self.rows.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let delta = TableDelta {
            n: u32::decode(buf)?,
            base: Option::<u64>::decode(buf)?,
            rows: Vec::<RowPatch>::decode(buf)?,
        };
        delta.is_well_formed().then_some(delta)
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

    /// The shard's install rule: `delta` becomes generation `generation`
    /// only if that is strictly newer than `self` and the delta is full
    /// or based on exactly `self`'s generation. `None` means `self`
    /// stays live — a stale, duplicated or wrongly based install can
    /// never produce a table mixing two generations' rows.
    pub fn apply(&self, generation: u64, delta: &TableDelta) -> Option<VersionedTables> {
        if generation <= self.generation || delta.base.is_some_and(|b| b != self.generation) {
            return None;
        }
        Some(VersionedTables {
            generation,
            snap: self.snap.apply(delta)?,
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
    fn the_hop_column_is_neither_encoded_nor_compared() {
        let snap = sample();
        let mut carried = snap.clone();
        for t in &mut carried.tables {
            let t = Arc::make_mut(t);
            t.hops = dw_seqref::hops_from_parents(12, t.source, &t.dist, &t.parent).unwrap();
        }
        assert_eq!(carried, snap);
        assert_eq!(carried.to_file_bytes(), snap.to_file_bytes());
        let decoded = TableSnapshot::from_file_bytes(&carried.to_file_bytes()).unwrap();
        assert!(decoded.tables.iter().all(|t| t.hops.is_empty()));
        // A row the delta patches loses its column; the rest stay shared.
        let delta = TableDelta::between(0, &carried, &edited(&carried));
        let built = carried.apply(&delta).unwrap();
        assert!(built.tables[2].hops.is_empty() && built.tables[3].hops.is_empty());
        assert!(Arc::ptr_eq(&built.tables[0], &carried.tables[0]));
    }

    #[test]
    fn corrupt_parent_chain_fails_closed() {
        let mut t = SourceTable::new(0, vec![0, 1, 2], vec![None, Some(2), Some(1)]); // 1 <-> 2 cycle
        assert_eq!(t.path_to(2), None);
        t.parent = vec![None, None, Some(1)]; // dangling chain at 1
        assert_eq!(t.path_to(2), None);
    }

    /// `sample()` with row 2's cell 5 and row 3's cells 1 and 7 moved.
    fn edited(snap: &TableSnapshot) -> TableSnapshot {
        let mut next = snap.clone();
        Arc::make_mut(&mut next.tables[2]).dist[5] = 776;
        let row = Arc::make_mut(&mut next.tables[3]);
        row.dist[1] = 777;
        row.dist[7] = 778;
        next
    }

    #[test]
    fn a_delta_carries_the_changed_cells_and_applies_copy_on_write() {
        let snap = sample();
        let next = edited(&snap);
        let delta = TableDelta::between(4, &snap, &next);
        assert_eq!(delta.base, Some(4));
        let changed: Vec<(NodeId, usize)> = delta
            .rows
            .iter()
            .map(|r| match r {
                RowPatch::Cells { source, cells } => (*source, cells.len()),
                RowPatch::Whole(t) => panic!("row {} sent whole", t.source),
            })
            .collect();
        assert_eq!(changed, vec![(2, 1), (3, 2)]);
        assert_eq!(delta.encoded_len(), dw_congest::to_bytes(&delta).len());

        let built = snap
            .apply(&delta)
            .expect("a delta onto its own base applies");
        assert_eq!(built, next);
        for i in [0, 1] {
            assert!(Arc::ptr_eq(&built.tables[i], &snap.tables[i]));
        }
        // No base: every row whole, whatever `self` held.
        let full = TableDelta::full(&next);
        assert_eq!(full.encoded_len(), dw_congest::to_bytes(&full).len());
        let empty = TableSnapshot {
            n: 12,
            tables: vec![],
        };
        assert_eq!(empty.apply(&full), Some(next.clone()));
        // A row whose every cell moved is cheaper whole.
        let mut moved = snap.clone();
        let row = Arc::make_mut(&mut moved.tables[0]);
        row.dist.iter_mut().for_each(|d| *d = d.wrapping_add(1));
        let delta = TableDelta::between(0, &snap, &moved);
        assert!(matches!(&delta.rows[..], [RowPatch::Whole(t)] if t.source == 0));
    }

    #[test]
    fn apply_refuses_every_malformed_delta() {
        let snap = sample();
        let good = TableDelta::between(1, &snap, &edited(&snap));
        assert_eq!(snap.apply(&good), Some(edited(&snap)));
        // In memory, and through the wire: what decodes must still apply.
        let refused = |what: &str, edit: &dyn Fn(&mut TableDelta)| {
            let mut d = good.clone();
            edit(&mut d);
            assert_eq!(snap.apply(&d), None, "{what}");
            let decoded = dw_congest::from_bytes::<TableDelta>(&dw_congest::to_bytes(&d));
            assert_eq!(decoded.and_then(|d| snap.apply(&d)), None, "{what}");
        };
        refused("cell past n", &|d| {
            if let RowPatch::Cells { cells, .. } = &mut d.rows[0] {
                cells[0].0 = 12;
            }
        });
        refused("parent past n", &|d| {
            if let RowPatch::Cells { cells, .. } = &mut d.rows[0] {
                cells[0].2 = Some(12);
            }
        });
        refused("whole row with a parent past n", &|d| {
            let mut t = SourceTable::clone(&snap.tables[2]);
            t.parent[3] = Some(40);
            d.rows[0] = RowPatch::Whole(Arc::new(t));
        });
        refused("whole row not spanning n", &|d| {
            let mut t = SourceTable::clone(&snap.tables[2]);
            t.dist.pop();
            t.parent.pop();
            d.rows[0] = RowPatch::Whole(Arc::new(t));
        });
        refused("source past n", &|d| {
            d.rows.push(RowPatch::Cells {
                source: 12,
                cells: vec![],
            })
        });
        refused("cells of a row the base lacks", &|d| {
            d.rows.push(RowPatch::Cells {
                source: 9,
                cells: vec![(0, 1, None)],
            })
        });
        refused("rows out of order", &|d| d.rows.reverse());
        refused("a row twice", &|d| {
            let again = d.rows[1].clone();
            d.rows.push(again);
        });
        refused("cells out of order", &|d| {
            if let RowPatch::Cells { cells, .. } = &mut d.rows[1] {
                cells.reverse();
            }
        });
        refused("another domain", &|d| d.n = 13);
        refused("cells with no base", &|d| d.base = None);
    }

    #[test]
    fn an_install_needs_a_newer_generation_and_its_own_base() {
        let live = VersionedTables {
            generation: 3,
            snap: sample(),
        };
        let next = edited(&live.snap);
        let onto_3 = TableDelta::between(3, &live.snap, &next);
        let applied = live.apply(4, &onto_3).expect("newer, on the live base");
        assert_eq!((applied.generation, &applied.snap), (4, &next));
        assert_eq!(live.apply(3, &onto_3), None, "not newer");
        let onto_2 = TableDelta::between(2, &live.snap, &next);
        assert_eq!(live.apply(4, &onto_2), None, "another base");
        let full = live
            .apply(9, &TableDelta::full(&next))
            .expect("a full install");
        assert_eq!(full.snap, next);
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
