//! Property tests for the dynamic subsystem's file format, the
//! versioned `DWD1` table file: garbage and truncation get a clean
//! verdict, never a panic, and valid files roundtrip.

use dw_serve::{SourceTable, TableSnapshot, VersionedTables};
use proptest::prelude::*;
use std::sync::Arc;

/// A structurally valid versioned snapshot (rows span `0..n`, sources
/// strictly increasing).
fn arb_versioned() -> impl Strategy<Value = VersionedTables> {
    (1u32..10, any::<u64>(), any::<u64>()).prop_map(|(n, generation, seed)| {
        let tables: Vec<Arc<SourceTable>> = (0..n)
            .filter(|s| (seed >> (s % 60)) & 1 == 1)
            .map(|source| {
                Arc::new(SourceTable::new(
                    source,
                    (0..n as u64).map(|v| v.wrapping_mul(seed | 1)).collect(),
                    (0..n)
                        .map(|v| (v % 2 == 1).then_some(v.saturating_sub(1)))
                        .collect(),
                ))
            })
            .collect();
        VersionedTables {
            generation,
            snap: TableSnapshot { n, tables },
        }
    })
}

proptest! {
    // The versioned `DWD1` file format is total: garbage and truncation
    // reject, valid files roundtrip with their generation, and the
    // accept-either entry point never confuses the two magics.
    #[test]
    fn versioned_file_parse_is_total(vt in arb_versioned(), cut_seed in any::<u64>(), garbage in collection::vec(any::<u8>(), 0..128)) {
        let _ = VersionedTables::from_file_bytes(&garbage);
        let _ = VersionedTables::from_any_file_bytes(&garbage);
        let bytes = vt.to_file_bytes();
        prop_assert_eq!(VersionedTables::from_file_bytes(&bytes), Some(vt.clone()));
        prop_assert_eq!(VersionedTables::from_any_file_bytes(&bytes), Some(vt.clone()));
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert_eq!(VersionedTables::from_any_file_bytes(&bytes[..cut]), None);
        // The same payload as a legacy DWT1 file comes back as
        // generation 0, payload intact.
        let legacy = vt.snap.to_file_bytes();
        prop_assert_eq!(
            VersionedTables::from_any_file_bytes(&legacy),
            Some(VersionedTables { generation: 0, snap: vt.snap })
        );
    }
}
