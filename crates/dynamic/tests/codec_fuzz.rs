//! Property tests for the dynamic subsystem's wire formats:
//! [`UpdateBatch`] (the replayable batch encoding) and the versioned
//! `DWD1` table file. Whatever bytes arrive — random garbage, truncated
//! encodings, bit flips, lying length prefixes — decoding returns a
//! clean verdict, never panics, never allocates from a fabricated
//! length, and never reads past its own frame. Update streams can come
//! from operator files and sockets, so this boundary gets the same
//! blast-door treatment as the serve protocol.

use dw_congest::{from_bytes, to_bytes, WireCodec};
use dw_dynamic::UpdateBatch;
use dw_graph::EdgeUpdate;
use dw_serve::{SourceTable, TableSnapshot, VersionedTables};
use dw_transport::wire::{read_frame, write_frame, MAX_FRAME_BYTES};
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::Arc;

/// `(discriminant, src, dst, w)` → one of the 3 `EdgeUpdate` variants
/// (the vendored proptest has no `prop_oneof!`; same idiom as the
/// transport and serve fuzz suites).
fn arb_update() -> impl Strategy<Value = EdgeUpdate> {
    (0usize..3, any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(which, src, dst, w)| {
        match which {
            0 => EdgeUpdate::Insert { src, dst, w },
            1 => EdgeUpdate::SetWeight { src, dst, w },
            _ => EdgeUpdate::Remove { src, dst },
        }
    })
}

fn arb_batch() -> impl Strategy<Value = UpdateBatch> {
    (any::<u64>(), collection::vec(arb_update(), 0..24))
        .prop_map(|(seq, updates)| UpdateBatch { seq, updates })
}

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
    // Raw decode on arbitrary bytes never panics and only consumes a
    // prefix of its input.
    #[test]
    fn raw_decode_never_panics_or_over_reads(bytes in collection::vec(any::<u8>(), 0..256)) {
        let mut view = bytes.as_slice();
        let _ = EdgeUpdate::decode(&mut view);
        prop_assert!(view.len() <= bytes.len());

        let mut view = bytes.as_slice();
        let _ = UpdateBatch::decode(&mut view);
        prop_assert!(view.len() <= bytes.len());
    }

    // Framed garbage: clean EOF, a valid frame, or an error — never a
    // panic.
    #[test]
    fn framed_decode_never_panics_on_garbage(bytes in collection::vec(any::<u8>(), 0..256)) {
        let mut r = Cursor::new(bytes);
        let _ = read_frame::<_, UpdateBatch>(&mut r);
    }

    // Every batch survives a bytes roundtrip and a framed roundtrip,
    // and trailing bytes after the encoding are malformed.
    #[test]
    fn batches_roundtrip(b in arb_batch()) {
        let bytes = to_bytes(&b);
        prop_assert_eq!(from_bytes::<UpdateBatch>(&bytes), Some(b.clone()));
        let mut trailing = bytes.clone();
        trailing.push(0);
        prop_assert_eq!(from_bytes::<UpdateBatch>(&trailing), None);

        let mut scratch = Vec::new();
        let mut buf = Vec::new();
        write_frame(&mut buf, &b, &mut scratch).unwrap();
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame::<_, UpdateBatch>(&mut r).unwrap(), Some(b));
        prop_assert_eq!(read_frame::<_, UpdateBatch>(&mut r).unwrap(), None);
    }

    // Truncating a valid batch encoding anywhere strictly inside it is
    // rejected; flipping any byte never panics (a flipped tag must be
    // rejected, not misread).
    #[test]
    fn truncation_rejected_and_flips_never_panic(b in arb_batch(), cut_seed in any::<u64>(), flip in 1u8..=255) {
        let bytes = to_bytes(&b);
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert_eq!(from_bytes::<UpdateBatch>(&bytes[..cut]), None);

        let mut flipped = bytes;
        let pos = (cut_seed as usize) % flipped.len();
        flipped[pos] ^= flip;
        let _ = from_bytes::<UpdateBatch>(&flipped);
    }

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

/// A length prefix claiming more than `MAX_FRAME_BYTES` must be
/// rejected before any allocation.
#[test]
fn oversized_length_prefix_is_rejected() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
    buf.extend_from_slice(&[0u8; 64]);
    let mut r = Cursor::new(buf);
    assert!(read_frame::<_, UpdateBatch>(&mut r).is_err());
}
