//! Property tests for the serving-plane wire types: whatever bytes a
//! client or gateway peer sends — random garbage, truncated frames,
//! bit-flipped encodings, lying length prefixes — decoding returns a
//! clean verdict, never panics, never allocates from a fabricated
//! length, and never reads past its own frame. The gateway faces
//! untrusted clients, so this boundary is the serving plane's blast
//! door. Table installs travel as [`TableDelta`]s, so the delta is held
//! to the same contract inside both frames that carry it, and a decoded
//! install must move a shard only onto the generation it is based on.

use dw_congest::WireCodec;
use dw_serve::table::{RowPatch, SourceTable, TableDelta, TableSnapshot, VersionedTables};
use dw_serve::{
    ApplyReport, ClientReply, ClientRequest, QueryBatch, QueryOutcome, QueryReply, QueryRequest,
    ReplyBatch, ShardFrame, ShardReply,
};
use dw_transport::wire::{read_frame, write_frame, MAX_FRAME_BYTES};
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::Arc;

// The vendored proptest has no `prop_oneof!`, so variant selection is a
// discriminant drawn alongside a bag of field material (same idiom as
// the transport codec fuzz suite).

/// `(discriminant, a, b, path)` → one of the 6 `QueryOutcome` variants.
fn arb_outcome() -> impl Strategy<Value = QueryOutcome> {
    (
        0usize..6,
        any::<u64>(),
        any::<u32>(),
        collection::vec(any::<u32>(), 0..12),
    )
        .prop_map(|(which, a, b, path)| match which {
            0 => QueryOutcome::Dist { dist: a },
            1 => QueryOutcome::Path { dist: a, path },
            2 => QueryOutcome::Unreachable,
            3 => QueryOutcome::UnknownSource,
            4 => QueryOutcome::OutOfRange,
            _ => QueryOutcome::ShardUnavailable {
                shard: b,
                lo: a as u32,
                hi: (a >> 32) as u32,
            },
        })
}

fn arb_request() -> impl Strategy<Value = QueryRequest> {
    (any::<u64>(), any::<u32>(), any::<u32>(), any::<bool>()).prop_map(
        |(id, src, dst, want_path)| QueryRequest {
            id,
            src,
            dst,
            want_path,
        },
    )
}

fn arb_reply() -> impl Strategy<Value = QueryReply> {
    (any::<u64>(), arb_outcome()).prop_map(|(id, outcome)| QueryReply { id, outcome })
}

fn arb_query_batch() -> impl Strategy<Value = QueryBatch> {
    (any::<u64>(), collection::vec(arb_request(), 0..12))
        .prop_map(|(seq, queries)| QueryBatch { seq, queries })
}

fn arb_reply_batch() -> impl Strategy<Value = ReplyBatch> {
    (
        any::<u64>(),
        collection::vec(arb_reply(), 0..12),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(seq, replies, lookup_ns, walk_ns)| ReplyBatch {
            seq,
            replies,
            lookup_ns,
            walk_ns,
        })
}

/// A structurally valid snapshot: every row spans `0..n`, sources
/// strictly increasing.
fn arb_snapshot() -> impl Strategy<Value = TableSnapshot> {
    (1u32..12, collection::vec(any::<u64>(), 0..12), any::<u64>()).prop_map(
        |(n, row_material, seed)| {
            let tables: Vec<Arc<SourceTable>> = (0..n)
                .filter(|s| (seed >> (s % 60)) & 1 == 1)
                .map(|source| {
                    Arc::new(SourceTable::new(
                        source,
                        (0..n as usize)
                            .map(|v| {
                                row_material
                                    .get(v % row_material.len().max(1))
                                    .copied()
                                    .unwrap_or(u64::MAX)
                            })
                            .collect(),
                        (0..n)
                            .map(|v| (v % 3 == 1).then_some(v.saturating_sub(1)))
                            .collect(),
                    ))
                })
                .collect();
            TableSnapshot { n, tables }
        },
    )
}

/// A well-formed delta over an [`arb_snapshot`]: each row whole or a
/// seeded subset of its cells, with or without a base.
fn arb_delta() -> impl Strategy<Value = TableDelta> {
    (arb_snapshot(), any::<u64>(), any::<u64>()).prop_map(|(snap, base, seed)| {
        let rows = snap
            .tables
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let bits = seed.rotate_left(i as u32 * 7);
                if bits & 1 == 1 {
                    RowPatch::Whole(t)
                } else {
                    let cells = (0..snap.n)
                        .filter(|v| (bits >> (1 + v % 63)) & 1 == 1)
                        .map(|v| (v, t.dist[v as usize], t.parent[v as usize]))
                        .collect();
                    RowPatch::Cells {
                        source: t.source,
                        cells,
                    }
                }
            })
            .collect();
        TableDelta {
            n: snap.n,
            base: (base % 3 != 0).then_some(base),
            rows,
        }
    })
}

/// `(discriminant, request, generation, delta)` → a `ClientRequest`.
fn arb_client_request() -> impl Strategy<Value = ClientRequest> {
    (0usize..2, arb_request(), any::<u64>(), arb_delta()).prop_map(
        |(which, req, generation, delta)| match which {
            0 => ClientRequest::Query(req),
            _ => ClientRequest::ApplyTables { generation, delta },
        },
    )
}

fn arb_client_reply() -> impl Strategy<Value = ClientReply> {
    (
        0usize..3,
        arb_reply(),
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
    )
        .prop_map(
            |(which, reply, generation, installed, down, accepted)| match which {
                0 => ClientReply::Query(reply),
                1 => ClientReply::NeedFull,
                _ => ClientReply::ApplyDone(ApplyReport {
                    accepted,
                    generation,
                    shards_installed: installed,
                    shards_down: down,
                    install_bytes: generation.rotate_left(17),
                    full: !accepted,
                }),
            },
        )
}

fn arb_shard_frame() -> impl Strategy<Value = ShardFrame> {
    (0usize..2, arb_query_batch(), any::<u64>(), arb_delta()).prop_map(
        |(which, qb, generation, delta)| match which {
            0 => ShardFrame::Queries(qb),
            _ => ShardFrame::Install { generation, delta },
        },
    )
}

/// `frame` through the framed writer and reader.
fn framed<T: WireCodec>(frame: &T) -> std::io::Result<Option<T>> {
    let mut buf = Vec::new();
    write_frame(&mut buf, frame, &mut Vec::new()).unwrap();
    read_frame(&mut Cursor::new(buf))
}

fn arb_shard_reply() -> impl Strategy<Value = ShardReply> {
    (0usize..2, arb_reply_batch(), any::<u64>()).prop_map(|(which, rb, generation)| match which {
        0 => ShardReply::Replies(rb),
        _ => ShardReply::Installed { generation },
    })
}

proptest! {
    // Arbitrary bytes through the framed reader for every serve frame
    // kind: clean EOF, a valid frame, or an error — never a panic.
    #[test]
    fn framed_decode_never_panics_on_garbage(bytes in collection::vec(any::<u8>(), 0..256)) {
        let mut r = Cursor::new(bytes.clone());
        let _ = read_frame::<_, QueryRequest>(&mut r);
        let mut r = Cursor::new(bytes.clone());
        let _ = read_frame::<_, QueryReply>(&mut r);
        let mut r = Cursor::new(bytes.clone());
        let _ = read_frame::<_, QueryBatch>(&mut r);
        let mut r = Cursor::new(bytes.clone());
        let _ = read_frame::<_, ReplyBatch>(&mut r);
        let mut r = Cursor::new(bytes.clone());
        let _ = read_frame::<_, ClientRequest>(&mut r);
        let mut r = Cursor::new(bytes.clone());
        let _ = read_frame::<_, ClientReply>(&mut r);
        let mut r = Cursor::new(bytes.clone());
        let _ = read_frame::<_, ShardFrame>(&mut r);
        let mut r = Cursor::new(bytes);
        let _ = read_frame::<_, ShardReply>(&mut r);
    }

    // Raw decode on arbitrary bytes never panics and only consumes a
    // prefix of its input (the no-over-read contract).
    #[test]
    fn raw_decode_never_panics_or_over_reads(bytes in collection::vec(any::<u8>(), 0..256)) {
        let mut view = bytes.as_slice();
        let _ = QueryOutcome::decode(&mut view);
        prop_assert!(view.len() <= bytes.len());

        let mut view = bytes.as_slice();
        let _ = ReplyBatch::decode(&mut view);
        prop_assert!(view.len() <= bytes.len());

        let mut view = bytes.as_slice();
        let _ = TableSnapshot::decode(&mut view);
        prop_assert!(view.len() <= bytes.len());

        let mut view = bytes.as_slice();
        let _ = ClientRequest::decode(&mut view);
        prop_assert!(view.len() <= bytes.len());

        let mut view = bytes.as_slice();
        let _ = ShardFrame::decode(&mut view);
        prop_assert!(view.len() <= bytes.len());

        let mut view = bytes.as_slice();
        let _ = TableDelta::decode(&mut view);
        prop_assert!(view.len() <= bytes.len());

        let mut view = bytes.as_slice();
        let _ = RowPatch::decode(&mut view);
        prop_assert!(view.len() <= bytes.len());
    }

    // A persisted table file made of garbage is rejected, not a panic;
    // so is any truncation of a valid file. Same for the versioned
    // (`DWD1`) format and the accept-either entry point.
    #[test]
    fn snapshot_file_parse_is_total(snap in arb_snapshot(), gen in any::<u64>(), cut_seed in any::<u64>(), garbage in collection::vec(any::<u8>(), 0..128)) {
        let _ = TableSnapshot::from_file_bytes(&garbage);
        let _ = VersionedTables::from_file_bytes(&garbage);
        let _ = VersionedTables::from_any_file_bytes(&garbage);
        let bytes = snap.to_file_bytes();
        prop_assert_eq!(TableSnapshot::from_file_bytes(&bytes), Some(snap.clone()));
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert_eq!(TableSnapshot::from_file_bytes(&bytes[..cut]), None);

        let vt = VersionedTables { generation: gen, snap };
        let vbytes = vt.to_file_bytes();
        prop_assert_eq!(VersionedTables::from_file_bytes(&vbytes), Some(vt.clone()));
        prop_assert_eq!(VersionedTables::from_any_file_bytes(&vbytes), Some(vt.clone()));
        let cut = (cut_seed as usize) % vbytes.len();
        prop_assert_eq!(VersionedTables::from_any_file_bytes(&vbytes[..cut]), None);
        // A legacy file through the accept-either gate keeps its payload
        // and loads as generation 0.
        prop_assert_eq!(
            VersionedTables::from_any_file_bytes(&bytes),
            Some(VersionedTables { generation: 0, snap: vt.snap })
        );
    }

    // A row's column-at-a-time codec writes the bytes the generic codec
    // writes for `(source, dist, parent)`, exactly `encoded_len` of them,
    // and reads them back. A parent column whose length prefix disagrees
    // with the distance column's, or that holds a tag other than 0 or 1,
    // never decodes.
    #[test]
    fn a_row_is_the_generic_tuple_on_the_wire(snap in arb_snapshot(), lie in 1u32..4, tag in 2u8..=255) {
        for t in &snap.tables {
            let bytes = dw_congest::to_bytes(t.as_ref());
            let generic = dw_congest::to_bytes(&(t.source, t.dist.clone(), t.parent.clone()));
            prop_assert_eq!(&bytes, &generic);
            prop_assert_eq!(bytes.len(), t.encoded_len());
            prop_assert_eq!(dw_congest::from_bytes::<SourceTable>(&bytes), Some(t.as_ref().clone()));

            let prefix = 8 + 8 * t.dist.len();
            for claimed in [t.parent.len() as u32 + lie, (t.parent.len() as u32).wrapping_sub(lie)] {
                let mut lying = bytes.clone();
                lying[prefix..prefix + 4].copy_from_slice(&claimed.to_le_bytes());
                prop_assert_eq!(dw_congest::from_bytes::<SourceTable>(&lying), None);
            }
            let mut bad_tag = bytes.clone();
            bad_tag[prefix + 4] = tag;
            prop_assert_eq!(dw_congest::from_bytes::<SourceTable>(&bad_tag), None);
        }
    }

    // Every tagged swap-protocol frame survives a framed roundtrip.
    #[test]
    fn swap_frames_roundtrip(req in arb_client_request(), reply in arb_client_reply(), sf in arb_shard_frame(), sr in arb_shard_reply()) {
        let mut scratch = Vec::new();
        let mut buf = Vec::new();
        write_frame(&mut buf, &req, &mut scratch).unwrap();
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame::<_, ClientRequest>(&mut r).unwrap(), Some(req));

        let mut buf = Vec::new();
        write_frame(&mut buf, &reply, &mut scratch).unwrap();
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame::<_, ClientReply>(&mut r).unwrap(), Some(reply));

        let mut buf = Vec::new();
        write_frame(&mut buf, &sf, &mut scratch).unwrap();
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame::<_, ShardFrame>(&mut r).unwrap(), Some(sf));

        let mut buf = Vec::new();
        write_frame(&mut buf, &sr, &mut scratch).unwrap();
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame::<_, ShardReply>(&mut r).unwrap(), Some(sr));
    }

    // Truncating a valid swap frame anywhere strictly inside it is an
    // error or clean EOF, never a phantom success; bit flips never
    // panic, and a flipped delta that still decodes is well formed.
    #[test]
    fn swap_frames_reject_truncation_and_survive_flips(sf in arb_shard_frame(), req in arb_client_request(), cut_seed in any::<u64>(), flip in 1u8..=255) {
        let mut scratch = Vec::new();
        let mut buf = Vec::new();
        write_frame(&mut buf, &sf, &mut scratch).unwrap();
        let full = buf.clone();
        buf.truncate((cut_seed as usize) % buf.len());
        let mut r = Cursor::new(buf);
        if let Ok(Some(_)) = read_frame::<_, ShardFrame>(&mut r) {
            prop_assert!(false, "truncated ShardFrame decoded successfully");
        }
        let mut flipped = full;
        let pos = (cut_seed as usize) % flipped.len();
        flipped[pos] ^= flip;
        let mut r = Cursor::new(flipped);
        if let Ok(Some(ShardFrame::Install { delta, .. })) = read_frame::<_, ShardFrame>(&mut r) {
            prop_assert!(delta.is_well_formed());
        }

        let mut buf = Vec::new();
        write_frame(&mut buf, &req, &mut scratch).unwrap();
        let mut flipped = buf.clone();
        buf.truncate((cut_seed as usize) % buf.len());
        let mut r = Cursor::new(buf);
        if let Ok(Some(_)) = read_frame::<_, ClientRequest>(&mut r) {
            prop_assert!(false, "truncated ClientRequest decoded successfully");
        }
        let pos = (cut_seed as usize) % flipped.len();
        flipped[pos] ^= flip;
        let mut r = Cursor::new(flipped);
        if let Ok(Some(ClientRequest::ApplyTables { delta, .. })) = read_frame::<_, ClientRequest>(&mut r) {
            prop_assert!(delta.is_well_formed());
        }
    }

    // A cell or parent index at or past `n` never decodes, whichever
    // frame carries the delta, and a lying vector length inside it
    // neither allocates for the lie nor decodes.
    #[test]
    fn out_of_range_indices_and_lying_lengths_never_decode(delta in arb_delta(), over in 0u32..1000, pick in any::<u64>()) {
        let n = delta.n;
        let mut bad = delta.clone();
        let at = (pick as usize) % bad.rows.len().max(1);
        match bad.rows.get_mut(at) {
            Some(RowPatch::Cells { cells, .. }) if !cells.is_empty() => {
                let c = (pick as usize >> 8) % cells.len();
                if pick & 1 == 1 { cells[c].0 = n + over } else { cells[c].2 = Some(n + over) }
            }
            Some(RowPatch::Whole(t)) => {
                let v = (pick as usize >> 8) % t.parent.len();
                std::sync::Arc::make_mut(t).parent[v] = Some(n + over);
            }
            _ => bad.rows.push(RowPatch::Cells { source: n - 1, cells: vec![(n + over, 0, None)] }),
        }
        // Sources must still be increasing for the index to be the only fault.
        prop_assume!(bad.rows.windows(2).all(|w| w[0].source() < w[1].source()));
        prop_assert!(!bad.is_well_formed());
        prop_assert!(framed(&ShardFrame::Install { generation: 1, delta: bad.clone() }).is_err());
        prop_assert!(framed(&ClientRequest::ApplyTables { generation: 1, delta: bad }).is_err());

        // The rows vector's length prefix sits after `n` and the base.
        let mut bytes = dw_congest::to_bytes(&delta);
        let at = 4 + if delta.base.is_some() { 9 } else { 1 };
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        prop_assert_eq!(dw_congest::from_bytes::<TableDelta>(&bytes), None);
    }

    // A decoded install moves a shard only onto the generation it is
    // based on: onto any other it is refused whole, never half applied.
    #[test]
    fn a_decoded_install_applies_only_onto_its_base(snap in arb_snapshot(), live_gen in 0u64..4, base in 0u64..4, bump in 1u64..3, seed in any::<u64>()) {
        let mut next = snap.clone();
        for t in &mut next.tables {
            let row = std::sync::Arc::make_mut(t);
            let v = (seed as usize) % row.dist.len();
            row.dist[v] ^= 1;
        }
        let generation = live_gen + bump;
        let install = ShardFrame::Install { generation, delta: TableDelta::between(base, &snap, &next) };
        let Ok(Some(ShardFrame::Install { delta, .. })) = framed(&install) else {
            panic!("an install frame did not survive the wire");
        };
        let live = VersionedTables { generation: live_gen, snap };
        let want = (base == live_gen).then_some(VersionedTables { generation, snap: next });
        prop_assert_eq!(live.apply(generation, &delta), want);
        // A stale install is refused on any base.
        prop_assert_eq!(live.apply(live_gen, &delta), None);
    }

    // Every query/reply/batch shape survives a framed roundtrip.
    #[test]
    fn query_frames_roundtrip(req in arb_request(), reply in arb_reply(), qb in arb_query_batch(), rb in arb_reply_batch()) {
        let mut scratch = Vec::new();
        let mut buf = Vec::new();
        write_frame(&mut buf, &req, &mut scratch).unwrap();
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame::<_, QueryRequest>(&mut r).unwrap(), Some(req));

        let mut buf = Vec::new();
        write_frame(&mut buf, &reply, &mut scratch).unwrap();
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame::<_, QueryReply>(&mut r).unwrap(), Some(reply));

        let mut buf = Vec::new();
        write_frame(&mut buf, &qb, &mut scratch).unwrap();
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame::<_, QueryBatch>(&mut r).unwrap(), Some(qb));

        let mut buf = Vec::new();
        write_frame(&mut buf, &rb, &mut scratch).unwrap();
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame::<_, ReplyBatch>(&mut r).unwrap(), Some(rb));
        prop_assert_eq!(read_frame::<_, ReplyBatch>(&mut r).unwrap(), None);
    }

    // Truncating a valid batch encoding anywhere strictly inside it is
    // an error or clean EOF, never a phantom success.
    #[test]
    fn truncated_batches_are_rejected(qb in arb_query_batch(), rb in arb_reply_batch(), cut_seed in any::<u64>()) {
        let mut scratch = Vec::new();
        let mut buf = Vec::new();
        write_frame(&mut buf, &qb, &mut scratch).unwrap();
        buf.truncate((cut_seed as usize) % buf.len());
        let mut r = Cursor::new(buf);
        if let Ok(Some(_)) = read_frame::<_, QueryBatch>(&mut r) {
            prop_assert!(false, "truncated QueryBatch decoded successfully");
        }

        let mut buf = Vec::new();
        write_frame(&mut buf, &rb, &mut scratch).unwrap();
        buf.truncate((cut_seed as usize) % buf.len());
        let mut r = Cursor::new(buf);
        if let Ok(Some(_)) = read_frame::<_, ReplyBatch>(&mut r) {
            prop_assert!(false, "truncated ReplyBatch decoded successfully");
        }
    }

    // Flipping any single byte of a valid encoding never panics; the
    // reader returns some clean verdict (possibly a different valid
    // message — there is no checksum — but never a crash).
    #[test]
    fn bit_flipped_frames_never_panic(rb in arb_reply_batch(), pos_seed in any::<u64>(), flip in 1u8..=255) {
        let mut scratch = Vec::new();
        let mut buf = Vec::new();
        write_frame(&mut buf, &rb, &mut scratch).unwrap();
        let pos = (pos_seed as usize) % buf.len();
        buf[pos] ^= flip;
        let mut r = Cursor::new(buf);
        let _ = read_frame::<_, ReplyBatch>(&mut r);
    }

    // A reply batch followed by trailing bytes decodes to exactly
    // itself and leaves the cursor at the frame boundary — the
    // no-over-read property the gateway's seq-matched reads rely on.
    #[test]
    fn decode_stops_at_frame_boundary(rb in arb_reply_batch(), trailer in collection::vec(any::<u8>(), 1..32)) {
        let mut scratch = Vec::new();
        let mut buf = Vec::new();
        write_frame(&mut buf, &rb, &mut scratch).unwrap();
        let frame_len = buf.len();
        buf.extend_from_slice(&trailer);
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame::<_, ReplyBatch>(&mut r).unwrap(), Some(rb));
        prop_assert_eq!(r.position() as usize, frame_len);
    }
}

/// A length prefix claiming more than `MAX_FRAME_BYTES` must be
/// rejected before any allocation, whatever query frame it pretends to
/// carry — an untrusted client cannot demand a multi-gigabyte buffer.
#[test]
fn oversized_length_prefix_is_rejected() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
    buf.extend_from_slice(&[0u8; 64]);
    let mut r = Cursor::new(buf.clone());
    assert!(read_frame::<_, QueryRequest>(&mut r).is_err());
    let mut r = Cursor::new(buf.clone());
    assert!(read_frame::<_, QueryBatch>(&mut r).is_err());
    let mut r = Cursor::new(buf.clone());
    assert!(read_frame::<_, ClientRequest>(&mut r).is_err());
    let mut r = Cursor::new(buf);
    assert!(read_frame::<_, ShardFrame>(&mut r).is_err());
}
