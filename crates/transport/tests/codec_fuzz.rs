//! Property tests for the binary wire codec: whatever bytes arrive —
//! random garbage, truncated frames, bit-flipped or extended valid
//! encodings — decoding returns a clean `Err`/`None`, never panics,
//! never allocates from a lying length prefix, and never reads past
//! its own frame. A malformed peer must not be able to crash a worker.

use dw_congest::{RunOutcome, WireCodec};
use dw_transport::wire::{read_frame, write_frame, BatchEntry, CtlMsg, Frame, NodeReport};
use proptest::prelude::*;
use std::io::Cursor;

// The vendored proptest has no `prop_oneof!`, so variant selection is a
// discriminant drawn alongside a bag of field material: every variant
// of the enum is reachable, and the field values still vary freely.

fn opt(flag: u64, value: u64) -> Option<u64> {
    (flag & 1 == 1).then_some(value)
}

/// `(discriminant, a, b, c, bytes, rounds)` → one of the 12 `CtlMsg`
/// variants.
fn arb_ctl() -> impl Strategy<Value = CtlMsg> {
    (
        0usize..12,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        collection::vec(any::<u8>(), 0..64),
        collection::vec(any::<u64>(), 0..16),
    )
        .prop_map(|(which, a, b, c, bytes, rounds)| match which {
            0 => CtlMsg::Go { round: a },
            1 => CtlMsg::Stop {
                outcome: if a & 1 == 0 {
                    RunOutcome::Quiet
                } else {
                    RunOutcome::BudgetExhausted
                },
            },
            2 => CtlMsg::Done {
                round: a,
                sent: b,
                late: c,
                hint: opt(a >> 1, b ^ c),
                pending_due: opt(a >> 2, b.wrapping_add(c)),
            },
            3 => CtlMsg::Final {
                report: NodeReport {
                    node_sends: a,
                    messages: b,
                    total_words: c,
                    max_link_load: a ^ b,
                    dropped: a ^ c,
                    outage_dropped: b ^ c,
                    duplicated: a.wrapping_add(b),
                    delayed: b.wrapping_add(c),
                    late_delivered: a.wrapping_mul(3),
                },
            },
            4 => CtlMsg::Checkpoint {
                round: a,
                data: bytes,
            },
            5 => CtlMsg::Ping,
            6 => CtlMsg::Pong { round: a },
            7 => CtlMsg::Rejoin {
                round: a,
                checkpoint_round: b,
                snapshot: bytes,
                executed: rounds,
            },
            8 => CtlMsg::ReplayRequest {
                target: a as u32,
                from_round: b,
            },
            9 => CtlMsg::Error {
                kind: (a % 5) as u8,
                peer: opt(b, c).map(|p| p as u32),
                round: c,
            },
            10 => CtlMsg::Abort {
                reason: (a % 6) as u8,
            },
            _ => CtlMsg::Go { round: b },
        })
}

/// `(from, to, due, msg)` → one sharded batch entry.
fn arb_entry() -> impl Strategy<Value = BatchEntry<u64>> {
    (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>())
        .prop_map(|(from, to, due, msg)| BatchEntry { from, to, due, msg })
}

/// `(discriminant, round, entries)` → one of the 3 frame kinds.
fn arb_frame() -> impl Strategy<Value = Frame<u64>> {
    (0usize..3, any::<u64>(), collection::vec(arb_entry(), 0..12)).prop_map(
        |(which, round, entries)| match which {
            0 => Frame::EndRound { round },
            1 => Frame::RoundBatch { round, entries },
            _ => Frame::BatchReplay {
                frames: entries.into_iter().map(|e| (round, e)).collect(),
            },
        },
    )
}

proptest! {
    // Arbitrary bytes through the framed reader: `Ok(None)` (clean
    // EOF), `Ok(Some(..))` (the bytes happened to be a valid frame),
    // or `Err` — never a panic, never a runaway allocation.
    #[test]
    fn framed_decode_never_panics_on_garbage(bytes in collection::vec(any::<u8>(), 0..256)) {
        let mut r = Cursor::new(bytes.clone());
        let _ = read_frame::<_, CtlMsg>(&mut r);
        let mut r = Cursor::new(bytes);
        let _ = read_frame::<_, Frame<u64>>(&mut r);
    }

    // Raw (unframed) codec decode on arbitrary bytes never panics and
    // only ever consumes a prefix of its input.
    #[test]
    fn raw_decode_never_panics_or_over_reads(bytes in collection::vec(any::<u8>(), 0..256)) {
        let mut view = bytes.as_slice();
        let _ = CtlMsg::decode(&mut view);
        prop_assert!(view.len() <= bytes.len());

        let mut view = bytes.as_slice();
        let _ = Frame::<u64>::decode(&mut view);
        prop_assert!(view.len() <= bytes.len());
    }

    // Control messages survive an encode/decode roundtrip untouched.
    #[test]
    fn ctl_roundtrips(msg in arb_ctl()) {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut buf, &msg, &mut scratch).unwrap();
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame::<_, CtlMsg>(&mut r).unwrap(), Some(msg));
        prop_assert_eq!(read_frame::<_, CtlMsg>(&mut r).unwrap(), None);
    }

    // Frames survive an encode/decode roundtrip untouched.
    #[test]
    fn frame_roundtrips(frame in arb_frame()) {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut buf, &frame, &mut scratch).unwrap();
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame::<_, Frame<u64>>(&mut r).unwrap(), Some(frame));
        prop_assert_eq!(read_frame::<_, Frame<u64>>(&mut r).unwrap(), None);
    }

    // Truncating a valid encoding anywhere strictly inside it is an
    // error (or clean EOF when the cut lands before the header ends),
    // never a panic or a phantom success.
    #[test]
    fn truncated_ctl_is_rejected(msg in arb_ctl(), cut_seed in any::<u64>()) {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut buf, &msg, &mut scratch).unwrap();
        let cut = (cut_seed as usize) % buf.len();
        buf.truncate(cut);
        let mut r = Cursor::new(buf);
        if let Ok(Some(_)) = read_frame::<_, CtlMsg>(&mut r) {
            prop_assert!(false, "truncated frame decoded successfully");
        }
    }

    // Flipping any single byte of a valid encoding never panics; the
    // reader returns some clean verdict (possibly a different valid
    // message — the codec has no checksum — but never a crash).
    #[test]
    fn bit_flipped_ctl_never_panics(msg in arb_ctl(), pos_seed in any::<u64>(), flip in 1u8..=255) {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut buf, &msg, &mut scratch).unwrap();
        let pos = (pos_seed as usize) % buf.len();
        buf[pos] ^= flip;
        let mut r = Cursor::new(buf);
        let _ = read_frame::<_, CtlMsg>(&mut r);
    }

    // A frame followed by trailing bytes decodes to exactly itself;
    // the reader's cursor stops at the frame boundary, leaving the
    // trailing bytes for the next read (the no-over-read property the
    // per-link FIFO collection depends on).
    #[test]
    fn decode_stops_at_frame_boundary(frame in arb_frame(), trailer in collection::vec(any::<u8>(), 1..32)) {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut buf, &frame, &mut scratch).unwrap();
        let frame_len = buf.len();
        buf.extend_from_slice(&trailer);
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame::<_, Frame<u64>>(&mut r).unwrap(), Some(frame));
        prop_assert_eq!(r.position() as usize, frame_len);
    }

    // Two frames back to back both arrive intact — framing composes.
    #[test]
    fn frames_compose_back_to_back(a in arb_frame(), b in arb_frame()) {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut buf, &a, &mut scratch).unwrap();
        write_frame(&mut buf, &b, &mut scratch).unwrap();
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame::<_, Frame<u64>>(&mut r).unwrap(), Some(a));
        prop_assert_eq!(read_frame::<_, Frame<u64>>(&mut r).unwrap(), Some(b));
        prop_assert_eq!(read_frame::<_, Frame<u64>>(&mut r).unwrap(), None);
    }

    // A RoundBatch at the size extremes — empty, single-entry, and a
    // big burst — is an encode→decode fixed point. (Entry order is the
    // emission order the shard FIFO guarantee depends on, so the
    // roundtrip being exact, not just set-equal, matters.)
    #[test]
    fn round_batch_roundtrips_at_edge_sizes(round in any::<u64>(), entry in arb_entry(), size_seed in 0usize..3) {
        let entries = match size_seed {
            0 => Vec::new(),
            1 => vec![entry.clone()],
            _ => (0..4096u64)
                .map(|i| BatchEntry { from: entry.from, to: entry.to, due: entry.due ^ i, msg: i })
                .collect(),
        };
        let frame = Frame::RoundBatch { round, entries };
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut buf, &frame, &mut scratch).unwrap();
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame::<_, Frame<u64>>(&mut r).unwrap(), Some(frame));
        prop_assert_eq!(read_frame::<_, Frame<u64>>(&mut r).unwrap(), None);
    }

    // Truncating a RoundBatch/BatchReplay encoding anywhere inside it
    // is an error or clean EOF, never a panic or phantom success.
    #[test]
    fn truncated_batch_frame_is_rejected(frame in arb_frame(), cut_seed in any::<u64>()) {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut buf, &frame, &mut scratch).unwrap();
        let cut = (cut_seed as usize) % buf.len();
        buf.truncate(cut);
        let mut r = Cursor::new(buf);
        if let Ok(Some(_)) = read_frame::<_, Frame<u64>>(&mut r) {
            prop_assert!(false, "truncated frame decoded successfully");
        }
    }

    // Flipping any single byte of a batch frame encoding never panics
    // and never makes the decoder read outside its frame.
    #[test]
    fn bit_flipped_batch_frame_never_panics(frame in arb_frame(), pos_seed in any::<u64>(), flip in 1u8..=255) {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut buf, &frame, &mut scratch).unwrap();
        let pos = (pos_seed as usize) % buf.len();
        buf[pos] ^= flip;
        let mut r = Cursor::new(buf);
        let _ = read_frame::<_, Frame<u64>>(&mut r);
    }

    // Raw BatchEntry decode on arbitrary bytes never panics and only
    // consumes a prefix (the no-over-read contract `read_frame`'s
    // trailing-bytes check relies on).
    #[test]
    fn raw_batch_entry_decode_never_over_reads(bytes in collection::vec(any::<u8>(), 0..256)) {
        let mut view = bytes.as_slice();
        let _ = BatchEntry::<u64>::decode(&mut view);
        prop_assert!(view.len() <= bytes.len());

        let mut view = bytes.as_slice();
        let _ = Vec::<BatchEntry<u64>>::decode(&mut view);
        prop_assert!(view.len() <= bytes.len());
    }
}

/// A length prefix claiming more than `MAX_FRAME_BYTES` must be
/// rejected before any allocation — a lying header cannot demand a
/// multi-gigabyte buffer, whatever frame kind it pretends to carry.
#[test]
fn oversized_batch_length_prefix_is_rejected() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(dw_transport::wire::MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
    buf.extend_from_slice(&[0u8; 64]);
    let mut r = Cursor::new(buf);
    assert!(read_frame::<_, Frame<u64>>(&mut r).is_err());
}
