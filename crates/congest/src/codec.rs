//! Binary wire codec for protocol messages.
//!
//! The simulator moves messages as in-memory values; the `dw-transport`
//! runtime moves them over OS channels (TCP frames), which
//! needs a byte encoding. [`WireCodec`] is that encoding: hand-rolled,
//! little-endian, fixed layout per type — the repo builds offline, so no
//! serde. The contract is the obvious round trip: `decode` over the
//! bytes produced by `encode` yields an equal value and consumes exactly
//! the bytes `encode` wrote (so codecs compose by concatenation, which
//! is how the tuple and [`RMsg`] impls work).
//!
//! The codec is deliberately *not* asked to be compact: conformance with
//! the simulator is byte-identity of results, and CONGEST accounting is
//! in words ([`crate::MsgSize`]), not wire bytes.

use crate::reliable::RMsg;

/// Encode/decode a message as bytes for a real transport.
pub trait WireCodec: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value from the front of `buf`, advancing it past the
    /// consumed bytes. `None` means the bytes are malformed or truncated.
    fn decode(buf: &mut &[u8]) -> Option<Self>;
}

/// Pull `N` bytes off the front of `buf`.
pub fn take_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Some(head)
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl WireCodec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                let raw = take_bytes(buf, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(raw.try_into().ok()?))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64);

impl WireCodec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl WireCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: WireCodec, B: WireCodec, C: WireCodec> WireCodec for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

impl<A: WireCodec, B: WireCodec, C: WireCodec, D: WireCodec> WireCodec for (A, B, C, D) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
        self.3.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((
            A::decode(buf)?,
            B::decode(buf)?,
            C::decode(buf)?,
            D::decode(buf)?,
        ))
    }
}

/// An `Arc<T>` encodes exactly as its payload — sharing is a memory
/// layout, not a wire concept — so snapshots holding rows by reference
/// stay byte-identical to snapshots holding them by value (the serving
/// plane's carry-forward path depends on this).
impl<T: WireCodec> WireCodec for std::sync::Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_ref().encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        T::decode(buf).map(std::sync::Arc::new)
    }
}

impl<M: WireCodec> WireCodec for Option<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(m) => {
                out.push(1);
                m.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(None),
            1 => Some(Some(M::decode(buf)?)),
            _ => None,
        }
    }
}

impl<M: WireCodec> WireCodec for Vec<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for m in self {
            m.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(buf)? as usize;
        // A length prefix can claim more items than the buffer can hold;
        // cap the pre-allocation so a malformed frame cannot force a
        // huge allocation before the per-item decode fails.
        let mut out = Vec::with_capacity(len.min(buf.len()));
        for _ in 0..len {
            out.push(M::decode(buf)?);
        }
        Some(out)
    }
}

impl<M: WireCodec> WireCodec for RMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RMsg::Data { seq, ack, payload } => {
                out.push(0);
                seq.encode(out);
                ack.encode(out);
                payload.encode(out);
            }
            RMsg::Ack { ack } => {
                out.push(1);
                ack.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(RMsg::Data {
                seq: u32::decode(buf)?,
                ack: u32::decode(buf)?,
                payload: M::decode(buf)?,
            }),
            1 => Some(RMsg::Ack {
                ack: u32::decode(buf)?,
            }),
            _ => None,
        }
    }
}

/// Encode a value into a fresh buffer. The encoding is canonical (a
/// fixed layout per type, no padding, no map iteration order), so the
/// bytes are stable across runs — which is what lets snapshot files be
/// compared byte for byte.
pub fn to_bytes<M: WireCodec>(m: &M) -> Vec<u8> {
    let mut out = Vec::new();
    m.encode(&mut out);
    out
}

/// Decode a value that must account for the *entire* buffer — trailing
/// bytes are an error, exactly like a malformed prefix. This is the
/// contract for persisted snapshots: a file is one encoding, not a
/// stream.
pub fn from_bytes<M: WireCodec>(bytes: &[u8]) -> Option<M> {
    let mut view = bytes;
    let value = M::decode(&mut view)?;
    view.is_empty().then_some(value)
}

/// Round-trip helper for tests: encode then decode, checking the whole
/// buffer is consumed.
pub fn roundtrip<M: WireCodec>(m: &M) -> Option<M> {
    let mut bytes = Vec::new();
    m.encode(&mut bytes);
    let mut view = bytes.as_slice();
    let back = M::decode(&mut view)?;
    view.is_empty().then_some(back)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(roundtrip(&0xdead_beef_u32), Some(0xdead_beef));
        assert_eq!(roundtrip(&u64::MAX), Some(u64::MAX));
        assert_eq!(roundtrip(&true), Some(true));
        assert_eq!(roundtrip(&()), Some(()));
        assert_eq!(
            roundtrip(&(7u64, (3u32, false))),
            Some((7u64, (3u32, false)))
        );
        assert_eq!(
            roundtrip(&(1u32, 2u32, 3u64, true)),
            Some((1u32, 2u32, 3u64, true))
        );
        assert_eq!(roundtrip(&Some(9u32)), Some(Some(9u32)));
        assert_eq!(roundtrip(&None::<u64>), Some(None));
    }

    #[test]
    fn vecs_roundtrip() {
        assert_eq!(roundtrip(&Vec::<u64>::new()), Some(Vec::new()));
        let v = vec![(1u64, 2u32), (3, 4)];
        assert_eq!(roundtrip(&v), Some(v.clone()));
        let nested = vec![vec![1u8, 2], vec![], vec![9]];
        assert_eq!(roundtrip(&nested), Some(nested.clone()));
    }

    #[test]
    fn vec_with_lying_length_prefix_is_rejected() {
        let mut bytes = Vec::new();
        vec![7u64, 8].encode(&mut bytes);
        // claim 3 items but provide 2
        bytes[0] = 3;
        let mut view = bytes.as_slice();
        assert_eq!(Vec::<u64>::decode(&mut view), None);
    }

    #[test]
    fn rmsg_roundtrip() {
        let data = RMsg::Data {
            seq: 12,
            ack: 9,
            payload: 42u64,
        };
        assert_eq!(roundtrip(&data), Some(data.clone()));
        let ack: RMsg<u64> = RMsg::Ack { ack: 3 };
        assert_eq!(roundtrip(&ack), Some(ack.clone()));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut bytes = Vec::new();
        77u64.encode(&mut bytes);
        let mut short = &bytes[..5];
        assert_eq!(u64::decode(&mut short), None);
        let mut bad_bool = &[7u8][..];
        assert_eq!(bool::decode(&mut bad_bool), None);
    }

    #[test]
    fn decode_consumes_exactly_the_encoding() {
        let mut bytes = Vec::new();
        (1u32, 2u64).encode(&mut bytes);
        9u8.encode(&mut bytes);
        let mut view = bytes.as_slice();
        assert_eq!(<(u32, u64)>::decode(&mut view), Some((1, 2)));
        assert_eq!(u8::decode(&mut view), Some(9));
        assert!(view.is_empty());
    }
}
