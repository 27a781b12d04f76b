//! Fuzzing the one JSON reader, directly and through its most exposed
//! caller: a graph file is user input, so `io::from_json` must turn any
//! text into a graph or a `JsonError`, never a panic.

use dw_graph::gen::{self, WeightDist};
use dw_graph::io;
use dw_graph::json::Reader;
use proptest::collection;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // `raw`, `skip` and `str` on any text: a value or an error, never a
    // panic; the span `raw` returns begins the input, leading JSON
    // whitespace aside.
    #[test]
    fn raw_skip_and_str_never_panic_on_arbitrary_bytes(bytes in collection::vec(any::<u8>(), 0..200)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(raw) = Reader::new(&text).raw() {
            prop_assert!(text.trim_start_matches([' ', '\t', '\n', '\r']).starts_with(raw));
        }
        let _ = Reader::new(&text).skip();
        let _ = Reader::new(&text).str();
    }

    #[test]
    fn from_json_never_panics_on_arbitrary_bytes(bytes in collection::vec(any::<u8>(), 0..200)) {
        let _ = io::from_json(&String::from_utf8_lossy(&bytes));
    }

    // One byte of a valid document replaced, half the time by a byte of
    // the document's own alphabet (digits push endpoints past `n`,
    // quotes and brackets shift the structure): an error, or a graph
    // that survives its own round trip.
    #[test]
    fn from_json_survives_single_byte_mutations(seed in any::<u64>(), pos_seed in any::<u64>(), pick in any::<u8>()) {
        let g = gen::gnp(6, 0.4, seed % 2 == 0, WeightDist::Uniform { max: 9 }, seed);
        let mut doc = io::to_json(&g).into_bytes();
        let alphabet = b"{}[],:\" 0123456789";
        let pos = (pos_seed as usize) % doc.len();
        doc[pos] = if pick % 2 == 0 { alphabet[pick as usize / 2 % alphabet.len()] } else { pick };
        if let Ok(g) = io::from_json(&String::from_utf8_lossy(&doc)) {
            prop_assert_eq!(io::from_json(&io::to_json(&g)).ok(), Some(g));
        }
    }
}
