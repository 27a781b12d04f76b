//! Graph (de)serialization for reproducible experiment manifests.
//!
//! The on-disk format is a plain JSON document with an explicit edge list,
//! so instances can be inspected, diffed and regenerated independently of
//! the in-memory adjacency layout. The document shape is
//! `{"n":..,"directed":..,"edges":[{"src":..,"dst":..,"w":..},..]}`; the
//! writer is hand-rolled (no serde in the offline build) and the reader is
//! [`crate::json`], so any whitespace and any key order are accepted.

use crate::graph::{Edge, NodeId, WGraph};
pub use crate::json::JsonError;
use crate::json::Reader;
use std::fmt::Write as _;

/// Serialize a graph to a JSON string.
pub fn to_json(g: &WGraph) -> String {
    let mut s = String::with_capacity(64 + g.m() * 24);
    let (n, directed) = (g.n(), g.is_directed());
    let _ = write!(s, "{{\"n\":{n},\"directed\":{directed},\"edges\":[");
    for (i, e) in g.edges().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            s,
            "{sep}{{\"src\":{},\"dst\":{},\"w\":{}}}",
            e.src, e.dst, e.w
        );
    }
    s.push_str("]}");
    s
}

/// Parse a graph from JSON produced by [`to_json`]. Node counts beyond
/// [`NodeId`] and edge endpoints `>= n` are errors, so any input either
/// parses into a valid graph or comes back as a [`JsonError`].
pub fn from_json(s: &str) -> Result<WGraph, JsonError> {
    let mut r = Reader::new(s);
    let (mut n, mut directed, mut edges) = (None, None, None);
    r.object(|r, key| {
        match key {
            "n" => {
                let v = r.u64()?;
                if v > u64::from(NodeId::MAX) {
                    return Err(r.err("n out of range"));
                }
                n = Some(v as usize);
            }
            "directed" => directed = Some(r.bool()?),
            "edges" => {
                let mut list = Vec::new();
                r.array(|r| {
                    list.push(edge(r)?);
                    Ok(())
                })?;
                edges = Some(list);
            }
            _ => return Err(r.err("unknown document key")),
        }
        Ok(())
    })?;
    let (Some(n), Some(directed), Some(edges)) = (n, directed, edges) else {
        return Err(r.err("document missing n/directed/edges"));
    };
    if let Some(e) = edges
        .iter()
        .find(|e| e.src as usize >= n || e.dst as usize >= n)
    {
        return Err(r.err(format!(
            "edge {} -> {} out of range for n = {n}",
            e.src, e.dst
        )));
    }
    r.end()?;
    Ok(WGraph::from_edge_list(n, directed, edges))
}

/// One `{"src":..,"dst":..,"w":..}` edge object.
fn edge(r: &mut Reader) -> Result<Edge, JsonError> {
    let (mut src, mut dst, mut w) = (None, None, None);
    r.object(|r, key| {
        let v = r.u64()?;
        let id = || NodeId::try_from(v).map_err(|_| r.err("endpoint out of range"));
        match key {
            "src" => src = Some(id()?),
            "dst" => dst = Some(id()?),
            "w" => w = Some(v),
            _ => return Err(r.err("unknown edge key")),
        }
        Ok(())
    })?;
    match (src, dst, w) {
        (Some(src), Some(dst), Some(w)) => Ok(Edge { src, dst, w }),
        _ => Err(r.err("edge missing src/dst/w")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, WeightDist};

    #[test]
    fn roundtrip_random_graph() {
        let g = gen::gnp(25, 0.3, true, WeightDist::Uniform { max: 9 }, 5);
        let j = to_json(&g);
        let g2 = from_json(&j).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn roundtrip_undirected() {
        let g = gen::grid(
            3,
            3,
            false,
            WeightDist::ZeroOr {
                p_zero: 0.4,
                max: 3,
            },
            2,
        );
        assert_eq!(from_json(&to_json(&g)).unwrap(), g);
    }

    #[test]
    fn bad_json_is_error() {
        assert!(from_json("{").is_err());
    }

    #[test]
    fn whitespace_and_key_order_tolerated() {
        let j = r#" { "directed" : true , "edges" : [ { "w" : 3 , "src" : 0 , "dst" : 1 } ] , "n" : 2 } "#;
        let g = from_json(j).unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(3));
    }

    #[test]
    fn out_of_range_input_is_an_error_not_a_panic() {
        let e =
            from_json(r#"{"n":2,"directed":true,"edges":[{"src":5,"dst":0,"w":1}]}"#).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
        // `n` after the edges is checked all the same.
        assert!(
            from_json(r#"{"directed":false,"edges":[{"src":0,"dst":2,"w":1}],"n":2}"#).is_err()
        );
        assert!(from_json(r#"{"n":4294967296,"directed":true,"edges":[]}"#).is_err());
        assert!(
            from_json(r#"{"n":2,"directed":true,"edges":[{"src":4294967296,"dst":0,"w":1}]}"#)
                .is_err()
        );
    }

    #[test]
    fn trailing_garbage_is_error() {
        let g = gen::gnp(4, 0.5, true, WeightDist::Constant(1), 1);
        let mut j = to_json(&g);
        j.push('x');
        assert!(from_json(&j).is_err());
    }
}
