//! Correctness checks. Every row the solver produces and every answer
//! the gateway gives is held against `dw-seqref` Dijkstra rows; a
//! mismatch is a failed operation and fails the run.

use crate::layers::{self, Answer, Graph, NodeId, SsspRun, Weight, INFINITY};
use crate::loadgen::Query;
use std::collections::HashMap;

/// Dijkstra rows by source.
pub struct Oracle {
    row_of: HashMap<NodeId, usize>,
    runs: Vec<SsspRun>,
}

impl Oracle {
    pub fn new(sources: &[NodeId], runs: Vec<SsspRun>) -> Oracle {
        assert_eq!(sources.len(), runs.len());
        Oracle {
            row_of: sources.iter().enumerate().map(|(i, &s)| (s, i)).collect(),
            runs,
        }
    }

    #[cfg(test)]
    pub fn runs(&self) -> &[SsspRun] {
        &self.runs
    }

    pub fn row(&self, source: NodeId) -> Option<&[Weight]> {
        self.row_of
            .get(&source)
            .map(|&i| layers::run_dist(&self.runs[i]))
    }

    /// Largest finite distance: the `Δ` Algorithm 1 is given.
    pub fn max_finite(&self) -> Weight {
        self.runs
            .iter()
            .flat_map(|r| layers::run_dist(r).iter().copied())
            .filter(|&d| d != INFINITY)
            .max()
            .unwrap_or(0)
    }
}

/// Solved rows must equal the oracle's, in source order.
pub fn check_rows(oracle: &Oracle, rows: &[Vec<Weight>]) -> Result<(), String> {
    if rows.len() != oracle.runs.len() {
        return Err(format!(
            "{} solved rows, {} oracle rows",
            rows.len(),
            oracle.runs.len()
        ));
    }
    for (i, (got, run)) in rows.iter().zip(&oracle.runs).enumerate() {
        let want = layers::run_dist(run);
        if got.as_slice() != want {
            let v = got.iter().zip(want).position(|(a, b)| a != b);
            return Err(format!("row {i} differs from Dijkstra at node {v:?}"));
        }
    }
    Ok(())
}

/// One answer against the distance row of its source on graph `g`: the
/// distance is equal, and a path starts at `src`, ends at `dst`, uses
/// edges of `g`, and its weights sum to the distance.
pub fn check_answer(g: &Graph, row: &[Weight], q: &Query, a: &Answer) -> Result<(), String> {
    let want = row[q.dst as usize];
    match a {
        Answer::Unreachable if want == INFINITY => Ok(()),
        Answer::Dist(d) if !q.want_path && *d == want => Ok(()),
        Answer::Path(d, path) if q.want_path && *d == want => {
            if path.first() != Some(&q.src) || path.last() != Some(&q.dst) {
                return Err(format!("path {}->{} has wrong endpoints", q.src, q.dst));
            }
            let mut walked: Weight = 0;
            for hop in path.windows(2) {
                match layers::edge_weight(g, hop[0], hop[1]) {
                    Some(w) => walked += w,
                    None => return Err(format!("path uses missing edge {}->{}", hop[0], hop[1])),
                }
            }
            if walked == want {
                Ok(())
            } else {
                Err(format!(
                    "path {}->{} weighs {walked}, not {want}",
                    q.src, q.dst
                ))
            }
        }
        other => Err(format!(
            "{}->{} (path={}): got {other:?}, oracle distance {want}",
            q.src, q.dst, q.want_path
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{gen_graph, oracle_runs, Family, Weights};

    fn fixture() -> (Graph, Oracle) {
        let g = gen_graph(
            Family::Gnp {
                n: 24,
                weights: Weights::Positive { max: 9 },
            },
            5,
        );
        let sources: Vec<NodeId> = (0..24).collect();
        let oracle = Oracle::new(&sources, oracle_runs(&g, &sources));
        (g, oracle)
    }

    #[test]
    fn accepts_the_oracle_and_rejects_tampering() {
        let (g, oracle) = fixture();
        let row = oracle.row(0).unwrap();
        let dst = (1..24).find(|&v| row[v] != 0).unwrap() as NodeId;
        let d = row[dst as usize];
        let q = Query {
            src: 0,
            dst,
            want_path: false,
        };
        assert!(check_answer(&g, row, &q, &Answer::Dist(d)).is_ok());
        assert!(check_answer(&g, row, &q, &Answer::Dist(d + 1)).is_err());
        assert!(check_answer(&g, row, &q, &Answer::Unreachable).is_err());
        assert!(check_answer(&g, row, &q, &Answer::Refused("shard unavailable")).is_err());
        // A distance answer to a path query is wrong even when equal.
        let qp = Query {
            want_path: true,
            ..q
        };
        assert!(check_answer(&g, row, &qp, &Answer::Dist(d)).is_err());
        // A fabricated two-node path is rejected unless that edge exists
        // with exactly that weight.
        let direct = layers::edge_weight(&g, 0, dst);
        let fake = Answer::Path(d, vec![0, dst]);
        assert_eq!(check_answer(&g, row, &qp, &fake).is_ok(), direct == Some(d));
        assert!(check_answer(&g, row, &qp, &Answer::Path(d, vec![dst, 0])).is_err());
    }

    #[test]
    fn row_check_names_the_first_difference() {
        let (_, oracle) = fixture();
        let mut rows: Vec<Vec<Weight>> = oracle
            .runs()
            .iter()
            .map(|r| layers::run_dist(r).to_vec())
            .collect();
        assert!(check_rows(&oracle, &rows).is_ok());
        rows[3][7] += 1;
        let err = check_rows(&oracle, &rows).unwrap_err();
        assert!(err.contains("row 3") && err.contains('7'), "{err}");
        rows.pop();
        assert!(check_rows(&oracle, &rows).is_err());
    }
}
