//! Update batches: the unit of change the dynamic subsystem ingests.
//!
//! Individual edge events ([`EdgeUpdate`]) accumulate mempool-style in
//! an [`UpdatePool`] — exactly like queries coalesce on a gateway
//! dispatcher — and drain as numbered [`UpdateBatch`]es. A batch is the
//! atomic recompute unit: the graph is patched with the whole batch,
//! the dirty sources are re-solved once, and the serving plane swaps
//! one generation. Batching is what makes the incremental path win:
//! the invalidation rule is evaluated against the batch's *net* effect,
//! so updates that cancel out (or repeat) cost nothing.

use dw_graph::{EdgeUpdate, NodeId, Weight};

/// A numbered batch of edge updates. `seq` is assigned by the pool at
/// drain time and is strictly increasing per pool — the offline `dwapsp
/// update` flow uses it to name generations (`generation = base + seq`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateBatch {
    pub seq: u64,
    pub updates: Vec<EdgeUpdate>,
}

/// A mempool-style accumulator: updates arrive one at a time (or in
/// runs) and drain as numbered batches, FIFO.
#[derive(Debug, Default)]
pub struct UpdatePool {
    pending: Vec<EdgeUpdate>,
    next_seq: u64,
}

impl UpdatePool {
    pub fn new() -> UpdatePool {
        UpdatePool::default()
    }

    pub fn push(&mut self, u: EdgeUpdate) {
        self.pending.push(u);
    }

    pub fn extend(&mut self, us: impl IntoIterator<Item = EdgeUpdate>) {
        self.pending.extend(us);
    }

    pub fn len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Drain up to `max` pending updates (oldest first) as the next
    /// numbered batch; `None` when nothing is pending.
    pub fn take_batch(&mut self, max: usize) -> Option<UpdateBatch> {
        if self.pending.is_empty() || max == 0 {
            return None;
        }
        let take = self.pending.len().min(max);
        let updates: Vec<EdgeUpdate> = self.pending.drain(..take).collect();
        let seq = self.next_seq;
        self.next_seq += 1;
        Some(UpdateBatch { seq, updates })
    }
}

/// Parse the `dwapsp update` text format, one update per line:
///
/// ```text
/// # comment (blank lines ignored too)
/// ins <u> <v> <w>    # upsert edge (u, v) at weight w
/// set <u> <v> <w>    # same as ins: set weight, inserting if absent
/// del <u> <v>        # remove edge (u, v); absent edges are a no-op
/// ```
///
/// Errors name the offending line (1-indexed) — a stream of updates is
/// operator input, and "line 37: bad weight" beats a silent skip.
pub fn parse_updates(text: &str) -> Result<Vec<EdgeUpdate>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let op = it.next().unwrap_or("");
        let mut num = |what: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("line {}: missing {what}", i + 1))?
                .parse::<u64>()
                .map_err(|_| format!("line {}: bad {what}", i + 1))
        };
        let update = match op {
            "ins" | "set" => {
                let src = num("src")? as NodeId;
                let dst = num("dst")? as NodeId;
                let w = num("weight")? as Weight;
                if op == "ins" {
                    EdgeUpdate::Insert { src, dst, w }
                } else {
                    EdgeUpdate::SetWeight { src, dst, w }
                }
            }
            "del" => {
                let src = num("src")? as NodeId;
                let dst = num("dst")? as NodeId;
                EdgeUpdate::Remove { src, dst }
            }
            other => return Err(format!("line {}: unknown op {other:?}", i + 1)),
        };
        if it.next().is_some() {
            return Err(format!("line {}: trailing tokens", i + 1));
        }
        out.push(update);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_drains_fifo_with_increasing_seq() {
        let mut pool = UpdatePool::new();
        assert!(pool.take_batch(8).is_none());
        pool.extend((0..5).map(|i| EdgeUpdate::Remove { src: i, dst: i + 1 }));
        let a = pool.take_batch(3).unwrap();
        assert_eq!(a.seq, 0);
        assert_eq!(a.updates.len(), 3);
        assert_eq!(a.updates[0], EdgeUpdate::Remove { src: 0, dst: 1 });
        let b = pool.take_batch(8).unwrap();
        assert_eq!(b.seq, 1);
        assert_eq!(b.updates.len(), 2);
        assert!(pool.is_empty());
        assert!(pool.take_batch(8).is_none());
    }

    #[test]
    fn parser_accepts_the_documented_format() {
        let text = "\
# a comment
ins 0 1 5
set 2 3 9   # trailing comment
del 4 5

";
        assert_eq!(
            parse_updates(text).unwrap(),
            vec![
                EdgeUpdate::Insert {
                    src: 0,
                    dst: 1,
                    w: 5
                },
                EdgeUpdate::SetWeight {
                    src: 2,
                    dst: 3,
                    w: 9
                },
                EdgeUpdate::Remove { src: 4, dst: 5 },
            ]
        );
    }

    #[test]
    fn parser_rejects_malformed_lines_by_number() {
        assert!(parse_updates("frob 1 2").unwrap_err().contains("line 1"));
        assert!(parse_updates("ins 1 2").unwrap_err().contains("line 1"));
        assert!(parse_updates("\ndel 1 x").unwrap_err().contains("line 2"));
        assert!(parse_updates("del 1 2 3").unwrap_err().contains("trailing"));
    }
}
