//! Aggregate serving-plane metrics.
//!
//! The gateway attributes every query's wall time to four phases —
//! **route** (shard resolution + cache probe at intake), **batch**
//! (queue time plus the batched shard round trip), **lookup** (shard-side
//! table reads) and **path_walk** (shard-side parent-pointer walks; the
//! shard reports the latter two in each [`crate::proto::ReplyBatch`]) —
//! and counts the cache and degradation events alongside, and what table
//! installs moved (bytes, and how many were full rather than deltas).
//! The totals
//! export as a [`dw_obs::Recording`] through
//! [`Recording::push_wall_span`], so `dwapsp` renders serve phases with
//! the same span machinery as compute phases.

use dw_obs::Recording;

/// Counters and phase-time totals for one gateway's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries accepted from clients.
    pub queries: u64,
    /// Replies sent back to clients.
    pub replies: u64,
    /// Queries answered from the LRU cache at intake.
    pub cache_hits: u64,
    /// Queries that missed the cache (routed, or failed fast).
    pub cache_misses: u64,
    /// Batched frames shipped to shards.
    pub batches: u64,
    /// Queries carried inside those frames.
    pub batched_queries: u64,
    /// Queries answered `ShardUnavailable`.
    pub shard_unavailable: u64,
    /// Intake wall time: shard resolution + cache probe.
    pub route_ns: u64,
    /// Queue wall time + the batched shard round trip.
    pub batch_ns: u64,
    /// Shard-reported table-lookup time.
    pub lookup_ns: u64,
    /// Shard-reported parent-walk time.
    pub walk_ns: u64,
    /// Encoded bytes of the table deltas that fanned out to the shards.
    pub install_bytes: u64,
    /// Installs that fanned out with no base: full snapshots.
    pub installs_full: u64,
}

impl ServeStats {
    /// Mean queries coalesced per shard frame.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_queries as f64 / self.batches as f64
        }
    }

    /// Cache hit rate over all intake probes, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Export as a [`Recording`]: one wall span per serve phase plus
    /// the counters, consumable by the existing obs text/JSONL
    /// renderers.
    pub fn to_recording(&self) -> Recording {
        let mut r = Recording::default();
        r.push_wall_span("route", self.route_ns);
        r.push_wall_span("batch", self.batch_ns);
        r.push_wall_span("lookup", self.lookup_ns);
        r.push_wall_span("path_walk", self.walk_ns);
        for (name, v) in [
            ("serve.queries", self.queries),
            ("serve.replies", self.replies),
            ("serve.cache_hits", self.cache_hits),
            ("serve.cache_misses", self.cache_misses),
            ("serve.batches", self.batches),
            ("serve.batched_queries", self.batched_queries),
            ("serve.shard_unavailable", self.shard_unavailable),
            ("serve.install_bytes", self.install_bytes),
            ("serve.installs_full", self.installs_full),
        ] {
            if v > 0 {
                *r.counters.entry(name.to_string()).or_insert(0) += v;
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_export_has_phase_spans_and_counters() {
        let s = ServeStats {
            queries: 10,
            replies: 10,
            cache_hits: 4,
            cache_misses: 6,
            batches: 2,
            batched_queries: 6,
            shard_unavailable: 0,
            route_ns: 100,
            batch_ns: 200,
            lookup_ns: 50,
            walk_ns: 25,
            install_bytes: 4096,
            installs_full: 1,
        };
        let r = s.to_recording();
        let names: Vec<&str> = r.spans.iter().map(|sp| sp.name).collect();
        assert_eq!(names, vec!["route", "batch", "lookup", "path_walk"]);
        assert_eq!(r.counters["serve.queries"], 10);
        assert_eq!(r.counters["serve.install_bytes"], 4096);
        assert!(!r.counters.contains_key("serve.shard_unavailable"));
        assert!((s.cache_hit_rate() - 0.4).abs() < 1e-9);
        assert!((s.mean_batch_size() - 3.0).abs() < 1e-9);
    }
}
