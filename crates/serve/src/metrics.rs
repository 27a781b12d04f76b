//! Aggregate serving-plane metrics.
//!
//! The gateway attributes every query's wall time to four phases —
//! **route** (shard resolution + cache probe at intake), **batch**
//! (queue time plus the batched shard round trip), **lookup** (shard-side
//! table reads) and **path_walk** (shard-side parent-pointer walks; the
//! shard reports the latter two in each [`crate::proto::ReplyBatch`]) —
//! and counts the cache and degradation events alongside, and what table
//! installs moved (bytes, and how many were full rather than deltas).

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_mean_batch_size() {
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
        assert!((s.cache_hit_rate() - 0.4).abs() < 1e-9);
        assert!((s.mean_batch_size() - 3.0).abs() < 1e-9);
    }
}
