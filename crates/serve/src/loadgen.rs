//! Closed-loop multi-client load generator.
//!
//! `clients` threads each run a synchronous request loop against the
//! gateway: draw a query from the configured mix, send it, block for
//! the reply, record the latency, repeat. Closed-loop means offered
//! load adapts to service rate — the report's QPS *is* the sustained
//! throughput at `clients`-way concurrency, and the latency percentiles
//! are end-to-end client-observed times (queueing, batching, cache,
//! shard round trip).
//!
//! Two mixes:
//!
//! * **uniform** — source uniform over the computed source rows,
//!   destination uniform over `0..n`: every pair equally likely, the
//!   cache-hostile baseline;
//! * **Zipf(s)** — pairs drawn by popularity rank from a fixed
//!   pseudo-random pair population, rank probabilities `∝ 1/rank^s`:
//!   the skewed mix real query traffic resembles, where the LRU earns
//!   its keep. The population is derived deterministically from the
//!   seed, so hit rates are reproducible.

use crate::client::ServeClient;
use crate::gateway::CONNECT_TIMEOUT;
use crate::proto::QueryOutcome;
use crate::zipf::Zipf;
use dw_graph::NodeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Queries issued per client.
    pub requests_per_client: usize,
    /// Fraction of queries asking for the full path (rest are
    /// distance-only), in `[0, 1]`.
    pub path_fraction: f64,
    /// `Some(s)`: Zipf-skewed pair popularity with exponent `s`;
    /// `None`: uniform.
    pub zipf: Option<f64>,
    /// Distinct pairs in the Zipf population.
    pub zipf_pairs: usize,
    /// Base RNG seed; client `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            clients: 4,
            requests_per_client: 1000,
            path_fraction: 0.5,
            zipf: None,
            zipf_pairs: 10_000,
            seed: 1,
        }
    }
}

/// What one loadgen run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    pub queries: u64,
    /// Replies that were usable answers (including typed errors).
    pub ok: u64,
    /// `ShardUnavailable` replies (degraded mode, still typed).
    pub shard_unavailable: u64,
    /// Transport errors observed by clients (should be zero).
    pub errors: u64,
    pub wall: Duration,
    pub qps: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The query mix: a sampled `(src, dst, want_path)` triple.
struct Mix {
    sources: Vec<NodeId>,
    n: NodeId,
    path_fraction: f64,
    /// Zipf sampler plus the seed that scrambles ranks into pairs.
    zipf: Option<(Zipf, u64)>,
}

impl Mix {
    fn draw(&self, rng: &mut ChaCha8Rng) -> (NodeId, NodeId, bool) {
        let want_path = rng.gen_bool(self.path_fraction);
        match &self.zipf {
            None => {
                let src = self.sources[rng.gen_range(0..self.sources.len())];
                let dst = rng.gen_range(0..self.n);
                (src, dst, want_path)
            }
            Some((z, scramble)) => {
                // Map a popularity rank to a fixed pseudo-random pair:
                // SplitMix over (scramble, rank) picks src row and dst.
                let rank = z.sample(rng) as u64;
                let mut h = scramble ^ rank.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                h ^= h >> 31;
                let src = self.sources[(h % self.sources.len() as u64) as usize];
                let dst = ((h >> 32) % self.n as u64) as NodeId;
                (src, dst, want_path)
            }
        }
    }
}

/// Run the closed loop against `gateway`. `sources` are the computed
/// source rows (query sources are drawn from them so queries hit real
/// tables); `n` is the node-id domain.
pub fn run_loadgen(
    gateway: SocketAddr,
    sources: &[NodeId],
    n: NodeId,
    cfg: &LoadgenConfig,
) -> std::io::Result<LoadgenReport> {
    assert!(!sources.is_empty(), "loadgen needs at least one source row");
    let mix = std::sync::Arc::new(Mix {
        sources: sources.to_vec(),
        n,
        path_fraction: cfg.path_fraction.clamp(0.0, 1.0),
        zipf: cfg
            .zipf
            .map(|s| (Zipf::new(cfg.zipf_pairs.max(1), s), cfg.seed ^ 0x5A1F_F00D)),
    });

    let started = Instant::now();
    let mut workers = Vec::new();
    for c in 0..cfg.clients {
        let mix = std::sync::Arc::clone(&mix);
        let seed = cfg.seed.wrapping_add(c as u64);
        let requests = cfg.requests_per_client;
        workers.push(std::thread::spawn(move || -> std::io::Result<Worker> {
            let mut client = ServeClient::connect(gateway, CONNECT_TIMEOUT)?;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut w = Worker::default();
            for _ in 0..requests {
                let (src, dst, want_path) = mix.draw(&mut rng);
                let t0 = Instant::now();
                match client.query(src, dst, want_path) {
                    Ok(QueryOutcome::ShardUnavailable { .. }) => {
                        w.shard_unavailable += 1;
                        w.ok += 1;
                    }
                    Ok(_) => w.ok += 1,
                    Err(_) => {
                        w.errors += 1;
                        continue;
                    }
                }
                w.latencies_us.push((t0.elapsed().as_nanos() / 1000) as u64);
            }
            Ok(w)
        }));
    }

    let mut total = Worker::default();
    for t in workers {
        let joined = t
            .join()
            .map_err(|_| std::io::Error::other("a loadgen client panicked"));
        total.merge(joined??);
    }
    let wall = started.elapsed();
    total.latencies_us.sort_unstable();
    let queries = total.ok + total.errors;
    Ok(LoadgenReport {
        queries,
        ok: total.ok,
        shard_unavailable: total.shard_unavailable,
        errors: total.errors,
        wall,
        qps: if wall.as_secs_f64() > 0.0 {
            queries as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        p50_us: percentile(&total.latencies_us, 0.50),
        p95_us: percentile(&total.latencies_us, 0.95),
        p99_us: percentile(&total.latencies_us, 0.99),
    })
}

#[derive(Default)]
struct Worker {
    ok: u64,
    shard_unavailable: u64,
    errors: u64,
    latencies_us: Vec<u64>,
}

impl Worker {
    fn merge(&mut self, other: Worker) {
        self.ok += other.ok;
        self.shard_unavailable += other.shard_unavailable;
        self.errors += other.errors;
        self.latencies_us.extend(other.latencies_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_data() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.95), 95);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    /// A closed loop against a live two-shard deployment, under the
    /// uniform and the Zipf mix: every query is answered, none degraded,
    /// and the latency percentiles are ordered.
    #[test]
    fn closed_loop_against_a_deployment_answers_every_query() {
        use crate::{Deployment, GatewayConfig, TableSnapshot};
        use dw_graph::gen::{self, WeightDist};
        let n = 48;
        let g = gen::gnp(n, 0.25, false, WeightDist::Uniform { max: 9 }, 1905);
        let runs: Vec<_> = (0..n as NodeId)
            .map(|s| dw_seqref::dijkstra(&g, s))
            .collect();
        let snap = TableSnapshot::from_sssp(&runs, n as NodeId);
        let d = Deployment::spawn(&snap, 2, GatewayConfig::default()).unwrap();
        let sources: Vec<NodeId> = (0..n as NodeId).collect();
        for zipf in [None, Some(1.1)] {
            let cfg = LoadgenConfig {
                requests_per_client: 250,
                zipf,
                seed: 7,
                ..LoadgenConfig::default()
            };
            let r = run_loadgen(d.gateway.addr, &sources, n as NodeId, &cfg).unwrap();
            let counts = (r.queries, r.ok, r.errors, r.shard_unavailable);
            assert_eq!(counts, (1000, 1000, 0, 0), "{zipf:?}: {r:?}");
            assert!(r.qps > 0.0 && 0 < r.p50_us && r.p50_us <= r.p99_us, "{r:?}");
        }
    }
}
