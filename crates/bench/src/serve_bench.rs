//! `e19_serve`: query-plane throughput of the `dw-serve` gateway +
//! shard deployment (ROADMAP item 1, EXPERIMENTS.md E19).
//!
//! One fixed serving workload — full APSP tables over a seeded random
//! graph, precomputed once with the sequential reference — measured
//! across shard counts and query mixes with the closed-loop load
//! generator. The `Measurement` mapping reuses the engine-bench schema:
//! a "round" is one answered query, so `rounds_per_sec` **is** the
//! sustained QPS. The serve entries additionally carry the client-observed
//! `p50_us`/`p99_us` latency percentiles.
//!
//! Two mixes per shard count:
//!
//! * `serve_uniform` — every (src, dst) pair equally likely: the
//!   cache-hostile routing/batching baseline;
//! * `serve_zipf` — Zipf(1.1) pair popularity over a 10k-pair
//!   population: the skewed regime where the gateway LRU earns its
//!   keep (EXPERIMENTS.md E19 reports the hit rates).

use crate::engine_bench::Measurement;
use dw_graph::gen::{self, WeightDist};
use dw_seqref::dijkstra;
use dw_serve::{run_loadgen, Deployment, GatewayConfig, LoadgenConfig, TableSnapshot};

/// The serving instance: n nodes, full APSP tables. Sized so table
/// construction (n sequential Dijkstras) is a footnote next to the
/// query phase.
fn serving_snapshot(n: usize, seed: u64) -> TableSnapshot {
    let g = gen::gnp(
        n,
        12.0 / n as f64,
        false,
        WeightDist::Uniform { max: 9 },
        seed,
    );
    let runs: Vec<_> = (0..n as u32).map(|s| dijkstra(&g, s)).collect();
    TableSnapshot::from_sssp(&runs, n as u32)
}

fn shard_label(p: usize) -> &'static str {
    match p {
        1 => "shards_1",
        2 => "shards_2",
        4 => "shards_4",
        _ => "shards_other",
    }
}

/// One measured loadgen run: warmup pass, then best-of-two (keep the
/// higher QPS — the workload is deterministic, the wall clock is not).
fn measure_serve(
    workload: &'static str,
    mode: &'static str,
    snap: &TableSnapshot,
    shards: usize,
    cfg: &LoadgenConfig,
) -> Measurement {
    let d =
        Deployment::spawn(snap, shards, GatewayConfig::default()).expect("spawn serve deployment");
    let addr = d.gateway.addr;
    let sources: Vec<u32> = snap.tables.iter().map(|t| t.source).collect();

    let warm = LoadgenConfig {
        requests_per_client: (cfg.requests_per_client / 10).max(1),
        ..cfg.clone()
    };
    let _ = run_loadgen(addr, &sources, snap.n, &warm).expect("warmup loadgen");

    let mut best = run_loadgen(addr, &sources, snap.n, cfg).expect("loadgen");
    let second = run_loadgen(addr, &sources, snap.n, cfg).expect("loadgen");
    if second.qps > best.qps {
        best = second;
    }
    assert_eq!(best.errors, 0, "serve bench saw transport errors");
    assert_eq!(
        best.shard_unavailable, 0,
        "serve bench ran against a degraded deployment"
    );

    Measurement {
        workload,
        mode,
        n: snap.n as usize,
        rounds: best.queries,
        rounds_executed: best.queries,
        messages: best.queries,
        wall_ms: best.wall.as_secs_f64() * 1e3,
        rounds_per_sec: best.qps,
        slab_bytes: 0,
        slab_peak: 0,
        p50_us: best.p50_us,
        p99_us: best.p99_us,
    }
}

/// The fixed `e19_serve` measurement set, in stable order. `smoke`
/// shrinks the instance and query volume for `make bench-smoke`.
pub fn run_all_serve(smoke: bool) -> Vec<Measurement> {
    let n = if smoke { 48 } else { 160 };
    let snap = serving_snapshot(n, 1905);
    let base = LoadgenConfig {
        clients: 4,
        requests_per_client: if smoke { 250 } else { 2500 },
        path_fraction: 0.5,
        zipf: None,
        seed: 7,
        ..LoadgenConfig::default()
    };
    let shard_counts: &[usize] = if smoke { &[2] } else { &[1, 2, 4] };

    let mut out = Vec::new();
    for &p in shard_counts {
        out.push(measure_serve(
            "serve_uniform",
            shard_label(p),
            &snap,
            p,
            &base,
        ));
    }
    for &p in shard_counts {
        let zipf = LoadgenConfig {
            zipf: Some(1.1),
            ..base.clone()
        };
        out.push(measure_serve("serve_zipf", shard_label(p), &snap, p, &zipf));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke set is the full pipeline in miniature: deterministic
    /// query counts (this set's "round structure"),
    /// nonzero throughput and latency, no degraded answers.
    #[test]
    fn serve_bench_smoke_set_is_clean() {
        let ms = run_all_serve(true);
        assert_eq!(ms.len(), 2);
        for m in &ms {
            assert_eq!(m.rounds, 1000, "{}/{}", m.workload, m.mode);
            assert_eq!(m.messages, 1000);
            assert!(m.rounds_per_sec > 0.0);
            assert!(m.p50_us > 0 && m.p99_us >= m.p50_us);
        }
    }
}
