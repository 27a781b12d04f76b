//! Criterion bench behind experiment E5: the short-range algorithm and
//! its scheduled all-source composition.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dw_bench::workloads;
use dw_congest::scheduler::schedule_instances;
use dw_congest::EngineConfig;
use dw_graph::NodeId;
use dw_obs::NullRecorder;
use dw_pipeline::short_range::{short_range_instances, solve_short_range};
use dw_pipeline::Run;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_short_range");
    group.sample_size(10);
    let wl = workloads::zero_heavy(24, 6, 13);
    let run = Run::default();
    for h in [4u64, 16] {
        group.bench_with_input(BenchmarkId::new("single_source", h), &h, |b, &h| {
            b.iter(|| solve_short_range(&wl.graph, 0, h, wl.delta, &run, &mut NullRecorder))
        });
    }
    let sources: Vec<NodeId> = (0..8).collect();
    group.bench_function("scheduled_8_sources_h6", |b| {
        b.iter(|| {
            let inst = short_range_instances(&wl.graph, &sources, 6, wl.delta);
            schedule_instances(&wl.graph, inst, &EngineConfig::default(), 42, 16, 1_000_000)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
