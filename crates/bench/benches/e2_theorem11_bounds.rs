//! Criterion bench behind experiment E2: wall-clock of `(h,k)`-SSP runs
//! across the (h, k) grid of Theorem I.1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dw_bench::workloads;
use dw_graph::NodeId;
use dw_obs::NullRecorder;
use dw_pipeline::{solve_hk_ssp, Run, SspConfig};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_theorem11");
    group.sample_size(10);
    let wl = workloads::zero_heavy(24, 6, 77);
    for (h, k) in [(4u64, 4usize), (8, 12), (24, 24)] {
        let sources: Vec<NodeId> = (0..k as NodeId).collect();
        let delta = wl.delta_h(h as usize);
        let cfg = SspConfig::new(sources, h, delta);
        group.bench_with_input(
            BenchmarkId::new("hk_ssp", format!("h={h},k={k}")),
            &cfg,
            |b, cfg| b.iter(|| solve_hk_ssp(&wl.graph, cfg, &Run::default(), &mut NullRecorder)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
