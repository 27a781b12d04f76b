//! Engine micro-benchmarks for the active-set scheduler rework: the two
//! regimes the scheduler separates (idle-heavy pipelined schedules vs
//! dense every-node-sends-every-round), each under sequential and
//! thread-parallel phase execution and under both scheduling modes.
//!
//! The `list_ops` group is not about the engine: it times the four
//! per-message and per-poll operations of Algorithm 1's `list_v`
//! (`dw_pipeline::list::NodeList`) on lists of 16, 256 and 1024 rows, so
//! that a change to the list has a number in seconds rather than a 28 s
//! pipeline run to wait for.
//!
//! `make bench-smoke` runs this suite; regressions are judged end to
//! end by the pipeline benchmark (`BENCHMARK.json`), so these numbers
//! are for eyeballing relative cost, not for CI pass/fail.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dw_bench::engine_bench::DensePing;
use dw_bench::workloads;
use dw_congest::{EngineConfig, Network, SchedulingMode};
use dw_pipeline as pipeline;
use dw_pipeline::entry::Entry;
use dw_pipeline::list::NodeList;
use dw_pipeline::{AdmissionRule, Gamma};

fn cfg(mode: SchedulingMode, parallel: bool) -> EngineConfig {
    EngineConfig {
        scheduling: mode,
        parallel_threshold: if parallel { 1 } else { usize::MAX },
        threads: if parallel { 4 } else { 1 },
        ..EngineConfig::default()
    }
}

const MODES: [(&str, SchedulingMode, bool); 4] = [
    ("exhaustive_seq", SchedulingMode::ExhaustivePoll, false),
    ("exhaustive_par", SchedulingMode::ExhaustivePoll, true),
    ("active_set_seq", SchedulingMode::ActiveSet, false),
    ("active_set_par", SchedulingMode::ActiveSet, true),
];

/// Idle-heavy: Algorithm 1 APSP on a zero-heavy graph — the pipelined
/// schedule keeps most nodes silent in most rounds, so active-set
/// scheduling should win by not polling them.
fn idle_heavy(c: &mut Criterion) {
    let wl = workloads::zero_heavy(48, 6, 77);
    let mut group = c.benchmark_group("idle_heavy_apsp");
    group.sample_size(10);
    for (label, mode, parallel) in MODES {
        group.bench_with_input(BenchmarkId::from_parameter(label), &wl, |b, wl| {
            b.iter(|| pipeline::apsp(&wl.graph, wl.delta, cfg(mode, parallel)))
        });
    }
    group.finish();
}

/// Dense: every node broadcasts every round — the worst case for any
/// scheduling overhead; active-set must track exhaustive polling here.
fn dense_send(c: &mut Criterion) {
    let wl = workloads::unweighted(128, 33);
    let mut group = c.benchmark_group("dense_ping");
    group.sample_size(10);
    for (label, mode, parallel) in MODES {
        group.bench_with_input(BenchmarkId::from_parameter(label), &wl, |b, wl| {
            b.iter(|| {
                let mut net =
                    Network::new(&wl.graph, cfg(mode, parallel), |_| DensePing { until: 100 });
                net.run(110);
                net.stats()
            })
        });
    }
    group.finish();
}

/// Fast-forward stress: a long-horizon short-range SSSP where almost every
/// round is skipped entirely — measures the scan-vs-heap silent-round cost.
fn fast_forward(c: &mut Criterion) {
    let wl = workloads::sparse_positive(1024, 32, 901);
    let mut group = c.benchmark_group("fast_forward_sssp");
    group.sample_size(10);
    for (label, mode, parallel) in MODES {
        group.bench_with_input(BenchmarkId::from_parameter(label), &wl, |b, wl| {
            b.iter(|| pipeline::short_range_sssp(&wl.graph, 0, 48, wl.delta, cfg(mode, parallel)))
        });
    }
    group.finish();
}

/// A list of `len` rows shaped like a node's in an all-pairs run:
/// `len / 2` sources, for each its SP row and one non-SP row above it,
/// keys scattered by a fixed LCG. Returns the SP rows too, which the
/// candidates are derived from.
fn sample_list(len: usize) -> (NodeList, Vec<Entry>) {
    let k = (len / 2) as u64;
    let mut list = NodeList::new(Gamma::new(k, 64, 64));
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) % m
    };
    let mut sp_rows = Vec::new();
    for src in 0..k as u32 {
        let sp = Entry {
            d: next(32),
            l: next(32),
            src,
            parent: src,
            flag_sp: true,
            sent: false,
        };
        list.insert(sp);
        list.insert(Entry {
            d: sp.d + 2 + next(8),
            flag_sp: false,
            ..sp
        });
        sp_rows.push(sp);
    }
    assert_eq!(list.len(), len);
    (list, sp_rows)
}

/// Calls per timed sample: the shim clocks every sample on its own, and
/// one list operation is far below the clock's resolution.
const LIST_OPS_PER_SAMPLE: usize = 4096;

fn list_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("list_ops_x{LIST_OPS_PER_SAMPLE}"));
    group.sample_size(20);
    for len in [16usize, 256, 1024] {
        let (base, sp_rows) = sample_list(len);
        // Step 13 turning a message away: both rows of the source sit
        // below the candidate, the sender counted one.
        let rejects: Vec<Entry> = sp_rows
            .iter()
            .map(|sp| Entry {
                d: sp.d + 12,
                flag_sp: false,
                ..*sp
            })
            .collect();
        // Step 13 letting one in: between the source's two rows, so the
        // INSERT also evicts the upper one and the length stays `len`.
        let admits: Vec<Entry> = sp_rows
            .iter()
            .map(|sp| Entry {
                l: sp.l + 1,
                flag_sp: false,
                ..*sp
            })
            .collect();

        let mut list = base.clone();
        group.bench_function(BenchmarkId::new("admit_reject", len), |b| {
            b.iter(|| {
                let mut turned_away = 0;
                for cand in rejects.iter().cycle().take(LIST_OPS_PER_SAMPLE) {
                    turned_away +=
                        list.admit(*cand, 1, AdmissionRule::ListOrder).is_none() as usize;
                }
                assert_eq!(turned_away, LIST_OPS_PER_SAMPLE);
            })
        });

        // Each source admits once per copy of the list, so a sample is
        // `LIST_OPS_PER_SAMPLE / (len / 2)` copies; the copying is timed
        // with the inserts.
        group.bench_function(BenchmarkId::new("admit_insert", len), |b| {
            b.iter(|| {
                for _ in 0..LIST_OPS_PER_SAMPLE / admits.len() {
                    let mut list = base.clone();
                    for cand in &admits {
                        let at = list.admit(*cand, 2, AdmissionRule::ListOrder);
                        assert!(at.is_some());
                    }
                    assert_eq!(list.len(), len);
                }
            })
        });

        // The send phase and the scheduler's poll, with the lower half of
        // the list already announced.
        let mut list = base.clone();
        for i in 0..len / 2 {
            list.mark_sent(i);
        }
        let horizon = list.schedule_value(len - 1) + 2;
        group.bench_function(BenchmarkId::new("find_send", len), |b| {
            b.iter(|| {
                (0..LIST_OPS_PER_SAMPLE as u64)
                    .filter_map(|i| criterion::black_box(&list).find_send(i % horizon))
                    .sum::<usize>()
            })
        });
        group.bench_function(BenchmarkId::new("earliest_schedule_ge", len), |b| {
            b.iter(|| {
                (0..LIST_OPS_PER_SAMPLE as u64)
                    .filter_map(|i| criterion::black_box(&list).earliest_schedule_ge(i % horizon))
                    .sum::<u64>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, idle_heavy, dense_send, fast_forward, list_ops);
criterion_main!(benches);
