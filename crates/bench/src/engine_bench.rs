//! Engine wall-clock benchmark: the fixed workload set at the top of
//! the table `transport_bench` prints.
//!
//! Each workload runs the full protocol stack on the round engine and
//! reports wall-clock milliseconds plus executed-rounds-per-second (the
//! engine throughput measure: fast-forwarded rounds are free in every
//! engine mode, so only simulated rounds count). The set deliberately
//! spans the two regimes the active-set scheduler separates:
//!
//! * **idle-heavy** — pipelined schedules (Algorithm 1 APSP / k-SSP, the
//!   E2/E9 configurations, Algorithm 2 short-range) where most nodes are
//!   silent in most rounds and the win comes from not polling them;
//! * **dense** — every node sends every round, the worst case for any
//!   scheduling overhead (the active-set engine must not regress it).

use dw_congest::{
    EngineConfig, Envelope, Network, NodeCtx, NullRecorder, Outbox, Protocol, Round, RunStats,
    SchedulingMode,
};
use dw_graph::NodeId;
use dw_pipeline as pipeline;
use std::time::Instant;

use crate::workloads;

/// One measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub workload: &'static str,
    pub mode: &'static str,
    pub n: usize,
    pub rounds: u64,
    pub rounds_executed: u64,
    pub messages: u64,
    pub wall_ms: f64,
    /// Executed rounds per wall-clock second.
    pub rounds_per_sec: f64,
    /// Inbox-slab resident bytes (see [`RunStats::slab_bytes`]); zero for
    /// runs measured through entry points that report plain `stats()`.
    pub slab_bytes: u64,
    /// Peak concurrently checked-out inbox buffers
    /// (see [`RunStats::slab_peak`]); zero as for `slab_bytes`.
    pub slab_peak: u64,
    /// Client-observed median latency in microseconds — only the
    /// `serve_*` workloads measure latency; zero everywhere else.
    pub p50_us: u64,
    /// Client-observed 99th-percentile latency; zero as for `p50_us`.
    pub p99_us: u64,
}

pub(crate) fn measure(
    workload: &'static str,
    mode: &'static str,
    n: usize,
    run: impl Fn() -> RunStats,
) -> Measurement {
    // One warmup, then best-of-three timed runs: the workloads are
    // deterministic (identical stats every run), so keeping the fastest
    // wall clock just strips scheduler noise.
    let _ = run();
    let start = Instant::now();
    let stats = run();
    let mut wall = start.elapsed();
    for _ in 0..2 {
        let start = Instant::now();
        let _ = run();
        wall = wall.min(start.elapsed());
    }
    let wall_ms = wall.as_secs_f64() * 1e3;
    Measurement {
        workload,
        mode,
        n,
        rounds: stats.rounds,
        rounds_executed: stats.rounds_executed,
        messages: stats.messages,
        wall_ms,
        rounds_per_sec: stats.rounds_executed as f64 / wall.as_secs_f64().max(1e-9),
        slab_bytes: stats.slab_bytes,
        slab_peak: stats.slab_peak,
        p50_us: 0,
        p99_us: 0,
    }
}

/// Dense stressor: every node broadcasts a counter every round for a
/// fixed number of rounds (no idle rounds at all).
pub struct DensePing {
    pub until: Round,
}

impl Protocol for DensePing {
    type Msg = u64;
    fn send(&mut self, round: Round, _ctx: &NodeCtx, out: &mut Outbox<u64>) {
        if round <= self.until {
            out.broadcast(round);
        }
    }
    fn receive(&mut self, _round: Round, inbox: &[Envelope<u64>], _ctx: &NodeCtx) {
        let _ = inbox.len();
    }
    fn earliest_send(&self, after: Round, _ctx: &NodeCtx) -> Option<Round> {
        (after <= self.until).then_some(after)
    }
}

/// The engine-mode set every [`run_all`] workload is measured under.
pub fn standard_modes() -> Vec<(&'static str, EngineConfig)> {
    vec![
        (
            "exhaustive",
            EngineConfig {
                scheduling: SchedulingMode::ExhaustivePoll,
                ..EngineConfig::default()
            },
        ),
        ("active_set", EngineConfig::default()),
        (
            "active_set_par",
            EngineConfig {
                parallel_threshold: 256,
                ..EngineConfig::default()
            },
        ),
    ]
}

/// The fixed workload set. `modes` maps a label to an engine
/// configuration; every workload is measured under every mode.
pub fn run_all(modes: &[(&'static str, EngineConfig)]) -> Vec<Measurement> {
    let mut out = Vec::new();

    // E2-style idle-heavy pipelined APSP: zero-heavy weights, all sources.
    let e2 = workloads::zero_heavy(96, 6, 77);
    for (mode, cfg) in modes {
        let e2 = &e2;
        out.push(measure("e2_pipelined_apsp", mode, e2.n(), || {
            pipeline::apsp(&e2.graph, e2.delta, cfg.clone()).1
        }));
    }

    // E9-style sparse k-SSP: long distances, sparse schedule, 16 sources.
    let e9 = workloads::sparse_positive(384, 16, 708);
    let sources: Vec<NodeId> = (0..16).map(|i| (i * 24) as NodeId).collect();
    for (mode, cfg) in modes {
        let e9 = &e9;
        let sources = sources.clone();
        out.push(measure("e9_sparse_kssp", mode, e9.n(), move || {
            pipeline::k_ssp(&e9.graph, sources.clone(), e9.delta, cfg.clone()).1
        }));
    }

    // Algorithm 2 short-range on a long sparse graph: a moving frontier,
    // nearly all nodes idle in any given round.
    let sr = workloads::sparse_positive(4096, 32, 901);
    for (mode, cfg) in modes {
        let sr = &sr;
        out.push(measure("short_range_sssp", mode, sr.n(), || {
            let run = pipeline::Run {
                engine: cfg.clone(),
                ..pipeline::Run::default()
            };
            pipeline::solve_short_range(&sr.graph, 0, 64, sr.delta, &run, &mut NullRecorder)
                .expect("simulator run")
                .stats
        }));
    }

    // Dense: every node broadcasts every round.
    let dense = workloads::unweighted(256, 33);
    for (mode, cfg) in modes {
        let dense = &dense;
        out.push(measure("dense_ping", mode, dense.n(), || {
            let mut net = Network::new(&dense.graph, cfg.clone(), |_| DensePing { until: 400 });
            net.run(410);
            net.stats()
        }));
    }

    out
}

/// The engine modes measured on the n≥50k scale workloads: the active-set
/// configurations only. `ExhaustivePoll` at this size mostly measures the
/// poll loop itself (50k `earliest_send` queries per round for a frontier
/// of a few hundred active nodes — the regime the scheduler exists to
/// avoid) and would stretch the bench pass by minutes without gating
/// anything the smaller `dense_ping` workload doesn't already cover.
pub fn scale_modes() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("active_set", EngineConfig::default()),
        (
            "active_set_par",
            EngineConfig {
                parallel_threshold: 256,
                ..EngineConfig::default()
            },
        ),
    ]
}

/// The n≥50k scale workload set (the `scale_*` rows). These drive
/// [`Network`] directly (instead of the pipeline drivers) so the
/// measurement can use [`Network::stats_with_memory`] and record the
/// inbox-slab footprint alongside throughput.
pub fn run_scale(modes: &[(&'static str, EngineConfig)]) -> Vec<Measurement> {
    use pipeline::short_range::{short_range_budget, short_range_gamma, ShortRangeNode};

    let mut out = Vec::new();

    // Algorithm 2 short-range SSSP on a 224×224 grid (n = 50_176): the
    // bounded-degree planar workload of the large-graph regime. Source at
    // the grid center so the whole h-hop ball is interior; in any given
    // round the moving frontier keeps all but a sliver of the 50k nodes
    // idle — the active-set scheduler's home turf.
    let h: u64 = 64;
    let (rows, cols) = (224usize, 224usize);
    let src: NodeId = (112 * cols + 112) as NodeId;
    let grid = workloads::scale_grid2d(rows, cols, 8, h as usize, src, 5001);
    let gamma = short_range_gamma(h);
    let budget = short_range_budget(h, grid.delta);
    for (mode, cfg) in modes {
        let grid = &grid;
        out.push(measure("scale_grid_short_range", mode, grid.n(), || {
            let mut net = Network::new(&grid.graph, cfg.clone(), |v| {
                ShortRangeNode::new(gamma, h, (v == src).then_some(0))
            });
            net.run(budget);
            net.stats_with_memory()
        }));
    }

    // E9-style k-SSP (Algorithm 1, hop bound n) on a 50k-node power-law
    // graph: heavy-tailed degrees, 4 spread-out sources. Invariant
    // tracking is off — at this size the workload measures the engine,
    // not the invariant checker.
    let sources: Vec<NodeId> = (0..4).map(|i| (i * 12_007) as NodeId).collect();
    let pl = workloads::scale_power_law(50_000, 2, 4, &sources, 5002);
    let kcfg = pipeline::SspConfig {
        track_invariants: false,
        ..pipeline::SspConfig::k_ssp(pl.n(), sources, pl.delta)
    };
    let kbudget = pipeline::default_budget(&kcfg, pl.n());
    for (mode, cfg) in modes {
        let (pl, kcfg) = (&pl, &kcfg);
        out.push(measure("scale_powerlaw_kssp", mode, pl.n(), || {
            let mut net =
                Network::new(&pl.graph, cfg.clone(), pipeline::hk_ssp_nodes(kcfg, pl.n()));
            net.run(kbudget);
            net.stats_with_memory()
        }));
    }

    out
}
