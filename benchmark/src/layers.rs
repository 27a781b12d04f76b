//! The adapter: the one file that names anything under `crates/`.
//!
//! Every call the benchmark makes into the stack goes through a function
//! here, and the other modules hold the stack's values only as the
//! opaque aliases below. A later change that folds or renames public
//! entry points has this file to fix and nothing else; `README.md` lists
//! the functions called, layer by layer.
//!
//! Nothing here measures time. The driver opens a span, calls one of
//! these, and closes the span, so each layer is timed from outside.

use dw_blocker::alg3::alg3_apsp;
use dw_congest::{
    EngineConfig, Envelope, Network, NodeCtx, NullRecorder, ObsRecorder, Outbox, Protocol, Round,
    RunOutcome,
};
use dw_dynamic::{apply_update_batch, gen_update_batch, RecomputeEngine, UpdateBatch};
use dw_graph::gen::{self, WeightDist};
use dw_graph::{io as graph_io, WGraph};
use dw_pipeline::{
    default_budget, hk_round_bound, hk_ssp_node, recompute_incremental, run_hk_ssp_on_recorded,
    HkSspResult, Runtime, SspConfig,
};
use dw_seqref::dijkstra;
use dw_seqref::dijkstra::SsspResult;
use dw_serve::{
    answer, spawn_loopback, Gateway, GatewayConfig, QueryOutcome, QueryRequest, ServeClient,
    ServeStats, ShardHandle, TableSnapshot, VersionedTables,
};
use dw_transport::shard::ShardMap;
use rand_chacha::ChaCha8Rng;
use std::net::SocketAddr;
use std::time::Duration;

pub use dw_graph::{NetChange, NodeId, Weight, INFINITY};
/// Plain counters, read field by field where the metrics are derived.
pub use dw_obs::RunStats;

/// Opaque to the rest of the benchmark: only this file calls methods on
/// them.
pub type Graph = WGraph;
pub type Tables = TableSnapshot;
pub type Generation = VersionedTables;
pub type Batch = UpdateBatch;
pub type SsspRun = SsspResult;
pub type Solution = HkSspResult;

// ---------------------------------------------------------------- graphgen

/// The graph families the workloads draw from, by generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// `gen::zero_heavy(n, 3/n, 0.4, 6)`, directed: the paper's
    /// zero-weight regime.
    ZeroHeavy { n: usize },
    /// `gen::gnp_connected(n, 3/n, dist)`, directed.
    Gnp { n: usize, weights: Weights },
    /// `gen::power_law(n, 2, Uniform{max_w})`, undirected.
    PowerLaw { n: usize, max_w: Weight },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Weights {
    /// `WeightDist::ZeroOr { p_zero: 0, max }`: weights in `1..=max`.
    Positive { max: Weight },
    /// `WeightDist::Uniform { max }`: weights in `0..=max`.
    Uniform { max: Weight },
}

pub fn gen_graph(family: Family, seed: u64) -> Graph {
    match family {
        Family::ZeroHeavy { n } => gen::zero_heavy(n, 3.0 / n as f64, 0.4, 6, true, seed),
        Family::Gnp { n, weights } => {
            let dist = match weights {
                Weights::Positive { max } => WeightDist::ZeroOr { p_zero: 0.0, max },
                Weights::Uniform { max } => WeightDist::Uniform { max },
            };
            gen::gnp_connected(n, 3.0 / n as f64, true, dist, seed)
        }
        Family::PowerLaw { n, max_w } => {
            gen::power_law(n, 2, WeightDist::Uniform { max: max_w }, seed)
        }
    }
}

pub fn graph_to_json(g: &Graph) -> String {
    graph_io::to_json(g)
}

pub fn graph_from_json(text: &str) -> Result<Graph, String> {
    graph_io::from_json(text).map_err(|e| e.to_string())
}

pub fn graph_n(g: &Graph) -> usize {
    g.n()
}

pub fn graph_m(g: &Graph) -> usize {
    g.m()
}

pub fn graph_csr_bytes(g: &Graph) -> usize {
    g.csr_bytes()
}

pub fn graph_max_weight(g: &Graph) -> Weight {
    g.max_weight()
}

/// Weight of the edge `u -> v` (either orientation on an undirected
/// graph), which is what a served path is checked against.
pub fn edge_weight(g: &Graph, u: NodeId, v: NodeId) -> Option<Weight> {
    g.edge_weight(u, v)
}

pub fn clone_graph(g: &Graph) -> Graph {
    g.clone()
}

/// `WGraph::apply_updates` alone: the CSR row patch of one batch.
pub fn patch_graph(g: &mut Graph, batch: &Batch) -> Result<Vec<NetChange>, String> {
    g.apply_updates(&batch.updates)
        .map(|s| s.changes)
        .map_err(|e| format!("{e:?}"))
}

// ------------------------------------------------------------------ seqref

/// One Dijkstra run per source: the oracle every answer is held against,
/// and the tables themselves on the workload that bypasses the compute
/// plane.
pub fn oracle_runs(g: &Graph, sources: &[NodeId]) -> Vec<SsspRun> {
    sources.iter().map(|&s| dijkstra(g, s)).collect()
}

pub fn run_dist(run: &SsspRun) -> &[Weight] {
    &run.dist
}

// ---------------------------------------------------------------- pipeline

/// Which engine runs Algorithm 1. Mirrors `dw_pipeline::Runtime` for the
/// three spellings the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Sim,
    ThreadsSharded(usize),
    TcpSharded(usize),
}

impl Backend {
    fn runtime(self) -> Runtime {
        match self {
            Backend::Sim => Runtime::Sim,
            Backend::ThreadsSharded(p) => Runtime::ThreadsSharded(p),
            Backend::TcpSharded(p) => Runtime::TcpSharded(p),
        }
    }
}

pub struct Solved {
    pub result: Solution,
    pub stats: RunStats,
    /// The run went quiet inside its round budget, i.e. it converged.
    pub quiet: bool,
}

fn ssp_config(g: &Graph, sources: &[NodeId], delta: Weight) -> SspConfig {
    SspConfig::k_ssp(g.n(), sources.to_vec(), delta)
}

/// Algorithm 1 (`run_hk_ssp_on`) for `sources` with hop bound `n`. With
/// `observed`, the run records into a `dw_obs::ObsRecorder`, which is
/// what `obs.recorder_overhead_share` compares against the plain run.
pub fn solve(
    g: &Graph,
    sources: &[NodeId],
    delta: Weight,
    backend: Backend,
    observed: bool,
) -> Result<Solved, String> {
    let cfg = ssp_config(g, sources, delta);
    let engine = EngineConfig::default();
    let run = if observed {
        let mut rec = ObsRecorder::new();
        run_hk_ssp_on_recorded(backend.runtime(), g, &cfg, engine, &mut rec)
    } else {
        run_hk_ssp_on_recorded(backend.runtime(), g, &cfg, engine, &mut NullRecorder)
    };
    let (result, stats, outcome) = run.map_err(|e| e.to_string())?;
    Ok(Solved {
        result,
        stats,
        quiet: outcome == RunOutcome::Quiet,
    })
}

pub fn solution_rows(s: &Solution) -> &[Vec<Weight>] {
    &s.dist
}

/// Theorem I.1's round bound for the instance [`solve`] runs.
pub fn round_bound(g: &Graph, sources: &[NodeId], delta: Weight) -> u64 {
    hk_round_bound(g.n() as u64, sources.len() as u64, delta)
}

/// `dw_pipeline::recompute_incremental`: the dirty-row re-solve that
/// `RecomputeEngine::Alg1` runs inside `apply_update_batch`, called
/// directly. Returns how many rows it re-solved.
pub fn incremental_solve(g: &Graph, old: &Solution, changes: &[NetChange]) -> usize {
    recompute_incremental(g, old, changes, EngineConfig::default())
        .recomputed
        .len()
}

// ----------------------------------------------------------------- congest

/// The same Algorithm 1 instance on a bare `dw_congest::Network`, so the
/// engine is timed without result extraction and its slab gauges
/// (`stats_with_memory`) are filled.
pub fn engine_run(g: &Graph, sources: &[NodeId], delta: Weight) -> RunStats {
    let cfg = ssp_config(g, sources, delta);
    let mut net = Network::new(g, EngineConfig::default(), |v| hk_ssp_node(&cfg, v));
    net.run(default_budget(&cfg, g.n()));
    net.stats_with_memory()
}

/// Probe protocol: every node broadcasts in every round up to `until`.
/// All engine, no algorithm.
struct DenseProbe {
    until: Round,
}

impl Protocol for DenseProbe {
    type Msg = u64;
    fn send(&mut self, round: Round, _ctx: &NodeCtx, out: &mut Outbox<u64>) {
        if round <= self.until {
            out.broadcast(round);
        }
    }
    fn receive(&mut self, _round: Round, _inbox: &[Envelope<u64>], _ctx: &NodeCtx) {}
    fn earliest_send(&self, after: Round, _ctx: &NodeCtx) -> Option<Round> {
        (after <= self.until).then_some(after)
    }
}

/// Probe protocol: one token hops to the holder's first neighbor each
/// round, so a round carries one message and the engine's fixed cost per
/// round is all there is.
struct RelayProbe {
    holds: bool,
    until: Round,
}

impl Protocol for RelayProbe {
    type Msg = u64;
    fn send(&mut self, round: Round, ctx: &NodeCtx, out: &mut Outbox<u64>) {
        if self.holds && round <= self.until {
            if let Some(&next) = ctx.comm_neighbors().first() {
                out.unicast(next, round);
            }
            self.holds = false;
        }
    }
    fn receive(&mut self, _round: Round, inbox: &[Envelope<u64>], _ctx: &NodeCtx) {
        self.holds |= !inbox.is_empty();
    }
    fn earliest_send(&self, after: Round, _ctx: &NodeCtx) -> Option<Round> {
        (self.holds && after <= self.until).then_some(after)
    }
}

pub fn probe_dense(g: &Graph, rounds: u64) -> RunStats {
    let mut net = Network::new(g, EngineConfig::default(), |_| DenseProbe { until: rounds });
    net.run(rounds + 2);
    net.stats()
}

pub fn probe_relay(g: &Graph, rounds: u64) -> RunStats {
    let mut net = Network::new(g, EngineConfig::default(), |v| RelayProbe {
        holds: v == 0,
        until: rounds,
    });
    net.run(rounds + 2);
    net.stats()
}

// ----------------------------------------------------------------- blocker

pub struct Alg3Run {
    pub rounds: u64,
    pub blockers: usize,
    pub rows: Vec<Vec<Weight>>,
}

/// Algorithm 3 APSP (`alg3_apsp`) with hop parameter `h`.
pub fn alg3(g: &Graph, h: u64, delta: Weight) -> Alg3Run {
    let out = alg3_apsp(g, h, delta, EngineConfig::default());
    Alg3Run {
        rounds: out.stats.rounds,
        blockers: out.blockers.len(),
        rows: out.matrix.dist,
    }
}

// ------------------------------------------------------------ serve tables

pub fn tables_from_solution(s: &Solution) -> Tables {
    TableSnapshot::from_result(s)
}

pub fn tables_from_oracle(runs: &[SsspRun], n: usize) -> Tables {
    TableSnapshot::from_sssp(runs, n as u32)
}

pub fn tables_to_bytes(t: &Tables) -> Vec<u8> {
    t.to_file_bytes()
}

pub fn tables_from_bytes(bytes: &[u8]) -> Option<Tables> {
    TableSnapshot::from_file_bytes(bytes)
}

/// What `spawn_loopback` does to the snapshot before a shard can boot:
/// `TableSnapshot::for_shard` once per shard of the layout.
pub fn shard_split(t: &Tables, shards: usize) -> Vec<Tables> {
    let map = ShardMap::new(t.n as usize, shards);
    (0..map.shards())
        .map(|s| t.for_shard(&map, s as NodeId))
        .collect()
}

pub fn first_generation(t: Tables) -> Generation {
    VersionedTables {
        generation: 0,
        snap: t,
    }
}

pub fn generation_number(g: &Generation) -> u64 {
    g.generation
}

// ------------------------------------------------------- serve deployment

/// A loopback deployment: shard servers plus the gateway, default
/// `GatewayConfig`.
pub struct Deployment {
    gateway: Gateway,
    shards: Vec<ShardHandle>,
}

pub fn deploy(t: &Tables, shards: usize) -> Result<Deployment, String> {
    let (gateway, shards, _map) =
        spawn_loopback(t, shards, GatewayConfig::default()).map_err(|e| e.to_string())?;
    Ok(Deployment { gateway, shards })
}

impl Deployment {
    pub fn addr(&self) -> SocketAddr {
        self.gateway.addr
    }

    /// `Gateway::stats` now; subtract two of these to get a phase.
    pub fn counters(&self) -> GatewayCounters {
        let s: ServeStats = self.gateway.stats();
        GatewayCounters {
            queries: s.queries,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            batches: s.batches,
            batched_queries: s.batched_queries,
            route_ns: s.route_ns,
            batch_ns: s.batch_ns,
            lookup_ns: s.lookup_ns,
            walk_ns: s.walk_ns,
        }
    }

    /// `Gateway::shutdown` joins the per-connection threads, so every
    /// client of this deployment must have been dropped first.
    pub fn shutdown(mut self) {
        self.gateway.shutdown();
        for s in &mut self.shards {
            s.stop();
        }
    }
}

/// The gateway's own phase accounting (`dw_serve::ServeStats`): totals
/// since it started.
#[derive(Debug, Clone, Copy, Default)]
pub struct GatewayCounters {
    pub queries: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub batches: u64,
    pub batched_queries: u64,
    pub route_ns: u64,
    pub batch_ns: u64,
    pub lookup_ns: u64,
    pub walk_ns: u64,
}

impl GatewayCounters {
    fn zip(self, o: GatewayCounters, f: impl Fn(u64, u64) -> u64) -> GatewayCounters {
        GatewayCounters {
            queries: f(self.queries, o.queries),
            cache_hits: f(self.cache_hits, o.cache_hits),
            cache_misses: f(self.cache_misses, o.cache_misses),
            batches: f(self.batches, o.batches),
            batched_queries: f(self.batched_queries, o.batched_queries),
            route_ns: f(self.route_ns, o.route_ns),
            batch_ns: f(self.batch_ns, o.batch_ns),
            lookup_ns: f(self.lookup_ns, o.lookup_ns),
            walk_ns: f(self.walk_ns, o.walk_ns),
        }
    }

    pub fn since(self, before: GatewayCounters) -> GatewayCounters {
        self.zip(before, |now, then| now - then)
    }

    /// Pool the counters of one more deployment into `self`.
    pub fn add(&mut self, other: GatewayCounters) {
        *self = self.zip(other, |a, b| a + b);
    }
}

/// One answered query, reduced to what the checks need. `Refused` covers
/// the typed non-answers (`UnknownSource`, `OutOfRange`,
/// `ShardUnavailable`), none of which a correct run produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Dist(Weight),
    Path(Weight, Vec<NodeId>),
    Unreachable,
    Refused(&'static str),
}

fn to_answer(outcome: QueryOutcome) -> Answer {
    match outcome {
        QueryOutcome::Dist { dist } => Answer::Dist(dist),
        QueryOutcome::Path { dist, path } => Answer::Path(dist, path),
        QueryOutcome::Unreachable => Answer::Unreachable,
        QueryOutcome::UnknownSource => Answer::Refused("unknown source"),
        QueryOutcome::OutOfRange => Answer::Refused("out of range"),
        QueryOutcome::ShardUnavailable { .. } => Answer::Refused("shard unavailable"),
    }
}

pub struct Client(ServeClient);

pub struct Swap {
    pub accepted: bool,
    pub generation: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        ServeClient::connect(addr, Duration::from_secs(5))
            .map(Client)
            .map_err(|e| e.to_string())
    }

    pub fn query(&mut self, src: NodeId, dst: NodeId, want_path: bool) -> Result<Answer, String> {
        self.0
            .query(src, dst, want_path)
            .map(to_answer)
            .map_err(|e| e.to_string())
    }

    /// `ServeClient::apply_tables`: push `next` through the gateway to
    /// every shard.
    pub fn apply_tables(&mut self, next: &Generation) -> Result<Swap, String> {
        self.0
            .apply_tables(next.generation, &next.snap)
            .map(|r| Swap {
                accepted: r.accepted,
                generation: r.generation,
            })
            .map_err(|e| e.to_string())
    }
}

/// `dw_serve::answer` on a snapshot in this process: the shard's work
/// for one query with no socket in the way. Returns the answer and the
/// path's hop count.
pub fn answer_direct(t: &Tables, src: NodeId, dst: NodeId, want_path: bool) -> (Answer, usize) {
    let q = QueryRequest {
        id: 0,
        src,
        dst,
        want_path,
    };
    let (reply, _lookup_ns, _walk_ns) = answer(t, &q);
    let answer = to_answer(reply.outcome);
    let hops = match &answer {
        Answer::Path(_, p) => p.len().saturating_sub(1),
        _ => 0,
    };
    (answer, hops)
}

// ----------------------------------------------------------------- dynamic

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recompute {
    Alg1,
    Oracle,
}

pub fn gen_batch(g: &Graph, seq: u64, size: usize, max_w: Weight, rng: &mut ChaCha8Rng) -> Batch {
    gen_update_batch(g, seq, size, max_w, rng)
}

pub struct Applied {
    pub next: Generation,
    pub recomputed: usize,
    pub rows: usize,
}

/// `apply_update_batch`: patch `g`, re-solve the invalidated rows, and
/// hand back the next generation.
pub fn apply_batch(
    g: &mut Graph,
    current: &Generation,
    batch: &Batch,
    engine: Recompute,
) -> Result<Applied, String> {
    let engine = match engine {
        Recompute::Alg1 => RecomputeEngine::Alg1,
        Recompute::Oracle => RecomputeEngine::Oracle,
    };
    let (next, report) =
        apply_update_batch(g, current, batch, engine).map_err(|e| format!("{e:?}"))?;
    Ok(Applied {
        next,
        recomputed: report.recomputed,
        rows: report.recomputed + report.reused,
    })
}

/// Bytes `apply_tables` puts on the client connection for `g`: the
/// snapshot's file encoding stands in for the frame payload, which wraps
/// the same `WireCodec` bytes in a few header words.
pub fn push_bytes(g: &Generation) -> usize {
    g.snap.to_file_bytes().len()
}
