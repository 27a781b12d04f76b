//! Execution-environment selection: run the paper's algorithms on the
//! lockstep simulator or on a real message-passing runtime
//! (`dw-transport`), with identical results.
//!
//! The conformance guarantee (see `dw-transport`) makes the choice a
//! pure deployment decision: `Runtime::Sim` is the fast in-process
//! simulator, `Runtime::Threads` runs every node as an OS thread over
//! channels, `Runtime::Tcp` runs every node behind a loopback TCP
//! endpoint with the serialized wire protocol, and the `:P` forms pack
//! the nodes into P such workers. All return bit-identical distances,
//! statistics and outcomes on the same seeds.
//!
//! Transport runs can fail — a peer process dies, a socket breaks, a
//! scripted [`ChaosPlan`] kills a node — so their entry points return
//! [`dw_transport::TransportError`]. The chaos entry point
//! [`run_hk_ssp_chaos`] adds checkpoint-based crash recovery: when the
//! failure is recoverable the run completes with distances
//! bit-identical to the fault-free simulator; when it is not, the
//! salvaged state comes back as a structured [`PartialOutcome`] instead
//! of a hang or a panic.

use crate::config::SspConfig;
use crate::driver::default_budget;
use crate::key::Gamma;
use crate::node::PipelinedNode;
use crate::result::HkSspResult;
use crate::short_range::{short_range_gamma, ShortRangeNode, ShortRangeResult};
use dw_congest::{EngineConfig, NullRecorder, Recorder, Round, RunOutcome, RunStats};
use dw_graph::{NodeId, WGraph, Weight, INFINITY};
use dw_transport::{
    run_tcp_loopback, run_tcp_loopback_chaos, run_threads, run_threads_chaos, ChaosPlan,
    PartialRun, TransportConfig, TransportError, TransportRun,
};
use std::time::Duration;

/// Which engine executes the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Runtime {
    /// The lockstep simulator (`dw_congest::Network`).
    #[default]
    Sim,
    /// `dw-transport` thread backend, one node per worker thread (the
    /// paper's model): `ThreadsSharded(n)`.
    Threads,
    /// `dw-transport` TCP backend on loopback, one node per endpoint:
    /// `TcpSharded(n)`.
    Tcp,
    /// Thread backend with the given number of workers, each hosting a
    /// contiguous block of nodes with in-memory intra-shard links (see
    /// `dw_transport::shard`), typed channels between workers.
    ThreadsSharded(usize),
    /// TCP backend on loopback with the given number of workers:
    /// cross-shard traffic batched per round into serialized
    /// `RoundBatch` frames.
    TcpSharded(usize),
}

impl Runtime {
    /// Parse a CLI spelling: `sim`, `threads`, `tcp`, or the sharded
    /// forms `threads:P` / `tcp:P` with `P >= 1` worker shards.
    pub fn parse(s: &str) -> Option<Runtime> {
        match s {
            "sim" => Some(Runtime::Sim),
            "threads" => Some(Runtime::Threads),
            "tcp" => Some(Runtime::Tcp),
            _ => {
                let (base, p) = s.split_once(':')?;
                let p: usize = p.parse().ok().filter(|&p| p >= 1)?;
                match base {
                    "threads" => Some(Runtime::ThreadsSharded(p)),
                    "tcp" => Some(Runtime::TcpSharded(p)),
                    _ => None,
                }
            }
        }
    }

    /// The backend family name (shard counts elided); see [`Runtime::label`]
    /// for the round-trippable spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Runtime::Sim => "sim",
            Runtime::Threads => "threads",
            Runtime::Tcp => "tcp",
            Runtime::ThreadsSharded(_) => "threads-sharded",
            Runtime::TcpSharded(_) => "tcp-sharded",
        }
    }

    /// The full CLI spelling, such that `Runtime::parse(rt.label())`
    /// round-trips.
    pub fn label(self) -> String {
        match self {
            Runtime::ThreadsSharded(p) => format!("threads:{p}"),
            Runtime::TcpSharded(p) => format!("tcp:{p}"),
            other => other.as_str().to_string(),
        }
    }
}

impl Runtime {
    /// The worker count this runtime lays an `n`-node graph out over —
    /// the one place the per-node spellings become `P = n`. (The
    /// simulator plays all `n` nodes itself.)
    fn shards(self, n: usize) -> usize {
        match self {
            Runtime::Sim | Runtime::Threads | Runtime::Tcp => n,
            Runtime::ThreadsSharded(p) | Runtime::TcpSharded(p) => p,
        }
    }
}

fn transport_run<P: dw_congest::Protocol>(
    rt: Runtime,
    g: &WGraph,
    engine: &EngineConfig,
    budget: u64,
    make: impl FnMut(NodeId) -> P,
    rec: &mut dyn Recorder,
) -> Result<TransportRun<P>, TransportError>
where
    P::Msg: dw_congest::WireCodec,
{
    let cfg = TransportConfig::from(engine);
    let shards = rt.shards(g.n());
    match rt {
        Runtime::Sim => unreachable!("simulator runs don't go through the transport"),
        Runtime::Threads | Runtime::ThreadsSharded(_) => {
            run_threads(g, &cfg, budget, shards, make, rec)
        }
        Runtime::Tcp | Runtime::TcpSharded(_) => {
            run_tcp_loopback(g, &cfg, budget, shards, make, rec)
        }
    }
}

/// The Algorithm 1 node instance the transport backends execute for
/// `cfg`. Exposed so a multi-process deployment (`dwapsp run-node`)
/// constructs exactly the node that [`run_hk_ssp_on`] would, which is
/// what makes its wire traffic conformant. Looks `v` up among the
/// sources; to construct many nodes use [`hk_ssp_nodes`].
pub fn hk_ssp_node(cfg: &SspConfig, v: NodeId) -> PipelinedNode {
    let k = cfg.k();
    PipelinedNode::with_admission(
        Gamma::new(k, cfg.h, cfg.delta),
        cfg.h,
        k,
        cfg.sources.contains(&v),
        cfg.track_invariants,
        cfg.admission,
    )
}

/// The constructor every Algorithm 1 run hands its engine or transport:
/// node id to node program, for a graph of `n` nodes. The source table
/// is built once, so constructing all the nodes costs `O(n + k)` where
/// asking [`hk_ssp_node`] for each costs `O(n·k)`. `gamma` is a
/// parameter because a caller's key schedule need not be `cfg`'s own.
pub fn hk_ssp_nodes(
    cfg: &SspConfig,
    gamma: Gamma,
    n: usize,
) -> impl Fn(NodeId) -> PipelinedNode + '_ {
    let mut is_source = vec![false; n];
    for &s in &cfg.sources {
        is_source[s as usize] = true;
    }
    move |v| {
        PipelinedNode::with_admission(
            gamma,
            cfg.h,
            cfg.k(),
            is_source[v as usize],
            cfg.track_invariants,
            cfg.admission,
        )
    }
}

/// [`crate::run_hk_ssp`] on the chosen runtime.
pub fn run_hk_ssp_on(
    rt: Runtime,
    g: &WGraph,
    cfg: &SspConfig,
    engine: EngineConfig,
) -> Result<(HkSspResult, RunStats, RunOutcome), TransportError> {
    run_hk_ssp_on_recorded(rt, g, cfg, engine, &mut NullRecorder)
}

/// As [`run_hk_ssp_on`], wrapping the run in an `hk_ssp` span on `rec` —
/// identical phase attribution on every runtime, which is what lets the
/// conformance tests compare recordings bit-for-bit across sim/threads/
/// TCP.
pub fn run_hk_ssp_on_recorded(
    rt: Runtime,
    g: &WGraph,
    cfg: &SspConfig,
    engine: EngineConfig,
    rec: &mut dyn Recorder,
) -> Result<(HkSspResult, RunStats, RunOutcome), TransportError> {
    if rt == Runtime::Sim {
        return Ok(crate::driver::run_hk_ssp_recorded(g, cfg, engine, rec));
    }
    let budget = default_budget(cfg, g.n());
    let span = rec.begin("hk_ssp");
    let make = hk_ssp_nodes(cfg, Gamma::new(cfg.k(), cfg.h, cfg.delta), g.n());
    let run = transport_run(rt, g, &engine, budget, make, rec)?;
    rec.end(span, &run.stats);
    let result = crate::driver::extract(g, &cfg.sources, run.nodes.iter());
    Ok((result, run.stats, run.outcome))
}

/// [`crate::short_range_sssp`] on the chosen runtime.
pub fn short_range_sssp_on(
    rt: Runtime,
    g: &WGraph,
    x: NodeId,
    h: u64,
    delta: Weight,
    engine: EngineConfig,
) -> Result<(ShortRangeResult, RunStats), TransportError> {
    if rt == Runtime::Sim {
        return Ok(crate::short_range::short_range_sssp(g, x, h, delta, engine));
    }
    let gamma = short_range_gamma(h);
    let budget = gamma.ceil_kappa(delta.max(1), h) + 2;
    let run = transport_run(
        rt,
        g,
        &engine,
        budget,
        |v| ShortRangeNode::new(gamma, h, (v == x).then_some(0)),
        &mut NullRecorder,
    )?;
    let result = crate::short_range::extract_instance(x, &run.nodes);
    Ok((result, run.stats))
}

/// Crash-fault knobs for [`run_hk_ssp_chaos`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Scripted faults (node kills, link severs, coordinator stalls).
    pub plan: ChaosPlan,
    /// Checkpoint every `k` executed rounds (`None` disables
    /// checkpointing — any kill is then unrecoverable by design).
    pub cadence: Option<u64>,
    /// Per-round barrier deadline; a node silent past it is suspected,
    /// probed and — if still silent — declared crashed.
    pub deadline: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            plan: ChaosPlan::new(0),
            cadence: Some(8),
            deadline: Duration::from_millis(500),
        }
    }
}

/// What survives an unrecoverable crash: upper-bound distances from the
/// salvaged nodes plus a precise account of what is missing. The run
/// terminates with this instead of hanging — the coordinator's deadline
/// budget bounds the wait for every barrier.
#[derive(Debug, Clone)]
pub struct PartialOutcome {
    /// Distances extracted from the surviving nodes. Every finite value
    /// is the weight of a real `<= h`-hop path (distances only improve
    /// over a run, so these are valid upper bounds as of `round`);
    /// columns of failed nodes are `INFINITY`/unreported.
    pub result: HkSspResult,
    /// Nodes the coordinator declared crashed or unrecoverable.
    pub failed: Vec<NodeId>,
    /// Sources whose own node failed: their instance state is lost, so
    /// their rows are incomplete beyond the salvaged upper bounds.
    pub incomplete_sources: Vec<NodeId>,
    /// Nodes cut off from some source by the chaos plan's *permanent*
    /// link cuts (an unhealed [`dw_transport::ChaosEvent::Partition`],
    /// a never-healing `AsymmetricLoss`): exactly the nodes unreachable
    /// from a source in the residual communication graph with the cut
    /// directed links removed. These runs terminate (the cut links go
    /// quiet, they do not hang) but degrade to this typed outcome
    /// instead of claiming convergence. Empty for crash-path failures.
    pub unreachable: Vec<NodeId>,
    /// The barrier round the run died in.
    pub round: Round,
    /// Human-readable failure cause (the rendered `TransportError`).
    pub reason: String,
}

fn partial_outcome(
    g: &WGraph,
    sources: &[NodeId],
    run: PartialRun<PipelinedNode>,
) -> PartialOutcome {
    let n = g.n();
    let mut dist = vec![vec![INFINITY; n]; sources.len()];
    let mut hops = vec![vec![0u64; n]; sources.len()];
    let mut parent = vec![vec![None; n]; sources.len()];
    for (v, node) in run.nodes.iter().enumerate() {
        let Some(node) = node else { continue };
        for (i, &s) in sources.iter().enumerate() {
            if let Some(b) = node.best_for(s) {
                dist[i][v] = b.d;
                hops[i][v] = b.l;
                parent[i][v] = (v as NodeId != s).then_some(b.parent);
            }
        }
    }
    let incomplete_sources: Vec<NodeId> = sources
        .iter()
        .copied()
        .filter(|s| run.failed.contains(s))
        .collect();
    PartialOutcome {
        result: HkSspResult {
            sources: sources.to_vec(),
            dist,
            hops,
            parent,
        },
        failed: run.failed,
        incomplete_sources,
        unreachable: Vec::new(),
        round: run.round,
        reason: run.error.to_string(),
    }
}

/// Nodes unreachable from some source in the *residual* communication
/// graph — the comm graph with every directed link the plan cuts
/// forever removed. Sorted, deduplicated; empty iff the permanent cuts
/// (if any) leave every source-to-node path intact.
///
/// The check is structural: it asks what information flow the cuts make
/// impossible, not what a particular run achieved before the cut bit.
/// With `from_round == 0` (the scripted case the chaos suite exercises)
/// the two coincide — no payload ever crosses a cut link, so a named
/// node provably cannot have learned its distance. A cut starting mid-run
/// may leave valid upper bounds in `result` for nodes named here.
fn residual_unreachable(g: &WGraph, sources: &[NodeId], plan: &ChaosPlan) -> Vec<NodeId> {
    if !plan.events().iter().any(|e| {
        matches!(
            e,
            dw_transport::ChaosEvent::Partition {
                heal_round: None,
                ..
            } | dw_transport::ChaosEvent::AsymmetricLoss {
                until_round: dw_transport::NEVER,
                ..
            }
        )
    }) {
        return Vec::new();
    }
    let n = g.n();
    let mut cut_off = vec![false; n];
    for &s in sources {
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[s as usize] = true;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in g.comm_neighbors(u) {
                if !seen[v as usize] && !plan.cuts_forever(u, v) {
                    seen[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
        for v in 0..n {
            cut_off[v] |= !seen[v];
        }
    }
    (0..n as NodeId).filter(|&v| cut_off[v as usize]).collect()
}

/// Algorithm 1 under scripted crash faults, with checkpoint/restore
/// recovery.
///
/// On a real transport the run executes `chaos.plan`: a killed node
/// takes its worker down (itself alone on `Threads` / `Tcp`, its whole
/// block on the `:P` forms), which discards its dynamic state, gets
/// detected by the coordinator's deadline + ping probe, and rejoins from
/// its latest checkpoint plus the neighbors' replayed frames. A recovered run
/// returns `Ok` with distances **bit-identical** to the fault-free
/// simulator on the same seeds — determinism makes replay exact, not
/// approximate. An unrecoverable failure (no checkpoint, several
/// simultaneous crashes, a severed link) terminates within the deadline
/// budget and returns the salvaged [`PartialOutcome`].
///
/// `Runtime::Sim` ignores the plan (the lockstep simulator has no
/// processes to kill) and serves as the recovery tests' ground truth.
pub fn run_hk_ssp_chaos(
    rt: Runtime,
    g: &WGraph,
    cfg: &SspConfig,
    engine: EngineConfig,
    chaos: &ChaosConfig,
    rec: &mut dyn Recorder,
) -> Result<(HkSspResult, RunStats, RunOutcome), Box<PartialOutcome>> {
    if rt == Runtime::Sim {
        return Ok(crate::driver::run_hk_ssp_recorded(g, cfg, engine, rec));
    }
    let budget = default_budget(cfg, g.n());
    let tcfg = TransportConfig {
        checkpoint_cadence: chaos.cadence,
        chaos: Some(chaos.plan.clone()),
        ..TransportConfig::from(&engine)
    };
    let make = hk_ssp_nodes(cfg, Gamma::new(cfg.k(), cfg.h, cfg.delta), g.n());
    let shards = rt.shards(g.n());
    let run = match rt {
        Runtime::Sim => unreachable!("handled above"),
        Runtime::Threads | Runtime::ThreadsSharded(_) => {
            run_threads_chaos(g, &tcfg, budget, shards, chaos.deadline, make, rec)
        }
        Runtime::Tcp | Runtime::TcpSharded(_) => {
            run_tcp_loopback_chaos(g, &tcfg, budget, shards, chaos.deadline, make, rec)
        }
    };
    match run {
        Ok(run) => {
            let result = crate::driver::extract(g, &cfg.sources, run.nodes.iter());
            let unreachable = residual_unreachable(g, &cfg.sources, &chaos.plan);
            if !unreachable.is_empty() {
                // The run terminated (permanent cuts drop payloads, they
                // never stall the barrier), but some sources provably
                // could not inform every node. Degrade to the typed
                // outcome instead of claiming convergence; the salvaged
                // distances remain valid upper bounds.
                return Err(Box::new(PartialOutcome {
                    result,
                    failed: Vec::new(),
                    incomplete_sources: Vec::new(),
                    unreachable,
                    round: run.stats.rounds_executed,
                    reason: "permanent link cuts disconnect the communication graph".to_string(),
                }));
            }
            Ok((result, run.stats, run.outcome))
        }
        Err(partial) => Err(Box::new(partial_outcome(g, &cfg.sources, *partial))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_graph::gen::{self, WeightDist};

    #[test]
    fn runtime_parse_roundtrip() {
        for rt in [
            Runtime::Sim,
            Runtime::Threads,
            Runtime::Tcp,
            Runtime::ThreadsSharded(1),
            Runtime::ThreadsSharded(8),
            Runtime::TcpSharded(4),
        ] {
            assert_eq!(Runtime::parse(&rt.label()), Some(rt));
        }
        assert_eq!(Runtime::parse("mpi"), None);
        assert_eq!(Runtime::parse("threads:0"), None);
        assert_eq!(Runtime::parse("threads:"), None);
        assert_eq!(Runtime::parse("sim:2"), None);
        assert_eq!(Runtime::parse("tcp:-1"), None);
    }

    #[test]
    fn hk_ssp_sharded_runtimes_match_sim() {
        let g = gen::zero_heavy(18, 0.15, 0.4, 5, true, 2);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let (sim_res, sim_stats, sim_outcome) =
            run_hk_ssp_on(Runtime::Sim, &g, &cfg, EngineConfig::default()).unwrap();
        for rt in [Runtime::ThreadsSharded(4), Runtime::TcpSharded(3)] {
            let (res, stats, outcome) =
                run_hk_ssp_on(rt, &g, &cfg, EngineConfig::default()).unwrap();
            assert_eq!(res, sim_res, "{}", rt.label());
            assert_eq!(stats, sim_stats, "{}", rt.label());
            assert_eq!(outcome, sim_outcome, "{}", rt.label());
        }
    }

    #[test]
    fn hk_ssp_threads_matches_sim() {
        let g = gen::zero_heavy(18, 0.15, 0.4, 5, true, 2);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let (sim_res, sim_stats, sim_outcome) =
            run_hk_ssp_on(Runtime::Sim, &g, &cfg, EngineConfig::default()).unwrap();
        let (res, stats, outcome) =
            run_hk_ssp_on(Runtime::Threads, &g, &cfg, EngineConfig::default()).unwrap();
        assert_eq!(res, sim_res);
        assert_eq!(stats, sim_stats);
        assert_eq!(outcome, sim_outcome);
    }

    #[test]
    fn short_range_tcp_matches_sim() {
        let g = gen::path(8, false, WeightDist::Uniform { max: 4 }, 5);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let (sim_res, sim_stats) =
            short_range_sssp_on(Runtime::Sim, &g, 0, 8, delta, EngineConfig::default()).unwrap();
        let (res, stats) =
            short_range_sssp_on(Runtime::Tcp, &g, 0, 8, delta, EngineConfig::default()).unwrap();
        assert_eq!(res, sim_res);
        assert_eq!(stats, sim_stats);
    }

    #[test]
    fn chaos_kill_recovers_to_sim_identical_distances() {
        let g = gen::zero_heavy(14, 0.2, 0.4, 4, true, 9);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let (sim_res, sim_stats, sim_outcome) =
            run_hk_ssp_on(Runtime::Sim, &g, &cfg, EngineConfig::default()).unwrap();
        let chaos = ChaosConfig {
            plan: ChaosPlan::new(3).with_kill(5, 4),
            cadence: Some(3),
            deadline: Duration::from_millis(200),
        };
        let (res, stats, outcome) = run_hk_ssp_chaos(
            Runtime::Threads,
            &g,
            &cfg,
            EngineConfig::default(),
            &chaos,
            &mut NullRecorder,
        )
        .expect("kill at round 4 with cadence 3 must recover");
        assert_eq!(res, sim_res, "recovered distances must be bit-identical");
        assert_eq!(stats, sim_stats);
        assert_eq!(outcome, sim_outcome);
    }

    #[test]
    fn sharded_chaos_kill_recovers_to_sim_identical_distances() {
        let g = gen::zero_heavy(14, 0.2, 0.4, 4, true, 9);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let (sim_res, sim_stats, sim_outcome) =
            run_hk_ssp_on(Runtime::Sim, &g, &cfg, EngineConfig::default()).unwrap();
        let chaos = ChaosConfig {
            plan: ChaosPlan::new(3).with_kill(5, 4),
            cadence: Some(3),
            deadline: Duration::from_millis(200),
        };
        let (res, stats, outcome) = run_hk_ssp_chaos(
            Runtime::ThreadsSharded(4),
            &g,
            &cfg,
            EngineConfig::default(),
            &chaos,
            &mut NullRecorder,
        )
        .expect("a killed multi-node shard with cadence 3 must recover");
        assert_eq!(res, sim_res, "recovered distances must be bit-identical");
        assert_eq!(stats, sim_stats);
        assert_eq!(outcome, sim_outcome);
    }

    #[test]
    fn sharded_unrecoverable_kill_accounts_for_the_whole_shard() {
        let g = gen::gnp_connected(12, 0.3, false, WeightDist::Uniform { max: 5 }, 21);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let chaos = ChaosConfig {
            plan: ChaosPlan::new(1).with_kill(4, 3),
            cadence: None, // no checkpoints: the kill cannot be recovered
            deadline: Duration::from_millis(100),
        };
        let partial = run_hk_ssp_chaos(
            Runtime::ThreadsSharded(4),
            &g,
            &cfg,
            EngineConfig::default(),
            &chaos,
            &mut NullRecorder,
        )
        .expect_err("an uncheckpointed shard kill must not complete");
        // Node 4 lives on the shard hosting nodes 3..6 (12 nodes over 4
        // workers); the PartialOutcome must blame that whole block, and
        // every source on it loses its instance.
        assert_eq!(partial.failed, vec![3, 4, 5]);
        assert_eq!(partial.incomplete_sources, vec![3, 4, 5]);
        assert!(partial.round >= 3);
        for row in &partial.result.dist {
            for v in [3usize, 4, 5] {
                assert_eq!(row[v], INFINITY, "lost node {v} must report nothing");
            }
        }
    }

    #[test]
    fn unrecoverable_kill_terminates_with_partial_outcome() {
        let g = gen::gnp_connected(10, 0.3, false, WeightDist::Uniform { max: 5 }, 21);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let chaos = ChaosConfig {
            plan: ChaosPlan::new(1).with_kill(4, 3),
            cadence: None, // no checkpoints: the kill cannot be recovered
            deadline: Duration::from_millis(100),
        };
        let partial = run_hk_ssp_chaos(
            Runtime::Threads,
            &g,
            &cfg,
            EngineConfig::default(),
            &chaos,
            &mut NullRecorder,
        )
        .expect_err("an uncheckpointed kill must not complete");
        assert_eq!(partial.failed, vec![4]);
        assert!(partial.round >= 3);
        assert!(
            partial.incomplete_sources.contains(&4),
            "the failed source's instance is lost: {:?}",
            partial.incomplete_sources
        );
        assert!(!partial.reason.is_empty());
        // Salvaged distances are upper bounds of the true h-hop
        // distances (they come from real paths).
        let (sim_res, _, _) =
            run_hk_ssp_on(Runtime::Sim, &g, &cfg, EngineConfig::default()).unwrap();
        for (i, row) in partial.result.dist.iter().enumerate() {
            for (v, &d) in row.iter().enumerate() {
                if d != INFINITY {
                    assert!(d >= sim_res.dist[i][v], "source row {i}, node {v}");
                }
            }
        }
        // The failed node reports nothing.
        for row in &partial.result.dist {
            assert_eq!(row[4], INFINITY);
        }
    }

    /// A partition that heals before quiescence delays cross-group
    /// payloads but loses none: after the heal the pipeline converges
    /// to distances bit-identical to the fault-free simulator on every
    /// transport runtime. (`RunStats` legitimately differ — parked
    /// messages count as delayed — so only result and outcome are
    /// compared.)
    #[test]
    fn healed_partition_pipeline_matches_sim_on_every_runtime() {
        let g = gen::zero_heavy(14, 0.2, 0.4, 4, true, 9);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let (sim_res, _, sim_outcome) =
            run_hk_ssp_on(Runtime::Sim, &g, &cfg, EngineConfig::default()).unwrap();
        let chaos = ChaosConfig {
            plan: ChaosPlan::new(5).with_partition(vec![vec![0, 1, 2, 3]], 1, Some(6)),
            cadence: None,
            deadline: Duration::from_millis(200),
        };
        for rt in [
            Runtime::Threads,
            Runtime::Tcp,
            Runtime::ThreadsSharded(4),
            Runtime::TcpSharded(3),
        ] {
            let (res, stats, outcome) = run_hk_ssp_chaos(
                rt,
                &g,
                &cfg,
                EngineConfig::default(),
                &chaos,
                &mut NullRecorder,
            )
            .expect("a healed partition must not degrade the run");
            assert_eq!(
                res,
                sim_res,
                "{}: healed run must be bit-identical",
                rt.label()
            );
            assert_eq!(outcome, sim_outcome, "{}", rt.label());
            assert!(
                stats.delayed > 0,
                "{}: the partition must actually defer: {stats:?}",
                rt.label()
            );
        }
    }

    /// An undersized bandwidth cap on a real communication edge spreads
    /// deliveries across extra rounds but changes no distances: the
    /// pipeline's lexicographic improves-rule makes the fixpoint
    /// independent of delivery timing.
    #[test]
    fn bandwidth_cap_pipeline_matches_sim() {
        let g = gen::zero_heavy(14, 0.2, 0.4, 4, true, 9);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let (sim_res, _, sim_outcome) =
            run_hk_ssp_on(Runtime::Sim, &g, &cfg, EngineConfig::default()).unwrap();
        let nb = g.comm_neighbors(0)[0];
        let chaos = ChaosConfig {
            plan: ChaosPlan::new(6).with_bandwidth_cap(0, nb, 8),
            cadence: None,
            deadline: Duration::from_millis(200),
        };
        for rt in [Runtime::Threads, Runtime::ThreadsSharded(4)] {
            let (res, stats, outcome) = run_hk_ssp_chaos(
                rt,
                &g,
                &cfg,
                EngineConfig::default(),
                &chaos,
                &mut NullRecorder,
            )
            .expect("a bandwidth cap must not degrade the run");
            assert_eq!(
                res,
                sim_res,
                "{}: capped run must be bit-identical",
                rt.label()
            );
            assert_eq!(outcome, sim_outcome, "{}", rt.label());
            assert!(
                stats.delayed > 0,
                "{}: the cap must actually spill: {stats:?}",
                rt.label()
            );
        }
    }

    /// An unhealed partition on a path graph: the run terminates (no
    /// hang) and degrades to a typed [`PartialOutcome`] naming exactly
    /// the nodes on the far side of the cut, with the reachable prefix
    /// still carrying correct distances.
    #[test]
    fn permanent_partition_reports_exact_unreachable_set() {
        let g = gen::path(8, false, WeightDist::Constant(1), 11);
        let cfg = SspConfig::new(vec![0], 8, 7);
        let chaos = ChaosConfig {
            plan: ChaosPlan::new(7).with_partition(vec![vec![0, 1, 2, 3]], 0, None),
            cadence: None,
            deadline: Duration::from_millis(200),
        };
        let partial = run_hk_ssp_chaos(
            Runtime::Threads,
            &g,
            &cfg,
            EngineConfig::default(),
            &chaos,
            &mut NullRecorder,
        )
        .expect_err("a permanent cut must degrade, not converge");
        assert_eq!(partial.unreachable, vec![4, 5, 6, 7]);
        assert!(
            partial.failed.is_empty(),
            "no node crashed: {:?}",
            partial.failed
        );
        assert!(partial.incomplete_sources.is_empty());
        assert!(!partial.reason.is_empty());
        assert_eq!(&partial.result.dist[0][..4], &[0, 1, 2, 3]);
        for v in 4..8 {
            assert_eq!(partial.result.dist[0][v], INFINITY, "cut-off node {v}");
        }
    }

    /// A never-healing one-way loss on the bridge edge cuts exactly the
    /// downstream direction: flooding from node 0 degrades to a typed
    /// partial outcome naming the far side, while the same plan leaves a
    /// source on the other end fully functional (the reverse direction
    /// still flows).
    #[test]
    fn asym_loss_on_bridge_degrades_one_way_only() {
        let g = gen::path(8, false, WeightDist::Constant(1), 11);
        let plan = ChaosPlan::new(8).with_asym_loss(3, 4, 0, dw_transport::NEVER);
        let chaos = ChaosConfig {
            plan,
            cadence: None,
            deadline: Duration::from_millis(200),
        };

        // Downstream source: information cannot cross 3 -> 4.
        let cfg = SspConfig::new(vec![0], 8, 7);
        let partial = run_hk_ssp_chaos(
            Runtime::Threads,
            &g,
            &cfg,
            EngineConfig::default(),
            &chaos,
            &mut NullRecorder,
        )
        .expect_err("the one-way cut must degrade the downstream source");
        assert_eq!(partial.unreachable, vec![4, 5, 6, 7]);
        assert!(partial.failed.is_empty());
        assert_eq!(&partial.result.dist[0][..4], &[0, 1, 2, 3]);

        // Upstream source: 4 -> 3 still flows, so the run completes and
        // matches the fault-free simulator exactly.
        let cfg = SspConfig::new(vec![7], 8, 7);
        let (sim_res, _, sim_outcome) =
            run_hk_ssp_on(Runtime::Sim, &g, &cfg, EngineConfig::default()).unwrap();
        let (res, stats, outcome) = run_hk_ssp_chaos(
            Runtime::Threads,
            &g,
            &cfg,
            EngineConfig::default(),
            &chaos,
            &mut NullRecorder,
        )
        .expect("the reverse direction is uncut");
        assert_eq!(res, sim_res);
        assert_eq!(outcome, sim_outcome);
        assert!(
            stats.dropped > 0,
            "node 3's rebroadcasts toward 4 must hit the cut: {stats:?}"
        );
    }
}
