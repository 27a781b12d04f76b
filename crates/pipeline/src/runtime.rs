//! How a solve executes — runtime, recovery and budget, one [`Run`] —
//! and the simulator and transport bodies both solve calls share.
//!
//! The conformance guarantee (see `dw-transport`) makes the runtime a
//! pure deployment decision: `Runtime::Sim` is the fast in-process
//! simulator, `Runtime::Threads` runs every node as an OS thread over
//! channels, `Runtime::Tcp` runs every node behind a loopback TCP
//! endpoint with the serialized wire protocol, and the `:P` forms pack
//! the nodes into P such workers. All return bit-identical distances,
//! statistics and outcomes on the same seeds.
//!
//! Transport runs can fail — a peer process dies, a socket breaks — so
//! every solve returns [`SolveError`]. Under [`Recovery::Chaos`] a
//! recoverable crash still ends bit-identical to the fault-free
//! simulator, and an unrecoverable one comes back as a structured
//! [`PartialOutcome`] instead of a hang or a panic.

use crate::config::SspConfig;
use crate::driver::extract;
use crate::key::Gamma;
use crate::node::PipelinedNode;
use crate::recovery::{DegradationReport, RecoveryConfig};
use crate::result::HkSspResult;
use dw_congest::{
    EngineConfig, FaultPlan, Network, Protocol, Recorder, Round, RunOutcome, RunStats, WireCodec,
};
use dw_graph::{NodeId, WGraph};
use dw_transport::{
    run_tcp_loopback, run_tcp_loopback_chaos, run_threads, run_threads_chaos, ChaosPlan,
    PartialRun, TransportConfig, TransportError,
};
use std::fmt;
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

    /// The worker count this runtime lays an `n`-node graph out over —
    /// the one place the per-node spellings become `P = n`. (The
    /// simulator plays all `n` nodes itself.)
    fn shards(self, n: usize) -> usize {
        match self {
            Runtime::Sim | Runtime::Threads | Runtime::Tcp => n,
            Runtime::ThreadsSharded(p) | Runtime::TcpSharded(p) => p,
        }
    }

    /// A transport runtime on the thread backend (else loopback TCP).
    fn on_threads(self) -> bool {
        matches!(self, Runtime::Threads | Runtime::ThreadsSharded(_))
    }
}

/// How one solve executes. `Run::default()` is the fault-free simulator
/// at the algorithm's own round budget; link faults are
/// `engine.faults`.
#[derive(Debug, Clone, Default)]
pub struct Run {
    pub runtime: Runtime,
    pub engine: EngineConfig,
    pub recovery: Option<Recovery>,
    /// The round cap. `None` is the algorithm's default
    /// ([`crate::default_budget`],
    /// [`crate::short_range::short_range_budget`]), stretched by
    /// [`RecoveryConfig::budget_factor`] under [`Recovery::Reliable`].
    pub budget: Option<Round>,
}

/// A recovery mechanism on top of a run.
#[derive(Debug, Clone)]
pub enum Recovery {
    /// Per-link sequence/ack/retransmit over the faulty links of
    /// `engine.faults`, on any runtime; the solve reports a
    /// [`DegradationReport`].
    Reliable(RecoveryConfig),
    /// Scripted crashes and link nemeses with checkpoint/restore
    /// recovery, Algorithm 1 only. On `Runtime::Sim` the plan is ignored
    /// (the simulator has no processes to kill) and the run is the
    /// fault-free reference.
    Chaos(ChaosConfig),
}

impl Run {
    /// The plain run on `runtime`.
    pub fn on(runtime: Runtime) -> Run {
        Run {
            runtime,
            ..Run::default()
        }
    }

    /// The simulator over reliable links (the default [`RecoveryConfig`])
    /// under the link faults `faults`.
    pub fn reliable(faults: Option<FaultPlan>) -> Run {
        Run {
            engine: EngineConfig {
                faults,
                ..EngineConfig::default()
            },
            recovery: Some(Recovery::Reliable(RecoveryConfig::default())),
            ..Run::default()
        }
    }

    /// The round cap of an algorithm whose own budget is `default`: an
    /// explicit `budget` wins; a reliable run gets `budget_factor ×`
    /// the default plus `slack` for retries and ack round trips.
    pub(crate) fn round_cap(&self, default: Round, slack: Round) -> Round {
        match (self.budget, &self.recovery) {
            (Some(budget), _) => budget,
            (None, Some(Recovery::Reliable(rc))) => default
                .saturating_mul(rc.budget_factor.max(1))
                .saturating_add(slack),
            (None, _) => default,
        }
    }
}

/// A finished solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solved<R> {
    pub result: R,
    pub stats: RunStats,
    pub outcome: RunOutcome,
    /// `Some` exactly when the run used [`Recovery::Reliable`].
    pub degradation: Option<DegradationReport>,
}

impl<R> From<(R, RunStats, RunOutcome)> for Solved<R> {
    fn from((result, stats, outcome): (R, RunStats, RunOutcome)) -> Self {
        Solved {
            result,
            stats,
            outcome,
            degradation: None,
        }
    }
}

/// Why a solve produced no [`Solved`].
#[derive(Debug)]
pub enum SolveError {
    /// A transport run failed (a peer died, a socket broke).
    Transport(TransportError),
    /// A chaos run could not recover; the salvaged state.
    Partial(Box<PartialOutcome>),
    /// The [`Run`] asks for a combination no code runs. Returned before
    /// anything starts.
    Unsupported(&'static str),
}

impl From<TransportError> for SolveError {
    fn from(e: TransportError) -> Self {
        SolveError::Transport(e)
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Transport(e) => write!(f, "{e}"),
            SolveError::Partial(p) => write!(f, "unrecoverable at round {}: {}", p.round, p.reason),
            SolveError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// The one simulator body: build `make`'s nodes on a
/// `dw_congest::Network`, run at most `budget` rounds inside a `span` on
/// `rec`, and hand the final node states to `finish` in place.
pub(crate) fn simulate<P: Protocol, R>(
    g: &WGraph,
    engine: EngineConfig,
    budget: Round,
    span: &'static str,
    rec: &mut dyn Recorder,
    make: impl FnMut(NodeId) -> P,
    finish: impl FnOnce(&mut dyn ExactSizeIterator<Item = &P>) -> R,
) -> (R, RunStats, RunOutcome) {
    let mut net = Network::new(g, engine, make);
    let span = rec.begin(span);
    let outcome = net.run_recorded(budget, rec);
    let stats = net.stats();
    rec.end(span, &stats);
    let result = finish(&mut net.nodes());
    (result, stats, outcome)
}

/// One run on `run.runtime` (its recovery is the caller's business):
/// [`simulate`] on `Sim`, else the one transport body — the thread or
/// loopback-TCP backend at the runtime's shard count, under the same
/// `span`.
pub(crate) fn execute<P, R>(
    g: &WGraph,
    run: &Run,
    budget: Round,
    span: &'static str,
    rec: &mut dyn Recorder,
    make: impl FnMut(NodeId) -> P,
    finish: impl FnOnce(&mut dyn ExactSizeIterator<Item = &P>) -> R,
) -> Result<(R, RunStats, RunOutcome), TransportError>
where
    P: Protocol,
    P::Msg: WireCodec,
{
    let engine = &run.engine;
    if run.runtime == Runtime::Sim {
        return Ok(simulate(g, engine.clone(), budget, span, rec, make, finish));
    }
    let cfg = TransportConfig::from(engine);
    let shards = run.runtime.shards(g.n());
    let span = rec.begin(span);
    let done = if run.runtime.on_threads() {
        run_threads(g, &cfg, budget, shards, make, rec)
    } else {
        run_tcp_loopback(g, &cfg, budget, shards, make, rec)
    }?;
    rec.end(span, &done.stats);
    Ok((finish(&mut done.nodes.iter()), done.stats, done.outcome))
}

fn hk_node(cfg: &SspConfig, gamma: Gamma, is_source: bool) -> PipelinedNode {
    PipelinedNode::with_admission(
        gamma,
        cfg.h,
        cfg.k(),
        is_source,
        cfg.track_invariants,
        cfg.admission,
    )
}

/// The Algorithm 1 node instance the transport backends execute for
/// `cfg`. Exposed so a multi-process deployment (`dwapsp run-node`)
/// constructs exactly the node that [`crate::solve_hk_ssp`] would, which
/// is what makes its wire traffic conformant. Looks `v` up among the
/// sources; to construct many nodes use [`hk_ssp_nodes`].
pub fn hk_ssp_node(cfg: &SspConfig, v: NodeId) -> PipelinedNode {
    hk_node(cfg, cfg.gamma(), cfg.sources.contains(&v))
}

/// The constructor every Algorithm 1 run hands its engine or transport:
/// node id to node program, for a graph of `n` nodes. The source table
/// is built once, so constructing all the nodes costs `O(n + k)` where
/// asking [`hk_ssp_node`] for each costs `O(n·k)`.
pub fn hk_ssp_nodes(cfg: &SspConfig, n: usize) -> impl Fn(NodeId) -> PipelinedNode + '_ {
    let mut is_source = vec![false; n];
    for &s in &cfg.sources {
        is_source[s as usize] = true;
    }
    let gamma = cfg.gamma();
    move |v| hk_node(cfg, gamma, is_source[v as usize])
}

/// Crash-fault knobs for [`Recovery::Chaos`].
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
    PartialOutcome {
        result: extract(g, sources, run.nodes.iter().map(Option::as_ref)),
        incomplete_sources: sources
            .iter()
            .copied()
            .filter(|s| run.failed.contains(s))
            .collect(),
        failed: run.failed,
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

/// Algorithm 1 on a transport runtime under `chaos`, with
/// checkpoint/restore recovery.
///
/// The run executes `chaos.plan`: a killed node takes its worker down
/// (itself alone on `Threads` / `Tcp`, its whole block on the `:P`
/// forms), which discards its dynamic state, gets detected by the
/// coordinator's deadline + ping probe, and rejoins from its latest
/// checkpoint plus the neighbors' replayed frames. A recovered run
/// returns distances **bit-identical** to the fault-free simulator on
/// the same seeds — determinism makes replay exact, not approximate. An
/// unrecoverable failure (no checkpoint, several simultaneous crashes, a
/// severed link) terminates within the deadline budget and returns the
/// salvaged [`PartialOutcome`].
pub(crate) fn solve_chaos(
    g: &WGraph,
    cfg: &SspConfig,
    run: &Run,
    chaos: &ChaosConfig,
    budget: Round,
    rec: &mut dyn Recorder,
    make: impl FnMut(NodeId) -> PipelinedNode,
) -> Result<Solved<HkSspResult>, SolveError> {
    let tcfg = TransportConfig {
        checkpoint_cadence: chaos.cadence,
        chaos: Some(chaos.plan.clone()),
        ..TransportConfig::from(&run.engine)
    };
    let shards = run.runtime.shards(g.n());
    let done = if run.runtime.on_threads() {
        run_threads_chaos(g, &tcfg, budget, shards, chaos.deadline, make, rec)
    } else {
        run_tcp_loopback_chaos(g, &tcfg, budget, shards, chaos.deadline, make, rec)
    };
    let done = done.map_err(|partial| {
        SolveError::Partial(Box::new(partial_outcome(g, &cfg.sources, *partial)))
    })?;
    let result = extract(g, &cfg.sources, done.nodes.iter().map(Some));
    let unreachable = residual_unreachable(g, &cfg.sources, &chaos.plan);
    if unreachable.is_empty() {
        return Ok((result, done.stats, done.outcome).into());
    }
    // The run terminated (permanent cuts drop payloads, they never stall
    // the barrier), but some sources provably could not inform every
    // node. Degrade to the typed outcome instead of claiming
    // convergence; the salvaged distances remain valid upper bounds.
    Err(SolveError::Partial(Box::new(PartialOutcome {
        result,
        failed: Vec::new(),
        incomplete_sources: Vec::new(),
        unreachable,
        round: done.stats.rounds_executed,
        reason: "permanent link cuts disconnect the communication graph".to_string(),
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_hk_ssp, solve_short_range};
    use dw_congest::{NullRecorder, ObsRecorder};
    use dw_graph::gen::{self, WeightDist};
    use dw_graph::INFINITY;

    fn solve_on(rt: Runtime, g: &WGraph, cfg: &SspConfig) -> Solved<HkSspResult> {
        solve_hk_ssp(g, cfg, &Run::on(rt), &mut NullRecorder).unwrap()
    }

    fn solve_chaos_on(
        rt: Runtime,
        g: &WGraph,
        cfg: &SspConfig,
        chaos: &ChaosConfig,
    ) -> Result<Solved<HkSspResult>, SolveError> {
        let run = Run {
            recovery: Some(Recovery::Chaos(chaos.clone())),
            ..Run::on(rt)
        };
        solve_hk_ssp(g, cfg, &run, &mut NullRecorder)
    }

    fn partial(r: Result<Solved<HkSspResult>, SolveError>, why: &str) -> Box<PartialOutcome> {
        match r {
            Err(SolveError::Partial(p)) => p,
            Err(e) => panic!("{why}: {e}"),
            Ok(_) => panic!("{why}: the run completed"),
        }
    }

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
        let sim = solve_on(Runtime::Sim, &g, &cfg);
        for rt in [Runtime::ThreadsSharded(4), Runtime::TcpSharded(3)] {
            assert_eq!(solve_on(rt, &g, &cfg), sim, "{}", rt.label());
        }
    }

    #[test]
    fn hk_ssp_threads_matches_sim() {
        let g = gen::zero_heavy(18, 0.15, 0.4, 5, true, 2);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let sim = solve_on(Runtime::Sim, &g, &cfg);
        assert_eq!(solve_on(Runtime::Threads, &g, &cfg), sim);
    }

    #[test]
    fn short_range_tcp_matches_sim() {
        let g = gen::path(8, false, WeightDist::Uniform { max: 4 }, 5);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let solve = |rt| solve_short_range(&g, 0, 8, delta, &Run::on(rt), &mut NullRecorder);
        assert_eq!(solve(Runtime::Tcp).unwrap(), solve(Runtime::Sim).unwrap());
    }

    /// Algorithm 2 has no crash-recovery plane: asking for one is refused
    /// on every runtime before a node is built or a span opened.
    #[test]
    fn short_range_chaos_is_unsupported() {
        let g = gen::path(8, false, WeightDist::Constant(1), 11);
        for rt in [Runtime::Sim, Runtime::Threads] {
            let run = Run {
                recovery: Some(Recovery::Chaos(ChaosConfig::default())),
                ..Run::on(rt)
            };
            let mut rec = ObsRecorder::new();
            let got = solve_short_range(&g, 0, 8, 7, &run, &mut rec);
            assert!(
                matches!(got, Err(SolveError::Unsupported(_))),
                "{}: {got:?}",
                rt.label()
            );
            assert!(rec.into_recording().spans.is_empty(), "{}", rt.label());
        }
    }

    /// On the simulator a chaos plan is ignored: the run is the
    /// fault-free reference, recording included.
    #[test]
    fn chaos_on_sim_is_the_fault_free_run() {
        let g = gen::zero_heavy(14, 0.2, 0.4, 4, true, 9);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let chaos = ChaosConfig {
            plan: ChaosPlan::new(3).with_kill(5, 4),
            ..ChaosConfig::default()
        };
        let record = |run: &Run| {
            let mut rec = ObsRecorder::new();
            let solved = solve_hk_ssp(&g, &cfg, run, &mut rec).unwrap();
            let mut recording = rec.into_recording();
            recording.normalize_wall();
            (solved, recording)
        };
        let run = Run {
            recovery: Some(Recovery::Chaos(chaos)),
            ..Run::default()
        };
        assert_eq!(record(&run), record(&Run::default()));
    }

    #[test]
    fn solve_error_displays_the_transport_error() {
        let e = TransportError::protocol("worker 3: send to non-neighbor 7".to_string());
        let text = e.to_string();
        assert_eq!(SolveError::from(e).to_string(), text);
    }

    #[test]
    fn chaos_kill_recovers_to_sim_identical_distances() {
        let g = gen::zero_heavy(14, 0.2, 0.4, 4, true, 9);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let sim = solve_on(Runtime::Sim, &g, &cfg);
        let chaos = ChaosConfig {
            plan: ChaosPlan::new(3).with_kill(5, 4),
            cadence: Some(3),
            deadline: Duration::from_millis(200),
        };
        let got = solve_chaos_on(Runtime::Threads, &g, &cfg, &chaos)
            .expect("kill at round 4 with cadence 3 must recover");
        assert_eq!(got, sim, "recovered distances must be bit-identical");
    }

    #[test]
    fn sharded_chaos_kill_recovers_to_sim_identical_distances() {
        let g = gen::zero_heavy(14, 0.2, 0.4, 4, true, 9);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let cfg = SspConfig::apsp(g.n(), delta);
        let sim = solve_on(Runtime::Sim, &g, &cfg);
        let chaos = ChaosConfig {
            plan: ChaosPlan::new(3).with_kill(5, 4),
            cadence: Some(3),
            deadline: Duration::from_millis(200),
        };
        let got = solve_chaos_on(Runtime::ThreadsSharded(4), &g, &cfg, &chaos)
            .expect("a killed multi-node shard with cadence 3 must recover");
        assert_eq!(got, sim, "recovered distances must be bit-identical");
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
        let partial = partial(
            solve_chaos_on(Runtime::ThreadsSharded(4), &g, &cfg, &chaos),
            "an uncheckpointed shard kill must not complete",
        );
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
        let partial = partial(
            solve_chaos_on(Runtime::Threads, &g, &cfg, &chaos),
            "an uncheckpointed kill must not complete",
        );
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
        let sim = solve_on(Runtime::Sim, &g, &cfg);
        for (i, row) in partial.result.dist.iter().enumerate() {
            for (v, &d) in row.iter().enumerate() {
                if d != INFINITY {
                    assert!(d >= sim.result.dist[i][v], "source row {i}, node {v}");
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
        let sim = solve_on(Runtime::Sim, &g, &cfg);
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
            let got = solve_chaos_on(rt, &g, &cfg, &chaos)
                .expect("a healed partition must not degrade the run");
            assert_eq!(
                got.result,
                sim.result,
                "{}: healed run must be bit-identical",
                rt.label()
            );
            assert_eq!(got.outcome, sim.outcome, "{}", rt.label());
            assert!(
                got.stats.delayed > 0,
                "{}: the partition must actually defer: {:?}",
                rt.label(),
                got.stats
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
        let sim = solve_on(Runtime::Sim, &g, &cfg);
        let nb = g.comm_neighbors(0)[0];
        let chaos = ChaosConfig {
            plan: ChaosPlan::new(6).with_bandwidth_cap(0, nb, 8),
            cadence: None,
            deadline: Duration::from_millis(200),
        };
        for rt in [Runtime::Threads, Runtime::ThreadsSharded(4)] {
            let got = solve_chaos_on(rt, &g, &cfg, &chaos)
                .expect("a bandwidth cap must not degrade the run");
            assert_eq!(
                got.result,
                sim.result,
                "{}: capped run must be bit-identical",
                rt.label()
            );
            assert_eq!(got.outcome, sim.outcome, "{}", rt.label());
            assert!(
                got.stats.delayed > 0,
                "{}: the cap must actually spill: {:?}",
                rt.label(),
                got.stats
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
        let partial = partial(
            solve_chaos_on(Runtime::Threads, &g, &cfg, &chaos),
            "a permanent cut must degrade, not converge",
        );
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
        let partial = partial(
            solve_chaos_on(Runtime::Threads, &g, &cfg, &chaos),
            "the one-way cut must degrade the downstream source",
        );
        assert_eq!(partial.unreachable, vec![4, 5, 6, 7]);
        assert!(partial.failed.is_empty());
        assert_eq!(&partial.result.dist[0][..4], &[0, 1, 2, 3]);

        // Upstream source: 4 -> 3 still flows, so the run completes and
        // matches the fault-free simulator exactly.
        let cfg = SspConfig::new(vec![7], 8, 7);
        let sim = solve_on(Runtime::Sim, &g, &cfg);
        let got = solve_chaos_on(Runtime::Threads, &g, &cfg, &chaos)
            .expect("the reverse direction is uncut");
        assert_eq!(got.result, sim.result);
        assert_eq!(got.outcome, sim.outcome);
        assert!(
            got.stats.dropped > 0,
            "node 3's rebroadcasts toward 4 must hit the cut: {:?}",
            got.stats
        );
    }
}
