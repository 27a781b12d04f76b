//! Algorithm 2: the simplified **short-range** algorithm (Section II-C)
//! and its extension variant.
//!
//! For a single source `x` and hop bound `h`, every node keeps only its
//! current best `(d*, l*)` and announces it in round `⌈d*·sqrt(h) + l*⌉`
//! (our engine starts communication at round 1, so the schedule is shifted
//! by one). Since `l* <= h` and `d*` only decreases while the schedule
//! value increases, a node sends at most `sqrt(h) + 1` times over the whole
//! run — the congestion bound of Lemma II.15 — and distances converge by
//! round `⌈Δ·sqrt(h)⌉ + h`.
//!
//! **Contract.** Because a node keeps a *single* `(d*, l*)` pair (unlike
//! Algorithm 1's multi-entry lists), the short-range algorithm computes
//! the true distance `δ(x, v)` exactly for every `v` whose shortest path
//! has a minimum-hop realization of at most `h` hops; this is the
//! "h-hop SSSP" promise under which \[13\] invokes short-range (on scaled
//! graphs, every shortest path has at most `h` hops by construction).
//! For other nodes the estimate is the weight of some real `<= h`-hop
//! walk (never an underestimate of `δ`).
//!
//! The **short-range-extension** variant (also Lemma II.15) differs only
//! in initialization: nodes that already know a distance from `x` start
//! with it ([`ShortRangeNode::new`]'s `init`) and the algorithm extends
//! those paths by up to `h` further hops.
//!
//! The multi-source variant replaces `sqrt(h)` by `γ = sqrt(hk/Δ)` and is
//! meant to be run with the random-delay scheduler
//! ([`dw_congest::scheduler`]) — the paper invokes Ghaffari's framework
//! for exactly this composition.

use crate::key::Gamma;
use crate::recovery::solve_reliable;
use crate::runtime::{execute, Recovery, Run, SolveError, Solved};
use dw_congest::{Envelope, MsgSize, NodeCtx, Outbox, Protocol, Recorder, Round, WireCodec};
use dw_graph::{NodeId, WGraph, Weight, INFINITY};

/// `(d*, l*)` announcement — 2 words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrMsg {
    pub d: Weight,
    pub l: u64,
}

impl MsgSize for SrMsg {
    fn size_words(&self) -> usize {
        2
    }
}

impl WireCodec for SrMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.d.encode(out);
        self.l.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(SrMsg {
            d: Weight::decode(buf)?,
            l: u64::decode(buf)?,
        })
    }
}

/// Per-node program of Algorithm 2. `Clone` so instances can be composed
/// by the scheduler.
#[derive(Clone)]
pub struct ShortRangeNode {
    gamma: Gamma,
    h: u64,
    /// Initial distance (0 at the source; pre-known distances in the
    /// extension variant; None elsewhere).
    init: Option<Weight>,
    best: Option<(Weight, u64, Option<NodeId>)>,
    /// The current `(d*, l*)` has been announced.
    announced: bool,
    /// Rounds in which this node sent (the per-node congestion measure).
    pub sends: u64,
    /// Announcements made after their scheduled round. In a fault-free
    /// synchronous run this stays 0 (Lemma II.15: a new best's schedule is
    /// always in the future); under message delays or the retransmission
    /// backlog of [`dw_congest::Reliable`] an improvement can arrive with
    /// its schedule round already in the past, and this re-arm path is
    /// what still gets it announced.
    pub late_sends: u64,
}

impl ShortRangeNode {
    pub fn new(gamma: Gamma, h: u64, init: Option<Weight>) -> Self {
        ShortRangeNode {
            gamma,
            h,
            init,
            best: None,
            announced: false,
            sends: 0,
            late_sends: 0,
        }
    }

    fn schedule(&self) -> Option<u64> {
        // +1: the paper sends the source's (0,0) in its round 0; our
        // communication rounds start at 1.
        self.best.map(|(d, l, _)| self.gamma.ceil_kappa(d, l) + 1)
    }

    pub fn best(&self) -> Option<(Weight, u64, Option<NodeId>)> {
        self.best
    }
}

impl Protocol for ShortRangeNode {
    type Msg = SrMsg;

    fn init(&mut self, _ctx: &NodeCtx) {
        if let Some(d0) = self.init {
            self.best = Some((d0, 0, None));
        }
    }

    fn send(&mut self, round: Round, _ctx: &NodeCtx, out: &mut Outbox<SrMsg>) {
        if let (Some((d, l, _)), false) = (self.best, self.announced) {
            // `<= round` rather than `== round`: the re-arm/retry analogue
            // of `NodeList::find_send`. Equal in the fault-free case.
            let s = self.schedule().expect("best is set");
            if s <= round {
                if s < round {
                    self.late_sends += 1;
                }
                self.sends += 1;
                self.announced = true;
                out.broadcast(SrMsg { d, l });
            }
        }
    }

    fn receive(&mut self, _round: Round, inbox: &[Envelope<SrMsg>], ctx: &NodeCtx) {
        for env in inbox {
            let Some(w) = ctx.in_weight_from(env.from) else {
                continue;
            };
            let d = env.msg().d + w;
            let l = env.msg().l + 1;
            if l > self.h {
                continue;
            }
            let better = match self.best {
                None => true,
                Some((bd, bl, _)) => d < bd || (d == bd && l < bl),
            };
            if better {
                self.best = Some((d, l, Some(env.from)));
                self.announced = false;
            }
        }
    }

    fn earliest_send(&self, after: Round, _ctx: &NodeCtx) -> Option<Round> {
        if self.announced {
            return None;
        }
        self.schedule().map(|r| r.max(after))
    }
}

/// Crash-recovery snapshots: only `best`, the announced flag and the
/// send counters are dynamic; `gamma`/`h`/`init` come from the pristine
/// node the restoring worker is constructed with.
impl dw_congest::Checkpointable for ShortRangeNode {
    fn snapshot(&self, out: &mut Vec<u8>) {
        self.best.encode(out);
        self.announced.encode(out);
        self.sends.encode(out);
        self.late_sends.encode(out);
    }

    fn restore(&mut self, buf: &mut &[u8]) -> Option<()> {
        self.best = Option::<(Weight, u64, Option<NodeId>)>::decode(buf)?;
        self.announced = bool::decode(buf)?;
        self.sends = u64::decode(buf)?;
        self.late_sends = u64::decode(buf)?;
        Some(())
    }
}

/// Result of a short-range run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortRangeResult {
    pub source: NodeId,
    pub dist: Vec<Weight>,
    pub hops: Vec<u64>,
    pub parent: Vec<Option<NodeId>>,
    /// Per-node send counts (Lemma II.15: each `<= sqrt(h) + 1`).
    pub sends: Vec<u64>,
    /// Per-node counts of announcements sent past their scheduled round
    /// (all zero in fault-free runs).
    pub late_sends: Vec<u64>,
}

fn extract<'a>(
    source: NodeId,
    nodes: impl ExactSizeIterator<Item = &'a ShortRangeNode>,
) -> ShortRangeResult {
    let n = nodes.len();
    let mut r = ShortRangeResult {
        source,
        dist: Vec::with_capacity(n),
        hops: Vec::with_capacity(n),
        parent: Vec::with_capacity(n),
        sends: Vec::with_capacity(n),
        late_sends: Vec::with_capacity(n),
    };
    for nd in nodes {
        let (d, l, p) = nd.best.unwrap_or((INFINITY, 0, None));
        r.dist.push(d);
        r.hops.push(l);
        r.parent.push(p);
        r.sends.push(nd.sends);
        r.late_sends.push(nd.late_sends);
    }
    r
}

/// The short-range schedule key `γ = sqrt(h)` (i.e. `γ² = h/1`).
pub fn short_range_gamma(h: u64) -> Gamma {
    Gamma::new(1, h, 1)
}

/// Algorithm 2's round budget `⌈Δ·sqrt(h)⌉ + h + 2` (`κ` of the
/// furthest announcement `(Δ, h)`, plus the shifted start and one round
/// to deliver it).
pub fn short_range_budget(h: u64, delta: Weight) -> Round {
    short_range_gamma(h).ceil_kappa(delta.max(1), h) + 2
}

/// h-hop SSSP from `x` by Algorithm 2, as `run` says: on `run.runtime`,
/// under `run.recovery`, within `run.budget` (by default
/// [`short_range_budget`]; `delta` bounds the h-hop distances of
/// interest and only sets that budget), inside a `short_range` span on
/// `rec`. [`Recovery::Chaos`] is [`SolveError::Unsupported`]: there is
/// no crash-recovery plane for Algorithm 2.
pub fn solve_short_range(
    g: &WGraph,
    x: NodeId,
    h: u64,
    delta: Weight,
    run: &Run,
    rec: &mut dyn Recorder,
) -> Result<Solved<ShortRangeResult>, SolveError> {
    if let Some(Recovery::Chaos(_)) = run.recovery {
        return Err(SolveError::Unsupported("chaos recovery of Algorithm 2"));
    }
    let gamma = short_range_gamma(h);
    let budget = run.round_cap(short_range_budget(h, delta), 64);
    let make = |v: NodeId| ShortRangeNode::new(gamma, h, (v == x).then_some(0));
    let finish = |nodes: &mut dyn ExactSizeIterator<Item = &ShortRangeNode>| extract(x, nodes);
    match &run.recovery {
        Some(Recovery::Reliable) => {
            let late = |n: &ShortRangeNode| n.late_sends;
            solve_reliable(g, run, budget, "short_range", rec, make, late, finish)
        }
        _ => Ok(execute(g, run, budget, "short_range", rec, make, finish)?.into()),
    }
}

/// Build `k` independent short-range instances (one per source) with the
/// multi-source key `γ = sqrt(hk/Δ)`, ready for
/// [`dw_congest::scheduler::schedule_instances`].
pub fn short_range_instances(
    g: &WGraph,
    sources: &[NodeId],
    h: u64,
    delta: Weight,
) -> Vec<Vec<ShortRangeNode>> {
    let gamma = Gamma::new(sources.len() as u64, h, delta);
    sources
        .iter()
        .map(|&x| {
            (0..g.n())
                .map(|v| ShortRangeNode::new(gamma, h, (v as NodeId == x).then_some(0)))
                .collect()
        })
        .collect()
}

/// Extract the result of instance `i` after a scheduled run.
pub fn extract_instance(source: NodeId, nodes: &[ShortRangeNode]) -> ShortRangeResult {
    extract(source, nodes.iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::simulate;
    use dw_congest::{EngineConfig, NullRecorder};
    use dw_graph::gen::{self, WeightDist};

    /// Verify the short-range contract: exact `δ(x,v)` wherever the
    /// min-hop shortest path fits in `h` hops; never an underestimate of
    /// `δ` elsewhere.
    fn solve(g: &WGraph, x: NodeId, h: u64, delta: Weight) -> Solved<ShortRangeResult> {
        solve_short_range(g, x, h, delta, &Run::default(), &mut NullRecorder).unwrap()
    }

    fn check_against_reference(g: &WGraph, x: NodeId, h: u64, delta: Weight) -> ShortRangeResult {
        let res = solve(g, x, h, delta).result;
        let exact = dw_seqref::bellman_ford(g, x); // (δ, min-hops of δ)
        for v in g.nodes() {
            let vi = v as usize;
            if exact[vi].is_reachable() && u64::from(exact[vi].hops) <= h {
                assert_eq!(
                    res.dist[vi], exact[vi].dist,
                    "src {x} -> {v} (h={h}): min-hop shortest fits budget"
                );
            } else if res.dist[vi] != dw_graph::INFINITY {
                assert!(res.dist[vi] >= exact[vi].dist, "no underestimates");
                assert!(res.hops[vi] <= h, "recorded walk respects h");
            }
        }
        res
    }

    #[test]
    fn matches_h_hop_reference_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::zero_heavy(20, 0.15, 0.4, 6, true, seed);
            let delta = dw_seqref::max_finite_distance(&g).max(1);
            for h in [1u64, 3, 8, 20] {
                check_against_reference(&g, 0, h, delta);
            }
        }
    }

    #[test]
    fn per_node_congestion_within_sqrt_h_plus_one() {
        let g = gen::zero_heavy(30, 0.12, 0.5, 9, false, 9);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let h = 16u64;
        let res = check_against_reference(&g, 3, h, delta);
        let bound = (h as f64).sqrt() as u64 + 1;
        for (v, &s) in res.sends.iter().enumerate() {
            assert!(s <= bound, "node {v} sent {s} > sqrt(h)+1 = {bound}");
        }
    }

    #[test]
    fn round_bound_delta_sqrt_h() {
        let g = gen::path(12, false, WeightDist::Uniform { max: 4 }, 2);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let h = 12u64;
        let stats = solve(&g, 0, h, delta).stats;
        assert!(stats.rounds <= short_range_budget(h, delta));
    }

    #[test]
    fn extension_resumes_from_known_distances() {
        // path 0-1-2-3-4-5 with weight 2; pretend 0..=2 already know
        // distances from x=0 and extend by h=3 hops.
        let g = gen::path(6, false, WeightDist::Constant(2), 0);
        let init = [Some(0), Some(2), Some(4), None, None, None];
        let gamma = short_range_gamma(3);
        let make = |v: NodeId| ShortRangeNode::new(gamma, 3, init[v as usize]);
        let budget = short_range_budget(3, 20);
        let rec = &mut NullRecorder;
        let (res, _, _) = simulate(&g, EngineConfig::default(), budget, "sr", rec, make, |n| {
            extract(0, n)
        });
        assert_eq!(res.dist, vec![0, 2, 4, 6, 8, 10]);
        // node 5 reached from node 2 in 3 extension hops
        assert_eq!(res.hops[5], 3);
    }

    #[test]
    fn scheduled_all_sources_match_reference() {
        let g = gen::zero_heavy(14, 0.2, 0.4, 5, true, 21);
        let delta = dw_seqref::max_finite_distance(&g).max(1);
        let h = 6u64;
        let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let instances = short_range_instances(&g, &sources, h, delta);
        let (finished, _) = dw_congest::scheduler::schedule_instances(
            &g,
            instances,
            &EngineConfig::default(),
            99,
            16,
            1_000_000,
        );
        for (i, nodes) in finished.iter().enumerate() {
            let res = extract_instance(sources[i], nodes);
            let exact = dw_seqref::bellman_ford(&g, sources[i]);
            for v in g.nodes() {
                let vi = v as usize;
                if exact[vi].is_reachable() && u64::from(exact[vi].hops) <= h {
                    assert_eq!(res.dist[vi], exact[vi].dist, "{} -> {v}", sources[i]);
                }
            }
        }
    }
}
