//! Consistent h-hop shortest-path tree collections (**CSSSP**,
//! Definition III.3) built by the `2h` trick of Lemma III.4.
//!
//! Plain h-hop parent pointers need not form trees of height `<= h`
//! (Fig. 1 of the paper — reproduced by experiment E4): the prefix of an
//! h-hop shortest path need not be an h-hop shortest path. Running
//! Algorithm 1 with hop bound `2h` and truncating each tree to its first
//! `h` hops fixes this, because a node at depth `<= h` can always afford
//! its parent's best path plus one hop within the `2h` budget, so parent
//! chains agree everywhere they matter.

use crate::config::SspConfig;
use dw_congest::{EngineConfig, NullRecorder, Recorder, RunStats};
use dw_graph::{NodeId, WGraph, Weight, INFINITY};

/// An h-hop CSSSP collection: one truncated tree per source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csssp {
    pub sources: Vec<NodeId>,
    pub h: u64,
    /// `dist[i][v]`: distance of the retained path (INFINITY if `v` is not
    /// in `T_{sources[i]}`, i.e. its recorded path exceeds `h` hops).
    pub dist: Vec<Vec<Weight>>,
    pub hops: Vec<Vec<u64>>,
    /// Parent pointers, `None` outside the tree and at the root.
    pub parent: Vec<Vec<Option<NodeId>>>,
    /// `children[i][v]`: children of `v` in tree `i` (derived from the
    /// parent pointers; distributedly this is one notification round).
    pub children: Vec<Vec<Vec<NodeId>>>,
}

impl Csssp {
    /// Is `v` a member of tree `i`?
    pub fn in_tree(&self, i: usize, v: NodeId) -> bool {
        self.dist[i][v as usize] != INFINITY
    }

    /// Number of trees.
    pub fn k(&self) -> usize {
        self.sources.len()
    }

    pub fn n(&self) -> usize {
        self.dist.first().map_or(0, |r| r.len())
    }

    /// The path from tree root to `v` in tree `i` (as node ids,
    /// root-first). `None` if `v` is not in the tree.
    pub fn root_path(&self, i: usize, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.in_tree(i, v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[i][cur as usize] {
            path.push(p);
            cur = p;
            assert!(path.len() <= self.n() + 1, "cycle in tree {i}");
        }
        debug_assert_eq!(cur, self.sources[i]);
        path.reverse();
        Some(path)
    }

    /// Height of tree `i` (max hops of members).
    pub fn height(&self, i: usize) -> u64 {
        (0..self.n() as NodeId)
            .filter(|&v| self.in_tree(i, v))
            .map(|v| self.hops[i][v as usize])
            .max()
            .unwrap_or(0)
    }
}

/// Build an h-hop CSSSP collection for `sources`: run Algorithm 1 with
/// hop bound `2h`, then retain the **initial h hops of each tree**
/// (Lemma III.4). `delta` bounds the `2h`-hop distances (it sets γ and the
/// round budget).
///
/// "Initial h hops" means the root-connected prefix: a node belongs to
/// `T_x` only if its whole parent chain back to `x` exists with consistent
/// labels (`hops` increasing by 1, `dist` increasing by the edge weight)
/// and length `<= h`. A recorded `hops <= h` alone is *not* enough — the
/// Fig. 1 pathology can occur at the `h` boundary inside the `2h` run,
/// leaving a node whose recorded parent was itself recorded with more
/// hops. Membership is established by a dedicated validation wave,
/// a genuine top-down pipelined protocol (`O(k + h)` extra rounds),
/// exactly the kind of confirmation wave the blocker algorithms of \[3\]
/// perform on their trees.
pub fn build_csssp(
    g: &WGraph,
    sources: &[NodeId],
    h: u64,
    delta: Weight,
    engine: EngineConfig,
) -> (Csssp, RunStats) {
    build_csssp_with_slack(g, sources, h, 2, delta, engine)
}

/// As [`build_csssp`], recording a `csssp` span with `hk_2h` (the
/// Algorithm 1 run at hop bound `2h`) and `validate` (the membership
/// wave) children.
pub fn build_csssp_recorded(
    g: &WGraph,
    sources: &[NodeId],
    h: u64,
    delta: Weight,
    engine: EngineConfig,
    rec: &mut dyn Recorder,
) -> (Csssp, RunStats) {
    build_csssp_with_slack_recorded(g, sources, h, 2, delta, engine, rec)
}

/// [`build_csssp`] with an explicit hop-slack multiplier: the underlying
/// Algorithm 1 run uses hop bound `slack·h` before truncating to `h`.
///
/// The paper's construction is `slack = 2` (Lemma III.4). **Reproduction
/// finding:** any finite slack admits rare hop-boundary cases where two
/// trees disagree on a shared subpath, because a node's best `slack·h`-hop
/// route from one source may be cut off by the hop window while another
/// source still sees it; larger slack monotonically reduces the frequency
/// (measured by experiment E4b), and `slack·h >= n` eliminates it. None of
/// the downstream users (blocker machinery, Algorithm 3) depends on
/// perfect cross-tree consistency: they are robust to these cases and all
/// end-to-end results remain exact.
pub fn build_csssp_with_slack(
    g: &WGraph,
    sources: &[NodeId],
    h: u64,
    slack: u64,
    delta: Weight,
    engine: EngineConfig,
) -> (Csssp, RunStats) {
    build_csssp_with_slack_recorded(g, sources, h, slack, delta, engine, &mut NullRecorder)
}

/// [`build_csssp_recorded`] with an explicit hop-slack multiplier (the
/// recorded `hk_2h` child keeps its name for any slack — the phase is
/// "the Algorithm 1 run at the stretched hop bound").
pub fn build_csssp_with_slack_recorded(
    g: &WGraph,
    sources: &[NodeId],
    h: u64,
    slack: u64,
    delta: Weight,
    engine: EngineConfig,
    rec: &mut dyn Recorder,
) -> (Csssp, RunStats) {
    assert!(slack >= 1);
    let cfg = SspConfig::new(sources.to_vec(), slack * h, delta);
    let span = rec.begin("csssp");
    let (res, stats, _) = crate::driver::simulate_hk(g, &cfg, engine.clone(), "hk_2h", rec);
    let val_span = rec.begin("validate");
    let (member, val_stats) = validation::validate_membership(g, sources, h, &res, engine, rec);
    rec.end(val_span, &val_stats);
    let stats = stats.then(&val_stats);
    rec.end(span, &stats);
    let n = g.n();
    let k = sources.len();
    let mut dist = vec![vec![INFINITY; n]; k];
    let mut hops = vec![vec![0u64; n]; k];
    let mut parent: Vec<Vec<Option<NodeId>>> = vec![vec![None; n]; k];
    let mut children: Vec<Vec<Vec<NodeId>>> = vec![vec![Vec::new(); n]; k];
    for i in 0..k {
        for v in 0..n {
            if member[v][i] {
                dist[i][v] = res.dist[i][v];
                hops[i][v] = res.hops[i][v];
                if v as NodeId != sources[i] {
                    parent[i][v] = res.parent[i][v];
                    if let Some(p) = res.parent[i][v] {
                        children[i][p as usize].push(v as NodeId);
                    }
                }
            }
        }
        for ch in children[i].iter_mut() {
            ch.sort_unstable();
        }
    }
    (
        Csssp {
            sources: sources.to_vec(),
            h,
            dist,
            hops,
            parent,
            children,
        },
        stats,
    )
}

mod validation {
    //! Top-down membership validation wave (see [`super::build_csssp`]).

    use super::*;
    use crate::result::HkSspResult;
    use dw_congest::{Envelope, MsgSize, Network, NodeCtx, Outbox, Protocol, Round};
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// `(tree index, d, l)` of a validated announcer — 3 words.
    #[derive(Debug, Clone, Copy)]
    struct ValMsg {
        tree: u32,
        d: Weight,
        l: u64,
    }

    impl MsgSize for ValMsg {
        fn size_words(&self) -> usize {
            3
        }
    }

    struct ValNode {
        sources: Arc<Vec<NodeId>>,
        h: u64,
        /// Raw per-tree records of this node: `(d, l, parent)`.
        raw: Vec<Option<(Weight, u64, Option<NodeId>)>>,
        validated: Vec<bool>,
        /// Announcements pending broadcast, one per round.
        queue: VecDeque<ValMsg>,
    }

    impl Protocol for ValNode {
        type Msg = ValMsg;

        fn init(&mut self, ctx: &NodeCtx) {
            for (i, &s) in self.sources.iter().enumerate() {
                if s == ctx.id {
                    self.validated[i] = true;
                    if self.h > 0 {
                        self.queue.push_back(ValMsg {
                            tree: i as u32,
                            d: 0,
                            l: 0,
                        });
                    }
                }
            }
        }

        fn send(&mut self, _round: Round, _ctx: &NodeCtx, out: &mut Outbox<ValMsg>) {
            if let Some(m) = self.queue.pop_front() {
                out.broadcast(m);
            }
        }

        fn receive(&mut self, _round: Round, inbox: &[Envelope<ValMsg>], ctx: &NodeCtx) {
            for env in inbox {
                let i = env.msg().tree as usize;
                if self.validated[i] {
                    continue;
                }
                let Some((d, l, Some(p))) = self.raw[i] else {
                    continue;
                };
                let Some(w) = ctx.in_weight_from(env.from) else {
                    continue;
                };
                if p == env.from && l == env.msg().l + 1 && l <= self.h && d == env.msg().d + w {
                    self.validated[i] = true;
                    if l < self.h {
                        self.queue.push_back(ValMsg {
                            tree: i as u32,
                            d,
                            l,
                        });
                    }
                }
            }
        }

        fn earliest_send(&self, after: Round, _ctx: &NodeCtx) -> Option<Round> {
            if self.queue.is_empty() {
                None
            } else {
                Some(after)
            }
        }
    }

    /// Run the wave; returns `member[v][i]`.
    pub(super) fn validate_membership(
        g: &WGraph,
        sources: &[NodeId],
        h: u64,
        res: &HkSspResult,
        engine: EngineConfig,
        rec: &mut dyn Recorder,
    ) -> (Vec<Vec<bool>>, RunStats) {
        let shared = Arc::new(sources.to_vec());
        let k = sources.len();
        let mut net = Network::new(g, engine, |v| ValNode {
            sources: shared.clone(),
            h,
            raw: (0..k)
                .map(|i| {
                    let vi = v as usize;
                    (res.dist[i][vi] != INFINITY).then_some((
                        res.dist[i][vi],
                        res.hops[i][vi],
                        res.parent[i][vi],
                    ))
                })
                .collect(),
            validated: vec![false; k],
            queue: VecDeque::new(),
        });
        let wave_budget = 2 * (k as u64 + h + 2) + g.n() as u64;
        net.run_recorded(wave_budget, rec);
        let stats = net.stats();
        let member = net
            .into_nodes()
            .into_iter()
            .map(|nd| nd.validated)
            .collect();
        (member, stats)
    }
}

/// Verify Definition III.3 on a collection:
///
/// 1. every tree is a tree of height `<= h` with consistent distances;
/// 2. for every `u, v`, the `u -> v` path is identical in every tree that
///    contains it;
/// 3. every tree `T_u` path from its root is an h-hop shortest path
///    (checked against a sequential reference by the caller's tests).
///
/// Returns `Err(description)` on the first violation.
pub fn check_consistency(g: &WGraph, c: &Csssp) -> Result<(), String> {
    use std::collections::HashMap;
    // (1) structural soundness
    for i in 0..c.k() {
        let s = c.sources[i];
        if !c.in_tree(i, s) || c.hops[i][s as usize] != 0 {
            return Err(format!("root {s} missing from its own tree"));
        }
        for v in 0..c.n() as NodeId {
            if !c.in_tree(i, v) {
                if c.parent[i][v as usize].is_some() {
                    return Err(format!("non-member {v} of tree {i} has a parent"));
                }
                continue;
            }
            if c.hops[i][v as usize] > c.h {
                return Err(format!("tree {i} member {v} deeper than h"));
            }
            if v != s {
                let Some(p) = c.parent[i][v as usize] else {
                    return Err(format!("member {v} of tree {i} lacks a parent"));
                };
                if !c.in_tree(i, p) {
                    return Err(format!("parent {p} of {v} not in tree {i}"));
                }
                let Some(w) = g.edge_weight(p, v) else {
                    return Err(format!("tree {i} edge {p}->{v} not in G"));
                };
                if c.dist[i][v as usize] != c.dist[i][p as usize] + w {
                    return Err(format!("tree {i} distance mismatch at {v}"));
                }
                if c.hops[i][v as usize] != c.hops[i][p as usize] + 1 {
                    return Err(format!("tree {i} hop mismatch at {v}"));
                }
            }
        }
    }
    // (2) cross-tree path agreement: every (ancestor u, descendant v)
    // pair must map to the same immediate parent of v wherever it occurs.
    let mut seen: HashMap<(NodeId, NodeId), Vec<NodeId>> = HashMap::new();
    for i in 0..c.k() {
        for v in 0..c.n() as NodeId {
            let Some(path) = c.root_path(i, v) else {
                continue;
            };
            // all suffixes u -> v of the root path
            for start in 0..path.len().saturating_sub(1) {
                let u = path[start];
                let seg = path[start..].to_vec();
                match seen.entry((u, v)) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        if e.get() != &seg {
                            return Err(format!(
                                "paths {u}->{v} disagree across trees: {:?} vs {:?}",
                                e.get(),
                                seg
                            ));
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(seg);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Length (in hops) of the parent-pointer chain from `v` to the source in
/// a raw `(h,k)`-SSP result — used by experiment E4 to exhibit the Fig. 1
/// pathology (chains longer than `h`). Returns `None` for unreachable
/// nodes.
pub fn parent_chain_hops(res: &crate::result::HkSspResult, i: usize, v: NodeId) -> Option<u64> {
    if res.dist[i][v as usize] == INFINITY {
        return None;
    }
    let mut cur = v;
    let mut steps = 0u64;
    while let Some(p) = res.parent[i][cur as usize] {
        cur = p;
        steps += 1;
        if steps > res.n() as u64 {
            return Some(steps); // cycle guard; callers treat as pathology
        }
    }
    Some(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_graph::gen;
    use dw_seqref::h_hop_sssp;

    #[test]
    fn csssp_on_random_graph_is_consistent() {
        let g = gen::zero_heavy(18, 0.15, 0.4, 5, true, 13);
        let delta = dw_seqref::max_finite_h_hop_distance(&g, 10).max(1);
        let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let h = 5;
        let (c, _) = build_csssp(&g, &sources, h, delta, EngineConfig::default());
        check_consistency(&g, &c).unwrap();
    }

    #[test]
    fn csssp_distances_are_h_hop_shortest() {
        let g = gen::zero_heavy(16, 0.18, 0.5, 4, true, 29);
        let delta = dw_seqref::max_finite_h_hop_distance(&g, 8).max(1);
        let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let h = 4u64;
        let (c, _) = build_csssp(&g, &sources, h, delta, EngineConfig::default());
        for (i, &s) in sources.iter().enumerate() {
            let reference = h_hop_sssp(&g, s, h as usize);
            for v in g.nodes() {
                if c.in_tree(i, v) {
                    // a retained path is an h-hop path, so it can't beat
                    // the h-hop optimum, and by Lemma III.4 it attains it
                    assert_eq!(
                        c.dist[i][v as usize], reference[v as usize].dist,
                        "tree {s}, node {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn fig1_gadget_pathology_and_cure() {
        let h = 4u64;
        let (g, nd) = gen::fig1_gadget(h as usize, 7, 1, true);
        // Δ must bound the h-hop distances (Lemma II.14), which here far
        // exceed the unrestricted distances (δ(s,t)=1 but δ⁴(s,t)=8).
        let delta_h = dw_seqref::max_finite_h_hop_distance(&g, h as usize).max(1);
        let delta = dw_seqref::max_finite_h_hop_distance(&g, 2 * h as usize).max(1);

        // Raw h-hop run: t's parent chain goes through a's h-hop path,
        // exceeding h hops.
        let cfg = SspConfig::new(vec![nd.s], h, delta_h);
        let raw = crate::solve_hk_ssp(&g, &cfg, &crate::Run::default(), &mut NullRecorder)
            .unwrap()
            .result;
        assert_eq!(raw.dist[0][nd.a as usize], 0, "a reached by zero path");
        assert_eq!(
            raw.dist[0][nd.t as usize], 8,
            "t takes heavy shortcut + tail"
        );
        let chain = parent_chain_hops(&raw, 0, nd.t).unwrap();
        assert!(
            chain > h,
            "Fig.1 pathology: chain {chain} must exceed h={h}"
        );

        // CSSSP fixes it: every retained tree has height <= h and is
        // consistent.
        let (c, _) = build_csssp(&g, &[nd.s], h, delta, EngineConfig::default());
        check_consistency(&g, &c).unwrap();
        assert!(c.height(0) <= h);
        // With the 2h budget, t's best path is the 5-hop zero route of
        // distance 1, which exceeds h hops — so t is (correctly) *outside*
        // the truncated tree. This is exactly the caveat the paper notes
        // after Definition III.3: if every shortest path from s to x has
        // more than h hops, the h-hop tree need not contain x.
        assert!(!c.in_tree(0, nd.t));
        // a's true shortest path (the h-hop zero route) is retained
        assert!(c.in_tree(0, nd.a));
        assert_eq!(c.dist[0][nd.a as usize], 0);
        assert_eq!(c.parent[0][nd.a as usize], Some(nd.last_zero));
    }

    #[test]
    fn fig1_chain_heights() {
        let h = 3u64;
        let (g, nds) = gen::fig1_chain(h as usize, 3, 5, true);
        let delta = dw_seqref::max_finite_h_hop_distance(&g, 2 * h as usize).max(1);
        let sources = vec![nds[0].s];
        let (c, _) = build_csssp(&g, &sources, h, delta, EngineConfig::default());
        check_consistency(&g, &c).unwrap();
        assert!(c.height(0) <= h);
    }
}
