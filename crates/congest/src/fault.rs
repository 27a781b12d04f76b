//! Deterministic link faults for the round engine.
//!
//! The CONGEST model assumes perfectly reliable synchronous links. Real
//! deployments (and robustness arguments about the paper's pipelined
//! schedules) need the opposite: messages that are dropped, duplicated or
//! delayed, links that fail for whole round intervals, network partitions
//! and links too thin for the offered load. A [`FaultPlan`] describes
//! every such link fault in one vocabulary, **deterministically**:
//!
//! * the seeded mix — the decision for the message on directed link
//!   `(u, v)` in round `r` is a pure function of `(plan seed, u, v, r)`,
//!   derived from a dedicated ChaCha8 stream;
//! * link rules — scheduled [`Outage`]s (a one-way loss is an outage with
//!   `symmetric: false`), partitions that hold cross-group mail until
//!   their heal round (or cut it forever), and per-link bandwidth caps.
//!
//! A cap's leaky bucket depends on the link's own earlier sends, so its
//! state ([`CapBuckets`]) is a value the caller owns beside its in-flight
//! mail; everything else is pure. Two runs with the same plan and the same
//! traffic therefore see byte-for-byte identical faults, regardless of
//! engine parallelism, iteration order or how the nodes are spread over
//! workers — which is what makes the conformance suites possible.
//!
//! The one evaluator is [`FaultPlan::decide`]. The simulator
//! ([`crate::engine::Network`]), the multi-instance scheduler and every
//! `dw-transport` worker call it in their send sinks: the sender still
//! occupies the link (the message was put on the wire, so capacity and
//! congestion accounting are unchanged), only the *delivery* is tampered
//! with. All tampering is tallied in [`crate::RunStats`] and, per round,
//! in [`crate::trace::RoundRecord`].

use crate::protocol::Round;
use dw_graph::NodeId;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// What happens to one message on one directed link in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The receiver gets the message in round `due`: the send round, or
    /// later under a delay fault, a partition awaiting its heal round or
    /// a bandwidth cap's backlog. `duplicate` delivers a second copy
    /// alongside.
    Deliver { due: Round, duplicate: bool },
    /// The message vanishes (random loss).
    Drop,
    /// The message vanishes because a scheduled cut covers the link: an
    /// outage, or a partition that never heals.
    OutageDrop,
}

/// A scheduled link failure: messages on the link are dropped for every
/// round in `start..=end` (inclusive), then the link heals. With
/// `symmetric: false` only `from -> to` fails — a one-way loss — and
/// `end: Round::MAX` never heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    pub from: NodeId,
    pub to: NodeId,
    pub start: Round,
    pub end: Round,
    /// Also fail the reverse direction `to -> from`.
    pub symmetric: bool,
}

impl Outage {
    fn joins(&self, u: NodeId, v: NodeId) -> bool {
        (u == self.from && v == self.to) || (self.symmetric && u == self.to && v == self.from)
    }

    fn covers(&self, u: NodeId, v: NodeId, round: Round) -> bool {
        (self.start..=self.end).contains(&round) && self.joins(u, v)
    }
}

/// A per-directed-link delay profile: messages on `from -> to` are
/// delayed with probability `p`, by a uniform number of rounds in
/// `1..=max_delay`, *instead of* the plan-wide fault mix. Distinct links
/// with distinct profiles make deliveries genuinely reorder (a message
/// sent in round `r` and delayed by 4 arrives after the round-`r+1`
/// message that was delayed by 1), which is the adversary the reliable
/// channel's sequence numbers exist for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDelay {
    pub from: NodeId,
    pub to: NodeId,
    pub p: f64,
    pub max_delay: Round,
}

impl LinkDelay {
    fn covers(&self, u: NodeId, v: NodeId) -> bool {
        u == self.from && v == self.to
    }
}

/// A network partition from round `start`: nodes in different groups
/// cannot reach each other until `heal` (never, without one).
#[derive(Debug, Clone, PartialEq, Eq)]
struct PartitionRule {
    /// Group index per listed node; unlisted nodes share one implicit
    /// extra group.
    group: BTreeMap<NodeId, usize>,
    start: Round,
    heal: Option<Round>,
}

impl PartitionRule {
    fn separates(&self, u: NodeId, v: NodeId) -> bool {
        self.group.get(&u) != self.group.get(&v)
    }
}

/// The bandwidth caps' leaky-bucket state: per capped directed link,
/// `(as_of_round, backlog_bytes)`. The backlog drains `cap` bytes per
/// elapsed round, and a message lands `backlog / cap` rounds late.
///
/// It depends only on the sequence of that link's own sends, so it is
/// deterministic for a fixed protocol run. Whoever sends owns it, beside
/// its in-flight mail: the simulator's `Network` holds one for every
/// link, a transport worker one for the links its hosted nodes send on.
/// Each directed link has exactly one sending worker, so the workers'
/// buckets together are the simulator's, and a crashed worker restores
/// its own from its snapshot ([`CapBuckets::state`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapBuckets(BTreeMap<(NodeId, NodeId), (Round, u64)>);

impl CapBuckets {
    /// The state in snapshot form: sorted, so byte-identical for
    /// identical histories.
    pub fn state(&self) -> Vec<((NodeId, NodeId), (Round, u64))> {
        self.0.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Rebuild the state captured by [`CapBuckets::state`].
    pub fn from_state(state: Vec<((NodeId, NodeId), (Round, u64))>) -> CapBuckets {
        CapBuckets(state.into_iter().collect())
    }
}

/// A deterministic, seeded description of link faults.
///
/// Build with the `with_*` combinators:
///
/// ```
/// use dw_congest::fault::FaultPlan;
/// let plan = FaultPlan::new(42)
///     .with_drop(0.05)
///     .with_duplicate(0.01)
///     .with_delay(0.02, 3)
///     .with_partition(vec![vec![0, 1]], 4, Some(9))
///     .with_bandwidth_cap(2, 3, 16);
/// assert!(!plan.is_pristine());
/// ```
///
/// The per-message probabilities must sum to at most 1; the remainder is
/// the probability of clean delivery. The rules compose in
/// [`FaultPlan::decide`]: a drop wins over any deferral, the latest due
/// round wins among deferrals, and a dropped message spends no cap.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    dup_p: f64,
    delay_p: f64,
    max_delay: Round,
    outages: Vec<Outage>,
    link_delays: Vec<LinkDelay>,
    partitions: Vec<PartitionRule>,
    /// Bytes per round per capped directed link (both directions of
    /// every capped `{a, b}`).
    caps: BTreeMap<(NodeId, NodeId), u64>,
}

impl FaultPlan {
    /// A plan that (so far) faults nothing; combine with `with_*`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            max_delay: 0,
            outages: Vec::new(),
            link_delays: Vec::new(),
            partitions: Vec::new(),
            caps: BTreeMap::new(),
        }
    }

    /// Shorthand for a pure random-loss plan.
    pub fn drop_only(seed: u64, p: f64) -> Self {
        FaultPlan::new(seed).with_drop(p)
    }

    /// Drop each message independently with probability `p`.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_p = p;
        self.validate();
        self
    }

    /// Duplicate each message independently with probability `p`.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.dup_p = p;
        self.validate();
        self
    }

    /// Delay each message with probability `p`, by a uniform number of
    /// rounds in `1..=max_delay`.
    pub fn with_delay(mut self, p: f64, max_delay: Round) -> Self {
        self.delay_p = p;
        self.max_delay = max_delay;
        assert!(
            p == 0.0 || max_delay >= 1,
            "delay faults need max_delay >= 1"
        );
        self.validate();
        self
    }

    /// Give one directed link its own delay profile, overriding the
    /// plan-wide fault mix on that link. Heterogeneous profiles across
    /// the links of one node are what reorder deliveries relative to
    /// send order (see [`LinkDelay`]).
    pub fn with_link_delay(mut self, rule: LinkDelay) -> Self {
        assert!(
            (0.0..=1.0).contains(&rule.p),
            "link delay probability {} not in [0, 1]",
            rule.p
        );
        assert!(
            rule.p == 0.0 || rule.max_delay >= 1,
            "link delay faults need max_delay >= 1"
        );
        self.link_delays.push(rule);
        self
    }

    /// Schedule a link outage.
    pub fn with_outage(mut self, outage: Outage) -> Self {
        assert!(outage.start <= outage.end, "outage interval is empty");
        self.outages.push(outage);
        self
    }

    /// Partition the network into `groups` (plus one implicit group of
    /// every unlisted node, so a minority split is just
    /// `vec![minority]`) from round `start`. Messages between groups sent
    /// before `heal` are held and delivered at `heal`: the links stay
    /// reliable, delivery is merely late. With `heal: None` the cut is
    /// permanent and cross-group messages are dropped as outage drops.
    pub fn with_partition(
        mut self,
        groups: Vec<Vec<NodeId>>,
        start: Round,
        heal: Option<Round>,
    ) -> Self {
        assert!(
            heal.is_none_or(|h| h > start),
            "partition heals at or before it starts"
        );
        let group = groups
            .iter()
            .enumerate()
            .flat_map(|(i, g)| g.iter().map(move |&v| (v, i)))
            .collect();
        self.partitions.push(PartitionRule { group, start, heal });
        self
    }

    /// Cap each direction of the `{a, b}` link at `bytes_per_round`
    /// payload bytes (one CONGEST word = 8 bytes). A message travels at
    /// once but queues behind the link's backlog, so excess spills into
    /// later due rounds — nothing is dropped.
    pub fn with_bandwidth_cap(mut self, a: NodeId, b: NodeId, bytes_per_round: u64) -> Self {
        self.caps.insert((a, b), bytes_per_round);
        self.caps.insert((b, a), bytes_per_round);
        self
    }

    fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop_p),
            ("duplicate", self.dup_p),
            ("delay", self.delay_p),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} probability {p} not in [0, 1]"
            );
        }
        let total = self.drop_p + self.dup_p + self.delay_p;
        assert!(total <= 1.0, "fault probabilities sum to {total} > 1");
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True iff this plan can never tamper with any message.
    pub fn is_pristine(&self) -> bool {
        self.drop_p == 0.0
            && self.dup_p == 0.0
            && self.delay_p == 0.0
            && self.outages.is_empty()
            && self.link_delays.iter().all(|r| r.p == 0.0)
            && self.partitions.is_empty()
            && self.caps.is_empty()
    }

    /// True iff the plan can deliver a message after its send round:
    /// delay faults, a partition that heals, or a bandwidth cap. (The
    /// multi-instance scheduler cannot absorb those; see
    /// [`crate::scheduler`].)
    pub fn has_delays(&self) -> bool {
        self.delay_p > 0.0
            || self.link_delays.iter().any(|r| r.p > 0.0)
            || self.partitions.iter().any(|p| p.heal.is_some())
            || !self.caps.is_empty()
    }

    /// True iff the directed link `u -> v` is cut *forever*: an outage
    /// on it that never ends, or a partition that never heals and
    /// separates the two. The syntactic permanence test the pipeline
    /// uses to name the nodes a run can never reach.
    pub fn cuts_forever(&self, u: NodeId, v: NodeId) -> bool {
        self.outages
            .iter()
            .any(|o| o.end == Round::MAX && o.joins(u, v))
            || self
                .partitions
                .iter()
                .any(|p| p.heal.is_none() && p.separates(u, v))
    }

    /// The deterministic per-message seed: a SplitMix64 chain over the plan
    /// seed and the message coordinates. Order-independent, so sequential
    /// and parallel engines agree.
    fn event_seed(&self, u: NodeId, v: NodeId, round: Round) -> u64 {
        fn splitmix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        splitmix(self.seed ^ splitmix(((u as u64) << 32 | v as u64) ^ splitmix(round)))
    }

    /// The seeded mix's draw for the message on `u -> v` in `round`:
    /// `None` drops it, else `(delay, duplicate)`.
    fn draw(&self, u: NodeId, v: NodeId, round: Round) -> Option<(Round, bool)> {
        if let Some(rule) = self.link_delays.iter().find(|r| r.covers(u, v)) {
            let mut rng = ChaCha8Rng::seed_from_u64(self.event_seed(u, v, round));
            let x = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            return Some(if x < rule.p {
                (rng.gen_range(1..=rule.max_delay), false)
            } else {
                (0, false)
            });
        }
        let total = self.drop_p + self.dup_p + self.delay_p;
        if total == 0.0 {
            return Some((0, false));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.event_seed(u, v, round));
        // 53-bit uniform in [0, 1).
        let x = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if x < self.drop_p {
            None
        } else if x < self.drop_p + self.dup_p {
            Some((0, true))
        } else if x < total {
            Some((rng.gen_range(1..=self.max_delay), false))
        } else {
            Some((0, false))
        }
    }

    /// Decide the fate of the `words`-word message sent on `u -> v` in
    /// `round`, advancing the link's cap bucket in `buckets` when it is
    /// capped.
    ///
    /// At most one message exists per directed link per round (the CONGEST
    /// capacity), so `(u, v, round)` identifies the message uniquely. The
    /// rules compose in a fixed order: scheduled cuts (outages, unhealed
    /// partitions), then the seeded mix — either drop wins over every
    /// deferral — then the deferrals, of which the latest due round wins:
    /// a partition's heal round, a delay, and last the cap, so only a
    /// message that is delivered spends capacity.
    pub fn decide(
        &self,
        u: NodeId,
        v: NodeId,
        round: Round,
        words: usize,
        buckets: &mut CapBuckets,
    ) -> FaultAction {
        if self.outages.iter().any(|o| o.covers(u, v, round)) {
            return FaultAction::OutageDrop;
        }
        let mut due = round;
        for p in &self.partitions {
            if round < p.start || !p.separates(u, v) {
                continue;
            }
            match p.heal {
                None => return FaultAction::OutageDrop,
                Some(h) if round < h => due = due.max(h),
                Some(_) => {}
            }
        }
        let Some((delay, duplicate)) = self.draw(u, v, round) else {
            return FaultAction::Drop;
        };
        due = due.max(round + delay);
        if let Some(&cap) = self.caps.get(&(u, v)) {
            let cap = cap.max(1);
            let cost = (words as u64).saturating_mul(8).max(1);
            let bucket = buckets.0.entry((u, v)).or_insert((round, 0));
            // Leaky bucket: the link drains `cap` bytes every round.
            if round > bucket.0 {
                let elapsed = round - bucket.0;
                bucket.1 = bucket.1.saturating_sub(elapsed.saturating_mul(cap));
                bucket.0 = round;
            }
            // This message queues behind the backlog: `backlog / cap`
            // whole rounds' worth of bytes are ahead of it. The message
            // itself travels now (and cannot be split), so an oversize
            // message on an empty link is on time — but it leaves a
            // multi-round backlog behind it.
            due = due.max(round + bucket.1 / cap);
            bucket.1 += cost;
        }
        FaultAction::Deliver { due, duplicate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single delivery at round `due`.
    fn at(due: Round) -> FaultAction {
        FaultAction::Deliver {
            due,
            duplicate: false,
        }
    }

    /// One decision on a one-word message, for plans without caps.
    fn decide(plan: &FaultPlan, u: NodeId, v: NodeId, round: Round) -> FaultAction {
        plan.decide(u, v, round, 1, &mut CapBuckets::default())
    }

    #[test]
    fn pristine_plan_always_delivers() {
        let plan = FaultPlan::new(7);
        assert!(plan.is_pristine());
        for r in 1..100 {
            assert_eq!(decide(&plan, 0, 1, r), at(r));
        }
    }

    #[test]
    fn link_delay_rule_overrides_plan_mix_on_its_link_only() {
        let plan = FaultPlan::new(3).with_drop(1.0).with_link_delay(LinkDelay {
            from: 0,
            to: 1,
            p: 1.0,
            max_delay: 4,
        });
        assert!(plan.has_delays());
        for r in 1..50 {
            // The ruled link only ever delays (never the plan-wide drop)…
            match decide(&plan, 0, 1, r) {
                FaultAction::Deliver {
                    due,
                    duplicate: false,
                } => assert!((r + 1..=r + 4).contains(&due)),
                other => panic!("round {r}: expected a delay, got {other:?}"),
            }
            // …while every other link still sees the plan-wide mix.
            assert_eq!(decide(&plan, 1, 0, r), FaultAction::Drop);
            assert_eq!(decide(&plan, 0, 2, r), FaultAction::Drop);
        }
        // Same coordinates, same decision — the rule is deterministic.
        assert_eq!(decide(&plan, 0, 1, 7), decide(&plan, 0, 1, 7));
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::new(11).with_drop(0.3).with_delay(0.2, 4);
        let b = a.clone();
        for r in 1..500 {
            for (u, v) in [(0, 1), (1, 0), (2, 5)] {
                assert_eq!(decide(&a, u, v, r), decide(&b, u, v, r));
            }
        }
    }

    #[test]
    fn different_links_get_independent_decisions() {
        let plan = FaultPlan::drop_only(3, 0.5);
        let mut differ = false;
        for r in 1..64 {
            if decide(&plan, 0, 1, r) != decide(&plan, 1, 0, r) {
                differ = true;
                break;
            }
        }
        assert!(differ, "forward and reverse links must draw independently");
    }

    #[test]
    fn drop_rate_is_roughly_respected() {
        let plan = FaultPlan::drop_only(99, 0.25);
        let mut drops = 0u32;
        let trials = 4000;
        for r in 1..=trials {
            if decide(&plan, 4, 9, r) == FaultAction::Drop {
                drops += 1;
            }
        }
        let rate = drops as f64 / trials as f64;
        assert!((0.2..0.3).contains(&rate), "observed drop rate {rate}");
    }

    #[test]
    fn delay_magnitudes_in_bounds() {
        let plan = FaultPlan::new(5).with_delay(1.0, 3);
        for r in 1..200 {
            match decide(&plan, 1, 2, r) {
                FaultAction::Deliver {
                    due,
                    duplicate: false,
                } => assert!((r + 1..=r + 3).contains(&due)),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn outage_overrides_randomness() {
        let plan = FaultPlan::new(1).with_outage(Outage {
            from: 0,
            to: 1,
            start: 10,
            end: 20,
            symmetric: true,
        });
        assert_eq!(decide(&plan, 0, 1, 9), at(9));
        assert_eq!(decide(&plan, 0, 1, 10), FaultAction::OutageDrop);
        assert_eq!(decide(&plan, 1, 0, 15), FaultAction::OutageDrop);
        assert_eq!(decide(&plan, 0, 1, 21), at(21));
        assert_eq!(decide(&plan, 2, 3, 15), at(15));
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn overfull_probabilities_rejected() {
        let _ = FaultPlan::new(0).with_drop(0.7).with_duplicate(0.5);
    }

    #[test]
    fn healing_partition_defers_cross_group_then_delivers() {
        let plan = FaultPlan::new(0).with_partition(vec![vec![0, 1], vec![2, 3]], 4, Some(9));
        assert!(plan.has_delays(), "held mail is delayed mail");
        // Before the window: untouched.
        assert_eq!(decide(&plan, 0, 2, 3), at(3));
        // Inside the window, cross-group: held until the heal round.
        assert_eq!(decide(&plan, 0, 2, 4), at(9));
        assert_eq!(decide(&plan, 3, 1, 8), at(9));
        // Inside the window, same group: untouched.
        assert_eq!(decide(&plan, 0, 1, 6), at(6));
        // At and after heal: untouched.
        assert_eq!(decide(&plan, 0, 2, 9), at(9));
        assert!(!plan.cuts_forever(0, 2), "healed partitions are not cuts");
    }

    #[test]
    fn unhealed_partition_drops_and_unlisted_nodes_share_a_group() {
        let plan = FaultPlan::new(0).with_partition(vec![vec![0]], 2, None);
        assert!(!plan.has_delays(), "a permanent cut drops, it never defers");
        assert_eq!(decide(&plan, 0, 1, 2), FaultAction::OutageDrop);
        assert_eq!(decide(&plan, 1, 0, 7), FaultAction::OutageDrop);
        // 1 and 2 are both unlisted -> same implicit group.
        assert_eq!(decide(&plan, 1, 2, 7), at(7));
        assert!(plan.cuts_forever(0, 1) && plan.cuts_forever(1, 0));
        assert!(!plan.cuts_forever(1, 2));
    }

    #[test]
    fn asymmetric_loss_is_one_way_and_windowed() {
        // Lost `2 -> 5` for rounds 3..8: a one-way outage over 3..=7.
        let loss = |end| Outage {
            from: 2,
            to: 5,
            start: 3,
            end,
            symmetric: false,
        };
        let plan = FaultPlan::new(0).with_outage(loss(7));
        assert_eq!(decide(&plan, 2, 5, 3), FaultAction::OutageDrop);
        assert_eq!(decide(&plan, 2, 5, 7), FaultAction::OutageDrop);
        // Reverse direction and outside the window are untouched.
        assert_eq!(decide(&plan, 5, 2, 4), at(4));
        assert_eq!(decide(&plan, 2, 5, 8), at(8));
        assert!(!plan.cuts_forever(2, 5), "windowed loss is not permanent");
        let forever = FaultPlan::new(0).with_outage(loss(Round::MAX));
        assert!(forever.cuts_forever(2, 5));
        assert!(!forever.cuts_forever(5, 2), "loss is directional");
    }

    #[test]
    fn bandwidth_cap_water_fills_across_rounds() {
        // 16 bytes/round = two 1-word messages per slot per direction.
        let plan = FaultPlan::new(0).with_bandwidth_cap(0, 1, 16);
        assert!(plan.has_delays(), "a cap spills into later rounds");
        let mut b = CapBuckets::default();
        assert_eq!(plan.decide(0, 1, 5, 1, &mut b), at(5));
        assert_eq!(plan.decide(0, 1, 5, 1, &mut b), at(5));
        // Third message of round 5 spills to round 6, fourth rides along.
        assert_eq!(plan.decide(0, 1, 5, 1, &mut b), at(6));
        assert_eq!(plan.decide(0, 1, 5, 1, &mut b), at(6));
        // Each direction has its own bucket; the cap applies both ways.
        assert_eq!(plan.decide(1, 0, 5, 1, &mut b), at(5));
        // An oversize message still gets a slot of its own.
        assert_eq!(plan.decide(0, 1, 5, 4, &mut b), at(7));
        // A later round past the backlog resets the bucket.
        assert_eq!(plan.decide(0, 1, 9, 1, &mut b), at(9));
        // Uncapped links are untouched.
        assert_eq!(plan.decide(0, 2, 5, 64, &mut b), at(5));
    }

    #[test]
    fn undersized_cap_builds_cross_round_backlog() {
        // 4 bytes/round against an 8-byte message every round: the link
        // sustains half the offered load, so lateness grows one round
        // per round — real cross-round backpressure, not per-round
        // clipping.
        let plan = FaultPlan::new(0).with_bandwidth_cap(2, 3, 4);
        let mut b = CapBuckets::default();
        assert_eq!(plan.decide(2, 3, 0, 1, &mut b), at(0));
        assert_eq!(plan.decide(2, 3, 1, 1, &mut b), at(2));
        assert_eq!(plan.decide(2, 3, 2, 1, &mut b), at(4));
        assert_eq!(plan.decide(2, 3, 3, 1, &mut b), at(6));
        // After a long silence the backlog fully drains.
        assert_eq!(plan.decide(2, 3, 100, 1, &mut b), at(100));
    }

    #[test]
    fn bucket_state_roundtrips_for_snapshots() {
        let plan = FaultPlan::new(0).with_bandwidth_cap(0, 1, 8);
        let mut b = CapBuckets::default();
        plan.decide(0, 1, 2, 1, &mut b);
        plan.decide(0, 1, 2, 1, &mut b);
        let mut fresh = CapBuckets::from_state(b.state());
        // Both bucket sets now make the same next decision.
        assert_eq!(
            plan.decide(0, 1, 2, 1, &mut fresh),
            plan.decide(0, 1, 2, 1, &mut b)
        );
        assert_eq!(fresh, b);
    }

    #[test]
    fn drop_wins_over_defer_and_dropped_messages_spend_no_capacity() {
        let plan = FaultPlan::new(0)
            .with_outage(Outage {
                from: 0,
                to: 1,
                start: 0,
                end: Round::MAX,
                symmetric: false,
            })
            .with_bandwidth_cap(0, 1, 8);
        let mut b = CapBuckets::default();
        assert_eq!(plan.decide(0, 1, 3, 1, &mut b), FaultAction::OutageDrop);
        assert!(b.state().is_empty(), "drops must not fill the bucket");
        // The reverse direction is only capped, never dropped.
        assert_eq!(plan.decide(1, 0, 3, 1, &mut b), at(3));
        assert_eq!(plan.decide(1, 0, 3, 1, &mut b), at(4));
        // A random drop spends no capacity either.
        let lossy = FaultPlan::new(0).with_drop(1.0).with_bandwidth_cap(0, 1, 8);
        let mut b = CapBuckets::default();
        assert_eq!(lossy.decide(0, 1, 3, 1, &mut b), FaultAction::Drop);
        assert!(b.state().is_empty());
    }

    #[test]
    fn partition_heal_composes_with_cap_by_later_due() {
        let plan = FaultPlan::new(0)
            .with_partition(vec![vec![0], vec![1]], 0, Some(10))
            .with_bandwidth_cap(0, 1, 8);
        let mut b = CapBuckets::default();
        // Cap alone would defer to round 2-3; the heal round is later.
        assert_eq!(plan.decide(0, 1, 2, 1, &mut b), at(10));
        assert_eq!(plan.decide(0, 1, 2, 1, &mut b), at(10));
        // After heal the cap dominates again: bucket backlog is at
        // round 3 from the two sends above... a round-11 send resets it.
        assert_eq!(plan.decide(0, 1, 11, 1, &mut b), at(11));
        // A duplicate drawn for a held message is held with it.
        let dup = FaultPlan::new(0)
            .with_duplicate(1.0)
            .with_partition(vec![vec![0]], 0, Some(10));
        assert_eq!(
            decide(&dup, 0, 1, 2),
            FaultAction::Deliver {
                due: 10,
                duplicate: true
            }
        );
    }

    #[test]
    #[should_panic(expected = "heals at or before it starts")]
    fn partition_healing_before_it_starts_rejected() {
        let _ = FaultPlan::new(0).with_partition(vec![vec![0]], 5, Some(5));
    }
}
