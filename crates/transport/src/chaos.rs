//! Seeded process-level chaos for the transport runtime.
//!
//! A [`ChaosPlan`] is a deterministic script of the faults only a
//! deployment has — kill node `v` at round `r`, sever a link, stall the
//! coordinator — evaluated locally by each worker (and the coordinator)
//! from the shared plan. Link faults (loss, delay, outages, partitions,
//! one-way loss, bandwidth caps) are not chaos events: they are rules of
//! the [`dw_congest::FaultPlan`] in `TransportConfig::faults`, which the
//! simulator runs too. Determinism is the point: a chaos run with
//! recovery enabled must produce distances bit-identical to the
//! fault-free simulator on the same seeds, and that claim is only
//! testable if the faults themselves are reproducible.
//!
//! Kill semantics (fail-stop with recovery, DESIGN.md §10): the victim
//! discards all protocol state upon receiving `Go(r)` for the first
//! round `r` at or past its kill round, then stays silent — it answers
//! no pings and sends no frames — until the coordinator's rejoin
//! handshake restores it from the last checkpoint. Sever semantics: the
//! designated endpoint reports the link dead at its sever round and
//! exits, modelling an unrecoverable network partition. Stall
//! semantics: the coordinator sleeps before issuing the round's `Go`,
//! modelling a slow coordinator that workers must tolerate without
//! diverging.

use dw_congest::Round;
use dw_graph::NodeId;

/// One scripted process-level fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Node `node` crashes upon receiving `Go` for the first round
    /// `>= round`, losing all dynamic state.
    Kill { node: NodeId, round: Round },
    /// Node `a` loses its link to `b` at its first round `>= round`:
    /// it reports the dead link to the coordinator and exits.
    SeverLink { a: NodeId, b: NodeId, round: Round },
    /// The coordinator sleeps `millis` before broadcasting `Go` for the
    /// first round `>= round`.
    StallCoordinator { round: Round, millis: u64 },
}

/// A seeded, deterministic script of process-level faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    seed: u64,
    events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            events: Vec::new(),
        }
    }

    pub fn with_kill(mut self, node: NodeId, round: Round) -> Self {
        self.events.push(ChaosEvent::Kill { node, round });
        self
    }

    pub fn with_sever(mut self, a: NodeId, b: NodeId, round: Round) -> Self {
        self.events.push(ChaosEvent::SeverLink { a, b, round });
        self
    }

    pub fn with_stall(mut self, round: Round, millis: u64) -> Self {
        self.events
            .push(ChaosEvent::StallCoordinator { round, millis });
        self
    }

    /// Seed for derived deterministic choices (e.g. connect backoff
    /// jitter).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// The round at which `node` is scripted to crash, if any.
    pub fn kill_round(&self, node: NodeId) -> Option<Round> {
        self.events
            .iter()
            .filter_map(|e| match e {
                ChaosEvent::Kill { node: v, round } if *v == node => Some(*round),
                _ => None,
            })
            .min()
    }

    /// The `(peer, round)` of a link sever in which `node` is the
    /// reporting endpoint `a`, if any.
    pub fn sever_for(&self, node: NodeId) -> Option<(NodeId, Round)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                ChaosEvent::SeverLink { a, b, round } if *a == node => Some((*b, *round)),
                _ => None,
            })
            .min_by_key(|&(_, r)| r)
    }

    /// Coordinator stalls as `(round, millis)` pairs.
    pub fn stalls(&self) -> Vec<(Round, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                ChaosEvent::StallCoordinator { round, millis } => Some((*round, *millis)),
                _ => None,
            })
            .collect()
    }
}

/// SplitMix64: a tiny, high-quality mixing function used for seeded
/// jitter (connect backoff) without pulling an RNG dependency into the
/// transport crate.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_queries_answer_per_node() {
        let plan = ChaosPlan::new(7)
            .with_kill(3, 12)
            .with_sever(1, 4, 9)
            .with_stall(5, 250);
        assert_eq!(plan.kill_round(3), Some(12));
        assert_eq!(plan.kill_round(1), None);
        assert_eq!(plan.sever_for(1), Some((4, 9)));
        assert_eq!(plan.sever_for(4), None, "only the `a` endpoint reports");
        assert_eq!(plan.stalls(), vec![(5, 250)]);
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.events().len(), 3);
    }

    #[test]
    fn earliest_kill_wins() {
        let plan = ChaosPlan::new(0).with_kill(2, 20).with_kill(2, 10);
        assert_eq!(plan.kill_round(2), Some(10));
    }

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
