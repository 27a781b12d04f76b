//! Round-by-round execution tracing.
//!
//! Debugging a distributed protocol usually means asking "what was in
//! flight in round r?". [`RoundTrace`] is a cheap recorder the engine can
//! feed (via [`crate::engine::Network::step_traced`]): per executed round
//! it stores the message count, the set of senders, and optionally a
//! rendered digest of the messages. Used by tests in this workspace and
//! handy when developing new protocols on the engine.

use crate::protocol::Round;
use dw_graph::NodeId;

/// One executed round's summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    pub round: Round,
    pub messages: u64,
    /// Distinct sender ids this round (sorted).
    pub senders: Vec<NodeId>,
    /// Optional rendered messages `(from, to, text)` — only populated
    /// when the trace was created with [`RoundTrace::with_payloads`].
    pub payloads: Vec<(NodeId, NodeId, String)>,
    /// Messages tampered with by fault injection this round
    /// (drops + outage drops + duplications + delays).
    pub fault_events: u64,
    /// Delay-faulted messages that arrived (late) this round.
    pub late_delivered: u64,
}

/// A trace of executed rounds (silent rounds produce no record).
#[derive(Debug, Clone, Default)]
pub struct RoundTrace {
    records: Vec<RoundRecord>,
    keep_payloads: bool,
}

impl RoundTrace {
    /// Counts and senders only.
    pub fn new() -> Self {
        RoundTrace::default()
    }

    /// Also render every message with `Debug` (verbose; small runs only).
    pub fn with_payloads() -> Self {
        RoundTrace {
            keep_payloads: true,
            ..RoundTrace::default()
        }
    }

    pub(crate) fn keep_payloads(&self) -> bool {
        self.keep_payloads
    }

    pub(crate) fn push(&mut self, rec: RoundRecord) {
        self.records.push(rec);
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Record for a specific round, if it was executed.
    pub fn round(&self, r: Round) -> Option<&RoundRecord> {
        self.records.iter().find(|rec| rec.round == r)
    }

    /// Render the trace as an aligned text block (for failure messages).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for rec in self.records() {
            out.push_str(&format!(
                "round {:>5}: {:>4} msgs from {:?}",
                rec.round, rec.messages, rec.senders
            ));
            if rec.fault_events > 0 || rec.late_delivered > 0 {
                out.push_str(&format!(
                    "  [faulted {}, late {}]",
                    rec.fault_events, rec.late_delivered
                ));
            }
            out.push('\n');
            for (f, t, p) in &rec.payloads {
                out.push_str(&format!("    {f} -> {t}: {p}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(round: Round, senders: Vec<NodeId>) -> RoundRecord {
        RoundRecord {
            round,
            messages: senders.len() as u64,
            senders,
            payloads: Vec::new(),
            fault_events: 0,
            late_delivered: 0,
        }
    }

    #[test]
    fn stores_and_queries() {
        let mut t = RoundTrace::new();
        t.push(rec(1, vec![0, 2]));
        t.push(rec(3, vec![2]));
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.round(3).unwrap().messages, 1);
        assert!(t.round(2).is_none());
        assert_eq!(t.round(1).unwrap().senders, vec![0, 2]);
    }

    #[test]
    fn uncapped_trace_keeps_everything() {
        let mut t = RoundTrace::new();
        for i in 1..=100 {
            t.push(rec(i, vec![0]));
        }
        assert_eq!(t.records().len(), 100);
        assert_eq!(t.records()[0].round, 1);
    }

    #[test]
    fn renders_readably() {
        let mut t = RoundTrace::with_payloads();
        let mut r = rec(7, vec![1]);
        r.payloads.push((1, 2, "hello".into()));
        t.push(r);
        let s = t.render();
        assert!(s.contains("round     7"));
        assert!(s.contains("1 -> 2: hello"));
        assert!(!s.contains("faulted"), "fault-free rounds render clean");
    }

    #[test]
    fn renders_fault_annotations() {
        let mut t = RoundTrace::new();
        let mut r = rec(3, vec![0]);
        r.fault_events = 2;
        r.late_delivered = 1;
        t.push(r);
        assert!(t.render().contains("[faulted 2, late 1]"));
    }
}
