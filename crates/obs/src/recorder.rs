//! The span/event model and the [`Recorder`] trait.
//!
//! A *span* is one named phase of a composed run — `csssp`,
//! `blocker_select`, `per_blocker_sssp`, … — carrying its own
//! [`RunStats`] delta and its position in the run's composed round
//! timeline. Drivers open a span, execute the phase (one engine or
//! transport run), and close it with that phase's stats; nesting is a
//! stack (`csssp` contains the `hk_2h` pipelined run and the `validate`
//! wave). Because phases execute sequentially and stats compose with
//! [`RunStats::then`], the round ranges of sibling spans tile the
//! timeline and their rounds/messages sum exactly to the run totals.
//!
//! The trait is deliberately tiny so that every layer can be generic
//! over it: the engine and the transport coordinator emit per-round
//! events, drivers emit spans, protocols may bump named counters. The
//! default implementation of every method is a no-op and
//! [`NullRecorder`] opts out entirely — recording disabled costs one
//! no-op virtual call per span edge and per executed round, nothing per
//! message.

use crate::stats::RunStats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Handle to an open (or closed) span within one [`Recording`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// Index into [`Recording::spans`].
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a handle from a raw index (JSONL parser only; in-process
    /// ids always come from [`Recorder::begin`]).
    pub(crate) fn from_index(i: usize) -> SpanId {
        SpanId(i as u32)
    }
}

/// One named phase of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Phase name (see DESIGN.md §9 for the taxonomy).
    pub name: &'static str,
    /// Enclosing span, `None` for top-level phases.
    pub parent: Option<SpanId>,
    /// First round of the phase in the *composed* run timeline (the
    /// round after the previous sibling ended).
    pub start_round: u64,
    /// `start_round + stats.rounds`: the phase's last active round.
    pub end_round: u64,
    /// This phase's own statistics delta.
    pub stats: RunStats,
    /// Wall-clock time spent inside the span, for throughput reporting
    /// (not part of the deterministic record; golden fixtures zero it
    /// via [`Recording::normalize_wall`]).
    pub wall_ns: u64,
}

impl Span {
    /// Rounds attributed to this span.
    pub fn rounds(&self) -> u64 {
        self.stats.rounds
    }
}

/// One discrete occurrence on the round timeline — crash detected,
/// checkpoint taken, node rejoined. Unlike counters (run totals) and
/// round samples (per-round load), events keep *when* and *what*
/// together, which is what a recovery timeline needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Composed-timeline round the event is attributed to.
    pub round: u64,
    /// Event name (see DESIGN.md §10 for the recovery taxonomy:
    /// `checkpoint.stored`, `failure.suspect`, `failure.crash`,
    /// `recovery.rejoin`, `recovery.done`, `run.aborted`).
    pub name: &'static str,
    /// Event payload (checkpoint bytes, node id, suspect count…; the
    /// name fixes the interpretation).
    pub value: u64,
}

/// The sink every instrumented layer writes into.
///
/// All methods default to no-ops so implementors override only what
/// they store.
pub trait Recorder {
    /// Open a span; returns the handle to close it with.
    fn begin(&mut self, _name: &'static str) -> SpanId {
        SpanId(u32::MAX)
    }
    /// Close the innermost open span (`id` must match it) with the
    /// phase's stats delta.
    fn end(&mut self, _id: SpanId, _stats: &RunStats) {}
    /// Add `delta` to a named counter (counters accumulate over the run).
    fn counter(&mut self, _name: &'static str, _delta: u64) {}
    /// One executed round with `messages` in flight, in the clock of the
    /// innermost open span (the engine's or coordinator's own round
    /// numbers); the recorder rebases onto the composed timeline.
    fn round(&mut self, _round: u64, _messages: u64) {}
    /// Record a run-level key/value (algorithm, n, k, h, Δ, runtime…).
    fn meta(&mut self, _key: &'static str, _value: String) {}
    /// One discrete occurrence at `round` (in the innermost open span's
    /// clock, rebased like [`Recorder::round`]). Used for the crash
    /// recovery timeline; fault-free runs emit none, so recordings of
    /// such runs are unchanged by this channel existing.
    fn event(&mut self, _round: u64, _name: &'static str, _value: u64) {}
}

/// The always-off recorder: what a caller that records nothing passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// Everything one recorded run produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recording {
    /// All spans in open order (parents precede children).
    pub spans: Vec<Span>,
    /// Accumulated named counters.
    pub counters: BTreeMap<String, u64>,
    /// Run-level key/value pairs, in insertion order.
    pub meta: Vec<(String, String)>,
    /// Per-round activity samples `(composed round, messages)` from the
    /// engine / coordinator, capped at [`ObsRecorder::ROUND_EVENT_CAP`].
    pub rounds: Vec<(u64, u64)>,
    /// Round events discarded once the cap was hit.
    pub rounds_dropped: u64,
    /// Discrete timeline events ([`ObsEvent`]), in emission order.
    /// Empty for fault-free runs.
    pub events: Vec<ObsEvent>,
}

impl Recording {
    /// Top-level spans (no parent), in execution order.
    pub fn top_level(&self) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(|s| s.parent.is_none())
    }

    /// Children of `id`, in execution order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Composition of all top-level span stats — by construction the
    /// run totals of the recorded execution.
    pub fn total(&self) -> RunStats {
        self.top_level()
            .fold(RunStats::default(), |acc, s| acc.then(&s.stats))
    }

    /// Meta value by key.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Zero every span's wall time (golden fixtures must not depend on
    /// the host's clock).
    pub fn normalize_wall(&mut self) {
        for s in &mut self.spans {
            s.wall_ns = 0;
        }
    }
}

/// The collecting [`Recorder`].
pub struct ObsRecorder {
    recording: Recording,
    /// Open span stack: `(id, begin instant)`.
    open: Vec<(SpanId, Instant)>,
    /// Composed-timeline cursor: rounds consumed by closed spans.
    cursor: u64,
}

impl Default for ObsRecorder {
    fn default() -> Self {
        ObsRecorder::new()
    }
}

impl ObsRecorder {
    /// Round-event storage cap; beyond it only `rounds_dropped` counts.
    pub const ROUND_EVENT_CAP: usize = 1 << 20;

    pub fn new() -> Self {
        ObsRecorder {
            recording: Recording::default(),
            open: Vec::new(),
            cursor: 0,
        }
    }

    /// The collected data so far (open spans have `end_round == start`).
    pub fn recording(&self) -> &Recording {
        &self.recording
    }

    /// Finish: all spans must be closed.
    pub fn into_recording(self) -> Recording {
        assert!(
            self.open.is_empty(),
            "unclosed span {:?}",
            self.open
                .last()
                .map(|&(id, _)| self.recording.spans[id.index()].name)
        );
        self.recording
    }

    /// Round base for rebasing engine-local round numbers: the start of
    /// the innermost open span, or the cursor outside any span.
    fn round_base(&self) -> u64 {
        self.open
            .last()
            .map(|&(id, _)| self.recording.spans[id.index()].start_round)
            .unwrap_or(self.cursor)
    }
}

impl Recorder for ObsRecorder {
    fn begin(&mut self, name: &'static str) -> SpanId {
        let id = SpanId(self.recording.spans.len() as u32);
        let parent = self.open.last().map(|&(p, _)| p);
        // A child begins where its parent's consumed rounds end: the
        // cursor already advanced past every closed sibling.
        let start = self.cursor;
        self.recording.spans.push(Span {
            name,
            parent,
            start_round: start,
            end_round: start,
            stats: RunStats::default(),
            wall_ns: 0,
        });
        self.open.push((id, Instant::now()));
        id
    }

    fn end(&mut self, id: SpanId, stats: &RunStats) {
        let (top, began) = self.open.pop().expect("end() with no open span");
        assert_eq!(top, id, "spans must close innermost-first");
        let span = &mut self.recording.spans[id.index()];
        span.stats = stats.clone();
        span.end_round = span.start_round + stats.rounds;
        span.wall_ns = began.elapsed().as_nanos() as u64;
        // A parent's own stats cover its children, so closing it rewinds
        // nothing: the cursor only ever moves forward.
        self.cursor = self.cursor.max(span.end_round);
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.recording.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    fn round(&mut self, round: u64, messages: u64) {
        if self.recording.rounds.len() >= Self::ROUND_EVENT_CAP {
            self.recording.rounds_dropped += 1;
            return;
        }
        let base = self.round_base();
        self.recording.rounds.push((base + round, messages));
    }

    fn meta(&mut self, key: &'static str, value: String) {
        self.recording.meta.push((key.to_string(), value));
    }

    fn event(&mut self, round: u64, name: &'static str, value: u64) {
        let base = self.round_base();
        self.recording.events.push(ObsEvent {
            round: base + round,
            name,
            value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rounds: u64, messages: u64) -> RunStats {
        RunStats {
            rounds,
            rounds_executed: rounds,
            messages,
            ..RunStats::default()
        }
    }

    #[test]
    fn sequential_spans_tile_the_timeline() {
        let mut rec = ObsRecorder::new();
        let a = rec.begin("csssp");
        rec.end(a, &stats(10, 100));
        let b = rec.begin("per_blocker_sssp");
        rec.end(b, &stats(5, 50));
        let r = rec.into_recording();
        assert_eq!(r.spans[0].start_round, 0);
        assert_eq!(r.spans[0].end_round, 10);
        assert_eq!(r.spans[1].start_round, 10);
        assert_eq!(r.spans[1].end_round, 15);
        let total = r.total();
        assert_eq!(total.rounds, 15);
        assert_eq!(total.messages, 150);
    }

    #[test]
    fn nested_spans_share_their_parents_range() {
        let mut rec = ObsRecorder::new();
        let p = rec.begin("csssp");
        let c1 = rec.begin("hk_2h");
        rec.end(c1, &stats(7, 70));
        let c2 = rec.begin("validate");
        rec.end(c2, &stats(3, 30));
        rec.end(p, &stats(10, 100));
        let next = rec.begin("broadcast");
        rec.end(next, &stats(1, 2));
        let r = rec.into_recording();
        let csssp = &r.spans[0];
        assert_eq!((csssp.start_round, csssp.end_round), (0, 10));
        let hk = &r.spans[1];
        assert_eq!(hk.parent, Some(SpanId(0)));
        assert_eq!((hk.start_round, hk.end_round), (0, 7));
        let val = &r.spans[2];
        assert_eq!((val.start_round, val.end_round), (7, 10));
        let bc = &r.spans[3];
        assert_eq!(bc.parent, None);
        assert_eq!((bc.start_round, bc.end_round), (10, 11));
        // only top-level spans count toward the totals (children are a
        // refinement of their parent, not extra rounds)
        assert_eq!(r.total().rounds, 11);
        assert_eq!(r.children(SpanId(0)).count(), 2);
    }

    #[test]
    fn round_events_rebase_onto_open_span() {
        let mut rec = ObsRecorder::new();
        let a = rec.begin("a");
        rec.round(1, 4);
        rec.round(2, 6);
        rec.end(a, &stats(2, 10));
        let b = rec.begin("b");
        rec.round(1, 3);
        rec.end(b, &stats(1, 3));
        let r = rec.into_recording();
        assert_eq!(r.rounds, vec![(1, 4), (2, 6), (3, 3)]);
    }

    #[test]
    fn events_rebase_onto_open_span() {
        let mut rec = ObsRecorder::new();
        let a = rec.begin("a");
        rec.event(3, "failure.crash", 2);
        rec.end(a, &stats(5, 10));
        let b = rec.begin("b");
        rec.event(1, "recovery.rejoin", 2);
        rec.end(b, &stats(2, 2));
        let r = rec.into_recording();
        assert_eq!(
            r.events,
            vec![
                ObsEvent {
                    round: 3,
                    name: "failure.crash",
                    value: 2
                },
                ObsEvent {
                    round: 6,
                    name: "recovery.rejoin",
                    value: 2
                },
            ]
        );
    }

    #[test]
    fn counters_accumulate() {
        let mut rec = ObsRecorder::new();
        rec.counter("blocker.selected", 1);
        rec.counter("blocker.selected", 2);
        let r = rec.into_recording();
        assert_eq!(r.counters["blocker.selected"], 3);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn out_of_order_end_panics() {
        let mut rec = ObsRecorder::new();
        let a = rec.begin("a");
        let _b = rec.begin("b");
        rec.end(a, &RunStats::default());
    }

    #[test]
    fn null_recorder_is_disabled() {
        let mut rec = NullRecorder;
        let id = rec.begin("anything");
        rec.end(id, &RunStats::default());
        rec.round(1, 1);
        rec.counter("x", 1);
    }
}
