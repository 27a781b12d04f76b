//! In-memory spans around the adapter calls.
//!
//! The benchmark times every layer from outside: a span opens before a
//! call into `layers.rs` and closes after it. Spans stay in memory until
//! the run ends and are then written as JSON lines and as a Chrome
//! trace. A span's *self time* is its duration minus the part of it that
//! its direct children cover, so the time a parent span spends outside
//! any adapter call shows up as the parent's own.
//!
//! `begin`/`end` always measure and return the duration, because the
//! end-to-end metrics need it; only the bookkeeping is switched by
//! `recording`. That switch is what `bench.trace_overhead_share`
//! compares.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The cold rep, sub-run or update batch this span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle of a span that is still open.
#[must_use = "close the span with Tracer::end"]
pub struct Open {
    slot: Option<u32>,
    started: Instant,
}

pub struct Tracer {
    origin: Instant,
    recording: bool,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording,
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Switch the bookkeeping on or off. Only legal between top-level
    /// spans, so that parent links never cross the switch.
    pub fn set_recording(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "recording toggled inside a span");
        self.recording = on;
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let slot = self.recording.then(|| {
            let slot = self.spans.len() as u32;
            let at = started.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
            self.stack.push(slot);
            slot
        });
        Open { slot, started }
    }

    /// Close `open` and return its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let elapsed = open.started.elapsed();
        if let Some(slot) = open.slot {
            assert_eq!(self.stack.pop(), Some(slot), "spans must nest");
            let span = &mut self.spans[slot as usize];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
        }
        elapsed.as_secs_f64()
    }

    /// A leaf span around `f`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every recorded span called `name` whose
    /// rep is at least `first_rep`, in recording order.
    pub fn durations(&self, name: &str, first_rep: u32) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.rep >= first_rep)
            .map(Span::seconds)
            .collect()
    }

    /// Self times in seconds of every recorded span called `name`.
    pub fn self_times(&self, name: &str, first_rep: u32) -> Vec<f64> {
        let own = self_time_ns(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name && s.rep >= first_rep)
            .map(|(_, ns)| ns as f64 / 1e9)
            .collect()
    }

    /// One JSON object per span, with its self time.
    pub fn to_jsonl(&self) -> String {
        let own = self_time_ns(&self.spans);
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\
                 \"parent\":{parent},\"rep\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            );
        }
        out
    }

    /// The same spans in the Chrome trace-event format (`chrome://tracing`,
    /// Perfetto): complete events, microsecond timestamps.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"rep\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.rep
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Per span: duration minus the summed durations of its direct children.
/// Children never overlap each other (the tracer is single threaded and
/// spans nest), so the sum is the covered part of the interval.
pub fn self_time_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let covered = s.end_ns - s.start_ns;
            own[p as usize] = own[p as usize].saturating_sub(covered);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // rep [0,100) holds a [10,40) and b [50,90); b holds c [60,70).
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("c", 60, 70, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn recorded_spans_nest_and_carry_their_rep() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        let outer = t.begin("outer");
        let ((), inner_s) = t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_s = t.end(outer);
        assert!(inner_s >= 0.002 && outer_s >= inner_s);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].rep, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // Self time of the parent is what the child does not cover.
        let own = t.self_times("outer", 0)[0];
        assert!((own - (outer_s - inner_s)).abs() < 1e-3);
        assert_eq!(t.durations("inner", 4), Vec::<f64>::new());
        assert_eq!(t.to_jsonl().lines().count(), 2);
        assert!(t.to_chrome_trace().starts_with("{\"traceEvents\":[{"));
    }

    #[test]
    fn a_tracer_that_is_off_still_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (v, s) = t.time("x", || 41 + 1);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
        assert!(t.spans().is_empty());
    }
}
