//! Wire formats for a [`Recording`]: JSONL event log (with a parser,
//! so the CLI `report` subcommand and the golden schema test can
//! round-trip it) and Chrome-trace JSON for `chrome://tracing` /
//! Perfetto.
//!
//! The writers are hand-rolled (the workspace builds offline, without
//! serde), the parser reads through [`dw_graph::json`], and both follow
//! one schema, `dwapsp-obs-v1`; the field list comes from
//! [`RunStats::fields`] so the formats can never drift from the stat
//! record.

use crate::recorder::{ObsEvent, Recording, Span, SpanId};
use crate::stats::RunStats;
use dw_graph::json::{JsonError, Reader};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Schema tag of the JSONL log; bump on breaking changes.
pub const JSONL_SCHEMA: &str = "dwapsp-obs-v1";

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a recording as one JSONL document: a schema line, `meta`
/// lines, one `span` line per span (open order, so parents precede
/// children), `counter` lines, one `event` line per recovery-timeline
/// event (fault-free runs emit none, so their documents are unchanged),
/// and — when round samples were captured — a final `rounds` line.
pub fn to_jsonl(rec: &Recording) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{\"type\":\"schema\",\"schema\":\"{JSONL_SCHEMA}\"}}");
    for (k, v) in &rec.meta {
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"key\":\"{}\",\"value\":\"{}\"}}",
            escape_json(k),
            escape_json(v)
        );
    }
    for (i, s) in rec.spans.iter().enumerate() {
        let parent = match s.parent {
            Some(p) => p.index().to_string(),
            None => "null".to_string(),
        };
        let mut line = format!(
            "{{\"type\":\"span\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\
             \"start_round\":{},\"end_round\":{},\"wall_ns\":{}",
            escape_json(s.name),
            s.start_round,
            s.end_round,
            s.wall_ns
        );
        for (name, value) in s.stats.fields() {
            let _ = write!(line, ",\"{name}\":{value}");
        }
        line.push('}');
        let _ = writeln!(out, "{line}");
    }
    for (name, value) in &rec.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
            escape_json(name)
        );
    }
    for e in &rec.events {
        let _ = writeln!(
            out,
            "{{\"type\":\"event\",\"round\":{},\"name\":\"{}\",\"value\":{}}}",
            e.round,
            escape_json(e.name),
            e.value
        );
    }
    if !rec.rounds.is_empty() || rec.rounds_dropped > 0 {
        let samples: Vec<String> = rec
            .rounds
            .iter()
            .map(|&(r, m)| format!("[{r},{m}]"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"type\":\"rounds\",\"dropped\":{},\"samples\":[{}]}}",
            rec.rounds_dropped,
            samples.join(",")
        );
    }
    out
}

// --- parsing ---------------------------------------------------------------

/// One log line's fields as `(key, raw value)`, keys in any order. A
/// key means different things on different line types (`value` is a
/// string on `meta` lines and a number on `counter` lines), so values
/// are read once the line's `type` is known.
struct Fields<'a>(Vec<(String, &'a str)>);

impl<'a> Fields<'a> {
    fn parse(line: &'a str) -> Result<Fields<'a>, JsonError> {
        let (mut r, mut fields) = (Reader::new(line), Vec::new());
        r.object(|r, key| r.raw().map(|v| fields.push((key.to_string(), v))))?;
        r.end()?;
        Ok(Fields(fields))
    }

    fn raw(&self, key: &str) -> Result<&'a str, String> {
        let hit = self.0.iter().find(|(k, _)| k == key);
        hit.map(|&(_, v)| v).ok_or_else(|| format!("missing {key}"))
    }

    /// The value at `key`, read whole by `value`.
    fn read<T>(
        &self,
        key: &str,
        value: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
    ) -> Result<T, String> {
        let mut r = Reader::new(self.raw(key)?);
        let v = value(&mut r).and_then(|v| r.end().map(|()| v));
        v.map_err(|e| format!("bad {key}: {e}"))
    }

    fn str(&self, key: &str) -> Result<String, String> {
        self.read(key, |r| r.str().map(Cow::into_owned))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.read(key, Reader::u64)
    }
}

/// Parse a [`to_jsonl`] document back into a [`Recording`].
///
/// Strict on schema, lenient on unknown line types (skipped), so a
/// newer writer degrades gracefully in an older reader.
pub fn parse_jsonl(doc: &str) -> Result<Recording, String> {
    let mut rec = Recording::default();
    let mut saw_schema = false;
    for (lineno, line) in doc.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |what: String| format!("line {}: {what}: {line}", lineno + 1);
        let f = Fields::parse(line).map_err(|e| err(e.to_string()))?;
        match f.str("type").ok().as_deref() {
            Some("schema") => {
                let schema = f.str("schema").map_err(err)?;
                if schema != JSONL_SCHEMA {
                    return Err(err(format!(
                        "unsupported schema {schema:?} (want {JSONL_SCHEMA:?})"
                    )));
                }
                saw_schema = true;
            }
            Some("meta") => rec
                .meta
                .push((f.str("key").map_err(err)?, f.str("value").map_err(err)?)),
            Some("span") => {
                if f.u64("id").map_err(err)? != rec.spans.len() as u64 {
                    return Err(err("span ids must be dense and in order".into()));
                }
                // SpanId is constructed through begin(); the table is
                // rebuilt directly, so parent links are raw indices.
                let parent = match f.raw("parent") {
                    Ok("null") | Err(_) => None,
                    Ok(_) => match f.u64("parent").map_err(err)? as usize {
                        p if p < rec.spans.len() => Some(SpanId::from_index(p)),
                        _ => return Err(err("parent references a later span".into())),
                    },
                };
                let mut stats = RunStats::default();
                for (field, _) in RunStats::default().fields() {
                    stats.set_field(field, f.u64(field).map_err(err)?);
                }
                rec.spans.push(Span {
                    name: leak_name(&f.str("name").map_err(err)?),
                    parent,
                    start_round: f.u64("start_round").map_err(err)?,
                    end_round: f.u64("end_round").map_err(err)?,
                    stats,
                    wall_ns: f.u64("wall_ns").unwrap_or(0),
                });
            }
            Some("counter") => {
                let name = f.str("name").map_err(err)?;
                *rec.counters.entry(name).or_insert(0) += f.u64("value").map_err(err)?;
            }
            Some("event") => rec.events.push(ObsEvent {
                round: f.u64("round").map_err(err)?,
                name: leak_name(&f.str("name").map_err(err)?),
                value: f.u64("value").map_err(err)?,
            }),
            Some("rounds") => {
                rec.rounds_dropped = f.u64("dropped").unwrap_or(0);
                if let Ok(raw) = f.raw("samples") {
                    rec.rounds = samples(raw).map_err(|e| err(format!("bad samples: {e}")))?;
                }
            }
            _ => {} // unknown line types are forward-compatible
        }
    }
    if !saw_schema {
        return Err("no schema line (not a dwapsp-obs JSONL log?)".to_string());
    }
    Ok(rec)
}

/// `[[round,messages],…]`.
fn samples(raw: &str) -> Result<Vec<(u64, u64)>, JsonError> {
    let mut out = Vec::new();
    Reader::new(raw).array(|r| {
        let mut pair = Vec::with_capacity(2);
        r.array(|r| r.u64().map(|v| pair.push(v)))?;
        let [round, messages] = pair[..] else {
            return Err(r.err("a sample is [round, messages]"));
        };
        out.push((round, messages));
        Ok(())
    })?;
    Ok(out)
}

/// Span names parsed from a file are dynamic, but [`Span::name`] is
/// `&'static str` (every in-process producer uses literals). Parsed
/// names are interned here; a report/export pass reads a bounded number
/// of distinct phase names, so the leak is a few bytes per process.
fn leak_name(name: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .unwrap();
    if let Some(&existing) = set.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

// --- Chrome trace ----------------------------------------------------------

/// Render a recording as a Chrome-trace document (`trace.json`): spans
/// become complete (`"ph":"X"`) events on one track with `ts`/`dur` in
/// rounds (1 round = 1 µs in the viewer), per-round message samples
/// become a counter (`"ph":"C"`) track, and run meta lands on the
/// process name. Loads in `chrome://tracing` and Perfetto.
pub fn to_chrome_trace(rec: &Recording) -> String {
    let mut events: Vec<String> = Vec::new();
    let label = rec
        .meta_value("algo")
        .map(|a| format!("dwapsp {a}"))
        .unwrap_or_else(|| "dwapsp".to_string());
    events.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape_json(&label)
    ));
    events.push(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"phases (1 round = 1us)\"}}"
            .to_string(),
    );
    for s in &rec.spans {
        let mut args = String::new();
        for (name, value) in s.stats.fields() {
            let _ = write!(args, ",\"{name}\":{value}");
        }
        let _ = write!(args, ",\"wall_ns\":{}", s.wall_ns);
        // Chrome's viewer drops zero-duration X events; give local
        // phases (e.g. `combine`) a visible 1-round sliver, flagged so
        // the args stay truthful.
        let dur = s.stats.rounds.max(1);
        let zero = if s.stats.rounds == 0 {
            ",\"zero_rounds\":true"
        } else {
            ""
        };
        events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\"pid\":0,\"tid\":0,\
             \"args\":{{\"span\":true{args}{zero}}}}}",
            escape_json(s.name),
            s.start_round,
        ));
    }
    for &(round, messages) in &rec.rounds {
        events.push(format!(
            "{{\"name\":\"messages\",\"ph\":\"C\",\"ts\":{round},\"pid\":0,\
             \"args\":{{\"messages\":{messages}}}}}"
        ));
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\
         \"otherData\":{{\"schema\":\"{JSONL_SCHEMA}\"}}}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{ObsRecorder, Recorder};

    fn sample_recording() -> Recording {
        let mut rec = ObsRecorder::new();
        rec.meta("algo", "alg3".to_string());
        rec.meta("n", "16".to_string());
        let p = rec.begin("csssp");
        let c = rec.begin("hk_2h");
        rec.round(1, 9);
        rec.round(2, 4);
        rec.end(
            c,
            &RunStats {
                rounds: 7,
                rounds_executed: 5,
                messages: 13,
                max_link_load: 2,
                ..RunStats::default()
            },
        );
        rec.end(
            p,
            &RunStats {
                rounds: 9,
                rounds_executed: 7,
                messages: 15,
                max_link_load: 2,
                ..RunStats::default()
            },
        );
        let q = rec.begin("combine");
        rec.end(q, &RunStats::default());
        rec.counter("blocker.selected", 2);
        let mut r = rec.into_recording();
        r.normalize_wall();
        r
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let rec = sample_recording();
        let doc = to_jsonl(&rec);
        let parsed = parse_jsonl(&doc).unwrap();
        assert_eq!(parsed, rec);
        // and the re-export is byte-identical (what the golden schema
        // test in dwapsp relies on)
        assert_eq!(to_jsonl(&parsed), doc);
    }

    #[test]
    fn jsonl_round_trips_recovery_events() {
        let mut rec = ObsRecorder::new();
        let s = rec.begin("hk_ssp");
        rec.event(4, "failure.crash", 2);
        rec.event(4, "checkpoint.stored", 128);
        rec.event(5, "recovery.rejoin", 2);
        rec.end(s, &RunStats::default());
        let mut r = rec.into_recording();
        r.normalize_wall();
        let doc = to_jsonl(&r);
        assert!(doc.contains("\"type\":\"event\""));
        let parsed = parse_jsonl(&doc).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(to_jsonl(&parsed), doc);
    }

    #[test]
    fn jsonl_without_events_has_no_event_lines() {
        let doc = to_jsonl(&sample_recording());
        assert!(!doc.contains("\"type\":\"event\""));
    }

    #[test]
    fn jsonl_rejects_garbage_and_wrong_schema() {
        assert!(parse_jsonl("not json at all").is_err());
        assert!(parse_jsonl("{\"type\":\"schema\",\"schema\":\"other-v9\"}").is_err());
        assert!(parse_jsonl("").is_err());
    }

    #[test]
    fn jsonl_escapes_meta_values() {
        let mut rec = ObsRecorder::new();
        rec.meta("note", "a \"quoted\"\nline\\path".to_string());
        let r = rec.into_recording();
        let parsed = parse_jsonl(&to_jsonl(&r)).unwrap();
        assert_eq!(parsed.meta, r.meta);
    }

    #[test]
    fn chrome_trace_contains_all_spans_and_counters() {
        let rec = sample_recording();
        let doc = to_chrome_trace(&rec);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.trim_end().ends_with('}'));
        for name in ["csssp", "hk_2h", "combine"] {
            assert!(doc.contains(&format!("\"name\":\"{name}\"")), "{name}");
        }
        assert!(doc.contains("\"ph\":\"C\""), "round samples as counters");
        assert!(doc.contains("\"zero_rounds\":true"), "combine is local");
        // crude but effective structural check: braces balance
        let open = doc.matches('{').count();
        let close = doc.matches('}').count();
        assert_eq!(open, close);
    }
}
