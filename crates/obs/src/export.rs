//! Exporters: a human summary and `chrome://tracing` JSON, plus
//! [`json_string`], the one JSON string quoter every hand-written report
//! in the workspace goes through.
//!
//! Both exporters read an immutable [`ObsSnapshot`], so exporting never
//! races live instrumentation. Output is deterministic for a given
//! snapshot: counters print in declaration order and events in ring
//! order, with no timestamps or hostnames injected by the exporter itself.
//!
//! The chrome-trace format emits one complete (`"ph": "X"`) slice per
//! span — loadable directly in Perfetto (ui.perfetto.dev) or
//! `chrome://tracing` — plus one counter (`"ph": "C"`) sample per
//! non-zero counter so the PCM/photonics tallies chart alongside the
//! timeline. Timestamps are microseconds with nanosecond precision, per
//! the trace-event spec.

use crate::counter::lossy_f64;
use crate::ObsSnapshot;
use std::fmt::Write as _;

/// `s` as a quoted JSON string literal: `"`, `\`, newline, carriage
/// return and tab get their short escapes, every other character below
/// U+0020 a `\u00XX` escape, and everything else passes through
/// unchanged.
///
/// ```
/// use trident_obs::export::json_string;
///
/// assert_eq!(json_string("a\"b\tc"), r#""a\"b\tc""#);
/// ```
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Microseconds with nanosecond precision, as chrome-trace expects.
fn us(ns: u64) -> String {
    format!("{:.3}", lossy_f64(ns) / 1000.0)
}

/// A short human-readable roll-up: every non-zero counter plus the span
/// population and overflow accounting.
pub fn human_summary(snap: &ObsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("== obs summary ==\n");
    let mut any = false;
    for (key, value) in snap.counters.iter_nonzero() {
        any = true;
        let _ = writeln!(out, "  {key:<28} {value:>16}");
    }
    if !any {
        out.push_str("  (no counters recorded)\n");
    }
    let _ = writeln!(
        out,
        "  spans recorded {} / dropped {}",
        snap.events.len(),
        snap.dropped_events
    );
    out
}

/// Chrome trace-event JSON (the Perfetto import format).
pub fn to_chrome_trace(snap: &ObsSnapshot) -> String {
    let mut entries: Vec<String> = Vec::with_capacity(snap.events.len() + 8);
    entries.push(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \
         \"args\": {\"name\": \"trident\"}}"
            .to_string(),
    );
    for e in &snap.events {
        entries.push(format!(
            "{{\"name\": {}, \"cat\": \"trident\", \"ph\": \"X\", \"ts\": {}, \
             \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
            json_string(&e.name),
            us(e.start_ns),
            us(e.dur_ns),
            e.tid
        ));
    }
    // One counter sample per non-zero counter, stamped after the last
    // span so the track shows the final tally.
    let end_ns = snap
        .events
        .iter()
        .map(|e| e.start_ns.saturating_add(e.dur_ns))
        .max()
        .unwrap_or(0);
    for (key, value) in snap.counters.iter_nonzero() {
        entries.push(format!(
            "{{\"name\": {}, \"ph\": \"C\", \"ts\": {}, \"pid\": 1, \
             \"args\": {{\"value\": {value}}}}}",
            json_string(key),
            us(end_ns)
        ));
    }
    if snap.dropped_events > 0 {
        entries.push(format!(
            "{{\"name\": \"obs.dropped_events\", \"ph\": \"C\", \"ts\": {}, \"pid\": 1, \
             \"args\": {{\"value\": {}}}}}",
            us(end_ns),
            snap.dropped_events
        ));
    }
    format!(
        "{{\"traceEvents\": [\n{}\n], \"displayTimeUnit\": \"ns\"}}\n",
        entries.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{Counter, CounterSnapshot};
    use crate::span::Event;
    use std::borrow::Cow;

    fn sample() -> ObsSnapshot {
        let mut values = [0u64; Counter::COUNT];
        values[Counter::MacOps as usize] = 512;
        values[Counter::PcmWriteFj as usize] = 660_000;
        ObsSnapshot {
            counters: CounterSnapshot::from_values(values),
            events: vec![
                Event {
                    name: Cow::Borrowed("forward"),
                    start_ns: 1_000,
                    dur_ns: 2_500,
                    tid: 0,
                    depth: 0,
                },
                Event {
                    name: Cow::Owned("forward.layer0".to_string()),
                    start_ns: 1_100,
                    dur_ns: 900,
                    tid: 0,
                    depth: 1,
                },
            ],
            dropped_events: 3,
        }
    }

    #[test]
    fn summary_lists_nonzero_counters_and_overflow() {
        let s = human_summary(&sample());
        assert!(s.contains("mac_ops"));
        assert!(s.contains("512"));
        assert!(s.contains("dropped 3"));
        assert!(!s.contains("pcm_reads"), "zero counters stay out of the summary");
    }

    #[test]
    fn chrome_trace_has_complete_slices_and_counter_samples() {
        let t = to_chrome_trace(&sample());
        assert_eq!(t, to_chrome_trace(&sample()), "export must be deterministic");
        assert!(t.starts_with("{\"traceEvents\": ["));
        assert!(t.contains("\"ph\": \"X\""));
        assert!(t.contains("\"ts\": 1.000"), "ns → us conversion");
        assert!(t.contains("\"dur\": 2.500"));
        assert!(t.contains("\"ph\": \"C\""));
        assert!(t.contains("obs.dropped_events"));
        // Balanced braces/brackets — a cheap well-formedness check.
        let opens = t.matches('{').count();
        let closes = t.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(t.matches('[').count(), t.matches(']').count());
    }

    #[test]
    fn names_are_escaped() {
        let mut snap = sample();
        snap.events[0].name = Cow::Owned("weird\"name\\with\nstuff".to_string());
        let t = to_chrome_trace(&snap);
        assert!(t.contains("{\"name\": \"weird\\\"name\\\\with\\nstuff\", "));
    }

    #[test]
    fn json_string_escapes_every_special_character() {
        assert_eq!(json_string(""), "\"\"");
        assert_eq!(json_string("a\"b"), r#""a\"b""#);
        assert_eq!(json_string("a\\b"), r#""a\\b""#);
        assert_eq!(json_string("a\nb\rc\td"), r#""a\nb\rc\td""#);
        assert_eq!(json_string("a\u{1}b"), r#""a\u0001b""#);
        assert_eq!(json_string("λ = 1550 nm µW"), "\"λ = 1550 nm µW\"");
    }
}
