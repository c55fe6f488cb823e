//! # trident-obs
//!
//! Dependency-free observability for the Trident reproduction:
//! hierarchical [`span::SpanGuard`] spans with an injected [`clock::Clock`]
//! (deterministic in tests), typed [`counter::Counter`] tallies for the
//! quantities the model already tracks (MAC ops, PCM write/read energy,
//! ring tuning, fault masking, executor statistics), a bounded
//! [`ring::EventRing`] with overflow accounting, and three exporters
//! (human summary, stable JSON, chrome-trace for Perfetto).
//!
//! ## The off switch is the contract
//!
//! Instrumentation call sites throughout the workspace go through the
//! free functions here ([`span()`], [`add`], [`add_pj`], …), which check
//! [`enabled`] first — one relaxed atomic load — and do nothing when
//! tracing is off. Tracing is **off by default** and enabled by setting
//! `TRIDENT_TRACE=1` (or programmatically via [`set_enabled_override`],
//! which tests use because the env var is read once per process).
//! Observation never feeds back into model arithmetic, so table and
//! figure outputs are byte-identical with tracing on or off — a property
//! `tests/determinism_trace.rs` pins.
//!
//! ## Quick use
//!
//! ```
//! use trident_obs as obs;
//!
//! obs::set_enabled_override(Some(true));
//! {
//!     let _span = obs::span("demo.work");
//!     obs::add(obs::Counter::MacOps, 256);
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counters.get(obs::Counter::MacOps), 256);
//! println!("{}", obs::export::human_summary(&snap));
//! obs::reset();
//! obs::set_enabled_override(None);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless))]

pub mod clock;
pub mod counter;
pub mod export;
pub mod hist;
pub mod ring;
pub mod span;

pub use counter::{Counter, CounterSet, CounterSnapshot};
pub use hist::{HistSnapshot, LatencyHistogram};
pub use span::{current_depth, Event, SpanGuard};

use clock::{Clock, MonotonicClock};
use ring::EventRing;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// A self-contained recorder: counters + event ring + clock. The process
/// global returned by [`global`] is one of these; tests build their own
/// (with a [`clock::ManualClock`]) for deterministic timestamps.
pub struct Recorder {
    counters: CounterSet,
    ring: EventRing,
    clock: Arc<dyn Clock>,
}

impl Recorder {
    /// A recorder holding at most `capacity` events, timed by `clock`.
    pub fn new(capacity: usize, clock: Arc<dyn Clock>) -> Self {
        Self { counters: CounterSet::new(), ring: EventRing::new(capacity), clock }
    }

    /// A recorder on the wall clock.
    pub fn monotonic(capacity: usize) -> Self {
        Self::new(capacity, Arc::new(MonotonicClock::new()))
    }

    /// Begin a span with a static label.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard::begin(self, Cow::Borrowed(name))
    }

    /// Begin a span with an owned label (per-layer names etc.). Callers
    /// on hot paths should only format the label when tracing is on.
    pub fn span_owned(&self, name: String) -> SpanGuard<'_> {
        SpanGuard::begin(self, Cow::Owned(name))
    }

    /// The live counters.
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// The event ring.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// Current clock reading, nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// A point-in-time copy of counters, events, and overflow tally.
    pub fn snapshot(&self) -> ObsSnapshot {
        let (events, dropped_events) = self.ring.snapshot();
        ObsSnapshot { counters: self.counters.snapshot(), events, dropped_events }
    }

    /// Clear counters, events, and the overflow tally.
    pub fn reset(&self) {
        self.counters.reset();
        self.ring.reset();
    }
}

/// An immutable copy of everything a recorder observed.
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// Counter values at snapshot time.
    pub counters: CounterSnapshot,
    /// Completed spans, in completion order.
    pub events: Vec<Event>,
    /// Events that arrived after the ring filled (never silently lost).
    pub dropped_events: u64,
}

/// `TRIDENT_TRACE` truthiness, read once per process.
fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("TRIDENT_TRACE")
            .map(|v| {
                let v = v.trim();
                !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false"))
            })
            .unwrap_or(false)
    })
}

/// Event capacity for the global recorder (`TRIDENT_TRACE_CAP`, default
/// [`ring::DEFAULT_CAPACITY`]).
fn env_capacity() -> usize {
    std::env::var("TRIDENT_TRACE_CAP")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(ring::DEFAULT_CAPACITY)
}

/// Programmatic override of the `TRIDENT_TRACE` switch:
/// 0 = defer to env, 1 = forced off, 2 = forced on.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Whether instrumentation is live. The off path is one relaxed atomic
/// load (plus a lazily-initialized env read the first time).
pub fn enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => env_enabled(),
    }
}

/// Force tracing on or off regardless of `TRIDENT_TRACE` (`None` defers
/// back to the environment). Process-global — tests that flip it should
/// run in one `#[test]` or serialize themselves, like the executor's
/// thread override.
pub fn set_enabled_override(forced: Option<bool>) {
    OVERRIDE.store(forced.map_or(0, |on| if on { 2 } else { 1 }), Ordering::Relaxed);
}

/// The process-global recorder (wall clock, env-sized ring).
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(|| Recorder::monotonic(env_capacity()))
}

/// Begin a global span with a static label (inert when tracing is off).
pub fn span(name: &'static str) -> SpanGuard<'static> {
    if enabled() {
        global().span(name)
    } else {
        SpanGuard::disabled()
    }
}

/// Begin a global span with an owned label (inert when tracing is off).
/// Prefer `if obs::enabled() { … }` around the `format!` at call sites so
/// the off path allocates nothing.
pub fn span_owned(name: String) -> SpanGuard<'static> {
    if enabled() {
        global().span_owned(name)
    } else {
        SpanGuard::disabled()
    }
}

/// Accumulate `n` into a global sum counter (no-op when tracing is off).
pub fn add(counter: Counter, n: u64) {
    if enabled() {
        global().counters().add(counter, n);
    }
}

/// Accumulate a picojoule energy into a femtojoule counter (no-op when
/// tracing is off; negative/non-finite inputs tally zero).
pub fn add_pj(counter: Counter, pj: f64) {
    if enabled() {
        global().counters().add(counter, counter::fj_from_pj(pj));
    }
}

/// Accumulate a (simulated) nanosecond latency into a counter (no-op
/// when tracing is off).
pub fn add_sim_ns(counter: Counter, ns: f64) {
    if enabled() {
        global().counters().add(counter, counter::ns_from_ns_f64(ns));
    }
}

/// Store an absolute gauge value (no-op when tracing is off).
pub fn store(counter: Counter, value: u64) {
    if enabled() {
        global().counters().store(counter, value);
    }
}

/// Snapshot the global recorder.
pub fn snapshot() -> ObsSnapshot {
    global().snapshot()
}

/// Reset the global recorder (tests and long-lived servers).
pub fn reset() {
    global().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enabled override and the global recorder are process-global, so
    // everything lives in one #[test] — the determinism-test pattern.
    #[test]
    fn global_gate_and_recorder_round_trip() {
        // Default (no env in the test runner): disabled, and every entry
        // point is a no-op.
        set_enabled_override(None);
        if !enabled() {
            add(Counter::MacOps, 5);
            let g = span("ignored");
            assert!(!g.is_active());
            drop(g);
            assert!(snapshot().counters.is_zero());
            assert!(snapshot().events.is_empty());
        }

        // Forced on: spans and counters land in the global recorder.
        set_enabled_override(Some(true));
        assert!(enabled());
        {
            let _g = span("covered");
            add(Counter::MacOps, 7);
            add_pj(Counter::PcmWriteFj, 660.0);
            add_sim_ns(Counter::ForwardLayerSimNs, 300.0);
            store(Counter::ExecutorChunksClaimed, 4);
        }
        let snap = snapshot();
        assert_eq!(snap.counters.get(Counter::MacOps), 7);
        assert_eq!(snap.counters.get(Counter::PcmWriteFj), 660_000);
        assert_eq!(snap.counters.get(Counter::ForwardLayerSimNs), 300);
        assert_eq!(snap.counters.get(Counter::ExecutorChunksClaimed), 4);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].name, "covered");

        // Forced off again: nothing further accumulates.
        set_enabled_override(Some(false));
        add(Counter::MacOps, 100);
        assert_eq!(snapshot().counters.get(Counter::MacOps), 7);

        reset();
        assert!(snapshot().counters.is_zero());
        set_enabled_override(None);
    }
}
