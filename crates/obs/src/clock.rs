//! Time sources for span timestamps.
//!
//! The recorder never calls `Instant::now` directly: it reads whatever
//! [`Clock`] it was constructed with, so tests can install a
//! [`ManualClock`] and get fully deterministic event timestamps while
//! production uses a [`MonotonicClock`] anchored at recorder creation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source.
pub trait Clock: Send + Sync {
    /// Nanoseconds since this clock's origin. Must never decrease.
    fn now_ns(&self) -> u64;
}

/// Wall-clock time since construction (`std::time::Instant`).
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        Self { origin: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // Saturate rather than wrap: a process does not live 584 years.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-cranked clock for deterministic tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    now_ns: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `delta_ns` nanoseconds.
    pub fn advance_ns(&self, delta_ns: u64) {
        self.now_ns.fetch_add(delta_ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_is_scriptable() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance_ns(250);
        assert_eq!(c.now_ns(), 250);
    }
}
