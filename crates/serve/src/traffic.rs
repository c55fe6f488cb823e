//! Deterministic open-loop traffic generation.
//!
//! Arrivals are **counter-addressed**, the same discipline as every
//! device-noise draw (`trident_streams::seeded_gaussian`): the n-th draw
//! of a stream is a pure function of `(seed, stream, n)` through a
//! stateless bit mixer,
//! so the full arrival schedule is reproducible bit-for-bit from the
//! config alone — no RNG state threads through the simulation, no wall
//! clock, no dependence on thread schedule. Times are `u64` virtual
//! nanoseconds and strictly monotone (every interarrival is ≥ 1 ns).

// This module's stream ids live in the workspace stream registry
// (`trident-streams`, domain `serve.traffic`), alongside the shared
// mixer, splitmix finalizer and unit-interval map.
use trident_streams::{seeded_u64, unit_open, STREAM_TRAFFIC_ARRIVAL, STREAM_TRAFFIC_ONOFF};

/// The open-loop arrival process driving the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential interarrivals with the given
    /// mean — the classic open-loop load model.
    Poisson {
        /// Mean interarrival gap, nanoseconds.
        mean_interarrival_ns: u64,
    },
    /// Bursty ON-OFF (interrupted Poisson) arrivals: exponential ON
    /// windows of dense Poisson traffic separated by exponential OFF
    /// gaps with no arrivals — the tail-latency stress case.
    Bursty {
        /// Mean ON-window length, nanoseconds.
        on_mean_ns: u64,
        /// Mean OFF-gap length, nanoseconds.
        off_mean_ns: u64,
        /// Mean interarrival gap *within* an ON window, nanoseconds.
        on_interarrival_ns: u64,
    },
}

/// Exponential variate with the given mean, floored at 1 ns so virtual
/// time is strictly monotone.
fn exp_ns(mean_ns: u64, raw: u64) -> u64 {
    let gap = -(unit_open(raw).ln()) * (mean_ns as f64);
    let rounded = if gap.is_finite() && gap > 0.0 { gap.round() } else { 0.0 };
    if rounded >= 1.8446744073709552e19 {
        u64::MAX
    } else {
        (rounded as u64).max(1)
    }
}

/// Generate `count` strictly-monotone arrival times on the virtual
/// clock. Pure function of `(process, seed, count)`.
pub fn generate_arrivals(process: ArrivalProcess, seed: u64, count: usize) -> Vec<u64> {
    let mut times = Vec::with_capacity(count);
    match process {
        ArrivalProcess::Poisson { mean_interarrival_ns } => {
            let mut t = 0u64;
            for i in 0..count {
                t = t.saturating_add(exp_ns(
                    mean_interarrival_ns,
                    seeded_u64(seed, STREAM_TRAFFIC_ARRIVAL, i as u64),
                ));
                times.push(t);
            }
        }
        ArrivalProcess::Bursty { on_mean_ns, off_mean_ns, on_interarrival_ns } => {
            let mut t = 0u64;
            let mut onoff_draw = 0u64;
            let mut window_end =
                exp_ns(on_mean_ns, seeded_u64(seed, STREAM_TRAFFIC_ONOFF, onoff_draw));
            onoff_draw += 1;
            for i in 0..count {
                t = t.saturating_add(exp_ns(
                    on_interarrival_ns,
                    seeded_u64(seed, STREAM_TRAFFIC_ARRIVAL, i as u64),
                ));
                // Crossed out of the ON window: insert an OFF gap, then
                // open the next ON window at the shifted time.
                while t >= window_end {
                    let off = exp_ns(off_mean_ns, seeded_u64(seed, STREAM_TRAFFIC_ONOFF, onoff_draw));
                    onoff_draw += 1;
                    let on = exp_ns(on_mean_ns, seeded_u64(seed, STREAM_TRAFFIC_ONOFF, onoff_draw));
                    onoff_draw += 1;
                    t = t.saturating_add(off);
                    window_end = t.saturating_add(on);
                }
                times.push(t);
            }
        }
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_are_monotone_and_reproducible() {
        let p = ArrivalProcess::Poisson { mean_interarrival_ns: 10_000 };
        let a = generate_arrivals(p, 42, 500);
        let b = generate_arrivals(p, 42, 500);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals must be strictly monotone");
        // Mean interarrival within 3x of nominal (loose sanity bound).
        let span = a[a.len() - 1] - a[0];
        let mean = span / (a.len() as u64 - 1);
        assert!((3_000..=30_000).contains(&mean), "poisson mean gap {mean}");
    }

    #[test]
    fn different_seeds_differ() {
        let p = ArrivalProcess::Poisson { mean_interarrival_ns: 10_000 };
        assert_ne!(generate_arrivals(p, 1, 100), generate_arrivals(p, 2, 100));
    }

    #[test]
    fn bursty_arrivals_have_heavier_gap_tail_than_poisson() {
        let bursty = ArrivalProcess::Bursty {
            on_mean_ns: 50_000,
            off_mean_ns: 200_000,
            on_interarrival_ns: 2_000,
        };
        let a = generate_arrivals(bursty, 7, 1000);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // The ON-OFF process must actually produce OFF gaps: some
        // interarrival far above the within-burst mean.
        let max_gap = a.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!(max_gap > 20_000, "no OFF gap observed (max gap {max_gap})");
    }

    #[test]
    fn seeded_u64_is_a_pure_function_of_the_address() {
        assert_eq!(seeded_u64(9, 1, 5), seeded_u64(9, 1, 5));
        assert_ne!(seeded_u64(9, 1, 5), seeded_u64(9, 1, 6));
        assert_ne!(seeded_u64(9, 1, 5), seeded_u64(9, 2, 5));
    }
}
