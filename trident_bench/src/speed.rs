//! Host speed reference. On a shared machine the same work takes up to
//! 1.7 times as long while neighbours contend for the core and its
//! caches, in spells that last from milliseconds to minutes (on a 2-core
//! VM, 100 classify rounds took 27 ms in quiet spells and 45 ms in busy
//! ones). The benchmark therefore reports host times at a fixed
//! reference speed: between steps it times a probe, and scales each time
//! it measured by `REFERENCE_PROBE_US / probe µs` around it.
//!
//! The probe is arithmetic of the simulator's kind (matrix-vector
//! products, `tanh`, a Gaussian-style draw) on an 8 KiB matrix. It uses
//! no code of the simulator, so a change to the simulator moves the
//! scaled times exactly as it moves the raw ones, and it fits in L1, so
//! what the simulator leaves in the caches barely changes its time. Over
//! seven 30-40 s runs of `classify`, `decode` and `train`, it cut the
//! range of 8 consecutive segment medians from 18-45 % raw to 2-16 %
//! scaled. Probes of other kinds (random loads from tables past L1, L2
//! or L3, pointer chasing, unpredictable branches, allocation, a large
//! code footprint, either half of this one alone) followed the drift
//! less well, and those loading past L1 also ran up to twice as fast
//! back to back as between simulator steps: they measured the
//! simulator's own cache footprint too.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe's time on a quiet host (2-core Intel Xeon VM); scaled times
/// are what that host would measure.
pub const REFERENCE_PROBE_US: f64 = 100.0;
/// Matrix side and matrix-vector products per probe.
const SIDE: usize = 32;
const PRODUCTS: usize = 80;
/// Least step time between two probes: the probe costs about 1 % of a run.
const INTERVAL: Duration = Duration::from_millis(10);

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Uniform in (0, 1].
fn unit(state: &mut u64) -> f64 {
    ((xorshift(state) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

pub struct Probe {
    matrix: Vec<f64>,
    last: Instant,
    /// µs of every probe since the last [`Probe::take`], and the one
    /// before them.
    recent: Vec<f64>,
    /// µs of every probe of the run.
    all: Vec<f64>,
}

impl Probe {
    /// Build the matrix and take a first probe.
    pub fn new() -> Self {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut probe = Probe {
            matrix: (0..SIDE * SIDE).map(|_| unit(&mut state) - 0.5).collect(),
            last: Instant::now(),
            recent: Vec::new(),
            all: Vec::new(),
        };
        probe.measure();
        probe
    }

    /// Time one probe now; returns µs.
    pub fn measure(&mut self) -> f64 {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let start = Instant::now();
        let mut x = [0.1f64; SIDE];
        for _ in 0..PRODUCTS {
            let mut y = [0.0f64; SIDE];
            for (row, yi) in self.matrix.chunks_exact(SIDE).zip(&mut y) {
                *yi = row.iter().zip(&x).map(|(a, b)| a * b).sum();
            }
            for (xi, yi) in x.iter_mut().zip(&y) {
                *xi = yi.tanh() + 0.01 * (-2.0 * unit(&mut state).ln()).sqrt();
            }
        }
        black_box(x);
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.last = Instant::now();
        self.recent.push(us);
        self.all.push(us);
        us
    }

    /// Probe if enough time has passed since the last probe.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.measure();
        }
    }

    /// The factor that scales a time measured since the last `take` to
    /// the reference speed: from the median of the probes taken meanwhile
    /// and the one just before.
    pub fn take(&mut self) -> f64 {
        let factor = REFERENCE_PROBE_US / median(&self.recent);
        let last = self.recent.last().copied();
        self.recent.clear();
        self.recent.extend(last);
        factor
    }

    /// Median probe time of the run so far, µs.
    pub fn median_us(&self) -> f64 {
        median(&self.all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_scales_by_the_median_probe_and_keeps_the_last() {
        let mut probe = Probe::new();
        assert!(probe.all[0].is_finite() && probe.all[0] > 0.0);
        probe.recent = vec![50.0, 200.0, 100.0];
        assert_eq!(probe.take(), REFERENCE_PROBE_US / 100.0);
        assert_eq!(probe.recent, [100.0]);
        probe.recent.push(400.0);
        assert_eq!(probe.take(), REFERENCE_PROBE_US / 250.0);
    }
}
