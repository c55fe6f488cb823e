//! Analog fidelity measurement: how many bits does the *whole* MVM path
//! actually deliver?
//!
//! The link-budget module predicts an ENOB from first principles; this
//! module *measures* it on the functional simulator by Monte-Carlo: random
//! weight matrices and inputs stream through a noisy bank, and the error
//! distribution against exact math is reduced to an effective number of
//! bits. The two views should agree that 8-bit operation is attainable —
//! and the measurement exposes what the budget can't: quantization and
//! crosstalk, not just receiver noise.
//!
//! Trials fan out on the executor (each seeds its own RNG and bank from
//! the trial index) and their error vectors concatenate in trial order,
//! so a report is bitwise identical at any thread count.

use crate::pe::ProcessingElement;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Monte-Carlo fidelity measurement result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityReport {
    /// Trials run.
    pub trials: usize,
    /// RMS error of the normalized dot product.
    pub rms_error: f64,
    /// Worst absolute error observed.
    pub max_error: f64,
    /// Effective bits: `log2(full_scale / rms_error)` with full scale
    /// equal to the dot product's dynamic range.
    pub effective_bits: f64,
}

/// Measure a `rows × cols` bank over `trials` random (weights, input)
/// pairs. `noise` enables receiver noise; weights/inputs are seeded.
pub fn measure(
    rows: usize,
    cols: usize,
    trials: usize,
    noise: bool,
    seed: u64,
) -> FidelityReport {
    assert!(trials >= 1);
    let errors: Vec<f64> = (0..trials)
        .into_par_iter()
        .flat_map_iter(|t| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64));
            let noise_seed = noise.then(|| seed.wrapping_add(10_000 + t as u64));
            let mut pe = ProcessingElement::new(rows, cols, noise_seed);
            let w: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let x: Vec<f64> = (0..cols).map(|_| rng.gen_range(0.0..1.0)).collect();
            pe.program(&w);
            let mut y = vec![0.0; rows];
            pe.mvm_unsigned_into(&x, &mut y);
            (0..rows)
                .map(|r| {
                    let exact: f64 = (0..cols).map(|c| w[r * cols + c] * x[c]).sum();
                    y[r] - exact
                })
                .collect::<Vec<f64>>()
        })
        .collect();
    let n = errors.len() as f64;
    let rms_error = (errors.iter().map(|e| e * e).sum::<f64>() / n).sqrt();
    let max_error = errors.iter().fold(0.0f64, |m, e| m.max(e.abs()));
    // Dot-product full scale: |w|≤1, x∈[0,1] → range spans ±cols → 2·cols.
    let full_scale = 2.0 * cols as f64;
    FidelityReport {
        trials,
        rms_error,
        max_error,
        effective_bits: (full_scale / rms_error.max(1e-15)).log2(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_bank_delivers_close_to_8_bits() {
        // The *weight* resolution is exactly 8 bits (pinned in
        // trident-pcm); the end-to-end dot product additionally pays
        // crosstalk accumulated over 16 channels, which in our physics
        // costs about half a bit — a measured nuance the paper's
        // per-device accounting does not surface.
        let report = measure(16, 16, 24, false, 7);
        assert!(
            report.effective_bits >= 7.0,
            "ideal 16×16 bank ENOB {:.2} (rms {:.4})",
            report.effective_bits,
            report.rms_error
        );
        assert!(report.max_error < 0.8, "max error {}", report.max_error);
    }

    #[test]
    fn receiver_noise_costs_little_at_mw_powers() {
        let ideal = measure(16, 16, 16, false, 3);
        let noisy = measure(16, 16, 16, true, 3);
        assert!(
            noisy.effective_bits > ideal.effective_bits - 1.0,
            "noise should cost well under a bit: {} vs {}",
            noisy.effective_bits,
            ideal.effective_bits
        );
    }

    #[test]
    fn narrower_banks_are_cleaner() {
        // Fewer channels → less crosstalk accumulation per dot product
        // relative to the (smaller) full scale... but full scale shrinks
        // with cols too, so compare rms error directly.
        let narrow = measure(16, 4, 16, false, 5);
        let wide = measure(16, 16, 16, false, 5);
        assert!(
            narrow.rms_error <= wide.rms_error * 1.2,
            "narrow {} vs wide {}",
            narrow.rms_error,
            wide.rms_error
        );
    }

    #[test]
    fn measurement_is_deterministic_for_a_seed() {
        let a = measure(8, 8, 8, true, 42);
        let b = measure(8, 8, 8, true, 42);
        assert_eq!(a, b);
    }
}
