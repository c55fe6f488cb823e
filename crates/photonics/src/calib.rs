//! Reference-column drift characterization and calibration readout.
//!
//! PCM conductance decays as a power law after programming,
//! `G(t) = G(t₀) · (t/t₀)^(−ν)` — structural relaxation of the amorphous
//! phase. A weight bank cannot observe ν cell-by-cell at inference time,
//! but it *can* carry one extra column of reference cells that is
//! rewritten alongside every weight update and whose drift exponent was
//! characterized at the fleet floor ν̄ during test. Reading that column
//! back tells the controller how much the youngest programming cohort has
//! decayed, and the reciprocal becomes a global scale-calibration gain
//! applied at the detector output.
//!
//! This module owns the physical law and the readout energy accounting;
//! the per-cell *statistics* (exponent spread, programming/read noise)
//! layer on top in `trident-pcm`'s `stat` module.

use crate::units::{EnergyPj, Hours};

/// Power-law conductance decay factor `((age + t₀)/t₀)^(−ν)`.
///
/// The `+ t₀` regularization pins the factor to exactly `1.0` at zero age
/// (a freshly programmed cell has not drifted) and recovers the textbook
/// `(t/t₀)^(−ν)` for ages ≫ t₀. `nu_slope` is the magnitude of the
/// log–log slope of the decay — the literature's drift exponent ν,
/// dimensionless and non-negative.
pub fn drift_decay_factor(age: Hours, t0: Hours, nu_slope: f64) -> f64 {
    assert!(t0.value() > 0.0 && t0.is_finite(), "t₀ must be positive and finite, got {t0}");
    assert!(age.value() >= 0.0 && age.is_finite(), "age must be non-negative, got {age}");
    assert!((0.0..1.0).contains(&nu_slope), "drift exponent ν must sit in [0, 1), got {nu_slope}");
    ((age + t0) / t0).powf(-nu_slope)
}

/// One column of reference PCM cells carried by a weight bank for drift
/// compensation.
///
/// The column is rewritten whenever the bank is programmed, so its age is
/// always the *youngest* programming age in the bank; with a fleet-floor
/// exponent ν̄ ≤ ν_cell this makes its decay factor an upper bound on
/// every live cell's factor, which is what makes the global gain safe
/// (compensating by the bound can only shrink per-cell weight error).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceColumn {
    /// Characterized drift exponent ν̄ (dimensionless log–log slope
    /// magnitude) — the floor of the per-cell exponent distribution.
    pub nu_slope: f64,
    /// Reference time t₀ of the power law.
    pub t0: Hours,
    /// Optical probe energy per reference-cell read.
    pub read_energy: EnergyPj,
}

impl ReferenceColumn {
    /// Expected decay factor of the column at `age` since its last write.
    pub fn decay_factor_at(&self, age: Hours) -> f64 {
        drift_decay_factor(age, self.t0, self.nu_slope)
    }

    /// Global scale-calibration gain restoring the column to its
    /// programmed readout: the reciprocal of [`Self::decay_factor_at`],
    /// always ≥ 1.
    pub fn compensation_gain_at(&self, age: Hours) -> f64 {
        1.0 / self.decay_factor_at(age)
    }

    /// Optical energy of one calibration pass probing `cells` reference
    /// cells (one per bank row).
    pub fn readout_energy(&self, cells: usize) -> EnergyPj {
        self.read_energy * cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cells_have_unit_factor() {
        let f = drift_decay_factor(Hours::ZERO, Hours(1.0), 0.05);
        assert_eq!(f.to_bits(), 1.0f64.to_bits(), "zero age must be exactly 1.0");
    }

    #[test]
    fn factor_decays_monotonically() {
        let t0 = Hours(1.0);
        let mut last = 1.0;
        for age in [1.0, 10.0, 100.0, 720.0, 8766.0] {
            let f = drift_decay_factor(Hours(age), t0, 0.05);
            assert!(f < last, "factor must strictly decrease, got {f} after {last}");
            assert!(f > 0.0);
            last = f;
        }
    }

    #[test]
    fn one_month_at_nu_005_loses_about_28_percent() {
        // 721^-0.05 ≈ 0.72 — the measurable degradation the drift
        // ablation leans on.
        let f = drift_decay_factor(Hours(720.0), Hours(1.0), 0.05);
        assert!((f - 0.72).abs() < 0.01, "got {f}");
    }

    #[test]
    fn gain_inverts_the_decay() {
        let col = ReferenceColumn { nu_slope: 0.05, t0: Hours(1.0), read_energy: EnergyPj(20.0) };
        let age = Hours(720.0);
        let restored = col.decay_factor_at(age) * col.compensation_gain_at(age);
        assert!((restored - 1.0).abs() < 1e-12);
        assert!(col.compensation_gain_at(age) >= 1.0);
    }

    #[test]
    fn readout_energy_scales_with_rows() {
        let col = ReferenceColumn { nu_slope: 0.05, t0: Hours(1.0), read_energy: EnergyPj(20.0) };
        assert_eq!(col.readout_energy(16), EnergyPj(320.0));
    }

    #[test]
    #[should_panic]
    fn negative_age_is_rejected() {
        let _ = drift_decay_factor(Hours(-1.0), Hours(1.0), 0.05);
    }

    #[test]
    #[should_panic]
    fn unphysical_exponent_is_rejected() {
        let _ = drift_decay_factor(Hours(1.0), Hours(1.0), 1.5);
    }
}
