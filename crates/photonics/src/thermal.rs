//! Thermal tuner array with inter-heater coupling.
//!
//! §II-B's claim that thermally tuned banks are crosstalk-limited has two
//! components: the *optical* leakage of detuned rings (handled in
//! [`crate::crosstalk`]) and the *thermal* coupling between neighbouring
//! heaters — heat from ring `i`'s heater leaks into ring `i±1` and shifts
//! its resonance too. This module models a 1-D heater array with
//! exponentially decaying thermal coupling and derives the effective
//! weight error a bank suffers, which is where the
//! `BankOperatingPoint::thermal().tuner_crosstalk` figure comes from.

use crate::units::count;

/// A row of thermal tuners with nearest-region coupling.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalTunerArray {
    /// Number of heaters (one per ring).
    pub count: usize,
    /// Resonance shift at full drive, nm (±0.2 nm per the paper).
    pub full_scale_shift_nm: f64,
    /// Fraction of a heater's shift induced on its immediate neighbour.
    pub neighbour_coupling: f64,
    /// Coupling decay per additional ring of distance.
    pub decay_per_ring: f64,
}

impl Default for ThermalTunerArray {
    fn default() -> Self {
        Self {
            count: 16,
            full_scale_shift_nm: 0.2,
            // ~1.5 % nearest-neighbour thermal coupling at a 20 µm pitch,
            // decaying ~4× per ring — silicon's thermal conductance makes
            // full isolation impractical without trenches.
            neighbour_coupling: 0.015,
            decay_per_ring: 0.25,
        }
    }
}

impl ThermalTunerArray {
    /// Resonance shifts (nm) of every ring when heaters are driven to the
    /// given levels (`drive[i] ∈ [0, 1]` of full scale).
    pub fn shifts(&self, drive: &[f64]) -> Vec<f64> {
        assert_eq!(drive.len(), self.count, "drive vector length mismatch");
        (0..self.count)
            .map(|i| {
                let mut shift = 0.0;
                for (j, &d) in drive.iter().enumerate() {
                    assert!((0.0..=1.0).contains(&d), "drive {d} outside [0, 1]");
                    let distance = i.abs_diff(j);
                    let coupling = if distance == 0 {
                        1.0
                    } else {
                        self.neighbour_coupling
                            * self.decay_per_ring.powf(count(distance) - 1.0)
                    };
                    shift += d * self.full_scale_shift_nm * coupling;
                }
                shift
            })
            .collect()
    }

    /// Worst-case *unintended* shift on any ring with its own heater off
    /// and every other heater at full drive.
    pub fn worst_case_disturbance_nm(&self) -> f64 {
        (0..self.count)
            .map(|victim| {
                let drive: Vec<f64> =
                    (0..self.count).map(|j| if j == victim { 0.0 } else { 1.0 }).collect();
                self.shifts(&drive)[victim]
            })
            .fold(0.0, f64::max)
    }

    /// The disturbance expressed as a fraction of the full-scale weight
    /// encoding — the `tuner_crosstalk` input to
    /// [`crate::crosstalk::BankOperatingPoint`].
    pub fn weight_error_fraction(&self) -> f64 {
        self.worst_case_disturbance_nm() / self.full_scale_shift_nm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crosstalk::BankOperatingPoint;

    #[test]
    fn own_heater_dominates() {
        let arr = ThermalTunerArray::default();
        let mut drive = vec![0.0; 16];
        drive[7] = 1.0;
        let shifts = arr.shifts(&drive);
        assert!((shifts[7] - 0.2).abs() < 1e-12, "own shift is full scale");
        assert!(shifts[6] < 0.01 && shifts[8] < 0.01, "neighbours see ~1.5%");
        assert!(shifts[0] < shifts[6], "coupling decays with distance");
    }

    #[test]
    fn coupling_is_symmetric() {
        let arr = ThermalTunerArray::default();
        let mut d1 = vec![0.0; 16];
        d1[3] = 1.0;
        let mut d2 = vec![0.0; 16];
        d2[9] = 1.0;
        assert!((arr.shifts(&d1)[5] - arr.shifts(&d2)[7]).abs() < 1e-12);
    }

    #[test]
    fn superposition_holds() {
        let arr = ThermalTunerArray::default();
        let mut a = vec![0.0; 16];
        a[2] = 0.5;
        let mut b = vec![0.0; 16];
        b[10] = 0.7;
        let mut both = vec![0.0; 16];
        both[2] = 0.5;
        both[10] = 0.7;
        let sa = arr.shifts(&a);
        let sb = arr.shifts(&b);
        let sboth = arr.shifts(&both);
        for i in 0..16 {
            assert!((sboth[i] - (sa[i] + sb[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn derived_crosstalk_matches_operating_point() {
        // The BankOperatingPoint::thermal() constant (0.002) should be
        // attainable by a physical heater array in this coupling range.
        let arr = ThermalTunerArray::default();
        let derived = arr.weight_error_fraction();
        let assumed = BankOperatingPoint::thermal().tuner_crosstalk;
        assert!(
            derived > assumed * 0.1 && derived < assumed * 50.0,
            "derived {derived} should bracket the assumed {assumed}"
        );
    }

    #[test]
    fn trenched_array_would_be_cleaner() {
        let isolated = ThermalTunerArray {
            neighbour_coupling: 0.002,
            ..ThermalTunerArray::default()
        };
        assert!(
            isolated.weight_error_fraction()
                < ThermalTunerArray::default().weight_error_fraction()
        );
    }

    #[test]
    #[should_panic]
    fn overdrive_rejected() {
        let arr = ThermalTunerArray::default();
        let mut d = vec![0.0; 16];
        d[0] = 1.5;
        let _ = arr.shifts(&d);
    }
}
