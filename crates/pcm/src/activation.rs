//! The GST activation cell (Fig. 2e / Fig. 3 of the paper).
//!
//! A 60 µm ring with a GST patch at the waveguide crossing. When the cell
//! is crystalline, incoming pulses couple into the ring and are absorbed —
//! no output. A weighted-sum pulse whose energy exceeds the GST switching
//! threshold (~430 pJ) amorphizes the patch, detunes the ring, and the
//! remainder of the pulse transmits: the cell fires. The measured transfer
//! at 1553.4 nm is a shifted ReLU with slope 0.34 above threshold, which is
//! exactly the two-valued derivative the LDSU stores.
//!
//! Every firing must be followed by a recrystallization (reset) pulse;
//! the reset energy is what Table III's "GST Activation Function Reset"
//! line accounts for.
//!
//! A firing and its reset happen within one pulse window, so the cell
//! keeps no state between pulses and is modelled as a stateless action:
//! the transfer [`ActivationCellParams::relu`] applied to the pulse
//! energy, plus one [`ActivationCellParams::reset_energy`] per firing.

use crate::gst::{ENDURANCE_CYCLES, PULSE_WINDOW};
use trident_photonics::units::{EnergyPj, Nanoseconds, Wavelength};

/// The idealized activation function realised by the cell: the form used
/// by the training math (Eq. 3's `f'(h_k)`).
///
/// ```text
/// f(h)  = 0.34 · (h − θ)   for h ≥ θ,   0 otherwise
/// f'(h) = 0.34             for h ≥ θ,   0 otherwise
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GstRelu {
    /// Firing threshold in the function's input units.
    pub threshold: f64,
    /// Transmission slope above threshold (0.34 at 1553.4 nm per Fig. 3).
    pub slope: f64,
}

impl GstRelu {
    /// Whether `h` reaches the threshold: the cell fires (and must then
    /// be reset), even exactly at threshold where its output is zero.
    #[inline]
    pub fn fires(&self, h: f64) -> bool {
        h >= self.threshold
    }

    /// Forward response.
    #[inline]
    pub fn forward(&self, h: f64) -> f64 {
        if self.fires(h) {
            self.slope * (h - self.threshold)
        } else {
            0.0
        }
    }

    /// Two-valued derivative (what the LDSU latches).
    #[inline]
    pub fn derivative(&self, h: f64) -> f64 {
        if self.fires(h) {
            self.slope
        } else {
            0.0
        }
    }
}

/// Physical constants of the activation cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivationCellParams {
    /// Pulse energy above which the GST patch amorphizes and the cell fires.
    pub threshold: EnergyPj,
    /// Transmission slope above threshold.
    pub slope: f64,
    /// Energy of the recrystallization pulse after each firing.
    pub reset_energy: EnergyPj,
    /// Duration of a reset pulse.
    pub reset_time: Nanoseconds,
    /// Wavelength the transfer curve (Fig. 3) is characterised at.
    pub probe_wavelength: Wavelength,
    /// Switching cycles before wear-out (same GST endurance story).
    pub endurance_cycles: u64,
}

impl ActivationCellParams {
    /// §III-C: "the activation threshold, 430.0 pJ".
    pub const THRESHOLD: EnergyPj = EnergyPj(430.0);
    /// Transmission slope above threshold at 1553.4 nm (Fig. 3).
    pub const SLOPE: f64 = 0.34;

    /// The cell's Fig. 3 transfer in pulse-energy units: output energy
    /// (pJ) for an input pulse of energy `h` (pJ).
    pub fn relu(&self) -> GstRelu {
        GstRelu { threshold: self.threshold.value(), slope: self.slope }
    }
}

impl Default for ActivationCellParams {
    fn default() -> Self {
        Self {
            threshold: Self::THRESHOLD,
            slope: Self::SLOPE,
            // 1 nJ recrystallization pulse over the 300 ns pulse window →
            // 3.33 mW per cell; 16 cells/PE → the 53.3 mW of Table III.
            reset_energy: EnergyPj(1000.0),
            reset_time: PULSE_WINDOW,
            probe_wavelength: Wavelength::from_nm(1553.4),
            endurance_cycles: ENDURANCE_CYCLES,
        }
    }
}

/// Sample the Fig. 3 transfer curve: output pulse energy vs input pulse
/// energy, over `[0, max_pj]` with `samples` points.
pub fn fig3_curve(params: &ActivationCellParams, max_pj: f64, samples: usize) -> Vec<(f64, f64)> {
    assert!(samples >= 2, "need at least two samples");
    let relu = params.relu();
    (0..samples)
        .map(|i| {
            let e = max_pj * i as f64 / (samples - 1) as f64;
            (e, relu.forward(e))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_and_derivative_are_consistent() {
        let relu = GstRelu { threshold: 430.0, slope: 0.34 };
        assert_eq!(relu.forward(0.0), 0.0);
        assert_eq!(relu.derivative(0.0), 0.0);
        assert!((relu.forward(1430.0) - 340.0).abs() < 1e-12);
        assert_eq!(relu.derivative(1430.0), 0.34);
        // Finite-difference check above threshold.
        let h = 900.0;
        let fd = (relu.forward(h + 1e-6) - relu.forward(h)) / 1e-6;
        assert!((fd - relu.derivative(h)).abs() < 1e-6);
    }

    #[test]
    fn fig3_curve_has_flat_then_linear_shape() {
        let params = ActivationCellParams::default();
        let curve = fig3_curve(&params, 1000.0, 101);
        assert_eq!(curve.len(), 101);
        // Flat at zero below threshold.
        for &(e, out) in curve.iter().filter(|&&(e, _)| e < 430.0) {
            assert_eq!(out, 0.0, "output at {e} pJ should be 0");
        }
        // Strictly increasing above threshold with slope 0.34.
        let above: Vec<_> = curve.iter().filter(|&&(e, _)| e > 430.0).collect();
        for pair in above.windows(2) {
            let (e0, o0) = *pair[0];
            let (e1, o1) = *pair[1];
            let slope = (o1 - o0) / (e1 - e0);
            assert!((slope - 0.34).abs() < 1e-9);
        }
    }
}
