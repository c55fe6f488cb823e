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
    /// Forward response.
    #[inline]
    pub fn forward(&self, h: f64) -> f64 {
        if h >= self.threshold {
            self.slope * (h - self.threshold)
        } else {
            0.0
        }
    }

    /// Two-valued derivative (what the LDSU latches).
    #[inline]
    pub fn derivative(&self, h: f64) -> f64 {
        if h >= self.threshold {
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

/// The stateful optical activation cell.
///
/// ```
/// use trident_pcm::activation::GstActivationCell;
/// use trident_photonics::units::EnergyPj;
///
/// let mut cell = GstActivationCell::with_defaults();
/// assert_eq!(cell.apply(EnergyPj(400.0)), EnergyPj::ZERO); // below 430 pJ
/// let out = cell.apply(EnergyPj(930.0));                   // fires
/// assert!((out.value() - 0.34 * 500.0).abs() < 1e-9);
/// cell.reset();                                            // recrystallize
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GstActivationCell {
    params: ActivationCellParams,
    /// True when the patch is crystalline (armed, ready to gate a pulse).
    armed: bool,
    firings: u64,
    resets: u64,
    reset_energy_spent: EnergyPj,
}

impl GstActivationCell {
    /// A fresh, armed (crystalline) cell.
    pub fn new(params: ActivationCellParams) -> Self {
        Self { params, armed: true, firings: 0, resets: 0, reset_energy_spent: EnergyPj::ZERO }
    }

    /// A fresh cell with the paper's constants.
    pub fn with_defaults() -> Self {
        Self::new(ActivationCellParams::default())
    }

    /// Cell constants.
    #[inline]
    pub fn params(&self) -> &ActivationCellParams {
        &self.params
    }

    /// True when the cell is crystalline and will gate the next pulse.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Apply a weighted-sum pulse. Returns the transmitted output energy:
    /// zero below threshold; `slope · (E − θ)` at or above it (the cell
    /// fires and disarms until reset).
    ///
    /// # Panics
    /// Panics if called while disarmed — the architecture must reset after
    /// every firing, and silently absorbing that bug would corrupt whole
    /// inference runs.
    pub fn apply(&mut self, pulse: EnergyPj) -> EnergyPj {
        assert!(pulse.value() >= 0.0, "pulse energy cannot be negative");
        assert!(
            self.armed,
            "activation cell pulsed while amorphous (missing reset after previous firing)"
        );
        if pulse.value() >= self.params.threshold.value() {
            self.armed = false;
            self.firings += 1;
            EnergyPj(self.params.slope * (pulse.value() - self.params.threshold.value()))
        } else {
            EnergyPj::ZERO
        }
    }

    /// Recrystallize after a firing. Safe to call when already armed (it is
    /// then a no-op costing nothing — the paper resets only fired cells).
    /// Returns the reset energy spent.
    pub fn reset(&mut self) -> EnergyPj {
        if self.armed {
            return EnergyPj::ZERO;
        }
        self.armed = true;
        self.resets += 1;
        self.reset_energy_spent += self.params.reset_energy;
        self.params.reset_energy
    }

    /// Number of firings so far.
    #[inline]
    pub fn firing_count(&self) -> u64 {
        self.firings
    }

    /// Total reset energy spent.
    #[inline]
    pub fn reset_energy_spent(&self) -> EnergyPj {
        self.reset_energy_spent
    }

    /// Remaining endurance (each firing+reset is one switch cycle).
    pub fn endurance_remaining(&self) -> u64 {
        self.params.endurance_cycles.saturating_sub(self.firings)
    }
}

/// Sample the Fig. 3 transfer curve: output pulse energy vs input pulse
/// energy, over `[0, max_pj]` with `samples` points.
pub fn fig3_curve(params: &ActivationCellParams, max_pj: f64, samples: usize) -> Vec<(f64, f64)> {
    assert!(samples >= 2, "need at least two samples");
    let relu = GstRelu { threshold: params.threshold.value(), slope: params.slope };
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
    fn subthreshold_pulse_is_absorbed() {
        let mut cell = GstActivationCell::with_defaults();
        let out = cell.apply(EnergyPj(400.0));
        assert_eq!(out, EnergyPj::ZERO);
        assert!(cell.is_armed(), "cell must stay armed below threshold");
        assert_eq!(cell.firing_count(), 0);
    }

    #[test]
    fn suprathreshold_pulse_fires_with_slope() {
        let mut cell = GstActivationCell::with_defaults();
        let out = cell.apply(EnergyPj(1430.0));
        assert!((out.value() - 0.34 * 1000.0).abs() < 1e-9);
        assert!(!cell.is_armed());
        assert_eq!(cell.firing_count(), 1);
    }

    #[test]
    fn exact_threshold_fires_with_zero_output() {
        let mut cell = GstActivationCell::with_defaults();
        let out = cell.apply(EnergyPj(430.0));
        assert_eq!(out, EnergyPj::ZERO);
        assert!(!cell.is_armed(), "threshold crossing switches the material");
    }

    #[test]
    #[should_panic]
    fn pulsing_a_disarmed_cell_is_a_bug() {
        let mut cell = GstActivationCell::with_defaults();
        cell.apply(EnergyPj(500.0));
        cell.apply(EnergyPj(500.0)); // missing reset
    }

    #[test]
    fn reset_rearms_and_costs_energy() {
        let mut cell = GstActivationCell::with_defaults();
        cell.apply(EnergyPj(500.0));
        let e = cell.reset();
        assert_eq!(e, EnergyPj(1000.0));
        assert!(cell.is_armed());
        // Resetting an armed cell is free.
        assert_eq!(cell.reset(), EnergyPj::ZERO);
        assert_eq!(cell.reset_energy_spent(), EnergyPj(1000.0));
    }

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

    #[test]
    fn disabled_activation_is_identity_like() {
        // §III-C: a fully amorphous cell "effectively eliminates the
        // activation cell" — modelled as the disarmed pass-through state.
        let mut cell = GstActivationCell::with_defaults();
        cell.apply(EnergyPj(10_000.0));
        assert!(!cell.is_armed(), "high pulse leaves the cell amorphous");
    }

    #[test]
    fn endurance_tracks_firings() {
        let mut cell = GstActivationCell::with_defaults();
        for _ in 0..5 {
            cell.apply(EnergyPj(500.0));
            cell.reset();
        }
        assert_eq!(cell.firing_count(), 5);
        assert_eq!(cell.endurance_remaining(), 1_000_000_000_000 - 5);
    }
}
