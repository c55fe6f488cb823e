//! Photodetection and transimpedance amplification.
//!
//! Each row of a Trident weight bank terminates in a balanced
//! photodetector (BPD): two photodiodes wired in opposition, one fed by the
//! combined *drop* ports of the row and one by the combined *through*
//! ports. The difference photocurrent implements signed accumulation, so a
//! single row performs a full signed dot product. The BPD output is then
//! amplified by a transimpedance amplifier (TIA) whose gain is programmable
//! — Trident reuses that programmability to apply `f'(h)` during the
//! backward pass (the LDSU-driven Hadamard product).
//!
//! Powers for the BPD+TIA chain come from the sub-pJ/bit receiver co-design
//! of Li et al. (Opt. Express 2020 — reference \[19\] of the paper): the
//! paper budgets 12.1 mW for all BPD+TIA in one PE.

use crate::noise::NoiseModel;
use crate::units::{AreaUm2, PowerMw};
use crate::wdm::WdmSignal;
use serde::{Deserialize, Serialize};
use trident_obs as obs;

/// Elementary photodiode: optical power in, photocurrent out.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Photodetector {
    /// Responsivity in A/W (mA/mW). Ge-on-Si detectors reach ~1 A/W.
    pub responsivity_a_w: f64,
    /// Dark current in milliamperes.
    pub dark_current_ma: f64,
}

impl Default for Photodetector {
    fn default() -> Self {
        Self { responsivity_a_w: 1.0, dark_current_ma: 1e-6 }
    }
}

impl Photodetector {
    /// Photocurrent (mA) for a total incident optical power.
    #[inline]
    pub fn photocurrent_ma(&self, incident: PowerMw) -> f64 {
        self.responsivity_a_w * incident.value() + self.dark_current_ma
    }
}

/// Balanced photodetector: differential photocurrent of two diodes.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BalancedPhotodetector {
    /// The diode receiving the drop-port (positive) rail.
    pub positive: Photodetector,
    /// The diode receiving the through-port (negative) rail.
    pub negative: Photodetector,
}

impl BalancedPhotodetector {
    /// Differential current (mA) given the total power on each rail.
    ///
    /// The dark currents of a matched pair cancel in the difference.
    #[inline]
    pub fn differential_ma(&self, drop_rail: PowerMw, through_rail: PowerMw) -> f64 {
        self.positive.photocurrent_ma(drop_rail) - self.negative.photocurrent_ma(through_rail)
    }

    /// Differential current for two WDM rails, summing channels optically
    /// on each diode (incoherent power addition — each channel is a
    /// distinct wavelength).
    pub fn detect_ma(&self, drop_rail: &WdmSignal, through_rail: &WdmSignal) -> f64 {
        obs::add(obs::Counter::DetectorReadouts, 1);
        self.differential_ma(drop_rail.total_power(), through_rail.total_power())
    }

    /// Differential current with additive noise drawn from `noise`.
    pub fn detect_noisy_ma(
        &self,
        drop_rail: &WdmSignal,
        through_rail: &WdmSignal,
        noise: &mut NoiseModel,
    ) -> f64 {
        let ideal = self.detect_ma(drop_rail, through_rail);
        let total_power = drop_rail.total_power() + through_rail.total_power();
        ideal + noise.receiver_current_noise_ma(total_power)
    }
}

/// Transimpedance amplifier with programmable gain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransimpedanceAmplifier {
    /// Transimpedance in kilo-ohms: output volts per milliampere.
    pub transimpedance_kohm: f64,
    /// Programmable post-gain, in `[0, 1]` × full scale. The paper's LDSU
    /// programs it to `f'(h)` in the backward pass; the simulator applies
    /// `f'(h)` digitally instead (`trident_arch::pe::spilled_hadamard`).
    pub programmable_gain: f64,
    /// Static power draw of the amplifier.
    pub power: PowerMw,
    /// Silicon footprint. The paper's Fig. 5 shows TIAs dominating chip
    /// area, so this is the one device whose area matters.
    pub area: AreaUm2,
}

impl Default for TransimpedanceAmplifier {
    fn default() -> Self {
        Self {
            transimpedance_kohm: 10.0,
            programmable_gain: 1.0,
            // Table III's 12.1 mW BPD + TIA line over a PE's 16 rows; the
            // TIA takes it all (the BPD is essentially passive).
            power: PowerMw(12.1 / 16.0),
            area: AreaUm2::from_mm2(0.72),
        }
    }
}

impl TransimpedanceAmplifier {
    /// Output voltage (volts) for an input current in mA.
    #[inline]
    pub fn amplify_v(&self, current_ma: f64) -> f64 {
        obs::add(obs::Counter::TiaAmplifications, 1);
        current_ma * self.transimpedance_kohm * self.programmable_gain
    }

    /// Program the post-gain (used by the LDSU during the backward pass).
    ///
    /// # Panics
    /// Panics if the gain is negative or non-finite; gains above 1 are
    /// allowed (TIAs amplify) but must be finite.
    pub fn set_gain(&mut self, gain: f64) {
        assert!(gain.is_finite() && gain >= 0.0, "TIA gain must be finite and >= 0, got {gain}");
        self.programmable_gain = gain;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::PowerMw;

    #[test]
    fn photocurrent_is_linear_in_power() {
        let pd = Photodetector::default();
        let i1 = pd.photocurrent_ma(PowerMw(1.0));
        let i2 = pd.photocurrent_ma(PowerMw(2.0));
        assert!((i2 - 2.0 * i1).abs() < 1e-5, "dark current breaks strict doubling only slightly");
    }

    #[test]
    fn balanced_detection_is_signed() {
        let bpd = BalancedPhotodetector::default();
        assert!(bpd.differential_ma(PowerMw(2.0), PowerMw(1.0)) > 0.0);
        assert!(bpd.differential_ma(PowerMw(1.0), PowerMw(2.0)) < 0.0);
        assert!((bpd.differential_ma(PowerMw(1.5), PowerMw(1.5))).abs() < 1e-12);
    }

    #[test]
    fn wdm_rails_sum_channels() {
        let bpd = BalancedPhotodetector::default();
        let drop = WdmSignal::from_powers(vec![PowerMw(1.0), PowerMw(2.0)]);
        let through = WdmSignal::from_powers(vec![PowerMw(0.5), PowerMw(0.5)]);
        let i = bpd.detect_ma(&drop, &through);
        assert!((i - 2.0).abs() < 1e-9, "3.0 − 1.0 = 2.0 mA at 1 A/W, got {i}");
    }

    #[test]
    fn tia_gain_programs_hadamard() {
        let mut tia = TransimpedanceAmplifier::default();
        let full = tia.amplify_v(1.0);
        tia.set_gain(0.34);
        assert!((tia.amplify_v(1.0) - 0.34 * full).abs() < 1e-9);
        tia.set_gain(0.0);
        assert_eq!(tia.amplify_v(123.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn tia_rejects_negative_gain() {
        TransimpedanceAmplifier::default().set_gain(-0.1);
    }

    #[test]
    fn noisy_detection_stays_near_ideal() {
        let bpd = BalancedPhotodetector::default();
        let mut noise = NoiseModel::seeded(7);
        let drop = WdmSignal::from_powers(vec![PowerMw(1.0)]);
        let through = WdmSignal::from_powers(vec![PowerMw(0.2)]);
        let ideal = bpd.detect_ma(&drop, &through);
        let mut worst: f64 = 0.0;
        for _ in 0..200 {
            let noisy = bpd.detect_noisy_ma(&drop, &through, &mut noise);
            worst = worst.max((noisy - ideal).abs());
        }
        // Receiver noise is far below the signal at mW powers.
        assert!(worst < 0.05 * ideal.abs(), "worst deviation {worst} vs ideal {ideal}");
    }
}
