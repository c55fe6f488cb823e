//! Photodetection and transimpedance amplification.
//!
//! Each row of a Trident weight bank terminates in a balanced
//! photodetector (BPD): two photodiodes wired in opposition, one fed by the
//! combined *drop* ports of the row and one by the combined *through*
//! ports. The difference photocurrent implements signed accumulation, so a
//! single row performs a full signed dot product. The BPD output is then
//! amplified by a transimpedance amplifier (TIA). The paper programs the
//! TIA's gain to apply `f'(h)` in the backward pass; the simulator applies
//! `f'(h)` digitally (`trident_arch::pe::spilled_hadamard`) and reads the
//! bank's rows directly, so only the receiver's power and area are
//! modeled here, plus the elementary photodiode the optical link uses.
//!
//! Powers for the BPD+TIA chain come from the sub-pJ/bit receiver co-design
//! of Li et al. (Opt. Express 2020 — reference \[19\] of the paper): the
//! paper budgets 12.1 mW for all BPD+TIA in one PE.

use crate::units::{AreaUm2, PowerMw};

/// Elementary photodiode: optical power in, photocurrent out.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// The transimpedance amplifier behind each row's balanced photodetector
/// (BPD): the receiver's power and area.
#[derive(Debug, Clone, PartialEq)]
pub struct TransimpedanceAmplifier {
    /// Static power draw of the amplifier.
    pub power: PowerMw,
    /// Silicon footprint of one receiver slice. The paper's Fig. 5 shows
    /// TIAs dominating chip area, so this is the one device whose area
    /// matters.
    pub area: AreaUm2,
}

impl Default for TransimpedanceAmplifier {
    fn default() -> Self {
        Self {
            // Table III's 12.1 mW BPD + TIA line over a PE's 16 rows; the
            // TIA takes it all (the BPD is essentially passive).
            power: PowerMw(12.1 / 16.0),
            // The receiver co-design of Li et al. [19] pairs each BPD with
            // a differential TIA whose analog front end dwarfs the
            // photonics; 0.83 mm² per slice lands the chip at the paper's
            // 604.6 mm² with TIAs dominating, matching Fig. 5.
            area: AreaUm2::from_mm2(0.83),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn photocurrent_is_linear_in_power() {
        let pd = Photodetector::default();
        let i1 = pd.photocurrent_ma(PowerMw(1.0));
        let i2 = pd.photocurrent_ma(PowerMw(2.0));
        assert!((i2 - 2.0 * i1).abs() < 1e-5, "dark current breaks strict doubling only slightly");
    }
}
