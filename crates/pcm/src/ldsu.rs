//! The Linear Derivative Storage Unit (LDSU, Fig. 2d of the paper).
//!
//! Because the GST activation function has exactly two derivative values
//! (0 below threshold, the cell's slope above), storing `f'(h_k)` for the
//! backward pass needs only one bit per row: an analog voltage comparator
//! against the activation threshold, latched into a D-flip-flop during the
//! forward pass.
//!
//! The LDSU is what removes the ADCs between layers: nothing about `h_k`
//! other than this bit ever needs to leave the PE. The functional engines
//! keep the bit with its logit and apply it with one rule,
//! `trident_arch::pe::spilled_hadamard`; this module is the one
//! definition of the unit's power and area, which the analytical models
//! read.

use trident_photonics::units::{AreaUm2, PowerMw};

/// One row's comparator + D-flip-flop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ldsu;

impl Ldsu {
    /// Static power of one LDSU (comparator + flip-flop): Table III's
    /// 0.09 mW LDSU line shared by a PE's 16 rows.
    pub const POWER_PER_UNIT: PowerMw = PowerMw(0.09 / 16.0);

    /// Footprint of one comparator + flip-flop in a 28 nm-class process.
    pub const AREA_PER_UNIT: AreaUm2 = AreaUm2(25.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ldsu_power_is_negligible() {
        // Table III: the LDSU line is 0.01 % of PE power — the whole point
        // of replacing ADCs with a comparator and a flip-flop.
        assert!(Ldsu::POWER_PER_UNIT.value() * 16.0 < 0.1);
    }
}
