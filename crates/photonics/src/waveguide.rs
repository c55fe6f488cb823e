//! Routing waveguides: propagation loss and group delay.
//!
//! The "speed of light" latency claims in the paper come down to waveguide
//! group delay: a signal crossing a full PE chain travels millimetres of
//! silicon waveguide, tens of picoseconds — negligible next to the 300 ns
//! GST tuning and the nanosecond-scale modulation events. This module makes
//! that claim checkable instead of asserted.

use crate::units::{count, Nanoseconds};
use crate::wdm::WdmSignal;

/// A straight routing waveguide segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waveguide {
    /// Physical length in micrometres.
    pub length_um: f64,
    /// Propagation loss in dB/cm (silicon strip guides: ~2 dB/cm).
    pub loss_db_cm: f64,
    /// Group index (silicon strip guides: ~4.2).
    pub group_index: f64,
}

impl Waveguide {
    /// A standard silicon strip waveguide of the given length.
    pub fn silicon(length_um: f64) -> Self {
        assert!(length_um >= 0.0, "waveguide length cannot be negative");
        Self { length_um, loss_db_cm: 2.0, group_index: 4.2 }
    }

    /// Power transmission over the segment, in `(0, 1]`.
    pub fn transmission(&self) -> f64 {
        let loss_db = self.loss_db_cm * self.length_um * 1e-4;
        10f64.powf(-loss_db / 10.0)
    }

    /// Group delay of the segment.
    pub fn delay(&self) -> Nanoseconds {
        let length_m = self.length_um * 1e-6;
        Nanoseconds(self.group_index * length_m / crate::SPEED_OF_LIGHT_M_S * 1e9)
    }

    /// Propagate a WDM signal through the segment (uniform loss across the
    /// narrow band used here).
    pub fn propagate(&self, signal: &WdmSignal) -> WdmSignal {
        signal.attenuate_uniform(self.transmission())
    }
}

/// A 1×N power splitter distributing one waveguide to N branches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Splitter {
    /// Number of output branches.
    pub branches: usize,
    /// Excess loss per split stage in dB (beyond the 1/N ideal split).
    pub excess_loss_db: f64,
}

impl Splitter {
    /// An N-way splitter with 0.1 dB excess loss per binary stage.
    pub fn new(branches: usize) -> Self {
        assert!(branches >= 1, "splitter needs at least one branch");
        Self { branches, excess_loss_db: 0.1 }
    }

    /// Per-branch power transmission including excess loss.
    pub fn per_branch_transmission(&self) -> f64 {
        let stages = count(self.branches).log2().ceil().max(0.0);
        let excess = 10f64.powf(-self.excess_loss_db * stages / 10.0);
        excess / count(self.branches)
    }

    /// Split a signal into `branches` identical attenuated copies.
    pub fn split(&self, signal: &WdmSignal) -> Vec<WdmSignal> {
        let t = self.per_branch_transmission();
        (0..self.branches).map(|_| signal.attenuate_uniform(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::PowerMw;

    #[test]
    fn transmission_decreases_with_length() {
        let short = Waveguide::silicon(100.0);
        let long = Waveguide::silicon(10_000.0);
        assert!(short.transmission() > long.transmission());
        assert!(short.transmission() <= 1.0);
        assert!(long.transmission() > 0.0);
    }

    #[test]
    fn millimetre_guides_have_picosecond_delay() {
        // 1 mm of waveguide — the scale of a PE-to-PE hop.
        let wg = Waveguide::silicon(1000.0);
        let d = wg.delay();
        assert!(d.value() < 0.1, "1 mm hop should be <100 ps, got {d}");
        assert!(d.value() > 0.001);
    }

    #[test]
    fn zero_length_guide_is_identity() {
        let wg = Waveguide::silicon(0.0);
        assert_eq!(wg.transmission(), 1.0);
        assert_eq!(wg.delay(), Nanoseconds(0.0));
    }

    #[test]
    fn propagate_applies_uniform_loss() {
        let wg = Waveguide::silicon(5000.0); // 0.5 cm → 1 dB
        let s = WdmSignal::from_powers(vec![PowerMw(1.0), PowerMw(2.0)]);
        let out = wg.propagate(&s);
        let expected = 10f64.powf(-0.1);
        assert!((out.power(0).value() - expected).abs() < 1e-9);
        assert!((out.power(1).value() - 2.0 * expected).abs() < 1e-9);
    }

    #[test]
    fn splitter_conserves_energy_up_to_excess_loss() {
        let sp = Splitter::new(8);
        let s = WdmSignal::from_powers(vec![PowerMw(8.0)]);
        let branches = sp.split(&s);
        assert_eq!(branches.len(), 8);
        let total: f64 = branches.iter().map(|b| b.power(0).value()).sum();
        assert!(total <= 8.0, "split cannot create power");
        assert!(total > 8.0 * 0.9, "excess loss should be mild, total {total}");
    }

    #[test]
    fn single_branch_splitter_is_nearly_transparent() {
        let sp = Splitter::new(1);
        assert!(sp.per_branch_transmission() > 0.999);
    }
}
