//! Laser sources and electro-optic modulation.
//!
//! Each input element of a Trident PE is carried by one CW laser whose
//! amplitude is modulated to the analog value being fed in. Between layers,
//! compact E/O lasers (reference \[28\] of the paper) re-emit the
//! electronically accumulated row outputs back into the optical domain for
//! the next PE; their power is Table III's E/O laser line, which only the
//! analytical model bills (`TridentConfig::eo_laser_power`).

use crate::units::{EnergyPj, Nanoseconds, PowerMw, Wavelength};
use crate::wdm::{WdmGrid, WdmSignal};

/// A continuous-wave laser source assigned to one WDM channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaserSource {
    /// Emission wavelength.
    pub wavelength: Wavelength,
    /// Full-scale optical output power.
    pub full_scale: PowerMw,
}

impl LaserSource {
    /// A 1 mW full-scale channel laser at `wavelength`.
    pub fn channel(wavelength: Wavelength) -> Self {
        Self { wavelength, full_scale: PowerMw(1.0) }
    }

    /// Emit at a normalized drive level `x ∈ [0, 1]`.
    ///
    /// # Panics
    /// Panics if `x` lies outside `[0, 1]` — callers encode signed values
    /// via the balanced-detection weight path, never via negative optical
    /// power.
    pub fn emit(&self, x: f64) -> PowerMw {
        assert!((0.0..=1.0).contains(&x), "laser drive {x} outside [0, 1]");
        self.full_scale * x
    }
}

/// An electro-optic intensity modulator encoding analog vectors onto a WDM
/// comb.
///
/// The modulator is the boundary between the electronic and optical domains
/// on the input side; its energy per symbol is what the paper's E/O
/// conversion budget covers.
#[derive(Debug, Clone, PartialEq)]
pub struct EoModulator {
    lasers: Vec<LaserSource>,
    /// Energy to encode one analog symbol on one channel.
    pub energy_per_symbol: EnergyPj,
    /// Settling time of one modulation event (sets the vector rate).
    pub symbol_time: Nanoseconds,
}

impl EoModulator {
    /// The E/O symbol: one vector through a programmed bank. 44 PEs ×
    /// 256 MACs × 2 ops / 2.889 ns = the paper's 7.8 TOPS (§V-A).
    pub const SYMBOL_TIME: Nanoseconds = Nanoseconds(2.889);

    /// Build a modulator bank covering every channel of `grid`.
    pub fn for_grid(grid: &WdmGrid) -> Self {
        let lasers = grid.channels().map(LaserSource::channel).collect();
        Self {
            lasers,
            // ~0.1 pJ/symbol for a depletion-mode silicon modulator.
            energy_per_symbol: EnergyPj(0.1),
            symbol_time: Self::SYMBOL_TIME,
        }
    }

    /// Number of channels the bank can drive.
    #[inline]
    pub fn width(&self) -> usize {
        self.lasers.len()
    }

    /// Encode a normalized vector `x` (entries in `[0, 1]`) onto the comb.
    ///
    /// Entries beyond `x.len()` stay dark, allowing short vectors on a wide
    /// bank.
    ///
    /// # Panics
    /// Panics if `x` is wider than the bank or contains out-of-range values.
    pub fn encode(&self, x: &[f64]) -> WdmSignal {
        assert!(
            x.len() <= self.lasers.len(),
            "vector of {} wider than {}-channel modulator",
            x.len(),
            self.lasers.len()
        );
        let mut signal = WdmSignal::dark(self.lasers.len());
        for (i, (&xi, laser)) in x.iter().zip(&self.lasers).enumerate() {
            signal.set_power(i, laser.emit(xi));
        }
        signal
    }

    /// Energy to encode one full vector (one symbol per active channel).
    pub fn encode_energy(&self, active_channels: usize) -> EnergyPj {
        self.energy_per_symbol * active_channels
    }

    /// Full-scale optical power of channel `idx` (for decoding currents
    /// back to normalized values).
    pub fn full_scale(&self, idx: usize) -> PowerMw {
        self.lasers[idx].full_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modulator() -> EoModulator {
        EoModulator::for_grid(&WdmGrid::c_band(4))
    }

    #[test]
    fn encode_maps_values_to_powers() {
        let m = modulator();
        let s = m.encode(&[0.0, 0.5, 1.0]);
        assert_eq!(s.power(0), PowerMw(0.0));
        assert_eq!(s.power(1), PowerMw(0.5));
        assert_eq!(s.power(2), PowerMw(1.0));
        assert_eq!(s.power(3), PowerMw(0.0), "unused channel stays dark");
    }

    #[test]
    #[should_panic]
    fn encode_rejects_wide_vectors() {
        let m = modulator();
        let _ = m.encode(&[0.1; 5]);
    }

    #[test]
    #[should_panic]
    fn encode_rejects_negative_values() {
        let m = modulator();
        let _ = m.encode(&[-0.1]);
    }

    #[test]
    fn encode_energy_scales_with_width() {
        let m = modulator();
        assert_eq!(m.encode_energy(4), m.energy_per_symbol * 4.0);
        assert_eq!(m.encode_energy(0), EnergyPj::ZERO);
    }
}
