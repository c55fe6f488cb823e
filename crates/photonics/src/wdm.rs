//! Wavelength-division-multiplexing channel grids and signals.
//!
//! Trident's broadcast-and-weight waveguide carries one laser per input
//! element, each on its own wavelength. A [`WdmGrid`] fixes the channel
//! plan (anchor wavelength + spacing); a [`WdmSignal`] is the vector of
//! per-channel optical powers travelling on one waveguide.

use crate::units::{count, PowerMw, Wavelength};
use crate::MIN_CHANNEL_SPACING_NM;

/// A fixed channel plan: `count` wavelengths spaced `spacing_nm` apart,
/// starting at `anchor`.
#[derive(Debug, Clone, PartialEq)]
pub struct WdmGrid {
    anchor: Wavelength,
    spacing_nm: f64,
    count: usize,
}

impl WdmGrid {
    /// Build a channel plan.
    ///
    /// # Panics
    /// Panics if `spacing_nm` is below the paper's 1.6 nm minimum (which
    /// would cause inter-channel crosstalk beyond what the weight bank
    /// tolerates) or if `count` is zero.
    pub fn new(anchor: Wavelength, spacing_nm: f64, count: usize) -> Self {
        assert!(
            spacing_nm >= MIN_CHANNEL_SPACING_NM,
            "channel spacing {spacing_nm} nm below the {MIN_CHANNEL_SPACING_NM} nm minimum"
        );
        assert!(count > 0, "a WDM grid needs at least one channel");
        Self { anchor, spacing_nm, count }
    }

    /// The paper's default plan: C-band anchor, 1.6 nm spacing.
    pub fn c_band(count: usize) -> Self {
        Self::new(Wavelength::from_nm(crate::C_BAND_ANCHOR_NM), MIN_CHANNEL_SPACING_NM, count)
    }

    /// Number of channels.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the plan has no channels (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Channel spacing in nanometres.
    #[inline]
    pub fn spacing_nm(&self) -> f64 {
        self.spacing_nm
    }

    /// Wavelength of channel `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn channel(&self, idx: usize) -> Wavelength {
        assert!(idx < self.count, "channel {idx} out of range ({} channels)", self.count);
        self.anchor.shifted_nm(self.spacing_nm * count(idx))
    }

    /// Iterator over all channel wavelengths.
    pub fn channels(&self) -> impl Iterator<Item = Wavelength> + '_ {
        (0..self.count).map(move |i| self.channel(i))
    }
}

/// Per-channel optical power on one waveguide.
///
/// Power is non-negative by construction; analog values are encoded as a
/// fraction of a channel's full-scale power by the modulators in
/// [`crate::laser`].
#[derive(Debug, Clone, PartialEq)]
pub struct WdmSignal {
    powers: Vec<PowerMw>,
}

impl WdmSignal {
    /// A dark signal (all channels off) with `n` channels.
    pub fn dark(n: usize) -> Self {
        Self { powers: vec![PowerMw::ZERO; n] }
    }

    /// Build from per-channel powers.
    ///
    /// # Panics
    /// Panics if any power is negative or non-finite.
    pub fn from_powers(powers: Vec<PowerMw>) -> Self {
        for (i, p) in powers.iter().enumerate() {
            assert!(
                p.is_finite() && p.value() >= 0.0,
                "channel {i} power must be finite and non-negative, got {p}"
            );
        }
        Self { powers }
    }

    /// Number of channels.
    #[inline]
    pub fn len(&self) -> usize {
        self.powers.len()
    }

    /// True when there are no channels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.powers.is_empty()
    }

    /// Power on channel `idx`.
    #[inline]
    pub fn power(&self, idx: usize) -> PowerMw {
        self.powers[idx]
    }

    /// Set the power on channel `idx`.
    ///
    /// # Panics
    /// Panics if the power is negative or non-finite.
    #[inline]
    pub fn set_power(&mut self, idx: usize, p: PowerMw) {
        assert!(p.is_finite() && p.value() >= 0.0, "power must be finite and non-negative");
        self.powers[idx] = p;
    }

    /// Slice of per-channel powers.
    #[inline]
    pub fn powers(&self) -> &[PowerMw] {
        &self.powers
    }

    /// Attenuate every channel by the same factor.
    pub fn attenuate_uniform(&self, t: f64) -> Self {
        assert!((0.0..=1.0).contains(&t), "transmission {t} outside [0, 1]");
        Self { powers: self.powers.iter().map(|&p| p * t).collect() }
    }

    /// Channel-wise sum of two signals combined on one waveguide.
    ///
    /// # Panics
    /// Panics on channel-count mismatch.
    pub fn combine(&self, other: &Self) -> Self {
        assert_eq!(self.len(), other.len(), "cannot combine signals of different widths");
        Self {
            powers: self
                .powers
                .iter()
                .zip(&other.powers)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_channels_are_spaced() {
        let g = WdmGrid::c_band(8);
        assert_eq!(g.len(), 8);
        for i in 1..8 {
            let d = g.channel(i).detuning_nm(g.channel(i - 1));
            assert!((d - 1.6).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn grid_rejects_tight_spacing() {
        let _ = WdmGrid::new(Wavelength::from_nm(1550.0), 0.8, 4);
    }

    #[test]
    fn signal_combine_adds_channelwise() {
        let a = WdmSignal::from_powers(vec![PowerMw(1.0), PowerMw(0.0)]);
        let b = WdmSignal::from_powers(vec![PowerMw(0.5), PowerMw(2.0)]);
        let c = a.combine(&b);
        assert_eq!(c.power(0), PowerMw(1.5));
        assert_eq!(c.power(1), PowerMw(2.0));
    }

    #[test]
    #[should_panic]
    fn signal_rejects_negative_power() {
        let _ = WdmSignal::from_powers(vec![PowerMw(-1.0)]);
    }

    #[test]
    #[should_panic]
    fn attenuate_rejects_gain() {
        let s = WdmSignal::dark(1);
        let _ = s.attenuate_uniform(1.5);
    }
}
