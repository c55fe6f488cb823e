//! Seeded statistical PCM device model and the degradation clock.
//!
//! The rest of this crate is *deterministic*: a [`crate::gst::GstCell`]
//! holds exactly the crystallinity it was programmed to, and the only
//! time-dependent effect is the slow structural-relaxation law in
//! [`GstCell::age`](crate::gst::GstCell::age). Real deployed PCM is
//! messier (aihwkit's statistical model, and the Brückerhoff-Plückelmann
//! photonic in-memory case study): every *write* lands with a
//! level-dependent error, every *read* adds noise, and the programmed
//! conductance decays as a power law `G(t) = G(t₀)·(t/t₀)^(−ν)` with a
//! per-cell exponent ν.
//!
//! This module supplies the three statistical ingredients plus the single
//! time source that unifies them with the deterministic path:
//!
//! * [`StatParams`] — σ(level) programming noise, per-probe read noise,
//!   and the per-cell drift-exponent distribution ν_i = ν̄·(1+|g_i|·s),
//!   drawn *above* the characterized fleet floor ν̄ so a reference column
//!   at ν̄ always bounds every live cell's decay.
//! * [`DegradationClock`] — simulated deployment time in [`Hours`]. The
//!   weight bank advances **one** clock and dispatches to either the
//!   deterministic relaxation law ([`relaxed_crystallinity`]) or the
//!   statistical power law, so time can never advance two different ways.
//! * counter-addressed normal draws through
//!   [`trident_streams::seeded_gaussian`]: every sample is addressed by
//!   `(seed, stream, draw)`, so the model needs no stored RNG state and
//!   the same seed reproduces the same noise bit-for-bit regardless of
//!   thread schedule.
//!
//! The physical decay law itself lives in `trident-photonics`'s
//! [`calib`](trident_photonics::calib) module (the reference column is an
//! optical readout structure); this module layers the statistics on it.

use trident_photonics::calib::{drift_decay_factor, ReferenceColumn};
use trident_photonics::units::{count, EnergyPj, Hours};

/// The single source of simulated deployment time for one weight bank.
///
/// Before this clock existed, deterministic drift advanced through direct
/// `GstCell::age()` calls while the fault path kept its own `drift_years`
/// — two ways for time to move. Now the bank advances the clock and the
/// clock's elapsed time feeds whichever degradation law (deterministic
/// relaxation or statistical power law) is active.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegradationClock {
    now: Hours,
}

impl DegradationClock {
    /// A clock at deployment epoch (zero elapsed time).
    pub fn new() -> Self {
        Self::default()
    }

    /// Elapsed deployment time since the epoch.
    pub fn now(&self) -> Hours {
        self.now
    }

    /// Advance deployment time by `delta`. Time only moves forward.
    pub fn advance(&mut self, delta: Hours) {
        assert!(
            delta.is_finite() && delta.value() >= 0.0,
            "degradation clock cannot move backwards (delta {delta})"
        );
        self.now += delta;
    }
}

/// Parameters of the statistical device model. All noise magnitudes live
/// in the signed-weight domain `w ∈ [-1, 1]` (the domain the bank's
/// balanced readout produces), so they compose with any LUT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatParams {
    /// Programming-noise σ (weight units, applied once per successful
    /// write) at level 0 — the fully amorphous end of the LUT.
    pub prog_sigma_min_weight: f64,
    /// Programming-noise σ (weight units) at the top level — programming
    /// error grows with target conductance, as in aihwkit's PCM preset.
    pub prog_sigma_max_weight: f64,
    /// Read-noise σ (weight units) added to every row readout probe.
    pub read_sigma_weight: f64,
    /// Fleet-floor drift exponent ν̄ — the characterized minimum of the
    /// per-cell distribution, and the reference column's exponent.
    pub drift_nu_floor: f64,
    /// Half-normal spread of per-cell exponents above the floor:
    /// ν_i = ν̄ · (1 + |g_i| · spread) with g_i a unit normal, so
    /// ν_i ≥ ν̄ always.
    pub drift_nu_spread: f64,
    /// Reference time t₀ of the power law `((t − t_write + t₀)/t₀)^(−ν)`.
    pub t0: Hours,
    /// Master seed; every bank mixes in its own identity.
    pub seed: u64,
}

impl Default for StatParams {
    fn default() -> Self {
        Self {
            prog_sigma_min_weight: 0.004,
            prog_sigma_max_weight: 0.016,
            read_sigma_weight: 0.003,
            // ν ≈ 0.1 is the canonical amorphous-GST drift exponent
            // (crystalline states drift less; the floor is what the
            // reference column is characterized at). t₀ is the age of the
            // closed-loop verify read that anchors G(t₀) — seconds after
            // the final pulse, so a month of deployment spans almost six
            // decades of drift.
            drift_nu_floor: 0.12,
            drift_nu_spread: 0.1,
            t0: Hours(0.001),
            seed: 0x7257_u64,
        }
    }
}

impl StatParams {
    /// Programming-noise σ (weight units) for a write targeting `level`
    /// of a `levels`-level LUT: linear interpolation from the amorphous
    /// floor to the crystalline ceiling.
    pub fn prog_sigma_weight(&self, level: u16, levels: u16) -> f64 {
        let span = count(levels.max(2) - 1);
        let frac = (count(level) / span).clamp(0.0, 1.0);
        self.prog_sigma_min_weight
            + (self.prog_sigma_max_weight - self.prog_sigma_min_weight) * frac
    }

    /// Per-cell drift exponent ν_i from a unit-normal draw: half-normal
    /// above the fleet floor, `ν̄ · (1 + |g| · spread)`. ("Slope" because
    /// ν is the magnitude of the decay's log–log slope.)
    pub fn nu_slope(&self, unit_gaussian: f64) -> f64 {
        self.drift_nu_floor * (1.0 + unit_gaussian.abs() * self.drift_nu_spread)
    }

    /// Decay factor of a cell with exponent `nu_slope` at `age` since its
    /// last write, under this model's t₀.
    pub fn cell_decay_factor(&self, age: Hours, nu_slope: f64) -> f64 {
        drift_decay_factor(age, self.t0, nu_slope)
    }

    /// The reference column this model pairs with: characterized at the
    /// fleet-floor exponent, probed at `read_energy` per cell.
    pub fn reference_column(&self, read_energy: EnergyPj) -> ReferenceColumn {
        ReferenceColumn { nu_slope: self.drift_nu_floor, t0: self.t0, read_energy }
    }
}

/// The deterministic structural-relaxation law: amorphous marks relax
/// toward the crystalline ground state, with the decay constant set so
/// the state stays within half an 8-bit LSB over the rated retention.
///
/// This is the single home of the legacy `GstCell::age` arithmetic —
/// the cell method delegates here, and the weight bank reaches it only
/// through [`DegradationClock`] advancement, so the deterministic and
/// statistical paths can never disagree about elapsed time.
pub fn relaxed_crystallinity(
    crystallinity: f64,
    drift_per_decade: f64,
    years: f64,
    retention_years: f64,
) -> f64 {
    assert!(years >= 0.0, "cannot age backwards");
    let drift = drift_per_decade * (years / retention_years);
    (crystallinity + drift * (1.0 - crystallinity)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_streams::{seeded_gaussian, STREAM_PCM_NU};

    #[test]
    fn clock_starts_at_epoch_and_advances() {
        let mut clock = DegradationClock::new();
        assert_eq!(clock.now(), Hours::ZERO);
        clock.advance(Hours(720.0));
        clock.advance(Hours::from_days(30.0));
        assert_eq!(clock.now(), Hours(1440.0));
        assert!((clock.now().years() - 1440.0 / 8766.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn clock_rejects_negative_time() {
        DegradationClock::new().advance(Hours(-1.0));
    }

    #[test]
    fn prog_sigma_interpolates_with_level() {
        let p = StatParams::default();
        let lo = p.prog_sigma_weight(0, 255);
        let hi = p.prog_sigma_weight(254, 255);
        let mid = p.prog_sigma_weight(127, 255);
        assert_eq!(lo, p.prog_sigma_min_weight);
        assert_eq!(hi, p.prog_sigma_max_weight);
        assert!(lo < mid && mid < hi);
    }

    #[test]
    fn nu_never_falls_below_the_fleet_floor() {
        let p = StatParams::default();
        for i in 0..2000u64 {
            let nu = p.nu_slope(seeded_gaussian(p.seed, STREAM_PCM_NU, i));
            assert!(nu >= p.drift_nu_floor, "ν {nu} below floor");
            assert!(nu < 1.0, "ν {nu} unphysically large");
        }
    }

    #[test]
    fn reference_column_bounds_every_cell_factor() {
        // The compensation-safety argument: reference (floor exponent,
        // youngest age) decays no faster than any live cell.
        let p = StatParams::default();
        let col = p.reference_column(EnergyPj(20.0));
        let age = Hours(720.0);
        let bound = col.decay_factor_at(age);
        for i in 0..500u64 {
            let nu = p.nu_slope(seeded_gaussian(p.seed, STREAM_PCM_NU, i));
            let f = p.cell_decay_factor(age, nu);
            assert!(f <= bound + 1e-15, "cell factor {f} above reference bound {bound}");
        }
    }

    #[test]
    fn relaxation_law_matches_the_legacy_age_arithmetic() {
        // Same expression, same order of operations as the pre-clock
        // GstCell::age body — byte-identity of the deterministic path.
        let c = 0.37f64;
        let dpd = 0.5f64 / 254.0;
        let years = 3.5;
        let retention = 10.0;
        let expected = {
            let drift = dpd * (years / retention);
            (c + drift * (1.0 - c)).min(1.0)
        };
        let got = relaxed_crystallinity(c, dpd, years, retention);
        assert_eq!(got.to_bits(), expected.to_bits());
    }
}
