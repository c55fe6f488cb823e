//! MRR tuning technologies (Table I of the paper).
//!
//! The paper compares three ways to set a microring's weight: thermal,
//! electro-optic and GST. Each [`TuningProfile`] constructor below is the
//! one definition of its Table I row; the GST cell model
//! (`trident_pcm::gst::GstParameters`) and the analytical configuration
//! read [`TuningProfile::gst`] rather than restating it.
//!
//! Thermal and electro-optic tuning hold a weight only while power is
//! applied; GST is non-volatile, so holding a programmed weight is free.
//! Thermal crosstalk limits thermally tuned banks to 6-bit resolution,
//! which (per §II-B and reference \[34\]) is below the 8 bits needed for
//! training. These facts drive every headline result of the paper, so they
//! live here as a first-class type shared by Trident and the baselines.

use crate::units::{EnergyPj, Nanoseconds, PowerMw};

/// The tuning technology used to program one MRR weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TuningMethod {
    /// Resistive micro-heater per ring (DEAP-CNN, PIXEL).
    Thermal,
    /// Carrier-depletion electro-optic shift (impractically weak at
    /// 0.18 pm/V — included for completeness; the paper excludes it from
    /// the architecture comparison).
    Electric,
    /// Optically programmed Ge₂Sb₂Te₅ phase-change cell (Trident).
    Gst,
    /// CrossLight's hybrid: coarse thermal + fine electro-optic trim.
    HybridThermalElectric,
}

/// Quantitative profile of a tuning method.
///
/// ```
/// use trident_photonics::tuning::TuningProfile;
///
/// let gst = TuningProfile::gst();
/// assert!(gst.non_volatile);
/// assert!(gst.supports_training());           // 8-bit weights
/// assert_eq!(gst.write_energy.value(), 660.0); // pJ, Table I
/// assert!(!TuningProfile::thermal().supports_training());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningProfile {
    /// Which technology this profile describes.
    pub method: TuningMethod,
    /// Energy to (re)program one ring to a new weight.
    pub write_energy: EnergyPj,
    /// Time for the ring to settle at the new weight.
    pub write_time: Nanoseconds,
    /// Static power to *hold* a programmed weight on one ring.
    pub hold_power: PowerMw,
    /// Effective weight resolution in bits, limited by crosstalk and the
    /// number of distinguishable device states.
    pub bit_resolution: u8,
    /// True when the weight persists with zero applied power.
    pub non_volatile: bool,
}

impl TuningProfile {
    /// Thermal tuning per Table I and §III-B (1.7 mW hold power).
    pub const fn thermal() -> Self {
        Self {
            method: TuningMethod::Thermal,
            write_energy: EnergyPj(1020.0),
            write_time: Nanoseconds(600.0),
            hold_power: PowerMw(1.7),
            bit_resolution: 6,
            non_volatile: false,
        }
    }

    /// Electro-optic tuning per Table I. The ±100 V drive across a 60 µm
    /// ring makes it impractical; resolution is left at the thermal level.
    pub const fn electric() -> Self {
        Self {
            method: TuningMethod::Electric,
            write_energy: EnergyPj(180.0),
            write_time: Nanoseconds(500.0),
            hold_power: PowerMw(0.5),
            bit_resolution: 6,
            non_volatile: false,
        }
    }

    /// GST (PCM) tuning per Table I and §III-B: 660 pJ writes in 300 ns,
    /// 2.2 mW applied only *during* the write, zero hold power,
    /// 255 distinguishable levels → 8 bits.
    pub const fn gst() -> Self {
        Self {
            method: TuningMethod::Gst,
            write_energy: EnergyPj(660.0),
            write_time: Nanoseconds(300.0),
            hold_power: PowerMw::ZERO,
            bit_resolution: 8,
            non_volatile: true,
        }
    }

    /// CrossLight's thermal+electro-optic hybrid: thermal-class energy with
    /// somewhat better crosstalk behaviour (one extra bit) at the cost of
    /// both hold powers.
    pub const fn hybrid() -> Self {
        Self {
            method: TuningMethod::HybridThermalElectric,
            write_energy: EnergyPj(900.0),
            write_time: Nanoseconds(500.0),
            hold_power: PowerMw(2.2),
            bit_resolution: 7,
            non_volatile: false,
        }
    }

    /// Look up the canonical profile for a method.
    pub const fn of(method: TuningMethod) -> Self {
        match method {
            TuningMethod::Thermal => Self::thermal(),
            TuningMethod::Electric => Self::electric(),
            TuningMethod::Gst => Self::gst(),
            TuningMethod::HybridThermalElectric => Self::hybrid(),
        }
    }

    /// Average power drawn *while writing* one ring.
    pub fn write_power(&self) -> PowerMw {
        self.write_energy.over_duration(self.write_time)
    }

    /// Energy to hold a weight for `t` (zero for non-volatile methods).
    pub fn hold_energy(&self, t: Nanoseconds) -> EnergyPj {
        if self.non_volatile {
            EnergyPj::ZERO
        } else {
            let e = self.hold_power.for_duration(t);
            trident_obs::add_pj(trident_obs::Counter::RingTuningFj, e.value());
            e
        }
    }

    /// Can this method support on-device training? Training needs ≥ 8-bit
    /// weights (Wang et al., NeurIPS 2018 — reference \[34\]).
    pub fn supports_training(&self) -> bool {
        self.bit_resolution >= 8
    }

    /// Number of representable weight levels.
    pub fn levels(&self) -> u32 {
        (1u32 << self.bit_resolution) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values() {
        let th = TuningProfile::thermal();
        assert_eq!(th.write_energy, EnergyPj::from_nj(1.02));
        assert_eq!(th.write_time, Nanoseconds::from_us(0.6));

        let gst = TuningProfile::gst();
        assert_eq!(gst.write_energy, EnergyPj(660.0));
        assert_eq!(gst.write_time, Nanoseconds(300.0));

        let el = TuningProfile::electric();
        assert_eq!(el.write_time, Nanoseconds(500.0));
    }

    #[test]
    fn gst_write_power_matches_paper() {
        // §III-B: "The power consumption for tuning GST is 2.0 mW, slightly
        // higher than the 1.7 mW of power needed to thermally tune an MRR."
        // 660 pJ / 300 ns = 2.2 mW (the paper rounds to 2.0).
        let p = TuningProfile::gst().write_power();
        assert!((p.value() - 2.2).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn gst_is_twice_as_fast_as_thermal() {
        let speedup = TuningProfile::thermal().write_time / TuningProfile::gst().write_time;
        assert!((speedup - 2.0).abs() < 1e-9);
    }

    #[test]
    fn only_gst_is_nonvolatile_and_free_to_hold() {
        for method in [
            TuningMethod::Thermal,
            TuningMethod::Electric,
            TuningMethod::Gst,
            TuningMethod::HybridThermalElectric,
        ] {
            let p = TuningProfile::of(method);
            let hold = p.hold_energy(Nanoseconds::from_us(1.0));
            if method == TuningMethod::Gst {
                assert!(p.non_volatile);
                assert_eq!(hold, EnergyPj::ZERO);
            } else {
                assert!(!p.non_volatile);
                assert!(hold.value() > 0.0);
            }
        }
    }

    #[test]
    fn training_feasibility_follows_bits() {
        assert!(TuningProfile::gst().supports_training());
        assert!(!TuningProfile::thermal().supports_training());
        assert!(!TuningProfile::hybrid().supports_training());
    }

    #[test]
    fn levels_match_bits() {
        assert_eq!(TuningProfile::gst().levels(), 255);
        assert_eq!(TuningProfile::thermal().levels(), 63);
    }
}
