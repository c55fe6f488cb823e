//! The Table III PE power breakdown.
//!
//! | component                     | power      | share  |
//! |-------------------------------|------------|--------|
//! | LDSU                          |   0.09 mW  |  0.01% |
//! | E/O laser                     |   0.032 mW |  0.00% |
//! | GST MRR tuning                | 563.2 mW   | 83.34% |
//! | GST MRR read                  |  17.1 mW   |  2.52% |
//! | GST activation reset          |  53.3 mW   |  7.89% |
//! | BPD + TIA                     |  12.1 mW   |  1.78% |
//! | cache                         |  30 mW     |  4.44% |
//! | **total**                     | **0.67 W** |        |
//!
//! Every line is *derived* from device constants rather than hard-coded:
//! tuning = 256 MRRs × (660 pJ / 300 ns); read = 256 × (20 pJ / 300 ns);
//! activation reset = 16 rows × (1 nJ / 300 ns), both over the GST
//! [`PULSE_WINDOW`]. The tests pin the derived numbers to the table.

use crate::config::TridentConfig;
use trident_pcm::gst::PULSE_WINDOW;
use trident_photonics::ledger::PowerLedger;
use trident_photonics::units::{count, PowerMw};

/// Ledger item names used across the power model (shared with the
/// experiment binaries so printed tables stay consistent).
pub mod items {
    /// LDSU comparators + flip-flops.
    pub const LDSU: &str = "LDSU";
    /// E/O laser.
    pub const EO_LASER: &str = "E/O Laser";
    /// GST MRR tuning (weight programming).
    pub const GST_TUNING: &str = "GST MRR Tuning";
    /// GST MRR read probes.
    pub const GST_READ: &str = "GST MRR Read";
    /// GST activation function reset.
    pub const ACT_RESET: &str = "GST Activation Function Reset";
    /// Balanced photodetector + transimpedance amplifier.
    pub const BPD_TIA: &str = "BPD and TIA";
    /// Per-PE cache.
    pub const CACHE: &str = "Cache";
    /// Architecture-specific extra devices (baseline variants only).
    pub const EXTRAS: &str = "Architecture Extras";
}

/// Per-PE power model.
#[derive(Debug, Clone, PartialEq)]
pub struct PePowerModel {
    config: TridentConfig,
}

impl PePowerModel {
    /// Build from a configuration.
    pub fn new(config: &TridentConfig) -> Self {
        Self { config: config.clone() }
    }

    /// Power of tuning every MRR in the bank simultaneously (the dominant
    /// line of Table III). For resistive tuners the write and hold power
    /// are the same heater, so the worst case is their maximum, not their
    /// sum.
    pub fn tuning_power(&self) -> PowerMw {
        self.config.tuning.write_power().max(self.config.tuning.hold_power)
            * count(self.config.mrrs_per_pe())
    }

    /// Read-probe power with every MRR active.
    pub fn read_power(&self) -> PowerMw {
        let per_mrr = self.config.mrr_read_energy.over_duration(PULSE_WINDOW);
        per_mrr * count(self.config.mrrs_per_pe())
    }

    /// Activation-cell reset power with every row firing each cycle.
    pub fn activation_reset_power(&self) -> PowerMw {
        let per_cell = self.config.activation_reset_energy.over_duration(PULSE_WINDOW);
        per_cell * count(self.config.bank_rows)
    }

    /// Full worst-case breakdown (everything active at once) — Table III.
    pub fn breakdown(&self) -> PowerLedger {
        let c = &self.config;
        let mut ledger = PowerLedger::new();
        ledger.charge(items::LDSU, c.ldsu_power);
        ledger.charge(items::EO_LASER, c.eo_laser_power);
        ledger.charge(items::GST_TUNING, self.tuning_power());
        ledger.charge(items::GST_READ, self.read_power());
        ledger.charge(items::ACT_RESET, self.activation_reset_power());
        ledger.charge(items::BPD_TIA, c.bpd_tia_power);
        ledger.charge(items::CACHE, c.cache_power);
        if c.extra_pe_power.value() > 0.0 {
            ledger.charge(items::EXTRAS, c.extra_pe_power);
        }
        ledger
    }

    /// Worst-case per-PE power (Table III total: 0.67 W for GST).
    pub fn worst_case(&self) -> PowerMw {
        self.breakdown().total()
    }

    /// Steady-state power once weights are programmed: for a non-volatile
    /// tuning method the tuning line disappears entirely (§IV: "the power
    /// draw is reduced by 83.34% from 0.67 W to 0.11 W"); volatile methods
    /// keep paying their hold power.
    pub fn steady_state(&self) -> PowerMw {
        let mut ledger = self.breakdown();
        let tuning = if self.config.tuning.non_volatile {
            PowerMw::ZERO
        } else {
            self.config.tuning.hold_power * count(self.config.mrrs_per_pe())
        };
        // Rebuild without the write-power component.
        let mut steady = PowerLedger::new();
        for (item, p) in ledger.iter() {
            if item != items::GST_TUNING {
                steady.charge(item, p);
            }
        }
        if tuning.value() > 0.0 {
            steady.charge(items::GST_TUNING, tuning);
        }
        ledger = steady;
        ledger.total()
    }

    /// Array-level worst-case power across every PE.
    pub fn array_worst_case(&self) -> PowerMw {
        self.worst_case() * count(self.config.num_pes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PePowerModel {
        PePowerModel::new(&TridentConfig::paper())
    }

    #[test]
    fn tuning_line_matches_table_iii() {
        // 256 × 2.2 mW = 563.2 mW.
        let p = model().tuning_power();
        assert!((p.value() - 563.2).abs() < 0.1, "tuning {p}");
    }

    #[test]
    fn read_line_matches_table_iii() {
        // 256 × 20 pJ / 300 ns = 17.07 mW (the paper rounds to 17.1).
        let p = model().read_power();
        assert!((p.value() - 17.1).abs() < 0.1, "read {p}");
    }

    #[test]
    fn reset_line_matches_table_iii() {
        // 16 × 1 nJ / 300 ns = 53.3 mW.
        let p = model().activation_reset_power();
        assert!((p.value() - 53.3).abs() < 0.1, "reset {p}");
    }

    #[test]
    fn total_matches_table_iii() {
        let total = model().worst_case();
        assert!(
            (total.watts() - 0.67).abs() < 0.01,
            "PE worst case {} W should be 0.67 W",
            total.watts()
        );
    }

    #[test]
    fn tuning_share_is_83_percent() {
        let b = model().breakdown();
        let share = b.share(items::GST_TUNING);
        assert!(
            (share - 0.8334).abs() < 0.005,
            "tuning share {:.4} should be 83.34%",
            share
        );
    }

    #[test]
    fn steady_state_matches_section_iv() {
        // §IV: 0.67 W → 0.11 W once weights are tuned.
        let steady = model().steady_state();
        assert!(
            (steady.watts() - 0.11).abs() < 0.01,
            "steady state {} W should be 0.11 W",
            steady.watts()
        );
    }

    #[test]
    fn thermal_variant_keeps_paying_hold_power() {
        let mut cfg = TridentConfig::paper();
        cfg.tuning = trident_photonics::tuning::TuningProfile::thermal();
        let m = PePowerModel::new(&cfg);
        // 256 rings × 1.7 mW hold = 435 mW of standing power.
        assert!(m.steady_state().value() > 400.0, "thermal steady {}", m.steady_state());
        // GST steady state is far below.
        assert!(model().steady_state().value() < 150.0);
    }

    #[test]
    fn array_power_fits_envelope() {
        let m = model();
        let array = m.array_worst_case().watts();
        assert!(array <= 30.0, "44 PEs × 0.67 W = {array} W must fit 30 W");
        assert!(array > 29.0, "the envelope should be nearly used");
    }

    #[test]
    fn breakdown_has_seven_lines() {
        assert_eq!(model().breakdown().len(), 7);
    }
}
