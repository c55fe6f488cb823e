//! Architecture constants (§IV of the paper).
//!
//! One struct collects every number the evaluation uses so experiments and
//! ablations can sweep them: bank geometry (16×16 = 256 MRRs per PE),
//! 44 PEs under the 30 W edge envelope, the 1.37 GHz maximum clock, the
//! E/O-limited vector symbol rate that yields the paper's 7.8 TOPS, cache
//! sizes, and the Table III device powers. Every device constant the
//! functional chip also models is read from the device that defines it
//! (`photonics`, `pcm`), so both simulated paths price the same table.

use trident_pcm::activation::ActivationCellParams;
use trident_pcm::gst::GstParameters;
use trident_pcm::ldsu::Ldsu;
use trident_photonics::detector::TransimpedanceAmplifier;
use trident_photonics::laser::EoModulator;
use trident_photonics::tuning::TuningProfile;
use trident_photonics::units::{EnergyPj, Nanoseconds, PowerMw};
use trident_workload::dataflow::DataflowModel;

/// One digital cross-tile partial-sum add: the price the functional
/// chip's `"psum accumulate"` line and [`TridentConfig::paper`] both
/// read.
pub const PSUM_ENERGY: EnergyPj = EnergyPj(0.1);

/// LDSU softmax per element (exp and normalise): `"ldsu softmax"`.
pub const LDSU_SOFTMAX_ENERGY: EnergyPj = EnergyPj(0.05);

/// LDSU LayerNorm per element (two digital passes): `"ldsu layernorm"`.
pub const LDSU_LAYERNORM_ENERGY: EnergyPj = EnergyPj(0.03);

/// LDSU residual add or mean-pool accumulate per element: `"ldsu residual"`.
pub const LDSU_RESIDUAL_ENERGY: EnergyPj = EnergyPj(0.01);

/// LDSU FIFO spill of one conv position, per output channel: `"ldsu fifo"`.
pub const LDSU_FIFO_ENERGY: EnergyPj = EnergyPj(0.01);

/// Maximum electronic clock (§IV: 1.37 GHz), which sets the transformer
/// LDSU's per-element time.
pub const CLOCK_HZ: f64 = 1.37e9;

/// Full Trident configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TridentConfig {
    /// Weight-bank rows per PE (J).
    pub bank_rows: usize,
    /// Weight-bank columns per PE (N = WDM channels).
    pub bank_cols: usize,
    /// Number of PEs.
    pub num_pes: usize,
    /// MRR tuning technology (GST for Trident; ablations swap it).
    pub tuning: TuningProfile,
    /// Time to stream one input vector through a programmed bank
    /// (E/O modulation + TIA settling limited).
    pub symbol_time: Nanoseconds,
    /// Per-PE L1 cache, bytes (§IV: 16 kB).
    pub l1_bytes: usize,
    /// Shared L2 cache, bytes (§IV: 32 MB).
    pub l2_bytes: usize,
    /// Energy per cache access (per activation element moved).
    pub cache_access_energy: EnergyPj,
    /// Energy per electronic partial-sum accumulation.
    pub psum_energy: EnergyPj,
    /// Energy per ADC conversion — zero for Trident (the LDSU + photonic
    /// activation remove ADCs); nonzero in the ADC ablation.
    pub adc_energy: EnergyPj,
    /// GST activation-cell reset energy per firing.
    pub activation_reset_energy: EnergyPj,
    /// GST MRR read-probe energy per MRR per tile activation.
    pub mrr_read_energy: EnergyPj,
    /// Static per-PE power of the BPD + TIA chain.
    pub bpd_tia_power: PowerMw,
    /// Static per-PE LDSU power.
    pub ldsu_power: PowerMw,
    /// Static per-PE E/O laser power.
    pub eo_laser_power: PowerMw,
    /// Static per-PE cache power.
    pub cache_power: PowerMw,
    /// Extra static per-PE power for baseline variants (CrossLight's
    /// summation VCSEL + MRR, PIXEL's MZM bias). Zero for Trident.
    pub extra_pe_power: PowerMw,
    /// Extra energy per MAC for baseline variants (PIXEL's MZM-based
    /// analog accumulation). Zero for Trident.
    pub extra_mac_energy: EnergyPj,
    /// Power envelope the accelerator is scaled to (30 W for edge).
    pub power_envelope_w: f64,
}

impl TridentConfig {
    /// The configuration evaluated in the paper.
    pub fn paper() -> Self {
        let rows: usize = 16;
        Self {
            bank_rows: rows,
            bank_cols: 16,
            num_pes: 44,
            tuning: TuningProfile::gst(),
            symbol_time: EoModulator::SYMBOL_TIME,
            l1_bytes: 16 * 1024,
            l2_bytes: 32 * 1024 * 1024,
            cache_access_energy: EnergyPj(1.0),
            psum_energy: PSUM_ENERGY,
            adc_energy: EnergyPj::ZERO,
            activation_reset_energy: ActivationCellParams::default().reset_energy,
            mrr_read_energy: GstParameters::default().read_energy,
            bpd_tia_power: TransimpedanceAmplifier::default().power * rows,
            ldsu_power: Ldsu::POWER_PER_UNIT * rows,
            eo_laser_power: PowerMw(0.032),
            cache_power: PowerMw(30.0),
            extra_pe_power: PowerMw::ZERO,
            extra_mac_energy: EnergyPj::ZERO,
            power_envelope_w: 30.0,
        }
    }

    /// MRRs per PE.
    pub fn mrrs_per_pe(&self) -> usize {
        self.bank_rows * self.bank_cols
    }

    /// PE count as the `u64` the tile/vector bookkeeping runs in.
    pub fn pe_slots(&self) -> u64 {
        u64::try_from(self.num_pes).unwrap_or(u64::MAX)
    }

    /// The dataflow geometry this configuration exposes to the workload
    /// mapper.
    pub fn dataflow(&self) -> DataflowModel {
        DataflowModel {
            bank_rows: self.bank_rows,
            bank_cols: self.bank_cols,
            num_pes: self.num_pes,
        }
    }

    /// Peak MAC throughput in TOPS (2 ops per MAC), all banks streaming.
    pub fn peak_tops(&self) -> f64 {
        let macs_per_symbol = (self.mrrs_per_pe() * self.num_pes) as f64;
        2.0 * macs_per_symbol * self.symbol_time.rate_hz() / 1e12
    }

    /// Peak TOPS per Watt at the power envelope.
    pub fn tops_per_watt(&self) -> f64 {
        self.peak_tops() / self.power_envelope_w
    }

    /// Scale the PE count to fit `envelope_w` given the worst-case per-PE
    /// power (§IV: 30 W / 0.67 W → 44 PEs).
    pub fn scaled_to_envelope(mut self, envelope_w: f64) -> Self {
        let per_pe_w = crate::power::PePowerModel::new(&self).worst_case().watts();
        self.num_pes = ((envelope_w / per_pe_w).floor() as usize).max(1);
        self.power_envelope_w = envelope_w;
        self
    }
}

impl Default for TridentConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_iv() {
        let c = TridentConfig::paper();
        assert_eq!(c.num_pes, 44);
        assert_eq!(c.mrrs_per_pe(), 256);
        assert_eq!(c.l1_bytes, 16 * 1024);
        assert_eq!(c.l2_bytes, 32 * 1024 * 1024);
        assert!((CLOCK_HZ - 1.37e9).abs() < 1e6);
        assert!(c.tuning.non_volatile);
    }

    #[test]
    fn peak_tops_is_7_8() {
        let c = TridentConfig::paper();
        assert!(
            (c.peak_tops() - 7.8).abs() < 0.05,
            "peak TOPS {} should match the paper's 7.8",
            c.peak_tops()
        );
    }

    #[test]
    fn tops_per_watt_matches_table_iv_scale() {
        let c = TridentConfig::paper();
        // Table IV lists 0.29 TOPS/W (7.8 over the ~27 W actually drawn);
        // over the full 30 W envelope the value is 0.26 — accept the band.
        let tpw = c.tops_per_watt();
        assert!((0.24..=0.30).contains(&tpw), "TOPS/W {tpw}");
    }

    #[test]
    fn envelope_scaling_reproduces_44_pes() {
        let c = TridentConfig::paper().scaled_to_envelope(30.0);
        assert_eq!(c.num_pes, 44, "30 W / 0.67 W per PE → 44 PEs");
    }

    #[test]
    fn smaller_envelope_fewer_pes() {
        let c5 = TridentConfig::paper().scaled_to_envelope(5.0);
        let c60 = TridentConfig::paper().scaled_to_envelope(60.0);
        assert!(c5.num_pes < 44);
        assert!(c60.num_pes > 44);
        assert!(c5.num_pes >= 1);
    }

    #[test]
    fn dataflow_reflects_geometry() {
        let df = TridentConfig::paper().dataflow();
        assert_eq!(df.mrrs_per_pe(), 256);
        assert_eq!(df.num_pes, 44);
    }
}

/// The device table reconciled: the functional chip and the analytical
/// model read the same Table I/III constants, so one PE symbol prices
/// exactly what [`TridentConfig::paper`] and [`PePowerModel`] price.
///
/// [`PePowerModel`]: crate::power::PePowerModel
#[cfg(test)]
mod device_table {
    use super::*;
    use crate::pe::{ProcessingElement, GST_SLOPE, LOGIT_ENERGY_PJ, LOGIT_THRESHOLD};
    use crate::power::PePowerModel;

    /// A fresh 16×16 PE after one unsigned MVM.
    fn one_symbol() -> ProcessingElement {
        let mut pe = ProcessingElement::new(16, 16, None);
        pe.mvm_unsigned_into(&[0.5; 16], &mut [0.0; 16]);
        pe
    }

    #[test]
    fn pe_symbol_is_the_configured_symbol_time() {
        let symbol = TridentConfig::paper().symbol_time;
        assert_eq!(one_symbol().elapsed().value().to_bits(), symbol.value().to_bits());
    }

    #[test]
    fn pe_read_charge_is_the_power_models_read_power() {
        let c = TridentConfig::paper();
        let per_symbol = one_symbol().energy().get("mrr read").over_duration(c.symbol_time);
        let model = PePowerModel::new(&c).read_power();
        let rel = ((per_symbol - model) / model).abs();
        assert!(rel <= 1e-12, "PE {per_symbol:?} vs model {model:?}");
    }

    #[test]
    fn pe_receivers_sum_to_the_bpd_tia_line() {
        let c = TridentConfig::paper();
        let tias = TransimpedanceAmplifier::default().power * c.bank_rows;
        assert_eq!(tias.value().to_bits(), c.bpd_tia_power.value().to_bits());
    }

    #[test]
    fn logit_activation_comes_from_the_activation_cell() {
        let cell = ActivationCellParams::default();
        let threshold = cell.threshold.value() / LOGIT_ENERGY_PJ;
        assert_eq!(LOGIT_THRESHOLD.to_bits(), threshold.to_bits());
        assert_eq!(GST_SLOPE.to_bits(), cell.slope.to_bits());
    }
}
