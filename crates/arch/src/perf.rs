//! Per-layer energy/latency analysis for whole CNNs — the model behind
//! Fig. 4 (photonic energy comparison) and Fig. 6 (inferences/s).
//!
//! The paper's operating assumption (§V-A): "all of the MRRs can be tuned
//! in parallel so that weights are pre-loaded, after which inference can
//! be performed on many inputs without re-tuning." Networks whose weights
//! exceed the on-chip bank capacity still retune per tile, but a batch of
//! `tuning_batch` inputs streams through each resident tile set before it
//! is swapped, so tuning time and energy amortize over the batch. Setting
//! `tuning_batch = 1` recovers strict single-image latency (the number
//! that matters for the paper's training schedule).
//!
//! When a layer occupies fewer tiles than there are PEs, the mapper
//! *replicates* each tile across the idle PEs and splits the layer's
//! output positions among the replicas — the spatial parallelism any
//! reasonable control unit would exploit. Replication divides streaming
//! latency and multiplies programming energy (every replica must be
//! written).
//!
//! Per layer, for a mapping `m` (see [`trident_workload::dataflow`]) with
//! replication factor `r = max(1, ⌊P / tiles⌋)`:
//!
//! ```text
//! stream   = m.passes · ⌈m.vectors / r⌉ · t_symbol    (wall-clock)
//! tune     = m.passes · t_write / B                   (amortized)
//! E_tune   = m.weight_writes · r · E_write / B
//! E_hold   = P_hold · MRRs · PE·s of streaming        (volatile only)
//! E_op     = P_op · (m.tiles · m.vectors · t_symbol)  (active PE·s)
//! E_reset  = P_reset · PE·s                           (Table III's 53.3 mW line)
//! E_cache  = (reads + writes) · E_access
//! E_psum   = psums · E_psum
//! E_adc    = outputs · E_adc                          (0 for Trident)
//! E_mac    = MACs · E_extra_mac                       (0 for Trident)
//! ```
//!
//! Activation reset is charged as the standing power of Table III
//! (16 cells × 1 nJ / 300 ns = 53.3 mW per PE) over the streaming time:
//! GST recrystallization takes ~300 ns, so cells reset at the Table III
//! cycle rate, not once per 2.9 ns symbol. With this accounting the
//! per-PE operating power while streaming is exactly the paper's 0.11 W
//! steady state.

use crate::config::TridentConfig;
use crate::power::PePowerModel;
use trident_photonics::units::{count, EnergyPj, Hertz, Nanoseconds, PowerMw};
use trident_workload::dataflow::LayerMapping;
use trident_workload::model::ModelSpec;

/// Energy/latency of one layer, per inference.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPerf {
    /// Layer name.
    pub name: String,
    /// Wall-clock latency (streaming + amortized tuning).
    pub latency: Nanoseconds,
    /// Streaming-only portion of the latency.
    pub stream_latency: Nanoseconds,
    /// Amortized tuning portion of the latency.
    pub tune_latency: Nanoseconds,
    /// Weight-programming energy (amortized over the tuning batch).
    pub tuning_energy: EnergyPj,
    /// Volatile-tuning hold energy (zero for GST).
    pub hold_energy: EnergyPj,
    /// Operating energy of the active PEs (read probes, BPD+TIA, cache
    /// static, LDSU, E/O lasers, architecture extras).
    pub op_energy: EnergyPj,
    /// GST activation reset energy.
    pub reset_energy: EnergyPj,
    /// Cache traffic energy.
    pub cache_energy: EnergyPj,
    /// Electronic partial-sum accumulation energy.
    pub psum_energy: EnergyPj,
    /// ADC conversion energy (baselines only).
    pub adc_energy: EnergyPj,
    /// Extra per-MAC energy (baselines only).
    pub mac_energy: EnergyPj,
}

impl LayerPerf {
    /// Total energy of the layer per inference.
    pub fn energy(&self) -> EnergyPj {
        self.tuning_energy
            + self.hold_energy
            + self.op_energy
            + self.reset_energy
            + self.cache_energy
            + self.psum_energy
            + self.adc_energy
            + self.mac_energy
    }
}

/// Whole-model roll-up.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPerf {
    /// Model name.
    pub model_name: String,
    /// Per-layer results in network order.
    pub layers: Vec<LayerPerf>,
}

impl ModelPerf {
    /// End-to-end latency per inference.
    pub fn latency(&self) -> Nanoseconds {
        self.layers.iter().map(|l| l.latency).sum()
    }

    /// Total energy per inference.
    pub fn energy(&self) -> EnergyPj {
        self.layers.iter().map(LayerPerf::energy).sum()
    }

    /// Inferences per second (steady-state throughput).
    pub fn inferences_per_second(&self) -> f64 {
        self.inference_rate().value()
    }

    /// Steady-state inference throughput as a typed rate.
    pub fn inference_rate(&self) -> Hertz {
        Hertz(1.0 / self.latency().secs())
    }

    /// Energy per inference in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.energy().joules() * 1e3
    }

    /// Tuning energy share of the total.
    pub fn tuning_share(&self) -> f64 {
        let tuning: EnergyPj = self.layers.iter().map(|l| l.tuning_energy).sum();
        tuning / self.energy()
    }
}

/// The analytical performance model.
///
/// ```
/// use trident_arch::perf::TridentPerfModel;
/// use trident_workload::zoo;
///
/// let perf = TridentPerfModel::paper();
/// let analysis = perf.analyze(&zoo::googlenet());
/// assert!(analysis.inferences_per_second() > 1000.0);
/// assert!(analysis.energy_mj() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TridentPerfModel {
    /// Architecture under analysis.
    pub config: TridentConfig,
    /// Inputs streamed through each resident tile set before it is
    /// swapped (tuning amortization).
    pub tuning_batch: usize,
}

impl TridentPerfModel {
    /// The paper's operating point: batch-of-8 streaming.
    pub fn paper() -> Self {
        Self { config: TridentConfig::paper(), tuning_batch: 8 }
    }

    /// Model with an explicit config and batch.
    pub fn new(config: TridentConfig, tuning_batch: usize) -> Self {
        assert!(tuning_batch >= 1, "batch must be at least 1");
        Self { config, tuning_batch }
    }

    /// Operating power of one active PE while streaming (everything in
    /// Table III except tuning, which is charged per write).
    pub fn op_power_per_pe(&self) -> PowerMw {
        let c = &self.config;
        let read = PePowerModel::new(c).read_power();
        read + c.bpd_tia_power + c.cache_power + c.ldsu_power + c.eo_laser_power
            + c.extra_pe_power
    }

    /// Spatial replication factor for a layer occupying `tiles` tiles.
    pub fn replication(&self, tiles: u64) -> u64 {
        (self.config.pe_slots() / tiles.max(1)).max(1)
    }

    /// Analyse one mapped layer.
    pub fn analyze_layer(&self, m: &LayerMapping) -> LayerPerf {
        let c = &self.config;
        let b = count(self.tuning_batch);
        let symbol = c.symbol_time;
        let replication = self.replication(m.tiles);
        // Work-conserving schedule: the control unit may split any tile's
        // vector stream across idle PEs (replicating its weights), so the
        // wall-clock floor is total tile-vector work over the array.
        let total_work = m.tiles * m.vectors_per_tile;
        let stream_units = total_work.div_ceil(self.config.pe_slots());
        let stream_latency = symbol * count(stream_units);
        let tune_latency = c.tuning.write_time * count(m.passes) / b;
        // PE-time of streaming: every tile streams its vectors (the
        // replicas split the same vector set, so total PE·s is unchanged).
        let pe_time = Nanoseconds(count(total_work) * symbol.value());
        let hold_energy = if c.tuning.non_volatile {
            EnergyPj::ZERO
        } else {
            // A resistively held ring dissipates in proportion to its
            // detuning; averaged over trained weight distributions the
            // heater sits near half of full scale.
            const HOLD_DUTY: f64 = 0.5;
            (c.tuning.hold_power * HOLD_DUTY * count(c.mrrs_per_pe()))
                .for_duration(pe_time)
        };
        LayerPerf {
            name: m.layer_name.clone(),
            latency: stream_latency + tune_latency,
            stream_latency,
            tune_latency,
            tuning_energy: c.tuning.write_energy
                * (count(m.weight_writes) * count(replication) / b),
            hold_energy,
            op_energy: self.op_power_per_pe().for_duration(pe_time),
            // Table III's standing reset power: 16 cells × 1 nJ / 300 ns.
            reset_energy: PePowerModel::new(c).activation_reset_power().for_duration(pe_time),
            cache_energy: c.cache_access_energy
                * count(m.input_reads + m.output_writes),
            psum_energy: c.psum_energy * count(m.psum_accumulations),
            adc_energy: c.adc_energy * count(m.output_writes),
            mac_energy: c.extra_mac_energy * count(m.macs),
        }
    }

    /// Analyse a whole model.
    pub fn analyze(&self, model: &ModelSpec) -> ModelPerf {
        let mapping = self.config.dataflow().map_model(model);
        ModelPerf {
            model_name: model.name.clone(),
            layers: mapping.layers.iter().map(|m| self.analyze_layer(m)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_workload::zoo;

    fn model() -> TridentPerfModel {
        TridentPerfModel::paper()
    }

    #[test]
    fn vgg_latency_is_milliseconds() {
        let perf = model().analyze(&zoo::vgg16());
        let ms = perf.latency().millis();
        assert!(
            (2.0..20.0).contains(&ms),
            "VGG-16 inference should take a few ms on 44 PEs, got {ms} ms"
        );
    }

    #[test]
    fn inference_rates_are_ordered_by_model_size() {
        let m = model();
        let rate = |spec| m.analyze(&spec).inferences_per_second();
        let vgg = rate(zoo::vgg16());
        let resnet = rate(zoo::resnet50());
        let googlenet = rate(zoo::googlenet());
        let mobilenet = rate(zoo::mobilenet_v2());
        assert!(mobilenet > googlenet, "mobilenet {mobilenet} vs googlenet {googlenet}");
        assert!(googlenet > resnet, "googlenet {googlenet} vs resnet {resnet}");
        assert!(resnet > vgg, "resnet {resnet} vs vgg {vgg}");
    }

    #[test]
    fn trident_pays_no_hold_energy() {
        let perf = model().analyze(&zoo::alexnet());
        let hold: EnergyPj = perf.layers.iter().map(|l| l.hold_energy).sum();
        assert_eq!(hold, EnergyPj::ZERO);
    }

    #[test]
    fn thermal_variant_pays_hold_and_more_tuning() {
        let mut cfg = TridentConfig::paper();
        cfg.tuning = trident_photonics::tuning::TuningProfile::thermal();
        let thermal = TridentPerfModel::new(cfg, 8);
        let gst = model();
        let m = zoo::googlenet();
        let t = thermal.analyze(&m);
        let g = gst.analyze(&m);
        let hold: EnergyPj = t.layers.iter().map(|l| l.hold_energy).sum();
        assert!(hold.value() > 0.0, "thermal tuning holds weights with power");
        assert!(t.energy().value() > g.energy().value());
        assert!(t.latency().value() > g.latency().value(), "0.6 µs writes are slower");
    }

    #[test]
    fn bigger_batch_cuts_tuning_share() {
        let small = TridentPerfModel::new(TridentConfig::paper(), 1);
        let large = TridentPerfModel::new(TridentConfig::paper(), 64);
        let m = zoo::vgg16();
        assert!(small.analyze(&m).tuning_share() > large.analyze(&m).tuning_share());
        assert!(small.analyze(&m).latency().value() > large.analyze(&m).latency().value());
    }

    #[test]
    fn energy_is_additive_over_layers() {
        let perf = model().analyze(&zoo::mobilenet_v2());
        let sum: EnergyPj = perf.layers.iter().map(LayerPerf::energy).sum();
        assert!((sum.value() - perf.energy().value()).abs() < 1e-3);
        assert!(perf.energy().value() > 0.0);
    }

    #[test]
    fn adc_energy_is_zero_for_trident() {
        let perf = model().analyze(&zoo::alexnet());
        let adc: EnergyPj = perf.layers.iter().map(|l| l.adc_energy).sum();
        assert_eq!(adc, EnergyPj::ZERO, "the LDSU removes ADCs");
    }

    #[test]
    fn op_power_is_dominated_by_cache_and_read() {
        let p = model().op_power_per_pe();
        // 17.1 (read) + 12.1 (BPD/TIA) + 30 (cache) + small = ~59 mW.
        assert!((p.value() - 59.3).abs() < 1.0, "op power {p}");
    }

    #[test]
    fn more_pes_reduce_latency() {
        let mut big = TridentConfig::paper();
        big.num_pes = 88;
        let fast = TridentPerfModel::new(big, 8);
        let slow = model();
        let m = zoo::resnet50();
        assert!(fast.analyze(&m).latency().value() < slow.analyze(&m).latency().value());
    }
}
