//! Deployment planning: how a network physically lands on a Trident chip.
//!
//! The paper's §III-A dataflow pre-programs weights and forwards layer
//! outputs PE-to-PE. For networks bigger than the array, the control unit
//! must schedule tile residency, check that activations fit the caches,
//! and know what a full reprogramming cycle costs. [`DeploymentPlan`]
//! answers those questions for any [`ModelSpec`] + [`TridentConfig`]
//! pair — the API a downstream user calls before committing a model to
//! the device.

use crate::config::TridentConfig;
use trident_photonics::units::{EnergyPj, Nanoseconds};
use trident_workload::dataflow::ModelMapping;
use trident_workload::layer::LayerSpec;
use trident_workload::model::ModelSpec;

/// Residency classification of one layer's activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Output fits one PE's private L1.
    L1,
    /// Output fits the shared L2.
    L2,
    /// Output spills to external memory (extra energy/latency the edge
    /// deployment should avoid).
    External,
}

/// Per-layer plan entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlan {
    /// Layer name.
    pub name: String,
    /// Weight tiles the layer occupies.
    pub tiles: u64,
    /// Whether the layer's weights stay resident for the whole run
    /// (enough spare tile slots) or must be swapped in per pass.
    pub weights_resident: bool,
    /// Activation residency of the layer's output.
    pub residency: Residency,
    /// Output bytes (8-bit activations).
    pub output_bytes: u64,
}

/// A complete deployment plan.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentPlan {
    /// Model name.
    pub model_name: String,
    /// Per-layer entries, network order.
    pub layers: Vec<LayerPlan>,
    /// Total weight tiles demanded by the model.
    pub total_tiles: u64,
    /// Tile slots the chip offers (one per PE).
    pub tile_slots: u64,
    /// Energy to program the whole network once.
    pub full_program_energy: EnergyPj,
    /// Wall-clock time to program the whole network once (tiles are
    /// written `num_pes` at a time, all rings of a bank in parallel).
    pub full_program_time: Nanoseconds,
    /// Peak single-layer activation bytes.
    pub peak_activation_bytes: u64,
}

impl DeploymentPlan {
    /// True when every weight of the network fits on-chip simultaneously
    /// (the paper's "one PE per layer" regime).
    pub fn fully_resident(&self) -> bool {
        self.total_tiles <= self.tile_slots
    }

    /// Fraction of layers whose activations never leave the caches.
    pub fn cache_contained_fraction(&self) -> f64 {
        if self.layers.is_empty() {
            return 1.0;
        }
        let contained = self
            .layers
            .iter()
            .filter(|l| l.residency != Residency::External)
            .count();
        contained as f64 / self.layers.len() as f64
    }
}

/// Plan a deployment of `model` onto `config`.
pub fn plan(config: &TridentConfig, model: &ModelSpec) -> DeploymentPlan {
    let mapping: ModelMapping = config.dataflow().map_model(model);
    let tile_slots = config.num_pes as u64;
    let mut remaining_slots = tile_slots;

    // Activation residency needs the *layer* shapes, which the mapping
    // strips; walk the model alongside its MAC layers.
    let mac_layers: Vec<&LayerSpec> = model.mac_layers().collect();
    assert_eq!(mac_layers.len(), mapping.layers.len());

    let mut layers = Vec::with_capacity(mapping.layers.len());
    let mut peak_activation_bytes = 0u64;
    for (m, spec) in mapping.layers.iter().zip(&mac_layers) {
        let output_bytes = spec.output_activations(); // 8-bit activations
        peak_activation_bytes = peak_activation_bytes.max(output_bytes);
        let residency = if output_bytes <= config.l1_bytes as u64 {
            Residency::L1
        } else if output_bytes <= config.l2_bytes as u64 {
            Residency::L2
        } else {
            Residency::External
        };
        // Greedy residency: earlier layers claim slots first (they run
        // first and stream the most input traffic).
        let weights_resident = m.tiles <= remaining_slots;
        if weights_resident {
            remaining_slots -= m.tiles;
        }
        layers.push(LayerPlan {
            name: m.layer_name.clone(),
            tiles: m.tiles,
            weights_resident,
            residency,
            output_bytes,
        });
    }

    let total_tiles = mapping.total_tiles();
    let program_batches = total_tiles.div_ceil(tile_slots);
    DeploymentPlan {
        model_name: model.name.clone(),
        layers,
        total_tiles,
        tile_slots,
        full_program_energy: config.tuning.write_energy
            * mapping.total_weight_writes() as f64,
        full_program_time: config.tuning.write_time * program_batches as f64,
        peak_activation_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_workload::layer::TensorShape;
    use trident_workload::model::ModelBuilder;
    use trident_workload::zoo;

    fn tiny_model() -> ModelSpec {
        let mut b = ModelBuilder::new("tiny", TensorShape::new(16, 1, 1));
        b.dense("fc1", 16).dense("fc2", 10);
        b.build()
    }

    #[test]
    fn tiny_model_is_fully_resident() {
        let plan = plan(&TridentConfig::paper(), &tiny_model());
        assert!(plan.fully_resident());
        assert!(plan.layers.iter().all(|l| l.weights_resident));
        assert_eq!(plan.cache_contained_fraction(), 1.0);
        assert_eq!(plan.total_tiles, 2);
    }

    #[test]
    fn vgg_overflows_the_array() {
        let plan = plan(&TridentConfig::paper(), &zoo::vgg16());
        assert!(!plan.fully_resident(), "138M params cannot fit 44×256 weights");
        assert!(plan.total_tiles > 100_000);
        // The first conv fits while slots remain; the giant FCs do not.
        assert!(plan.layers.first().unwrap().weights_resident);
        assert!(!plan.layers.last().unwrap().weights_resident);
    }

    #[test]
    fn programming_cost_matches_params() {
        let config = TridentConfig::paper();
        let model = zoo::alexnet();
        let p = plan(&config, &model);
        let expected = config.tuning.write_energy * model.total_params() as f64;
        assert!((p.full_program_energy.value() - expected.value()).abs() < 1.0);
        assert!(p.full_program_time.value() > 0.0);
    }

    #[test]
    fn activation_residency_tiers() {
        let plan = plan(&TridentConfig::paper(), &zoo::vgg16());
        // conv1_1 output: 64×224×224 = 3.2 MB → L2 (fits 32 MB, not 16 kB).
        let conv1 = plan.layers.iter().find(|l| l.name == "conv1_1").unwrap();
        assert_eq!(conv1.residency, Residency::L2);
        // fc8 output: 1000 bytes → L1.
        let fc8 = plan.layers.iter().find(|l| l.name == "fc8").unwrap();
        assert_eq!(fc8.residency, Residency::L1);
        // Nothing in the paper's workloads spills beyond L2.
        assert_eq!(plan.cache_contained_fraction(), 1.0);
    }

    #[test]
    fn peak_activation_tracks_biggest_layer() {
        let p = plan(&TridentConfig::paper(), &zoo::vgg16());
        assert_eq!(p.peak_activation_bytes, 64 * 224 * 224);
    }

    #[test]
    fn all_paper_models_stay_cache_contained() {
        // The §IV claim that the 16 kB + 32 MB hierarchy handles the
        // evaluation workloads without external spills.
        let config = TridentConfig::paper();
        for model in zoo::paper_models() {
            let p = plan(&config, &model);
            assert_eq!(p.cache_contained_fraction(), 1.0, "{} spills activations", model.name);
        }
    }
}
