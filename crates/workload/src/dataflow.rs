//! Weight-stationary dataflow mapping (the Maestro-substitute core).
//!
//! §IV of the paper: "a weight stationary dataflow is used." Each MAC
//! layer is lowered to matrix form ([`crate::layer::GemmView`]) and tiled
//! onto J×N weight banks spread across P processing elements:
//!
//! * every weight tile is programmed **once** per inference pass and all
//!   of its input vectors stream through before the bank is re-tuned
//!   (that is what "weight stationary" buys: tuning amortizes over the
//!   layer's full output extent);
//! * tiles execute `P` at a time — one pass per `P` tiles;
//! * column-tiled layers need electronic partial-sum accumulation, which
//!   is charged separately because it is exactly the traffic the paper's
//!   LDSU/activation design avoids *between* layers but not *within* a
//!   column-split layer.

use crate::layer::LayerSpec;
use crate::model::ModelSpec;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// PE-array geometry a workload is mapped onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataflowModel {
    /// Weight-bank rows per PE (J).
    pub bank_rows: usize,
    /// Weight-bank columns per PE (N) — the WDM channel count.
    pub bank_cols: usize,
    /// Number of PEs tiling in parallel.
    pub num_pes: usize,
}

impl DataflowModel {
    /// Trident's evaluated configuration: 44 PEs × (16×16 = 256 MRRs).
    pub const fn trident_paper() -> Self {
        Self { bank_rows: 16, bank_cols: 16, num_pes: 44 }
    }

    /// MRRs in one PE's weight bank.
    pub fn mrrs_per_pe(&self) -> usize {
        self.bank_rows * self.bank_cols
    }

    /// Map one MAC layer onto the array.
    ///
    /// Returns `None` for layers without a GEMM view (pool/merge layers).
    pub fn map_layer(&self, layer: &LayerSpec) -> Option<LayerMapping> {
        let g = layer.gemm_view()?;
        let row_tiles = g.rows.div_ceil(self.bank_rows) as u64;
        let col_tiles = g.cols.div_ceil(self.bank_cols) as u64;
        let tiles = if g.groups > 1
            && g.cols <= self.bank_cols
            && g.rows <= self.bank_rows
        {
            // Channel packing for grouped/depthwise convolutions: each
            // group's receptive field occupies only `cols` of the bank's N
            // WDM channels, and different channels carry independent data,
            // so several groups share one tile's channel space (their rows
            // are disjoint too). Capacity is channel-bound:
            // `⌈groups·cols / N⌉` tiles instead of `groups`.
            (g.groups * g.cols).div_ceil(self.bank_cols) as u64
        } else {
            g.groups as u64 * row_tiles * col_tiles
        };
        let passes = tiles.div_ceil(self.num_pes as u64);
        let vectors = g.vectors as u64;
        let outputs = g.groups as u64 * g.rows as u64 * vectors;
        Some(LayerMapping {
            layer_name: layer.name.clone(),
            macs: layer.macs(),
            tiles,
            passes,
            vectors_per_tile: vectors,
            weight_writes: layer.params(),
            input_reads: g.groups as u64 * row_tiles * vectors * g.cols as u64,
            output_writes: outputs,
            psum_accumulations: outputs * (col_tiles - 1),
            activation_events: outputs,
        })
    }

    /// Map every MAC layer of a model (in parallel — models have dozens of
    /// layers and callers sweep many models × architectures). The
    /// filter-map keeps layer order, so mappings are identical at any
    /// thread count.
    pub fn map_model(&self, model: &ModelSpec) -> ModelMapping {
        let _span = if trident_obs::enabled() {
            trident_obs::span_owned(format!("dataflow.map_model.{}", model.name))
        } else {
            trident_obs::SpanGuard::disabled()
        };
        let layers: Vec<LayerMapping> =
            model.layers.par_iter().filter_map(|l| self.map_layer(l)).collect();
        trident_obs::add(trident_obs::Counter::DataflowLayersMapped, layers.len() as u64);
        trident_obs::add(
            trident_obs::Counter::DataflowTilesMapped,
            layers.iter().map(|l| l.tiles).sum(),
        );
        ModelMapping { model_name: model.name.clone(), layers }
    }
}

/// Cost counters for one layer under the mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerMapping {
    /// Layer name from the model spec.
    pub layer_name: String,
    /// MACs performed.
    pub macs: u64,
    /// Weight tiles occupied.
    pub tiles: u64,
    /// Sequential passes over the PE array (`ceil(tiles / P)`).
    pub passes: u64,
    /// Input vectors streamed through each tile.
    pub vectors_per_tile: u64,
    /// Weight programming events (one per parameter).
    pub weight_writes: u64,
    /// Activation elements read from cache.
    pub input_reads: u64,
    /// Output elements produced.
    pub output_writes: u64,
    /// Electronic partial-sum additions for column-split tiles.
    pub psum_accumulations: u64,
    /// Nonlinear activation firings (one per output element).
    pub activation_events: u64,
}

/// A whole model's mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelMapping {
    /// Model name.
    pub model_name: String,
    /// Per-MAC-layer mappings in network order.
    pub layers: Vec<LayerMapping>,
}

impl ModelMapping {
    /// Sum of a per-layer counter.
    fn total(&self, f: impl Fn(&LayerMapping) -> u64) -> u64 {
        self.layers.iter().map(f).sum()
    }

    /// Total MACs.
    pub fn total_macs(&self) -> u64 {
        self.total(|l| l.macs)
    }

    /// Total tiles across layers.
    pub fn total_tiles(&self) -> u64 {
        self.total(|l| l.tiles)
    }

    /// Total array passes.
    pub fn total_passes(&self) -> u64 {
        self.total(|l| l.passes)
    }

    /// Total weight writes.
    pub fn total_weight_writes(&self) -> u64 {
        self.total(|l| l.weight_writes)
    }

    /// Total activation firings.
    pub fn total_activation_events(&self) -> u64 {
        self.total(|l| l.activation_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{LayerKind, TensorShape};
    use crate::zoo;

    fn dense_layer(out: usize, inp: usize) -> LayerSpec {
        LayerSpec {
            name: "fc".into(),
            kind: LayerKind::Dense { out_features: out },
            input: TensorShape::new(inp, 1, 1),
        }
    }

    #[test]
    fn exact_fit_needs_one_tile() {
        let df = DataflowModel { bank_rows: 16, bank_cols: 16, num_pes: 4 };
        let m = df.map_layer(&dense_layer(16, 16)).unwrap();
        assert_eq!(m.tiles, 1);
        assert_eq!(m.passes, 1);
        assert_eq!(m.vectors_per_tile, 1);
        assert_eq!(m.weight_writes, 256);
        assert_eq!(m.psum_accumulations, 0, "single column tile needs no psum");
    }

    #[test]
    fn oversize_layer_tiles_and_passes() {
        let df = DataflowModel { bank_rows: 16, bank_cols: 16, num_pes: 4 };
        // 40×40 weights → 3×3 = 9 tiles → 3 passes on 4 PEs.
        let m = df.map_layer(&dense_layer(40, 40)).unwrap();
        assert_eq!(m.tiles, 9);
        assert_eq!(m.passes, 3);
        // Column split by 3 → 2 accumulations per output.
        assert_eq!(m.psum_accumulations, 40 * 2);
    }

    #[test]
    fn conv_vectors_are_output_positions() {
        let df = DataflowModel::trident_paper();
        let conv = LayerSpec {
            name: "c".into(),
            kind: LayerKind::Conv2d { out_c: 16, kernel: 3, stride: 1, padding: 1, groups: 1 },
            input: TensorShape::new(16, 28, 28),
        };
        let m = df.map_layer(&conv).unwrap();
        assert_eq!(m.vectors_per_tile, 28 * 28);
        // 16 rows fit; 144 cols → 9 col tiles.
        assert_eq!(m.tiles, 9);
        assert_eq!(m.output_writes, 16 * 28 * 28);
    }

    #[test]
    fn grouped_conv_multiplies_tiles() {
        let df = DataflowModel { bank_rows: 16, bank_cols: 16, num_pes: 44 };
        let shape = TensorShape::new(32, 14, 14);
        let grouped = LayerSpec {
            name: "dw".into(),
            kind: LayerKind::Conv2d { out_c: 32, kernel: 3, stride: 1, padding: 1, groups: 32 },
            input: shape,
        };
        let m = df.map_layer(&grouped).unwrap();
        // Channel packing: 32 groups × 9 taps = 288 channel-slots over
        // 16-channel banks → 18 tiles (not 32 one-per-group).
        assert_eq!(m.tiles, 18);
        assert_eq!(m.weight_writes, 32 * 9);
    }

    #[test]
    fn non_mac_layers_do_not_map() {
        let df = DataflowModel::trident_paper();
        let pool = LayerSpec {
            name: "p".into(),
            kind: LayerKind::MaxPool { size: 2, stride: 2, padding: 0 },
            input: TensorShape::new(64, 56, 56),
        };
        assert!(df.map_layer(&pool).is_none());
    }

    #[test]
    fn mapping_conserves_macs() {
        let df = DataflowModel::trident_paper();
        for model in zoo::paper_models() {
            let mapping = df.map_model(&model);
            assert_eq!(
                mapping.total_macs(),
                model.total_macs(),
                "{} MAC conservation",
                model.name
            );
            assert_eq!(
                mapping.total_weight_writes(),
                model.total_params(),
                "{} every weight programmed exactly once",
                model.name
            );
        }
    }

    #[test]
    fn passes_scale_down_with_more_pes() {
        let small = DataflowModel { bank_rows: 16, bank_cols: 16, num_pes: 8 };
        let large = DataflowModel { bank_rows: 16, bank_cols: 16, num_pes: 44 };
        let model = zoo::vgg16();
        assert!(
            small.map_model(&model).total_passes() > large.map_model(&model).total_passes()
        );
    }

    #[test]
    fn vgg_mapping_magnitudes_are_sane() {
        let df = DataflowModel::trident_paper();
        let m = df.map_model(&vgg_model());
        // VGG-16 has 138M params → 138M weight writes; tiles in the
        // hundreds of thousands (138M / 256 ≈ 540k).
        let tiles = m.total_tiles();
        assert!(tiles > 400_000 && tiles < 800_000, "tiles {tiles}");
        fn vgg_model() -> crate::model::ModelSpec {
            crate::zoo::vgg16()
        }
    }
}
