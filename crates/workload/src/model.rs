//! Whole-network descriptions and cost roll-ups.

use crate::error::WorkloadError;
use crate::layer::{LayerKind, LayerSpec, TensorShape};

/// A network topology: an ordered list of layers with consistent shapes.
///
/// Branching topologies (inception modules, residual blocks) are recorded
/// *flattened*: every branch's layers appear in order, each carrying the
/// input shape it actually sees, followed by a merge layer (`Add` /
/// `Concat`). This loses nothing for cost analysis — MACs, parameters and
/// activation traffic are per-layer quantities — and matches how Maestro
/// consumes networks (a list of per-layer descriptors).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Model name as used in the paper's figures.
    pub name: String,
    /// Input activation shape (224×224×3 for the paper's evaluation).
    pub input: TensorShape,
    /// Flattened layer list.
    pub layers: Vec<LayerSpec>,
}

impl ModelSpec {
    /// Create an empty model with an input shape.
    pub fn new(name: impl Into<String>, input: TensorShape) -> Self {
        Self { name: name.into(), input, layers: Vec::new() }
    }

    /// Total MACs for one inference.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(LayerSpec::macs).sum()
    }

    /// Total trainable parameters.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(LayerSpec::params).sum()
    }

    /// Total output activations written across layers (one inference).
    pub fn total_activations(&self) -> u64 {
        self.layers.iter().map(LayerSpec::output_activations).sum()
    }

    /// MAC layers only (what maps onto weight banks).
    pub fn mac_layers(&self) -> impl Iterator<Item = &LayerSpec> {
        self.layers.iter().filter(|l| l.is_mac_layer())
    }

    /// Number of MAC layers.
    pub fn mac_layer_count(&self) -> usize {
        self.mac_layers().count()
    }

    /// Operations per inference counting one MAC as two ops
    /// (multiply + accumulate), the convention behind "TOPS".
    pub fn total_ops(&self) -> u64 {
        2 * self.total_macs()
    }

    /// Arithmetic intensity in MACs per byte moved, assuming 8-bit weights
    /// and activations each touched once: the roofline x-coordinate that
    /// separates compute-bound networks (VGG's convolutions) from
    /// memory-bound ones (its fully connected layers).
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = (self.total_params() + self.total_activations()) as f64;
        if bytes == 0.0 {
            return 0.0;
        }
        self.total_macs() as f64 / bytes
    }

    /// Validate structural sanity: non-empty, unique layer names, and
    /// positive shapes everywhere. Returns a typed [`WorkloadError`] naming
    /// the offender on failure (the builders uphold these by construction;
    /// this guards hand-assembled specs).
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.layers.is_empty() {
            return Err(WorkloadError::EmptyModel { model: self.name.clone() });
        }
        let mut seen = std::collections::BTreeSet::new();
        for layer in &self.layers {
            if !seen.insert(layer.name.as_str()) {
                return Err(WorkloadError::DuplicateLayer {
                    model: self.name.clone(),
                    layer: layer.name.clone(),
                });
            }
            let out = layer.output();
            if out.c == 0 || out.h == 0 || out.w == 0 {
                return Err(WorkloadError::EmptyLayerOutput {
                    model: self.name.clone(),
                    layer: layer.name.clone(),
                });
            }
        }
        Ok(())
    }
}

/// Builder that threads activation shapes through a growing layer list.
///
/// `current_shape`/`set_shape` snapshot and restore the running shape so
/// inception/residual side paths can be described.
///
/// ```
/// use trident_workload::layer::TensorShape;
/// use trident_workload::model::ModelBuilder;
///
/// let mut b = ModelBuilder::new("toy", TensorShape::new(3, 32, 32));
/// b.conv("stem", 16, 3, 1, 1).maxpool("pool", 2, 2).dense("head", 10);
/// let model = b.build();
/// assert_eq!(model.mac_layer_count(), 2);
/// assert_eq!(model.total_params(), 16 * 27 + 10 * 16 * 16 * 16);
/// ```
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    model: ModelSpec,
    current: TensorShape,
}

impl ModelBuilder {
    /// Start building a model from an input shape.
    pub fn new(name: impl Into<String>, input: TensorShape) -> Self {
        Self { model: ModelSpec::new(name, input), current: input }
    }

    /// The shape flowing out of the last layer added.
    pub fn current_shape(&self) -> TensorShape {
        self.current
    }

    /// Rewind the running shape to a saved branch point.
    pub fn set_shape(&mut self, shape: TensorShape) {
        self.current = shape;
    }

    /// Append a layer whose input is the current shape.
    pub fn push(&mut self, name: impl Into<String>, kind: LayerKind) -> &mut Self {
        let spec = LayerSpec { name: name.into(), kind, input: self.current };
        self.current = spec.output();
        self.model.layers.push(spec);
        self
    }

    /// Standard convolution helper.
    pub fn conv(
        &mut self,
        name: impl Into<String>,
        out_c: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> &mut Self {
        self.push(name, LayerKind::Conv2d { out_c, kernel, stride, padding, groups: 1 })
    }

    /// Grouped/depthwise convolution helper.
    pub fn conv_grouped(
        &mut self,
        name: impl Into<String>,
        out_c: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> &mut Self {
        self.push(name, LayerKind::Conv2d { out_c, kernel, stride, padding, groups })
    }

    /// Max-pool helper.
    pub fn maxpool(&mut self, name: impl Into<String>, size: usize, stride: usize) -> &mut Self {
        self.push(name, LayerKind::MaxPool { size, stride, padding: 0 })
    }

    /// Multi-head self-attention helper (token sequence as `c = d_model`,
    /// `h = seq`, `w = 1`; shape-preserving).
    pub fn self_attention(&mut self, name: impl Into<String>, heads: usize, causal: bool) -> &mut Self {
        self.push(name, LayerKind::SelfAttention { heads, causal })
    }

    /// Row-wise LayerNorm helper (shape-preserving, digital LDSU path).
    pub fn layer_norm(&mut self, name: impl Into<String>) -> &mut Self {
        self.push(name, LayerKind::LayerNorm)
    }

    /// Dense helper.
    pub fn dense(&mut self, name: impl Into<String>, out_features: usize) -> &mut Self {
        // Dense layers consume the flattened activation.
        self.current = self.current.flattened();
        self.push(name, LayerKind::Dense { out_features })
    }

    /// Finish and validate: every consecutive pair of layers must agree on
    /// shapes (by construction they do; the check guards hand edits).
    pub fn build(self) -> ModelSpec {
        let mut shape = self.model.input;
        for layer in &self.model.layers {
            let expected = if matches!(layer.kind, LayerKind::Dense { .. }) {
                shape.flattened()
            } else {
                shape
            };
            assert_eq!(
                layer.input, expected,
                "layer {} input {:?} disagrees with running shape {:?}",
                layer.name, layer.input, expected
            );
            shape = layer.output();
        }
        self.model
    }

    /// Finish without the linear-chain validation (for models with
    /// branches, where flattened side paths legitimately break the chain).
    pub fn build_branched(self) -> ModelSpec {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_threads_shapes() {
        let mut b = ModelBuilder::new("toy", TensorShape::new(3, 32, 32));
        b.conv("c1", 8, 3, 1, 1).maxpool("p1", 2, 2).dense("fc", 10);
        let m = b.build();
        assert_eq!(m.layers.len(), 3);
        assert_eq!(m.layers[1].input, TensorShape::new(8, 32, 32));
        assert_eq!(m.layers[2].input, TensorShape::new(8 * 16 * 16, 1, 1));
        assert_eq!(m.total_params(), 8 * 27 + 10 * 8 * 16 * 16);
    }

    #[test]
    fn rollups_sum_layers() {
        let mut b = ModelBuilder::new("toy", TensorShape::new(1, 8, 8));
        b.conv("c1", 4, 3, 1, 1).dense("fc", 10);
        let m = b.build();
        let per_layer: u64 = m.layers.iter().map(|l| l.macs()).sum();
        assert_eq!(m.total_macs(), per_layer);
        assert_eq!(m.total_ops(), 2 * per_layer);
        assert_eq!(m.mac_layer_count(), 2);
    }

    #[test]
    #[should_panic]
    fn build_rejects_inconsistent_chain() {
        let mut b = ModelBuilder::new("bad", TensorShape::new(3, 32, 32));
        b.conv("c1", 8, 3, 1, 1);
        let mut m = b.build();
        // Corrupt the recorded input shape, then re-validate via a fresh
        // builder round-trip.
        m.layers[0].input = TensorShape::new(5, 32, 32);
        let rebuilt = ModelBuilder { model: m.clone(), current: m.input };
        let _ = rebuilt.build();
    }

    #[test]
    fn validate_accepts_zoo_and_rejects_duplicates() {
        for m in crate::zoo::paper_models() {
            assert!(m.validate().is_ok(), "{} failed validation", m.name);
        }
        let mut b = ModelBuilder::new("dup", TensorShape::new(1, 8, 8));
        b.conv("same", 4, 3, 1, 1).conv("same", 4, 3, 1, 1);
        let m = b.build();
        let err = m.validate().unwrap_err();
        assert_eq!(
            err,
            crate::error::WorkloadError::DuplicateLayer { model: "dup".into(), layer: "same".into() }
        );
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn arithmetic_intensity_orders_conv_above_dense() {
        let mut b = ModelBuilder::new("conv", TensorShape::new(3, 32, 32));
        b.conv("conv", 16, 3, 1, 1);
        let conv = b.build().arithmetic_intensity();
        let mut b = ModelBuilder::new("fc", TensorShape::new(3, 32, 32));
        b.dense("fc", 10);
        let fc = b.build().arithmetic_intensity();
        // Convs reuse each weight across all output positions; dense
        // layers touch each weight exactly once.
        assert!(conv > 10.0 * fc, "conv {conv} vs fc {fc}");
        assert!(fc > 0.0 && fc < 1.1, "dense intensity is at most ~1 MAC/byte: {fc}");
    }

    #[test]
    fn branch_snapshot_and_restore() {
        let mut b = ModelBuilder::new("branchy", TensorShape::new(16, 28, 28));
        let fork = b.current_shape();
        b.conv("branch_a", 32, 3, 1, 1);
        let a_out = b.current_shape();
        b.set_shape(fork);
        b.conv("branch_b", 8, 1, 1, 0);
        assert_eq!(a_out, TensorShape::new(32, 28, 28));
        assert_eq!(b.current_shape(), TensorShape::new(8, 28, 28));
    }
}
