//! Typed layer specifications and shape arithmetic.

/// A `channels × height × width` activation shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorShape {
    /// Channel count.
    pub c: usize,
    /// Height in pixels.
    pub h: usize,
    /// Width in pixels.
    pub w: usize,
}

impl TensorShape {
    /// Construct a shape.
    pub const fn new(c: usize, h: usize, w: usize) -> Self {
        Self { c, h, w }
    }

    /// Total element count.
    pub fn volume(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Flattened 1-D shape (for dense layers).
    pub fn flattened(&self) -> Self {
        Self { c: self.volume(), h: 1, w: 1 }
    }
}

/// What a layer does, with the parameters that decide its cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv2d {
        /// Output channels.
        out_c: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on each side.
        padding: usize,
        /// Channel groups (`groups == in_c` is a depthwise convolution).
        groups: usize,
    },
    /// Fully connected layer.
    Dense {
        /// Output features.
        out_features: usize,
    },
    /// Max pooling.
    MaxPool {
        /// Window size.
        size: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on each side.
        padding: usize,
    },
    /// Average pooling.
    AvgPool {
        /// Window size.
        size: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling to `c × 1 × 1`.
    GlobalAvgPool,
    /// Element-wise residual addition (merges a skip branch).
    Add,
    /// Channel concatenation of parallel branches; `extra_c` channels are
    /// contributed by the other branches.
    Concat {
        /// Channels appended by the side branches.
        extra_c: usize,
    },
    /// Multi-head self-attention over a token sequence encoded as
    /// `c = d_model`, `h = seq`, `w = 1`. The QKV/output projections are
    /// separate 1×1 [`LayerKind::Conv2d`] layers; this kind covers only
    /// the attention core (`Q·Kᵀ` scores and `probs·V` context), which
    /// streams through the photonic array with *dynamic* operands — the
    /// K/V writes are KV-cache traffic, not trainable parameters.
    SelfAttention {
        /// Attention heads (`d_model` must be divisible by this).
        heads: usize,
        /// Causal (decoder) masking. Costs assume full-array streaming —
        /// the mask is applied digitally, not by skipping MVM work.
        causal: bool,
    },
    /// Row-wise LayerNorm over tokens (`c = d_model` features per token).
    /// Executes on the digital LDSU path: zero photonic MACs, `2·c`
    /// affine parameters (gain and shift).
    LayerNorm,
}

/// One layer instance: its kind plus the input shape it sees.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Human-readable layer name (unique within a model).
    pub name: String,
    /// Layer kind and parameters.
    pub kind: LayerKind,
    /// The activation shape entering this layer.
    pub input: TensorShape,
}

impl LayerSpec {
    /// Output activation shape.
    pub fn output(&self) -> TensorShape {
        let i = self.input;
        match self.kind {
            LayerKind::Conv2d { out_c, kernel, stride, padding, groups } => {
                assert!(i.c.is_multiple_of(groups), "{}: channels {} not divisible by groups {groups}", self.name, i.c);
                assert!(out_c % groups == 0, "{}: out_c {out_c} not divisible by groups {groups}", self.name);
                let h = (i.h + 2 * padding - kernel) / stride + 1;
                let w = (i.w + 2 * padding - kernel) / stride + 1;
                TensorShape::new(out_c, h, w)
            }
            LayerKind::Dense { out_features } => TensorShape::new(out_features, 1, 1),
            LayerKind::MaxPool { size, stride, padding } => {
                let h = (i.h + 2 * padding - size) / stride + 1;
                let w = (i.w + 2 * padding - size) / stride + 1;
                TensorShape::new(i.c, h, w)
            }
            LayerKind::AvgPool { size, stride } => {
                let h = (i.h - size) / stride + 1;
                let w = (i.w - size) / stride + 1;
                TensorShape::new(i.c, h, w)
            }
            LayerKind::GlobalAvgPool => TensorShape::new(i.c, 1, 1),
            LayerKind::Add => i,
            LayerKind::Concat { extra_c } => TensorShape::new(i.c + extra_c, i.h, i.w),
            LayerKind::SelfAttention { heads, .. } => {
                assert!(heads > 0 && i.c.is_multiple_of(heads), "{}: d_model {} not divisible by heads {heads}", self.name, i.c);
                i
            }
            LayerKind::LayerNorm => i,
        }
    }

    /// Multiply-accumulate operations for one inference.
    pub fn macs(&self) -> u64 {
        let i = self.input;
        match self.kind {
            LayerKind::Conv2d { out_c, kernel, groups, .. } => {
                let o = self.output();
                let per_output = (i.c / groups) * kernel * kernel;
                (out_c as u64) * (o.h as u64) * (o.w as u64) * per_output as u64
            }
            LayerKind::Dense { out_features } => (out_features as u64) * (i.volume() as u64),
            // Scores (seq·seq·d_head per head) + context (seq·seq·d_head
            // per head) = 2 · d_model · seq² regardless of head count.
            LayerKind::SelfAttention { .. } => 2 * (i.c as u64) * (i.h as u64) * (i.h as u64),
            // Pooling/merge/normalisation layers do adds, not weight MACs.
            _ => 0,
        }
    }

    /// Trainable parameter count (weights only; the photonic PEs are
    /// bias-free, matching the paper's MRR weight banks).
    pub fn params(&self) -> u64 {
        let i = self.input;
        match self.kind {
            LayerKind::Conv2d { out_c, kernel, groups, .. } => {
                (out_c as u64) * ((i.c / groups) as u64) * (kernel as u64) * (kernel as u64)
            }
            LayerKind::Dense { out_features } => (out_features as u64) * (i.volume() as u64),
            // Attention weights are the *activations* of the same pass
            // (K/V written at run time = cache traffic, not parameters).
            LayerKind::SelfAttention { .. } => 0,
            LayerKind::LayerNorm => 2 * i.c as u64,
            _ => 0,
        }
    }

    /// Output activation element count (memory traffic per inference).
    pub fn output_activations(&self) -> u64 {
        self.output().volume() as u64
    }

    /// True for layers that perform MACs on a weight bank.
    pub fn is_mac_layer(&self) -> bool {
        matches!(
            self.kind,
            LayerKind::Conv2d { .. } | LayerKind::Dense { .. } | LayerKind::SelfAttention { .. }
        )
    }

    /// The GEMM view of a MAC layer: `(rows, cols, vectors, groups)` where
    /// the weight matrix is `rows × cols` per group and `vectors` input
    /// vectors stream through each tile (= output spatial positions for a
    /// convolution, 1 for a dense layer).
    ///
    /// Returns `None` for non-MAC layers.
    pub fn gemm_view(&self) -> Option<GemmView> {
        let i = self.input;
        match self.kind {
            LayerKind::Conv2d { out_c, kernel, groups, .. } => {
                let o = self.output();
                Some(GemmView {
                    rows: out_c / groups,
                    cols: (i.c / groups) * kernel * kernel,
                    vectors: o.h * o.w,
                    groups,
                })
            }
            LayerKind::Dense { out_features } => Some(GemmView {
                rows: out_features,
                cols: i.volume(),
                vectors: 1,
                groups: 1,
            }),
            // Per head: the score GEMM is seq×d_head weights (K) streamed
            // by seq queries, and the context GEMM is the mirror-image
            // d_head×seq (Vᵀ) streamed by seq probability rows — two
            // same-cost tile groups per head, hence `2·heads` groups of a
            // seq×d_head tile walked by seq vectors.
            LayerKind::SelfAttention { heads, .. } => Some(GemmView {
                rows: i.h,
                cols: i.c / heads,
                vectors: i.h,
                groups: 2 * heads,
            }),
            _ => None,
        }
    }
}

/// A MAC layer lowered to matrix form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmView {
    /// Weight-matrix rows per group (output channels / features).
    pub rows: usize,
    /// Weight-matrix columns per group (receptive-field size).
    pub cols: usize,
    /// Input vectors streamed per tile (output positions).
    pub vectors: usize,
    /// Independent channel groups.
    pub groups: usize,
}

impl GemmView {
    /// Sanity identity: MACs = groups · rows · cols · vectors.
    pub fn macs(&self) -> u64 {
        self.groups as u64 * self.rows as u64 * self.cols as u64 * self.vectors as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(
        input: TensorShape,
        out_c: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> LayerSpec {
        LayerSpec {
            name: "test".into(),
            kind: LayerKind::Conv2d { out_c, kernel, stride, padding, groups },
            input,
        }
    }

    #[test]
    fn conv_output_shape_standard() {
        // VGG-style 3×3 pad-1 conv preserves spatial size.
        let l = conv(TensorShape::new(3, 224, 224), 64, 3, 1, 1, 1);
        assert_eq!(l.output(), TensorShape::new(64, 224, 224));
    }

    #[test]
    fn conv_output_shape_strided() {
        // ResNet stem: 7×7 stride 2 pad 3 on 224 → 112.
        let l = conv(TensorShape::new(3, 224, 224), 64, 7, 2, 3, 1);
        assert_eq!(l.output(), TensorShape::new(64, 112, 112));
    }

    #[test]
    fn conv_macs_known_value() {
        // VGG-16 conv1_1: 64 × 224² × (3·3·3) = 86.7M MACs.
        let l = conv(TensorShape::new(3, 224, 224), 64, 3, 1, 1, 1);
        assert_eq!(l.macs(), 64 * 224 * 224 * 27);
        assert_eq!(l.params(), 64 * 27);
    }

    #[test]
    fn depthwise_conv_costs_divide_by_groups() {
        let shape = TensorShape::new(32, 112, 112);
        let full = conv(shape, 32, 3, 1, 1, 1);
        let depthwise = conv(shape, 32, 3, 1, 1, 32);
        assert_eq!(full.macs() / depthwise.macs(), 32);
        assert_eq!(full.params() / depthwise.params(), 32);
        assert_eq!(full.output(), depthwise.output());
    }

    #[test]
    fn dense_macs_equal_params() {
        let l = LayerSpec {
            name: "fc".into(),
            kind: LayerKind::Dense { out_features: 1000 },
            input: TensorShape::new(2048, 1, 1),
        };
        assert_eq!(l.macs(), 2_048_000);
        assert_eq!(l.params(), 2_048_000);
        assert_eq!(l.output(), TensorShape::new(1000, 1, 1));
    }

    #[test]
    fn pool_layers_have_no_macs() {
        let p = LayerSpec {
            name: "pool".into(),
            kind: LayerKind::MaxPool { size: 3, stride: 2, padding: 0 },
            input: TensorShape::new(64, 112, 112),
        };
        assert_eq!(p.macs(), 0);
        assert_eq!(p.params(), 0);
        assert_eq!(p.output(), TensorShape::new(64, 55, 55));
    }

    #[test]
    fn merge_layers_shape_arithmetic() {
        let add = LayerSpec {
            name: "add".into(),
            kind: LayerKind::Add,
            input: TensorShape::new(256, 56, 56),
        };
        assert_eq!(add.output(), add.input);
        let cat = LayerSpec {
            name: "cat".into(),
            kind: LayerKind::Concat { extra_c: 128 },
            input: TensorShape::new(64, 28, 28),
        };
        assert_eq!(cat.output(), TensorShape::new(192, 28, 28));
    }

    #[test]
    fn gemm_view_macs_identity() {
        let l = conv(TensorShape::new(3, 224, 224), 96, 11, 4, 2, 1);
        let g = l.gemm_view().unwrap();
        assert_eq!(g.macs(), l.macs());
        let d = LayerSpec {
            name: "fc".into(),
            kind: LayerKind::Dense { out_features: 10 },
            input: TensorShape::new(64, 1, 1),
        };
        let g = d.gemm_view().unwrap();
        assert_eq!(g.vectors, 1);
        assert_eq!(g.macs(), d.macs());
    }

    #[test]
    fn self_attention_costs_and_gemm_view() {
        // ViT-tiny shape: d_model 192, 196 tokens, 3 heads.
        let a = LayerSpec {
            name: "attn".into(),
            kind: LayerKind::SelfAttention { heads: 3, causal: false },
            input: TensorShape::new(192, 196, 1),
        };
        assert_eq!(a.output(), a.input);
        assert_eq!(a.macs(), 2 * 192 * 196 * 196);
        assert_eq!(a.params(), 0, "K/V writes are cache traffic, not parameters");
        assert!(a.is_mac_layer());
        let g = a.gemm_view().unwrap();
        assert_eq!((g.rows, g.cols, g.vectors, g.groups), (196, 64, 196, 6));
        assert_eq!(g.macs(), a.macs());
    }

    #[test]
    fn causal_attention_same_streamed_cost() {
        // The mask is applied digitally; the array streams the full
        // score rectangle either way.
        let mk = |causal| LayerSpec {
            name: "attn".into(),
            kind: LayerKind::SelfAttention { heads: 4, causal },
            input: TensorShape::new(256, 64, 1),
        };
        assert_eq!(mk(true).macs(), mk(false).macs());
        assert_eq!(mk(true).gemm_view(), mk(false).gemm_view());
    }

    #[test]
    fn layer_norm_is_digital_only() {
        let ln = LayerSpec {
            name: "ln".into(),
            kind: LayerKind::LayerNorm,
            input: TensorShape::new(256, 16, 1),
        };
        assert_eq!(ln.output(), ln.input);
        assert_eq!(ln.macs(), 0);
        assert_eq!(ln.params(), 512);
        assert!(!ln.is_mac_layer());
        assert!(ln.gemm_view().is_none());
    }

    #[test]
    fn global_pool_flattens_spatial() {
        let g = LayerSpec {
            name: "gap".into(),
            kind: LayerKind::GlobalAvgPool,
            input: TensorShape::new(1280, 7, 7),
        };
        assert_eq!(g.output(), TensorShape::new(1280, 1, 1));
        assert!(g.gemm_view().is_none());
    }
}
