//! The five CNNs of the paper's evaluation, shape-exact.
//!
//! §IV: "We evaluate the performance of Trident on CNN models GoogleNet,
//! MobileNet, VGG-16, AlexNet, and ResNet-50 … The image input to each of
//! these CNN models is assumed to have dimensions of 224×224×3."
//!
//! Topologies follow the original publications; branching blocks are
//! flattened per [`crate::model::ModelSpec`]'s convention. Tests pin the
//! aggregate MAC/parameter counts against the published values.

use crate::error::WorkloadError;
use crate::layer::{LayerKind, TensorShape};
use crate::model::{ModelBuilder, ModelSpec};

/// The paper's 224×224 RGB input.
pub const INPUT_224: TensorShape = TensorShape::new(3, 224, 224);

/// AlexNet (Krizhevsky 2012): 5 convolutions (two grouped) + 3 dense.
pub fn alexnet() -> ModelSpec {
    let mut b = ModelBuilder::new("AlexNet", INPUT_224);
    b.conv("conv1", 96, 11, 4, 2)
        .maxpool("pool1", 3, 2)
        .conv_grouped("conv2", 256, 5, 1, 2, 2)
        .maxpool("pool2", 3, 2)
        .conv("conv3", 384, 3, 1, 1)
        .conv_grouped("conv4", 384, 3, 1, 1, 2)
        .conv_grouped("conv5", 256, 3, 1, 1, 2)
        .maxpool("pool5", 3, 2)
        .dense("fc6", 4096)
        .dense("fc7", 4096)
        .dense("fc8", 1000);
    b.build()
}

/// VGG-16 (Simonyan & Zisserman 2014): 13 3×3 convolutions + 3 dense.
pub fn vgg16() -> ModelSpec {
    let mut b = ModelBuilder::new("VGG-16", INPUT_224);
    let blocks: &[(usize, usize)] = &[(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
    for (stage, &(channels, convs)) in blocks.iter().enumerate() {
        for c in 0..convs {
            b.conv(format!("conv{}_{}", stage + 1, c + 1), channels, 3, 1, 1);
        }
        b.maxpool(format!("pool{}", stage + 1), 2, 2);
    }
    b.dense("fc6", 4096).dense("fc7", 4096).dense("fc8", 1000);
    b.build()
}

/// One GoogleNet inception module.
///
/// Branches: 1×1; 1×1→3×3; 1×1→5×5; 3×3 maxpool→1×1 projection.
#[allow(clippy::too_many_arguments)]
fn inception(
    b: &mut ModelBuilder,
    name: &str,
    c1: usize,
    c3r: usize,
    c3: usize,
    c5r: usize,
    c5: usize,
    pool_proj: usize,
) {
    let fork = b.current_shape();
    b.conv(format!("{name}_1x1"), c1, 1, 1, 0);
    b.set_shape(fork);
    b.conv(format!("{name}_3x3_reduce"), c3r, 1, 1, 0)
        .conv(format!("{name}_3x3"), c3, 3, 1, 1);
    b.set_shape(fork);
    b.conv(format!("{name}_5x5_reduce"), c5r, 1, 1, 0)
        .conv(format!("{name}_5x5"), c5, 5, 1, 2);
    b.set_shape(fork);
    b.push(format!("{name}_pool"), LayerKind::MaxPool { size: 3, stride: 1, padding: 1 })
        .conv(format!("{name}_pool_proj"), pool_proj, 1, 1, 0);
    // Running shape is the pool-proj branch; concat appends the others.
    b.push(format!("{name}_concat"), LayerKind::Concat { extra_c: c1 + c3 + c5 });
}

/// GoogleNet / Inception-v1 (Szegedy 2015): stem + 9 inception modules.
pub fn googlenet() -> ModelSpec {
    let mut b = ModelBuilder::new("GoogleNet", INPUT_224);
    b.conv("conv1", 64, 7, 2, 3)
        .push("pool1", LayerKind::MaxPool { size: 3, stride: 2, padding: 1 })
        .conv("conv2_reduce", 64, 1, 1, 0)
        .conv("conv2", 192, 3, 1, 1)
        .push("pool2", LayerKind::MaxPool { size: 3, stride: 2, padding: 1 });
    inception(&mut b, "3a", 64, 96, 128, 16, 32, 32);
    inception(&mut b, "3b", 128, 128, 192, 32, 96, 64);
    b.push("pool3", LayerKind::MaxPool { size: 3, stride: 2, padding: 1 });
    inception(&mut b, "4a", 192, 96, 208, 16, 48, 64);
    inception(&mut b, "4b", 160, 112, 224, 24, 64, 64);
    inception(&mut b, "4c", 128, 128, 256, 24, 64, 64);
    inception(&mut b, "4d", 112, 144, 288, 32, 64, 64);
    inception(&mut b, "4e", 256, 160, 320, 32, 128, 128);
    b.push("pool4", LayerKind::MaxPool { size: 3, stride: 2, padding: 1 });
    inception(&mut b, "5a", 256, 160, 320, 32, 128, 128);
    inception(&mut b, "5b", 384, 192, 384, 48, 128, 128);
    b.push("gap", LayerKind::GlobalAvgPool).dense("fc", 1000);
    b.build_branched()
}

/// One ResNet-v1 bottleneck: 1×1 (stride) → 3×3 → 1×1, plus shortcut.
fn bottleneck(b: &mut ModelBuilder, name: &str, mid: usize, out: usize, stride: usize) {
    let fork = b.current_shape();
    let project = stride != 1 || fork.c != out;
    b.conv(format!("{name}_1x1a"), mid, 1, stride, 0)
        .conv(format!("{name}_3x3"), mid, 3, 1, 1)
        .conv(format!("{name}_1x1b"), out, 1, 1, 0);
    let main_out = b.current_shape();
    if project {
        b.set_shape(fork);
        b.conv(format!("{name}_proj"), out, 1, stride, 0);
    }
    b.set_shape(main_out);
    b.push(format!("{name}_add"), LayerKind::Add);
}

/// ResNet-50 (He 2015): stem + (3, 4, 6, 3) bottleneck stages.
pub fn resnet50() -> ModelSpec {
    let mut b = ModelBuilder::new("ResNet-50", INPUT_224);
    b.conv("conv1", 64, 7, 2, 3)
        .push("pool1", LayerKind::MaxPool { size: 3, stride: 2, padding: 1 });
    let stages: &[(usize, usize, usize, usize)] =
        &[(64, 256, 3, 1), (128, 512, 4, 2), (256, 1024, 6, 2), (512, 2048, 3, 2)];
    for (s, &(mid, out, blocks, first_stride)) in stages.iter().enumerate() {
        for blk in 0..blocks {
            let stride = if blk == 0 { first_stride } else { 1 };
            bottleneck(&mut b, &format!("res{}_{}", s + 2, blk), mid, out, stride);
        }
    }
    b.push("gap", LayerKind::GlobalAvgPool).dense("fc", 1000);
    b.build_branched()
}

/// One MobileNetV2 inverted residual block.
fn inverted_residual(b: &mut ModelBuilder, name: &str, expand: usize, out: usize, stride: usize) {
    let fork = b.current_shape();
    let hidden = fork.c * expand;
    if expand != 1 {
        b.conv(format!("{name}_expand"), hidden, 1, 1, 0);
    }
    b.conv_grouped(format!("{name}_dw"), hidden, 3, stride, 1, hidden)
        .conv(format!("{name}_project"), out, 1, 1, 0);
    if stride == 1 && fork.c == out {
        b.push(format!("{name}_add"), LayerKind::Add);
    }
}

/// MobileNetV2 (Sandler 2018): depthwise-separable inverted residuals.
pub fn mobilenet_v2() -> ModelSpec {
    let mut b = ModelBuilder::new("MobileNetV2", INPUT_224);
    b.conv("conv1", 32, 3, 2, 1);
    // (expansion t, output channels c, repeats n, first stride s)
    let blocks: &[(usize, usize, usize, usize)] = &[
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    for (g, &(t, c, n, s)) in blocks.iter().enumerate() {
        for i in 0..n {
            let stride = if i == 0 { s } else { 1 };
            inverted_residual(&mut b, &format!("block{}_{}", g + 1, i), t, c, stride);
        }
    }
    b.conv("conv_last", 1280, 1, 1, 0)
        .push("gap", LayerKind::GlobalAvgPool)
        .dense("fc", 1000);
    b.build_branched()
}

/// All five evaluation models in the order the paper's figures use.
pub fn paper_models() -> Vec<ModelSpec> {
    vec![alexnet(), vgg16(), googlenet(), mobilenet_v2(), resnet50()]
}

/// LeNet-5 (LeCun 1998): not in the paper's evaluation, but the classic
/// tiny edge workload — small enough to be fully weight-resident on a
/// 44-PE Trident, which makes it the natural demo for the §III-A
/// "pre-program everything once" regime.
pub fn lenet5() -> ModelSpec {
    let mut b = ModelBuilder::new("LeNet-5", TensorShape::new(1, 32, 32));
    b.conv("c1", 6, 5, 1, 0)
        .push("s2", LayerKind::AvgPool { size: 2, stride: 2 })
        .conv("c3", 16, 5, 1, 0)
        .push("s4", LayerKind::AvgPool { size: 2, stride: 2 })
        .conv("c5", 120, 5, 1, 0)
        .dense("f6", 84)
        .dense("output", 10);
    b.build()
}

/// ViT-Tiny (Touvron 2021, DeiT-Ti): 16×16 patch embed on 224×224 →
/// 196 tokens at `d_model = 192`, 12 pre-norm encoder blocks with 3
/// heads and a 4× MLP, mean-pool head to 1000 classes.
///
/// Token sequences ride the CNN shape convention as `c = d_model`,
/// `h = seq`, `w = 1`, so every projection is a 1×1 convolution whose
/// `gemm_view` streams `seq` vectors — the photonic mapping works
/// unchanged. The class token is folded into mean pooling (196 tokens,
/// not 197), which keeps the counts within ~1% of the published 1.26
/// GMACs / 5.7M parameters.
pub fn vit_tiny() -> ModelSpec {
    let (d_model, heads, depth, d_ff) = (192, 3, 12, 768);
    let mut b = ModelBuilder::new("ViT-Tiny", INPUT_224);
    b.conv("patch_embed", d_model, 16, 16, 0);
    // 14×14 patch grid → a 196-token sequence.
    let grid = b.current_shape();
    b.set_shape(TensorShape::new(d_model, grid.h * grid.w, 1));
    for blk in 0..depth {
        transformer_block(&mut b, &format!("blk{blk}"), heads, false, d_ff);
    }
    b.layer_norm("ln_final")
        .push("pool", LayerKind::GlobalAvgPool)
        .dense("head", 1000);
    b.build_branched()
}

/// A small GPT-style decoder: 6 pre-norm causal blocks at
/// `d_model = 256`, 4 heads, 4× MLP, 256-token context, 4096-entry
/// vocabulary head. Sized for the edge-serving regime (≈1.7 GMACs per
/// full-context forward) rather than any published checkpoint, so the
/// tests pin its counts by closed form instead of literature values.
/// Token/position embedding lookups are table reads, not MACs, and are
/// omitted — the same convention the CNN zoo uses for input handling.
pub fn gpt_decoder() -> ModelSpec {
    let (d_model, heads, depth, d_ff, seq, vocab) = (256, 4, 6, 1024, 256, 4096);
    let mut b = ModelBuilder::new("GPT-Decoder", TensorShape::new(d_model, seq, 1));
    for blk in 0..depth {
        transformer_block(&mut b, &format!("blk{blk}"), heads, true, d_ff);
    }
    // Per-token LM head = another 1×1 projection over the sequence.
    b.layer_norm("ln_final").conv("lm_head", vocab, 1, 1, 0);
    b.build()
}

/// One pre-norm transformer block: LN → QKV projections → attention
/// core → output projection → residual → LN → FFN → residual.
fn transformer_block(b: &mut ModelBuilder, name: &str, heads: usize, causal: bool, d_ff: usize) {
    let d_model = b.current_shape().c;
    b.layer_norm(format!("{name}_ln1"))
        .conv(format!("{name}_q"), d_model, 1, 1, 0)
        .conv(format!("{name}_k"), d_model, 1, 1, 0)
        .conv(format!("{name}_v"), d_model, 1, 1, 0)
        .self_attention(format!("{name}_attn"), heads, causal)
        .conv(format!("{name}_proj"), d_model, 1, 1, 0)
        .push(format!("{name}_res1"), LayerKind::Add)
        .layer_norm(format!("{name}_ln2"))
        .conv(format!("{name}_ffn1"), d_ff, 1, 1, 0)
        .conv(format!("{name}_ffn2"), d_model, 1, 1, 0)
        .push(format!("{name}_res2"), LayerKind::Add);
}

/// The two transformer workloads, in Table IV/V row order.
pub fn transformer_models() -> Vec<ModelSpec> {
    vec![vit_tiny(), gpt_decoder()]
}

/// Canonical lookup keys [`try_by_name`] accepts (aliases not listed).
pub const KNOWN_MODELS: &[&str] =
    &["alexnet", "vgg16", "googlenet", "mobilenetv2", "resnet50", "lenet5", "vittiny", "gptdecoder"];

/// Look a model up by a user-facing name (case/punctuation-insensitive).
/// An unknown name comes back as a typed error that lists the models the
/// zoo does know.
pub fn try_by_name(name: &str) -> Result<ModelSpec, WorkloadError> {
    let key: String =
        name.chars().filter(|c| c.is_ascii_alphanumeric()).collect::<String>().to_lowercase();
    match key.as_str() {
        "alexnet" => Ok(alexnet()),
        "vgg16" => Ok(vgg16()),
        "googlenet" => Ok(googlenet()),
        "mobilenetv2" | "mobilenet" => Ok(mobilenet_v2()),
        "resnet50" => Ok(resnet50()),
        "lenet5" | "lenet" => Ok(lenet5()),
        "vittiny" | "vit" | "deitti" => Ok(vit_tiny()),
        "gptdecoder" | "gpt" => Ok(gpt_decoder()),
        _ => Err(WorkloadError::UnknownModel { name: name.to_string() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Assert `value` lies within `tol` (relative) of `expected`.
    fn within(value: u64, expected: u64, tol: f64, what: &str) {
        let rel = (value as f64 - expected as f64).abs() / expected as f64;
        assert!(
            rel <= tol,
            "{what}: got {value}, expected ~{expected} (off by {:.1}%)",
            rel * 100.0
        );
    }

    #[test]
    fn alexnet_counts_match_publication() {
        let m = alexnet();
        within(m.total_params(), 61_000_000, 0.03, "AlexNet params");
        within(m.total_macs(), 724_000_000, 0.05, "AlexNet MACs");
        assert_eq!(m.mac_layer_count(), 8);
    }

    #[test]
    fn vgg16_counts_match_publication() {
        let m = vgg16();
        within(m.total_params(), 138_000_000, 0.02, "VGG-16 params");
        within(m.total_macs(), 15_470_000_000, 0.02, "VGG-16 MACs");
        assert_eq!(m.mac_layer_count(), 16);
    }

    #[test]
    fn googlenet_counts_match_publication() {
        let m = googlenet();
        within(m.total_params(), 7_000_000, 0.10, "GoogleNet params");
        within(m.total_macs(), 1_580_000_000, 0.10, "GoogleNet MACs");
        // conv1 + conv2_reduce + conv2 + 9 modules × 6 convs + fc = 58.
        assert_eq!(m.mac_layer_count(), 58);
    }

    #[test]
    fn resnet50_counts_match_publication() {
        let m = resnet50();
        within(m.total_params(), 25_500_000, 0.03, "ResNet-50 params");
        // ResNet-50 v1 (stride on the first 1×1): ~3.86 GMACs.
        within(m.total_macs(), 3_860_000_000, 0.10, "ResNet-50 MACs");
    }

    #[test]
    fn mobilenetv2_counts_match_publication() {
        let m = mobilenet_v2();
        within(m.total_params(), 3_400_000, 0.10, "MobileNetV2 params");
        within(m.total_macs(), 300_000_000, 0.10, "MobileNetV2 MACs");
    }

    #[test]
    fn googlenet_shapes_follow_the_paper_table() {
        let m = googlenet();
        // Find the 3a concat: output must be 256×28×28.
        let concat = m.layers.iter().find(|l| l.name == "3a_concat").unwrap();
        assert_eq!(concat.output(), TensorShape::new(256, 28, 28));
        let concat5b = m.layers.iter().find(|l| l.name == "5b_concat").unwrap();
        assert_eq!(concat5b.output(), TensorShape::new(1024, 7, 7));
    }

    #[test]
    fn resnet50_final_shape_is_2048() {
        let m = resnet50();
        let gap = m.layers.iter().find(|l| l.name == "gap").unwrap();
        assert_eq!(gap.input, TensorShape::new(2048, 7, 7));
    }

    #[test]
    fn mobilenet_final_shape_is_1280() {
        let m = mobilenet_v2();
        let gap = m.layers.iter().find(|l| l.name == "gap").unwrap();
        assert_eq!(gap.input, TensorShape::new(1280, 7, 7));
    }

    #[test]
    fn paper_models_order_and_count() {
        let models = paper_models();
        let names: Vec<_> = models.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["AlexNet", "VGG-16", "GoogleNet", "MobileNetV2", "ResNet-50"]);
    }

    #[test]
    fn parameter_ordering_matches_the_paper() {
        // §V-B: "from 4 million for GoogleNet to 138 million for VGG-16"
        // (the 4M figure counts only a subset; the ordering is what
        // matters): MobileNetV2 < GoogleNet < ResNet-50 < AlexNet < VGG-16.
        let p = |m: &ModelSpec| m.total_params();
        let (a, v, g, mb, r) =
            (p(&alexnet()), p(&vgg16()), p(&googlenet()), p(&mobilenet_v2()), p(&resnet50()));
        assert!(mb < g && g < r && r < a && a < v);
    }

    #[test]
    fn lenet5_counts_match_publication() {
        let m = lenet5();
        // LeNet-5 conv+fc weights ≈ 61k parameters.
        within(m.total_params(), 61_000, 0.05, "LeNet-5 params");
        assert_eq!(m.mac_layer_count(), 5);
        // c5 collapses 16×5×5 to 120×1×1.
        let c5 = m.layers.iter().find(|l| l.name == "c5").unwrap();
        assert_eq!(c5.output(), TensorShape::new(120, 1, 1));
    }

    #[test]
    fn vit_tiny_counts_match_publication() {
        let m = vit_tiny();
        // DeiT-Ti: ~5.7M parameters, ~1.26 GMACs at 224².
        within(m.total_params(), 5_700_000, 0.02, "ViT-Tiny params");
        within(m.total_macs(), 1_260_000_000, 0.02, "ViT-Tiny MACs");
        // Patch embed + 12 × (q,k,v,attn,proj,ffn1,ffn2) + head = 86.
        assert_eq!(m.mac_layer_count(), 86);
        let attn = m.layers.iter().find(|l| l.name == "blk0_attn").unwrap();
        assert_eq!(attn.input, TensorShape::new(192, 196, 1));
        assert_eq!(attn.macs(), 2 * 192 * 196 * 196);
    }

    #[test]
    fn gpt_decoder_counts_match_closed_form() {
        let m = gpt_decoder();
        let (d, ff, seq, vocab, depth) = (256u64, 1024u64, 256u64, 4096u64, 6u64);
        // Per block: 4 projections + 2 FFN GEMMs + the attention core.
        let block_macs = 4 * d * d * seq + 2 * d * ff * seq + 2 * d * seq * seq;
        let block_params = 4 * d * d + 2 * d * ff + 2 * 2 * d;
        assert_eq!(m.total_macs(), depth * block_macs + vocab * d * seq);
        assert_eq!(m.total_params(), depth * block_params + 2 * d + vocab * d);
        // Every attention layer is causal.
        for l in &m.layers {
            if let LayerKind::SelfAttention { causal, heads } = l.kind {
                assert!(causal);
                assert_eq!(heads, 4);
            }
        }
    }

    #[test]
    fn transformer_models_order_and_names() {
        let names: Vec<_> =
            transformer_models().iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, vec!["ViT-Tiny", "GPT-Decoder"]);
        for m in transformer_models() {
            m.validate().unwrap();
        }
    }

    #[test]
    fn transformer_zoo_keys_resolve() {
        assert_eq!(try_by_name("ViT-Tiny").unwrap().name, "ViT-Tiny");
        assert_eq!(try_by_name("vit").unwrap().name, "ViT-Tiny");
        assert_eq!(try_by_name("gpt-decoder").unwrap().name, "GPT-Decoder");
        assert_eq!(try_by_name("GPT").unwrap().name, "GPT-Decoder");
    }

    #[test]
    fn try_by_name_resolves_aliases() {
        assert_eq!(try_by_name("VGG-16").unwrap().name, "VGG-16");
        assert_eq!(try_by_name("mobilenetv2").unwrap().name, "MobileNetV2");
        assert_eq!(try_by_name("ResNet-50").unwrap().name, "ResNet-50");
        assert_eq!(try_by_name("lenet").unwrap().name, "LeNet-5");
        assert!(try_by_name("transformer").is_err());
    }

    #[test]
    fn try_by_name_reports_unknown_models_with_suggestions() {
        assert_eq!(try_by_name("VGG-16").unwrap().name, "VGG-16");
        let err = try_by_name("transformer").unwrap_err();
        assert_eq!(err, WorkloadError::UnknownModel { name: "transformer".into() });
        let msg = err.to_string();
        assert!(msg.contains("vgg16") && msg.contains("resnet50"), "{msg}");
    }

    #[test]
    fn vgg_dominates_macs() {
        let macs = |m: &ModelSpec| m.total_macs();
        assert!(macs(&vgg16()) > macs(&resnet50()));
        assert!(macs(&resnet50()) > macs(&googlenet()));
        assert!(macs(&googlenet()) > macs(&mobilenet_v2()));
    }
}
