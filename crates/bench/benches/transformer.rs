//! Criterion benchmarks of the transformer workloads (DESIGN.md §16):
//! the photonic ViT/GPT engines. The `gpt_decode_token` median is the
//! per-token serving figure the KV cache exists to protect — compare it
//! against `gpt_prefill`, the full-context causal recompute that a
//! cache-free decoder would pay per token.

#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use trident::arch::transformer::{PhotonicTransformer, TransformerConfig};

fn photonic_transformers(c: &mut Criterion) {
    c.bench_function("vit_forward", |b| {
        let cfg = TransformerConfig::tiny_vit();
        let x: Vec<f64> = (0..cfg.input_width()).map(|i| ((i % 13) as f64 - 6.0) / 6.0).collect();
        let mut vit = PhotonicTransformer::try_new(cfg).unwrap();
        b.iter(|| black_box(vit.try_forward_classify(black_box(&x)).unwrap()))
    });
    c.bench_function("gpt_decode_token", |b| {
        let cfg = TransformerConfig::tiny_gpt();
        let token: Vec<f64> = (0..cfg.d_model).map(|i| ((i % 7) as f64 - 3.0) / 3.0).collect();
        let max_seq = cfg.max_seq;
        let mut gpt = PhotonicTransformer::try_new(cfg).unwrap();
        b.iter(|| {
            if gpt.cache_len() == max_seq {
                gpt.reset_cache();
            }
            black_box(gpt.try_decode_token(black_box(&token)).unwrap())
        })
    });
    c.bench_function("gpt_prefill", |b| {
        let cfg = TransformerConfig::tiny_gpt();
        let x: Vec<f64> = (0..cfg.input_width()).map(|i| ((i % 7) as f64 - 3.0) / 3.0).collect();
        let mut gpt = PhotonicTransformer::try_new(cfg).unwrap();
        b.iter(|| black_box(gpt.try_forward_causal(black_box(&x)).unwrap()))
    });
}

criterion_group!(benches, photonic_transformers);
criterion_main!(benches);
