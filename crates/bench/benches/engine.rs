//! Criterion benchmarks of the functional engine: photonic forward
//! passes, in-situ training steps, and the PE operating modes.


#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use trident::arch::engine::{EngineOptions, PhotonicMlp};
use trident::arch::pe::ProcessingElement;

fn pe_modes(c: &mut Criterion) {
    let weights: Vec<f64> = (0..256).map(|i| ((i % 17) as f64 / 8.5) - 1.0).collect();
    c.bench_function("pe_mvm_unsigned_16x16", |b| {
        let mut pe = ProcessingElement::new(16, 16, None);
        pe.program(&weights);
        let x: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
        b.iter(|| black_box(pe.mvm_unsigned(black_box(&x))))
    });
    c.bench_function("pe_mvm_signed_16x16", |b| {
        let mut pe = ProcessingElement::new(16, 16, None);
        pe.program(&weights);
        let x: Vec<f64> = (0..16).map(|i| (i as f64 - 8.0) / 8.0).collect();
        b.iter(|| black_box(pe.mvm_signed(black_box(&x))))
    });
    c.bench_function("pe_outer_product_16x16", |b| {
        let mut pe = ProcessingElement::new(16, 16, None);
        let dh: Vec<f64> = (0..16).map(|i| (i as f64 - 8.0) / 8.0).collect();
        let y: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
        b.iter(|| black_box(pe.outer_product(black_box(&dh), black_box(&y))))
    });
    c.bench_function("pe_latch_and_activate", |b| {
        let mut pe = ProcessingElement::new(16, 16, None);
        let h: Vec<f64> = (0..16).map(|i| (i as f64 - 4.0) / 4.0).collect();
        b.iter(|| black_box(pe.latch_and_activate(black_box(&h))))
    });
}

fn engine_passes(c: &mut Criterion) {
    c.bench_function("mlp_forward_64_16_10", |b| {
        let opts = EngineOptions { seed: 1, ..Default::default() };
        let mut engine = PhotonicMlp::try_with_options(&[64, 16, 10], opts).unwrap();
        let x: Vec<f64> = (0..64).map(|i| (i % 7) as f64 / 7.0).collect();
        b.iter(|| black_box(engine.try_forward(black_box(&x)).unwrap()))
    });
    c.bench_function("mlp_train_sample_64_16_10", |b| {
        let opts = EngineOptions { seed: 1, ..Default::default() };
        let mut engine = PhotonicMlp::try_with_options(&[64, 16, 10], opts).unwrap();
        let x: Vec<f64> = (0..64).map(|i| (i % 7) as f64 / 7.0).collect();
        b.iter(|| black_box(engine.try_train_sample(black_box(&x), 3, 0.05).unwrap()))
    });
}

fn conv_engine(c: &mut Criterion) {
    use trident::arch::conv_engine::PhotonicCnn;
    c.bench_function("cnn_forward_8x8_digit", |b| {
        let mut cnn = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 1, 8);
        let image: Vec<f64> = (0..64).map(|i| ((i * 5) % 9) as f64 / 9.0).collect();
        b.iter(|| black_box(cnn.forward(black_box(&image))))
    });
    // The digital conv reference, im2col + blocked GEMM vs per-pixel
    // loops, at a 16×16 image where the patch matrix is tall enough for
    // the blocked kernel's tiling to pay for the im2col copy.
    c.bench_function("cnn_forward_im2col_gemm", |b| {
        let cnn = PhotonicCnn::new(1, 16, 16, 16, 3, 10, 1, 8);
        let image: Vec<f64> = (0..256).map(|i| ((i * 5) % 9) as f64 / 9.0).collect();
        b.iter(|| black_box(cnn.digital_forward(black_box(&image))))
    });
    c.bench_function("cnn_forward_naive", |b| {
        let cnn = PhotonicCnn::new(1, 16, 16, 16, 3, 10, 1, 8);
        let image: Vec<f64> = (0..256).map(|i| ((i * 5) % 9) as f64 / 9.0).collect();
        b.iter(|| black_box(cnn.digital_forward_naive(black_box(&image))))
    });
}

/// The executor-backed hot paths: these scale with `TRIDENT_THREADS` and
/// are the speedup gauges for the multi-threaded pool (ISSUE 4) — compare
/// BENCH_results.json between `TRIDENT_THREADS=1` and the core count.
fn parallel_paths(c: &mut Criterion) {
    use trident::arch::fidelity;
    use trident::nn::linalg;
    use trident::nn::tensor::Tensor;
    c.bench_function("fidelity_enob_16x16_24trials", |b| {
        b.iter(|| black_box(fidelity::measure(16, 16, 24, true, 7)))
    });
    c.bench_function("nn_matmul_96x96x96", |b| {
        let a = Tensor::from_vec(
            &[96, 96],
            (0..96 * 96).map(|i| ((i % 23) as f32 - 11.0) / 11.0).collect(),
        );
        let w = Tensor::from_vec(
            &[96, 96],
            (0..96 * 96).map(|i| ((i % 17) as f32 - 8.0) / 8.0).collect(),
        );
        b.iter(|| black_box(linalg::matmul(black_box(&a), black_box(&w))))
    });
    c.bench_function("nn_matvec_256x256", |b| {
        let a = Tensor::from_vec(
            &[256, 256],
            (0..256 * 256).map(|i| ((i % 19) as f32 - 9.0) / 9.0).collect(),
        );
        let x: Vec<f32> = (0..256).map(|i| (i % 7) as f32 / 7.0).collect();
        b.iter(|| black_box(linalg::matvec(black_box(&a), black_box(&x))))
    });
}

criterion_group!(benches, pe_modes, engine_passes, conv_engine, parallel_paths);
criterion_main!(benches);
