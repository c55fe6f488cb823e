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
        let mut y = [0.0; 16];
        b.iter(|| {
            pe.mvm_unsigned_into(black_box(&x), &mut y);
            black_box(&y);
        })
    });
    c.bench_function("pe_mvm_signed_16x16", |b| {
        let mut pe = ProcessingElement::new(16, 16, None);
        pe.program(&weights);
        let x: Vec<f64> = (0..16).map(|i| (i as f64 - 8.0) / 8.0).collect();
        let mut y = [0.0; 16];
        b.iter(|| {
            pe.mvm_signed_into(black_box(&x), &mut y);
            black_box(&y);
        })
    });
    c.bench_function("pe_outer_product_16x16", |b| {
        let mut pe = ProcessingElement::new(16, 16, None);
        let dh: Vec<f64> = (0..16).map(|i| (i as f64 - 8.0) / 8.0).collect();
        let y: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
        let mut grad = [0.0; 256];
        b.iter(|| {
            pe.outer_product(black_box(&dh), black_box(&y), |i, j, p| grad[i * 16 + j] = p);
            black_box(&grad);
        })
    });
    // One in-situ update cycle on a PE that holds a full W: an outer
    // product whose `y` alternates between two vectors, so its row is
    // written every time (a repeated `y` is a write-memo no-op), then the
    // Eq. 1 update's reprogram of W.
    c.bench_function("pe_outer_product_write_16x16", |b| {
        let mut pe = ProcessingElement::new(16, 16, None);
        pe.program(&weights);
        let dh: Vec<f64> = (0..16).map(|i| (i as f64 - 8.0) / 8.0).collect();
        let ys: [Vec<f64>; 2] = [
            (0..16).map(|i| i as f64 / 16.0).collect(),
            (0..16).map(|i| (i as f64 - 16.0) / 16.0).collect(),
        ];
        let mut grad = [0.0; 256];
        let mut toggle = false;
        b.iter(|| {
            toggle = !toggle;
            let y = &ys[usize::from(toggle)];
            pe.outer_product(black_box(&dh), black_box(y), |i, j, p| grad[i * 16 + j] = p);
            pe.program(&weights);
            black_box(&grad);
        })
    });
    c.bench_function("pe_latch_and_activate", |b| {
        let mut pe = ProcessingElement::new(16, 16, None);
        let h: Vec<f64> = (0..16).map(|i| (i as f64 - 4.0) / 4.0).collect();
        let mut act = [0.0; 16];
        b.iter(|| {
            pe.latch_and_activate(black_box(&h), &mut act);
            black_box(&act);
        })
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
}

/// The executor-backed path: the fidelity sweep runs its trials on the
/// pool and scales with `TRIDENT_THREADS`, so its median is the pool's
/// speedup gauge — compare BENCH_results.json between
/// `TRIDENT_THREADS=1` and the core count.
fn parallel_paths(c: &mut Criterion) {
    use trident::arch::fidelity;
    c.bench_function("fidelity_enob_16x16_24trials", |b| {
        b.iter(|| black_box(fidelity::measure(16, 16, 24, true, 7)))
    });
}

criterion_group!(benches, pe_modes, engine_passes, conv_engine, parallel_paths);
criterion_main!(benches);
