//! Criterion microbenchmarks of the photonic device substrate: ring
//! transfer evaluation, weight-LUT calibration, bank construction and
//! programming, and the cached optical matrix-vector product, plain,
//! batched and with the statistical device layer — the hot paths of the
//! functional simulator.


#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use trident::arch::bank::WeightBank;
use trident::pcm::gst::GstParameters;
use trident::pcm::stat::StatParams;
use trident::pcm::weight::WeightLut;
use trident::photonics::mrr::{AddDropMrr, MrrGeometry};
use trident::photonics::units::{Hours, Wavelength};

fn ring_transfer(c: &mut Criterion) {
    let ring = AddDropMrr::new(MrrGeometry::weight_bank(), Wavelength::from_nm(1550.0));
    c.bench_function("mrr_transfer_on_resonance", |b| {
        b.iter(|| black_box(ring.transfer_on_resonance(black_box(0.9))))
    });
    c.bench_function("mrr_transfer_detuned", |b| {
        let lambda = Wavelength::from_nm(1551.6);
        b.iter(|| black_box(ring.transfer(black_box(lambda), black_box(0.9))))
    });
}

fn lut_calibration(c: &mut Criterion) {
    let ring = AddDropMrr::new(MrrGeometry::weight_bank(), Wavelength::from_nm(1550.0));
    let params = GstParameters::default();
    c.bench_function("weight_lut_build_255_levels", |b| {
        b.iter(|| black_box(WeightLut::build(black_box(&ring), black_box(&params))))
    });
    let lut = WeightLut::build(&ring, &params);
    c.bench_function("weight_lut_lookup", |b| {
        let mut w = -1.0;
        b.iter(|| {
            w += 0.001;
            if w > 1.0 {
                w = -1.0;
            }
            black_box(lut.level_for(black_box(w)))
        })
    });
}

fn bank_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("weight_bank");
    // Construction: ring layout, detuning table and responses; the LUT
    // comes from the process-wide memo.
    group.bench_with_input(BenchmarkId::new("build", 16), &16usize, |b, &s| {
        b.iter(|| black_box(WeightBank::new(s, s, GstParameters::default())))
    });
    for &size in &[4usize, 8, 16] {
        let weights: Vec<f64> =
            (0..size * size).map(|i| ((i % 21) as f64 / 10.5) - 1.0).collect();
        // Every program probe ends with one read: a write leaves its rows'
        // responses for the next read to derive, so a probe without the
        // read would stop timing that derivation.
        let x: Vec<f64> = (0..size).map(|i| (i as f64) / size as f64).collect();
        group.bench_with_input(BenchmarkId::new("program", size), &size, |b, &s| {
            let mut bank = WeightBank::new(s, s, GstParameters::default());
            let mut y = vec![0.0; s];
            let mut toggle = false;
            b.iter(|| {
                // Alternate two patterns so every iteration actually writes.
                toggle = !toggle;
                let w: Vec<f64> = weights
                    .iter()
                    .map(|&v| if toggle { v } else { -v })
                    .collect();
                let spent = black_box(bank.program_flat(&w));
                bank.mvm_into(&x, &mut y);
                black_box(&y);
                spent
            })
        });
        if size == 16 {
            // Re-request the matrix the bank already holds: every cell
            // is a write no-op the bank's memo skips, and the read finds
            // no row to derive.
            group.bench_with_input(BenchmarkId::new("reprogram_same", size), &size, |b, &s| {
                let mut bank = WeightBank::new(s, s, GstParameters::default());
                bank.program_flat(&weights);
                let mut y = vec![0.0; s];
                b.iter(|| {
                    let spent = black_box(bank.program_flat(black_box(&weights)));
                    bank.mvm_into(&x, &mut y);
                    black_box(&y);
                    spent
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("mvm", size), &size, |b, &s| {
            let mut bank = WeightBank::new(s, s, GstParameters::default());
            bank.program_flat(&weights);
            let mut y = vec![0.0; s];
            b.iter(|| {
                bank.mvm_into(black_box(&x), &mut y);
                black_box(&y);
            })
        });
        if size == 16 {
            // One image's conv patches as one GEMM: 36 vectors stream
            // through the stationary bank in one read. Like the digit
            // CNN's 6-filter 3x3 tile, 9 channels carry light and 6 rows
            // are kept.
            let patches: Vec<f64> = (0..36 * size)
                .map(|i| if i % size < 9 { ((i * 7) % 17) as f64 / 17.0 } else { 0.0 })
                .collect();
            group.bench_with_input(BenchmarkId::new("mvm_batch", 36), &size, |b, &s| {
                let mut bank = WeightBank::new(s, s, GstParameters::default());
                bank.program_flat(&weights);
                let mut y = vec![0.0; 36 * 6];
                b.iter(|| {
                    bank.mvm_into(black_box(&patches), &mut y);
                    black_box(&y);
                })
            });
            // The classify MLP's read: statistical layer on, aged a month
            // and drift-calibrated, read into a caller buffer.
            group.bench_with_input(BenchmarkId::new("mvm_stat", size), &size, |b, &s| {
                let mut bank = WeightBank::new(s, s, GstParameters::default());
                bank.enable_stat(StatParams::default(), 7);
                bank.program_flat(&weights);
                bank.advance_hours(Hours(720.0));
                bank.calibrate_compensation();
                let mut y = vec![0.0; s];
                b.iter(|| {
                    bank.mvm_into(black_box(&x), &mut y);
                    black_box(&y);
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, ring_transfer, lut_calibration, bank_ops);
criterion_main!(benches);
