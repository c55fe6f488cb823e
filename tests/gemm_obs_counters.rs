#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
//! The traced counters of a batched GEMM equal those of the one-vector
//! reads it stands for: a PE read of `n` vectors against `n` reads of
//! one on a twin PE, and a batched engine forward, or a training batch's
//! one forward sweep, against per-sample forwards on a twin engine.
//!
//! Tracing is forced on and the counters are process-global, so
//! everything lives in one `#[test]` — the `determinism_trace` pattern.

use trident::arch::conv_engine::PhotonicCnn;
use trident::arch::engine::{EngineOptions, PhotonicMlp};
use trident::arch::pe::ProcessingElement;
use trident::obs::{self, Counter};
use trident::pcm::stat::StatParams;
use trident::photonics::units::Hours;

/// The counters a read or a forward moves.
const COUNTERS: [Counter; 7] = [
    Counter::StatNoiseSamples,
    Counter::MacOps,
    Counter::PcmReads,
    Counter::PcmReadFj,
    Counter::ReceiverFj,
    Counter::ForwardLayerSimNs,
    Counter::LayersForwarded,
];

/// What `run` adds to each of [`COUNTERS`], and its result.
fn counted<T>(run: impl FnOnce() -> T) -> ([u64; 7], T) {
    let read = || COUNTERS.map(|c| obs::global().counters().get(c));
    let before = read();
    let out = run();
    let after = read();
    (std::array::from_fn(|i| after[i] - before[i]), out)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A 16×16 PE with receiver noise, the statistical layer aged a month,
/// a masked ring and a drooped pump.
fn degraded_pe() -> ProcessingElement {
    let mut pe = ProcessingElement::new(16, 16, Some(5));
    pe.bank_mut().enable_stat(StatParams::default(), 11);
    let w: Vec<f64> = (0..256).map(|i| ((i * 7) % 23) as f64 / 11.5 - 1.0).collect();
    pe.program(&w);
    pe.bank_mut().advance_hours(Hours(720.0));
    pe.bank_mut().calibrate_compensation();
    pe.bank_mut().mask_ring(2, 9);
    pe.set_laser_droop(0.1);
    pe
}

/// `n` vectors of 16 lanes; with `signed`, entries in `[-1, 1]` and
/// every third vector all zero.
fn vectors(n: usize, signed: bool) -> Vec<f64> {
    let lane = |v: usize, j: usize| ((v * 5 + j * 3) % 13) as f64 / 13.0;
    (0..n * 16)
        .map(|i| match (signed, (i / 16) % 3) {
            (false, _) => lane(i / 16, i % 16),
            (true, 0) => 0.0,
            (true, _) => 2.0 * lane(i / 16, i % 16) - 1.0,
        })
        .collect()
}

fn pe_reads_count_like_one_vector_reads() {
    let (mut batched, mut single) = (degraded_pe(), degraded_pe());
    for signed in [false, true] {
        let x = vectors(7, signed);
        // Keep 10 of the 16 rows, as a 10-row tile would.
        let mut y = vec![0.0; 7 * 10];
        let (got, ()) = counted(|| {
            if signed {
                batched.mvm_signed_into(&x, &mut y);
            } else {
                batched.mvm_unsigned_into(&x, &mut y);
            }
        });
        let mut want_y = Vec::new();
        let (want, ()) = counted(|| {
            for xv in x.chunks(16) {
                let mut full = [0.0; 16];
                if signed {
                    single.mvm_signed_into(xv, &mut full);
                } else {
                    single.mvm_unsigned_into(xv, &mut full);
                }
                want_y.extend_from_slice(&full[..10]);
            }
        });
        assert_eq!(bits(&y), bits(&want_y), "signed {signed}: outputs");
        assert_eq!(got, want, "signed {signed}: counters {COUNTERS:?}");
        assert!(got[0] > 0 && got[1] > 0 && got[4] > 0, "signed {signed}: {got:?}");
    }
}

fn sweeps_count_like_per_sample_forwards() {
    let images: Vec<Vec<f64>> =
        (0..8).map(|s| (0..64).map(|i| ((i * 7 + s * 3) % 11) as f64 / 11.0).collect()).collect();
    // The classify MLP: statistical layer on, aged and calibrated.
    let opts = EngineOptions { seed: 1, stat: Some(StatParams::default()), ..Default::default() };
    let mlp = || {
        let mut mlp = PhotonicMlp::try_with_options(&[64, 16, 10], opts).unwrap();
        mlp.advance_deployment(Hours(720.0));
        mlp.calibrate_drift_compensation();
        mlp
    };
    let (mut batched, mut single) = (mlp(), mlp());
    let (got, out) = counted(|| batched.try_forward_batch(&images, true).unwrap().to_vec());
    let (want, expected) =
        counted(|| images.iter().map(|x| single.try_forward(x).unwrap()).collect::<Vec<_>>());
    assert_eq!(out.iter().map(|v| bits(v)).collect::<Vec<_>>(), expected.iter().map(|v| bits(v)).collect::<Vec<_>>());
    assert_eq!(got, want, "MLP counters {COUNTERS:?}");
    assert!(got[5] > 0 && got[6] == 16, "MLP: {got:?}");

    let cnn = || PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8);
    let (mut batched, mut single) = (cnn(), cnn());
    let (got, out) = counted(|| batched.try_forward_batch(&images).unwrap().to_vec());
    let (want, expected) = counted(|| images.iter().map(|x| single.forward(x)).collect::<Vec<_>>());
    assert_eq!(out.iter().map(|v| bits(v)).collect::<Vec<_>>(), expected.iter().map(|v| bits(v)).collect::<Vec<_>>());
    assert_eq!(got, want, "CNN counters {COUNTERS:?}");
    assert!(got[5] > 0 && got[6] == 16, "CNN: {got:?}");
}

/// `LayersForwarded` and `ForwardLayerSimNs` of what `run` does.
fn forward_tally(run: impl FnOnce()) -> [u64; 2] {
    let (c, ()) = counted(run);
    [c[6], c[5]]
}

fn training_forwards_count_like_per_sample_forwards() {
    let images: Vec<Vec<f64>> =
        (0..4).map(|s| (0..64).map(|i| ((i * 5 + s * 7) % 13) as f64 / 13.0).collect()).collect();
    let labels = [3, 1, 4, 1];
    let opts = EngineOptions { seed: 1, ..Default::default() };
    let mlp = || PhotonicMlp::try_with_options(&[64, 16, 10], opts).unwrap();
    let (mut batched, mut single) = (mlp(), mlp());
    // The outcome's final accuracy forwards the set once more, one sample
    // at a time, on both sides.
    let got = forward_tally(|| {
        batched.try_train_batched(&images, &labels, 0.1, 1, 4).unwrap();
    });
    let want = forward_tally(|| {
        for x in &images {
            single.try_forward(x).unwrap();
        }
        single.accuracy(&images, &labels).unwrap();
    });
    assert_eq!(got, want, "MLP [LayersForwarded, ForwardLayerSimNs]");
    assert!(got[0] == 16 && got[1] > 0, "MLP: {got:?}");

    let cnn = || PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8);
    let (mut batched, mut single) = (cnn(), cnn());
    let got = forward_tally(|| {
        batched.try_train_batched(&images, &labels, 0.1, 1, 4).unwrap();
    });
    let want = forward_tally(|| {
        for x in &images {
            single.forward(x);
        }
    });
    assert_eq!(got, want, "CNN [LayersForwarded, ForwardLayerSimNs]");
    assert!(got[0] == 8 && got[1] > 0, "CNN: {got:?}");
}

#[test]
fn batched_reads_count_like_one_vector_reads() {
    obs::set_enabled_override(Some(true));
    pe_reads_count_like_one_vector_reads();
    sweeps_count_like_per_sample_forwards();
    training_forwards_count_like_per_sample_forwards();
    obs::set_enabled_override(None);
}
