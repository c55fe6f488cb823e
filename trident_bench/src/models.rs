//! Set-up pieces the workloads share. Model and chip identity seeds are
//! fixed constants; only the generated inputs follow the run's seed.

use trident::arch::engine::{EngineOptions, PhotonicMlp};
use trident::arch::PhotonicCnn;
use trident::nn::data::synthetic_digits;
use trident::obs;

/// The digit MLP every MLP workload runs (the repository's standard).
pub const MLP_DIMS: [usize; 3] = [64, 16, 10];
/// Weight-initialisation seed of every MLP (the serving ablation's).
const MLP_SEED: u64 = 11;
/// The pretrained MLP is part of the system under test, not an input:
/// its training digits use this fixed seed, whatever the run's seed.
const PRETRAIN_SEED: u64 = 42;
/// Pretraining: mini-batches of 10 (the batch-averaged gradient takes a
/// 10× larger rate), 12 epochs over 400 digits.
const PRETRAIN_BATCH: usize = 10;
const PRETRAIN_RATE: f64 = 1.0;
/// Pixel noise of the generated digits.
const DIGIT_NOISE: f32 = 0.05;

/// Seeded digit images as `f64` rows with their labels.
pub fn digits(per_class: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
    let _span = obs::span("nn.data.synthetic_digits");
    let data = synthetic_digits(per_class, DIGIT_NOISE, seed);
    let xs = (0..data.len())
        .map(|i| data.inputs.row(i).iter().map(|&v| f64::from(v)).collect())
        .collect();
    (xs, data.labels)
}

/// Pretrain the MLP in situ on an ideal (stat-off) chip, in mini-batches,
/// and return its deployable weights. Smoke runs train briefly.
pub fn pretrained_mlp(smoke: bool) -> Result<Vec<Vec<f64>>, String> {
    let (per_class, epochs) = if smoke { (10, 4) } else { (40, 12) };
    let (xs, labels) = digits(per_class, PRETRAIN_SEED);
    let _span = obs::span("arch.mlp.pretrain");
    let mut ideal = PhotonicMlp::try_with_options(&MLP_DIMS, mlp_options())
        .map_err(|e| format!("pretrain build: {e}"))?;
    ideal
        .try_train_batched(&xs, &labels, PRETRAIN_RATE, epochs, PRETRAIN_BATCH)
        .map_err(|e| format!("pretrain: {e}"))?;
    Ok(ideal.snapshot_weights())
}

/// Engine options of a stat-off MLP chip.
pub fn mlp_options() -> EngineOptions {
    EngineOptions {
        seed: MLP_SEED,
        ..EngineOptions::default()
    }
}

/// The 8×8 digit CNN: 6 filters of 3×3, 2×2 pool, dense head.
pub fn cnn() -> PhotonicCnn {
    let _span = obs::span("arch.cnn.build");
    PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8)
}

/// Index of the largest logit (NaN-safe, first wins on ties).
pub fn argmax(logits: &[f64]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .map_or(0, |(i, _)| i)
}

/// A stat-off MLP chip carrying `weights`.
pub fn deploy(weights: &[Vec<f64>]) -> Result<PhotonicMlp, String> {
    let mut chip = PhotonicMlp::try_with_options(&MLP_DIMS, mlp_options())
        .map_err(|e| format!("deploy: {e}"))?;
    chip.try_deploy_weights(weights)
        .map_err(|e| format!("deploy: {e}"))?;
    Ok(chip)
}

/// Fraction of `xs` an MLP carrying `weights` classifies right, on a
/// fresh twin chip: a deterministic function of the weights, whatever the
/// live chip did before.
pub fn mlp_accuracy(
    weights: &[Vec<f64>],
    xs: &[Vec<f64>],
    labels: &[usize],
) -> Result<f64, String> {
    let mut twin = deploy(weights)?;
    let mut correct = 0usize;
    for (x, &label) in xs.iter().zip(labels) {
        correct += usize::from(twin.try_predict(x).map_err(|e| format!("twin: {e}"))? == label);
    }
    Ok(correct as f64 / labels.len().max(1) as f64)
}
