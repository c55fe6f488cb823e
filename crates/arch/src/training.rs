//! Training-time model (Table V of the paper).
//!
//! §V-B: "We use the throughput during inference of these models to
//! estimate throughput during training instead of relying on pure TOPS to
//! account for data movement and resource sharing latency."
//!
//! For Trident, one training step per image costs:
//!
//! * three streaming phases of roughly forward-pass extent — the forward
//!   MAC, the gradient-vector products (Table II mode 2), and the
//!   weight-update outer products (mode 3);
//! * five bank-retuning sweeps — programming `Wᵀ` for the backward pass,
//!   programming the cached `y` vectors for the outer products, and
//!   restoring/refreshing the updated forward weights — amortized over the
//!   mini-batch, because all images of a batch share each programmed
//!   configuration.
//!
//! This is what makes Table V's crossover: GoogleNet's many small layers
//! give it a high retune-to-stream ratio, so Trident *loses* to the GPU
//! there while winning on MobileNetV2, ResNet-50 and VGG-16.
//!
//! The module also holds the in-situ training loops built on the engine:
//! [`DualAdaptiveTrainer`], which recovers a drifted chip, and
//! [`DeploymentStudy`], the pretrain → deploy → perturb → fine-tune
//! protocol the fault, variation and drift studies share.

use crate::engine::{accuracy_of, check_set, EngineOptions, PhotonicMlp};
use crate::error::ArchError;
use crate::perf::TridentPerfModel;
use rayon::prelude::*;
use trident_workload::model::ModelSpec;

/// Streaming phases per training step (forward, gradient, outer product).
pub const TRAINING_STREAM_PHASES: f64 = 3.0;

/// Bank retuning sweeps per training step in the analytical model (Wᵀ,
/// y, restore ×&nbsp;update).
///
/// The restore sweep is an analytical-only term. The functional backward
/// walk dropped it when training moved to one restore point: it
/// reprograms `W` only at the Eq. 1 update, so the engines bill one write
/// event fewer per hidden layer per step than this count. The value is
/// kept at 5.0 so that Table V does not move; ROADMAP item 7 tracks
/// reconciling this analytical training-time model with the functional
/// walk.
pub const TRAINING_RETUNE_SWEEPS: f64 = 5.0;

/// Training-time estimate for one model on Trident.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingTime {
    /// Model name.
    pub model_name: String,
    /// Seconds per training image.
    pub seconds_per_image: f64,
    /// Training images per second.
    pub images_per_second: f64,
    /// Total seconds for the requested image count.
    pub total_seconds: f64,
}

/// Estimate Trident's time to train `images` images of `model`, using
/// mini-batches of `batch` images per bank configuration.
pub fn trident_training_time(
    perf: &TridentPerfModel,
    model: &ModelSpec,
    images: u64,
    batch: usize,
) -> TrainingTime {
    assert!(batch >= 1, "batch must be at least 1");
    let _span = if trident_obs::enabled() {
        trident_obs::span_owned(format!("training.time.{}", model.name))
    } else {
        trident_obs::SpanGuard::disabled()
    };
    let analysis = perf.analyze(model);
    let stream_ns: f64 = analysis.layers.iter().map(|l| l.stream_latency.value()).sum();
    // Unamortized tune time: reconstruct from the per-layer amortized
    // value and the perf model's own batch.
    let tune_ns: f64 = analysis
        .layers
        .iter()
        .map(|l| l.tune_latency.value() * perf.tuning_batch as f64)
        .sum();
    let per_image_ns = TRAINING_STREAM_PHASES * stream_ns
        + TRAINING_RETUNE_SWEEPS * tune_ns / batch as f64;
    let seconds_per_image = per_image_ns * 1e-9;
    TrainingTime {
        model_name: model.name.clone(),
        seconds_per_image,
        images_per_second: 1.0 / seconds_per_image,
        total_seconds: seconds_per_image * images as f64,
    }
}

/// Training-time estimate for an accelerator whose training throughput is
/// derived from its inference rate (the paper's method for the NVIDIA AGX
/// Xavier): one training step ≈ three inference-equivalent passes.
pub fn inference_derived_training_time(
    model_name: &str,
    inferences_per_second: f64,
    images: u64,
) -> TrainingTime {
    assert!(inferences_per_second > 0.0);
    let seconds_per_image = TRAINING_STREAM_PHASES / inferences_per_second;
    TrainingTime {
        model_name: model_name.to_string(),
        seconds_per_image,
        images_per_second: 1.0 / seconds_per_image,
        total_seconds: seconds_per_image * images as f64,
    }
}

/// Per-logit systematic-error prediction term — the "error prediction
/// network" of dual adaptive training (DAT), collapsed to its bias term
/// at this MLP scale. The model watches (photonic, digital-reference)
/// logit pairs and learns, by exponential moving average, how far the
/// degraded hardware sits from its electronic twin on each output; at
/// inference the predicted error is subtracted from the photonic logits.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorModel {
    bias: Vec<f64>,
    smoothing: f64,
    updates: u64,
}

impl ErrorModel {
    /// A zero-bias model over `outputs` logits. `smoothing` is the EMA
    /// coefficient applied to each new observation, in `(0, 1]`.
    pub fn new(outputs: usize, smoothing: f64) -> Self {
        assert!(outputs > 0, "error model needs at least one logit");
        assert!(
            smoothing > 0.0 && smoothing <= 1.0,
            "EMA smoothing must lie in (0, 1], got {smoothing}"
        );
        Self { bias: vec![0.0; outputs], smoothing, updates: 0 }
    }

    /// Fold one (photonic, digital-reference) logit pair into the
    /// learned systematic-error term.
    pub fn observe(&mut self, photonic: &[f64], reference: &[f64]) {
        assert_eq!(photonic.len(), self.bias.len(), "photonic logit width mismatch");
        assert_eq!(reference.len(), self.bias.len(), "reference logit width mismatch");
        let a = self.smoothing;
        for (b, (&p, &r)) in self.bias.iter_mut().zip(photonic.iter().zip(reference)) {
            *b = (1.0 - a) * *b + a * (p - r);
        }
        self.updates += 1;
        if trident_obs::enabled() {
            trident_obs::add(trident_obs::Counter::ErrorModelUpdates, 1);
        }
    }

    /// Photonic logits with the predicted systematic error subtracted.
    pub fn corrected(&self, photonic: &[f64]) -> Vec<f64> {
        assert_eq!(photonic.len(), self.bias.len(), "photonic logit width mismatch");
        photonic.iter().zip(&self.bias).map(|(&p, &b)| p - b).collect()
    }

    /// The learned per-logit systematic error.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// How many observations have been folded in.
    pub fn update_count(&self) -> u64 {
        self.updates
    }
}

/// Dual adaptive training: the deployment-time recovery loop that pairs
/// a learned systematic-error prediction term (applied to the photonic
/// logits at inference) with in-situ fine-tuning (whose reprogramming
/// pulses rewrite the drifted cells, resetting their drift clocks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualAdaptiveTrainer {
    /// EMA coefficient for the error model, in `(0, 1]`.
    pub error_smoothing: f64,
    /// In-situ fine-tune epochs over the adaptation set.
    pub finetune_epochs: usize,
    /// Learning rate for the fine-tune phase.
    pub learning_rate: f64,
}

impl Default for DualAdaptiveTrainer {
    fn default() -> Self {
        Self { error_smoothing: 0.25, finetune_epochs: 4, learning_rate: 0.1 }
    }
}

/// What [`DualAdaptiveTrainer::adapt`] recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationOutcome {
    /// Error model re-learned on the fine-tuned chip (the one a deployed
    /// system would keep applying).
    pub error_model: ErrorModel,
    /// Accuracy with error-corrected logits *before* fine-tuning — the
    /// cheap half of DAT on its own.
    pub corrected_accuracy: f64,
    /// Accuracy after fine-tuning, with the refreshed error model — the
    /// full dual loop.
    pub adapted_accuracy: f64,
}

impl DualAdaptiveTrainer {
    /// Learn a fresh error model by sweeping the adaptation inputs
    /// through both the photonic hardware and its digital twin.
    pub fn learn_error_model(
        &self,
        engine: &mut PhotonicMlp,
        xs: &[Vec<f64>],
    ) -> Result<ErrorModel, ArchError> {
        self.check_smoothing()?;
        let (outputs, _) = engine.layer_dims(engine.layer_count() - 1);
        let mut model = ErrorModel::new(outputs, self.error_smoothing);
        for x in xs {
            let photonic = engine.try_forward(x)?;
            let reference = engine.digital_forward(x);
            model.observe(&photonic, &reference);
        }
        Ok(model)
    }

    /// Accuracy of the engine with `model`-corrected logits.
    pub fn corrected_accuracy(
        engine: &mut PhotonicMlp,
        model: &ErrorModel,
        xs: &[Vec<f64>],
        labels: &[usize],
    ) -> Result<f64, ArchError> {
        let dims = engine.dims();
        check_set(xs, labels, dims[0], dims[dims.len() - 1])?;
        accuracy_of(xs, labels, |x| Ok(model.corrected(&engine.try_forward(x)?)))
    }

    /// `FractionOutOfRange` unless `error_smoothing` lies in `(0, 1]`.
    fn check_smoothing(&self) -> Result<(), ArchError> {
        let value = self.error_smoothing;
        if value > 0.0 && value <= 1.0 {
            return Ok(());
        }
        Err(ArchError::FractionOutOfRange { name: "error_smoothing", value, expected: "(0, 1]" })
    }

    /// Run the full dual loop on a (degraded) engine: learn the error
    /// model, measure the correction-only accuracy, fine-tune in situ
    /// (which reprograms — and therefore un-drifts — the touched cells),
    /// then re-learn the error model for the refreshed chip.
    pub fn adapt(
        &self,
        engine: &mut PhotonicMlp,
        xs: &[Vec<f64>],
        labels: &[usize],
    ) -> Result<AdaptationOutcome, ArchError> {
        let _span = if trident_obs::enabled() {
            trident_obs::span_owned("training.dual_adaptive".to_string())
        } else {
            trident_obs::SpanGuard::disabled()
        };
        self.check_smoothing()?;
        let dims = engine.dims();
        check_set(xs, labels, dims[0], dims[dims.len() - 1])?;
        engine.calibrate_drift_compensation();
        let pre = self.learn_error_model(engine, xs)?;
        let corrected_accuracy = Self::corrected_accuracy(engine, &pre, xs, labels)?;
        // Fine-tuning reprograms (and thereby un-drifts) cells one write
        // at a time, so the calibrated gain goes stale mid-campaign and
        // would amplify forward *and* backward products of the refreshed
        // cells — at deep drift that destabilizes the gradient steps.
        // Open the compensation loop for the campaign, then recalibrate.
        if self.finetune_epochs > 0 {
            engine.chip_mut().disengage_drift_compensation();
            engine.try_train(xs, labels, self.learning_rate, self.finetune_epochs)?;
            engine.calibrate_drift_compensation();
        }
        let error_model = self.learn_error_model(engine, xs)?;
        let adapted_accuracy = Self::corrected_accuracy(engine, &error_model, xs, labels)?;
        Ok(AdaptationOutcome { error_model, corrected_accuracy, adapted_accuracy })
    }
}

/// The deploy-and-fine-tune protocol shared by the fault
/// ([`DeploymentStudy::run_faults`]), variation
/// ([`DeploymentStudy::run_variation`]) and drift
/// ([`DeploymentStudy::run_drift`]) studies.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentStudy {
    /// Network layer widths.
    pub dims: Vec<usize>,
    /// Training epochs on the ideal chip.
    pub pretrain_epochs: usize,
    /// In-situ fine-tune epochs on each deployed chip.
    pub finetune_epochs: usize,
    /// Learning rate for both phases.
    pub learning_rate: f64,
    /// Chips per study point.
    pub trials: usize,
}

impl Default for DeploymentStudy {
    fn default() -> Self {
        let dims = vec![64, 16, 10];
        Self { dims, pretrain_epochs: 12, finetune_epochs: 6, learning_rate: 0.1, trials: 3 }
    }
}

impl DeploymentStudy {
    /// Train once on an ideal chip (seed 11, a stand-in for digital
    /// training); then, per point, build chip `t` from `chip(point, t)`,
    /// deploy the trained weights onto it, and let `trial` perturb,
    /// measure and fine-tune it. `row(point, ideal_accuracy, means)`
    /// turns the trial means of the `N` measurements into the point's row.
    ///
    /// Points and the chips inside them fan out on the executor (the
    /// nested region stays inside the `TRIDENT_THREADS` budget); each chip
    /// is a pure function of its (point, trial) and the sums fold in trial
    /// order, so rows are bitwise identical at any thread count
    /// (DESIGN.md §11).
    pub(crate) fn run<P: Sync, R, const N: usize>(
        &self,
        points: &[P],
        (xs, labels): (&[Vec<f64>], &[usize]),
        chip: impl Fn(&P, u64) -> EngineOptions + Sync,
        trial: impl Fn(&P, u64, &mut PhotonicMlp) -> Result<[f64; N], ArchError> + Sync,
        row: impl Fn(&P, f64, [f64; N]) -> R,
    ) -> Result<Vec<R>, ArchError> {
        let pretrain = EngineOptions { seed: 11, ..Default::default() };
        let mut ideal = PhotonicMlp::try_with_options(&self.dims, pretrain)?;
        let ideal_accuracy =
            ideal.try_train(xs, labels, self.learning_rate, self.pretrain_epochs)?.final_accuracy;
        let trained = ideal.snapshot_weights();
        let sums = points
            .par_iter()
            .map(|point| {
                (0..self.trials as u64)
                    .into_par_iter()
                    .map(|t| {
                        let mut chip_t = PhotonicMlp::try_with_options(&self.dims, chip(point, t))?;
                        chip_t.try_deploy_weights(&trained)?;
                        trial(point, t, &mut chip_t)
                    })
                    .reduce(
                        || Ok([0.0; N]),
                        |acc, next| {
                            let (mut acc, next) = (acc?, next?);
                            acc.iter_mut().zip(next).for_each(|(a, v)| *a += v);
                            Ok(acc)
                        },
                    )
            })
            .collect::<Result<Vec<_>, ArchError>>()?;
        let n = self.trials as f64;
        let means = sums.into_iter().map(|sum| sum.map(|s| s / n));
        Ok(points.iter().zip(means).map(|(p, mean)| row(p, ideal_accuracy, mean)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_workload::zoo;

    const TABLE_V_IMAGES: u64 = 50_000;

    #[test]
    fn vgg_training_takes_hundreds_of_seconds() {
        let t = trident_training_time(
            &TridentPerfModel::paper(),
            &zoo::vgg16(),
            TABLE_V_IMAGES,
            8,
        );
        // Paper Table V: 796.1 s. Assert the band, not the digit.
        assert!(
            (400.0..1600.0).contains(&t.total_seconds),
            "VGG-16 training time {} s",
            t.total_seconds
        );
    }

    #[test]
    fn training_time_ordering_follows_model_size() {
        let perf = TridentPerfModel::paper();
        let t = |m| trident_training_time(&perf, &m, TABLE_V_IMAGES, 8).total_seconds;
        let mobilenet = t(zoo::mobilenet_v2());
        let googlenet = t(zoo::googlenet());
        let resnet = t(zoo::resnet50());
        let vgg = t(zoo::vgg16());
        // Table V ordering: MobileNetV2 < GoogleNet < ResNet-50 < VGG-16.
        assert!(mobilenet < googlenet);
        assert!(googlenet < resnet);
        assert!(resnet < vgg);
    }

    #[test]
    fn smaller_batch_pays_more_retuning() {
        let perf = TridentPerfModel::paper();
        let m = zoo::googlenet();
        let b1 = trident_training_time(&perf, &m, TABLE_V_IMAGES, 1);
        let b32 = trident_training_time(&perf, &m, TABLE_V_IMAGES, 32);
        assert!(b1.total_seconds > b32.total_seconds);
    }

    #[test]
    fn inference_derived_matches_three_x_rule() {
        let t = inference_derived_training_time("X", 300.0, 30_000);
        assert!((t.seconds_per_image - 0.01).abs() < 1e-12);
        assert!((t.total_seconds - 300.0).abs() < 1e-9);
    }

    #[test]
    fn error_model_learns_and_subtracts_the_offset() {
        let mut em = ErrorModel::new(3, 1.0); // smoothing 1 → keep last observation
        em.observe(&[1.5, 2.0, -1.0], &[1.0, 1.0, -1.0]);
        assert_eq!(em.bias(), &[0.5, 1.0, 0.0]);
        assert_eq!(em.update_count(), 1);
        assert_eq!(em.corrected(&[1.5, 2.0, -1.0]), vec![1.0, 1.0, -1.0]);
    }

    #[test]
    fn error_model_ema_blends_observations() {
        let mut em = ErrorModel::new(1, 0.5);
        em.observe(&[2.0], &[0.0]); // bias = 1.0
        em.observe(&[0.0], &[0.0]); // bias = 0.5
        assert!((em.bias()[0] - 0.5).abs() < 1e-12);
        assert_eq!(em.update_count(), 2);
    }

    #[test]
    fn dual_adaptive_training_recovers_a_drifted_chip() {
        use crate::engine::{EngineOptions, PhotonicMlp};
        use trident_nn::data::synthetic_digits;
        use trident_pcm::stat::StatParams;
        use trident_photonics::units::Hours;

        let data = synthetic_digits(2, 0.05, 99);
        let xs: Vec<Vec<f64>> = (0..data.len())
            .map(|i| data.inputs.row(i).iter().map(|&v| f64::from(v)).collect())
            .collect();
        let labels = data.labels;

        let stat = Some(StatParams::default());
        let opts = EngineOptions { seed: 11, stat, ..Default::default() };
        let mut chip = PhotonicMlp::try_with_options(&[64, 16, 10], opts).unwrap();
        chip.try_train(&xs, &labels, 0.1, 8).unwrap();
        chip.advance_deployment(Hours::from_days(30.0));
        let degraded = chip.accuracy(&xs, &labels).unwrap();

        let outcome = DualAdaptiveTrainer::default().adapt(&mut chip, &xs, &labels).unwrap();
        assert!(outcome.error_model.update_count() > 0);
        assert!(
            outcome.adapted_accuracy >= degraded - 1e-9,
            "adaptation should not lose accuracy: degraded {degraded} adapted {}",
            outcome.adapted_accuracy
        );
        assert!(
            outcome.adapted_accuracy >= outcome.corrected_accuracy - 0.11,
            "full dual loop should hold its own against correction alone: {} vs {}",
            outcome.adapted_accuracy,
            outcome.corrected_accuracy
        );
    }

    #[test]
    fn out_of_range_smoothing_is_a_typed_error() {
        use crate::engine::{EngineOptions, PhotonicMlp};
        let mut chip = PhotonicMlp::try_with_options(&[4, 3], EngineOptions::default()).unwrap();
        let energy = chip.total_energy();
        let trainer = DualAdaptiveTrainer { error_smoothing: 0.0, ..Default::default() };
        let xs = vec![vec![1.0, 0.0, 1.0, 0.0]];
        assert!(matches!(
            trainer.adapt(&mut chip, &xs, &[0]),
            Err(ArchError::FractionOutOfRange { name: "error_smoothing", .. })
        ));
        assert_eq!(chip.total_energy(), energy, "nothing may run first");
    }

    #[test]
    fn consistency_images_per_second() {
        let t = trident_training_time(
            &TridentPerfModel::paper(),
            &zoo::mobilenet_v2(),
            TABLE_V_IMAGES,
            8,
        );
        assert!((t.images_per_second * t.seconds_per_image - 1.0).abs() < 1e-9);
        assert!(
            (t.total_seconds - TABLE_V_IMAGES as f64 * t.seconds_per_image).abs() < 1e-6
        );
    }
}
