//! Fabrication-variation and drift studies — the paper's §I motivation
//! for unified training and inference, made measurable.
//!
//! > "digital models used at the time of training cannot capture all the
//! > manufacturing imperfections and variations of the physical hardware.
//! > The resulting mismatch between trained and implemented weights leads
//! > to sub-optimal accuracy at inference time."
//!
//! Both run on the shared deploy-and-fine-tune protocol
//! ([`DeploymentStudy`]). [`DeploymentStudy::run_variation`] deploys
//! ideally trained weights onto chips whose rings carry Gaussian resonance
//! offsets; [`DeploymentStudy::run_drift`] deploys onto statistically noisy
//! chips and lets them drift. Each measures the accuracy lost, then what
//! fine-tuning *in situ on the same imperfect chip* wins back.

use crate::engine::EngineOptions;
use crate::error::ArchError;
use crate::training::{DeploymentStudy, DualAdaptiveTrainer};
use trident_pcm::stat::StatParams;
use trident_photonics::units::Hours;
use trident_streams::trial_identity;

/// Base of the per-trial fabrication-identity seed space: chip `t` of a
/// variation study is `trial_identity(VARIATION_CHIP_BASE, t)`. Offset
/// from zero so study chips never collide with the engine's default
/// `variation_seed: 0` identity.
const VARIATION_CHIP_BASE: u64 = 1000;

/// Result at one variation magnitude.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationRow {
    /// Per-ring resonance offset σ in nanometres.
    pub sigma_nm: f64,
    /// Accuracy of ideally trained weights evaluated on ideal hardware.
    pub ideal_accuracy: f64,
    /// Mean accuracy of the same weights deployed on varied chips.
    pub deployed_accuracy: f64,
    /// Mean accuracy after in-situ fine-tuning on each varied chip.
    pub finetuned_accuracy: f64,
    /// Chips simulated.
    pub trials: usize,
}

impl VariationRow {
    /// Accuracy lost to deployment mismatch.
    pub fn deployment_drop(&self) -> f64 {
        self.ideal_accuracy - self.deployed_accuracy
    }

    /// Fraction of the drop recovered by in-situ fine-tuning
    /// (1 when nothing was lost).
    pub fn recovery(&self) -> f64 {
        let drop = self.deployment_drop();
        if drop <= 1e-9 {
            return 1.0;
        }
        ((self.finetuned_accuracy - self.deployed_accuracy) / drop).clamp(0.0, 1.0)
    }
}

/// Result at one deployment age under the statistical device model.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRow {
    /// Hours since the weights were programmed.
    pub hours: f64,
    /// Mean accuracy of the freshly programmed chips (programming noise
    /// only, zero drift) — the t = 0 reference every recovery chases.
    pub baseline_accuracy: f64,
    /// Mean accuracy after drifting for `hours` with no countermeasures.
    pub uncompensated_accuracy: f64,
    /// Mean accuracy after one reference-column calibration pass set the
    /// global compensation gain.
    pub compensated_accuracy: f64,
    /// Mean accuracy after the full dual-adaptive-training loop
    /// (error model + in-situ fine-tune + recalibration).
    pub adaptive_accuracy: f64,
    /// Chips simulated.
    pub trials: usize,
}

impl DriftRow {
    /// How far the full adaptive loop remains below the t = 0 baseline
    /// (negative when it ends up above it).
    pub fn residual_gap(&self) -> f64 {
        self.baseline_accuracy - self.adaptive_accuracy
    }
}

impl DeploymentStudy {
    /// Run the fabrication-variation study over the given resonance
    /// offsets σ (nm) on a labelled dataset.
    pub fn run_variation(
        &self,
        sigmas_nm: &[f64],
        xs: &[Vec<f64>],
        labels: &[usize],
    ) -> Result<Vec<VariationRow>, ArchError> {
        self.run(
            sigmas_nm,
            (xs, labels),
            |&resonance_sigma_nm, t| EngineOptions {
                seed: 11,
                resonance_sigma_nm,
                variation_seed: trial_identity(VARIATION_CHIP_BASE, t),
                ..Default::default()
            },
            |_, _, chip| {
                let deployed = chip.accuracy(xs, labels)?;
                chip.try_train(xs, labels, self.learning_rate, self.finetune_epochs)?;
                Ok([deployed, chip.accuracy(xs, labels)?])
            },
            |&sigma_nm, ideal_accuracy, [deployed, finetuned]| VariationRow {
                sigma_nm,
                ideal_accuracy,
                deployed_accuracy: deployed,
                finetuned_accuracy: finetuned,
                trials: self.trials,
            },
        )
    }

    /// Run the temporal-drift study over the given deployment ages (hours
    /// since programming) on a labelled dataset. `stat` is the device
    /// model of every deployed chip; its `seed` is the base chip identity.
    ///
    /// # Errors
    /// `ValueOutOfRange` naming `hours` for an age that is negative or not
    /// finite, before any chip is built.
    pub fn run_drift(
        &self,
        stat: StatParams,
        hour_points: &[f64],
        xs: &[Vec<f64>],
        labels: &[usize],
    ) -> Result<Vec<DriftRow>, ArchError> {
        if let Some(&value) = hour_points.iter().find(|h| !(0.0..f64::INFINITY).contains(*h)) {
            return Err(ArchError::ValueOutOfRange { name: "hours", value, expected: "[0, inf)" });
        }
        let trainer = DualAdaptiveTrainer {
            finetune_epochs: self.finetune_epochs,
            learning_rate: self.learning_rate,
            ..Default::default()
        };
        self.run(
            hour_points,
            (xs, labels),
            |_, t| {
                let stat = StatParams { seed: trial_identity(stat.seed, t), ..stat };
                EngineOptions { seed: 11, stat: Some(stat), ..Default::default() }
            },
            |&hours, _, chip| {
                let baseline = chip.accuracy(xs, labels)?;
                chip.advance_deployment(Hours(hours));
                let uncompensated = chip.accuracy(xs, labels)?;
                chip.calibrate_drift_compensation();
                let compensated = chip.accuracy(xs, labels)?;
                let adaptive = trainer.adapt(chip, xs, labels)?.adapted_accuracy;
                Ok([baseline, uncompensated, compensated, adaptive])
            },
            |&hours, _, [baseline, uncompensated, compensated, adaptive]| DriftRow {
                hours,
                baseline_accuracy: baseline,
                uncompensated_accuracy: uncompensated,
                compensated_accuracy: compensated,
                adaptive_accuracy: adaptive,
                trials: self.trials,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_nn::data::synthetic_digits;

    fn digit_data(per_class: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let data = synthetic_digits(per_class, 0.05, 99);
        let xs = (0..data.len())
            .map(|i| data.inputs.row(i).iter().map(|&v| f64::from(v)).collect())
            .collect();
        (xs, data.labels)
    }

    #[test]
    fn zero_variation_deploys_losslessly() {
        let (xs, labels) = digit_data(2);
        let study = DeploymentStudy {
            pretrain_epochs: 8,
            finetune_epochs: 2,
            trials: 1,
            ..Default::default()
        };
        let rows = study.run_variation(&[0.0], &xs, &labels).unwrap();
        let r = &rows[0];
        assert!(
            (r.deployed_accuracy - r.ideal_accuracy).abs() < 0.11,
            "σ=0 deployment should be near-lossless: ideal {} vs deployed {}",
            r.ideal_accuracy,
            r.deployed_accuracy
        );
    }

    #[test]
    fn variation_degrades_and_finetuning_recovers() {
        let (xs, labels) = digit_data(3);
        let study = DeploymentStudy { pretrain_epochs: 10, trials: 2, ..Default::default() };
        // A fifth of the 0.2 nm linewidth: enough to hurt, not enough to
        // kill the optics outright (at ~half a linewidth the rings detune
        // so far that no amount of reprogramming recovers — also physical,
        // and covered by the sweep binary).
        let rows = study.run_variation(&[0.04], &xs, &labels).unwrap();
        let r = &rows[0];
        assert!(r.ideal_accuracy > 0.7, "pretraining should work: {}", r.ideal_accuracy);
        assert!(
            r.deployment_drop() > 0.1,
            "variation should hurt deployed accuracy: ideal {} deployed {}",
            r.ideal_accuracy,
            r.deployed_accuracy
        );
        assert!(
            r.finetuned_accuracy > r.deployed_accuracy + 0.05,
            "in-situ fine-tuning should recover accuracy: {} -> {}",
            r.deployed_accuracy,
            r.finetuned_accuracy
        );
    }

    #[test]
    fn drift_degrades_and_the_dual_loop_recovers() {
        let (xs, labels) = digit_data(3);
        let study = DeploymentStudy { finetune_epochs: 4, trials: 1, ..Default::default() };
        let rows = study.run_drift(StatParams::default(), &[720.0], &xs, &labels).unwrap();
        let r = &rows[0];
        assert!(r.baseline_accuracy > 0.7, "fresh deployment should work: {}", r.baseline_accuracy);
        assert!(
            r.baseline_accuracy - r.uncompensated_accuracy > 0.1,
            "a month of drift should hurt: baseline {} uncompensated {}",
            r.baseline_accuracy,
            r.uncompensated_accuracy
        );
        assert!(
            r.compensated_accuracy > r.uncompensated_accuracy,
            "gain compensation should claw accuracy back: {} -> {}",
            r.uncompensated_accuracy,
            r.compensated_accuracy
        );
        assert!(
            r.residual_gap() <= 0.01,
            "dual adaptive training should land within a point of t=0: baseline {} adaptive {}",
            r.baseline_accuracy,
            r.adaptive_accuracy
        );
    }

    #[test]
    fn bad_deployment_ages_are_typed_errors() {
        let (xs, labels) = digit_data(1);
        let study = DeploymentStudy::default();
        for hours in [-1.0, f64::NAN] {
            let rows = study.run_drift(StatParams::default(), &[24.0, hours], &xs, &labels);
            assert!(
                matches!(rows, Err(ArchError::ValueOutOfRange { name: "hours", .. })),
                "hours {hours}"
            );
        }
    }

    #[test]
    fn drift_study_is_deterministic() {
        let (xs, labels) = digit_data(1);
        let study = DeploymentStudy {
            pretrain_epochs: 4,
            finetune_epochs: 1,
            trials: 2,
            ..Default::default()
        };
        let stat = StatParams::default();
        let a = study.run_drift(stat, &[24.0], &xs, &labels).unwrap();
        let b = study.run_drift(stat, &[24.0], &xs, &labels).unwrap();
        assert_eq!(a, b, "same seeds must reproduce the same rows bitwise");
    }

    #[test]
    fn larger_variation_hurts_more() {
        let (xs, labels) = digit_data(2);
        let study = DeploymentStudy {
            pretrain_epochs: 8,
            finetune_epochs: 0,
            trials: 2,
            ..Default::default()
        };
        let rows = study.run_variation(&[0.02, 0.15], &xs, &labels).unwrap();
        assert!(
            rows[0].deployed_accuracy >= rows[1].deployed_accuracy - 0.05,
            "σ=0.02 ({}) should deploy no worse than σ=0.15 ({})",
            rows[0].deployed_accuracy,
            rows[1].deployed_accuracy
        );
    }
}
