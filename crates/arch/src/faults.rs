//! Fault injection and graceful-degradation campaigns.
//!
//! The paper's reliability story is implicit — "endurance is not a
//! concern" (§III-C) and in-situ training absorbing hardware imperfection
//! (§I) — but an edge accelerator deployed for years *will* accumulate
//! device faults: GST cells stuck in one phase (segregation / void
//! formation after heavy cycling), rings knocked off the bus entirely,
//! pump lasers drooping with age, and slow amorphous-phase drift. This
//! module makes those failure modes injectable, measurable, and —
//! together with the bank's remap/mask machinery and the engine's in-situ
//! fine-tuning — recoverable:
//!
//! * [`FaultPlan`] — a seedable description of a fault population, either
//!   given directly as per-ring probabilities or sampled from a projected
//!   [`EnduranceReport`];
//! * [`FaultReport`] — what
//!   [`PhotonicMlp::inject_faults`](crate::engine::PhotonicMlp::inject_faults)
//!   actually injected;
//! * [`DeploymentStudy::run_faults`] — the end-to-end campaign on the
//!   shared deploy-and-fine-tune protocol: pretrain on a healthy chip,
//!   inject faults, measure the accuracy drop, fine-tune in situ on the
//!   faulted chip (through the closed-loop program-and-verify write path),
//!   and measure the recovery.
//!
//! Chip `t` of a plan draws its faults from
//! `trial_identity(plan.seed, t)`; the protocol's fan-out and trial-order
//! folds keep campaign rows bitwise identical at any thread count.

use crate::endurance::EnduranceReport;
use crate::engine::EngineOptions;
use crate::error::ArchError;
use crate::training::DeploymentStudy;
use serde::{Deserialize, Serialize};
use trident_streams::trial_identity;

/// A seedable fault population. All rates are per-ring probabilities in
/// `[0, 1]`; the same plan + seed always injects the same faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability that a GST cell is stuck fully amorphous (reads as
    /// weight +1 and rejects writes).
    pub stuck_amorphous: f64,
    /// Probability that a GST cell is stuck fully crystalline (weight −1).
    pub stuck_crystalline: f64,
    /// Probability that a ring is dead outright (delaminated heater,
    /// broken coupler) and must be masked off the bus.
    pub dead_rings: f64,
    /// Years of amorphous-phase crystallinity drift applied to every cell.
    pub drift_years: f64,
    /// Fractional pump-laser power droop applied to every PE, `[0, 1)`.
    pub laser_droop: f64,
    /// Seed of the fault draw (a deployment identity).
    pub seed: u64,
}

impl FaultPlan {
    /// A plan with `rate` of all cells stuck, split between the phases
    /// (void formation pins most wear-out failures near the amorphous
    /// state, so the split leans 70/30).
    pub fn stuck_cells(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
        Self { stuck_amorphous: 0.7 * rate, stuck_crystalline: 0.3 * rate, seed, ..Self::default() }
    }

    /// Sample the fault population expected after `years` of the wear
    /// projected by an [`EnduranceReport`]. Cell endurance is spread
    /// around its rating, so stuck cells appear gradually as the busiest
    /// cells approach their budget (quadratic onset, saturating at 1);
    /// drift accumulates over the same period.
    pub fn from_endurance(report: &EnduranceReport, years: f64, seed: u64) -> Self {
        assert!(years >= 0.0, "cannot project backwards");
        let wear = years / report.weight_lifetime_years.max(1e-12);
        let stuck = (0.5 * wear * wear).clamp(0.0, 1.0);
        Self {
            stuck_amorphous: 0.7 * stuck,
            stuck_crystalline: 0.3 * stuck,
            drift_years: years,
            seed,
            ..Self::default()
        }
    }

    /// The first field outside its range, as a typed error naming it:
    /// every rate must lie in `[0, 1]` and `laser_droop` in `[0, 1)`.
    pub fn validate(&self) -> Result<(), ArchError> {
        let rate = |v: f64| (0.0..=1.0).contains(&v);
        let checks = [
            ("stuck_amorphous", self.stuck_amorphous, rate(self.stuck_amorphous), "[0, 1]"),
            ("stuck_crystalline", self.stuck_crystalline, rate(self.stuck_crystalline), "[0, 1]"),
            ("dead_rings", self.dead_rings, rate(self.dead_rings), "[0, 1]"),
            ("laser_droop", self.laser_droop, (0.0..1.0).contains(&self.laser_droop), "[0, 1)"),
        ];
        match checks.into_iter().find(|&(_, _, ok, _)| !ok) {
            Some((name, value, _, expected)) => {
                Err(ArchError::FractionOutOfRange { name, value, expected })
            }
            None => Ok(()),
        }
    }

    /// The expected fraction of rings carrying a hard fault (stuck either
    /// way, or dead).
    pub fn hard_fault_rate(&self) -> f64 {
        (self.stuck_amorphous + self.stuck_crystalline + self.dead_rings).min(1.0)
    }
}

/// What [`PhotonicMlp::inject_faults`](crate::engine::PhotonicMlp::inject_faults)
/// actually injected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Cells pinned fully amorphous.
    pub stuck_amorphous: usize,
    /// Cells pinned fully crystalline.
    pub stuck_crystalline: usize,
    /// Rings masked dead.
    pub dead_rings: usize,
    /// Rings in the engine (across every PE).
    pub total_rings: usize,
    /// Laser droop applied to every PE.
    pub laser_droop: f64,
    /// Drift years applied to every cell.
    pub drift_years: f64,
}

impl FaultReport {
    /// Fraction of rings carrying a hard fault.
    pub fn hard_fault_fraction(&self) -> f64 {
        if self.total_rings == 0 {
            return 0.0;
        }
        (self.stuck_amorphous + self.stuck_crystalline + self.dead_rings) as f64
            / self.total_rings as f64
    }
}

/// Result at one fault-plan point of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCampaignRow {
    /// The plan template evaluated (trial seeds vary per chip).
    pub plan: FaultPlan,
    /// Mean fraction of rings that actually drew a hard fault.
    pub hard_fault_fraction: f64,
    /// Accuracy of the pretrained weights on a healthy chip.
    pub ideal_accuracy: f64,
    /// Mean accuracy right after fault injection.
    pub faulted_accuracy: f64,
    /// Mean accuracy after in-situ fine-tuning on the faulted chips.
    pub finetuned_accuracy: f64,
    /// Mean closed-loop write failures per chip during fine-tuning.
    pub write_failures: f64,
    /// Mean cells remapped onto spares per chip.
    pub remapped: f64,
    /// Mean slots masked dead per chip (injected + degraded).
    pub masked: f64,
    /// Chips simulated.
    pub trials: usize,
}

impl FaultCampaignRow {
    /// Accuracy lost to the injected faults.
    pub fn fault_drop(&self) -> f64 {
        self.ideal_accuracy - self.faulted_accuracy
    }

    /// Fraction of the drop recovered by in-situ fine-tuning
    /// (1 when nothing was lost).
    pub fn recovery(&self) -> f64 {
        let drop = self.fault_drop();
        if drop <= 1e-9 {
            return 1.0;
        }
        ((self.finetuned_accuracy - self.faulted_accuracy) / drop).clamp(0.0, 1.0)
    }
}

impl DeploymentStudy {
    /// Run the fault campaign over the given plans on a labelled dataset.
    pub fn run_faults(
        &self,
        plans: &[FaultPlan],
        xs: &[Vec<f64>],
        labels: &[usize],
    ) -> Result<Vec<FaultCampaignRow>, ArchError> {
        self.run(
            plans,
            (xs, labels),
            |_, _| EngineOptions { seed: 11, ..Default::default() },
            |plan, t, chip| {
                let seed = trial_identity(plan.seed, t);
                let report = chip.inject_faults(&FaultPlan { seed, ..*plan })?;
                // Measure the raw hit first: stuck cells hold their frozen
                // weights and dead rings read zero. Recovery then comes from
                // the first verified reprogram (remap/mask) plus in-situ
                // fine-tuning.
                let faulted = chip.accuracy(xs, labels)?;
                chip.try_train(xs, labels, self.learning_rate, self.finetune_epochs)?;
                Ok([
                    report.hard_fault_fraction(),
                    faulted,
                    chip.accuracy(xs, labels)?,
                    chip.write_failures() as f64,
                    chip.remapped_rings() as f64,
                    chip.masked_rings() as f64,
                ])
            },
            |&plan, ideal_accuracy, [hard, faulted, finetuned, failures, remaps, masks]| {
                FaultCampaignRow {
                    plan,
                    hard_fault_fraction: hard,
                    ideal_accuracy,
                    faulted_accuracy: faulted,
                    finetuned_accuracy: finetuned,
                    write_failures: failures,
                    remapped: remaps,
                    masked: masks,
                    trials: self.trials,
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TridentConfig;
    use crate::engine::PhotonicMlp;
    use crate::endurance::{budget, UsageProfile};
    use trident_nn::data::synthetic_digits;
    use trident_workload::zoo;

    fn mlp(dims: &[usize], seed: u64) -> PhotonicMlp {
        PhotonicMlp::try_with_options(dims, EngineOptions { seed, ..Default::default() }).unwrap()
    }

    fn digit_data(per_class: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let data = synthetic_digits(per_class, 0.05, 99);
        let xs = (0..data.len())
            .map(|i| data.inputs.row(i).iter().map(|&v| f64::from(v)).collect())
            .collect();
        (xs, data.labels)
    }

    #[test]
    fn plans_are_deterministic_in_their_seed() {
        let plan = FaultPlan::stuck_cells(0.05, 42);
        let mut a = mlp(&[16, 8, 4], 1);
        let mut b = mlp(&[16, 8, 4], 1);
        let ra = a.inject_faults(&plan).unwrap();
        let rb = b.inject_faults(&plan).unwrap();
        assert_eq!(ra, rb, "same plan + seed must inject identical faults");
        let mut c = mlp(&[16, 8, 4], 1);
        let rc = c.inject_faults(&FaultPlan { seed: 43, ..plan }).unwrap();
        assert_ne!(
            (ra.stuck_amorphous, ra.stuck_crystalline),
            (rc.stuck_amorphous, rc.stuck_crystalline),
            "a different seed should draw a different population"
        );
    }

    #[test]
    fn endurance_sampled_plans_scale_with_age() {
        let config = TridentConfig::paper();
        let report = budget(&config, &zoo::vgg16(), &UsageProfile::heavy_edge());
        let young = FaultPlan::from_endurance(&report, 1.0, 7);
        let old = FaultPlan::from_endurance(
            &report,
            report.weight_lifetime_years * 1.2,
            7,
        );
        assert!(young.hard_fault_rate() < old.hard_fault_rate());
        assert!(old.hard_fault_rate() > 0.5, "past-lifetime wear should be severe");
        assert!((young.drift_years - 1.0).abs() < 1e-12);
    }

    #[test]
    fn faults_degrade_and_finetuning_recovers() {
        let (xs, labels) = digit_data(3);
        let campaign = DeploymentStudy { pretrain_epochs: 10, trials: 2, ..Default::default() };
        // 6% stuck cells: a heavily worn chip. Stuck rings hold weights
        // of ±1, so the deployed matrices are visibly corrupted.
        let rows = campaign.run_faults(&[FaultPlan::stuck_cells(0.06, 5)], &xs, &labels).unwrap();
        let r = &rows[0];
        assert!(r.ideal_accuracy > 0.7, "pretraining should work: {}", r.ideal_accuracy);
        assert!(r.hard_fault_fraction > 0.01, "≥1% of rings must be faulty");
        assert!(
            r.fault_drop() > 0.1,
            "stuck cells should hurt accuracy: ideal {} faulted {}",
            r.ideal_accuracy,
            r.faulted_accuracy
        );
        assert!(
            r.finetuned_accuracy > r.faulted_accuracy + 0.05,
            "in-situ fine-tuning should claw accuracy back: {} -> {}",
            r.faulted_accuracy,
            r.finetuned_accuracy
        );
        assert!(
            r.remapped > 0.0 || r.masked > 0.0,
            "degradation machinery should have engaged"
        );
    }

    #[test]
    fn trial_seeds_wrap_at_the_top_of_the_seed_space() {
        // Chip 1 of a plan seeded at u64::MAX wraps to seed 0.
        let (xs, labels) = digit_data(1);
        let study = DeploymentStudy {
            dims: vec![64, 10],
            pretrain_epochs: 0,
            finetune_epochs: 0,
            trials: 2,
            ..Default::default()
        };
        let rows = study.run_faults(&[FaultPlan::stuck_cells(0.01, u64::MAX)], &xs, &labels);
        assert_eq!(rows.unwrap()[0].trials, 2);
    }

    #[test]
    fn laser_droop_alone_is_mostly_survivable() {
        let (xs, labels) = digit_data(2);
        let campaign = DeploymentStudy {
            pretrain_epochs: 8,
            finetune_epochs: 2,
            trials: 1,
            ..Default::default()
        };
        let plan = FaultPlan { laser_droop: 0.1, seed: 3, ..FaultPlan::default() };
        let rows = campaign.run_faults(&[plan], &xs, &labels).unwrap();
        let r = &rows[0];
        // A 10% uniform power droop rescales logits but rarely reorders
        // them; the class decision mostly survives.
        assert!(
            r.faulted_accuracy > r.ideal_accuracy - 0.25,
            "droop alone should not collapse accuracy: ideal {} faulted {}",
            r.ideal_accuracy,
            r.faulted_accuracy
        );
    }
}
