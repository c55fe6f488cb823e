//! `train`: in-situ backprop. One item is one step: an MLP
//! `try_train_sample` then a CNN `train_sample` on the same digit, cycling
//! through a training split. The MLP fine-tunes the pretrained weights on
//! a fresh stat-off chip (on-device adaptation); the CNN trains from its
//! fixed initialisation. Reprogramming the banks after every update makes
//! the PCM write path do most of the work.

use crate::harness::{Ledger, Sim, Size, StepCx, Workload};
use crate::models;
use trident::arch::engine::PhotonicMlp;
use trident::arch::PhotonicCnn;
use trident::obs;
use trident::photonics::ledger::EnergyLedger;

/// Chance accuracy of the ten-class task.
const CHANCE: f64 = 0.1;
/// Fine-tuning rate of the pretrained MLP: small enough that per-sample
/// steps refine the model instead of re-randomising it.
const MLP_RATE: f64 = 0.03;
/// Learning rate of the CNN, which trains from scratch.
const CNN_RATE: f64 = 0.1;

struct Sizes {
    per_class: usize,
    train: usize,
    reference: u64,
}

fn sizes(size: &Size) -> Sizes {
    if size.smoke {
        Sizes {
            per_class: 10,
            train: 50,
            reference: 150,
        }
    } else {
        Sizes {
            per_class: 60,
            train: 200,
            reference: 1000,
        }
    }
}

pub struct Train {
    mlp: PhotonicMlp,
    cnn: PhotonicCnn,
    xs: Vec<Vec<f64>>,
    labels: Vec<usize>,
    held_out: Vec<Vec<f64>>,
    held_labels: Vec<usize>,
    train: usize,
    steps: u64,
    start_ledger: EnergyLedger,
    start_ns: f64,
    start_cnn_pj: f64,
}

impl Workload for Train {
    const WINDOW_STEPS: u64 = 25;

    fn reference_steps(size: &Size) -> u64 {
        sizes(size).reference
    }

    fn setup(seed: u64, size: &Size) -> Result<Self, String> {
        let s = sizes(size);
        let (mut xs, mut labels) = models::digits(s.per_class, seed);
        let held_out = xs.split_off(s.train);
        let held_labels = labels.split_off(s.train);
        let weights = models::pretrained_mlp(size.smoke)?;
        let mlp = {
            let _span = obs::span("arch.mlp.deploy");
            models::deploy(&weights)?
        };
        let cnn = models::cnn();
        Ok(Train {
            start_ledger: mlp.energy_ledger(),
            start_ns: mlp.total_elapsed().value(),
            start_cnn_pj: cnn.total_energy().value(),
            mlp,
            cnn,
            xs,
            labels,
            held_out,
            held_labels,
            train: s.train,
            steps: 0,
        })
    }

    fn step(&mut self, cx: &mut StepCx) -> u64 {
        let i = (self.steps % self.train as u64) as usize;
        self.steps += 1;
        let (x, label) = (&self.xs[i], self.labels[i]);
        let mlp_loss = {
            let _span = obs::span("arch.mlp.train_sample");
            self.mlp.try_train_sample(x, label, MLP_RATE)
        };
        match mlp_loss {
            Ok(loss) => cx.output("mlp.train_sample loss", &[loss]),
            Err(e) => cx.error("mlp.train_sample", e),
        }
        let cnn_loss = {
            let _span = obs::span("arch.cnn.train_sample");
            self.cnn.train_sample(x, label, CNN_RATE)
        };
        cx.output("cnn.train_sample loss", &[cnn_loss]);
        1
    }

    fn reference(&mut self, cx: &mut StepCx) -> Sim {
        let steps = self.steps as f64;
        let ledger = self.mlp.energy_ledger();
        let cnn_pj = self.cnn.total_energy().value() - self.start_cnn_pj;
        let weights = self.mlp.snapshot_weights();
        for w in &weights {
            cx.output("mlp weights", w);
        }
        let accuracy = models::mlp_accuracy(&weights, &self.held_out, &self.held_labels)
            .unwrap_or_else(|e| {
                cx.ledger.fail(e);
                0.0
            });
        let mut sim = Sim {
            us_per_item: (self.mlp.total_elapsed().value() - self.start_ns) / 1e3 / steps,
            uj_per_item: (ledger.total().value() - self.start_ledger.total().value() + cnn_pj)
                / 1e6
                / steps,
            accuracy,
            ..Sim::default()
        };
        sim.set_energy(&self.start_ledger, &ledger, cnn_pj, steps);
        sim
    }

    fn check(&mut self, ledger: &mut Ledger) {
        let accuracy = models::mlp_accuracy(
            &self.mlp.snapshot_weights(),
            &self.held_out,
            &self.held_labels,
        );
        check_above_chance(&accuracy, ledger);
    }
}

/// Held-out accuracy after training must beat chance.
pub fn check_above_chance(accuracy: &Result<f64, String>, ledger: &mut Ledger) {
    ledger.check(matches!(accuracy, Ok(a) if *a > CHANCE), || {
        format!("train: held-out MLP accuracy {accuracy:?} is not above chance ({CHANCE})")
    });
}
