//! `classify`: read-only inference. One item is one round: a closed
//! batch of 8 held-out digits through the MLP, then the same 8 through
//! the CNN. The MLP is pretrained on an ideal chip, deployed onto a chip
//! with the statistical PCM layer on, aged 720 h and drift-calibrated;
//! the CNN runs on a fresh stat-off chip. No PCM write happens.

use crate::harness::{Ledger, Sim, Size, StepCx, Workload};
use crate::models::{self, MLP_DIMS};
use trident::arch::engine::{EngineOptions, PhotonicMlp};
use trident::arch::PhotonicCnn;
use trident::obs;
use trident::pcm::stat::StatParams;
use trident::photonics::ledger::EnergyLedger;
use trident::photonics::units::Hours;

pub const BATCH: usize = 8;
const DEPLOYMENT_HOURS: f64 = 720.0;
/// Chip identity of the deployed MLP (fixed: the seed drives inputs only).
const CHIP_SEED: u64 = 0x7257;
/// Every this many rounds, one round's CNN outputs are kept for the
/// bitwise re-check against a twin CNN.
const RECHECK_EVERY: u64 = 97;
const MAX_RECHECKS: usize = 64;

/// Held-out digits per class: the inputs, and one reference window.
fn held_out_per_class(size: &Size) -> usize {
    if size.smoke {
        4
    } else {
        80
    }
}

/// Engine energy and simulated time at a point, to take deltas against.
struct Mark {
    mlp_ledger: EnergyLedger,
    mlp_ns: f64,
    cnn_pj: f64,
}

pub struct Classify {
    mlp: PhotonicMlp,
    cnn: PhotonicCnn,
    held_out: Vec<Vec<f64>>,
    labels: Vec<usize>,
    rounds: u64,
    correct: u64,
    start: Mark,
    start_allocs: u64,
    /// Rounds kept for the twin re-check: held-out range, batched CNN logits.
    rechecks: Vec<(std::ops::Range<usize>, Vec<Vec<f64>>)>,
}

impl Classify {
    fn mark(&self) -> Mark {
        Mark {
            mlp_ledger: self.mlp.energy_ledger(),
            mlp_ns: self.mlp.total_elapsed().value(),
            cnn_pj: self.cnn.total_energy().value(),
        }
    }

    fn batch(&self, round: u64) -> std::ops::Range<usize> {
        let batches = (self.held_out.len() / BATCH) as u64;
        let start = (round % batches) as usize * BATCH;
        start..start + BATCH
    }
}

impl Workload for Classify {
    const WINDOW_STEPS: u64 = 100;

    fn reference_steps(size: &Size) -> u64 {
        // One pass over the held-out digits.
        (10 * held_out_per_class(size) / BATCH) as u64
    }

    fn setup(seed: u64, size: &Size) -> Result<Self, String> {
        let weights = models::pretrained_mlp(size.smoke)?;
        let (held_out, labels) = models::digits(held_out_per_class(size), seed);

        let mut mlp = {
            let _span = obs::span("arch.mlp.deploy");
            let stat = StatParams {
                seed: CHIP_SEED,
                ..StatParams::default()
            };
            let opts = EngineOptions {
                stat: Some(stat),
                variation_seed: CHIP_SEED,
                ..models::mlp_options()
            };
            let mut chip =
                PhotonicMlp::try_with_options(&MLP_DIMS, opts).map_err(|e| e.to_string())?;
            chip.try_deploy_weights(&weights)
                .map_err(|e| e.to_string())?;
            chip
        };
        {
            let _span = obs::span("arch.mlp.age_and_calibrate");
            mlp.advance_deployment(Hours(DEPLOYMENT_HOURS));
            mlp.calibrate_drift_compensation();
        }
        let mut cnn = models::cnn();
        // Warm-up: size the scratch and run one round so the timed loop
        // starts in the allocation-free steady state.
        mlp.reserve_forward_scratch(BATCH);
        cnn.reserve_forward_scratch(BATCH);
        let warm = &held_out[..BATCH];
        mlp.try_forward_batch(warm, true)
            .map_err(|e| e.to_string())?;
        cnn.try_forward_batch(warm).map_err(|e| e.to_string())?;

        let mut w = Classify {
            mlp,
            cnn,
            held_out,
            labels,
            rounds: 0,
            correct: 0,
            start: Mark {
                mlp_ledger: EnergyLedger::new(),
                mlp_ns: 0.0,
                cnn_pj: 0.0,
            },
            start_allocs: 0,
            rechecks: Vec::new(),
        };
        w.start = w.mark();
        w.start_allocs = w.mlp.hot_path_allocs();
        Ok(w)
    }

    fn step(&mut self, cx: &mut StepCx) -> u64 {
        let range = self.batch(self.rounds);
        self.rounds += 1;
        let batch = &self.held_out[range.clone()];
        let mlp_out = {
            let _span = obs::span("arch.mlp.forward_batch");
            self.mlp.try_forward_batch(batch, true)
        };
        match mlp_out {
            Ok(outs) => {
                for (logits, &label) in outs.iter().zip(&self.labels[range.clone()]) {
                    cx.output("mlp.forward_batch", logits);
                    self.correct += u64::from(models::argmax(logits) == label);
                }
            }
            Err(e) => cx.error("mlp.forward_batch", e),
        }
        let cnn_out = {
            let _span = obs::span("arch.cnn.forward_batch");
            self.cnn.try_forward_batch(batch)
        };
        match cnn_out {
            Ok(outs) => {
                for logits in outs {
                    cx.output("cnn.forward_batch", logits);
                }
                if self.rounds.is_multiple_of(RECHECK_EVERY) && self.rechecks.len() < MAX_RECHECKS {
                    self.rechecks.push((range, outs.to_vec()));
                }
            }
            Err(e) => cx.error("cnn.forward_batch", e),
        }
        1
    }

    fn reference(&mut self, _cx: &mut StepCx) -> Sim {
        let now = self.mark();
        let rounds = self.rounds as f64;
        let cnn_pj = now.cnn_pj - self.start.cnn_pj;
        let mut sim = Sim {
            us_per_item: (now.mlp_ns - self.start.mlp_ns) / 1e3 / rounds,
            uj_per_item: (now.mlp_ledger.total().value() - self.start.mlp_ledger.total().value()
                + cnn_pj)
                / 1e6
                / rounds,
            accuracy: self.correct as f64 / (rounds * BATCH as f64),
            ..Sim::default()
        };
        sim.set_energy(&self.start.mlp_ledger, &now.mlp_ledger, cnn_pj, rounds);
        sim
    }

    fn check(&mut self, ledger: &mut Ledger) {
        ledger.check(self.mlp.hot_path_allocs() == self.start_allocs, || {
            format!(
                "classify: MLP hot-path allocations grew from {} to {} over the timed phase",
                self.start_allocs,
                self.mlp.hot_path_allocs()
            )
        });
        let mut twin = models::cnn();
        for (range, batched) in &self.rechecks {
            check_cnn_round(&mut twin, &self.held_out[range.clone()], batched, ledger);
        }
    }
}

/// Batched CNN logits must equal a twin CNN's per-image forward bit for
/// bit.
pub fn check_cnn_round(
    twin: &mut PhotonicCnn,
    images: &[Vec<f64>],
    batched: &[Vec<f64>],
    ledger: &mut Ledger,
) {
    let ok = images.len() == batched.len()
        && images
            .iter()
            .zip(batched)
            .all(|(x, b)| bitwise_eq(&twin.forward(x), b));
    ledger.check(ok, || {
        "classify: batched CNN logits differ from a twin's per-image forward".to_string()
    });
}

pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
