//! Direct Feedback Alignment (DFA) on the photonic hardware.
//!
//! §VI of the paper discusses Filipovich et al. \[9\], which trains
//! photonic networks with DFA instead of backpropagation: the error `e`
//! at the output is projected straight to every hidden layer through
//! *fixed random* feedback matrices `B_k`,
//!
//! ```text
//! δh_k = (B_k · e) ⊙ f'(h_k)
//! ```
//!
//! instead of the chained `W_{k+1}ᵀ δh_{k+1}`. Photonic appeal: the `B_k`
//! banks are programmed **once** and never retuned — no `Wᵀ` programming
//! sweep per step. The paper's counterpoint (citing \[35\]) is that DFA
//! underperforms true backpropagation, especially for convolutional
//! layers. This module implements DFA on the same simulated hardware so
//! the trade-off is measurable: see the `ablation_dfa` binary and the
//! tests below.
//!
//! DFA is not a second training loop: it is the second error source of
//! the engine's one backward walk. Given a [`DfaFeedback`], that walk
//! takes layer `k−1`'s error from `B_{k−1}·e` instead of `W_kᵀ δh_k`;
//! the outer products, the spilled-bit Hadamard with `f'(h)` and the
//! Eq. 1 update are the same calls backprop makes.

use crate::chip::Chip;
use crate::engine::PhotonicMlp;
use crate::error::ArchError;
use crate::tile::{PeSpec, TileGemm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trident_photonics::units::EnergyPj;
use trident_streams::bank_identity;

/// Fixed random feedback banks for a network's hidden layers.
pub struct DfaFeedback {
    /// `B_k` for each hidden layer `k` (row-major `[hidden_k × classes]`).
    matrices: Vec<Vec<f64>>,
    /// Dedicated banks holding each `B_k`, programmed once.
    pub(crate) chip: Chip,
}

impl DfaFeedback {
    /// Build feedback banks for `engine`'s hidden layers, seeded from
    /// `seed`, and program them (a one-time optical cost).
    pub fn for_engine(engine: &PhotonicMlp, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let classes = engine.layer_dims(engine.layer_count() - 1).0;
        let mut matrices = Vec::new();
        let mut banks = Vec::new();
        for k in 0..engine.layer_count() - 1 {
            let (hidden, _) = engine.layer_dims(k);
            // Feedback entries on the photonic weight scale.
            let limit = (1.0 / classes as f64).sqrt();
            let b: Vec<f64> =
                (0..hidden * classes).map(|_| rng.gen_range(-limit..limit)).collect();
            let mut bank = TileGemm::with_pes(hidden, classes, |t| PeSpec {
                identity: bank_identity(seed, k, t),
                ..PeSpec::default()
            });
            bank.program(&b);
            matrices.push(b);
            banks.push(bank);
        }
        Self { matrices, chip: Chip::new(banks) }
    }

    /// Number of hidden layers covered.
    pub fn layer_count(&self) -> usize {
        self.matrices.len()
    }

    /// One-time optical programming energy of all feedback banks.
    pub fn programming_energy(&self) -> EnergyPj {
        self.chip.programming_energy()
    }

    /// Photonic projection `B_k · e`: the signed MVM over the feedback
    /// bank, its partial sums billed to the feedback chip.
    pub fn project(&mut self, k: usize, error: &[f64]) -> Vec<f64> {
        let (hidden, classes) = self.chip.grids[k].dims();
        assert_eq!(error.len(), classes, "error width mismatch");
        let mut v = vec![0.0; hidden];
        self.chip.gemv_signed(k, error, &mut v);
        v
    }

    /// `LayerOutOfRange` unless there is one bank per hidden layer of
    /// `engine` (naming the first layer one side lacks), `ShapeMismatch`
    /// unless bank `k` is `hidden_k × classes`.
    fn check(&self, engine: &PhotonicMlp) -> Result<(), ArchError> {
        let hidden = engine.layer_count() - 1;
        if self.layer_count() != hidden {
            let both = hidden.min(self.layer_count());
            return Err(ArchError::LayerOutOfRange { layer: both, layers: both });
        }
        let classes = engine.layer_dims(hidden).0;
        for (k, bank) in self.chip.grids.iter().enumerate() {
            let (rows, cols) = bank.dims();
            for (expected, got) in [(engine.layer_dims(k).0, rows), (classes, cols)] {
                if got != expected {
                    return Err(ArchError::ShapeMismatch { expected, got });
                }
            }
        }
        Ok(())
    }

    /// The exact `B_k` matrix (for verification tests).
    pub fn matrix(&self, k: usize) -> &[f64] {
        &self.matrices[k]
    }
}

/// DFA training over a dataset for `epochs`: per sample,
/// [`PhotonicMlp::try_train_sample`] with the gradient-vector phase
/// swapped out — each hidden layer's error arrives via its fixed feedback
/// bank (no `Wᵀ` reprogramming sweeps). Feedback built for another
/// network is a typed error before the first step. Returns per-epoch
/// losses.
pub fn train_dfa(
    engine: &mut PhotonicMlp,
    feedback: &mut DfaFeedback,
    xs: &[Vec<f64>],
    labels: &[usize],
    learning_rate: f64,
    epochs: usize,
) -> Result<Vec<f64>, ArchError> {
    feedback.check(engine)?;
    engine.train_epochs(xs, labels, learning_rate, epochs, 1, Some(feedback))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use trident_nn::data::synthetic_digits;

    fn mlp(dims: &[usize], seed: u64) -> PhotonicMlp {
        PhotonicMlp::try_with_options(dims, EngineOptions { seed, ..Default::default() }).unwrap()
    }

    fn digit_data(per_class: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let data = synthetic_digits(per_class, 0.05, 31);
        let xs = (0..data.len())
            .map(|i| data.inputs.row(i).iter().map(|&v| f64::from(v)).collect())
            .collect();
        (xs, data.labels)
    }

    #[test]
    fn projection_matches_matrix_math() {
        let engine = mlp(&[10, 8, 4], 5);
        let mut fb = DfaFeedback::for_engine(&engine, 99);
        assert_eq!(fb.layer_count(), 1);
        let e = vec![0.5, -0.25, 0.75, -1.0];
        let v = fb.project(0, &e);
        let b = fb.matrix(0).to_vec();
        for i in 0..8 {
            let exact: f64 = (0..4).map(|j| b[i * 4 + j] * e[j]).sum();
            assert!(
                (v[i] - exact).abs() < 0.05,
                "row {i}: photonic {} vs exact {exact}",
                v[i]
            );
        }
    }

    #[test]
    fn feedback_banks_are_programmed_once() {
        let engine = mlp(&[10, 8, 4], 5);
        let mut fb = DfaFeedback::for_engine(&engine, 99);
        let before = fb.programming_energy();
        assert!(before.value() > 0.0);
        // Projections never reprogram.
        for _ in 0..10 {
            fb.project(0, &[0.1, 0.2, 0.3, 0.4]);
        }
        assert_eq!(fb.programming_energy(), before);
    }

    #[test]
    fn feedback_for_another_network_is_a_typed_error() {
        let (xs, labels) = digit_data(1);
        let fb_engine = mlp(&[64, 16, 10], 7);
        let mut engine = mlp(&[64, 32, 16, 10], 7);
        let before = engine.snapshot_weights();
        let mut fb = DfaFeedback::for_engine(&fb_engine, 41);
        assert!(matches!(
            train_dfa(&mut engine, &mut fb, &xs, &labels, 0.3, 1),
            Err(ArchError::LayerOutOfRange { layer: 1, layers: 1 })
        ));
        // Same depth, other hidden width.
        let mut fb = DfaFeedback::for_engine(&mlp(&[64, 24, 10], 7), 41);
        assert!(matches!(
            train_dfa(&mut mlp(&[64, 16, 10], 7), &mut fb, &xs, &labels, 0.3, 1),
            Err(ArchError::ShapeMismatch { expected: 16, got: 24 })
        ));
        assert_eq!(engine.snapshot_weights(), before);
    }

    #[test]
    fn dfa_learns_the_digit_task() {
        let (xs, labels) = digit_data(3);
        let mut engine = mlp(&[64, 16, 10], 7);
        let mut fb = DfaFeedback::for_engine(&engine, 41);
        let history = train_dfa(&mut engine, &mut fb, &xs, &labels, 0.3, 10).unwrap();
        assert!(
            history.last().unwrap() < history.first().unwrap(),
            "DFA loss should fall: {history:?}"
        );
        let acc = engine.accuracy(&xs, &labels).unwrap();
        assert!(acc > 0.5, "DFA accuracy {acc} should beat chance decisively");
    }

    #[test]
    fn backprop_matches_or_beats_dfa() {
        // §VI's point: DFA is the weaker signal. With identical budgets,
        // true backpropagation should do at least as well.
        let (xs, labels) = digit_data(3);
        let mut bp = mlp(&[64, 16, 10], 7);
        let bp_outcome = bp.try_train(&xs, &labels, 0.1, 10).unwrap();

        let mut dfa_engine = mlp(&[64, 16, 10], 7);
        let mut fb = DfaFeedback::for_engine(&dfa_engine, 41);
        train_dfa(&mut dfa_engine, &mut fb, &xs, &labels, 0.3, 10).unwrap();
        let dfa_acc = dfa_engine.accuracy(&xs, &labels).unwrap();

        assert!(
            bp_outcome.final_accuracy >= dfa_acc - 0.05,
            "BP {} should not trail DFA {dfa_acc}",
            bp_outcome.final_accuracy
        );
    }
}
