//! Stochastic gradient descent — Eq. 1 of the paper:
//! `W_k ← W_k − β · δW_k`.
//!
//! Plain SGD is deliberate: it is the update rule the Trident hardware
//! implements (the weight-update matrix computed photonic-side is applied
//! as new GST programming targets), so the float reference uses exactly
//! the same rule. Weight clipping to `[-1, 1]` mirrors the physical range
//! of the balanced-detection encoding.

use crate::tensor::Tensor;

/// SGD optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    /// Learning rate β.
    pub learning_rate: f32,
    /// Clip updated weights into this symmetric range; `None` disables.
    /// Photonic-mirrored training uses `Some(1.0)`.
    pub clip: Option<f32>,
}

impl Sgd {
    /// Unclipped SGD.
    pub fn new(learning_rate: f32) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        Self { learning_rate, clip: None }
    }

    /// SGD with weights clipped to the photonic `[-1, 1]` range.
    pub fn photonic(learning_rate: f32) -> Self {
        Self { clip: Some(1.0), ..Self::new(learning_rate) }
    }

    /// In-place update `w ← w − β·g`, with optional clipping.
    pub fn step(&self, w: &mut Tensor, g: &Tensor) {
        assert_eq!(w.shape(), g.shape(), "weight/gradient shape mismatch");
        let lr = self.learning_rate;
        match self.clip {
            None => {
                for (wi, &gi) in w.data_mut().iter_mut().zip(g.data()) {
                    *wi -= lr * gi;
                }
            }
            Some(c) => {
                for (wi, &gi) in w.data_mut().iter_mut().zip(g.data()) {
                    *wi = (*wi - lr * gi).clamp(-c, c);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_moves_against_gradient() {
        let opt = Sgd::new(0.5);
        let mut w = Tensor::from_slice(&[1.0, -1.0]);
        let g = Tensor::from_slice(&[2.0, -2.0]);
        opt.step(&mut w, &g);
        assert_eq!(w.data(), &[0.0, 0.0]);
    }

    #[test]
    fn photonic_clip_bounds_weights() {
        let opt = Sgd::photonic(1.0);
        let mut w = Tensor::from_slice(&[0.9, -0.9]);
        let g = Tensor::from_slice(&[-1.0, 1.0]);
        opt.step(&mut w, &g);
        assert_eq!(w.data(), &[1.0, -1.0]);
    }

    #[test]
    #[should_panic]
    fn zero_learning_rate_rejected() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_rejected() {
        let opt = Sgd::new(0.1);
        let mut w = Tensor::zeros(&[2]);
        opt.step(&mut w, &Tensor::zeros(&[3]));
    }
}
