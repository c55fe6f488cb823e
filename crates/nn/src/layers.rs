//! Trainable layers with explicit forward and backward passes.
//!
//! Each layer caches what its backward pass needs during `try_forward`,
//! then `try_backward` consumes the upstream gradient and returns the
//! downstream one while accumulating parameter gradients (Eqs. 2–3 of
//! the paper). The photonic engine in `trident-arch` mirrors exactly these
//! semantics device-by-device, and the integration tests diff the two.

use crate::error::NnError;
use crate::linalg;
use crate::optim::Sgd;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Pointwise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Activation {
    /// Pass-through (used for output layers read by a softmax loss).
    Identity,
    /// Standard rectified linear unit.
    Relu,
    /// The GST activation cell's transfer (Fig. 3): zero below `threshold`,
    /// slope `slope` above it. `GstRelu { threshold: 0.0, slope: 1.0 }`
    /// degenerates to plain ReLU.
    GstRelu {
        /// Firing threshold.
        threshold: f32,
        /// Transmission slope above threshold.
        slope: f32,
    },
}

impl Activation {
    /// The paper's measured activation: slope 0.34, threshold normalized
    /// to zero by the engine's logit scaling.
    pub const fn gst_paper() -> Self {
        Activation::GstRelu { threshold: 0.0, slope: 0.34 }
    }

    /// Forward value.
    #[inline]
    pub fn forward(&self, x: f32) -> f32 {
        match *self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::GstRelu { threshold, slope } => {
                if x >= threshold {
                    slope * (x - threshold)
                } else {
                    0.0
                }
            }
        }
    }

    /// Derivative at `x` (the value the LDSU latches).
    #[inline]
    pub fn derivative(&self, x: f32) -> f32 {
        match *self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::GstRelu { threshold, slope } => {
                if x >= threshold {
                    slope
                } else {
                    0.0
                }
            }
        }
    }
}


/// A trainable layer.
///
/// Shape violations and ordering mistakes surface as typed [`NnError`]s.
pub trait Layer: Send {
    /// Forward pass over a batch; caches whatever backward needs.
    fn try_forward(&mut self, x: &Tensor) -> Result<Tensor, NnError>;
    /// Backward pass: consume `dL/d(output)`, accumulate parameter
    /// gradients, return `dL/d(input)`.
    fn try_backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError>;
    /// Apply (and clear) accumulated gradients with the optimizer.
    fn update(&mut self, _opt: &Sgd) {}
    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

/// Fully connected layer `y = x·Wᵀ`.
///
/// Photonic PEs implement the matrix product directly (weights in the MRR
/// bank) and have no bias path, so neither does the float mirror.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix `[out, in]` — each row maps to one PE row.
    pub weights: Tensor,
    grad_w: Tensor,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Dense layer with explicit weights.
    pub fn from_weights(weights: Tensor) -> Self {
        assert_eq!(weights.ndim(), 2, "dense weights must be a matrix");
        let shape = weights.shape().to_vec();
        Self { weights, grad_w: Tensor::zeros(&shape), cached_input: None }
    }

    /// Randomly initialised dense layer (Xavier).
    pub fn new(out_features: usize, in_features: usize, rng: &mut rand::rngs::StdRng) -> Self {
        Self::from_weights(crate::init::xavier_uniform(out_features, in_features, rng))
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.weights.shape()[0]
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.weights.shape()[1]
    }

    /// Accumulated weight gradient (for tests and the photonic diff).
    pub fn grad_weights(&self) -> &Tensor {
        &self.grad_w
    }
}

impl Layer for Dense {
    fn try_forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        if x.ndim() != 2 || x.shape()[1] != self.in_features() {
            return Err(NnError::ShapeMismatch {
                layer: "dense",
                expected: format!("[batch, {}]", self.in_features()),
                got: x.shape().to_vec(),
            });
        }
        self.cached_input = Some(x.clone());
        // y = x Wᵀ : [batch, out]
        let wt = self.weights.transposed();
        Ok(linalg::matmul(x, &wt))
    }

    fn try_backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "dense" })?;
        if grad_out.ndim() != 2 || grad_out.shape()[0] != x.shape()[0] {
            return Err(NnError::ShapeMismatch {
                layer: "dense",
                expected: format!("[{}, {}] upstream gradient", x.shape()[0], self.out_features()),
                got: grad_out.shape().to_vec(),
            });
        }
        // dW = gradᵀ · x : [out, in]
        let gt = grad_out.transposed();
        let dw = linalg::matmul(&gt, x);
        self.grad_w.axpy(1.0, &dw);
        // dX = grad · W : [batch, in]
        Ok(linalg::matmul(grad_out, &self.weights))
    }

    fn update(&mut self, opt: &Sgd) {
        opt.step(&mut self.weights, &self.grad_w);
        self.grad_w.zero_();
    }

    fn param_count(&self) -> usize {
        self.weights.len()
    }
}

// ---------------------------------------------------------------------------
// Activation layer
// ---------------------------------------------------------------------------

/// A pointwise activation as a layer (caches pre-activations — the logits
/// `h_k` whose comparator bits the LDSU stores).
#[derive(Debug, Clone)]
pub struct ActivationLayer {
    act: Activation,
    cached_logits: Option<Tensor>,
}

impl ActivationLayer {
    /// Wrap an activation function.
    pub fn new(act: Activation) -> Self {
        Self { act, cached_logits: None }
    }

    /// The wrapped function.
    pub fn activation(&self) -> Activation {
        self.act
    }
}

impl Layer for ActivationLayer {
    fn try_forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        self.cached_logits = Some(x.clone());
        Ok(x.map(|v| self.act.forward(v)))
    }

    fn try_backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let h = self
            .cached_logits
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "activation" })?;
        if grad_out.shape() != h.shape() {
            return Err(NnError::ShapeMismatch {
                layer: "activation",
                expected: format!("{:?} upstream gradient", h.shape()),
                got: grad_out.shape().to_vec(),
            });
        }
        Ok(grad_out.zip_map(h, |g, hv| g * self.act.derivative(hv)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn activation_forward_derivative_consistency() {
        for act in [Activation::Identity, Activation::Relu, Activation::gst_paper()] {
            for &x in &[-2.0f32, -0.1, 0.0, 0.1, 2.0] {
                let eps = 1e-3;
                let fd = (act.forward(x + eps) - act.forward(x - eps)) / (2.0 * eps);
                // Skip the kink where the finite difference is ill-defined.
                if x.abs() > 2.0 * eps {
                    assert!(
                        (fd - act.derivative(x)).abs() < 1e-2,
                        "{act:?} derivative mismatch at {x}: fd={fd} vs {}",
                        act.derivative(x)
                    );
                }
            }
        }
    }

    #[test]
    fn gst_relu_with_unit_slope_is_relu() {
        let gst = Activation::GstRelu { threshold: 0.0, slope: 1.0 };
        for &x in &[-1.0f32, 0.0, 0.5, 3.0] {
            assert_eq!(gst.forward(x), Activation::Relu.forward(x));
        }
    }

    #[test]
    fn dense_forward_known_answer() {
        let w = Tensor::from_vec(&[2, 3], vec![1., 0., -1., 0.5, 0.5, 0.5]);
        let mut d = Dense::from_weights(w);
        let x = Tensor::from_vec(&[1, 3], vec![2., 4., 6.]);
        let y = d.try_forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[-4.0, 6.0]);
    }

    #[test]
    fn dense_backward_matches_finite_difference() {
        let mut rng = seeded_rng(7);
        let mut d = Dense::new(3, 4, &mut rng);
        let x = Tensor::from_vec(&[2, 4], vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8]);
        // Loss = sum(y); dL/dy = ones.
        d.try_forward(&x).unwrap();
        let gx = d.try_backward(&Tensor::full(&[2, 3], 1.0)).unwrap();
        // Finite-difference the input gradient.
        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = d.try_forward(&xp).unwrap().sum();
            let ym = d.try_forward(&xm).unwrap().sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - gx.data()[i]).abs() < 1e-2,
                "input grad mismatch at {i}: fd={fd} vs {}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn dense_weight_gradient_matches_finite_difference() {
        let mut rng = seeded_rng(8);
        let mut d = Dense::new(2, 3, &mut rng);
        let x = Tensor::from_vec(&[1, 3], vec![0.3, -0.6, 0.9]);
        d.try_forward(&x).unwrap();
        d.try_backward(&Tensor::full(&[1, 2], 1.0)).unwrap();
        let analytic = d.grad_weights().clone();
        let eps = 1e-3;
        for i in 0..d.weights.len() {
            let orig = d.weights.data()[i];
            d.weights.data_mut()[i] = orig + eps;
            let yp = d.try_forward(&x).unwrap().sum();
            d.weights.data_mut()[i] = orig - eps;
            let ym = d.try_forward(&x).unwrap().sum();
            d.weights.data_mut()[i] = orig;
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - analytic.data()[i]).abs() < 1e-2,
                "weight grad mismatch at {i}: fd={fd} vs {}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn shape_violations_surface_as_typed_errors() {
        let mut rng = seeded_rng(11);
        let mut d = Dense::new(3, 4, &mut rng);
        let narrow = Tensor::zeros(&[2, 5]);
        match d.try_forward(&narrow) {
            Err(NnError::ShapeMismatch { layer: "dense", got, .. }) => assert_eq!(got, vec![2, 5]),
            other => panic!("expected dense shape error, got {other:?}"),
        }
        let mut act = ActivationLayer::new(Activation::Relu);
        act.try_forward(&Tensor::zeros(&[2, 3])).unwrap();
        assert!(matches!(
            act.try_backward(&Tensor::zeros(&[3, 2])),
            Err(NnError::ShapeMismatch { layer: "activation", .. })
        ));
    }

    #[test]
    fn backward_before_forward_is_a_typed_error() {
        let mut d = Dense::from_weights(Tensor::from_vec(&[1, 2], vec![1.0, -1.0]));
        assert_eq!(
            d.try_backward(&Tensor::zeros(&[1, 1])),
            Err(NnError::BackwardBeforeForward { layer: "dense" })
        );
        let mut act = ActivationLayer::new(Activation::gst_paper());
        assert_eq!(
            act.try_backward(&Tensor::zeros(&[1, 1])),
            Err(NnError::BackwardBeforeForward { layer: "activation" })
        );
    }

    #[test]
    fn update_applies_sgd_and_clears_grads() {
        let mut d = Dense::from_weights(Tensor::from_vec(&[1, 2], vec![0.5, -0.5]));
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        d.try_forward(&x).unwrap();
        d.try_backward(&Tensor::from_vec(&[1, 1], vec![1.0])).unwrap();
        d.update(&Sgd::new(0.1));
        // dW = [1, 1] → W −= 0.1
        assert_eq!(d.weights.data(), &[0.4, -0.6]);
        assert_eq!(d.grad_weights().data(), &[0.0, 0.0]);
    }
}
