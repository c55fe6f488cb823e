//! # trident-nn
//!
//! Neural-network substrate for the Trident reproduction.
//!
//! The paper's functional story (Table II, Eqs. 1–3) is that one photonic
//! PE can execute the three computations of backpropagation-based training:
//! the forward MAC, the gradient-vector product, and the weight-update
//! outer product. To *verify* that the photonic engine computes the right
//! numbers, we need a trustworthy float reference: this crate's MLP.
//!
//! * [`tensor`] — a minimal dense tensor (row-major `f32`).
//! * [`linalg`] — GEMM / GEMV / outer products as plain sequential loops
//!   (the dense layers' arithmetic).
//! * [`init`] — seeded weight initialisers.
//! * [`layers`] — dense and pointwise-activation layers, each with
//!   forward *and* backward passes.
//! * [`loss`] — softmax cross-entropy with its gradient.
//! * [`optim`] — SGD (Eq. 1 of the paper: `W ← W − β·δW`).
//! * [`network`] — a sequential container wiring layers into a trainable
//!   model.
//! * [`data`] — seeded synthetic datasets (procedural digit glyphs and
//!   Gaussian blobs) so experiments run hermetically.

#![warn(missing_docs)]
// Index-heavy device/tensor kernels: explicit indices mirror the
// row/column math in the comments better than iterator adaptors.
#![allow(clippy::needless_range_loop)]
#![deny(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless))]

pub mod data;
pub mod error;
pub mod init;
pub mod layers;
pub mod linalg;
pub mod loss;
pub mod network;
pub mod optim;
pub mod tensor;

pub use error::NnError;
pub use layers::{Activation, ActivationLayer, Dense, Layer};
pub use loss::softmax_cross_entropy;
pub use network::Sequential;
pub use optim::Sgd;
pub use tensor::Tensor;
