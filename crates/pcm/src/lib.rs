//! # trident-pcm
//!
//! Ge₂Sb₂Te₅ (GST) phase-change material models for the Trident
//! reproduction. The paper uses PCM for two distinct purposes and this
//! crate provides both:
//!
//! * [`gst`] — the material itself: a reprogrammable, non-volatile
//!   crystallinity state with 255 optically addressable levels (8 bits),
//!   660 pJ / 300 ns writes, 20 pJ reads, ~10-year retention and
//!   10¹²-cycle endurance.
//! * [`weight`] — a GST cell embedded in an add-drop microring: the
//!   PCM-MRR weight unit of the Trident weight bank, mapping signed neural
//!   weights `w ∈ [-1, 1]` onto balanced drop/through transmission.
//! * [`activation`] — the GST activation cell of Fig. 2e / Fig. 3: a 60 µm
//!   ring with GST at the waveguide crossing whose switching threshold
//!   realises a ReLU-like optical nonlinearity. It fires and is reset
//!   within one pulse window, so it is stateless: its constants, its
//!   transfer and the per-firing reset energy the PE bills.
//! * [`ldsu`] — the Linear Derivative Storage Unit (Fig. 2d): an analog
//!   comparator and a D-flip-flop per row that capture `f'(h)` during the
//!   forward pass so the backward pass never touches memory (its power and
//!   area; the engines apply the bit through one Hadamard rule).
//! * [`stat`] — the seeded *statistical* device layer over [`gst`]:
//!   level-dependent programming noise, per-probe read noise, power-law
//!   conductance drift with per-cell exponents, and the
//!   [`stat::DegradationClock`] that unifies deterministic and
//!   statistical aging behind one simulated-deployment-time source.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless))]

pub mod activation;
pub mod error;
pub mod gst;
pub mod ldsu;
pub mod stat;
pub mod weight;

pub use activation::{fig3_curve, ActivationCellParams, GstRelu};
pub use error::PcmError;
pub use gst::{GstCell, GstFault, GstParameters, WriteReport, WriteVerifyPolicy};
pub use ldsu::Ldsu;
pub use stat::{DegradationClock, StatParams};
pub use weight::{PcmMrr, WeightLut};
