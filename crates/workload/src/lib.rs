//! # trident-workload
//!
//! CNN workload characterization — the reproduction's substitute for the
//! Maestro cost-model tool the paper used.
//!
//! The paper's evaluation needs, per network and per layer: MAC counts,
//! parameter counts, activation volumes, and a mapping of each layer onto
//! a weight-stationary photonic PE array (tiles, passes, streamed vectors,
//! cache traffic). This crate provides:
//!
//! * [`layer`] — typed layer specifications with exact shape arithmetic.
//! * [`model`] — whole-network descriptions with roll-ups.
//! * [`zoo`] — the five CNNs of the paper's evaluation (AlexNet, VGG-16,
//!   GoogleNet, ResNet-50, MobileNetV2) with 224×224×3 inputs, matching
//!   §IV ("The image input to each of these CNN models is assumed to have
//!   dimensions of 224×224×3").
//! * [`dataflow`] — weight-stationary tiling of each layer onto a J×N
//!   weight bank across P processing elements.
//! * [`kv`] — KV-cache read/write traffic closed forms for the
//!   decoder-style transformer workloads (DESIGN.md §16).

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless))]

pub mod dataflow;
pub mod error;
pub mod kv;
pub mod layer;
pub mod model;
pub mod zoo;

pub use dataflow::{DataflowModel, LayerMapping, ModelMapping};
pub use error::WorkloadError;
pub use kv::KvCachePlan;
pub use layer::{LayerKind, LayerSpec, TensorShape};
pub use model::ModelSpec;
pub use zoo::{
    alexnet, googlenet, gpt_decoder, lenet5, mobilenet_v2, paper_models, resnet50,
    transformer_models, try_by_name, vgg16, vit_tiny,
};
