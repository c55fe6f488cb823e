//! # trident-arch
//!
//! The Trident accelerator: the paper's primary contribution.
//!
//! Two coupled layers of modelling:
//!
//! **Functional** — value-accurate simulation of the optical datapath:
//! * [`bank`] — the J×N PCM-MRR weight bank: optical programming, WDM
//!   matrix-vector products through the ring physics, per-ring readout for
//!   the outer-product mode.
//! * [`pe`] — one processing element: bank + balanced photodetectors +
//!   TIAs + LDSUs + GST activation cells, operable in the three Table II
//!   modes (inference, gradient vector, weight-update outer product).
//! * `tile` — `TileGemm`, the one GEMM primitive every model lowers onto:
//!   a logical matrix on a grid of 16×16 PEs, cut into tiles, programmed,
//!   multiplied and partial-sum accumulated in one place.
//! * [`chip`] — a model's tile grids and the chip-wide operations:
//!   faults, the write path, aging, drift calibration, ring accounting.
//! * [`engine`] — a multi-PE engine that runs whole dense networks
//!   photonically, for inference and full in-situ backpropagation, with
//!   energy/time ledgers.
//! * [`transformer`] — transformer blocks on the same fabric: attention
//!   as chained MVMs with the KV-cache held *in* the PCM banks, digital
//!   LDSU softmax/LayerNorm, ViT-style classify and GPT-style decode
//!   paths with straight-line f64 digital twins.
//!
//! **Analytical** — the evaluation-section models:
//! * [`config`] — the architecture's constants (Table III device powers,
//!   44 PEs × 256 MRRs, 1.37 GHz clock, symbol rate).
//! * [`power`] — the Table III PE power breakdown and the 0.67 W → 0.11 W
//!   steady-state claim.
//! * [`area`] — the Fig. 5 chip-area breakdown (604.6 mm², TIA-dominated).
//! * [`perf`] — per-layer energy/latency for whole CNNs under the
//!   weight-stationary dataflow (feeds Fig. 4 and Fig. 6).
//! * [`training`] — the Table V training-time model, the dual adaptive
//!   training loop, and the deploy-and-fine-tune study protocol.
//! * [`variation`], [`faults`] — the variation, drift and fault studies
//!   on it (train-ideal → deploy-degraded → recover in situ).

#![warn(missing_docs)]
// Index-heavy device/tensor kernels: explicit indices mirror the
// row/column math in the comments better than iterator adaptors.
#![allow(clippy::needless_range_loop)]
#![deny(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless))]

pub mod area;
pub mod bank;
pub mod chip;
pub mod config;
pub mod conv_engine;
pub mod design_space;
pub mod dfa;
pub mod endurance;
pub mod error;
pub mod faults;
pub mod fidelity;
pub mod engine;
pub mod mapper;
pub mod pe;
pub mod perf;
pub mod pipeline;
pub mod power;
mod tile;
pub mod training;
pub mod transformer;
pub mod variation;

pub use bank::{ProgramReport, WeightBank};
pub use chip::Chip;
pub use config::TridentConfig;
pub use error::ArchError;
pub use faults::{FaultCampaignRow, FaultPlan, FaultReport};
pub use mapper::DeploymentPlan;
pub use pipeline::PipelineReport;
pub use conv_engine::PhotonicCnn;
pub use engine::{EngineOptions, PhotonicMlp, TrainingOutcome};
pub use pe::{PeMode, ProcessingElement};
pub use perf::{LayerPerf, ModelPerf, TridentPerfModel};
pub use power::PePowerModel;
pub use training::{AdaptationOutcome, DeploymentStudy, DualAdaptiveTrainer, ErrorModel};
pub use transformer::{PhotonicTransformer, TransformerConfig};
pub use variation::{DriftRow, VariationRow};
