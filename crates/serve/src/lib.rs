//! # trident-serve
//!
//! An inference **service** over a fleet of simulated Trident chips:
//! the layer that turns "one accelerator, one forward pass" into
//! "N replicas serving an open-loop request stream under an SLO" —
//! ROADMAP item 1, the step from chip simulation toward the
//! production-scale system the paper's edge positioning implies.
//!
//! The pieces, one module each:
//!
//! * [`traffic`] — deterministic open-loop arrival generation (seeded
//!   Poisson and bursty ON-OFF), counter-addressed like the PCM
//!   statistical model's `seeded_gaussian`: the n-th arrival is a pure
//!   function of `(seed, stream, n)`, never of wall clock or thread
//!   schedule.
//! * [`frontend`] — request preparation: one in-order pass in which
//!   each request is a pure function of its index, so the prepared
//!   stream is byte-identical at any `TRIDENT_THREADS`.
//! * [`batcher`] — the dynamic batcher state machine: size-or-timeout
//!   batch close with generation-tagged timers, plus deadline-aware
//!   admission control that sheds requests whose estimated completion
//!   would already miss their SLO.
//! * [`fleet`] — N replicas, each **owning** an independent engine on
//!   its own chip (laser budget, fabrication variation, fault state,
//!   wear trajectory) — a [`trident_arch::engine::PhotonicMlp`] or a
//!   [`trident_arch::transformer::PhotonicTransformer`] for the ViT
//!   classify path ([`Fleet::try_build_vit`] / [`sim::run_vit`]) —
//!   behind a shard router: replica-parallel or layer-sharded pipeline.
//! * [`sim`] — the event loop: a binary heap of (virtual-time, seq)
//!   events drives arrivals, batch timers, and mid-run fault injection
//!   over **simulated time only** — a `u64` nanosecond clock advanced by
//!   the engines' own latency model.
//! * [`report`] — the machine-readable outcome: p50/p99/p999 latency
//!   from the obs latency histogram, goodput, shed rate, SLO misses,
//!   and per-replica energy/accuracy/wear.
//!
//! ## Determinism contract
//!
//! Everything observable — the latency report, the JSON export, every
//! counter — is a pure function of the [`sim::ServeConfig`]. There is no
//! wall clock anywhere in the data path; tracing on/off and thread count
//! change nothing (`tests/serve_determinism.rs` pins both).

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless))]

pub mod batcher;
pub mod fleet;
pub mod frontend;
pub mod report;
pub mod sim;
pub mod traffic;

pub use fleet::{Fleet, ReplicaProfile, Sharding};
pub use report::{ReplicaReport, ServeReport};
pub use sim::{FaultEvent, ServeConfig};
pub use traffic::ArrivalProcess;

use trident_arch::ArchError;

/// One inference request flowing through the service. Its input
/// borrows the dataset sample it was drawn from.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// Monotone request id (also the arrival order).
    pub id: u64,
    /// Arrival time on the simulated clock, nanoseconds.
    pub arrival_ns: u64,
    /// Absolute SLO deadline, nanoseconds (`arrival_ns + slo_ns`).
    pub deadline_ns: u64,
    /// Input vector (one dataset sample, engine input width).
    pub input: &'a [f64],
    /// Ground-truth class, for served-accuracy accounting.
    pub label: usize,
}

impl AsRef<[f64]> for Request<'_> {
    /// The input vector — lets a `&[Request]` batch feed
    /// `PhotonicMlp::try_forward_batch` directly, with no per-dispatch
    /// slice-of-slices staging allocation.
    fn as_ref(&self) -> &[f64] {
        self.input
    }
}

/// Typed serving-layer errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// An engine operation failed (construction, deploy, forward).
    Arch(ArchError),
    /// The configuration supplies no dataset samples to serve.
    EmptyDataset,
    /// The configuration supplies no replica profiles.
    NoReplicas,
    /// A dataset sample's width does not match the model input width.
    InputWidthMismatch {
        /// Engine input width (`dims[0]`).
        expected: usize,
        /// Offending sample width.
        got: usize,
    },
    /// Layer-pipeline sharding needs at least one weight layer per stage.
    BadPipeline {
        /// Requested pipeline stages (replica profiles).
        stages: usize,
        /// Weight layers available to shard.
        layers: usize,
    },
    /// A fault event targets a replica index outside the fleet.
    ReplicaOutOfRange {
        /// Offending replica index.
        replica: usize,
        /// Fleet size.
        replicas: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Arch(e) => write!(f, "engine error: {e}"),
            ServeError::EmptyDataset => write!(f, "serve config has an empty dataset"),
            ServeError::NoReplicas => write!(f, "serve config has no replica profiles"),
            ServeError::InputWidthMismatch { expected, got } => {
                write!(f, "dataset sample width {got} != engine input width {expected}")
            }
            ServeError::BadPipeline { stages, layers } => write!(
                f,
                "layer pipeline needs stages <= layers, got {stages} stages for {layers} layers"
            ),
            ServeError::ReplicaOutOfRange { replica, replicas } => {
                write!(f, "fault event targets replica {replica} of a {replicas}-replica fleet")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ArchError> for ServeError {
    fn from(e: ArchError) -> Self {
        ServeError::Arch(e)
    }
}
