//! # trident-bench
//!
//! Benchmark harness for the Trident reproduction.
//!
//! ## Paper-artifact binaries (`src/bin/`)
//!
//! | binary | artifact |
//! |---|---|
//! | `table1`…`table5` | Tables I–V |
//! | `fig3`…`fig6` | Figures 3–6 |
//! | `repro_all` | everything above in one run |
//! | `ablation_bits` | training accuracy vs weight resolution |
//! | `ablation_tuning` | GST vs thermal vs electric vs hybrid tuning |
//! | `ablation_adc` | photonic activation + LDSU vs ADC-per-layer |
//! | `ablation_scale` | PE count / TOPS across power envelopes |
//! | `ablation_dfa` | backprop vs direct feedback alignment |
//! | `ablation_variation` | fabrication variation + in-situ recovery |
//! | `design_space` | bank-geometry Pareto sweep |
//! | `fidelity` | Monte-Carlo analog ENOB of the MVM path |
//! | `roofline` | arithmetic intensity / roofline positions |
//! | `trident_sim` | multi-command CLI (analyze/deploy/pipeline/compare/gate); `gate` is the reproduction gate (non-zero exit on failure) |
//!
//! ## Criterion benches (`benches/`)
//!
//! Microbenchmarks of the simulator's hot paths: ring physics, LUT
//! calibration, bank programming/MVM, PE operating modes, the in-situ
//! training engine, topology builders, dataflow mapping, and the
//! experiment runners.

#![deny(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless))]
