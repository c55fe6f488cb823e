//! Pipelined execution across the PE chain (Fig. 1 of the paper).
//!
//! §III-A: "the output of each layer is forwarded to the next until the
//! last layer is completed" — with one PE group per layer, consecutive
//! inputs overlap: layer k processes image i while layer k+1 finishes
//! image i−1. This module runs that schedule exactly (a dependency-driven
//! event recurrence, not an analytical shortcut) and reports the makespan,
//! steady-state throughput, and the bottleneck stage for any model and
//! batch size.
//!
//! The recurrence: `finish[k][i] = max(finish[k][i−1], finish[k−1][i]) +
//! service[k]`, after a one-time setup in which every stage's weight tiles
//! are programmed.

use crate::perf::TridentPerfModel;
use trident_photonics::units::Nanoseconds;
use trident_workload::model::ModelSpec;

/// One pipeline stage (one MAC layer).
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Layer name.
    pub name: String,
    /// Per-image service time (streaming through the stage's tiles).
    pub service: Nanoseconds,
    /// One-time weight programming for the stage.
    pub setup: Nanoseconds,
}

/// Result of a pipelined run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Model name.
    pub model_name: String,
    /// Images pushed through.
    pub batch: usize,
    /// Stages in network order.
    pub stages: Vec<Stage>,
    /// One-time setup (programming all stages; stages program in
    /// parallel across their own PEs, so setup is the max, not the sum).
    pub setup: Nanoseconds,
    /// Time from first input to last output, excluding setup.
    pub makespan: Nanoseconds,
    /// Latency of the first image (the un-pipelined path).
    pub first_image_latency: Nanoseconds,
    /// Index of the slowest stage.
    pub bottleneck: usize,
}

impl PipelineReport {
    /// Steady-state images per second once the pipe is full.
    pub fn throughput(&self) -> f64 {
        let bottleneck = self.stages[self.bottleneck].service;
        bottleneck.rate_hz()
    }

    /// Average images per second over this batch including fill/drain.
    pub fn effective_throughput(&self) -> f64 {
        self.batch as f64 / self.makespan.secs()
    }

    /// Pipelining speedup over running images strictly one after another.
    pub fn speedup_vs_sequential(&self) -> f64 {
        let sequential = self.first_image_latency * self.batch as f64;
        sequential / self.makespan
    }
}

/// Simulate `batch` images flowing through the layer pipeline of `model`
/// under `perf`'s architecture.
pub fn simulate(perf: &TridentPerfModel, model: &ModelSpec, batch: usize) -> PipelineReport {
    assert!(batch >= 1, "need at least one image");
    let analysis = perf.analyze(model);
    let stages: Vec<Stage> = analysis
        .layers
        .iter()
        .map(|l| Stage {
            name: l.name.clone(),
            service: l.stream_latency,
            // Unamortized: programming happens once here.
            setup: l.tune_latency * perf.tuning_batch as f64,
        })
        .collect();
    assert!(!stages.is_empty(), "model has no MAC layers");

    // Dependency-driven schedule.
    let n = stages.len();
    let mut finish_prev_item = vec![0.0f64; n]; // finish[k] for item i-1
    let mut first_image_latency = 0.0;
    let mut last_finish = 0.0;
    for item in 0..batch {
        let mut upstream = 0.0f64; // finish[k-1][item]
        for (k, stage) in stages.iter().enumerate() {
            let start = upstream.max(finish_prev_item[k]);
            let finish = start + stage.service.value();
            finish_prev_item[k] = finish;
            upstream = finish;
        }
        if item == 0 {
            first_image_latency = upstream;
        }
        last_finish = upstream;
    }

    let setup = stages
        .iter()
        .map(|s| s.setup)
        .fold(Nanoseconds(0.0), Nanoseconds::max);
    let bottleneck = stages
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.service.value().total_cmp(&b.1.service.value()))
        .map(|(i, _)| i)
        .unwrap_or(0);
    PipelineReport {
        model_name: model.name.clone(),
        batch,
        stages,
        setup,
        makespan: Nanoseconds(last_finish),
        first_image_latency: Nanoseconds(first_image_latency),
        bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_workload::zoo;

    fn perf() -> TridentPerfModel {
        TridentPerfModel::paper()
    }

    #[test]
    fn single_image_equals_sum_of_services() {
        let report = simulate(&perf(), &zoo::alexnet(), 1);
        let sum: f64 = report.stages.iter().map(|s| s.service.value()).sum();
        assert!((report.makespan.value() - sum).abs() < 1e-6);
        assert_eq!(report.makespan, report.first_image_latency);
    }

    #[test]
    fn pipelining_approaches_bottleneck_rate() {
        let report = simulate(&perf(), &zoo::googlenet(), 200);
        let steady = report.throughput();
        let effective = report.effective_throughput();
        assert!(effective <= steady * 1.001, "cannot beat the bottleneck");
        assert!(
            effective > steady * 0.5,
            "200 images should fill the pipe: {effective} vs {steady}"
        );
    }

    #[test]
    fn speedup_grows_with_batch() {
        let m = zoo::mobilenet_v2();
        let s1 = simulate(&perf(), &m, 1).speedup_vs_sequential();
        let s16 = simulate(&perf(), &m, 16).speedup_vs_sequential();
        let s128 = simulate(&perf(), &m, 128).speedup_vs_sequential();
        assert!((s1 - 1.0).abs() < 1e-9);
        assert!(s16 > 1.5, "16-image speedup {s16}");
        assert!(s128 > s16);
    }

    #[test]
    fn bottleneck_is_a_real_stage() {
        let report = simulate(&perf(), &zoo::vgg16(), 4);
        assert!(report.bottleneck < report.stages.len());
        let b = report.stages[report.bottleneck].service;
        assert!(report.stages.iter().all(|s| s.service.value() <= b.value()));
    }

    #[test]
    fn makespan_monotone_in_batch() {
        let m = zoo::alexnet();
        let m1 = simulate(&perf(), &m, 1).makespan;
        let m8 = simulate(&perf(), &m, 8).makespan;
        let m64 = simulate(&perf(), &m, 64).makespan;
        assert!(m1.value() < m8.value());
        assert!(m8.value() < m64.value());
        // And sub-linear: pipelined 64 beats 64 sequential runs.
        assert!(m64.value() < 64.0 * m1.value());
    }

    #[test]
    fn setup_is_parallel_across_stages() {
        let report = simulate(&perf(), &zoo::alexnet(), 1);
        let max_setup =
            report.stages.iter().map(|s| s.setup.value()).fold(0.0, f64::max);
        assert!((report.setup.value() - max_setup).abs() < 1e-9);
    }

    #[test]
    fn pipeline_throughput_bounds_analytical_estimate() {
        // The analytical model's per-image latency must lie between the
        // pipeline's bottleneck period and its single-image latency.
        let m = zoo::resnet50();
        let report = simulate(&perf(), &m, 64);
        let analytical = perf().analyze(&m).latency();
        // Analytical = stream + amortized tuning, so it sits between the
        // pure stream path and the stream path plus full setup.
        assert!(
            analytical.value()
                <= report.first_image_latency.value() + report.setup.value() * m.layers.len() as f64
        );
        assert!(analytical.value() >= report.first_image_latency.value() * 0.95);
        assert!(
            analytical.value()
                >= report.stages[report.bottleneck].service.value() * 0.95
        );
    }
}
