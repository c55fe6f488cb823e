//! Every workload and metric the benchmark reports, with unit, direction
//! and (end-to-end only) regression bound. `BENCHMARK.json` at the
//! repository root mirrors these tables; a unit test keeps them equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn key(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before a change is a regression;
/// per-layer metrics carry no bound.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The workloads, with the reason each exists (one line each).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "classify",
        "read-only inference: MLP on an aged stat-PCM chip plus CNN, batches of 8; PE readout and read noise work, zero PCM writes",
    ),
    (
        "train",
        "in-situ backprop, alternating MLP and CNN steps; GST write pulses and outer products dominate, the write path classify skips",
    ),
    (
        "decode",
        "GPT KV-cache decode at max_seq 64: small interleaved PCM writes, position-growing reads, LDSU softmax and LayerNorm",
    ),
    (
        "serve",
        "fleet serving: 7 simulated scenarios per cycle (rate ladder, bursty, pipeline, ViT); the only user of serve and ViT code",
    ),
];

/// Metrics a user of the simulator sees, reported with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("items_per_s", "1/s", Higher, 0.20),
    e2e("item_p50_us", "us", Lower, 0.20),
    e2e("item_p90_us", "us", Lower, 0.24),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("sim_items_per_s", "1/sim_s", Higher, 0.05),
    e2e("sim_uj_per_item", "uJ", Lower, 0.05),
    e2e("sim_accuracy", "fraction", Higher, 0.10),
];

/// Bench-opened spans around public calls, reported as µs per call.
pub const HOST_SPANS: &[&str] = &[
    "arch.mlp.forward_batch",
    "arch.cnn.forward_batch",
    "arch.mlp.train_sample",
    "arch.cnn.train_sample",
    "arch.transformer.decode_token",
    "arch.transformer.decode_token.pos_00_15",
    "arch.transformer.decode_token.pos_48_63",
    "arch.transformer.reset_cache",
    "serve.sim.run",
    "serve.sim.run_vit",
    "serve.fleet.try_build",
    "serve.fleet.try_build_vit",
    "serve.traffic.generate_arrivals",
    "serve.frontend.prepare_requests",
    "nn.data.synthetic_digits",
    "arch.mlp.pretrain",
    "arch.mlp.deploy",
    "arch.mlp.age_and_calibrate",
    "arch.cnn.build",
    "arch.transformer.build",
];

/// Spans the simulator itself opens, reported as self µs per item.
pub const PROGRAM_SPANS: &[&str] = &[
    "engine.forward_batch",
    "engine.forward",
    "forward.layer0",
    "forward.layer1",
    "engine.train_sample",
    "backward.layer0.outer_product",
    "backward.layer1.outer_product",
    "backward.layer1.gradient_vector",
    "serve.run",
    "serve.dispatch",
];

/// `EnergyLedger` line items, reported as simulated pJ per item. Ledger
/// items outside this list, and engines without an itemised ledger,
/// land in `unitemized`, so the breakdown always sums to the total.
pub const LEDGER_ITEMS: &[&str] = &[
    "gst write",
    "mrr read",
    "eo modulation",
    "activation reset",
    "psum accumulate",
    "drift calibration",
    "ldsu fifo",
    "ldsu softmax",
    "ldsu layernorm",
    "ldsu residual",
    "unitemized",
];

/// The serve rate ladder plus the other scenarios, by report key.
pub const SERVE_SCENARIOS: &[&str] = &[
    "ia_400ns", "ia_200ns", "ia_100ns", "ia_50ns", "bursty", "pipeline", "vit",
];

/// Per-layer metrics that are not span or ledger families.
pub const OTHER_LAYERS: &[Metric] = &[
    layer("photonics.mac_ops.per_item", "count", Lower),
    layer("photonics.detector_readouts.per_item", "count", Lower),
    layer("photonics.tia_amplifications.per_item", "count", Lower),
    layer("pcm.reads.per_item", "count", Lower),
    layer("pcm.writes.per_item", "count", Lower),
    layer("pcm.write_pj.per_item", "pJ", Lower),
    layer("pcm.stat_noise_samples.per_item", "count", Lower),
    layer("arch.transformer.kv_writes.per_item", "count", Lower),
    layer("arch.transformer.kv_reads.per_item", "count", Lower),
    layer("pcm.ldsu.softmax_rows.per_item", "count", Lower),
    layer("pcm.ldsu.layer_norm_rows.per_item", "count", Lower),
    layer("serve.batch_fill", "fraction", Higher),
    layer("serve.shed_ratio", "fraction", Lower),
    layer("serve.slo_miss_ratio", "fraction", Lower),
    layer("serve.steady_state_allocs.per_scenario", "count", Lower),
    layer("arch.hot_path_allocs.per_item", "count", Lower),
    layer("rayon.parallel_regions.per_item", "count", Lower),
    layer("rayon.threads_spawned.per_item", "count", Lower),
    layer("sim.forward_layer_ns.per_item", "sim_ns", Lower),
    layer("sim.backward_layer_ns.per_item", "sim_ns", Lower),
    layer("setup.pcm.writes", "count", Lower),
    layer("setup.pcm.write_pj", "pJ", Lower),
    layer("serve.sim_p99_us", "sim_us", Lower),
    layer("serve.sim_goodput_ratio", "fraction", Higher),
    layer("serve.sim_max_rps_at_slo", "sim_req/s", Higher),
    layer("obs.trace_overhead_ratio", "ratio", Higher),
    layer("obs.spans_dropped", "count", Lower),
];

pub fn host_span_metric(span: &str) -> String {
    format!("{span}.us_per_call")
}

pub fn program_span_metric(span: &str) -> String {
    format!("{span}.self_us_per_item")
}

pub fn ledger_metric(item: &str) -> String {
    format!("sim.energy.{}.pj_per_item", item.replace(' ', "_"))
}

pub fn serve_scenario_metric(key: &str) -> String {
    format!("serve.{key}.sim_p99_us")
}

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::new();
    out.extend(
        HOST_SPANS
            .iter()
            .map(|s| (host_span_metric(s), "us", Lower)),
    );
    out.extend(
        PROGRAM_SPANS
            .iter()
            .map(|s| (program_span_metric(s), "us", Lower)),
    );
    out.extend(
        OTHER_LAYERS
            .iter()
            .map(|m| (m.name.to_string(), m.unit, m.better)),
    );
    out.extend(LEDGER_ITEMS.iter().map(|i| (ledger_metric(i), "pJ", Lower)));
    out.extend(
        SERVE_SCENARIOS
            .iter()
            .map(|k| (serve_scenario_metric(k), "sim_us", Lower)),
    );
    out
}
