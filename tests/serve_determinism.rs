//! Serving determinism regression (PR 7): a serving run is a pure
//! function of its `ServeConfig` — same seed, same config ⇒ the same
//! report **byte for byte** in its machine-readable JSON form, at any
//! thread count. The simulation guarantees this by running on a virtual
//! clock with counter-addressed randomness (no wall time, no thread
//! interleaving in any result), and the front-end by preparing requests
//! in one plain in-order loop.
//!
//! The thread override is process-global, so everything lives in one
//! `#[test]` — the same pattern as `determinism_threads.rs`.

#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]

use rayon::pool;
use trident::arch::engine::EngineOptions;
use trident::arch::faults::FaultPlan;
use trident::arch::transformer::TransformerConfig;
use trident::experiments::ablations::serve;
use trident::serve::{sim, ArrivalProcess, FaultEvent, ReplicaProfile, ServeConfig, Sharding};

fn at_threads<T>(threads: usize, run: impl Fn() -> T) -> T {
    pool::set_thread_override(Some(threads));
    let result = run();
    pool::set_thread_override(None);
    result
}

/// The full serving ablation (all three scenarios) as one JSON blob —
/// the machine-readable artifact `ablation_serve` writes to disk.
fn reports_json(threads: usize) -> String {
    at_threads(threads, || {
        serve::run(2, 120).iter().map(|r| r.to_json()).collect::<Vec<_>>().join(",\n")
    })
}

/// A ViT fleet with one drooped replica and a mid-run dead-ring fault on
/// another, as its report JSON.
fn vit_json(threads: usize) -> String {
    let vit = TransformerConfig::tiny_vit();
    let width = vit.input_width();
    let dataset = (0..8)
        .map(|c| ((0..width).map(|j| ((c * 7 + j) % 11) as f64 / 11.0 - 0.4).collect(), c % 4))
        .collect();
    let cfg = ServeConfig {
        scenario: "vit/droop+fault".to_string(),
        seed: 31,
        dims: Vec::new(),
        engine: EngineOptions::default(),
        pretrained: None,
        dataset,
        replicas: vec![
            ReplicaProfile { laser_droop: 0.05, ..ReplicaProfile::with_seed(1) },
            ReplicaProfile::with_seed(2),
        ],
        sharding: Sharding::ReplicaParallel,
        batch_max: 4,
        linger_ns: 20_000,
        slo_ns: 5_000_000,
        est_ns_per_item_init: 2_000,
        arrivals: ArrivalProcess::Poisson { mean_interarrival_ns: 10_000 },
        requests: 24,
        fault_events: vec![FaultEvent {
            at_ns: 100_000,
            replica: 1,
            plan: FaultPlan { dead_rings: 0.2, seed: 7, ..FaultPlan::default() },
        }],
    };
    at_threads(threads, || sim::run_vit(&cfg, &vit).unwrap().to_json())
}

#[test]
fn serve_reports_identical_at_1_and_8_threads() {
    let serial = reports_json(1);
    let parallel = reports_json(8);
    assert_eq!(serial, parallel, "serve report JSON drifted across thread counts");

    // Sanity: the blob carries real results, so the comparison above is
    // not vacuously equal over empty runs.
    assert!(serial.contains("\"scenario\": \"poisson/replica-parallel\""));
    assert!(serial.contains("\"scenario\": \"bursty/replica-parallel\""));
    assert!(serial.contains("\"scenario\": \"poisson/layer-pipeline\""));
    assert!(!serial.contains("\"served\": 0,"), "a scenario served nothing:\n{serial}");

    // The human-readable table is a pure function of the same reports.
    let table = |threads| at_threads(threads, || serve::render(2, 120));
    assert_eq!(table(1), table(8), "serve ablation table drifted across thread counts");

    // And re-running at the same thread count reproduces the run exactly
    // — no hidden process-global state leaks between scenarios.
    assert_eq!(reports_json(8), parallel, "serve run is not repeatable in-process");

    // Droop and faults live on the chip, so a ViT fleet carries both and
    // stays just as reproducible.
    let vit = vit_json(1);
    assert_eq!(vit, vit_json(8), "ViT serve report JSON drifted across thread counts");
    assert!(vit.contains("\"faults_applied\": 1,"), "the fault event never struck:\n{vit}");
    assert!(!vit.contains("\"served\": 0,"), "the ViT scenario served nothing:\n{vit}");
}
