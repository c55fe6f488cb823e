//! Criterion benchmarks of the serving layer: the end-to-end scenario
//! simulation (traffic → batching → fleet dispatch → report) and the
//! lock-free latency-histogram hot paths it leans on.


#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use trident::arch::engine::EngineOptions;
use trident::obs::{HistSnapshot, LatencyHistogram};
use trident::serve::{ArrivalProcess, ReplicaProfile, ServeConfig, Sharding};

/// A small untrained latency-study scenario: 3 replicas, Poisson
/// arrivals, enough pressure that batches actually form.
fn latency_scenario(requests: usize) -> ServeConfig {
    let dataset: Vec<(Vec<f64>, usize)> = (0..16)
        .map(|i| ((0..16).map(|j| ((i * 16 + j) % 11) as f64 / 11.0).collect(), i % 10))
        .collect();
    ServeConfig {
        scenario: "bench".to_string(),
        seed: 7,
        dims: vec![16, 10],
        engine: EngineOptions::default(),
        pretrained: None,
        dataset,
        replicas: (0..3).map(|i| ReplicaProfile::with_seed(100 + i)).collect(),
        sharding: Sharding::ReplicaParallel,
        batch_max: 8,
        linger_ns: 5_000,
        slo_ns: 30_000,
        est_ns_per_item_init: 4_000,
        arrivals: ArrivalProcess::Poisson { mean_interarrival_ns: 2_000 },
        requests,
        fault_events: Vec::new(),
    }
}

fn serve_scenario(c: &mut Criterion) {
    let cfg = latency_scenario(128);
    c.bench_function("serve_scenario_3x128_poisson", |b| {
        b.iter(|| black_box(trident::serve::sim::run(black_box(&cfg)).unwrap()))
    });
}

/// Steady-state dispatch of one closed batch through a warm fleet: the
/// zero-allocation path (reserved scratch, reused completion buffer,
/// `dispatch_into`). The bench body is exactly what the event loop pays
/// per batch after warm-up; the assert pins the zero-alloc contract so
/// a regression fails the bench run, not just the lint.
fn serve_batch(c: &mut Criterion) {
    use trident::serve::fleet::Completion;
    use trident::serve::{Fleet, Request};
    let cfg = latency_scenario(0);
    c.bench_function("serve_batch_zero_alloc", |b| {
        let mut fleet = Fleet::try_build(
            &cfg.dims,
            cfg.engine,
            &cfg.replicas,
            None,
            cfg.sharding,
            cfg.est_ns_per_item_init,
        )
        .unwrap();
        fleet.reserve_scratch(cfg.batch_max);
        let batch: Vec<Request> = (0..cfg.batch_max)
            .map(|i| Request {
                id: i as u64,
                arrival_ns: 0,
                deadline_ns: cfg.slo_ns,
                input: &cfg.dataset[i % cfg.dataset.len()].0,
                label: cfg.dataset[i % cfg.dataset.len()].1,
            })
            .collect();
        let mut completions: Vec<Completion> = Vec::new();
        // One warm dispatch grows any remaining lazy scratch.
        fleet.dispatch_into(0, &batch, &mut completions).unwrap();
        let warm = fleet.hot_path_allocs();
        let mut now_ns = 1u64;
        b.iter(|| {
            fleet.dispatch_into(black_box(now_ns), black_box(&batch), &mut completions).unwrap();
            now_ns += 1;
            black_box(completions.len())
        });
        assert_eq!(fleet.hot_path_allocs(), warm, "steady-state dispatch allocated");
    });
}

fn histogram_paths(c: &mut Criterion) {
    c.bench_function("hist_record_1k", |b| {
        let h = LatencyHistogram::new();
        b.iter(|| {
            for i in 0..1_000u64 {
                h.record_ns(black_box(i.wrapping_mul(2_654_435_761) % 1_000_000));
            }
            black_box(h.snapshot())
        })
    });
    c.bench_function("hist_merge_and_p999", |b| {
        let h = LatencyHistogram::new();
        for i in 0..10_000u64 {
            h.record_ns(i.wrapping_mul(2_654_435_761) % 1_000_000);
        }
        let snap = h.snapshot();
        b.iter(|| {
            let mut merged = HistSnapshot::zero();
            for _ in 0..8 {
                merged = merged.merge(black_box(&snap));
            }
            black_box(merged.quantile_upper_ns(999, 1000))
        })
    });
}

criterion_group!(benches, serve_scenario, serve_batch, histogram_paths);
criterion_main!(benches);
