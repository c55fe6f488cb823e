//! Serving demo: a 3-replica Trident fleet under Poisson load takes a
//! dead-ring fault on one replica mid-run and keeps serving — the
//! router's least-loaded dispatch spreads work over the survivors and
//! the healthy chips' accuracy carries the fleet.
//!
//! ```sh
//! cargo run --release --example serve_demo
//! ```
//!
//! Prints the healthy-baseline and faulted goodput reports side by side
//! plus the per-replica ledgers, so the degradation (and its grace) is
//! visible in one screen.


#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
use trident::arch::engine::{EngineOptions, PhotonicMlp};
use trident::arch::faults::FaultPlan;
use trident::nn::data::synthetic_digits;
use trident::serve::sim::FaultEvent;
use trident::serve::{ArrivalProcess, ReplicaProfile, ServeConfig, ServeReport, Sharding};

const DIMS: [usize; 3] = [64, 16, 10];

/// The request sample pool: `(input, label)` pairs.
type Pool = Vec<(Vec<f64>, usize)>;

/// Train the shared digit model once on an ideal engine and return its
/// deployable weights plus the request sample pool.
fn pretrained_and_pool() -> (Vec<Vec<f64>>, Pool) {
    let data = synthetic_digits(4, 0.05, 42);
    let xs: Vec<Vec<f64>> = (0..data.len())
        .map(|i| data.inputs.row(i).iter().map(|&v| f64::from(v)).collect())
        .collect();
    let opts = EngineOptions { seed: 11, ..Default::default() };
    let mut ideal = PhotonicMlp::try_with_options(&DIMS, opts).unwrap();
    ideal.try_train(&xs, &data.labels, 0.1, 12).unwrap();
    let pool = xs.into_iter().zip(data.labels.iter().copied()).collect();
    (ideal.snapshot_weights(), pool)
}

fn config(scenario: &str, fault_events: Vec<FaultEvent>) -> ServeConfig {
    let (weights, pool) = pretrained_and_pool();
    ServeConfig {
        scenario: scenario.to_string(),
        seed: 2024,
        dims: DIMS.to_vec(),
        engine: EngineOptions::default(),
        pretrained: Some(weights),
        dataset: pool,
        replicas: (0..3).map(|i| ReplicaProfile::with_seed(100 + i)).collect(),
        sharding: Sharding::ReplicaParallel,
        batch_max: 8,
        linger_ns: 5_000,
        slo_ns: 30_000,
        est_ns_per_item_init: 4_000,
        arrivals: ArrivalProcess::Poisson { mean_interarrival_ns: 15_000 },
        requests: 300,
        fault_events,
    }
}

fn print_report(r: &ServeReport) {
    println!("scenario: {}", r.scenario);
    println!(
        "  served {}/{} ({} shed), goodput {:.0} req/s, p50 {:.1} us, p99 {:.1} us",
        r.served,
        r.offered,
        r.shed,
        r.goodput_rps(),
        r.p50_ns as f64 / 1000.0,
        r.p99_ns as f64 / 1000.0,
    );
    println!(
        "  accuracy over served: {:.1}%   faults applied: {}",
        r.served_accuracy() * 100.0,
        r.faults_applied
    );
    for rep in &r.replicas {
        println!(
            "  replica {}: {} requests, {} batches, {:.1}% correct, {} masked rings, {:.0} nJ",
            rep.id,
            rep.requests,
            rep.batches,
            if rep.requests == 0 { 0.0 } else { 100.0 * rep.correct as f64 / rep.requests as f64 },
            rep.masked_rings,
            rep.energy_pj / 1000.0,
        );
    }
}

fn main() {
    println!("Trident fleet serving demo: dead-ring fault mid-run\n");

    let healthy = trident::serve::sim::run(&config("healthy", Vec::new())).unwrap();

    // A third of replica 1's microrings delaminate mid-run: masked off the
    // bus, remapped where spares allow, and served around otherwise.
    let strike = FaultEvent {
        at_ns: healthy.horizon_ns / 3,
        replica: 1,
        plan: FaultPlan { dead_rings: 0.33, seed: 5, ..Default::default() },
    };
    let faulted = trident::serve::sim::run(&config("dead-rings@replica-1", vec![strike])).unwrap();

    print_report(&healthy);
    println!();
    print_report(&faulted);

    let retained = if healthy.goodput_rps() > 0.0 {
        100.0 * faulted.goodput_rps() / healthy.goodput_rps()
    } else {
        0.0
    };
    println!(
        "\ngraceful degradation: fleet retains {:.0}% of healthy goodput and {:.1}% accuracy \
         with replica 1 wounded",
        retained,
        faulted.served_accuracy() * 100.0,
    );
}
