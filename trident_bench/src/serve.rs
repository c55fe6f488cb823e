//! `serve`: fleet serving on the simulated clock. One step is one
//! scenario run (`sim::run` / `sim::run_vit`, each building its own
//! fleet); one item is one offered request. A cycle runs seven
//! scenarios with fresh traffic seeds: the Poisson rate ladder at 60, 30,
//! 20 and 15 µs mean inter-arrival over 3 MLP replicas, the bursty
//! arrivals of the serving ablation, a 2-stage layer pipeline at 30 µs,
//! and a 3-replica ViT-tiny fleet. Simulated traffic is an open loop on
//! the virtual clock; the host loop over scenarios is closed.

use crate::harness::{Ledger, Sim, Size, StepCx, Workload};
use crate::models::{self, MLP_DIMS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use trident::arch::engine::EngineOptions;
use trident::arch::transformer::TransformerConfig;
use trident::obs::{self, HistSnapshot};
use trident::photonics::ledger::EnergyLedger;
use trident::serve::fleet::Fleet;
use trident::serve::{frontend, sim, traffic};
use trident::serve::{ArrivalProcess, ReplicaProfile, ServeConfig, ServeReport, Sharding};

const BATCH_MAX: usize = 8;
const MLP_SLO_NS: u64 = 30_000;
/// Highest shed share a ladder rate may show and still count as met.
const MAX_SHED: f64 = 0.01;
/// Separate timings of the fleet builders and traffic front-end per
/// traced run.
const PROBE_REPS: usize = 3;

/// The Poisson rate ladder: report key and mean inter-arrival, ns. A
/// replica serves a batch in tens of simulated ns, so the fleet stays
/// far inside its SLO at the serving ablation's µs-scale gaps; this
/// ladder spans the knee where admission control starts shedding.
const LADDER: [(&str, u64); 4] = [
    ("ia_400ns", 400),
    ("ia_200ns", 200),
    ("ia_100ns", 100),
    ("ia_50ns", 50),
];

struct Sizes {
    per_class: usize,
    mlp_requests: usize,
    vit_requests: usize,
    reference_cycles: u64,
}

fn sizes(size: &Size) -> Sizes {
    if size.smoke {
        Sizes {
            per_class: 4,
            mlp_requests: 256,
            vit_requests: 16,
            reference_cycles: 1,
        }
    } else {
        Sizes {
            per_class: 40,
            mlp_requests: 4096,
            vit_requests: 96,
            reference_cycles: 4,
        }
    }
}

struct Scenario {
    key: &'static str,
    cfg: ServeConfig,
    vit: Option<TransformerConfig>,
}

impl Scenario {
    fn run(&self) -> Result<ServeReport, trident::serve::ServeError> {
        match &self.vit {
            None => {
                let _span = obs::span("serve.sim.run");
                sim::run(&self.cfg)
            }
            Some(vit) => {
                let _span = obs::span("serve.sim.run_vit");
                sim::run_vit(&self.cfg, vit)
            }
        }
    }
}

pub struct Serve {
    scenarios: Vec<Scenario>,
    seed: u64,
    calls: u64,
    reports: Vec<(&'static str, ServeReport)>,
}

/// Traffic seed of scenario call `call`: fresh per call, fixed per run seed.
fn call_seed(seed: u64, call: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(call)
}

fn mlp_profiles(replicas: usize) -> Vec<ReplicaProfile> {
    // The serving ablation's fleet: distinct chip identities, and each
    // later replica's laser budget droops a little more.
    (0..replicas)
        .map(|i| ReplicaProfile {
            variation_seed: 100 + i as u64,
            laser_droop: 0.02 * i as f64,
            ..ReplicaProfile::default()
        })
        .collect()
}

fn scenarios(seed: u64, size: &Size) -> Result<Vec<Scenario>, String> {
    let s = sizes(size);
    let weights = models::pretrained_mlp(size.smoke)?;
    let (xs, labels) = models::digits(s.per_class, seed);
    let pool: Vec<(Vec<f64>, usize)> = xs.into_iter().zip(labels).collect();
    let mlp = |arrivals, sharding, replicas| ServeConfig {
        scenario: String::new(),
        seed: 0,
        dims: MLP_DIMS.to_vec(),
        engine: EngineOptions::default(),
        pretrained: Some(weights.clone()),
        dataset: pool.clone(),
        replicas: mlp_profiles(replicas),
        sharding,
        batch_max: BATCH_MAX,
        linger_ns: 5_000,
        slo_ns: MLP_SLO_NS,
        est_ns_per_item_init: 4_000,
        arrivals,
        requests: s.mlp_requests,
        fault_events: Vec::new(),
    };
    let mut out: Vec<Scenario> = LADDER
        .iter()
        .map(|&(key, ia)| Scenario {
            key,
            cfg: mlp(
                ArrivalProcess::Poisson {
                    mean_interarrival_ns: ia,
                },
                Sharding::ReplicaParallel,
                3,
            ),
            vit: None,
        })
        .collect();
    // The serving ablation's bursts: ~10 requests/µs inside ON windows.
    let bursty = ArrivalProcess::Bursty {
        on_mean_ns: 30_000,
        off_mean_ns: 120_000,
        on_interarrival_ns: 100,
    };
    out.push(Scenario {
        key: "bursty",
        cfg: mlp(bursty, Sharding::ReplicaParallel, 3),
        vit: None,
    });
    let pipeline = ArrivalProcess::Poisson {
        mean_interarrival_ns: 200,
    };
    out.push(Scenario {
        key: "pipeline",
        cfg: mlp(pipeline, Sharding::LayerPipeline, 2),
        vit: None,
    });

    // The ViT runs its seeded, untrained weights, so its random labels
    // only feed a served accuracy that `sim_accuracy` leaves out.
    let vit = TransformerConfig::tiny_vit();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e5e);
    let vit_pool = (0..64)
        .map(|_| {
            let x: Vec<f64> = (0..vit.input_width())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            (x, rng.gen_range(0..vit.out_dim))
        })
        .collect();
    let vit_cfg = ServeConfig {
        dataset: vit_pool,
        replicas: (0..3).map(|i| ReplicaProfile::with_seed(100 + i)).collect(),
        slo_ns: 2_000_000,
        est_ns_per_item_init: 350_000,
        requests: s.vit_requests,
        pretrained: None,
        ..mlp(
            ArrivalProcess::Poisson {
                mean_interarrival_ns: 200_000,
            },
            Sharding::ReplicaParallel,
            3,
        )
    };
    out.push(Scenario {
        key: "vit",
        cfg: vit_cfg,
        vit: Some(vit),
    });
    for sc in &mut out {
        sc.cfg.scenario = sc.key.to_string();
    }
    Ok(out)
}

impl Serve {
    fn scenario(&mut self, call: u64) -> &mut Scenario {
        let n = self.scenarios.len() as u64;
        let sc = &mut self.scenarios[(call % n) as usize];
        sc.cfg.seed = call_seed(self.seed, call);
        sc
    }
}

impl Workload for Serve {
    /// One cycle of the seven scenarios.
    const WINDOW_STEPS: u64 = 7;

    fn reference_steps(size: &Size) -> u64 {
        sizes(size).reference_cycles * Self::WINDOW_STEPS
    }

    fn setup(seed: u64, size: &Size) -> Result<Self, String> {
        Ok(Serve {
            scenarios: scenarios(seed, size)?,
            seed,
            calls: 0,
            reports: Vec::new(),
        })
    }

    fn step(&mut self, cx: &mut StepCx) -> u64 {
        let call = self.calls;
        self.calls += 1;
        let sc = self.scenario(call);
        let (key, offered) = (sc.key, sc.cfg.requests as u64);
        match sc.run() {
            Ok(report) => {
                cx.output_bytes(report.to_json().as_bytes());
                self.reports.push((key, report));
            }
            Err(e) => cx.error(key, e),
        }
        offered
    }

    fn reference(&mut self, _cx: &mut StepCx) -> Sim {
        reference_metrics(&self.reports)
    }

    fn probe(&mut self) {
        let mlp = &self.scenarios[0].cfg;
        let vit = &self.scenarios[6];
        for _ in 0..PROBE_REPS {
            {
                let _span = obs::span("serve.fleet.try_build");
                let _ = Fleet::try_build(
                    &mlp.dims,
                    mlp.engine,
                    &mlp.replicas,
                    mlp.pretrained.as_deref(),
                    mlp.sharding,
                    mlp.est_ns_per_item_init,
                );
            }
            if let Some(vit_cfg) = &vit.vit {
                let _span = obs::span("serve.fleet.try_build_vit");
                let _ = Fleet::try_build_vit(
                    vit_cfg,
                    &vit.cfg.replicas,
                    vit.cfg.sharding,
                    vit.cfg.est_ns_per_item_init,
                );
            }
            let arrivals = {
                let _span = obs::span("serve.traffic.generate_arrivals");
                traffic::generate_arrivals(mlp.arrivals, mlp.seed, mlp.requests)
            };
            let _span = obs::span("serve.frontend.prepare_requests");
            let _ = frontend::prepare_requests(
                &arrivals,
                &mlp.dataset,
                MLP_DIMS[0],
                mlp.seed,
                mlp.slo_ns,
            );
        }
    }

    fn check(&mut self, ledger: &mut Ledger) {
        for (key, report) in &self.reports {
            check_report(key, report, ledger);
        }
        // One scenario re-run from its config must reproduce its report.
        if let Some((key, first)) = self.reports.first().map(|(k, r)| (*k, r.to_json())) {
            let again = self.scenario(0).run().map(|r| r.to_json());
            ledger.check(again.as_deref() == Ok(first.as_str()), || {
                format!("serve {key}: re-running the scenario changed its report")
            });
        }
    }
}

/// Accounting identities every serve report must satisfy.
pub fn check_report(key: &str, r: &ServeReport, ledger: &mut Ledger) {
    ledger.check(r.served + r.shed == r.offered, || {
        format!(
            "serve {key}: served {} + shed {} != offered {}",
            r.served, r.shed, r.offered
        )
    });
    ledger.check(r.on_time + r.slo_misses == r.served, || {
        format!(
            "serve {key}: on_time {} + slo_misses {} != served {}",
            r.on_time, r.slo_misses, r.served
        )
    });
    let replicas_ok = if r.sharding == Sharding::LayerPipeline.key() {
        r.replicas.iter().all(|rep| rep.requests == r.served)
    } else {
        r.replicas.iter().map(|rep| rep.requests).sum::<u64>() == r.served
    };
    ledger.check(replicas_ok, || {
        format!("serve {key}: replica request ledgers disagree with served")
    });
}

/// One scenario's reports merged over the reference cycles.
#[derive(Default)]
struct Merged {
    latency: HistSnapshot,
    offered: u64,
    shed: u64,
    served: u64,
    busy_ns: f64,
    energy_pj: f64,
}

/// The simulated metrics over the reference cycles. Per-request time and
/// energy are averaged over the scenarios, each over its own served
/// requests, so how many requests a seed's traffic sheds does not shift
/// the mix between cheap MLP and costly ViT requests.
fn reference_metrics(reports: &[(&'static str, ServeReport)]) -> Sim {
    let mut merged: BTreeMap<&str, Merged> = BTreeMap::new();
    for (key, r) in reports {
        let m = merged.entry(key).or_insert_with(|| Merged {
            latency: HistSnapshot::zero(),
            ..Merged::default()
        });
        m.latency = m.latency.merge(&r.latency);
        m.offered += r.offered;
        m.shed += r.shed;
        m.served += r.served;
        m.busy_ns += r.replicas.iter().map(|rep| rep.busy_ns as f64).sum::<f64>();
        m.energy_pj += r.replicas.iter().map(|rep| rep.energy_pj).sum::<f64>();
    }
    let per_scenario = |f: &dyn Fn(&Merged) -> f64| {
        merged
            .values()
            .map(|m| f(m) / m.served.max(1) as f64)
            .sum::<f64>()
            / merged.len().max(1) as f64
    };
    let sum = |f: &dyn Fn(&ServeReport) -> f64| reports.iter().map(|(_, r)| f(r)).sum::<f64>();
    let mlp = |f: &dyn Fn(&ServeReport) -> f64| {
        reports
            .iter()
            .filter(|(k, _)| *k != "vit")
            .map(|(_, r)| f(r))
            .sum::<f64>()
    };
    let pj_per_request = per_scenario(&|m| m.energy_pj);
    let mut sim = Sim {
        us_per_item: per_scenario(&|m| m.busy_ns) / 1e3,
        uj_per_item: pj_per_request / 1e6,
        accuracy: mlp(&|r| r.served_correct as f64) / mlp(&|r| r.served as f64),
        ..Sim::default()
    };
    // Replica ledgers are not itemised: all of it is unitemized.
    sim.set_energy(
        &EnergyLedger::new(),
        &EnergyLedger::new(),
        pj_per_request,
        1.0,
    );

    let p99_us = |key: &str| {
        merged
            .get(key)
            .map_or(0.0, |m| m.latency.quantile_upper_ns(99, 100) as f64 / 1e3)
    };
    for key in merged.keys() {
        sim.layers
            .insert(crate::registry::serve_scenario_metric(key), p99_us(key));
    }
    sim.layers
        .insert("serve.sim_p99_us".to_string(), p99_us("ia_100ns"));
    let offered = sum(&|r| r.offered as f64);
    sim.layers.insert(
        "serve.sim_goodput_ratio".to_string(),
        sum(&|r| r.on_time as f64) / offered,
    );
    let allocs = sum(&|r| r.steady_state_allocs as f64) / reports.len().max(1) as f64;
    sim.layers
        .insert("serve.steady_state_allocs.per_scenario".to_string(), allocs);
    let max_rps = LADDER
        .iter()
        .filter(|(key, _)| {
            merged.get(key).is_some_and(|m| {
                p99_us(key) * 1e3 <= MLP_SLO_NS as f64
                    && m.shed as f64 <= MAX_SHED * m.offered as f64
            })
        })
        .map(|(_, ia)| 1e9 / *ia as f64)
        .fold(0.0, f64::max);
    sim.layers
        .insert("serve.sim_max_rps_at_slo".to_string(), max_rps);
    sim
}
