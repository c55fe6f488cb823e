//! The serving event loop: a discrete-event simulation over virtual
//! `u64` nanoseconds.
//!
//! Events — request arrivals, batch linger timers, mid-run fault
//! injections — live in a binary heap keyed `(time, seq)`, where `seq`
//! is a global issue counter: equal-time events process in issue order,
//! so the whole run is one deterministic sequence no matter how the
//! events interleave on the virtual clock. All engine work happens
//! inside the single-threaded loop at batch-dispatch time, so float
//! accumulation order is fixed and the report is bitwise reproducible
//! at any `TRIDENT_THREADS`.

use crate::batcher::{BatchPolicy, Batcher, Enqueue};
use crate::fleet::{Fleet, ReplicaProfile, Sharding};
use crate::report::ServeReport;
use crate::traffic::{self, ArrivalProcess};
use crate::{frontend, Request, ServeError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use trident_arch::engine::EngineOptions;
use trident_arch::faults::FaultPlan;
use trident_obs as obs;
use trident_obs::hist::LatencyHistogram;

/// A fault plan scheduled against one replica at a virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes, virtual ns.
    pub at_ns: u64,
    /// Which replica (pipeline: which stage) it strikes.
    pub replica: usize,
    /// What breaks.
    pub plan: FaultPlan,
}

/// Everything a serving run depends on. The report is a pure function
/// of this struct.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Scenario label carried into the report.
    pub scenario: String,
    /// Master seed: traffic, sample selection.
    pub seed: u64,
    /// Network layer widths (input first).
    pub dims: Vec<usize>,
    /// Shared engine architecture knobs; per-replica identity seeds come
    /// from the profiles.
    pub engine: EngineOptions,
    /// Pretrained weights to deploy on every replica (`None` = serve the
    /// Xavier init — fine for latency studies, useless for accuracy).
    pub pretrained: Option<Vec<Vec<f64>>>,
    /// Sample pool requests draw from: `(input, label)` pairs.
    pub dataset: Vec<(Vec<f64>, usize)>,
    /// One profile per replica (pipeline: per stage).
    pub replicas: Vec<ReplicaProfile>,
    /// How the fleet shards the model.
    pub sharding: Sharding,
    /// Batch-close size trigger.
    pub batch_max: usize,
    /// Batch-close linger timeout, ns.
    pub linger_ns: u64,
    /// Per-request SLO, ns after arrival.
    pub slo_ns: u64,
    /// Initial admission-control estimate of per-request service, ns.
    pub est_ns_per_item_init: u64,
    /// Open-loop arrival process.
    pub arrivals: ArrivalProcess,
    /// Number of requests to offer.
    pub requests: usize,
    /// Faults to inject mid-run.
    pub fault_events: Vec<FaultEvent>,
}

/// Completion-side tallies the dispatch path accumulates.
struct Tallies {
    served: u64,
    on_time: u64,
    slo_misses: u64,
    served_correct: u64,
    horizon_ns: u64,
}

/// What kind of thing happens at an event.
enum EventKind {
    /// Request `index` (into the prepared stream) arrives.
    Arrival(usize),
    /// A linger timer armed for batch `generation` fires.
    BatchTimer(u64),
    /// Fault event `index` (into `cfg.fault_events`) strikes.
    Fault(usize),
}

/// Run one serving scenario end to end. The returned report — and its
/// JSON export — is a pure function of `cfg`.
pub fn run(cfg: &ServeConfig) -> Result<ServeReport, ServeError> {
    let fleet = Fleet::try_build(
        &cfg.dims,
        cfg.engine,
        &cfg.replicas,
        cfg.pretrained.as_deref(),
        cfg.sharding,
        cfg.est_ns_per_item_init,
    )?;
    run_on_fleet(cfg, fleet, cfg.dims.first().copied().unwrap_or(0))
}

/// Run one serving scenario over a ViT fleet: every replica owns a
/// [`trident_arch::transformer::PhotonicTransformer`] built from `vit`,
/// and requests carry flat `max_seq × d_model` token sequences
/// (`cfg.dims`, `cfg.engine`, and `cfg.pretrained` are ignored — the
/// transformer's weights come from its own seeded construction).
pub fn run_vit(
    cfg: &ServeConfig,
    vit: &trident_arch::transformer::TransformerConfig,
) -> Result<ServeReport, ServeError> {
    let fleet =
        Fleet::try_build_vit(vit, &cfg.replicas, cfg.sharding, cfg.est_ns_per_item_init)?;
    run_on_fleet(cfg, fleet, vit.input_width())
}

/// The shared event loop: drives arrivals, batching, dispatch, and
/// fault events over an already-built fleet. `input_width` is the flat
/// request width the front-end validates dataset samples against.
fn run_on_fleet(
    cfg: &ServeConfig,
    mut fleet: Fleet,
    input_width: usize,
) -> Result<ServeReport, ServeError> {
    let _span = obs::span("serve.run");
    let arrivals = traffic::generate_arrivals(cfg.arrivals, cfg.seed, cfg.requests);
    // Each request is moved out of its slot by its own arrival event.
    let mut requests: Vec<Option<Request>> = frontend::prepare_requests(
        &arrivals,
        &cfg.dataset,
        input_width,
        cfg.seed,
        cfg.slo_ns,
    )?
    .into_iter()
    .map(Some)
    .collect();
    // Size every replica's forward scratch for the largest batch the
    // batcher can close, so steady-state dispatch allocates nothing.
    fleet.reserve_scratch(cfg.batch_max.max(1));
    for fe in &cfg.fault_events {
        if fe.replica >= fleet.len() {
            return Err(ServeError::ReplicaOutOfRange {
                replica: fe.replica,
                replicas: fleet.len(),
            });
        }
    }

    // Seed the heap: arrivals first (seq = arrival order), then fault
    // events — so a fault scheduled at exactly an arrival's timestamp
    // strikes after that arrival is admitted, a fixed, documented order.
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut next_seq: u64 = 0;
    let mut kinds: Vec<EventKind> = Vec::new();
    for (i, &arrival_ns) in arrivals.iter().enumerate() {
        kinds.push(EventKind::Arrival(i));
        heap.push(Reverse((arrival_ns, next_seq, kinds.len() - 1)));
        next_seq += 1;
    }
    for (i, fe) in cfg.fault_events.iter().enumerate() {
        kinds.push(EventKind::Fault(i));
        heap.push(Reverse((fe.at_ns, next_seq, kinds.len() - 1)));
        next_seq += 1;
    }

    let mut batcher = Batcher::new(BatchPolicy { batch_max: cfg.batch_max, linger_ns: cfg.linger_ns });
    // One histogram per replica, merged for the fleet-wide quantiles —
    // the mergeable-histogram algebra exercised on its production path.
    let mut hists: Vec<LatencyHistogram> = Vec::new();
    hists.resize_with(fleet.len(), LatencyHistogram::new);
    let offered = requests.len() as u64;
    let mut shed = 0u64;
    let mut faults_applied = 0u64;
    let mut tallies = Tallies {
        served: 0,
        on_time: 0,
        slo_misses: 0,
        served_correct: 0,
        horizon_ns: arrivals.last().copied().unwrap_or(0),
    };

    // Reused across every dispatch (zero-alloc steady state), plus the
    // hot-path allocation mark taken after the first (warm-up) dispatch:
    // final minus mark = steady-state allocations, which the zero-alloc
    // contract says is 0.
    // The completion buffer is sized for the largest batch up front: the
    // warm-up mark follows the first dispatch, which may be a small
    // timer-closed batch.
    let mut completions = Vec::with_capacity(cfg.batch_max.max(1));
    let mut warm_alloc_mark: Option<u64> = None;

    // The dispatch body, shared by the size and timer triggers.
    #[allow(clippy::too_many_arguments)]
    fn close_and_dispatch(
        now_ns: u64,
        batcher: &mut Batcher<'_>,
        fleet: &mut Fleet,
        hists: &mut [LatencyHistogram],
        tallies: &mut Tallies,
        completions: &mut Vec<crate::fleet::Completion>,
        warm_alloc_mark: &mut Option<u64>,
    ) -> Result<(), ServeError> {
        let batch = batcher.close();
        if batch.is_empty() {
            return Ok(());
        }
        obs::add(obs::Counter::ServeBatches, 1);
        fleet.dispatch_into(now_ns, &batch, completions)?;
        for c in completions.iter() {
            let req = &batch[c.batch_slot];
            let latency = c.done_ns.saturating_sub(req.arrival_ns);
            hists[c.replica].record_ns(latency);
            tallies.served += 1;
            if c.done_ns <= req.deadline_ns {
                tallies.on_time += 1;
            } else {
                tallies.slo_misses += 1;
                obs::add(obs::Counter::ServeSloMisses, 1);
            }
            if c.predicted == req.label {
                tallies.served_correct += 1;
            }
            tallies.horizon_ns = tallies.horizon_ns.max(c.done_ns);
        }
        batcher.recycle(batch);
        if warm_alloc_mark.is_none() {
            *warm_alloc_mark = Some(fleet.hot_path_allocs());
        }
        Ok(())
    }

    while let Some(Reverse((now_ns, _seq, kind_idx))) = heap.pop() {
        match kinds[kind_idx] {
            EventKind::Arrival(i) => {
                let Some(req) = requests[i].take() else { continue };
                // Admission: estimated completion = the earliest any
                // route frees up (not before now), plus the estimated
                // service of the batch this request would join.
                let est_start = now_ns.max(fleet.earliest_free_ns());
                let est_done = est_start
                    .saturating_add(fleet.est_batch_ns(batcher.pending_len() as u64 + 1));
                if Batcher::should_shed(&req, est_done) {
                    shed += 1;
                    obs::add(obs::Counter::ServeShedRequests, 1);
                    continue;
                }
                obs::add(obs::Counter::ServeRequests, 1);
                match batcher.enqueue(req, now_ns) {
                    Enqueue::Full => close_and_dispatch(
                        now_ns,
                        &mut batcher,
                        &mut fleet,
                        &mut hists,
                        &mut tallies,
                        &mut completions,
                        &mut warm_alloc_mark,
                    )?,
                    Enqueue::ArmTimer { at_ns, generation } => {
                        kinds.push(EventKind::BatchTimer(generation));
                        heap.push(Reverse((at_ns, next_seq, kinds.len() - 1)));
                        next_seq += 1;
                    }
                    Enqueue::Queued => {}
                }
            }
            EventKind::BatchTimer(generation) => {
                if batcher.timer_live(generation) {
                    close_and_dispatch(
                        now_ns,
                        &mut batcher,
                        &mut fleet,
                        &mut hists,
                        &mut tallies,
                        &mut completions,
                        &mut warm_alloc_mark,
                    )?;
                }
            }
            EventKind::Fault(i) => {
                let fe = &cfg.fault_events[i];
                fleet.inject_fault(fe.replica, &fe.plan)?;
                faults_applied += 1;
            }
        }
    }
    debug_assert_eq!(batcher.pending_len(), 0, "every open batch must have a live timer");

    let merged = hists
        .iter()
        .map(LatencyHistogram::snapshot)
        .fold(obs::hist::HistSnapshot::zero(), |acc, s| acc.merge(&s));
    Ok(ServeReport {
        scenario: cfg.scenario.clone(),
        seed: cfg.seed,
        sharding: fleet.sharding().key(),
        offered,
        shed,
        served: tallies.served,
        on_time: tallies.on_time,
        slo_misses: tallies.slo_misses,
        served_correct: tallies.served_correct,
        faults_applied,
        slo_ns: cfg.slo_ns,
        p50_ns: merged.quantile_upper_ns(50, 100),
        p99_ns: merged.quantile_upper_ns(99, 100),
        p999_ns: merged.quantile_upper_ns(999, 1000),
        max_ns: merged.max_upper_ns(),
        horizon_ns: tallies.horizon_ns,
        steady_state_allocs: warm_alloc_mark
            .map(|mark| fleet.hot_path_allocs() - mark)
            .unwrap_or(0),
        replicas: fleet.ledgers(),
        latency: merged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_arch::transformer::TransformerConfig;

    fn tiny_config() -> ServeConfig {
        let dataset: Vec<(Vec<f64>, usize)> =
            (0..6).map(|c| (vec![f64::from(c) / 6.0; 8], usize::try_from(c).unwrap() % 4)).collect();
        ServeConfig {
            scenario: "smoke".to_string(),
            seed: 17,
            dims: vec![8, 6, 4],
            engine: EngineOptions::default(),
            pretrained: None,
            dataset,
            replicas: vec![
                ReplicaProfile::with_seed(1),
                ReplicaProfile::with_seed(2),
                ReplicaProfile::with_seed(3),
            ],
            sharding: Sharding::ReplicaParallel,
            batch_max: 4,
            linger_ns: 20_000,
            slo_ns: 5_000_000,
            est_ns_per_item_init: 2_000,
            arrivals: ArrivalProcess::Poisson { mean_interarrival_ns: 10_000 },
            requests: 60,
            fault_events: Vec::new(),
        }
    }

    #[test]
    fn scenario_accounting_balances_and_is_reproducible() {
        let cfg = tiny_config();
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "same config must give the same report");
        assert_eq!(a.offered, 60);
        assert_eq!(a.served + a.shed, a.offered, "every request is served or shed");
        assert_eq!(a.on_time + a.slo_misses, a.served);
        assert_eq!(a.latency.count(), a.served);
        assert!(a.p50_ns <= a.p99_ns && a.p99_ns <= a.p999_ns && a.p999_ns <= a.max_ns);
        assert!(a.horizon_ns > 0);
        let replica_requests: u64 = a.replicas.iter().map(|r| r.requests).sum();
        assert_eq!(replica_requests, a.served);
        assert!(a.replicas.iter().any(|r| r.energy_pj > 0.0));
    }

    /// The tiny config serving ViT-tiny token sequences.
    fn tiny_vit_config() -> (ServeConfig, TransformerConfig) {
        let vit = TransformerConfig::tiny_vit();
        let width = vit.input_width();
        let mut cfg = tiny_config();
        cfg.scenario = "vit".to_string();
        cfg.dataset = (0..6)
            .map(|c| (vec![f64::from(c) / 6.0 - 0.4; width], usize::try_from(c).unwrap() % 4))
            .collect();
        cfg.requests = 24;
        (cfg, vit)
    }

    #[test]
    fn steady_state_dispatch_allocates_nothing() {
        for sharding in [Sharding::ReplicaParallel, Sharding::LayerPipeline] {
            let mut cfg = tiny_config();
            cfg.scenario = format!("alloc_{}", sharding.key());
            cfg.sharding = sharding;
            cfg.replicas.truncate(2);
            let report = run(&cfg).unwrap();
            assert!(report.served > cfg.batch_max as u64, "needs multiple batches to be meaningful");
            assert_eq!(
                report.steady_state_allocs, 0,
                "{}: dispatch after warm-up must not allocate",
                sharding.key()
            );
        }
        // ViT fleets make the same claim: 3 replicas, replica-parallel.
        let (cfg, vit) = tiny_vit_config();
        assert_eq!(cfg.replicas.len(), 3);
        let report = run_vit(&cfg, &vit).unwrap();
        assert!(report.served > cfg.batch_max as u64, "needs multiple batches to be meaningful");
        assert_eq!(report.steady_state_allocs, 0, "vit: dispatch after warm-up must not allocate");
    }

    #[test]
    fn small_first_batch_leaves_no_steady_state_growth() {
        // The first batch closes on its linger timer with at most 4
        // requests; later batches fill up to batch_max. The completion
        // buffer must not grow after the warm-up mark.
        let mut cfg = tiny_config();
        cfg.scenario = "late_full_batch".to_string();
        cfg.replicas.truncate(1);
        cfg.batch_max = 8;
        cfg.arrivals = ArrivalProcess::Poisson { mean_interarrival_ns: 3_000 };
        cfg.seed = (0..)
            .find(|&seed| {
                let a = traffic::generate_arrivals(cfg.arrivals, seed, cfg.requests);
                a[4] > a[0] + cfg.linger_ns
            })
            .unwrap();
        let report = run(&cfg).unwrap();
        assert!(
            report.served > 4 * report.replicas[0].batches,
            "some later batch must hold more than the first"
        );
        assert_eq!(report.steady_state_allocs, 0, "dispatch after warm-up must not allocate");
    }

    #[test]
    fn tight_slo_sheds_load() {
        let mut cfg = tiny_config();
        cfg.scenario = "tight".to_string();
        // An SLO shorter than one batch's service time: admission
        // control must shed once the estimator learns the real cost.
        cfg.slo_ns = 10;
        let report = run(&cfg).unwrap();
        assert!(report.shed > 0, "impossible SLO must shed load");
        assert!(report.shed_rate() > 0.0);
    }

    #[test]
    fn mid_run_fault_is_applied() {
        let mut cfg = tiny_config();
        cfg.scenario = "fault".to_string();
        cfg.fault_events = vec![FaultEvent {
            at_ns: 100_000,
            replica: 1,
            plan: FaultPlan {
                stuck_amorphous: 0.0,
                stuck_crystalline: 0.0,
                dead_rings: 0.3,
                drift_years: 0.0,
                laser_droop: 0.0,
                seed: 5,
            },
        }];
        let report = run(&cfg).unwrap();
        assert_eq!(report.faults_applied, 1);
        assert!(report.replicas[1].masked_rings > 0, "dead rings must be masked");
        assert_eq!(report.replicas[0].masked_rings, 0);
        assert!(run(&{
            let mut bad = cfg.clone();
            bad.fault_events[0].replica = 9;
            bad
        })
        .is_err());
    }

    #[test]
    fn vit_fleet_serves_end_to_end_and_is_reproducible() {
        let (cfg, vit) = tiny_vit_config();
        let a = run_vit(&cfg, &vit).unwrap();
        let b = run_vit(&cfg, &vit).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "ViT serving must be reproducible");
        assert_eq!(a.served + a.shed, a.offered);
        assert!(a.served > 0, "the tiny ViT fleet must serve something");
        assert!(a.replicas.iter().any(|r| r.energy_pj > 0.0), "serving must charge energy");
        // MLP-only deployment knobs are typed errors, not silent no-ops.
        let mut droopy = cfg.clone();
        droopy.replicas[0].laser_droop = 0.1;
        assert!(matches!(
            run_vit(&droopy, &vit),
            Err(ServeError::VitUnsupported { what: "laser droop" })
        ));
        let mut piped = cfg.clone();
        piped.sharding = Sharding::LayerPipeline;
        piped.replicas.truncate(2);
        assert!(matches!(
            run_vit(&piped, &vit),
            Err(ServeError::VitUnsupported { what: "layer-pipeline sharding" })
        ));
    }

    #[test]
    fn pipeline_mode_serves_end_to_end() {
        let mut cfg = tiny_config();
        cfg.scenario = "pipe".to_string();
        cfg.sharding = Sharding::LayerPipeline;
        cfg.replicas.truncate(2); // 2 stages over 2 layers
        let report = run(&cfg).unwrap();
        assert_eq!(report.sharding, "layer_pipeline");
        assert_eq!(report.served + report.shed, report.offered);
        // Every stage sees every served request.
        for r in &report.replicas {
            assert_eq!(r.requests, report.served);
        }
    }
}
