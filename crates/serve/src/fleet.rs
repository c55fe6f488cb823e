//! The replica fleet and shard router.
//!
//! Every replica **owns** its engine: an independent `PhotonicMlp` with
//! its own fabrication variation, receiver-noise stream, laser-power
//! droop, energy/latency ledgers, fault state, and wear trajectory.
//! Nothing is shared between replicas — the ownership model a real
//! fleet has, where one chip's dead rings or drifted cells cannot touch
//! its neighbours.
//!
//! Two sharding modes route batches through the fleet:
//!
//! * [`Sharding::ReplicaParallel`] — every replica carries the full
//!   network; a batch goes to the replica that frees up earliest
//!   (least-loaded, ties to the lowest id). Throughput scales with N.
//! * [`Sharding::LayerPipeline`] — the network's weight layers are
//!   split contiguously across the replicas; a batch flows through
//!   every stage in order, and stage `s` becomes free as soon as its
//!   part is done, so successive batches overlap across stages.
//!
//! Service time is the engines' own simulated latency: the fleet diffs
//! `total_elapsed()` around each forward call, so serving latency,
//! energy, and accuracy all come from the same device models the paper
//! tables use.

use crate::{Request, ServeError};
use trident_arch::engine::{argmax, EngineOptions, PhotonicMlp};
use trident_arch::faults::{FaultPlan, FaultReport};
use trident_arch::transformer::{PhotonicTransformer, TransformerConfig};
use trident_arch::ArchError;
use trident_obs as obs;
use trident_photonics::units::Hours;

/// How the fleet shards the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharding {
    /// Full model on every replica; batches route to the least-loaded.
    ReplicaParallel,
    /// Contiguous layer ranges across replicas; batches traverse all
    /// stages in order.
    LayerPipeline,
}

impl Sharding {
    /// Stable key for reports.
    pub fn key(self) -> &'static str {
        match self {
            Sharding::ReplicaParallel => "replica_parallel",
            Sharding::LayerPipeline => "layer_pipeline",
        }
    }
}

/// Per-replica deployment identity: what makes chip `i` a *different
/// physical chip* from chip `j` running the same weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaProfile {
    /// Fabrication-variation seed (the chip identity).
    pub variation_seed: u64,
    /// Receiver-noise seed (`None` = ideal detectors).
    pub noise_seed: Option<u64>,
    /// Fractional pump-laser power droop for this replica's budget,
    /// `[0, 1)` — applied at deployment as a laser-only fault plan.
    pub laser_droop: f64,
    /// Hours of PCM wear already on this chip's clock at deployment
    /// (only observable when the statistical device model is enabled).
    pub pre_age_hours: f64,
}

impl Default for ReplicaProfile {
    fn default() -> Self {
        Self { variation_seed: 0, noise_seed: None, laser_droop: 0.0, pre_age_hours: 0.0 }
    }
}

impl ReplicaProfile {
    /// A healthy chip with the given identity seed.
    pub fn with_seed(variation_seed: u64) -> Self {
        Self { variation_seed, ..Self::default() }
    }
}

/// One request's completion as seen by the router.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Index of the request inside the dispatched batch.
    pub batch_slot: usize,
    /// Virtual completion time, ns.
    pub done_ns: u64,
    /// Predicted class.
    pub predicted: usize,
    /// Replica that produced the prediction (pipeline: the tail stage).
    pub replica: usize,
}

/// The engine a replica owns: the paper's dense MLP engine, or a
/// [`PhotonicTransformer`] serving the ViT classify path. The enum
/// forwards exactly the call set the dispatch path uses, so the event
/// loop, batcher, and report never care which fabric is underneath.
pub enum ReplicaEngine {
    /// Dense photonic MLP (the original serving target). Boxed so the
    /// enum stays pointer-sized regardless of engine footprint.
    Mlp(Box<PhotonicMlp>),
    /// ViT-style photonic transformer (classify forward only).
    Vit(Box<PhotonicTransformer>),
}

impl ReplicaEngine {
    fn try_forward_batch(
        &mut self,
        batch: &[impl AsRef<[f64]>],
        tail: bool,
    ) -> Result<&[Vec<f64>], ArchError> {
        match self {
            ReplicaEngine::Mlp(e) => e.try_forward_batch(batch, tail),
            ReplicaEngine::Vit(tx) => tx.try_forward_batch(batch),
        }
    }

    fn total_elapsed_ns(&self) -> f64 {
        match self {
            ReplicaEngine::Mlp(e) => e.total_elapsed().value(),
            ReplicaEngine::Vit(tx) => tx.total_elapsed().value(),
        }
    }

    fn total_energy_pj(&self) -> f64 {
        match self {
            ReplicaEngine::Mlp(e) => e.total_energy().value(),
            ReplicaEngine::Vit(tx) => tx.total_energy().value(),
        }
    }

    fn reserve_forward_scratch(&mut self, batch: usize) {
        match self {
            ReplicaEngine::Mlp(e) => e.reserve_forward_scratch(batch),
            ReplicaEngine::Vit(tx) => tx.reserve_forward_scratch(batch),
        }
    }

    fn hot_path_allocs(&self) -> u64 {
        match self {
            ReplicaEngine::Mlp(e) => e.hot_path_allocs(),
            ReplicaEngine::Vit(tx) => tx.hot_path_allocs(),
        }
    }

    fn masked_rings(&self) -> u64 {
        match self {
            ReplicaEngine::Mlp(e) => e.masked_rings() as u64,
            ReplicaEngine::Vit(tx) => tx.masked_rings() as u64,
        }
    }

    fn remapped_rings(&self) -> u64 {
        match self {
            ReplicaEngine::Mlp(e) => e.remapped_rings(),
            ReplicaEngine::Vit(tx) => tx.remapped_rings(),
        }
    }

    fn write_failures(&self) -> u64 {
        match self {
            ReplicaEngine::Mlp(e) => e.write_failures(),
            ReplicaEngine::Vit(tx) => tx.write_failures(),
        }
    }
}

/// A replica (or pipeline stage): one owned engine plus its serving
/// ledgers.
struct Replica {
    engine: ReplicaEngine,
    /// Pipeline only: apply the identity tail on the last layer?
    tail: bool,
    /// Virtual time this replica is busy until.
    free_at_ns: u64,
    /// Engine clock when its current forward started, ns.
    elapsed_mark_ns: f64,
    /// Engine energy already spent before serving began, pJ.
    energy_baseline_pj: f64,
    requests: u64,
    batches: u64,
    correct: u64,
    busy_ns: u64,
}

impl Replica {
    /// A fresh replica around a deployed engine; whatever the engine has
    /// spent so far is its energy baseline.
    fn new(engine: ReplicaEngine, tail: bool) -> Self {
        Self {
            energy_baseline_pj: engine.total_energy_pj(),
            engine,
            tail,
            free_at_ns: 0,
            elapsed_mark_ns: 0.0,
            requests: 0,
            batches: 0,
            correct: 0,
            busy_ns: 0,
        }
    }
}

/// End-of-run wear/energy/accuracy numbers for one replica.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaLedger {
    /// Replica (or stage) index.
    pub id: usize,
    /// Requests this replica served (pipeline: every stage sees all).
    pub requests: u64,
    /// Batches this replica served.
    pub batches: u64,
    /// Correct predictions among served requests (tail replicas only).
    pub correct: u64,
    /// Virtual time spent forwarding, ns.
    pub busy_ns: u64,
    /// Energy spent serving (total minus deployment baseline), pJ.
    pub energy_pj: f64,
    /// Rings masked off the bus by fault handling.
    pub masked_rings: u64,
    /// Cells remapped onto spare rings.
    pub remapped_rings: u64,
    /// Closed-loop writes that exhausted their retry budget.
    pub write_failures: u64,
}

/// The fleet: N owned replicas behind a shard router, plus the global
/// service-time estimator admission control consults.
pub struct Fleet {
    sharding: Sharding,
    replicas: Vec<Replica>,
    /// EWMA of observed per-request service time, integer ns — the
    /// admission-control estimate. Updated `est = (3·est + actual) / 4`
    /// after every dispatch, so it is deterministic integer arithmetic.
    est_ns_per_item: u64,
    /// Reused per-dispatch prediction buffer.
    pred_scratch: Vec<usize>,
    /// Fleet-side heap-growth events on the dispatch path (the engines
    /// keep their own counters; [`Fleet::hot_path_allocs`] sums both).
    local_allocs: u64,
}

impl Fleet {
    /// Build a fleet: one engine per profile, pretrained weights
    /// deployed onto every chip, per-replica droop and pre-age applied.
    ///
    /// `base` supplies the shared architecture knobs (bank geometry,
    /// weight bits, statistical model); each profile overrides the
    /// identity seeds. With [`Sharding::LayerPipeline`], profile `s`
    /// becomes pipeline stage `s` and owns a contiguous slice of the
    /// weight layers (requires `profiles.len() <= layer count`).
    pub fn try_build(
        dims: &[usize],
        base: EngineOptions,
        profiles: &[ReplicaProfile],
        pretrained: Option<&[Vec<f64>]>,
        sharding: Sharding,
        est_ns_per_item_init: u64,
    ) -> Result<Self, ServeError> {
        let layers = dims.len().saturating_sub(1);
        if sharding == Sharding::LayerPipeline && profiles.len() > layers {
            return Err(ServeError::BadPipeline { stages: profiles.len(), layers });
        }
        Self::assemble(sharding, profiles, est_ns_per_item_init, |id, profile| {
            let opts = EngineOptions {
                variation_seed: profile.variation_seed,
                noise_seed: profile.noise_seed,
                ..base
            };
            // Pipeline stage s owns layers [s·L/S, (s+1)·L/S): contiguous,
            // non-empty (S <= L), covering all layers exactly once.
            let (stage_dims, layer_lo, tail) = match sharding {
                Sharding::ReplicaParallel => (dims, 0, true),
                Sharding::LayerPipeline => {
                    let lo = id * layers / profiles.len();
                    let hi = (id + 1) * layers / profiles.len();
                    (&dims[lo..=hi], lo, id + 1 == profiles.len())
                }
            };
            let mut engine = PhotonicMlp::try_with_options(stage_dims, opts)?;
            if let Some(weights) = pretrained {
                let stage_weights = &weights[layer_lo..layer_lo + engine.layer_count()];
                engine.try_deploy_weights(stage_weights)?;
            }
            if profile.laser_droop > 0.0 {
                // Laser-only fault plan: models this replica's reduced
                // optical power budget without injecting cell faults.
                engine.inject_faults(&FaultPlan {
                    laser_droop: profile.laser_droop,
                    seed: profile.variation_seed,
                    ..FaultPlan::default()
                })?;
            }
            if profile.pre_age_hours > 0.0 {
                engine.advance_deployment(Hours(profile.pre_age_hours));
                engine.calibrate_drift_compensation();
            }
            Ok((ReplicaEngine::Mlp(Box::new(engine)), tail))
        })
    }

    /// Build a ViT fleet: one [`PhotonicTransformer`] per profile, all
    /// programmed from the same `vit` configuration (same weights on
    /// every chip, like a deployed model). Replica-parallel only — a
    /// transformer block is not layer-shardable the way a dense stack
    /// is — and the MLP-only deployment knobs (laser droop, pre-age,
    /// receiver noise) are rejected with a typed error rather than
    /// silently ignored.
    pub fn try_build_vit(
        vit: &TransformerConfig,
        profiles: &[ReplicaProfile],
        sharding: Sharding,
        est_ns_per_item_init: u64,
    ) -> Result<Self, ServeError> {
        Self::assemble(sharding, profiles, est_ns_per_item_init, |_, profile| {
            if sharding != Sharding::ReplicaParallel {
                return Err(ServeError::VitUnsupported { what: "layer-pipeline sharding" });
            }
            if profile.laser_droop > 0.0 {
                return Err(ServeError::VitUnsupported { what: "laser droop" });
            }
            if profile.pre_age_hours > 0.0 {
                return Err(ServeError::VitUnsupported { what: "pre-aging" });
            }
            if profile.noise_seed.is_some() {
                return Err(ServeError::VitUnsupported { what: "receiver noise" });
            }
            let tx = PhotonicTransformer::try_new(vit.clone())?;
            Ok((ReplicaEngine::Vit(Box::new(tx)), true))
        })
    }

    /// The fleet assembly both builders share: one replica per profile,
    /// its engine (and whether it carries the network tail) from
    /// `deploy(id, profile)`.
    fn assemble(
        sharding: Sharding,
        profiles: &[ReplicaProfile],
        est_ns_per_item_init: u64,
        mut deploy: impl FnMut(usize, &ReplicaProfile) -> Result<(ReplicaEngine, bool), ServeError>,
    ) -> Result<Self, ServeError> {
        if profiles.is_empty() {
            return Err(ServeError::NoReplicas);
        }
        let mut replicas = Vec::with_capacity(profiles.len());
        for (id, profile) in profiles.iter().enumerate() {
            let (engine, tail) = deploy(id, profile)?;
            replicas.push(Replica::new(engine, tail));
        }
        Ok(Self {
            sharding,
            replicas,
            est_ns_per_item: est_ns_per_item_init.max(1),
            pred_scratch: Vec::new(),
            local_allocs: 0,
        })
    }

    /// Pre-size every replica's engine scratch plus the fleet's own
    /// dispatch buffers for batches up to `batch` requests. Called once
    /// at fleet build time (the event loop calls it right after
    /// [`Fleet::try_build`]); growth here is warm-up, not counted in
    /// [`Fleet::hot_path_allocs`].
    pub fn reserve_scratch(&mut self, batch: usize) {
        for r in &mut self.replicas {
            r.engine.reserve_forward_scratch(batch);
        }
        self.pred_scratch.reserve(batch.saturating_sub(self.pred_scratch.len()));
    }

    /// Heap-growth events on the dispatch hot path since construction:
    /// the fleet's own staging buffers plus every replica engine's
    /// forward scratch. Zero growth across a window of warm dispatches
    /// is the zero-allocation claim `ablation_serve` reports.
    pub fn hot_path_allocs(&self) -> u64 {
        self.local_allocs
            + self.replicas.iter().map(|r| r.engine.hot_path_allocs()).sum::<u64>()
    }

    /// Number of replicas (pipeline: stages).
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the fleet is empty (it never is after `try_build`).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The sharding mode this fleet routes with.
    pub fn sharding(&self) -> Sharding {
        self.sharding
    }

    /// Earliest virtual time any route through the fleet can start new
    /// work: replica-parallel → the least-loaded replica frees up;
    /// pipeline → the head stage frees up.
    pub fn earliest_free_ns(&self) -> u64 {
        match self.sharding {
            Sharding::ReplicaParallel => {
                self.replicas.iter().map(|r| r.free_at_ns).min().unwrap_or(0)
            }
            Sharding::LayerPipeline => {
                self.replicas.first().map(|r| r.free_at_ns).unwrap_or(0)
            }
        }
    }

    /// Admission-control estimate of serving `items` requests, ns.
    pub fn est_batch_ns(&self, items: u64) -> u64 {
        self.est_ns_per_item.saturating_mul(items)
    }

    /// Route one closed batch through the fleet at virtual time `now_ns`,
    /// writing per-request completions into a caller-owned buffer
    /// (cleared first); replica ledgers and the admission estimator
    /// update as a side effect.
    ///
    /// Both shardings are one stage loop over a route: replica-parallel
    /// routes through the single least-loaded replica (ties to the
    /// lowest id — a pure function of the ledger state), layer-pipeline
    /// through every stage in order, each stage consuming the previous
    /// stage's output slots. Stage `s` frees at its own completion, so
    /// the next batch can enter stage `s` while this one is in stage
    /// `s+1`. Each engine forward goes through its batched zero-alloc
    /// path and the last stage's outputs feed `argmax` directly, so a
    /// warm fleet with a warm `completions` buffer dispatches an entire
    /// batch without heap allocation.
    pub fn dispatch_into(
        &mut self,
        now_ns: u64,
        batch: &[Request],
        completions: &mut Vec<Completion>,
    ) -> Result<(), ServeError> {
        completions.clear();
        if batch.is_empty() {
            return Ok(());
        }
        let _span = obs::span("serve.dispatch");
        let n = batch.len();
        let route = match self.sharding {
            Sharding::ReplicaParallel => {
                let pick = self
                    .replicas
                    .iter()
                    .enumerate()
                    .min_by_key(|(id, r)| (r.free_at_ns, *id))
                    .map_or(0, |(id, _)| id);
                pick..pick + 1
            }
            Sharding::LayerPipeline => 0..self.replicas.len(),
        };
        let tail_id = route.end - 1;
        let mut outputs: Option<&[Vec<f64>]> = None;
        for stage in &mut self.replicas[route.clone()] {
            stage.elapsed_mark_ns = stage.engine.total_elapsed_ns();
            outputs = Some(match outputs {
                None => stage.engine.try_forward_batch(batch, stage.tail)?,
                Some(prev) => stage.engine.try_forward_batch(prev, stage.tail)?,
            });
        }
        let had_preds = self.pred_scratch.capacity();
        self.pred_scratch.clear();
        self.pred_scratch.extend(outputs.unwrap_or_default().iter().map(|o| argmax(o)));
        if self.pred_scratch.capacity() > had_preds {
            self.local_allocs += 1;
        }
        let mut done_ns = now_ns;
        let mut total_service = 0u64;
        for stage in &mut self.replicas[route] {
            let start = done_ns.max(stage.free_at_ns);
            let service = obs::counter::ns_from_ns_f64(
                stage.engine.total_elapsed_ns() - stage.elapsed_mark_ns,
            )
            .max(1);
            done_ns = start.saturating_add(service);
            stage.free_at_ns = done_ns;
            stage.busy_ns += service;
            stage.batches += 1;
            stage.requests += n as u64;
            total_service = total_service.saturating_add(service);
        }
        // Integer EWMA of per-request service time feeds admission
        // control; deterministic by construction, and saturating so an
        // unbounded initial estimate cannot overflow.
        let actual_per_item = (total_service / n as u64).max(1);
        self.est_ns_per_item =
            self.est_ns_per_item.saturating_mul(3).saturating_add(actual_per_item) / 4;

        let had_completions = completions.capacity();
        for (slot, (req, &predicted)) in batch.iter().zip(&self.pred_scratch).enumerate() {
            if predicted == req.label {
                self.replicas[tail_id].correct += 1;
            }
            completions.push(Completion {
                batch_slot: slot,
                done_ns,
                predicted,
                replica: tail_id,
            });
        }
        if completions.capacity() > had_completions {
            self.local_allocs += 1;
        }
        Ok(())
    }

    /// Inject a fault plan into one replica mid-run (the graceful-
    /// degradation scenario). Returns what was actually injected.
    pub fn inject_fault(
        &mut self,
        replica: usize,
        plan: &FaultPlan,
    ) -> Result<FaultReport, ServeError> {
        let replicas = self.replicas.len();
        let target = self
            .replicas
            .get_mut(replica)
            .ok_or(ServeError::ReplicaOutOfRange { replica, replicas })?;
        match &mut target.engine {
            ReplicaEngine::Mlp(e) => Ok(e.inject_faults(plan)?),
            ReplicaEngine::Vit(_) => {
                Err(ServeError::VitUnsupported { what: "fault injection" })
            }
        }
    }

    /// End-of-run ledgers, one per replica, in id order.
    pub fn ledgers(&self) -> Vec<ReplicaLedger> {
        self.replicas
            .iter()
            .enumerate()
            .map(|(id, r)| ReplicaLedger {
                id,
                requests: r.requests,
                batches: r.batches,
                correct: r.correct,
                busy_ns: r.busy_ns,
                energy_pj: r.engine.total_energy_pj() - r.energy_baseline_pj,
                masked_rings: r.engine.masked_rings(),
                remapped_rings: r.engine.remapped_rings(),
                write_failures: r.engine.write_failures(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_requests(n: usize) -> Vec<Request<'static>> {
        (0..n)
            .map(|i| Request {
                id: i as u64,
                arrival_ns: i as u64 * 100,
                deadline_ns: u64::MAX,
                input: &[0.5; 8],
                label: i % 4,
            })
            .collect()
    }

    #[test]
    fn replica_parallel_routes_to_least_loaded() {
        let profiles = [ReplicaProfile::with_seed(1), ReplicaProfile::with_seed(2)];
        let mut fleet = small_fleet(&profiles, 1000).unwrap();
        let reqs = tiny_requests(2);
        let (mut c1, mut c2) = (Vec::new(), Vec::new());
        fleet.dispatch_into(0, &reqs, &mut c1).unwrap();
        fleet.dispatch_into(0, &reqs, &mut c2).unwrap();
        // Second batch must land on the other (still-idle) replica.
        assert_ne!(c1[0].replica, c2[0].replica);
        let ledgers = fleet.ledgers();
        assert_eq!(ledgers[0].batches, 1);
        assert_eq!(ledgers[1].batches, 1);
        assert!(ledgers[0].energy_pj > 0.0, "serving must charge energy");
    }

    #[test]
    fn pipeline_matches_monolithic_predictions() {
        let dims = [8, 6, 4];
        // Pretrain nothing: both fleets carry identical Xavier weights
        // (same seed), so stage-split and monolithic forwards must
        // agree on every prediction.
        let mono_profile = [ReplicaProfile::with_seed(0)];
        let mut mono = Fleet::try_build(
            &dims,
            EngineOptions::default(),
            &mono_profile,
            None,
            Sharding::ReplicaParallel,
            1000,
        )
        .unwrap();
        let stage_profiles = [ReplicaProfile::with_seed(0), ReplicaProfile::with_seed(0)];
        let mut pipe = Fleet::try_build(
            &dims,
            EngineOptions::default(),
            &stage_profiles,
            None,
            Sharding::LayerPipeline,
            1000,
        )
        .unwrap();
        let reqs = tiny_requests(3);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        mono.dispatch_into(0, &reqs, &mut a).unwrap();
        pipe.dispatch_into(0, &reqs, &mut b).unwrap();
        let pa: Vec<usize> = a.iter().map(|c| c.predicted).collect();
        let pb: Vec<usize> = b.iter().map(|c| c.predicted).collect();
        assert_eq!(pa, pb, "pipeline must compute the same function as the monolith");
    }

    #[test]
    fn pipeline_rejects_more_stages_than_layers() {
        let dims = [8, 4];
        let profiles = [ReplicaProfile::with_seed(0), ReplicaProfile::with_seed(1)];
        assert!(matches!(
            Fleet::try_build(
                &dims,
                EngineOptions::default(),
                &profiles,
                None,
                Sharding::LayerPipeline,
                1000,
            ),
            Err(ServeError::BadPipeline { stages: 2, layers: 1 })
        ));
    }

    fn build_without_dims(sharding: Sharding) -> Result<Fleet, ServeError> {
        let profiles = [ReplicaProfile::with_seed(0)];
        Fleet::try_build(&[], EngineOptions::default(), &profiles, None, sharding, 1000)
    }

    #[test]
    fn empty_dims_is_a_typed_error_replica_parallel() {
        assert!(matches!(
            build_without_dims(Sharding::ReplicaParallel),
            Err(ServeError::Arch(ArchError::InvalidParameter { name: "layer widths", .. }))
        ));
    }

    #[test]
    fn empty_dims_is_a_typed_error_layer_pipeline() {
        assert!(matches!(
            build_without_dims(Sharding::LayerPipeline),
            Err(ServeError::BadPipeline { stages: 1, layers: 0 })
        ));
    }

    fn small_fleet(profiles: &[ReplicaProfile], est: u64) -> Result<Fleet, ServeError> {
        let opts = EngineOptions::default();
        Fleet::try_build(&[8, 6, 4], opts, profiles, None, Sharding::ReplicaParallel, est)
    }

    #[test]
    fn unbounded_initial_estimate_saturates() {
        let profiles = [ReplicaProfile::with_seed(1), ReplicaProfile::with_seed(2)];
        let mut fleet = small_fleet(&profiles, u64::MAX).unwrap();
        fleet.dispatch_into(0, &tiny_requests(2), &mut Vec::new()).unwrap();
        assert_eq!(fleet.est_batch_ns(1), u64::MAX / 4);
    }

    #[test]
    fn full_laser_droop_is_a_typed_build_error() {
        let profiles = [ReplicaProfile { laser_droop: 1.0, ..ReplicaProfile::with_seed(1) }];
        assert!(matches!(
            small_fleet(&profiles, 1000),
            Err(ServeError::Arch(ref e)) if e.to_string().contains("laser_droop")
        ));
    }

    #[test]
    fn out_of_range_fault_rate_is_a_typed_injection_error() {
        let profiles = [ReplicaProfile::with_seed(1), ReplicaProfile::with_seed(2)];
        let mut fleet = small_fleet(&profiles, 1000).unwrap();
        let plan = FaultPlan { dead_rings: 2.0, seed: 3, ..FaultPlan::default() };
        assert!(matches!(
            fleet.inject_fault(0, &plan),
            Err(ServeError::Arch(ref e)) if e.to_string().contains("dead_rings")
        ));
    }

    #[test]
    fn fault_injection_targets_one_replica() {
        let profiles = [ReplicaProfile::with_seed(1), ReplicaProfile::with_seed(2)];
        let mut fleet = small_fleet(&profiles, 1000).unwrap();
        let plan = FaultPlan {
            stuck_amorphous: 0.0,
            stuck_crystalline: 0.0,
            dead_rings: 0.5,
            drift_years: 0.0,
            laser_droop: 0.0,
            seed: 3,
        };
        let report = fleet.inject_fault(1, &plan).unwrap();
        assert!(report.dead_rings > 0, "a 50% dead-ring plan must kill rings");
        let ledgers = fleet.ledgers();
        assert_eq!(ledgers[0].masked_rings, 0);
        assert!(fleet.inject_fault(9, &plan).is_err());
    }
}
