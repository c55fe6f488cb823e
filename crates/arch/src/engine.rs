//! The photonic MLP engine: whole networks on simulated Trident hardware.
//!
//! One PE is allocated per 16×16 weight tile (the paper assigns "one PE to
//! each layer" for networks that fit; tiling generalises that to arbitrary
//! layer sizes). Inference keeps weights stationary; training follows the
//! paper's per-sample schedule:
//!
//! 1. **forward** — per layer: optical MVM tiles, electronic partial-sum
//!    accumulation across column tiles, LDSU latch, GST activation.
//! 2. **backward walk**, output layer first — per layer `k`:
//!    - **outer product** (Table II mode 3): banks programmed with the
//!      cached layer input, per-ring demux readout of `δW_k`;
//!    - **error for layer `k−1`** from one of two sources. Backprop uses
//!      the gradient-vector mode (Table II mode 2): banks reprogrammed
//!      with `W_kᵀ`, signed MVM of `δh_k`. Direct feedback alignment
//!      ([`crate::dfa`]) projects the output error through a fixed bank,
//!      `B_{k−1}·e`. Either way the Hadamard with the latched
//!      `f'(h_{k−1})` runs on layer `k−1`'s TIA gains.
//! 3. **update** (Eq. 1) — `W ← W − β·δW`, clipped to the photonic range,
//!    quantized to the tuning method's bit resolution, and programmed back
//!    into the forward banks.
//!
//! Every optical programming event and symbol is charged to the energy
//! ledgers, so the training demos report honest device-level costs.

use crate::dfa::DfaFeedback;
use crate::error::ArchError;
use crate::faults::{FaultPlan, FaultReport};
use crate::pe::{spilled_hadamard, GST_SLOPE, LOGIT_THRESHOLD};
use crate::tile::{charge_psums, PeSpec, TileGemm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trident_obs as obs;
use trident_pcm::gst::{GstFault, WriteVerifyPolicy};
use trident_pcm::stat::StatParams;
use trident_photonics::ledger::EnergyLedger;
use trident_photonics::units::{count, EnergyPj, Hours, Nanoseconds};
use trident_streams::bank_identity;

/// Make `slots` hold at least `n` per-sample output buffers, tallying
/// each new one in `allocs`.
pub(crate) fn grow_slots(slots: &mut Vec<Vec<f64>>, n: usize, allocs: &mut u64) {
    if slots.len() < n {
        *allocs += (n - slots.len()) as u64;
        slots.resize_with(n, Vec::new);
    }
}

/// Pre-grow `batch` per-sample output slots to `width` values each —
/// warm-up, so nothing is tallied.
pub(crate) fn reserve_slots(slots: &mut Vec<Vec<f64>>, batch: usize, width: usize) {
    if slots.len() < batch {
        slots.resize_with(batch, Vec::new);
    }
    for slot in slots {
        slot.reserve(width.saturating_sub(slot.len()));
    }
}

/// Clear a reused output slot and refill it through `fill`, tallying a
/// capacity growth in `allocs`.
pub(crate) fn refill(slot: &mut Vec<f64>, allocs: &mut u64, fill: impl FnOnce(&mut Vec<f64>)) {
    let had = slot.capacity();
    slot.clear();
    fill(slot);
    *allocs += u64::from(slot.capacity() > had);
}

/// A dense network running on simulated photonic hardware.
///
/// Working memory follows one rule (DESIGN.md §15): the layer caches,
/// whose sizes `dims` fixes, are allocated at construction; only the
/// per-sample output slots grow, and each growth is tallied in
/// [`PhotonicMlp::hot_path_allocs`]. The modeled device dataflow inside
/// the PEs (per-tile MVM returns, LDSU latch vectors) is part of the
/// hardware model and sits outside this boundary.
pub struct PhotonicMlp {
    dims: Vec<usize>,
    /// Master (electronic) weight copies, row-major `[out × in]` per layer.
    weights: Vec<Vec<f64>>,
    /// One tile grid per layer.
    layers: Vec<TileGemm>,
    /// Weight resolution in bits (8 for GST; 6 emulates thermal banks).
    weight_bits: u8,
    /// Per-layer inputs (`y_{k-1}`) of the latest forward pass.
    cached_inputs: Vec<Vec<f64>>,
    /// Per-layer logits (`h_k`) of the latest forward pass.
    cached_logits: Vec<Vec<f64>>,
    /// Engine-level (non-PE) energy: partial-sum accumulation etc.
    extra_energy: EnergyLedger,
    /// When set (after [`PhotonicMlp::inject_faults`]), forward-weight
    /// programming runs through the banks' closed-loop program-and-verify
    /// path with remap/mask degradation instead of ideal open-loop pulses.
    fault_tolerant_writes: bool,
    /// Retry policy for the fault-tolerant write path.
    write_policy: WriteVerifyPolicy,
    /// Pulse-jitter stream for program-and-verify writes.
    write_rng: StdRng,
    /// Per-sample outputs of the latest forward.
    outputs: Vec<Vec<f64>>,
    /// Growth events on `outputs` since construction.
    heap_allocs: u64,
}

/// Result of an in-situ training run.
#[derive(Debug, Clone)]
pub struct TrainingOutcome {
    /// Mean loss per epoch.
    pub loss_history: Vec<f64>,
    /// Final accuracy on the evaluation set.
    pub final_accuracy: f64,
    /// Total optical + electronic energy charged.
    pub total_energy: EnergyPj,
    /// GST programming energy alone.
    pub programming_energy: EnergyPj,
    /// Simulated wall-clock time.
    pub elapsed: Nanoseconds,
}

/// Construction options for [`PhotonicMlp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineOptions {
    /// Weight-initialisation seed.
    pub seed: u64,
    /// Receiver-noise seed (`None` = ideal detectors).
    pub noise_seed: Option<u64>,
    /// Weight resolution in bits.
    pub weight_bits: u8,
    /// Fabrication variation: per-ring Gaussian resonance offset σ (nm).
    pub resonance_sigma_nm: f64,
    /// Seed for the fabrication-variation draw (a chip identity).
    pub variation_seed: u64,
    /// Statistical PCM device model (programming noise, read noise,
    /// power-law drift). `None` — the default everywhere the paper
    /// tables are produced — keeps the engine exactly deterministic.
    pub stat: Option<StatParams>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            seed: 0,
            noise_seed: None,
            weight_bits: 8,
            resonance_sigma_nm: 0.0,
            variation_seed: 0,
            stat: None,
        }
    }
}

impl PhotonicMlp {
    /// Build a photonic MLP with layer widths `dims` (e.g. `[64, 16, 10]`)
    /// on 16×16 PEs, Xavier-initialised from `opts.seed`, with the rest of
    /// [`EngineOptions`] (receiver noise, weight bits, fabrication
    /// variation, statistical PCM model). Fails on fewer than two layer
    /// widths, weight bits outside `2..=8`, or a device error in the
    /// initial programming pass.
    pub fn try_with_options(dims: &[usize], opts: EngineOptions) -> Result<Self, ArchError> {
        let EngineOptions { seed, noise_seed, weight_bits, resonance_sigma_nm, variation_seed, stat } =
            opts;
        if dims.len() < 2 {
            return Err(ArchError::InvalidParameter {
                name: "layer widths",
                value: dims.len(),
                expected: "at least 2 (input and output)",
            });
        }
        if !(2..=8).contains(&weight_bits) {
            return Err(ArchError::InvalidParameter {
                name: "weight_bits",
                value: usize::from(weight_bits),
                expected: "2..=8",
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = Vec::new();
        for k in 1..dims.len() {
            let (out, inp) = (dims[k], dims[k - 1]);
            let limit = (6.0 / (out + inp) as f64).sqrt().min(1.0);
            weights.push((0..out * inp).map(|_| rng.gen_range(-limit..limit)).collect());
        }
        let layers = (0..dims.len() - 1)
            .map(|k| {
                TileGemm::with_pes(dims[k + 1], dims[k], |t| PeSpec {
                    noise_seed: noise_seed.map(|s| bank_identity(s, k, t)),
                    resonance_sigma_nm,
                    variation_seed: bank_identity(variation_seed, k, t),
                    // Per-bank identity mixed into the master seed, the
                    // same (k, t) convention the receiver-noise and
                    // variation draws use (trident-streams owns the
                    // derivation arithmetic).
                    stat: stat.map(|params| (params, bank_identity(params.seed, k, t))),
                })
            })
            .collect();
        let mut engine = Self {
            dims: dims.to_vec(),
            weights,
            layers,
            weight_bits,
            cached_inputs: dims[..dims.len() - 1].iter().map(|&w| vec![0.0; w]).collect(),
            cached_logits: dims[1..].iter().map(|&w| vec![0.0; w]).collect(),
            extra_energy: EnergyLedger::new(),
            fault_tolerant_writes: false,
            write_policy: WriteVerifyPolicy::default(),
            write_rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            outputs: Vec::new(),
            heap_allocs: 0,
        };
        engine.program_forward_weights()?;
        Ok(engine)
    }

    /// Number of weight layers.
    pub fn layer_count(&self) -> usize {
        self.dims.len() - 1
    }

    /// Layer `k`'s weight matrix dimensions `(out, in)`.
    pub fn layer_dims(&self, k: usize) -> (usize, usize) {
        (self.dims[k + 1], self.dims[k])
    }

    /// The layer widths this engine was built with (input first).
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total PEs allocated.
    pub fn pe_count(&self) -> usize {
        self.layers.iter().map(TileGemm::tile_count).sum()
    }

    /// Direct access to layer `k`'s master weights (for equivalence tests).
    pub fn layer_weights(&self, k: usize) -> &[f64] {
        &self.weights[k]
    }

    /// Overwrite layer `k`'s master weights (quantized to the tuning grid)
    /// and reprogram the banks.
    pub fn try_set_layer_weights(&mut self, k: usize, w: &[f64]) -> Result<(), ArchError> {
        if k >= self.layer_count() {
            return Err(ArchError::LayerOutOfRange { layer: k, layers: self.layer_count() });
        }
        let (out, inp) = self.layer_dims(k);
        if w.len() != out * inp {
            return Err(ArchError::ShapeMismatch { expected: out * inp, got: w.len() });
        }
        self.weights[k] = w.iter().map(|&v| quantize(v, self.weight_bits)).collect();
        self.program_layer_forward(k)
    }

    /// A copy of every layer's master weights, in layer order — the
    /// portable form of a trained model, ready for
    /// [`PhotonicMlp::try_deploy_weights`] onto another chip.
    pub fn snapshot_weights(&self) -> Vec<Vec<f64>> {
        self.weights.clone()
    }

    /// Deploy a full weight set (one `Vec` per layer, as produced by
    /// [`PhotonicMlp::snapshot_weights`]) onto this chip, quantizing and
    /// reprogramming every bank. The fleet-replica deployment path:
    /// pretrain once centrally, then push the same weights to N replicas.
    pub fn try_deploy_weights(&mut self, weights: &[Vec<f64>]) -> Result<(), ArchError> {
        if weights.len() != self.layer_count() {
            return Err(ArchError::LayerOutOfRange {
                layer: weights.len(),
                layers: self.layer_count(),
            });
        }
        for (k, w) in weights.iter().enumerate() {
            self.try_set_layer_weights(k, w)?;
        }
        Ok(())
    }

    /// Inject a sampled fault population into every PE of the engine and
    /// switch weight programming to the fault-tolerant closed-loop path.
    /// Deterministic in `plan.seed`. Returns what was actually injected,
    /// or the plan's first out-of-range field (see [`FaultPlan::validate`])
    /// before anything is touched.
    pub fn inject_faults(&mut self, plan: &FaultPlan) -> Result<FaultReport, ArchError> {
        plan.validate()?;
        let _span = obs::span("engine.inject_faults");
        let mut rng = StdRng::seed_from_u64(plan.seed);
        let mut report = FaultReport {
            stuck_amorphous: 0,
            stuck_crystalline: 0,
            dead_rings: 0,
            total_rings: 0,
            laser_droop: plan.laser_droop,
            drift_years: plan.drift_years,
        };
        for pe in self.layers.iter_mut().flat_map(TileGemm::pes_mut) {
            if plan.laser_droop > 0.0 {
                pe.set_laser_droop(plan.laser_droop);
            }
            let (rows, cols) = (pe.rows(), pe.cols());
            let bank = pe.bank_mut();
            for r in 0..rows {
                for c in 0..cols {
                    report.total_rings += 1;
                    let u: f64 = rng.gen_range(0.0..1.0);
                    if u < plan.stuck_amorphous {
                        bank.inject_ring_fault(r, c, GstFault::StuckAmorphous);
                        report.stuck_amorphous += 1;
                    } else if u < plan.stuck_amorphous + plan.stuck_crystalline {
                        bank.inject_ring_fault(r, c, GstFault::StuckCrystalline);
                        report.stuck_crystalline += 1;
                    }
                    if plan.dead_rings > 0.0 && rng.gen_bool(plan.dead_rings) {
                        bank.mask_ring(r, c);
                        report.dead_rings += 1;
                    }
                }
            }
            if plan.drift_years > 0.0 {
                bank.advance_years(plan.drift_years);
            }
        }
        obs::add(
            obs::Counter::FaultInjectEvents,
            (report.stuck_amorphous + report.stuck_crystalline) as u64,
        );
        obs::add(obs::Counter::FaultMaskEvents, report.dead_rings as u64);
        self.fault_tolerant_writes = true;
        Ok(report)
    }

    /// Advance every bank's degradation clock by `delta` hours of
    /// simulated deployment time and apply the active degradation law —
    /// statistical power-law drift when built with
    /// [`EngineOptions::stat`], deterministic crystallinity relaxation
    /// otherwise. This is the single way time passes for a deployed
    /// engine.
    pub fn advance_deployment(&mut self, delta: Hours) {
        let _span = obs::span("engine.advance_deployment");
        for layer in &mut self.layers {
            layer.advance_hours(delta);
        }
    }

    /// Run one drift-calibration pass on every bank (one reference-column
    /// read each), updating the global compensation gains. The probe
    /// energy lands in each bank's `"drift calibration"` ledger entry (so
    /// [`PhotonicMlp::total_energy`] and the obs counters both see it);
    /// the total is returned. A no-op returning zero without the
    /// statistical layer.
    pub fn calibrate_drift_compensation(&mut self) -> EnergyPj {
        let _span = obs::span("engine.drift_calibration");
        self.layers.iter_mut().fold(EnergyPj::ZERO, |spent, layer| layer.calibrate(spent))
    }

    /// Open every bank's drift-compensation loop (gain back to unity) for
    /// the duration of a reprogramming campaign — see
    /// [`WeightBank::disengage_compensation`](crate::bank::WeightBank::disengage_compensation)
    /// for why training under a stale gain is unsafe. A no-op without the
    /// statistical layer.
    pub fn disengage_drift_compensation(&mut self) {
        for layer in &mut self.layers {
            layer.disengage_compensation();
        }
    }

    /// Whether the statistical device layer is active on the engine's
    /// banks.
    pub fn stat_enabled(&self) -> bool {
        self.layers.iter().any(TileGemm::stat_enabled)
    }

    /// Whether programming runs through the fault-tolerant verified path.
    pub fn fault_tolerant_writes(&self) -> bool {
        self.fault_tolerant_writes
    }

    /// Writes rejected by stuck cells or failed by verify, summed over
    /// every bank.
    pub fn write_failures(&self) -> u64 {
        self.layers.iter().map(TileGemm::write_failures).sum()
    }

    /// Faulty or worn cells remapped onto spare rings, summed over banks.
    pub fn remapped_rings(&self) -> u64 {
        self.layers.iter().map(TileGemm::remapped_rings).sum()
    }

    /// Dead slots masked out of the optics, summed over banks.
    pub fn masked_rings(&self) -> usize {
        self.layers.iter().map(TileGemm::masked_rings).sum()
    }

    fn program_layer_forward(&mut self, k: usize) -> Result<(), ArchError> {
        if self.fault_tolerant_writes {
            // Closed-loop writes; per-cell failures are absorbed by the
            // bank's remap/mask degradation and tallied in the ring
            // counters, so only internal-shape bugs can error here.
            self.layers[k].program_verified(&self.weights[k], &self.write_policy, &mut self.write_rng)
        } else {
            self.layers[k].program(&self.weights[k]);
            Ok(())
        }
    }

    fn program_forward_weights(&mut self) -> Result<(), ArchError> {
        for k in 0..self.layer_count() {
            self.program_layer_forward(k)?;
        }
        Ok(())
    }

    /// Forward one sample photonically. Input entries must lie in `[0, 1]`
    /// (image-like data). Returns the output logits: the same sweep as a
    /// one-sample [`PhotonicMlp::try_forward_batch`], under its own
    /// `engine.forward` span.
    pub fn try_forward(&mut self, x: &[f64]) -> Result<Vec<f64>, ArchError> {
        Ok(self.sweep("engine.forward", &[x], true)?[0].clone())
    }

    /// Forward a batch of samples, amortizing per-layer dispatch: the
    /// sweep is layer-major (`for layer { for sample }`), so each layer's
    /// span/bookkeeping overhead is paid once per batch rather than once
    /// per sample and every per-sample output lands in a reused
    /// engine-owned slot.
    ///
    /// Determinism: each PE belongs to exactly one `(layer, tile)` slot,
    /// so it observes the same call sequence (sample 0, 1, … in order)
    /// under layer-major dispatch as under per-sample [`PhotonicMlp::
    /// try_forward`] — its noise streams, drift clocks, and energy ledger
    /// evolve identically, and outputs are bitwise identical to the
    /// per-sample path. The layer caches end holding the *last* sample's
    /// vectors, the same end state the per-sample loop leaves.
    ///
    /// With `tail = true` the last layer's logits pass through
    /// unactivated (the network tail, read by the loss). With
    /// `tail = false` the engine is one stage of a layer-sharded
    /// pipeline: its last layer is an interior layer of the larger
    /// network, so its rows go through the same latch-and-activate path
    /// as every hidden layer and the activated vectors feed the next
    /// stage. Returns per-sample outputs in input order; the slice
    /// borrows the engine's output slots and is valid until the next
    /// forward.
    pub fn try_forward_batch<S: AsRef<[f64]>>(
        &mut self,
        inputs: &[S],
        tail: bool,
    ) -> Result<&[Vec<f64>], ArchError> {
        self.sweep("engine.forward_batch", inputs, tail)
    }

    /// The one forward sweep behind both entry points, under span `name`.
    fn sweep<S: AsRef<[f64]>>(
        &mut self,
        name: &'static str,
        inputs: &[S],
        tail: bool,
    ) -> Result<&[Vec<f64>], ArchError> {
        if let Some(x) = inputs.iter().find(|x| x.as_ref().len() != self.dims[0]) {
            return Err(ArchError::ShapeMismatch { expected: self.dims[0], got: x.as_ref().len() });
        }
        let trace = obs::enabled();
        let _span = obs::span(name);
        let n = inputs.len();
        let allocs_before = self.heap_allocs;
        let mut outputs = std::mem::take(&mut self.outputs);
        grow_slots(&mut outputs, n, &mut self.heap_allocs);
        for (slot, x) in outputs.iter_mut().zip(inputs) {
            refill(slot, &mut self.heap_allocs, |s| s.extend_from_slice(x.as_ref()));
        }
        let layer_count = self.layer_count();
        for k in 0..layer_count {
            let _layer_span = if trace {
                obs::span_owned(format!("forward.layer{k}"))
            } else {
                obs::SpanGuard::disabled()
            };
            let activate = !(tail && k + 1 == layer_count);
            for y in &mut outputs[..n] {
                let sim_start = if trace { self.total_elapsed() } else { Nanoseconds(0.0) };
                self.forward_layer(k, activate, y);
                if trace {
                    let dt = self.total_elapsed() - sim_start;
                    obs::add_sim_ns(obs::Counter::ForwardLayerSimNs, dt.value());
                    obs::add(obs::Counter::LayersForwarded, 1);
                }
            }
        }
        obs::add(obs::Counter::HotPathAllocs, self.heap_allocs - allocs_before);
        self.outputs = outputs;
        Ok(&self.outputs[..n])
    }

    /// One layer of the forward dataflow for one sample: cache the layer
    /// input, run the MVM tiles into the logit cache with electronic
    /// partial-sum accumulation across column tiles, then replace `y`
    /// with the LDSU latch-and-activate of those logits, or with the raw
    /// logits when `activate` is off (the network tail).
    fn forward_layer(&mut self, k: usize, activate: bool, y: &mut Vec<f64>) {
        self.cached_inputs[k].copy_from_slice(y);
        // Normalize activations onto the lasers (electronic AGC).
        let scale = y.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-12);
        let h = &mut self.cached_logits[k];
        let psums = self.layers[k].gemv_unsigned(y, |v| (v / scale).max(0.0), scale, h);
        charge_psums(&mut self.extra_energy, psums);
        refill(y, &mut self.heap_allocs, |y| {
            if activate {
                y.resize(h.len(), 0.0);
                self.layers[k].activate_rows(h, y);
            } else {
                y.extend_from_slice(h);
            }
        });
    }

    /// Pre-grow `batch` per-sample output slots to the widest layer, so
    /// steady-state forwards perform no engine-side heap allocation.
    /// Fleet builders call this once per replica at build time; growth
    /// here is warm-up and is not counted in
    /// [`PhotonicMlp::hot_path_allocs`].
    pub fn reserve_forward_scratch(&mut self, batch: usize) {
        let wmax = self.dims.iter().copied().max().unwrap_or(0);
        reserve_slots(&mut self.outputs, batch, wmax);
    }

    /// Output-slot growth events since construction. Zero growth across
    /// a window of warm forwards is the zero-allocation claim
    /// `ablation_serve` checks.
    pub fn hot_path_allocs(&self) -> u64 {
        self.heap_allocs
    }

    /// Predicted class for one sample (NaN-safe, see [`argmax`]).
    pub fn try_predict(&mut self, x: &[f64]) -> Result<usize, ArchError> {
        Ok(argmax(&self.try_forward(x)?))
    }

    /// Accuracy over a set of samples.
    pub fn accuracy(&mut self, xs: &[Vec<f64>], labels: &[usize]) -> Result<f64, ArchError> {
        accuracy_of(xs, labels, |x| self.try_forward(x))
    }

    /// One in-situ training step on a single sample (the paper's
    /// alternating forward/backward schedule). Returns the sample loss.
    pub fn try_train_sample(
        &mut self,
        x: &[f64],
        label: usize,
        learning_rate: f64,
    ) -> Result<f64, ArchError> {
        self.train_step(x, label, learning_rate, None)
    }

    /// One in-situ training step: forward, then the backward walk from
    /// the output layer down, then the Eq. 1 update. Each hidden layer's
    /// error comes from the chained `Wᵀ` products (backprop) or, given
    /// `feedback`, from its fixed DFA bank (see [`crate::dfa`]). Returns
    /// the sample loss.
    pub(crate) fn train_step(
        &mut self,
        x: &[f64],
        label: usize,
        learning_rate: f64,
        mut feedback: Option<&mut DfaFeedback>,
    ) -> Result<f64, ArchError> {
        self.check_label(label)?;
        let _span = obs::span("engine.train_sample");
        let logits = self.try_forward(x)?;
        let (loss, error) = softmax_grad(&logits, label);
        let layer_count = self.layer_count();
        let mut delta = error.clone();
        let mut weight_grads: Vec<Vec<f64>> = Vec::with_capacity(layer_count);
        for k in (0..layer_count).rev() {
            // Outer product for layer k: δW_k = δh_k ⊗ y_{k-1}.
            weight_grads.push(self.outer_product_layer(k, &delta));
            if k > 0 {
                // Layer k−1's error: (W_kᵀ δh_k) or (B_{k−1} e), ⊙ f'(h_{k−1}).
                delta = match feedback.as_deref_mut() {
                    None => self.gradient_vector_layer(k, &delta)?,
                    Some(fb) => self.layers[k - 1].hadamard_latched(&fb.project(k - 1, &error)),
                };
            }
        }
        weight_grads.reverse();
        self.apply_weight_grads(&weight_grads, learning_rate)?;
        Ok(loss)
    }

    /// `LabelOutOfRange` unless `label` names one of the output classes.
    fn check_label(&self, label: usize) -> Result<(), ArchError> {
        let classes = self.dims.last().copied().unwrap_or(0);
        if label >= classes {
            return Err(ArchError::LabelOutOfRange { label, classes });
        }
        Ok(())
    }

    /// Mini-batch training: one weight update per `batch_size` samples,
    /// amortizing the bank-retuning sweeps the way the Table V model
    /// assumes. Per batch this schedule programs `Wᵀ` once per layer
    /// (instead of once per sample) and reprograms the forward weights
    /// once; the per-sample `f'(h)` bits are spilled to the PE's L1 (the
    /// same one-bit-per-position FIFO the convolutional engine uses), and
    /// the per-sample `y` outer-product programming remains — it cannot
    /// amortize because every sample's activations differ.
    pub fn try_train_batched(
        &mut self,
        xs: &[Vec<f64>],
        labels: &[usize],
        learning_rate: f64,
        epochs: usize,
        batch_size: usize,
    ) -> Result<TrainingOutcome, ArchError> {
        if xs.len() != labels.len() {
            return Err(ArchError::ShapeMismatch { expected: xs.len(), got: labels.len() });
        }
        if batch_size == 0 {
            return Err(ArchError::InvalidParameter {
                name: "batch_size",
                value: 0,
                expected: "at least 1",
            });
        }
        labels.iter().try_for_each(|&label| self.check_label(label))?;
        let _span = obs::span("engine.train_batched");
        let layer_count = self.layer_count();
        let mut loss_history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut epoch_loss = 0.0;
            for (bx, bl) in xs.chunks(batch_size).zip(labels.chunks(batch_size)) {
                // Forward every sample with stationary weights; cache the
                // per-sample logits (the spilled LDSU bits) and inputs.
                // `sample_deltas[s]` always holds the *current* (deepest
                // computed) error vector of sample `s`.
                let mut sample_deltas: Vec<Vec<f64>> = Vec::with_capacity(bx.len());
                let mut sample_logits = Vec::with_capacity(bx.len());
                let mut sample_inputs = Vec::with_capacity(bx.len());
                for (x, &label) in bx.iter().zip(bl) {
                    let logits = self.try_forward(x)?;
                    let (loss, delta) = softmax_grad(&logits, label);
                    epoch_loss += loss;
                    sample_deltas.push(delta);
                    sample_logits.push(self.cached_logits.clone());
                    sample_inputs.push(self.cached_inputs.clone());
                }
                // Backward, layer by layer: program Wᵀ once, sweep the
                // whole batch through it, restore once.
                let mut grads: Vec<Vec<f64>> =
                    self.weights.iter().map(|w| vec![0.0; w.len()]).collect();
                for k in (0..layer_count).rev() {
                    // Outer products for layer k, per sample.
                    for s in 0..bx.len() {
                        // Point the outer product at this sample's input.
                        self.cached_inputs = sample_inputs[s].clone();
                        let g = self.outer_product_layer(k, &sample_deltas[s]);
                        for (acc, v) in grads[k].iter_mut().zip(&g) {
                            *acc += v / bx.len() as f64;
                        }
                    }
                    if k > 0 {
                        self.layers[k].program_transposed(&self.weights[k]);
                        for s in 0..bx.len() {
                            // Signed MVM through Wᵀ; this sweep bills no
                            // partial sums (DESIGN.md §16).
                            let mut v = vec![0.0; self.dims[k]];
                            self.layers[k].gemv_signed(&sample_deltas[s], &mut v);
                            // Hadamard with the spilled f'(h_{k-1}) bits.
                            let h = &sample_logits[s][k - 1];
                            sample_deltas[s] =
                                v.iter().zip(h).map(|(&vi, &hi)| spilled_hadamard(vi, hi)).collect();
                        }
                        self.program_layer_forward(k)?;
                    }
                }
                self.apply_weight_grads(&grads, learning_rate)?;
            }
            loss_history.push(epoch_loss / xs.len() as f64);
        }
        self.outcome(loss_history, xs, labels)
    }

    /// Eq. 1: `W ← W − β δW`, clipped to the photonic range, quantized to
    /// the tuning grid, and programmed back into the forward banks.
    fn apply_weight_grads(
        &mut self,
        weight_grads: &[Vec<f64>],
        learning_rate: f64,
    ) -> Result<(), ArchError> {
        for k in 0..self.layer_count() {
            apply_update(&mut self.weights[k], &weight_grads[k], learning_rate, self.weight_bits);
            self.program_layer_forward(k)?;
        }
        Ok(())
    }

    /// Table II gradient-vector mode for layer `k`: program `W_kᵀ`, run a
    /// signed MVM of `delta`, apply the latched `f'(h_{k-1})` of the
    /// *previous* layer via its TIA gains.
    fn gradient_vector_layer(&mut self, k: usize, delta: &[f64]) -> Result<Vec<f64>, ArchError> {
        let trace = obs::enabled();
        let _span = if trace {
            obs::span_owned(format!("backward.layer{k}.gradient_vector"))
        } else {
            obs::SpanGuard::disabled()
        };
        let sim_start = if trace { self.total_elapsed() } else { Nanoseconds(0.0) };
        let (out, inp) = self.layer_dims(k);
        assert_eq!(delta.len(), out);
        self.layers[k].program_transposed(&self.weights[k]);
        let mut v = vec![0.0; inp];
        let psums = self.layers[k].gemv_signed(delta, &mut v);
        charge_psums(&mut self.extra_energy, psums);
        // Restore the forward weights for the next forward pass.
        self.program_layer_forward(k)?;
        if trace {
            let dt = self.total_elapsed() - sim_start;
            obs::add_sim_ns(obs::Counter::BackwardLayerSimNs, dt.value());
        }
        // Hadamard with f'(h_{k-1}) from the previous layer's LDSUs.
        Ok(self.layers[k - 1].hadamard_latched(&v))
    }

    /// Table II outer-product mode for layer `k`: `δW = δh ⊗ y_{k-1}`,
    /// tile by tile, returned row-major.
    fn outer_product_layer(&mut self, k: usize, delta: &[f64]) -> Vec<f64> {
        let trace = obs::enabled();
        let _span = if trace {
            obs::span_owned(format!("backward.layer{k}.outer_product"))
        } else {
            obs::SpanGuard::disabled()
        };
        let sim_start = if trace { self.total_elapsed() } else { Nanoseconds(0.0) };
        assert_eq!(delta.len(), self.layer_dims(k).0);
        let grad = self.layers[k].outer_product(delta, &self.cached_inputs[k]);
        if trace {
            let dt = self.total_elapsed() - sim_start;
            obs::add_sim_ns(obs::Counter::BackwardLayerSimNs, dt.value());
        }
        grad
    }

    /// Train for `epochs` over a dataset, evaluating on the same set.
    pub fn try_train(
        &mut self,
        xs: &[Vec<f64>],
        labels: &[usize],
        learning_rate: f64,
        epochs: usize,
    ) -> Result<TrainingOutcome, ArchError> {
        let loss_history = self.train_epochs(xs, labels, learning_rate, epochs, None)?;
        self.outcome(loss_history, xs, labels)
    }

    /// A finished run's report: `loss_history`, the accuracy on the
    /// training set, and the ledgers so far.
    fn outcome(
        &mut self,
        loss_history: Vec<f64>,
        xs: &[Vec<f64>],
        labels: &[usize],
    ) -> Result<TrainingOutcome, ArchError> {
        Ok(TrainingOutcome {
            loss_history,
            final_accuracy: self.accuracy(xs, labels)?,
            total_energy: self.total_energy(),
            programming_energy: self.programming_energy(),
            elapsed: self.total_elapsed(),
        })
    }

    /// `epochs` passes of [`PhotonicMlp::train_step`] over a dataset, in
    /// order; returns the mean loss per epoch.
    pub(crate) fn train_epochs(
        &mut self,
        xs: &[Vec<f64>],
        labels: &[usize],
        learning_rate: f64,
        epochs: usize,
        mut feedback: Option<&mut DfaFeedback>,
    ) -> Result<Vec<f64>, ArchError> {
        if xs.len() != labels.len() {
            return Err(ArchError::ShapeMismatch { expected: xs.len(), got: labels.len() });
        }
        let mut loss_history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut total = 0.0;
            for (x, &label) in xs.iter().zip(labels) {
                total += self.train_step(x, label, learning_rate, feedback.as_deref_mut())?;
            }
            loss_history.push(total / xs.len() as f64);
        }
        Ok(loss_history)
    }

    /// Aggregate energy across all PEs and engine-level charges.
    pub fn total_energy(&self) -> EnergyPj {
        self.layers.iter().fold(EnergyPj::ZERO, |acc, layer| layer.fold_energy(acc))
            + self.extra_energy.total()
    }

    /// GST programming energy alone.
    pub fn programming_energy(&self) -> EnergyPj {
        self.layers.iter().fold(EnergyPj::ZERO, |acc, layer| layer.fold_write_energy(acc))
    }

    /// Full merged energy ledger.
    pub fn energy_ledger(&self) -> EnergyLedger {
        let mut ledger = self.extra_energy.clone();
        for layer in &self.layers {
            layer.absorb_into(&mut ledger);
        }
        ledger
    }

    /// Simulated time across PEs (sequential-tile upper bound).
    pub fn total_elapsed(&self) -> Nanoseconds {
        self.layers.iter().fold(Nanoseconds::ZERO, |acc, layer| layer.fold_elapsed(acc))
    }

    /// The activation function the hardware applies between layers.
    pub fn activation(&self) -> (f64, f64) {
        (LOGIT_THRESHOLD, GST_SLOPE)
    }

    /// Float-math mirror of the photonic forward pass over the master
    /// (electronic) weight copies — the engine's *digital twin*. The
    /// adaptive-training error model measures the photonic hardware
    /// against this reference to learn its systematic error; the
    /// equivalence tests use it to bound device noise.
    pub fn digital_forward(&self, x: &[f64]) -> Vec<f64> {
        let mut y: Vec<f64> = x.to_vec();
        let (threshold, slope) = self.activation();
        for k in 0..self.layer_count() {
            let (out, inp) = self.layer_dims(k);
            let w = self.layer_weights(k);
            let mut h = vec![0.0; out];
            for i in 0..out {
                for j in 0..inp {
                    h[i] += w[i * inp + j] * y[j];
                }
            }
            if k + 1 == self.layer_count() {
                y = h;
            } else {
                y = h
                    .iter()
                    .map(|&v| if v >= threshold { slope * (v - threshold) } else { 0.0 })
                    .collect();
            }
        }
        y
    }
}

/// Softmax cross-entropy loss and gradient for one sample (f64) — the
/// electronic output error every photonic training path starts from.
pub(crate) fn softmax_grad(logits: &[f64], label: usize) -> (f64, Vec<f64>) {
    assert!(label < logits.len(), "label out of range");
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    let probs: Vec<f64> = exps.iter().map(|&e| e / sum).collect();
    let loss = -probs[label].max(1e-12).ln();
    let grad = probs
        .iter()
        .enumerate()
        .map(|(i, &p)| if i == label { p - 1.0 } else { p })
        .collect();
    (loss, grad)
}

/// Index of the largest logit. Logits are ranked with a total order, so
/// a pathological (NaN) output can never crash a classifier.
pub fn argmax(logits: &[f64]) -> usize {
    logits.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map_or(0, |(i, _)| i)
}

/// Fraction of `xs` whose `logits` argmax matches its label; the first
/// failed forward ends the sweep with its error.
pub(crate) fn accuracy_of<E>(
    xs: &[Vec<f64>],
    labels: &[usize],
    mut logits: impl FnMut(&[f64]) -> Result<Vec<f64>, E>,
) -> Result<f64, E> {
    let mut correct = 0;
    for (x, &label) in xs.iter().zip(labels) {
        correct += usize::from(argmax(&logits(x)?) == label);
    }
    Ok(count(correct) / count(labels.len()))
}

/// Round `w` onto the `bits`-bit tuning grid of the photonic range.
pub(crate) fn quantize(w: f64, bits: u8) -> f64 {
    let levels = (1u32 << bits) - 1;
    let step = 2.0 / f64::from(levels - 1);
    (w.clamp(-1.0, 1.0) / step).round() * step
}

/// Eq. 1 on one weight matrix: `W ← W − β·δW`, clipped to the photonic
/// range and quantized to the `bits`-bit tuning grid.
pub(crate) fn apply_update(weights: &mut [f64], grads: &[f64], learning_rate: f64, bits: u8) {
    for (w, &g) in weights.iter_mut().zip(grads) {
        *w = quantize((*w - learning_rate * g).clamp(-1.0, 1.0), bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mlp(dims: &[usize], seed: u64) -> PhotonicMlp {
        PhotonicMlp::try_with_options(dims, EngineOptions { seed, ..Default::default() }).unwrap()
    }

    fn reference_forward(engine: &PhotonicMlp, x: &[f64]) -> Vec<f64> {
        // Float-math mirror of the photonic forward pass.
        let mut y: Vec<f64> = x.to_vec();
        let (threshold, slope) = engine.activation();
        for k in 0..engine.layer_count() {
            let (out, inp) = engine.layer_dims(k);
            let w = engine.layer_weights(k);
            let mut h = vec![0.0; out];
            for i in 0..out {
                for j in 0..inp {
                    h[i] += w[i * inp + j] * y[j];
                }
            }
            if k + 1 == engine.layer_count() {
                y = h;
            } else {
                y = h
                    .iter()
                    .map(|&v| if v >= threshold { slope * (v - threshold) } else { 0.0 })
                    .collect();
            }
        }
        y
    }

    #[test]
    fn photonic_forward_matches_float_reference() {
        let mut engine = mlp(&[8, 6, 3], 42);
        let x: Vec<f64> = (0..8).map(|i| (i as f64) / 8.0).collect();
        let photonic = engine.try_forward(&x).unwrap();
        let reference = reference_forward(&engine, &x);
        for (r, (&p, &f)) in photonic.iter().zip(&reference).enumerate() {
            assert!(
                (p - f).abs() < 0.05,
                "output {r}: photonic {p} vs reference {f}"
            );
        }
    }

    #[test]
    fn tiled_layer_matches_reference() {
        // 40 inputs forces column tiling (3 tiles of 16). Seed pinned
        // against the vendored RNG stream with 2× margin on the bound.
        let mut engine = mlp(&[40, 20, 4], 23);
        assert!(engine.pe_count() > 3 * 2, "tiling must allocate PEs");
        let x: Vec<f64> = (0..40).map(|i| ((i * 7) % 10) as f64 / 10.0).collect();
        let photonic = engine.try_forward(&x).unwrap();
        let reference = reference_forward(&engine, &x);
        for (r, (&p, &f)) in photonic.iter().zip(&reference).enumerate() {
            assert!(
                (p - f).abs() < 0.1,
                "output {r}: photonic {p} vs reference {f}"
            );
        }
    }

    #[test]
    fn gradient_vector_mode_matches_math() {
        let mut engine = mlp(&[6, 5, 3], 3);
        let x = [0.2, 0.9, 0.4, 0.1, 0.7, 0.5];
        engine.try_forward(&x).unwrap();
        let delta = vec![0.3, -0.7, 0.2];
        let photonic = engine.gradient_vector_layer(1, &delta).expect("valid layer");
        // Math: (W1ᵀ δ) ⊙ f'(h0).
        let (out, inp) = engine.layer_dims(1);
        let w = engine.layer_weights(1).to_vec();
        let h0 = engine.cached_logits[0].clone();
        let (threshold, slope) = engine.activation();
        for j in 0..inp {
            let mut v = 0.0;
            for i in 0..out {
                v += w[i * inp + j] * delta[i];
            }
            let fprime = if h0[j] >= threshold { slope } else { 0.0 };
            let want = v * fprime;
            assert!(
                (photonic[j] - want).abs() < 0.05,
                "grad[{j}]: photonic {} vs math {want}",
                photonic[j]
            );
        }
    }

    #[test]
    fn outer_product_mode_matches_math() {
        let mut engine = mlp(&[5, 4, 2], 5);
        let x = [0.8, 0.1, 0.6, 0.3, 0.9];
        engine.try_forward(&x).unwrap();
        let delta = vec![0.5, -1.0];
        let grad = engine.outer_product_layer(1, &delta);
        let y = engine.cached_inputs[1].clone();
        let (out, inp) = engine.layer_dims(1);
        assert_eq!(grad.len(), out * inp);
        for i in 0..out {
            for j in 0..inp {
                let want = delta[i] * y[j];
                let got = grad[i * inp + j];
                assert!(
                    (got - want).abs() < 0.05 + 0.05 * want.abs(),
                    "δW[{i}][{j}]: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn training_reduces_loss_insitu() {
        let mut engine = mlp(&[8, 8, 3], 11);
        // Three linearly separable prototype inputs.
        let xs: Vec<Vec<f64>> = vec![
            vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
        ];
        let labels = vec![0, 1, 2];
        let outcome = engine.try_train(&xs, &labels, 0.4, 25).unwrap();
        let first = outcome.loss_history.first().copied().unwrap();
        let last = outcome.loss_history.last().copied().unwrap();
        assert!(last < first, "loss should fall: {first} → {last}");
        assert!(
            outcome.final_accuracy >= 2.0 / 3.0,
            "accuracy {}",
            outcome.final_accuracy
        );
        assert!(outcome.programming_energy.value() > 0.0);
        assert!(outcome.total_energy.value() > outcome.programming_energy.value());
    }

    #[test]
    fn weight_updates_are_quantized_and_clipped() {
        let opts = EngineOptions { seed: 2, weight_bits: 6, ..Default::default() };
        let mut engine = PhotonicMlp::try_with_options(&[4, 3, 2], opts).unwrap();
        let xs = vec![vec![1.0, 0.0, 1.0, 0.0]];
        let labels = vec![0];
        engine.try_train(&xs, &labels, 10.0, 3).unwrap(); // huge lr to force clipping
        let step = 2.0 / ((1u32 << 6) - 2) as f64;
        for k in 0..engine.layer_count() {
            for &w in engine.layer_weights(k) {
                assert!((-1.0..=1.0).contains(&w), "weight {w} escaped [-1, 1]");
                let level = w / step;
                assert!(
                    (level - level.round()).abs() < 1e-6,
                    "weight {w} not on the 6-bit grid"
                );
            }
        }
    }

    #[test]
    fn too_few_layer_widths_is_a_typed_error() {
        assert!(matches!(
            PhotonicMlp::try_with_options(&[8], EngineOptions::default()),
            Err(ArchError::InvalidParameter { name: "layer widths", value: 1, .. })
        ));
    }

    #[test]
    fn out_of_range_weight_bits_is_a_typed_error() {
        let opts = EngineOptions { weight_bits: 9, ..Default::default() };
        assert!(matches!(
            PhotonicMlp::try_with_options(&[4, 2], opts),
            Err(ArchError::InvalidParameter { name: "weight_bits", value: 9, .. })
        ));
    }

    #[test]
    fn zero_batch_size_is_a_typed_error() {
        let mut engine = mlp(&[4, 2], 1);
        let xs = vec![vec![1.0, 0.0, 1.0, 0.0]];
        assert!(matches!(
            engine.try_train_batched(&xs, &[0], 0.1, 1, 0),
            Err(ArchError::InvalidParameter { name: "batch_size", value: 0, .. })
        ));
    }

    #[test]
    fn batched_out_of_range_label_is_a_typed_error() {
        let mut engine = mlp(&[4, 3], 1);
        let before = engine.snapshot_weights();
        let energy = engine.total_energy();
        let xs = vec![vec![1.0, 0.0, 1.0, 0.0]; 2];
        // The bad label sits in the second sample: nothing may run first.
        assert!(matches!(
            engine.try_train_batched(&xs, &[0, 7], 0.1, 1, 2),
            Err(ArchError::LabelOutOfRange { label: 7, classes: 3 })
        ));
        assert_eq!(engine.snapshot_weights(), before);
        assert_eq!(engine.total_energy(), energy);
    }

    #[test]
    fn set_layer_weights_round_trips() {
        let mut engine = mlp(&[3, 2, 2], 1);
        let w = vec![0.5, -0.5, 0.25, -0.25, 0.75, -0.75];
        engine.try_set_layer_weights(0, &w).unwrap();
        for (got, want) in engine.layer_weights(0).iter().zip(&w) {
            assert!((got - want).abs() < 0.01);
        }
    }

    #[test]
    fn batched_training_learns_with_less_programming() {
        let xs: Vec<Vec<f64>> = vec![
            vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
            vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        ];
        let labels = vec![0usize, 1, 2, 0];

        let mut per_sample = mlp(&[8, 8, 3], 11);
        let per_sample_outcome = per_sample.try_train(&xs, &labels, 0.4, 12).unwrap();

        let mut batched = mlp(&[8, 8, 3], 11);
        let batched_outcome = batched.try_train_batched(&xs, &labels, 0.4, 12, 4).unwrap();

        assert!(
            batched_outcome.loss_history.last().unwrap()
                < batched_outcome.loss_history.first().unwrap(),
            "batched loss should fall: {:?}",
            batched_outcome.loss_history
        );
        // Batched retuning is amortized: same epochs, fewer write pulses.
        assert!(
            batched_outcome.programming_energy.value()
                < per_sample_outcome.programming_energy.value(),
            "batched {} pJ should undercut per-sample {} pJ",
            batched_outcome.programming_energy.value(),
            per_sample_outcome.programming_energy.value()
        );
    }

    #[test]
    fn energy_grows_with_work() {
        let mut engine = mlp(&[8, 6, 3], 9);
        let after_init = engine.total_energy();
        let x: Vec<f64> = vec![0.5; 8];
        engine.try_forward(&x).unwrap();
        let after_forward = engine.total_energy();
        assert!(after_forward.value() > after_init.value());
        engine.try_train_sample(&x, 1, 0.1).unwrap();
        assert!(engine.total_energy().value() > after_forward.value());
        assert!(engine.total_elapsed().value() > 0.0);
    }

    fn batch_inputs(n: usize, width: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|s| (0..width).map(|j| ((s * 13 + j * 7) % 10) as f64 / 10.0).collect())
            .collect()
    }

    #[test]
    fn scratch_forward_is_bitwise_identical() {
        // Live noise streams (Some seed) make any reordering or extra PE
        // call visible: the batched layer-major sweep must hand each PE
        // the exact per-sample call sequence the per-sample loop does.
        let xs = batch_inputs(4, 40);
        let opts = EngineOptions { seed: 23, noise_seed: Some(7), ..Default::default() };
        let mut sequential = PhotonicMlp::try_with_options(&[40, 20, 4], opts).unwrap();
        let expected: Vec<Vec<f64>> =
            xs.iter().map(|x| sequential.try_forward(x).unwrap()).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        // A one-sample batch is the single-sample call, bit for bit.
        let mut one = PhotonicMlp::try_with_options(&[40, 20, 4], opts).unwrap();
        assert_eq!(bits(&one.try_forward_batch(&xs[..1], true).unwrap()[0]), bits(&expected[0]));
        let mut batched = PhotonicMlp::try_with_options(&[40, 20, 4], opts).unwrap();
        let got = batched.try_forward_batch(&xs, true).unwrap();
        assert_eq!(got.len(), expected.len());
        for (s, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(bits(g), bits(e), "sample {s}: batched output must be bitwise identical");
        }
        // The layer caches end holding the last sample's vectors in both
        // dispatch orders, so training code sees the same end state.
        let seq_logits: Vec<Vec<u64>> = sequential
            .cached_logits
            .iter()
            .map(|l| l.iter().map(|v| v.to_bits()).collect())
            .collect();
        let bat_logits: Vec<Vec<u64>> = batched
            .cached_logits
            .iter()
            .map(|l| l.iter().map(|v| v.to_bits()).collect())
            .collect();
        assert_eq!(seq_logits, bat_logits);
        // And the global energy/time ledgers agree exactly.
        assert_eq!(
            sequential.total_energy().value().to_bits(),
            batched.total_energy().value().to_bits()
        );
        assert_eq!(
            sequential.total_elapsed().value().to_bits(),
            batched.total_elapsed().value().to_bits()
        );
    }

    #[test]
    fn warm_engine_forwards_without_heap_allocs() {
        let mut engine = mlp(&[40, 20, 4], 23);
        let xs = batch_inputs(8, 40);
        engine.reserve_forward_scratch(xs.len());
        // Reserved slots never grow, whether the last layer is the tail
        // or a pipeline stage boundary; the single-sample forward reuses
        // slot 0 of the same sweep.
        let warm = engine.hot_path_allocs();
        for _ in 0..4 {
            engine.try_forward_batch(&xs, true).unwrap();
            engine.try_forward_batch(&xs, false).unwrap();
            engine.try_forward(&xs[0]).unwrap();
        }
        assert_eq!(
            engine.hot_path_allocs(),
            warm,
            "steady-state forwards must not grow engine scratch"
        );
    }
}
