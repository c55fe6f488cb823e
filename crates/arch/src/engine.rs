//! The photonic network engine: whole networks on simulated Trident hardware.
//!
//! One PE is allocated per 16×16 weight tile (the paper assigns "one PE to
//! each layer" for networks that fit; tiling generalises that to arbitrary
//! layer sizes). A layer is dense or, for the digit CNN
//! ([`crate::conv_engine`]), a conv-pool layer whose grid is the
//! `out_c × in_c·k·k` filter bank. Inference keeps weights stationary;
//! training follows the paper's per-sample schedule:
//!
//! 1. **forward** — per layer, the chip's dense step (AGC, clamped laser
//!    lanes, optical MVM tiles, billed cross-tile partial sums), then the
//!    GST activation. A conv-pool layer runs the step once per im2col
//!    patch, then max-pools 2×2.
//! 2. **backward walk** over a batch (a per-sample step is a batch of
//!    one), output layer first — per layer `k`:
//!    - **outer product** (Table II mode 3): banks programmed with each
//!      sample's layer input, per-ring demux readout of `δW_k`; a
//!      conv-pool layer routes each pooled feature's error to its argmax
//!      position and adds one single-row outer product per feature;
//!    - **error for layer `k−1`**, per sample, from backprop's
//!      gradient-vector mode (Table II mode 2: `W_kᵀ` programmed once, a
//!      signed MVM of each `δh_k`; the banks hold `W_kᵀ` until the
//!      update) or from direct feedback alignment's fixed bank,
//!      `B_{k−1}·e` ([`crate::dfa`]), times `f'(h_{k−1})`
//!      ([`spilled_hadamard`]).
//! 3. **update** (Eq. 1) — `W ← W − β·δW` with the batch-mean gradient,
//!    clipped to the photonic range, quantized to the tuning method's bit
//!    resolution, and programmed back into the forward banks: the walk's
//!    one restore point.
//!
//! Every optical programming event and symbol is charged to the energy
//! ledgers, so the training demos report honest device-level costs.

use crate::chip::Chip;
use crate::conv_engine::ConvGeometry;
use crate::dfa::DfaFeedback;
use crate::error::ArchError;
use crate::pe::{gst_activation, spilled_hadamard, GST_SLOPE, LOGIT_THRESHOLD};
use crate::tile::{PeSpec, TileGemm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trident_obs as obs;
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

/// A network running on simulated photonic hardware: dense layers, or
/// the digit CNN's conv-pool layer and dense head.
///
/// Working memory follows one rule (DESIGN.md §15): the layer tapes,
/// whose sizes the layers fix, are allocated at construction; only the
/// per-sample output slots grow, and each growth is tallied in
/// [`PhotonicMlp::hot_path_allocs`]. The modeled device dataflow inside
/// the PEs (per-tile MVM returns, activation vectors) is part of the
/// hardware model and sits outside this boundary.
pub struct PhotonicMlp {
    /// Widths of the vectors between layers, input first.
    dims: Vec<usize>,
    layers: Vec<Layer>,
    /// Master (electronic) weight copies, row-major `[out × in]` per
    /// layer grid.
    weights: Vec<Vec<f64>>,
    /// The chip: one tile grid per layer.
    chip: Chip,
    /// Weight resolution in bits (8 for GST; 6 emulates thermal banks).
    weight_bits: u8,
    /// What each layer's latest forward kept for the backward walk.
    tape: Vec<Tape>,
    /// Per-sample outputs of the latest forward.
    outputs: Vec<Vec<f64>>,
    /// Growth events on `outputs` since construction.
    heap_allocs: u64,
    /// Prefix of every span this engine opens: empty for an MLP, `"cnn."`
    /// for the CNN, so the two never share a trace name.
    trace: &'static str,
}

/// One layer: what its grid holds and how the sweep and the walk use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layer {
    /// `y ← f(W·y)` (the network tail skips `f`); the grid holds `W`.
    Dense,
    /// Conv → GST activation → 2×2 max pool; the grid holds the filter
    /// bank. Only ever layer 0, so the walk never needs its `Wᵀ`.
    ConvPool(ConvGeometry),
}

/// What one layer's forward keeps for the backward walk.
#[derive(Debug, Clone)]
struct Tape {
    /// The vectors the grid read: `y_{k−1}`, or the im2col patches, one
    /// per position.
    input: Vec<f64>,
    /// The logits `h_k` (one `out_c` row per position for a conv), whose
    /// `f'(h)` bits the walk reads.
    logits: Vec<f64>,
    /// A conv-pool layer's activation map, shaped like its logits: the
    /// pool's input, from which the walk re-derives each feature's route.
    activ: Vec<f64>,
}

impl Layer {
    /// Add `grid`'s `δW` for one sample, taped in `t`, into `grad`, each
    /// product divided by the batch size `n`. A dense layer's `delta` is
    /// `δh_k`; a conv-pool layer's is the pooled features' error, which it
    /// routes to each feature's argmax position, skipping zero errors and
    /// dark positions, and weights by that position's `f'(h)` bit.
    fn outer_product(self, grid: &mut TileGemm, delta: &[f64], t: &Tape, n: f64, grad: &mut [f64]) {
        let Layer::ConvPool(g) = self else {
            return grid.outer_product(delta, &t.input, n, grad);
        };
        let p = g.patch_len();
        g.pool(&t.activ, f64::NEG_INFINITY, |i, _, at| {
            let (d, h) = (delta[i], t.logits[at]);
            if d == 0.0 || h < LOGIT_THRESHOLD {
                return;
            }
            let (pos, f) = (at / g.out_c, at % g.out_c);
            let patch = &t.input[pos * p..(pos + 1) * p];
            grid.outer_product(&[spilled_hadamard(d, h)], patch, n, &mut grad[f * p..(f + 1) * p]);
        });
    }
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
    /// widths or weight bits outside `2..=8`.
    pub fn try_with_options(dims: &[usize], opts: EngineOptions) -> Result<Self, ArchError> {
        if dims.len() < 2 {
            return Err(ArchError::InvalidParameter {
                name: "layer widths",
                value: dims.len(),
                expected: "at least 2 (input and output)",
            });
        }
        if !(2..=8).contains(&opts.weight_bits) {
            return Err(ArchError::InvalidParameter {
                name: "weight_bits",
                value: usize::from(opts.weight_bits),
                expected: "2..=8",
            });
        }
        Ok(Self::build(dims, vec![Layer::Dense; dims.len() - 1], opts, ""))
    }

    /// The one constructor: `layers` between vectors of widths `dims`
    /// (one more than `layers`), grid shapes from the layers, spans under
    /// `trace`. The caller has checked `opts.weight_bits`.
    pub(crate) fn build(
        dims: &[usize],
        layers: Vec<Layer>,
        opts: EngineOptions,
        trace: &'static str,
    ) -> Self {
        let EngineOptions { seed, noise_seed, weight_bits, resonance_sigma_nm, variation_seed, stat } =
            opts;
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut grids, mut weights, mut tape) = (vec![], vec![], vec![]);
        for (k, layer) in layers.iter().enumerate() {
            let (out, inp, positions) = match layer {
                Layer::Dense => (dims[k + 1], dims[k], 1),
                Layer::ConvPool(g) => (g.out_c, g.patch_len(), g.positions()),
            };
            grids.push(TileGemm::with_pes(out, inp, |t| PeSpec {
                noise_seed: noise_seed.map(|s| bank_identity(s, k, t)),
                resonance_sigma_nm,
                identity: bank_identity(variation_seed, k, t),
                // Per-bank identity mixed into the master seed, the same
                // (k, t) convention the receiver-noise and device
                // identities use (trident-streams owns the derivation
                // arithmetic).
                stat: stat.map(|params| (params, bank_identity(params.seed, k, t))),
            }));
            let limit = (6.0 / (out + inp) as f64).sqrt().min(1.0);
            weights.push((0..out * inp).map(|_| rng.gen_range(-limit..limit)).collect());
            let logits = vec![0.0; positions * out];
            let activ = if *layer == Layer::Dense { vec![] } else { logits.clone() };
            tape.push(Tape { input: vec![0.0; positions * inp], logits, activ });
        }
        let mut engine = Self {
            dims: dims.to_vec(),
            layers,
            weights,
            chip: Chip::new(grids),
            weight_bits,
            tape,
            outputs: Vec::new(),
            heap_allocs: 0,
            trace,
        };
        // A fresh chip writes open-loop, which cannot fail.
        for (grid, w) in engine.chip.grids.iter_mut().zip(&engine.weights) {
            grid.program(w);
        }
        engine
    }

    /// Number of weight layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Layer `k`'s weight matrix dimensions `(out, in)`.
    pub fn layer_dims(&self, k: usize) -> (usize, usize) {
        self.chip.grids[k].dims()
    }

    /// The layer widths this engine was built with (input first).
    pub fn dims(&self) -> &[usize] {
        &self.dims
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
        self.chip.program(k, &self.weights[k])
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

    /// The chip the layers run on: faults, aging, drift, ring tallies.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// The chip, mutably.
    pub fn chip_mut(&mut self) -> &mut Chip {
        &mut self.chip
    }

    /// [`Chip::advance_deployment`].
    pub fn advance_deployment(&mut self, delta: Hours) {
        self.chip.advance_deployment(delta);
    }

    /// [`Chip::calibrate_drift_compensation`].
    pub fn calibrate_drift_compensation(&mut self) -> EnergyPj {
        self.chip.calibrate_drift_compensation()
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
    /// per-sample path. The layer tapes end holding the *last* sample's
    /// vectors, the same end state the per-sample loop leaves.
    ///
    /// With `tail = true` the last layer's logits pass through
    /// unactivated (the network tail, read by the loss). With
    /// `tail = false` the engine is one stage of a layer-sharded
    /// pipeline: its last layer is an interior layer of the larger
    /// network, so its rows go through the same GST activation path
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

    /// Span `name` under the engine's trace prefix.
    fn span(&self, name: &'static str) -> obs::SpanGuard<'static> {
        match self.trace {
            "" => obs::span(name),
            prefix if obs::enabled() => obs::span_owned(format!("{prefix}{name}")),
            _ => obs::SpanGuard::disabled(),
        }
    }

    /// The one forward sweep behind every entry point, under span `name`.
    fn sweep<S: AsRef<[f64]>>(
        &mut self,
        name: &'static str,
        inputs: &[S],
        tail: bool,
    ) -> Result<&[Vec<f64>], ArchError> {
        check_widths(inputs, self.dims[0])?;
        let trace = obs::enabled();
        let _span = self.span(name);
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
                obs::span_owned(format!("{}forward.layer{k}", self.trace))
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

    /// One layer of the forward dataflow for one sample, keeping its tape.
    /// A dense layer runs the chip's dense step on `y`, then replaces `y`
    /// with the GST activation of the logits, or with the raw logits when
    /// `activate` is off (the network tail). A conv-pool layer runs the
    /// step and the activation once per im2col patch of `y`, spilling one
    /// `f'(h)` bit per row per position to L1, then replaces `y` with the
    /// 2×2 max pool of the activation map.
    fn forward_layer(&mut self, k: usize, activate: bool, y: &mut Vec<f64>) {
        let tape = &mut self.tape[k];
        let Layer::ConvPool(g) = self.layers[k] else {
            tape.input.copy_from_slice(y);
            let h = &mut tape.logits;
            self.chip.gemv_unsigned(k, y, h);
            return refill(y, &mut self.heap_allocs, |y| {
                if activate {
                    y.resize(h.len(), 0.0);
                    self.chip.grids[k].activate_rows(h, y);
                } else {
                    y.extend_from_slice(h);
                }
            });
        };
        g.im2col(y, &mut tape.input, |v| v);
        let rows = tape.logits.chunks_exact_mut(g.out_c).zip(tape.activ.chunks_exact_mut(g.out_c));
        for (patch, (h, act)) in tape.input.chunks_exact(g.patch_len()).zip(rows) {
            self.chip.gemv_unsigned(k, patch, h);
            self.chip.grids[k].activate_rows(h, act);
            self.chip.ldsu.energy.charge("ldsu fifo", EnergyPj(0.01 * g.out_c as f64));
        }
        refill(y, &mut self.heap_allocs, |y| {
            g.pool(&tape.activ, f64::NEG_INFINITY, |_, v, _| y.push(v));
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

    /// Accuracy over a labelled set; an unpaired, empty or mislabelled
    /// set is a typed error before the first forward.
    pub fn accuracy(&mut self, xs: &[Vec<f64>], labels: &[usize]) -> Result<f64, ArchError> {
        check_set(xs, labels, self.dims[0], self.dims[self.dims.len() - 1])?;
        accuracy_of(xs, labels, |x| self.try_forward(x))
    }

    /// One in-situ training step on a single sample (the paper's
    /// alternating forward/backward schedule): the backward walk over a
    /// batch of one. Returns the sample loss.
    pub fn try_train_sample(
        &mut self,
        x: &[f64],
        label: usize,
        learning_rate: f64,
    ) -> Result<f64, ArchError> {
        check_set(&[x], &[label], self.dims[0], self.dims[self.dims.len() - 1])?;
        self.train_batch(&[x], &[label], learning_rate, None)
    }

    /// Train for `epochs` over a dataset, one sample per step, evaluating
    /// on the same set: [`PhotonicMlp::try_train_batched`] with batches of
    /// one.
    pub fn try_train(
        &mut self,
        xs: &[Vec<f64>],
        labels: &[usize],
        learning_rate: f64,
        epochs: usize,
    ) -> Result<TrainingOutcome, ArchError> {
        self.try_train_batched(xs, labels, learning_rate, epochs, 1)
    }

    /// Mini-batch training: one weight update per `batch_size` samples,
    /// amortizing the bank-retuning sweeps the way the Table V model
    /// assumes. Per batch the walk programs `Wᵀ` once per layer (instead
    /// of once per sample) and the forward weights once, at the update;
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
        let loss_history = self.train_epochs(xs, labels, learning_rate, epochs, batch_size, None)?;
        Ok(TrainingOutcome {
            loss_history,
            final_accuracy: self.accuracy(xs, labels)?,
            total_energy: self.total_energy(),
            programming_energy: self.chip.programming_energy(),
            elapsed: self.total_elapsed(),
        })
    }

    /// `epochs` passes over a dataset in order, one
    /// [`PhotonicMlp::train_batch`] per `batch_size` samples, each hidden
    /// layer's error from `feedback` when given. The whole set is checked
    /// before the engine is touched. Returns the mean loss per epoch.
    pub(crate) fn train_epochs(
        &mut self,
        xs: &[Vec<f64>],
        labels: &[usize],
        learning_rate: f64,
        epochs: usize,
        batch_size: usize,
        mut feedback: Option<&mut DfaFeedback>,
    ) -> Result<Vec<f64>, ArchError> {
        if batch_size == 0 {
            return Err(ArchError::InvalidParameter {
                name: "batch_size",
                value: 0,
                expected: "at least 1",
            });
        }
        check_set(xs, labels, self.dims[0], self.dims[self.dims.len() - 1])?;
        let mut loss_history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut total = 0.0;
            for (bx, bl) in xs.chunks(batch_size).zip(labels.chunks(batch_size)) {
                total += self.train_batch(bx, bl, learning_rate, feedback.as_deref_mut())?;
            }
            loss_history.push(total / xs.len() as f64);
        }
        Ok(loss_history)
    }

    /// The one backward walk, over a checked batch: forward every sample
    /// with stationary weights, keeping its tape (layer inputs and the
    /// logits whose `f'(h)` bits are spilled); then per layer, output
    /// layer first, every sample's outer product and then every sample's
    /// error for layer `k−1` — through one `W_kᵀ` program (backprop) or,
    /// given `feedback`, the fixed DFA bank — times `f'(h_{k−1})`; then
    /// one Eq. 1 update with the batch-mean gradient, which reprograms
    /// every forward bank: the walk's one restore point. Returns the
    /// summed loss of the batch.
    fn train_batch<S: AsRef<[f64]>>(
        &mut self,
        xs: &[S],
        labels: &[usize],
        learning_rate: f64,
        mut feedback: Option<&mut DfaFeedback>,
    ) -> Result<f64, ArchError> {
        let _span = self.span("engine.train_sample");
        let mut loss = 0.0;
        let (mut errors, mut tapes) = (Vec::new(), Vec::new());
        for (x, &label) in xs.iter().zip(labels) {
            let (sample_loss, error) = softmax_grad(&self.try_forward(x.as_ref())?, label);
            loss += sample_loss;
            errors.push(error);
            tapes.push(self.tape.clone());
        }
        let mut deltas = errors.clone();
        let mut grads = Vec::with_capacity(self.layer_count());
        for k in (0..self.layer_count()).rev() {
            grads.push(self.backward_step(k, "outer_product", |mlp| {
                let mut grad = vec![0.0; mlp.weights[k].len()];
                for (delta, tape) in deltas.iter().zip(&tapes) {
                    let grid = &mut mlp.chip.grids[k];
                    mlp.layers[k].outer_product(grid, delta, &tape[k], xs.len() as f64, &mut grad);
                }
                grad
            }));
            if k == 0 {
                break;
            }
            self.backward_step(k, "gradient_vector", |mlp| match feedback.as_deref_mut() {
                None => mlp.chip.gradient_vectors(k, &mlp.weights[k], &mut deltas),
                Some(fb) => {
                    for (delta, error) in deltas.iter_mut().zip(&errors) {
                        *delta = fb.project(k - 1, error);
                    }
                }
            });
            // A conv-pool layer reads its f'(h) bits per routed feature.
            if self.layers[k - 1] == Layer::Dense {
                for (delta, tape) in deltas.iter_mut().zip(&tapes) {
                    for (d, &h) in delta.iter_mut().zip(&tape[k - 1].logits) {
                        *d = spilled_hadamard(*d, h);
                    }
                }
            }
        }
        // Eq. 1, layer 0 first: W ← W − β·δW, clipped, quantized and
        // programmed back into the forward banks.
        for (k, grad) in grads.iter().rev().enumerate() {
            for (w, &g) in self.weights[k].iter_mut().zip(grad) {
                *w = quantize((*w - learning_rate * g).clamp(-1.0, 1.0), self.weight_bits);
            }
            self.chip.program(k, &self.weights[k])?;
        }
        Ok(loss)
    }

    /// Run `step` under span `backward.layer{k}.{phase}`, adding the
    /// simulated time it spends to `BackwardLayerSimNs` when tracing.
    fn backward_step<T>(&mut self, k: usize, phase: &str, step: impl FnOnce(&mut Self) -> T) -> T {
        if !obs::enabled() {
            return step(self);
        }
        let _span = obs::span_owned(format!("{}backward.layer{k}.{phase}", self.trace));
        let start = self.total_elapsed();
        let out = step(self);
        obs::add_sim_ns(obs::Counter::BackwardLayerSimNs, (self.total_elapsed() - start).value());
        out
    }

    /// Aggregate energy across all PEs and engine-level charges
    /// ([`Chip::total_energy`]).
    pub fn total_energy(&self) -> EnergyPj {
        self.chip.total_energy()
    }

    /// Full merged energy ledger ([`Chip::energy_ledger`]).
    pub fn energy_ledger(&self) -> EnergyLedger {
        self.chip.energy_ledger()
    }

    /// Simulated time across PEs ([`Chip::total_elapsed`]).
    pub fn total_elapsed(&self) -> Nanoseconds {
        self.chip.total_elapsed()
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
        for k in 0..self.layer_count() {
            let (out, inp) = self.layer_dims(k);
            let w = self.layer_weights(k);
            let mut h = vec![0.0; out];
            for i in 0..out {
                for j in 0..inp {
                    h[i] += w[i * inp + j] * y[j];
                }
            }
            let tail = k + 1 == self.layer_count();
            y = if tail { h } else { h.into_iter().map(gst_activation).collect() };
        }
        y
    }
}

/// Softmax cross-entropy loss and gradient for one sample (f64) — the
/// electronic output error every photonic training path starts from.
fn softmax_grad(logits: &[f64], label: usize) -> (f64, Vec<f64>) {
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

/// `ShapeMismatch` unless `xs` and `labels` pair up one to one and every
/// input is `width` wide, `InvalidParameter` on an empty set,
/// `LabelOutOfRange` unless every label names one of `classes`: the check
/// every engine runs on a labelled set before touching its chip.
pub(crate) fn check_set<S: AsRef<[f64]>>(
    xs: &[S],
    labels: &[usize],
    width: usize,
    classes: usize,
) -> Result<(), ArchError> {
    if xs.len() != labels.len() {
        return Err(ArchError::ShapeMismatch { expected: xs.len(), got: labels.len() });
    }
    if xs.is_empty() {
        return Err(ArchError::InvalidParameter {
            name: "samples",
            value: 0,
            expected: "at least 1",
        });
    }
    check_widths(xs, width)?;
    match labels.iter().find(|&&label| label >= classes) {
        Some(&label) => Err(ArchError::LabelOutOfRange { label, classes }),
        None => Ok(()),
    }
}

/// `ShapeMismatch` unless every input is `width` wide.
pub(crate) fn check_widths<S: AsRef<[f64]>>(inputs: &[S], width: usize) -> Result<(), ArchError> {
    match inputs.iter().map(|x| x.as_ref().len()).find(|&got| got != width) {
        Some(got) => Err(ArchError::ShapeMismatch { expected: width, got }),
        None => Ok(()),
    }
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
fn quantize(w: f64, bits: u8) -> f64 {
    let levels = (1u32 << bits) - 1;
    let step = 2.0 / f64::from(levels - 1);
    (w.clamp(-1.0, 1.0) / step).round() * step
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
        assert!(engine.chip().pe_count() > 3 * 2, "tiling must allocate PEs");
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
        // The walk's steps: W1ᵀ δ on the chip, then the spilled f'(h0).
        let mut photonic = vec![delta.clone()];
        engine.chip.gradient_vectors(1, &engine.weights[1], &mut photonic);
        let h0 = engine.tape[0].logits.clone();
        let photonic: Vec<f64> =
            photonic[0].iter().zip(&h0).map(|(&v, &h)| spilled_hadamard(v, h)).collect();
        // Math: (W1ᵀ δ) ⊙ f'(h0).
        let (out, inp) = engine.layer_dims(1);
        let w = engine.layer_weights(1).to_vec();
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
        let delta = [0.5, -1.0];
        let y = engine.tape[1].input.clone();
        let mut grad = vec![0.0; engine.weights[1].len()];
        engine.chip.grids[1].outer_product(&delta, &y, 1.0, &mut grad);
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
    fn unpaired_accuracy_set_is_a_shape_error() {
        let mut engine = mlp(&[4, 3], 1);
        let energy = engine.total_energy();
        let xs = vec![vec![1.0, 0.0, 1.0, 0.0]; 10];
        assert!(matches!(
            engine.accuracy(&xs, &[0, 1, 2]),
            Err(ArchError::ShapeMismatch { expected: 10, got: 3 })
        ));
        assert_eq!(engine.total_energy(), energy, "a rejected set must not touch the chip");
    }

    #[test]
    fn empty_sets_are_typed_errors() {
        let mut engine = mlp(&[4, 3], 1);
        let empty = |r: Result<_, ArchError>| {
            matches!(r, Err(ArchError::InvalidParameter { name: "samples", value: 0, .. }))
        };
        assert!(empty(engine.accuracy(&[], &[])), "accuracy");
        assert!(empty(engine.try_train(&[], &[], 0.1, 1).map(|o| o.final_accuracy)), "train");
        let batched = engine.try_train_batched(&[], &[], 0.1, 1, 4);
        assert!(empty(batched.map(|o| o.final_accuracy)), "batched");
    }

    #[test]
    fn batch_of_one_is_per_sample_training_bit_for_bit() {
        let xs = batch_inputs(6, 40);
        let labels = [0, 3, 1, 2, 3, 0];
        let opts = EngineOptions { seed: 23, noise_seed: Some(7), ..Default::default() };
        // 0: batches of one, 1: try_train, 2: a try_train_sample loop.
        let run = |entry: u8| {
            let mut engine = PhotonicMlp::try_with_options(&[40, 20, 4], opts).unwrap();
            let losses = match entry {
                0 => engine.try_train_batched(&xs, &labels, 0.2, 2, 1).unwrap().loss_history,
                1 => engine.try_train(&xs, &labels, 0.2, 2).unwrap().loss_history,
                _ => {
                    let losses = (0..2)
                        .map(|_| {
                            let steps = xs.iter().zip(&labels);
                            let total: f64 = steps
                                .map(|(x, &l)| engine.try_train_sample(x, l, 0.2).unwrap())
                                .fold(0.0, |acc, l| acc + l);
                            total / xs.len() as f64
                        })
                        .collect();
                    engine.accuracy(&xs, &labels).unwrap();
                    losses
                }
            };
            let weights: Vec<u64> =
                engine.snapshot_weights().iter().flatten().map(|w| w.to_bits()).collect();
            let losses: Vec<u64> = losses.iter().map(|l| l.to_bits()).collect();
            let ledgers = [engine.total_energy().value(), engine.total_elapsed().value()];
            (weights, losses, ledgers.map(f64::to_bits))
        };
        let batched = run(0);
        assert_eq!(batched, run(1));
        assert_eq!(batched, run(2));
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
        let logits = |e: &PhotonicMlp| e.tape.iter().map(|t| bits(&t.logits)).collect::<Vec<_>>();
        assert_eq!(logits(&sequential), logits(&batched));
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
