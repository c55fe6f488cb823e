//! Transformer blocks on the photonic fabric (DESIGN.md §16).
//!
//! [`PhotonicTransformer`] runs pre-norm transformer encoder/decoder
//! blocks with every GEMM lowered onto tiled PCM-MRR weight banks
//! (`TileGemm` grids), the way [`crate::engine::PhotonicMlp`] lowers
//! dense layers:
//!
//! * **Static MVMs** — QKV projections, the attention output projection,
//!   the two FFN GEMMs and the classifier/vocabulary head are programmed
//!   once at construction and streamed per token (weight-stationary).
//! * **Dynamic MVMs** — the attention core runs *in memory*: each
//!   token's key row and value column are programmed into per-head PCM
//!   banks at decode time, after which the score MVM (`K·q`) and the
//!   context MVM (`Vᵀ·probs`) read the whole cached prefix optically.
//!   The banks **are** the KV-cache; incremental decode programs one
//!   row/column band per token while a full recompute reprograms
//!   everything — the energy gap `workload::kv` quantifies.
//! * **Digital LDSU ops** — softmax, LayerNorm, residual adds and the
//!   mean-pool head run on the digital load/store unit (`Ldsu`), one
//!   ledger of typed energy/time charges (`EnergyPj` / [`Nanoseconds`])
//!   plus obs counters (`ldsu_softmax_rows`, `ldsu_layer_norm_rows`,
//!   `kv_cache_*`).
//!
//! ## One block schedule
//!
//! Every path streams tokens through one two-phase block step over one
//! `DecodeScratch`: `block_in` (LN1, Q/K/V, K/V append at position
//! `t`) and `block_out` (attention over cache rows `0..limit`, `wo` and
//! residual, LN2, FFN and residual). Decode and causal prefill run the
//! two phases back to back per token with `limit = t + 1`; the encoder
//! runs `block_in` over the whole sequence first, then `block_out` with
//! the full window.
//!
//! ## Determinism contract
//!
//! Per-row/per-column cache scales are fixed at write time and cell
//! programming is history-free (re-writing an unchanged weight is a
//! no-op), so token-by-token decode with the cache is **bitwise
//! identical** to a fresh full-sequence recompute at every step —
//! `tests/kv_cache_invariants.rs` pins this. The straight-line `f64`
//! digital twins ([`PhotonicTransformer::digital_forward_classify`] /
//! [`PhotonicTransformer::digital_forward_causal`]) bound the photonic
//! outputs within the bank's ENOB, exactly as `tests/photonic_vs_float.rs`
//! does for the MLP engine.

use crate::chip::{Chip, Ldsu};
use crate::config::CLOCK_HZ;
use crate::engine::{grow_slots, refill, reserve_slots};
use crate::error::ArchError;
use crate::pe::gst_activation;
use crate::tile::{PeSpec, TileGemm, TILE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trident_obs as obs;
use trident_pcm::stat::StatParams;
use trident_photonics::ledger::EnergyLedger;
use trident_photonics::units::{EnergyPj, Nanoseconds};

/// LayerNorm variance floor.
const LN_EPS: f64 = 1e-5;

/// LDSU softmax cost per element (exp + normalise, lookup-assisted).
const LDSU_SOFTMAX_PJ_PER_ELEM: f64 = 0.05;

/// LDSU LayerNorm cost per element (two digital passes + affine).
const LDSU_LAYERNORM_PJ_PER_ELEM: f64 = 0.03;

/// LDSU residual-add cost per element.
const LDSU_RESIDUAL_PJ_PER_ELEM: f64 = 0.01;

/// Floor for write-time cache scales, mirroring the engine's AGC floor.
const SCALE_FLOOR: f64 = 1e-12;

/// Geometry and device options for one photonic transformer.
#[derive(Debug, Clone)]
pub struct TransformerConfig {
    /// Model width (`c` in the workload IR's token shape).
    pub d_model: usize,
    /// Attention heads; must divide `d_model`.
    pub heads: usize,
    /// Transformer blocks.
    pub depth: usize,
    /// FFN hidden width.
    pub d_ff: usize,
    /// Maximum sequence length (KV bank rows per head).
    pub max_seq: usize,
    /// Output width: classes (ViT head) or vocabulary (decoder head).
    pub out_dim: usize,
    /// Causal (decoder) masking; also gates KV-cache traffic billing.
    pub causal: bool,
    /// Weight-initialisation seed.
    pub seed: u64,
    /// Optional PCM statistical layer, applied to every bank.
    pub stat: Option<StatParams>,
}

impl TransformerConfig {
    /// A ViT-style encoder sized for the functional simulator: 8 tokens
    /// of width 16, two blocks, two heads, 10-class mean-pool head.
    pub fn tiny_vit() -> Self {
        Self {
            d_model: 16,
            heads: 2,
            depth: 2,
            d_ff: 32,
            max_seq: 8,
            out_dim: 10,
            causal: false,
            seed: 0x7e51,
            stat: None,
        }
    }

    /// A GPT-style causal decoder sized for the functional simulator:
    /// 8-token context, width 16, two blocks, 24-entry vocabulary.
    pub fn tiny_gpt() -> Self {
        Self {
            d_model: 16,
            heads: 2,
            depth: 2,
            d_ff: 32,
            max_seq: 8,
            out_dim: 24,
            causal: true,
            seed: 0x9d37,
            stat: None,
        }
    }

    /// Flat input width of one full-sequence forward
    /// (`max_seq · d_model` — tokens row-major).
    pub fn input_width(&self) -> usize {
        self.max_seq * self.d_model
    }

    /// The first field outside its range, as a typed error naming it.
    fn validate(&self) -> Result<(), ArchError> {
        let heads_ok = self.heads > 0 && self.d_model.is_multiple_of(self.heads);
        let checks = [
            ("d_model", self.d_model, self.d_model > 0, "at least 1"),
            ("heads", self.heads, heads_ok, "a nonzero divisor of d_model"),
            ("depth", self.depth, self.depth > 0, "at least 1"),
            ("d_ff", self.d_ff, self.d_ff > 0, "at least 1"),
            ("max_seq", self.max_seq, self.max_seq > 0, "at least 1"),
            ("out_dim", self.out_dim, self.out_dim > 0, "at least 1"),
        ];
        match checks.into_iter().find(|&(_, _, ok, _)| !ok) {
            Some((name, value, _, expected)) => {
                Err(ArchError::InvalidParameter { name, value, expected })
            }
            None => Ok(()),
        }
    }
}

/// Largest magnitude in `xs`, floored so it can divide.
fn max_abs(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(SCALE_FLOOR)
}

/// A static weight matrix on chip grid `grid`: programmed once from the
/// max-abs-normalised weights, with that global magnitude restored after
/// detection. `raw` keeps the unquantized weights for the digital twin.
#[derive(Debug)]
struct Projection {
    grid: usize,
    in_dim: usize,
    scale: f64,
    raw: Vec<f64>,
}

impl Projection {
    /// Draw `±√(1/fan_in)` uniform weights (well inside the bank's
    /// `[-1, 1]` range) for `gemm`'s shape, normalise them by their max
    /// magnitude so the banks see the full LUT range, program every
    /// tile, remember the restore scale, and add `gemm` to `chip`.
    fn init(rng: &mut StdRng, chip: &mut Chip, mut gemm: TileGemm) -> Self {
        let (out_dim, in_dim) = gemm.dims();
        let bound = (1.0 / in_dim as f64).sqrt();
        let raw: Vec<f64> = (0..out_dim * in_dim).map(|_| rng.gen_range(-bound..bound)).collect();
        let scale = max_abs(&raw);
        let logical: Vec<f64> = raw.iter().map(|&w| (w / scale).clamp(-1.0, 1.0)).collect();
        gemm.program(&logical);
        Self { grid: chip.push(gemm), in_dim, scale, raw }
    }

    /// `y = W·x`: the billed signed MVM, then the global scale restored.
    fn gemv(&self, chip: &mut Chip, x: &[f64], y: &mut [f64]) {
        chip.gemm_signed(self.grid, x, y);
        if self.scale.to_bits() != 1.0f64.to_bits() {
            for v in y.iter_mut() {
                *v *= self.scale;
            }
        }
    }

    /// Straight-line f64 `W·x` over the raw weights (digital twin).
    fn exact(&self, x: &[f64]) -> Vec<f64> {
        let dot = |row: &[f64]| row.iter().zip(x).map(|(&a, &b)| a * b).sum();
        self.raw.chunks(self.in_dim).map(dot).collect()
    }
}

/// A LayerNorm's affine parameters.
#[derive(Debug)]
struct Norm {
    gamma: Vec<f64>,
    beta: Vec<f64>,
}

impl Norm {
    /// Identity affine (`γ = 1`, `β = 0`) over `d` features.
    fn unit(d: usize) -> Self {
        Self { gamma: vec![1.0; d], beta: vec![0.0; d] }
    }

    /// Row LayerNorm (f64) of `x` into `out`: population mean/variance,
    /// then the affine `γ`/`β`.
    fn apply(&self, x: &[f64], out: &mut [f64]) {
        let n = x.len() as f64;
        let mut mean = 0.0;
        for &v in x {
            mean += v;
        }
        mean /= n;
        let mut var = 0.0;
        for &v in x {
            let d = v - mean;
            var += d * d;
        }
        var /= n;
        let inv_std = 1.0 / (var + LN_EPS).sqrt();
        for (j, (o, &v)) in out.iter_mut().zip(x).enumerate() {
            *o = (v - mean) * inv_std * self.gamma[j] + self.beta[j];
        }
    }

    /// [`Norm::apply`] into a fresh vector (digital twin).
    fn exact(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        self.apply(x, &mut out);
        out
    }
}

/// The chip's load/store units run the transformer's digital ops: each
/// charge bills energy per element and one clock cycle per element.
impl Ldsu {
    fn charge(&mut self, what: &'static str, elems: usize, pj_per_elem: f64) {
        let n = elems as f64;
        self.energy.charge(what, EnergyPj(pj_per_elem * n));
        self.elapsed += Nanoseconds(1e9 / CLOCK_HZ * n);
    }

    /// Softmax over `row`, billed per element.
    fn softmax(&mut self, row: &mut [f64]) {
        softmax64(row);
        self.charge("ldsu softmax", row.len(), LDSU_SOFTMAX_PJ_PER_ELEM);
        obs::add(obs::Counter::LdsuSoftmaxRows, 1);
    }

    /// LayerNorm of `x` into `out`, billed per element.
    fn layer_norm(&mut self, x: &[f64], norm: &Norm, out: &mut [f64]) {
        norm.apply(x, out);
        self.charge("ldsu layernorm", x.len(), LDSU_LAYERNORM_PJ_PER_ELEM);
        obs::add(obs::Counter::LdsuLayerNormRows, 1);
    }

    /// Residual add `acc += delta`, billed per element.
    fn residual(&mut self, acc: &mut [f64], delta: &[f64]) {
        for (a, &v) in acc.iter_mut().zip(delta) {
            *a += v;
        }
        self.charge("ldsu residual", acc.len(), LDSU_RESIDUAL_PJ_PER_ELEM);
    }
}

/// Per-head KV banks: the grids of K rows (`max_seq × d_head`) and Vᵀ
/// columns (`d_head × max_seq`), the normalised matrices they mirror, and
/// the write-time scales that restore row/column magnitudes after detection.
#[derive(Debug)]
struct HeadKv {
    k: usize,
    v: usize,
    k_logical: Vec<f64>,
    v_logical: Vec<f64>,
    k_scale: Vec<f64>,
    v_scale: Vec<f64>,
}

impl HeadKv {
    /// Append one token's K row and V column at position `t` to the
    /// normalised matrices, fixing the write-time scales. Once the
    /// caller has programmed a touched band, only the token's own row and
    /// column change; every other cell of those tiles hits its bank's
    /// write memo and costs neither a pulse nor a LUT search.
    fn append(&mut self, t: usize, k: &[f64], v: &[f64]) {
        let (max_seq, d_head) = (self.k_scale.len(), k.len());
        let (k_max, v_max) = (max_abs(k), max_abs(v));
        self.k_scale[t] = k_max;
        self.v_scale[t] = v_max;
        for (j, &x) in k.iter().enumerate() {
            self.k_logical[t * d_head + j] = (x / k_max).clamp(-1.0, 1.0);
        }
        for (r, &x) in v.iter().enumerate() {
            self.v_logical[r * max_seq + t] = (x / v_max).clamp(-1.0, 1.0);
        }
    }

    /// One head's attention for query `q` over cache rows `0..limit`:
    /// score MVM through the K bank, LDSU softmax, context MVM through
    /// the Vᵀ bank into `ctx`. `scores` and `vin` are `max_seq` wide.
    fn attend(
        &self,
        chip: &mut Chip,
        q: &[f64],
        limit: usize,
        scores: &mut [f64],
        vin: &mut [f64],
        ctx: &mut [f64],
    ) {
        let inv_sqrt = 1.0 / (q.len() as f64).sqrt();
        // Score MVM: every cached K row dotted with q in one pass.
        chip.gemm_signed(self.k, q, scores);
        for (j, s) in scores.iter_mut().enumerate().take(limit) {
            *s = *s * self.k_scale[j] * inv_sqrt;
        }
        chip.ldsu.softmax(&mut scores[..limit]);
        // Context MVM: probabilities (re-scaled per column) stream
        // through the Vᵀ bank; masked positions carry exactly zero.
        vin.fill(0.0);
        for j in 0..limit {
            vin[j] = scores[j] * self.v_scale[j];
        }
        chip.gemm_signed(self.v, vin, ctx);
    }
}

/// One pre-norm transformer block's device state.
#[derive(Debug)]
struct Block {
    ln1: Norm,
    wq: Projection,
    wk: Projection,
    wv: Projection,
    kv: Vec<HeadKv>,
    wo: Projection,
    ln2: Norm,
    w1: Projection,
    w2: Projection,
}

/// Final LayerNorm + classifier/vocabulary head.
#[derive(Debug)]
struct Readout {
    norm: Norm,
    proj: Projection,
}

impl Readout {
    /// Logits of `x` through the banks, written into the emptied `out`;
    /// `normed` is `d_model` scratch.
    fn logits(&self, chip: &mut Chip, x: &[f64], normed: &mut [f64], out: &mut Vec<f64>) {
        chip.ldsu.layer_norm(x, &self.norm, normed);
        out.resize(self.proj.raw.len() / self.proj.in_dim, 0.0);
        self.proj.gemv(chip, normed, out);
    }

    /// Digital twin of [`Readout::logits`].
    fn exact(&self, x: &[f64]) -> Vec<f64> {
        self.proj.exact(&self.norm.exact(x))
    }
}

/// A transformer encoder/decoder running on simulated photonic hardware.
#[derive(Debug)]
pub struct PhotonicTransformer {
    cfg: TransformerConfig,
    /// Every grid in construction order, and the digital side.
    chip: Chip,
    blocks: Vec<Block>,
    head: Readout,
    /// Cached tokens (decode mode) / tokens of the current sequence.
    cache_len: usize,
    kv_writes: u64,
    kv_reads: u64,
    /// Working buffers of every forward path (see [`DecodeScratch`]).
    scratch: DecodeScratch,
    /// Per-sample logits of the latest [`PhotonicTransformer::try_forward_batch`].
    outputs: Vec<Vec<f64>>,
    /// Growth events on `outputs` since construction.
    heap_allocs: u64,
}

/// The working buffers of every path — decode, causal prefill and the
/// encoder — sized once at construction and reused (DESIGN.md §15): the
/// batched classifier writes its logits into reused output slots, and
/// decode allocates only the logits it returns. Token `t`'s hidden state
/// and query live in row `t` of `hidden` and `queries`: decode writes its
/// token into row `t`, a prefill copies the whole sequence in.
#[derive(Debug)]
struct DecodeScratch {
    /// Running hidden states, `max_seq` rows of `d_model`.
    hidden: Vec<f64>,
    /// Query projections, `max_seq` rows of `d_model`.
    queries: Vec<f64>,
    /// LayerNorm output feeding the projections / FFN / head (`d_model`).
    normed: Vec<f64>,
    /// The token's key and value projections (`d_model` wide each).
    k: Vec<f64>,
    v: Vec<f64>,
    /// Concatenated head contexts (`d_model` wide).
    attn: Vec<f64>,
    /// Sublayer output added to the residual stream (`d_model` wide).
    delta: Vec<f64>,
    /// Attention score row (`max_seq` wide).
    scores: Vec<f64>,
    /// Re-scaled probability inputs to the Vᵀ bank (`max_seq` wide).
    vin: Vec<f64>,
    /// FFN pre-activation (`d_ff` wide).
    h1: Vec<f64>,
    /// FFN post-activation (`d_ff` wide).
    act: Vec<f64>,
    /// Mean-pooled hidden state (`d_model` wide).
    pooled: Vec<f64>,
}

impl DecodeScratch {
    fn new(cfg: &TransformerConfig) -> Self {
        let (d, rows) = (cfg.d_model, cfg.max_seq);
        Self {
            hidden: vec![0.0; rows * d],
            queries: vec![0.0; rows * d],
            normed: vec![0.0; d],
            k: vec![0.0; d],
            v: vec![0.0; d],
            attn: vec![0.0; d],
            delta: vec![0.0; d],
            scores: vec![0.0; rows],
            vin: vec![0.0; rows],
            h1: vec![0.0; cfg.d_ff],
            act: vec![0.0; cfg.d_ff],
            pooled: vec![0.0; d],
        }
    }
}

/// Safe softmax in place (f64): subtract max, exponentiate, one
/// reciprocal multiply — the digital LDSU op, shared verbatim by the
/// photonic path and the digital twins.
fn softmax64(row: &mut [f64]) {
    if row.is_empty() {
        return;
    }
    let mut max = f64::NEG_INFINITY;
    for &v in row.iter() {
        if v > max {
            max = v;
        }
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Mean of the `d`-wide token rows of `hidden` into `out` — the
/// classifier's pooling, shared by the photonic path and the twin.
fn mean_pool(hidden: &[f64], d: usize, out: &mut [f64]) {
    let inv = 1.0 / (hidden.len() / d) as f64;
    out.fill(0.0);
    for tok in hidden.chunks(d) {
        for (p, &v) in out.iter_mut().zip(tok) {
            *p += v;
        }
    }
    for p in out.iter_mut() {
        *p *= inv;
    }
}

impl PhotonicTransformer {
    /// Build and program a transformer from seeded weights.
    pub fn try_new(cfg: TransformerConfig) -> Result<Self, ArchError> {
        cfg.validate()?;
        let d = cfg.d_model;
        let d_head = d / cfg.heads;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Every bank takes the next sequential identity, whether or not
        // the statistical layer is on: its device identity and its
        // statistical seed.
        let mut identity = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let stat = cfg.stat;
        let mut chip = Chip::new(Vec::new());
        let mut grid = |out_dim: usize, in_dim: usize| {
            TileGemm::with_pes(out_dim, in_dim, |_| {
                let spec =
                    PeSpec { identity, stat: stat.map(|p| (p, identity)), ..PeSpec::default() };
                identity = identity.wrapping_add(1);
                spec
            })
        };
        let blocks = (0..cfg.depth)
            .map(|_| {
                // Weight draws and bank identities are independent
                // streams: draws run wq…w2, identities wq…w2 and then
                // each head's K and V bank.
                let wq = Projection::init(&mut rng, &mut chip, grid(d, d));
                let wk = Projection::init(&mut rng, &mut chip, grid(d, d));
                let wv = Projection::init(&mut rng, &mut chip, grid(d, d));
                let wo = Projection::init(&mut rng, &mut chip, grid(d, d));
                let w1 = Projection::init(&mut rng, &mut chip, grid(cfg.d_ff, d));
                let w2 = Projection::init(&mut rng, &mut chip, grid(d, cfg.d_ff));
                let kv = (0..cfg.heads)
                    .map(|_| HeadKv {
                        k: chip.push(grid(cfg.max_seq, d_head)),
                        v: chip.push(grid(d_head, cfg.max_seq)),
                        k_logical: vec![0.0; cfg.max_seq * d_head],
                        v_logical: vec![0.0; d_head * cfg.max_seq],
                        k_scale: vec![1.0; cfg.max_seq],
                        v_scale: vec![1.0; cfg.max_seq],
                    })
                    .collect();
                Block { ln1: Norm::unit(d), wq, wk, wv, kv, wo, ln2: Norm::unit(d), w1, w2 }
            })
            .collect();
        let proj = Projection::init(&mut rng, &mut chip, grid(cfg.out_dim, d));
        let head = Readout { norm: Norm::unit(d), proj };
        Ok(Self {
            scratch: DecodeScratch::new(&cfg),
            chip,
            cfg,
            blocks,
            head,
            cache_len: 0,
            kv_writes: 0,
            kv_reads: 0,
            outputs: Vec::new(),
            heap_allocs: 0,
        })
    }

    /// The configuration this instance was built from.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// Tokens currently cached (decode mode).
    pub fn cache_len(&self) -> usize {
        self.cache_len
    }

    /// KV-cache elements written so far (causal paths only).
    pub fn kv_cache_writes(&self) -> u64 {
        self.kv_writes
    }

    /// KV-cache elements read back through attention MVMs so far.
    pub fn kv_cache_reads(&self) -> u64 {
        self.kv_reads
    }

    /// The chip every grid runs on: faults, aging, drift, ring tallies.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// The chip, mutably.
    pub fn chip_mut(&mut self) -> &mut Chip {
        &mut self.chip
    }

    /// Forget the cached sequence. Bank contents are overwritten on the
    /// next append (history-free programming), so no erase pass is
    /// modelled or billed. Stale cells beyond the new frontier never
    /// affect *logical* attention values (masked probabilities are exact
    /// zeros), but they do keep sitting on the WDM bus, so the bank's
    /// sub-quantization inter-ring crosstalk makes a rerun
    /// tolerance-close rather than bitwise-equal to a pristine decoder
    /// — `tests/kv_cache_invariants.rs` pins both sides of this.
    pub fn reset_cache(&mut self) {
        self.cache_len = 0;
    }

    /// Total optical + digital energy since construction
    /// ([`Chip::total_energy`]).
    pub fn total_energy(&self) -> EnergyPj {
        self.chip.total_energy()
    }

    /// Total simulated time (sequential-tile upper bound) since
    /// construction ([`Chip::total_elapsed`]).
    pub fn total_elapsed(&self) -> Nanoseconds {
        self.chip.total_elapsed()
    }

    /// Itemised energy ledger ([`Chip::energy_ledger`]) across every PE
    /// plus the digital side.
    pub fn energy_ledger(&self) -> EnergyLedger {
        self.chip.energy_ledger()
    }

    /// Phase one of token `t` through block `b`: LN1, the Q/K/V
    /// projections (the query into row `t` of the query buffer), then the
    /// K/V append at position `t` — billed as KV-cache traffic when the
    /// model is causal.
    fn block_in(&mut self, b: usize, t: usize) {
        let d = self.cfg.d_model;
        let d_head = d / self.cfg.heads;
        let Self { chip, blocks, scratch: s, .. } = self;
        let block = &mut blocks[b];
        let row = t * d..(t + 1) * d;
        chip.ldsu.layer_norm(&s.hidden[row.clone()], &block.ln1, &mut s.normed);
        block.wq.gemv(chip, &s.normed, &mut s.queries[row]);
        block.wk.gemv(chip, &s.normed, &mut s.k);
        block.wv.gemv(chip, &s.normed, &mut s.v);
        let mut spent = EnergyPj::ZERO;
        let heads = s.k.chunks(d_head).zip(s.v.chunks(d_head));
        for (kv, (k, v)) in block.kv.iter_mut().zip(heads) {
            kv.append(t, k, v);
            spent += chip.grids[kv.k].program_row_band(&kv.k_logical, t / TILE);
            spent += chip.grids[kv.v].program_col_band(&kv.v_logical, t / TILE);
        }
        if self.cfg.causal {
            let elems = 2 * d as u64;
            self.kv_writes += elems;
            obs::add(obs::Counter::KvCacheWrites, elems);
            obs::add_pj(obs::Counter::KvCacheFj, spent.value());
        }
    }

    /// Phase two of token `t` through block `b`: multi-head attention
    /// over cache rows `0..limit`, `wo` and the residual add, then LN2,
    /// the FFN (`w1`, per-band photonic GST activation, `w2`) and its
    /// residual add.
    fn block_out(&mut self, b: usize, t: usize, limit: usize) {
        let d = self.cfg.d_model;
        let d_head = d / self.cfg.heads;
        let Self { chip, blocks, scratch: s, .. } = self;
        let block = &blocks[b];
        let row = t * d..(t + 1) * d;
        let heads = s.queries[row.clone()].chunks(d_head).zip(s.attn.chunks_mut(d_head));
        for (kv, (q, ctx)) in block.kv.iter().zip(heads) {
            kv.attend(chip, q, limit, &mut s.scores, &mut s.vin, ctx);
        }
        block.wo.gemv(chip, &s.attn, &mut s.delta);
        let hidden = &mut s.hidden[row];
        chip.ldsu.residual(hidden, &s.delta);
        chip.ldsu.layer_norm(hidden, &block.ln2, &mut s.normed);
        block.w1.gemv(chip, &s.normed, &mut s.h1);
        chip.grids[block.w1.grid].activate_rows(&s.h1, &mut s.act);
        block.w2.gemv(chip, &s.act, &mut s.delta);
        chip.ldsu.residual(hidden, &s.delta);
        if self.cfg.causal {
            let reads = 2 * d as u64 * limit as u64;
            self.kv_reads += reads;
            obs::add(obs::Counter::KvCacheReads, reads);
        }
    }

    /// Token count of a flat `seq × d_model` input, `1 ≤ seq ≤ max_seq`.
    fn check_seq(&self, len: usize) -> Result<usize, ArchError> {
        let d = self.cfg.d_model;
        if len == 0 || !len.is_multiple_of(d) || len / d > self.cfg.max_seq {
            return Err(ArchError::ShapeMismatch { expected: self.cfg.input_width(), got: len });
        }
        Ok(len / d)
    }

    /// Full-sequence forward over `x` (flat `seq × d_model`, its length
    /// already passed by `check_seq`), layer-major like a prefill: the
    /// tokens are copied into the hidden rows, then each block runs over
    /// all of them. Causal models run each token's two phases back to
    /// back — the decode schedule — while an encoder banks the whole
    /// sequence's K/V before any query attends. Leaves the sequence
    /// cached and returns its length.
    fn prefill(&mut self, x: &[f64]) -> usize {
        let seq = x.len() / self.cfg.d_model;
        self.scratch.hidden[..x.len()].copy_from_slice(x);
        for b in 0..self.blocks.len() {
            if self.cfg.causal {
                for t in 0..seq {
                    self.block_in(b, t);
                    self.block_out(b, t, t + 1);
                }
            } else {
                for t in 0..seq {
                    self.block_in(b, t);
                }
                for t in 0..seq {
                    self.block_out(b, t, seq);
                }
            }
        }
        self.cache_len = seq;
        seq
    }

    /// Classifier forward (the ViT serving path): full-sequence encode,
    /// digital mean-pool, head MVM → `out_dim` logits. The same sweep as
    /// a one-sample [`PhotonicTransformer::try_forward_batch`].
    pub fn try_forward_classify(&mut self, x: &[f64]) -> Result<Vec<f64>, ArchError> {
        Ok(self.try_forward_batch(&[x])?[0].clone())
    }

    /// Per-position logits of a causal full-sequence forward — the
    /// recompute reference the KV invariant tests compare decode against.
    pub fn try_forward_causal(&mut self, x: &[f64]) -> Result<Vec<Vec<f64>>, ArchError> {
        if !self.cfg.causal {
            return Err(ArchError::InvalidParameter {
                name: "causal",
                value: 0,
                expected: "a causal decoder (per-position logits)",
            });
        }
        self.check_seq(x.len())?;
        let seq = self.prefill(x);
        let d = self.cfg.d_model;
        let Self { chip, head, scratch: s, .. } = self;
        let logits = |tok| {
            let mut out = Vec::new();
            head.logits(chip, tok, &mut s.normed, &mut out);
            out
        };
        Ok(s.hidden[..seq * d].chunks(d).map(logits).collect())
    }

    /// Decode one token through the KV-cache path: appends the token's
    /// K/V to every block's banks (one row/column band program each) and
    /// returns its `out_dim` logits. Errors when the context is full.
    pub fn try_decode_token(&mut self, x: &[f64]) -> Result<Vec<f64>, ArchError> {
        let d = self.cfg.d_model;
        if x.len() != d {
            return Err(ArchError::ShapeMismatch { expected: d, got: x.len() });
        }
        let t = self.cache_len;
        if t >= self.cfg.max_seq {
            return Err(ArchError::ShapeMismatch { expected: self.cfg.max_seq, got: t + 1 });
        }
        let row = t * d..(t + 1) * d;
        self.scratch.hidden[row.clone()].copy_from_slice(x);
        for b in 0..self.blocks.len() {
            self.block_in(b, t);
            self.block_out(b, t, t + 1);
        }
        self.cache_len = t + 1;
        let Self { chip, head, scratch: s, .. } = self;
        let mut logits = Vec::new();
        head.logits(chip, &s.hidden[row], &mut s.normed, &mut logits);
        Ok(logits)
    }

    /// Batched classifier forward for the serving fleet: each request's
    /// full-sequence encode, digital mean-pool and head MVM, the logits
    /// written into reused per-sample output slots. Every request's
    /// shape is checked before the first runs. Returns per-sample logits
    /// in input order; the slice is valid until the next forward.
    pub fn try_forward_batch(
        &mut self,
        batch: &[impl AsRef<[f64]>],
    ) -> Result<&[Vec<f64>], ArchError> {
        for x in batch {
            self.check_seq(x.as_ref().len())?;
        }
        let n = batch.len();
        let d = self.cfg.d_model;
        let mut outputs = std::mem::take(&mut self.outputs);
        grow_slots(&mut outputs, n, &mut self.heap_allocs);
        for (slot, x) in outputs.iter_mut().zip(batch) {
            let seq = self.prefill(x.as_ref());
            let Self { chip, head, scratch: s, heap_allocs, .. } = self;
            mean_pool(&s.hidden[..seq * d], d, &mut s.pooled);
            chip.ldsu.charge("ldsu residual", d, LDSU_RESIDUAL_PJ_PER_ELEM);
            refill(slot, heap_allocs, |out| head.logits(chip, &s.pooled, &mut s.normed, out));
        }
        self.outputs = outputs;
        Ok(&self.outputs[..n])
    }

    /// Pre-grow `batch` per-sample output slots to `out_dim`, so warm
    /// batched forwards perform no engine-side heap allocation. Growth
    /// here is warm-up, not counted in
    /// [`PhotonicTransformer::hot_path_allocs`].
    pub fn reserve_forward_scratch(&mut self, batch: usize) {
        reserve_slots(&mut self.outputs, batch, self.cfg.out_dim);
    }

    /// Output-slot growth events since construction.
    pub fn hot_path_allocs(&self) -> u64 {
        self.heap_allocs
    }

    // ---- digital twins -------------------------------------------------

    /// Straight-line f64 forward of one token sequence over the raw
    /// (unquantized) weights, returned as flat `seq × d_model` hidden
    /// states. Same schedule, same LDSU formulas; only the MVMs differ
    /// (exact f64 instead of banked optics).
    fn digital_hidden(&self, x: &[f64]) -> Result<Vec<f64>, ArchError> {
        let seq = self.check_seq(x.len())?;
        let d = self.cfg.d_model;
        let d_head = d / self.cfg.heads;
        let inv_sqrt = 1.0 / (d_head as f64).sqrt();
        let mut hidden = x.to_vec();
        for block in &self.blocks {
            let normed: Vec<Vec<f64>> = hidden.chunks(d).map(|tok| block.ln1.exact(tok)).collect();
            let q: Vec<Vec<f64>> = normed.iter().map(|n| block.wq.exact(n)).collect();
            let k: Vec<Vec<f64>> = normed.iter().map(|n| block.wk.exact(n)).collect();
            let v: Vec<Vec<f64>> = normed.iter().map(|n| block.wv.exact(n)).collect();
            for (t, tok) in hidden.chunks_mut(d).enumerate() {
                let limit = if self.cfg.causal { t + 1 } else { seq };
                let mut concat = vec![0.0f64; d];
                for h in 0..self.cfg.heads {
                    let span = h * d_head..(h + 1) * d_head;
                    let mut scores: Vec<f64> = (0..limit)
                        .map(|j| {
                            k[j][span.clone()]
                                .iter()
                                .zip(&q[t][span.clone()])
                                .map(|(&a, &b)| a * b)
                                .sum::<f64>()
                                * inv_sqrt
                        })
                        .collect();
                    softmax64(&mut scores);
                    for (j, &p) in scores.iter().enumerate() {
                        for (c, ctx) in concat[span.clone()].iter_mut().enumerate() {
                            *ctx += p * v[j][h * d_head + c];
                        }
                    }
                }
                for (hv, &p) in tok.iter_mut().zip(&block.wo.exact(&concat)) {
                    *hv += p;
                }
                let h1 = block.w1.exact(&block.ln2.exact(tok));
                let act: Vec<f64> = h1.into_iter().map(gst_activation).collect();
                for (hv, &p) in tok.iter_mut().zip(&block.w2.exact(&act)) {
                    *hv += p;
                }
            }
        }
        Ok(hidden)
    }

    /// Digital twin of [`PhotonicTransformer::try_forward_classify`].
    pub fn digital_forward_classify(&self, x: &[f64]) -> Result<Vec<f64>, ArchError> {
        let hidden = self.digital_hidden(x)?;
        let mut pooled = vec![0.0f64; self.cfg.d_model];
        mean_pool(&hidden, self.cfg.d_model, &mut pooled);
        Ok(self.head.exact(&pooled))
    }

    /// Digital twin of [`PhotonicTransformer::try_forward_causal`].
    pub fn digital_forward_causal(&self, x: &[f64]) -> Result<Vec<Vec<f64>>, ArchError> {
        let hidden = self.digital_hidden(x)?;
        Ok(hidden.chunks(self.cfg.d_model).map(|tok| self.head.exact(tok)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_input(cfg: &TransformerConfig, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..cfg.input_width()).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn classify_produces_logits_and_bills_energy() {
        let cfg = TransformerConfig::tiny_vit();
        let mut tx = PhotonicTransformer::try_new(cfg.clone()).unwrap();
        let x = seq_input(&cfg, 1);
        let logits = tx.try_forward_classify(&x).unwrap();
        assert_eq!(logits.len(), cfg.out_dim);
        assert!(logits.iter().all(|v| v.is_finite()));
        assert!(tx.total_energy().value() > 0.0);
        assert!(tx.total_elapsed().value() > 0.0);
        let ledger = tx.energy_ledger();
        assert!(ledger.get("ldsu softmax").value() > 0.0);
        assert!(ledger.get("ldsu layernorm").value() > 0.0);
    }

    #[test]
    fn classify_is_repeatable() {
        let cfg = TransformerConfig::tiny_vit();
        let mut tx = PhotonicTransformer::try_new(cfg.clone()).unwrap();
        let x = seq_input(&cfg, 2);
        let a = tx.try_forward_classify(&x).unwrap();
        let b = tx.try_forward_classify(&x).unwrap();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn decode_fills_and_rejects_past_capacity() {
        let cfg = TransformerConfig::tiny_gpt();
        let mut tx = PhotonicTransformer::try_new(cfg.clone()).unwrap();
        let tok = vec![0.1; cfg.d_model];
        for t in 0..cfg.max_seq {
            assert_eq!(tx.cache_len(), t);
            let logits = tx.try_decode_token(&tok).unwrap();
            assert_eq!(logits.len(), cfg.out_dim);
        }
        assert!(tx.try_decode_token(&tok).is_err());
        tx.reset_cache();
        assert_eq!(tx.cache_len(), 0);
        assert!(tx.try_decode_token(&tok).is_ok());
    }

    #[test]
    fn kv_counters_follow_closed_form() {
        let cfg = TransformerConfig::tiny_gpt();
        let mut tx = PhotonicTransformer::try_new(cfg.clone()).unwrap();
        let tok = vec![0.2; cfg.d_model];
        let per_tok_writes = (cfg.depth * 2 * cfg.d_model) as u64;
        let mut expect_reads = 0u64;
        for t in 1..=4u64 {
            tx.try_decode_token(&tok).unwrap();
            expect_reads += t * (cfg.depth * 2 * cfg.d_model) as u64;
            assert_eq!(tx.kv_cache_writes(), t * per_tok_writes);
            assert_eq!(tx.kv_cache_reads(), expect_reads);
        }
    }

    #[test]
    fn bad_shapes_are_typed_errors() {
        let cfg = TransformerConfig::tiny_vit();
        let mut tx = PhotonicTransformer::try_new(cfg).unwrap();
        assert!(tx.try_forward_classify(&[0.0; 7]).is_err());
        let mut bad = TransformerConfig::tiny_vit();
        bad.heads = 3; // 16 % 3 != 0
        assert!(PhotonicTransformer::try_new(bad).is_err());
        // Each bad field is named, not reported as a shape mismatch.
        let field = |edit: fn(&mut TransformerConfig)| {
            let mut cfg = TransformerConfig::tiny_vit();
            edit(&mut cfg);
            match PhotonicTransformer::try_new(cfg).err() {
                Some(ArchError::InvalidParameter { name, .. }) => name,
                other => panic!("expected InvalidParameter, got {other:?}"),
            }
        };
        assert_eq!(field(|c| c.depth = 0), "depth");
        assert_eq!(field(|c| c.d_ff = 0), "d_ff");
        assert_eq!(field(|c| c.heads = 3), "heads");
        let x = seq_input(tx.config(), 4);
        assert!(matches!(
            tx.try_forward_causal(&x),
            Err(ArchError::InvalidParameter { name: "causal", .. })
        ));
    }

    #[test]
    fn digital_twin_tracks_photonic_classify() {
        let cfg = TransformerConfig::tiny_vit();
        let mut tx = PhotonicTransformer::try_new(cfg.clone()).unwrap();
        let x = seq_input(&cfg, 3);
        let photonic = tx.try_forward_classify(&x).unwrap();
        let digital = tx.digital_forward_classify(&x).unwrap();
        // LUT quantisation through two blocks; the ENOB-derived bound
        // lives in tests/photonic_vs_float.rs — this is a smoke check.
        for (p, d) in photonic.iter().zip(&digital) {
            assert!((p - d).abs() < 0.3, "photonic {p} vs digital {d}");
        }
    }
}
