//! Transformer blocks on the photonic fabric (DESIGN.md §16).
//!
//! [`PhotonicTransformer`] runs pre-norm transformer encoder/decoder
//! blocks with every GEMM lowered onto tiled PCM-MRR weight banks
//! (`TileGemm` grids), the way [`crate::engine::PhotonicMlp`] lowers
//! dense layers:
//!
//! * **Static MVMs** — QKV projections, the attention output projection,
//!   the two FFN GEMMs and the classifier/vocabulary head are programmed
//!   once at construction and every token of a span streams through them
//!   (weight-stationary).
//! * **Dynamic MVMs** — the attention core runs *in memory*: each
//!   token's key row and value column are programmed into per-head PCM
//!   banks at decode time, after which the score MVM (`K·q`) and the
//!   context MVM (`Vᵀ·probs`) read the whole cached prefix optically.
//!   The banks **are** the KV-cache; incremental decode programs one
//!   row/column band per token while a full recompute reprograms
//!   everything — the energy gap `workload::kv` quantifies.
//! * **Digital LDSU ops** — softmax, LayerNorm, residual adds and the
//!   mean-pool head run on the chip's digital load/store unit
//!   (`crate::chip::Ldsu`), one ledger of typed energy charges plus a
//!   cycle clock, and obs counters (`ldsu_softmax_rows`,
//!   `ldsu_layer_norm_rows`, `kv_cache_*`).
//!
//! ## One block pass
//!
//! Every path runs a span of tokens through one block pass over one
//! `DecodeScratch`: decode is a span of one token at the cache frontier;
//! causal prefill, classify and the serving batch are spans from position
//! 0. Over the span, LN1 runs per token and Q, K and V run as one signed
//! GEMM each. Each token then, in order, appends its K/V and programs its
//! bands; a causal token attends over rows `..=t` straight after its own
//! append, while an encoder banks the whole span and then attends once
//! per head with all of its queries. `wo`, the residual, LN2, the FFN and
//! its residual run once over the span. Every PE still sees its vectors
//! in token order, so a span is bitwise a token-at-a-time schedule.
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

use crate::chip::{layer_norm64, softmax64, Chip};
use crate::config::LDSU_RESIDUAL_ENERGY;
use crate::engine::{grow_slots, refill, reserve_slots};
use crate::error::ArchError;
use crate::pe::gst_activation;
use crate::tile::{PeSpec, TileGemm, TILE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use trident_obs as obs;
use trident_pcm::stat::StatParams;
use trident_photonics::ledger::EnergyLedger;
use trident_photonics::units::{EnergyPj, Nanoseconds};

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
        self.raw.chunks(self.in_dim).map(|row| dot(row, x)).collect()
    }

    /// The head's read of the `d_model`-wide `x`: the final LayerNorm on
    /// the LDSU into `normed`, then this projection's billed MVM into the
    /// emptied `out`.
    fn read_normed(&self, chip: &mut Chip, x: &[f64], normed: &mut [f64], out: &mut Vec<f64>) {
        let normed = &mut normed[..x.len()];
        chip.ldsu.layer_norm(x, x.len(), normed);
        out.resize(self.raw.len() / self.in_dim, 0.0);
        self.gemv(chip, normed, out);
    }
}

/// Straight-line f64 dot product (digital twin).
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// [`layer_norm64`] into a fresh vector (digital twin).
fn exact_norm(x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; x.len()];
    layer_norm64(x, &mut out);
    out
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

    /// One head's attention for the block of queries `q` (`m` rows of
    /// `d_head`) over cache rows `..limit`: one score GEMM through the K
    /// grid, one LDSU softmax per query, and one context GEMM through the
    /// Vᵀ grid into `ctx` (`m × d_head`). `scores` and `vin` hold `m`
    /// rows of `max_seq`.
    fn attend(
        &self,
        chip: &mut Chip,
        q: &[f64],
        limit: usize,
        scores: &mut [f64],
        vin: &mut [f64],
        ctx: &mut [f64],
    ) {
        let max_seq = self.k_scale.len();
        let inv_sqrt = 1.0 / ((self.k_logical.len() / max_seq) as f64).sqrt();
        chip.gemm_signed(self.k, q, scores);
        for (row, probs) in scores.chunks_exact_mut(max_seq).zip(vin.chunks_exact_mut(max_seq)) {
            let row = &mut row[..limit];
            for (s, &scale) in row.iter_mut().zip(&self.k_scale) {
                *s = *s * scale * inv_sqrt;
            }
            chip.ldsu.softmax(row);
            // Probabilities enter the Vᵀ bank re-scaled per column;
            // masked positions carry exactly zero.
            probs.fill(0.0);
            for ((p, &s), &scale) in probs.iter_mut().zip(row.iter()).zip(&self.v_scale) {
                *p = s * scale;
            }
        }
        chip.gemm_signed(self.v, vin, ctx);
    }
}

/// One pre-norm transformer block's device state.
#[derive(Debug)]
struct Block {
    wq: Projection,
    wk: Projection,
    wv: Projection,
    kv: Vec<HeadKv>,
    wo: Projection,
    w1: Projection,
    w2: Projection,
}

impl Block {
    /// Every head's attention for the span's query rows `rows` over
    /// cache rows `..to`, into the same rows of `attn`: each head's
    /// slice of those queries is gathered into one block, attended, and
    /// its contexts scattered back.
    fn attend_rows(&self, chip: &mut Chip, s: &mut DecodeScratch, rows: Range<usize>, to: usize) {
        let d = self.wq.in_dim;
        let (m, d_head, span) = (rows.len(), d / self.kv.len(), rows.start * d..rows.end * d);
        for (h, kv) in self.kv.iter().enumerate() {
            let (cols, window) = (h * d_head..(h + 1) * d_head, m * kv.k_scale.len());
            let queries = s.queries[span.clone()].chunks_exact(d);
            for (q, row) in s.head_q.chunks_exact_mut(d_head).zip(queries) {
                q.copy_from_slice(&row[cols.clone()]);
            }
            let (q, ctx) = (&s.head_q[..m * d_head], &mut s.head_ctx[..m * d_head]);
            kv.attend(chip, q, to, &mut s.scores[..window], &mut s.vin[..window], ctx);
            let contexts = s.attn[span.clone()].chunks_exact_mut(d);
            for (ctx, row) in s.head_ctx.chunks_exact(d_head).zip(contexts) {
                row[cols.clone()].copy_from_slice(ctx);
            }
        }
    }
}

/// A transformer encoder/decoder running on simulated photonic hardware.
#[derive(Debug)]
pub struct PhotonicTransformer {
    cfg: TransformerConfig,
    /// Every grid in construction order, and the digital side.
    chip: Chip,
    blocks: Vec<Block>,
    /// The vocabulary/classifier head, read after the final LayerNorm.
    head: Projection,
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
/// decode allocates only the logits it returns. Row `i` of each
/// span-wide buffer belongs to token `i` of the current span: a whole
/// sequence for a prefill, one token for a decode step.
#[derive(Debug)]
struct DecodeScratch {
    /// Running hidden states, `max_seq` rows of `d_model`.
    hidden: Vec<f64>,
    /// LayerNorm outputs feeding the projections and the FFN, and the
    /// query, key and value projections (`max_seq × d_model` each).
    normed: Vec<f64>,
    queries: Vec<f64>,
    keys: Vec<f64>,
    values: Vec<f64>,
    /// Concatenated head contexts (`max_seq × d_model`).
    attn: Vec<f64>,
    /// Sublayer outputs added to the residual stream (`max_seq × d_model`).
    delta: Vec<f64>,
    /// FFN pre- and post-activation (`max_seq × d_ff` each).
    h1: Vec<f64>,
    act: Vec<f64>,
    /// One head's gathered queries and contexts (`q_rows × d_head` each).
    head_q: Vec<f64>,
    head_ctx: Vec<f64>,
    /// Attention scores and the re-scaled probabilities streamed into the
    /// Vᵀ bank (`q_rows × max_seq` each).
    scores: Vec<f64>,
    vin: Vec<f64>,
    /// Mean-pooled hidden state (`d_model` wide).
    pooled: Vec<f64>,
}

impl DecodeScratch {
    fn new(cfg: &TransformerConfig) -> Self {
        // A causal token attends alone; an encoder's whole span at once.
        let q_rows = if cfg.causal { 1 } else { cfg.max_seq };
        let (d, d_head, rows) = (cfg.d_model, cfg.d_model / cfg.heads, cfg.max_seq);
        let span = || vec![0.0; rows * d];
        Self {
            hidden: span(),
            normed: span(),
            queries: span(),
            keys: span(),
            values: span(),
            attn: span(),
            delta: span(),
            h1: vec![0.0; rows * cfg.d_ff],
            act: vec![0.0; rows * cfg.d_ff],
            head_q: vec![0.0; q_rows * d_head],
            head_ctx: vec![0.0; q_rows * d_head],
            scores: vec![0.0; q_rows * rows],
            vin: vec![0.0; q_rows * rows],
            pooled: vec![0.0; d],
        }
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
                Block { wq, wk, wv, kv, wo, w1, w2 }
            })
            .collect();
        let head = Projection::init(&mut rng, &mut chip, grid(cfg.out_dim, d));
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

    /// Block `b` over the span's `n` tokens at positions `at..at + n`,
    /// whose hidden states fill the first `n` rows of the scratch
    /// (DESIGN.md §16). LN1 runs per token, then Q, K and V as one signed
    /// GEMM each. Each token then, in order, appends its K/V and programs
    /// its bands — billed as KV-cache traffic when the model is causal —
    /// and a causal token attends over rows `..=t` at once; an encoder
    /// attends once the whole span is banked. `wo`, the residual, LN2,
    /// `w1`, the GST activation, `w2` and the second residual each run
    /// once over the span.
    fn block(&mut self, b: usize, at: usize, n: usize) {
        let (d, causal) = (self.cfg.d_model, self.cfg.causal);
        let (d_head, rows, ff) = (d / self.cfg.heads, n * d, n * self.cfg.d_ff);
        let Self { chip, blocks, scratch: s, kv_writes, kv_reads, .. } = self;
        let block = &mut blocks[b];
        chip.ldsu.layer_norm(&s.hidden[..rows], d, &mut s.normed[..rows]);
        block.wq.gemv(chip, &s.normed[..rows], &mut s.queries[..rows]);
        block.wk.gemv(chip, &s.normed[..rows], &mut s.keys[..rows]);
        block.wv.gemv(chip, &s.normed[..rows], &mut s.values[..rows]);
        for i in 0..n {
            let (t, row) = (at + i, i * d..(i + 1) * d);
            let mut spent = EnergyPj::ZERO;
            let heads = s.keys[row.clone()].chunks(d_head).zip(s.values[row].chunks(d_head));
            for (kv, (k, v)) in block.kv.iter_mut().zip(heads) {
                kv.append(t, k, v);
                spent += chip.grids[kv.k].program_row_band(&kv.k_logical, t / TILE);
                spent += chip.grids[kv.v].program_col_band(&kv.v_logical, t / TILE);
            }
            if causal {
                block.attend_rows(chip, s, i..i + 1, t + 1);
                let (writes, reads) = (2 * d as u64, 2 * d as u64 * (t + 1) as u64);
                *kv_writes += writes;
                *kv_reads += reads;
                obs::add(obs::Counter::KvCacheWrites, writes);
                obs::add_pj(obs::Counter::KvCacheFj, spent.value());
                obs::add(obs::Counter::KvCacheReads, reads);
            }
        }
        if !causal {
            block.attend_rows(chip, s, 0..n, at + n);
        }
        block.wo.gemv(chip, &s.attn[..rows], &mut s.delta[..rows]);
        chip.ldsu.residual(&mut s.hidden[..rows], &s.delta[..rows], d);
        chip.ldsu.layer_norm(&s.hidden[..rows], d, &mut s.normed[..rows]);
        block.w1.gemv(chip, &s.normed[..rows], &mut s.h1[..ff]);
        chip.grids[block.w1.grid].activate_rows(&s.h1[..ff], &mut s.act[..ff]);
        block.w2.gemv(chip, &s.act[..ff], &mut s.delta[..rows]);
        chip.ldsu.residual(&mut s.hidden[..rows], &s.delta[..rows], d);
    }

    /// Copy the tokens of `x` (flat rows of `d_model`, already checked)
    /// in at position `at`, run every block over them and set the cache
    /// length; returns their count. Their final hidden states fill the
    /// first rows of the scratch.
    fn feed_span(&mut self, at: usize, x: &[f64]) -> usize {
        let n = x.len() / self.cfg.d_model;
        self.scratch.hidden[..x.len()].copy_from_slice(x);
        for b in 0..self.blocks.len() {
            self.block(b, at, n);
        }
        self.cache_len = at + n;
        n
    }

    /// Token count of a flat `seq × d_model` input, `1 ≤ seq ≤ max_seq`.
    fn check_seq(&self, len: usize) -> Result<usize, ArchError> {
        let d = self.cfg.d_model;
        if len == 0 || !len.is_multiple_of(d) || len / d > self.cfg.max_seq {
            return Err(ArchError::ShapeMismatch { expected: self.cfg.input_width(), got: len });
        }
        Ok(len / d)
    }

    /// The typed error of a causal-only path (per-position logits, KV-cache
    /// decode) on an encoder.
    fn require_causal(&self) -> Result<(), ArchError> {
        if self.cfg.causal {
            return Ok(());
        }
        Err(ArchError::InvalidParameter { name: "causal", value: 0, expected: "a causal decoder" })
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
        self.require_causal()?;
        self.check_seq(x.len())?;
        let seq = self.feed_span(0, x);
        let d = self.cfg.d_model;
        let Self { chip, head, scratch: s, .. } = self;
        let logits = |tok| {
            let mut out = Vec::new();
            head.read_normed(chip, tok, &mut s.normed, &mut out);
            out
        };
        Ok(s.hidden[..seq * d].chunks(d).map(logits).collect())
    }

    /// Decode one token through the KV-cache path: appends the token's
    /// K/V to every block's banks (one row/column band program each) and
    /// returns its `out_dim` logits. Errors on an encoder and when the
    /// context is full.
    pub fn try_decode_token(&mut self, x: &[f64]) -> Result<Vec<f64>, ArchError> {
        self.require_causal()?;
        let d = self.cfg.d_model;
        if x.len() != d {
            return Err(ArchError::ShapeMismatch { expected: d, got: x.len() });
        }
        let t = self.cache_len;
        if t >= self.cfg.max_seq {
            return Err(ArchError::ShapeMismatch { expected: self.cfg.max_seq, got: t + 1 });
        }
        self.feed_span(t, x);
        let Self { chip, head, scratch: s, .. } = self;
        let mut logits = Vec::new();
        head.read_normed(chip, &s.hidden[..d], &mut s.normed, &mut logits);
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
            let seq = self.feed_span(0, x.as_ref());
            let Self { chip, head, scratch: s, heap_allocs, .. } = self;
            mean_pool(&s.hidden[..seq * d], d, &mut s.pooled);
            chip.ldsu.charge("ldsu residual", LDSU_RESIDUAL_ENERGY, d, 1);
            refill(slot, heap_allocs, |out| head.read_normed(chip, &s.pooled, &mut s.normed, out));
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
            let normed: Vec<Vec<f64>> = hidden.chunks(d).map(exact_norm).collect();
            let q: Vec<Vec<f64>> = normed.iter().map(|n| block.wq.exact(n)).collect();
            let k: Vec<Vec<f64>> = normed.iter().map(|n| block.wk.exact(n)).collect();
            let v: Vec<Vec<f64>> = normed.iter().map(|n| block.wv.exact(n)).collect();
            for (t, tok) in hidden.chunks_mut(d).enumerate() {
                let limit = if self.cfg.causal { t + 1 } else { seq };
                let mut concat = vec![0.0f64; d];
                for h in 0..self.cfg.heads {
                    let span = h * d_head..(h + 1) * d_head;
                    let mut scores: Vec<f64> = (0..limit)
                        .map(|j| dot(&k[j][span.clone()], &q[t][span.clone()]) * inv_sqrt)
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
                let h1 = block.w1.exact(&exact_norm(tok));
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
        Ok(self.head.exact(&exact_norm(&pooled)))
    }

    /// Digital twin of [`PhotonicTransformer::try_forward_causal`].
    pub fn digital_forward_causal(&self, x: &[f64]) -> Result<Vec<Vec<f64>>, ArchError> {
        let hidden = self.digital_hidden(x)?;
        Ok(hidden.chunks(self.cfg.d_model).map(|tok| self.head.exact(&exact_norm(tok))).collect())
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
        // An encoder has no KV-cache decode either.
        assert!(matches!(
            tx.try_decode_token(&x[..tx.config().d_model]),
            Err(ArchError::InvalidParameter { name: "causal", .. })
        ));
        assert_eq!(tx.cache_len(), 0);
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
