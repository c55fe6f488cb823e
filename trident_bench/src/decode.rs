//! `decode`: KV-cache dataflow. One item is one token through
//! `try_decode_token` of the tiny GPT decoder at `max_seq` 64, with
//! `reset_cache` before every 64-token sequence. Token vectors come from
//! the seed; the decoder's weights are its fixed construction seed.

use crate::classify::bitwise_eq;
use crate::harness::{Ledger, Sim, Size, StepCx, Workload};
use crate::models;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trident::arch::transformer::{PhotonicTransformer, TransformerConfig};
use trident::obs;
use trident::photonics::ledger::EnergyLedger;

pub const MAX_SEQ: usize = 64;
/// Distinct generated sequences; the timed loop cycles through them.
const POOL: usize = 32;
/// Every this many sequences, one is re-checked against the digital
/// twin. The first is also re-checked bit for bit against a fresh
/// full-sequence recompute: only a decoder whose banks start pristine is
/// bitwise equal to one; after `reset_cache`, the previous sequence's
/// stale cells add sub-quantization crosstalk (see `reset_cache`).
const RECHECK_EVERY: u64 = 50;
/// `2·TILE·2⁻⁷`: the photonic-vs-float logit tolerance of the repo's
/// differential tests.
pub const DIGITAL_TOLERANCE: f64 = 2.0 * 16.0 / 128.0;

fn config() -> TransformerConfig {
    TransformerConfig {
        max_seq: MAX_SEQ,
        ..TransformerConfig::tiny_gpt()
    }
}

fn reference_sequences(size: &Size) -> u64 {
    if size.smoke {
        1
    } else {
        8
    }
}

/// One sequence's tokens and the logits decode produced for them.
#[derive(Debug, Clone)]
pub struct Decoded {
    /// Sequences decoded before this one on the same decoder.
    pub index: u64,
    pub tokens: Vec<Vec<f64>>,
    pub logits: Vec<Vec<f64>>,
}

pub struct Decode {
    tx: PhotonicTransformer,
    pool: Vec<Vec<Vec<f64>>>,
    tokens: u64,
    /// Logits of the sequence being decoded, when it is kept.
    current: Option<Vec<Vec<f64>>>,
    /// Reference-window sequences, for the digital-agreement metric.
    reference: Vec<Decoded>,
    rechecks: Vec<Decoded>,
    start_ledger: EnergyLedger,
    start_ns: f64,
    reference_seqs: u64,
}

impl Decode {
    fn sequence(&self) -> u64 {
        self.tokens / MAX_SEQ as u64
    }

    fn keeps(&self, seq: u64) -> bool {
        seq < self.reference_seqs || seq.is_multiple_of(RECHECK_EVERY)
    }
}

impl Workload for Decode {
    /// One whole sequence.
    const WINDOW_STEPS: u64 = MAX_SEQ as u64;

    fn reference_steps(size: &Size) -> u64 {
        reference_sequences(size) * MAX_SEQ as u64
    }

    fn setup(seed: u64, size: &Size) -> Result<Self, String> {
        let cfg = config();
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = (0..POOL)
            .map(|_| {
                (0..MAX_SEQ)
                    .map(|_| (0..cfg.d_model).map(|_| rng.gen_range(-1.0..1.0)).collect())
                    .collect()
            })
            .collect();
        let tx = {
            let _span = obs::span("arch.transformer.build");
            PhotonicTransformer::try_new(cfg).map_err(|e| e.to_string())?
        };
        Ok(Decode {
            start_ledger: tx.energy_ledger(),
            start_ns: tx.total_elapsed().value(),
            tx,
            pool,
            tokens: 0,
            current: None,
            reference: Vec::new(),
            rechecks: Vec::new(),
            reference_seqs: reference_sequences(size),
        })
    }

    fn step(&mut self, cx: &mut StepCx) -> u64 {
        let seq = self.sequence();
        let pos = (self.tokens % MAX_SEQ as u64) as usize;
        if pos == 0 {
            let _span = obs::span("arch.transformer.reset_cache");
            self.tx.reset_cache();
            self.current = self.keeps(seq).then(Vec::new);
        }
        let token = &self.pool[seq as usize % POOL][pos];
        let logits = {
            let _span = obs::span(match pos {
                0..=15 => "arch.transformer.decode_token.pos_00_15",
                48..=63 => "arch.transformer.decode_token.pos_48_63",
                _ => "arch.transformer.decode_token.pos_16_47",
            });
            self.tx.try_decode_token(token)
        };
        self.tokens += 1;
        match logits {
            Ok(logits) => {
                cx.output("decode_token", &logits);
                if let Some(kept) = self.current.as_mut() {
                    kept.push(logits);
                }
            }
            Err(e) => cx.error("decode_token", e),
        }
        if pos + 1 == MAX_SEQ {
            if let Some(logits) = self.current.take() {
                let done = Decoded {
                    index: seq,
                    tokens: self.pool[seq as usize % POOL].clone(),
                    logits,
                };
                if seq < self.reference_seqs {
                    self.reference.push(done.clone());
                }
                if seq.is_multiple_of(RECHECK_EVERY) {
                    self.rechecks.push(done);
                }
            }
        }
        1
    }

    fn reference(&mut self, cx: &mut StepCx) -> Sim {
        let tokens = self.tokens as f64;
        let ledger = self.tx.energy_ledger();
        let (mut agree, mut total) = (0usize, 0usize);
        for d in &self.reference {
            match self.tx.digital_forward_causal(&flatten(&d.tokens)) {
                Ok(digital) => {
                    for (a, b) in d.logits.iter().zip(&digital) {
                        agree += usize::from(models::argmax(a) == models::argmax(b));
                        total += 1;
                    }
                }
                Err(e) => cx.error("digital_forward_causal", e),
            }
        }
        let mut sim = Sim {
            us_per_item: (self.tx.total_elapsed().value() - self.start_ns) / 1e3 / tokens,
            uj_per_item: (ledger.total().value() - self.start_ledger.total().value())
                / 1e6
                / tokens,
            accuracy: agree as f64 / total.max(1) as f64,
            ..Sim::default()
        };
        sim.set_energy(&self.start_ledger, &ledger, 0.0, tokens);
        sim
    }

    fn check(&mut self, ledger: &mut Ledger) {
        for d in &self.rechecks {
            let flat = flatten(&d.tokens);
            let recompute = (d.index == 0).then(|| {
                PhotonicTransformer::try_new(config()).and_then(|mut f| f.try_forward_causal(&flat))
            });
            check_sequence(
                d,
                recompute.as_ref(),
                &self.tx.digital_forward_causal(&flat),
                ledger,
            );
        }
    }
}

/// A re-checked sequence's decode logits must stay within
/// [`DIGITAL_TOLERANCE`] of the digital twin and, when given, equal a
/// fresh full-sequence recompute bit for bit.
pub fn check_sequence<E: std::fmt::Debug>(
    d: &Decoded,
    recompute: Option<&Result<Vec<Vec<f64>>, E>>,
    digital: &Result<Vec<Vec<f64>>, E>,
    ledger: &mut Ledger,
) {
    if let Some(recompute) = recompute {
        ledger.check(
            matches!(recompute, Ok(r) if logits_bitwise_eq(&d.logits, r)),
            || {
                format!(
                    "decode: sequence {} differs from a fresh full-sequence recompute",
                    d.index
                )
            },
        );
    }
    let err = digital.as_ref().map(|r| max_abs_diff(&d.logits, r));
    ledger.check(matches!(err, Ok(e) if e <= DIGITAL_TOLERANCE), || {
        format!(
            "decode: sequence {} is {err:?} from the digital twin, tolerance {DIGITAL_TOLERANCE}",
            d.index
        )
    });
}

fn flatten(tokens: &[Vec<f64>]) -> Vec<f64> {
    tokens.iter().flatten().copied().collect()
}

pub fn logits_bitwise_eq(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bitwise_eq(x, y))
}

/// Largest absolute difference between two logit sequences. A shape
/// mismatch gives infinity and a NaN stays NaN, so both fail any
/// tolerance.
pub fn max_abs_diff(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.len() != y.len()) {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.iter().zip(y).map(|(p, q)| (p - q).abs()))
        .fold(0.0, |m, d| if d.is_nan() || d > m { d } else { m })
}
