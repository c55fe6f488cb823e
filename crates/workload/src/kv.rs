//! KV-cache traffic accounting for decoder-style attention.
//!
//! On Trident the KV-cache *is* the attention weight bank: decoding a
//! token programs its key row and value column into PCM once (the cache
//! "write"), after which every later decode step re-reads the whole
//! cached prefix optically through the score and context MVMs (the cache
//! "reads"). This module provides the closed-form per-token expectations
//! the functional simulator's measured counts are pinned against
//! (`tests/kv_cache_invariants.rs`).
//!
//! Closed forms for decoding `T` tokens through `L` causal layers at
//! width `d_model` (keys and values each carry `d_model` elements per
//! token per layer):
//!
//! * writes  = `T · L · 2 · d_model`
//! * reads   = `Σ_{t=1..T} t · L · 2 · d_model = L · d_model · T·(T+1)`
//!
//! A full-sequence recompute instead reprograms every prior K row and V
//! column at every step — `Σ t·L·2·d_model` writes — which is exactly
//! the gap the cache closes; [`KvCachePlan::recompute_writes`] quantifies
//! it so the dataflow section can report the saving.

use crate::layer::LayerKind;
use crate::model::ModelSpec;

/// Saturating `usize → u64` for structural counts (total element counts
/// can overflow neither in practice nor silently here).
fn count_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// The KV-cache geometry of one decoder workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvCachePlan {
    /// Model width: elements per key row (= per value column) per layer.
    pub d_model: usize,
    /// Causal attention layers, each with its own K and V banks.
    pub layers: usize,
    /// Context length: tokens decoded (and cached) per sequence.
    pub tokens: usize,
}

impl KvCachePlan {
    /// Derive the plan from a model description: one cache per
    /// `SelfAttention { causal: true }` layer, width and context from
    /// that layer's token shape. `None` for encoder-only models.
    pub fn for_model(model: &ModelSpec) -> Option<Self> {
        let mut plan: Option<Self> = None;
        for layer in &model.layers {
            if let LayerKind::SelfAttention { causal: true, .. } = layer.kind {
                let p = plan.get_or_insert(Self {
                    d_model: layer.input.c,
                    layers: 0,
                    tokens: layer.input.h,
                });
                p.layers += 1;
            }
        }
        plan
    }

    /// Cache elements written when decoding token `t` (1-based): one key
    /// row and one value column per layer, regardless of position.
    pub fn writes_at_step(&self, _t: usize) -> u64 {
        count_u64(self.layers) * 2 * count_u64(self.d_model)
    }

    /// Cache elements read when decoding token `t` (1-based): the full
    /// `t`-token prefix streams through both attention MVMs per layer.
    pub fn reads_at_step(&self, t: usize) -> u64 {
        count_u64(t.min(self.tokens)) * count_u64(self.layers) * 2 * count_u64(self.d_model)
    }

    /// Total cache elements written over the whole decode.
    pub fn total_writes(&self) -> u64 {
        count_u64(self.tokens) * count_u64(self.layers) * 2 * count_u64(self.d_model)
    }

    /// Total cache elements read over the whole decode:
    /// `L · d_model · T·(T+1)`.
    pub fn total_reads(&self) -> u64 {
        let t = count_u64(self.tokens);
        count_u64(self.layers) * count_u64(self.d_model) * t * (t + 1)
    }

    /// PCM programming events a cache-less full recompute would need:
    /// every step reprograms the whole prefix, `L · d_model · T·(T+1)`
    /// element writes — the quadratic bill the cache amortises to
    /// [`KvCachePlan::total_writes`].
    pub fn recompute_writes(&self) -> u64 {
        let t = count_u64(self.tokens);
        count_u64(self.layers) * count_u64(self.d_model) * t * (t + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn closed_forms_agree_with_stepwise_sums() {
        let plan = KvCachePlan { d_model: 256, layers: 6, tokens: 33 };
        let step_writes: u64 = (1..=plan.tokens).map(|t| plan.writes_at_step(t)).sum();
        let step_reads: u64 = (1..=plan.tokens).map(|t| plan.reads_at_step(t)).sum();
        assert_eq!(step_writes, plan.total_writes());
        assert_eq!(step_reads, plan.total_reads());
        assert_eq!(plan.total_writes(), 33 * 6 * 2 * 256);
        assert_eq!(plan.total_reads(), 6 * 256 * 33 * 34);
    }

    #[test]
    fn plan_derived_from_gpt_decoder() {
        let plan = KvCachePlan::for_model(&zoo::gpt_decoder()).unwrap();
        assert_eq!(plan, KvCachePlan { d_model: 256, layers: 6, tokens: 256 });
    }

    #[test]
    fn encoder_models_have_no_plan() {
        assert!(KvCachePlan::for_model(&zoo::vit_tiny()).is_none());
        assert!(KvCachePlan::for_model(&zoo::resnet50()).is_none());
    }

    #[test]
    fn cache_beats_recompute_quadratically() {
        let plan = KvCachePlan { d_model: 256, layers: 6, tokens: 256 };
        // Recompute writes / cached writes = (T+1)/2.
        assert_eq!(plan.recompute_writes() / plan.total_writes(), 256u64.div_ceil(2));
    }
}
