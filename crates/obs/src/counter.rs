//! Typed counters for the quantities the Trident model already tracks.
//!
//! Counters come in two flavours sharing one storage array:
//!
//! * **sums** — monotonically accumulated with [`CounterSet::add`]
//!   (MAC ops, PCM pulses, energy tallies);
//! * **gauges** — absolute values stored with [`CounterSet::store`]
//!   (executor statistics mirrored from `rayon::pool::stats`).
//!
//! Energy is tallied in integer **femtojoules** so that merging two
//! snapshots is plain `u64` addition — associative and commutative by
//! construction (a property the proptests pin), which floating-point
//! accumulation could not guarantee. All model energies are ≥ 0.1 pJ
//! (= 100 fJ), so the integerization loses nothing observable.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $key:literal,)+) => {
        /// The fixed set of tracked quantities.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)+
        }

        impl Counter {
            /// Every counter, in declaration (and export) order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)+];

            /// Number of counters.
            pub const COUNT: usize = Counter::ALL.len();

            /// The stable export key of this counter.
            pub fn key(self) -> &'static str {
                match self {
                    $(Counter::$variant => $key,)+
                }
            }

            /// Storage-array index of this counter (the enum discriminant —
            /// the one sanctioned discriminant cast, kept here so storage
            /// code never casts).
            pub const fn index(self) -> usize {
                self as usize
            }
        }
    };
}

counters! {
    /// Ring-level multiply-accumulate operations performed optically.
    MacOps => "mac_ops",
    /// GST weight-programming pulse trains issued (open- or closed-loop).
    PcmWrites => "pcm_writes",
    /// Energy of all GST programming pulses, femtojoules.
    PcmWriteFj => "pcm_write_fj",
    /// GST read probe events (per-symbol bank readouts).
    PcmReads => "pcm_reads",
    /// Energy of all GST read probes, femtojoules.
    PcmReadFj => "pcm_read_fj",
    /// Closed-loop program-and-verify pulse attempts (≥ writes).
    PcmVerifyAttempts => "pcm_verify_attempts",
    /// Closed-loop writes that exhausted their retry budget.
    PcmVerifyFailures => "pcm_verify_failures",
    /// Ring thermal/electric tuning hold energy, femtojoules.
    RingTuningFj => "ring_tuning_fj",
    /// Balanced-photodetector readout events.
    DetectorReadouts => "detector_readouts",
    /// TIA amplification events (per-row analog readout).
    TiaAmplifications => "tia_amplifications",
    /// Detector + TIA receiver energy, femtojoules.
    ReceiverFj => "receiver_fj",
    /// Simulated forward-pass latency accumulated per layer, nanoseconds.
    ForwardLayerSimNs => "forward_layer_sim_ns",
    /// Simulated backward-pass latency accumulated per layer, nanoseconds.
    BackwardLayerSimNs => "backward_layer_sim_ns",
    /// Layers forwarded through the photonic engine.
    LayersForwarded => "layers_forwarded",
    /// Dead rings masked out of the optics by the degradation policy.
    FaultMaskEvents => "fault_mask_events",
    /// Cells remapped onto spare rings by wear leveling.
    FaultRemapEvents => "fault_remap_events",
    /// Stuck-at faults injected by fault campaigns.
    FaultInjectEvents => "fault_inject_events",
    /// MAC layers lowered by the weight-stationary dataflow mapper.
    DataflowLayersMapped => "dataflow_layers_mapped",
    /// Weight tiles produced by the dataflow mapper.
    DataflowTilesMapped => "dataflow_tiles_mapped",
    /// Executor regions that ran in parallel (gauge).
    ExecutorParallelRegions => "executor_parallel_regions",
    /// Executor regions that stayed on the calling thread (gauge).
    ExecutorSequentialRegions => "executor_sequential_regions",
    /// Work chunks claimed from the executor's shared counter (gauge).
    ExecutorChunksClaimed => "executor_chunks_claimed",
    /// Scoped worker threads spawned by the executor (gauge).
    ExecutorThreadsSpawned => "executor_threads_spawned",
    /// Statistical-model noise samples drawn (programming + read noise).
    StatNoiseSamples => "stat_noise_samples",
    /// Per-cell drift-factor refreshes after a degradation-clock advance.
    DriftUpdates => "drift_updates",
    /// Reference-column drift-calibration passes.
    CompensationPasses => "compensation_passes",
    /// Optical energy of drift-calibration reference reads, femtojoules.
    CompensationFj => "compensation_fj",
    /// Adaptive-training systematic-error-model updates.
    ErrorModelUpdates => "error_model_updates",
    /// Inference requests admitted by the serving front-end.
    ServeRequests => "serve_requests",
    /// Batches dispatched to fleet replicas by the dynamic batcher.
    ServeBatches => "serve_batches",
    /// Requests shed by deadline-aware admission control.
    ServeShedRequests => "serve_shed_requests",
    /// Served requests that completed after their SLO deadline.
    ServeSloMisses => "serve_slo_misses",
    /// Heap-growth events on the managed serving hot path (engine
    /// scratch growth) — zero once the fleet is warm.
    HotPathAllocs => "hot_path_allocs",
    /// KV-cache elements written (K rows + Vᵀ columns programmed into
    /// attention weight banks) during transformer decode.
    KvCacheWrites => "kv_cache_writes",
    /// KV-cache elements read back through attention MVMs during decode.
    KvCacheReads => "kv_cache_reads",
    /// Energy billed to KV-cache programming traffic, femtojoules.
    KvCacheFj => "kv_cache_fj",
    /// Softmax rows executed on the digital LDSU path.
    LdsuSoftmaxRows => "ldsu_softmax_rows",
    /// LayerNorm rows executed on the digital LDSU path.
    LdsuLayerNormRows => "ldsu_layer_norm_rows",
}

/// Convert a picojoule quantity to integer femtojoules, saturating and
/// rounding half-up. Negative or non-finite inputs clamp to zero: obs is
/// an observer, never a validator — bad values are the model's tests'
/// problem, not a reason to panic here.
pub fn fj_from_pj(pj: f64) -> u64 {
    if !pj.is_finite() || pj <= 0.0 {
        return 0;
    }
    let fj = (pj * 1000.0).round();
    if fj >= 1.8446744073709552e19 {
        u64::MAX
    } else {
        fj as u64
    }
}

/// Convert integer nanoseconds-like magnitudes to `f64` for exporters
/// (lossy above 2⁵³; the trace formats tolerate that).
pub fn lossy_f64(n: u64) -> f64 {
    n as f64
}

/// Convert a non-negative `f64` nanosecond quantity to an integer
/// nanosecond count, saturating and rounding (the span/latency tallies).
pub fn ns_from_ns_f64(ns: f64) -> u64 {
    if !ns.is_finite() || ns <= 0.0 {
        return 0;
    }
    let r = ns.round();
    if r >= 1.8446744073709552e19 {
        u64::MAX
    } else {
        r as u64
    }
}

/// Lock-free live counter storage.
#[derive(Debug)]
pub struct CounterSet {
    values: [AtomicU64; Counter::COUNT],
}

impl Default for CounterSet {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterSet {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self { values: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// Accumulate `n` into a sum counter (wrapping on overflow).
    pub fn add(&self, counter: Counter, n: u64) {
        self.values[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Store an absolute gauge value.
    pub fn store(&self, counter: Counter, value: u64) {
        self.values[counter.index()].store(value, Ordering::Relaxed);
    }

    /// Current value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter.index()].load(Ordering::Relaxed)
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        for v in &self.values {
            v.store(0, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            values: std::array::from_fn(|i| self.values[i].load(Ordering::Relaxed)),
        }
    }
}

/// An immutable point-in-time copy of a [`CounterSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: [u64; Counter::COUNT],
}

impl Default for CounterSnapshot {
    fn default() -> Self {
        Self::zero()
    }
}

impl CounterSnapshot {
    /// The all-zero snapshot (the merge identity).
    pub fn zero() -> Self {
        Self { values: [0; Counter::COUNT] }
    }

    /// Build a snapshot from explicit values in [`Counter::ALL`] order
    /// (test support).
    pub fn from_values(values: [u64; Counter::COUNT]) -> Self {
        Self { values }
    }

    /// Value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter.index()]
    }

    /// Merge another snapshot into this one, counter by counter. Addition
    /// wraps, so the merge is total, associative, and commutative — the
    /// algebra the obs proptests pin.
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            values: std::array::from_fn(|i| self.values[i].wrapping_add(other.values[i])),
        }
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }

    /// Iterate `(key, value)` pairs with non-zero values, export order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL
            .iter()
            .filter(move |&&c| self.get(c) != 0)
            .map(move |&c| (c.key(), self.get(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_snapshot_round_trip() {
        let set = CounterSet::new();
        set.add(Counter::MacOps, 256);
        set.add(Counter::MacOps, 256);
        set.store(Counter::ExecutorChunksClaimed, 7);
        let snap = set.snapshot();
        assert_eq!(snap.get(Counter::MacOps), 512);
        assert_eq!(snap.get(Counter::ExecutorChunksClaimed), 7);
        assert_eq!(snap.get(Counter::PcmWrites), 0);
    }

    #[test]
    fn merge_is_elementwise_addition() {
        let mut a = [0u64; Counter::COUNT];
        a[Counter::MacOps as usize] = 10;
        let mut b = [0u64; Counter::COUNT];
        b[Counter::MacOps as usize] = 5;
        b[Counter::PcmWrites as usize] = 3;
        let merged = CounterSnapshot::from_values(a).merge(&CounterSnapshot::from_values(b));
        assert_eq!(merged.get(Counter::MacOps), 15);
        assert_eq!(merged.get(Counter::PcmWrites), 3);
    }

    #[test]
    fn fj_conversion_rounds_and_saturates() {
        assert_eq!(fj_from_pj(0.1), 100);
        assert_eq!(fj_from_pj(660.0), 660_000);
        assert_eq!(fj_from_pj(-5.0), 0);
        assert_eq!(fj_from_pj(f64::NAN), 0);
        assert_eq!(fj_from_pj(f64::INFINITY), 0);
        assert_eq!(fj_from_pj(1e30), u64::MAX);
    }

    #[test]
    fn ns_conversion_rounds_and_saturates() {
        assert_eq!(ns_from_ns_f64(299.6), 300);
        assert_eq!(ns_from_ns_f64(-1.0), 0);
        assert_eq!(ns_from_ns_f64(1e30), u64::MAX);
    }

    #[test]
    fn keys_are_unique() {
        let mut keys: Vec<&str> = Counter::ALL.iter().map(|c| c.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), Counter::COUNT);
    }

    #[test]
    fn reset_zeroes_everything() {
        let set = CounterSet::new();
        set.add(Counter::PcmReads, 9);
        set.reset();
        assert!(set.snapshot().is_zero());
    }
}
