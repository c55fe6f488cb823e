#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
//! Heap allocations of warm forwards and training batches, and the heap
//! a freshly built bank or engine holds, counted by the allocator itself
//! (DESIGN.md §15).
//!
//! The engines' `hot_path_allocs()` counters see only their own tapes
//! and output slots; this binary installs a counting
//! `#[global_allocator]`, so it sees every allocation a forward makes,
//! the tile grids', PEs' and weight banks' included. The count is per thread, so tests running
//! side by side cannot add to each other's counts; every forward here
//! runs on the calling thread. Tracing is forced off in this binary:
//! with `TRIDENT_TRACE` set, spans record into the trace recorder, whose
//! memory is the observer's, not the engines'.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use trident::arch::bank::WeightBank;
use trident::arch::conv_engine::PhotonicCnn;
use trident::arch::engine::{EngineOptions, PhotonicMlp};
use trident::arch::transformer::{PhotonicTransformer, TransformerConfig};
use trident::obs;
use trident::pcm::gst::GstParameters;
use trident::pcm::stat::StatParams;

/// The system allocator, counting the allocations of each thread and the
/// bytes it allocates and frees. `realloc` and `alloc_zeroed` keep their
/// default bodies, which allocate through `alloc` (and free through
/// `dealloc`), so a growth counts as one allocation and its bytes net
/// out to the new size.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
}

/// Add `by` to a thread's tally. `try_with`: a thread's allocations
/// after its locals are torn down go uncounted rather than panicking
/// inside the allocator.
fn tally(key: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    let _ = key.try_with(|n| n.set(n.get() + by));
}

// SAFETY: every block comes from, and goes back to, `System` with the
// caller's layout and pointer unchanged, so `Counting` keeps the
// `GlobalAlloc` contract exactly as `System` does. The counts are
// thread-local `Cell`s with const initializers: updating them neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(&ALLOCS, 1);
        tally(&ALLOCATED, layout.size() as u64);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(&FREED, layout.size() as u64);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread, tracing off.
fn allocs_of(f: impl FnOnce()) -> u64 {
    obs::set_enabled_override(Some(false));
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// What `build` returns, and the heap bytes it still holds once built:
/// the bytes allocated on this thread while building, less those freed.
/// Tracing off.
fn heap_held<T>(build: impl FnOnce() -> T) -> (T, u64) {
    obs::set_enabled_override(Some(false));
    // Each tally alone: a thread can free blocks another thread
    // allocated, so its freed bytes may exceed its allocated ones.
    let tallies = || (ALLOCATED.with(Cell::get), FREED.with(Cell::get));
    let (allocated, freed) = tallies();
    let built = build();
    let (allocated_now, freed_now) = tallies();
    (built, (allocated_now - allocated) - (freed_now - freed))
}

/// `n` inputs of `width` channel powers in `[0, 1)`.
fn inputs(n: usize, width: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|s| (0..width).map(|i| ((i * 7 + s * 3) % 11) as f64 / 11.0).collect())
        .collect()
}

#[test]
fn warm_mlp_batches_allocate_nothing() {
    for stat in [None, Some(StatParams::default())] {
        let on = stat.is_some();
        let opts = EngineOptions { seed: 1, stat, ..EngineOptions::default() };
        let mut mlp = PhotonicMlp::try_with_options(&[64, 16, 10], opts).unwrap();
        let xs = inputs(8, 64);
        mlp.reserve_forward_scratch(xs.len());
        mlp.try_forward_batch(&xs, true).unwrap();
        let n = allocs_of(|| {
            mlp.try_forward_batch(&xs, true).unwrap();
        });
        assert_eq!(n, 0, "warm [64, 16, 10] batch of 8 (stat layer on: {on})");
    }
}

#[test]
fn warm_training_allocates_per_batch_not_per_sample() {
    let opts = EngineOptions { seed: 1, ..EngineOptions::default() };
    let mut mlp = PhotonicMlp::try_with_options(&[64, 16, 10], opts).unwrap();
    let xs = inputs(8, 64);
    let labels: Vec<usize> = (0..8).collect();
    mlp.try_train_batched(&xs, &labels, 0.1, 1, 8).unwrap();
    let one = allocs_of(|| {
        mlp.try_train_batched(&xs[..1], &labels[..1], 0.1, 1, 1).unwrap();
    });
    let eight = allocs_of(|| {
        mlp.try_train_batched(&xs, &labels, 0.1, 1, 8).unwrap();
    });
    assert_eq!(one, eight, "a warm training batch of 1 and of 8 ([64, 16, 10])");
}

#[test]
fn warm_cnn_batches_allocate_nothing() {
    let mut cnn = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8);
    let xs = inputs(8, 64);
    cnn.reserve_forward_scratch(xs.len());
    cnn.try_forward_batch(&xs).unwrap();
    let n = allocs_of(|| {
        cnn.try_forward_batch(&xs).unwrap();
    });
    assert_eq!(n, 0, "warm 8×8 digit CNN batch of 8");
}

#[test]
fn warm_vit_batches_allocate_nothing() {
    let cfg = TransformerConfig::tiny_vit();
    let xs: Vec<Vec<f64>> = inputs(4, cfg.input_width())
        .into_iter()
        .map(|x| x.iter().map(|v| 2.0 * v - 1.0).collect())
        .collect();
    let mut vit = PhotonicTransformer::try_new(cfg).unwrap();
    vit.reserve_forward_scratch(xs.len());
    vit.try_forward_batch(&xs).unwrap();
    let n = allocs_of(|| {
        vit.try_forward_batch(&xs).unwrap();
    });
    assert_eq!(n, 0, "warm tiny_vit batch of 4");
}

#[test]
fn steady_decode_token_allocates_only_its_logits() {
    let cfg = TransformerConfig { max_seq: 64, ..TransformerConfig::tiny_gpt() };
    let tokens: Vec<Vec<f64>> = inputs(16, cfg.d_model)
        .into_iter()
        .map(|x| x.iter().map(|v| 2.0 * v - 1.0).collect())
        .collect();
    let mut gpt = PhotonicTransformer::try_new(cfg).unwrap();
    gpt.try_decode_token(&tokens[0]).unwrap();
    // Positions 1..16 share the first 16-row band of every K/V bank.
    for (t, x) in tokens.iter().enumerate().skip(1) {
        let mut logits = Vec::new();
        let n = allocs_of(|| logits = gpt.try_decode_token(x).unwrap());
        assert_eq!(n, 1, "decode token {t}: only the returned logits may allocate");
        assert_eq!(logits.len(), 24);
    }
}

/// Heap bounds of freshly built devices, 7–9 % above what they hold:
/// a 16×16 bank holds 22,928 bytes, the stat-on `[64, 16, 10]` MLP
/// 184,677 and the digit CNN 128,757. Each ring of a bank carries only its
/// GST cell's mutable state (48 B with the cell's read and energy tallies),
/// and the bank keeps one copy of the ring design and GST recipe for all
/// of them; when every ring embedded its own copies, the three held
/// 49,552, 317,677 and 261,757 bytes.
const BANK_HEAP: u64 = 24 * 1024;
const STAT_MLP_HEAP: u64 = 196 * 1024;
const CNN_HEAP: u64 = 137 * 1024;

#[test]
fn built_bank_heap_is_bounded() {
    // The first bank of a recipe calibrates the process-wide LUT memo;
    // later banks only share it, so build one before measuring.
    WeightBank::new(16, 16, GstParameters::default());
    let (_bank, held) = heap_held(|| WeightBank::new(16, 16, GstParameters::default()));
    assert!(held <= BANK_HEAP, "a fresh 16×16 bank holds {held} B (bound {BANK_HEAP})");
}

/// The engines `classify` keeps live: the MLP with the statistical layer
/// on, and the digit CNN.
#[test]
fn built_classify_engines_heap_is_bounded() {
    WeightBank::new(16, 16, GstParameters::default());
    let opts = EngineOptions { seed: 11, stat: Some(StatParams::default()), ..Default::default() };
    let (_mlp, mlp) = heap_held(|| PhotonicMlp::try_with_options(&[64, 16, 10], opts).unwrap());
    assert!(mlp <= STAT_MLP_HEAP, "a fresh stat [64, 16, 10] MLP holds {mlp} B");
    let (_cnn, cnn) = heap_held(|| PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8));
    assert!(cnn <= CNN_HEAP, "a fresh 8×8 digit CNN holds {cnn} B (bound {CNN_HEAP})");
}
