//! Thread-count determinism regression (ISSUE 4): every paper artifact —
//! and every executor-backed experiment feeding them — must be byte- (or
//! bit-) identical whether the pool runs 1 or 8 threads. The executor
//! guarantees this by collecting parallel results in item order and
//! folding reductions sequentially; this test pins the guarantee at the
//! experiment layer, where a violation would silently corrupt the
//! reproduction.
//!
//! Each check renders once under `TRIDENT_THREADS=1` semantics (the exact
//! sequential path) and once at 8 threads via the pool override. The
//! override is process-global, so everything lives in one `#[test]` —
//! separate test functions would race on it.

use rayon::pool;
use trident::arch::{design_space, fidelity};
use trident::experiments as ex;
use trident::workload::dataflow::DataflowModel;
use trident::workload::zoo;

fn at_threads<T>(threads: usize, run: impl Fn() -> T) -> T {
    pool::set_thread_override(Some(threads));
    let result = run();
    pool::set_thread_override(None);
    result
}

#[test]
fn artifacts_identical_at_1_and_8_threads() {
    // Table IV/V — the headline comparison tables.
    for render in [ex::table4::render, ex::table5::render] {
        assert_eq!(at_threads(1, render), at_threads(8, render), "table render drifted");
    }

    // Monte-Carlo fidelity: f64 RMS/max reductions over parallel trials.
    let serial = at_threads(1, || fidelity::measure(16, 8, 12, true, 42));
    let parallel = at_threads(8, || fidelity::measure(16, 8, 12, true, 42));
    assert_eq!(serial.rms_error.to_bits(), parallel.rms_error.to_bits());
    assert_eq!(serial.max_error.to_bits(), parallel.max_error.to_bits());
    assert_eq!(serial.effective_bits.to_bits(), parallel.effective_bits.to_bits());

    // Design-space sweep: parallel geometry fan-out, ordered collect.
    let models = [zoo::googlenet(), zoo::mobilenet_v2()];
    let geometries = [(8usize, 8usize), (16, 16), (24, 8)];
    let sweep = |threads| {
        at_threads(threads, || design_space::sweep_geometries(&geometries, 30.0, &models))
    };
    assert_eq!(sweep(1), sweep(8), "design-space sweep drifted across thread counts");

    // Dataflow mapping: parallel filter-map over model layers.
    let df = DataflowModel::trident_paper();
    let resnet = zoo::resnet50();
    let serial_map = at_threads(1, || df.map_model(&resnet));
    let parallel_map = at_threads(8, || df.map_model(&resnet));
    assert_eq!(serial_map, parallel_map, "dataflow mapping drifted across thread counts");

    // The in-situ training ablations. Variation and faults run on the
    // shared deployment-study runner: nested parallel fan-out (points ×
    // chips) with trial-ordered folds. DFA vs backprop drives both error
    // sources of the engine's one backward walk.
    for (name, render) in [
        ("variation", ex::ablations::variation::render as fn(usize, usize) -> String),
        ("faults", ex::ablations::faults::render),
        ("dfa_vs_bp", ex::ablations::dfa_vs_bp::render),
    ] {
        let run = |threads| at_threads(threads, || render(2, 2));
        assert_eq!(run(1), run(8), "{name} ablation drifted across thread counts");
    }

    // The transformer sections: analytical perf rows plus a full tiny-GPT
    // decode and tiny-ViT classify on the functional simulator — chained
    // MVMs, KV banding, LDSU softmax/LayerNorm — all on seeded state.
    for render in [ex::transformer::render_perf, ex::transformer::render_kv] {
        let reference = at_threads(1, render);
        for threads in [2usize, 8] {
            assert_eq!(
                reference,
                at_threads(threads, render),
                "transformer section drifted at {threads} threads"
            );
        }
    }
}
