//! Golden-snapshot regression harness (PR 5).
//!
//! Each test serializes one paper artifact to a **stable JSON** document
//! (floats printed with `{:?}` — Rust's shortest round-trip form, so a
//! value reproduces byte-for-byte or the diff shows exactly where it
//! moved) and compares it against a checked-in snapshot under
//! `tests/golden/`. On mismatch the failure message is a readable
//! unified diff, golden on the `-` side, the fresh run on the `+` side.
//!
//! To accept intentional changes, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_snapshots
//! ```
//!
//! and commit the rewritten `tests/golden/*.json` alongside the model
//! change that motivated them.

#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::PathBuf;
use trident::arch::dfa::{train_dfa, DfaFeedback};
use trident::arch::engine::EngineOptions;
use trident::arch::fidelity;
use trident::arch::transformer::{PhotonicTransformer, TransformerConfig};
use trident::arch::{PhotonicCnn, PhotonicMlp};
use trident::experiments as ex;
use trident::nn::data::synthetic_digits;
use trident::obs::export::json_string;
use trident::pcm::stat::StatParams;
use trident::workload::dataflow::DataflowModel;
use trident::workload::zoo;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// A minimal unified diff (3 lines of context) over an LCS of lines.
/// Snapshots are a few hundred lines at most, so the quadratic DP table
/// is immaterial.
fn unified_diff(golden: &str, actual: &str) -> String {
    let a: Vec<&str> = golden.lines().collect();
    let b: Vec<&str> = actual.lines().collect();
    // LCS table: lcs[i][j] = length of LCS of a[i..] and b[j..].
    let mut lcs = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    // Walk the table into an edit script of (tag, line) pairs.
    let (mut i, mut j) = (0, 0);
    let mut script: Vec<(char, &str)> = Vec::new();
    while i < a.len() && j < b.len() {
        if a[i] == b[j] {
            script.push((' ', a[i]));
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            script.push(('-', a[i]));
            i += 1;
        } else {
            script.push(('+', b[j]));
            j += 1;
        }
    }
    script.extend(a[i..].iter().map(|&l| ('-', l)));
    script.extend(b[j..].iter().map(|&l| ('+', l)));

    // Group changed runs into hunks with up to 3 context lines each side.
    const CTX: usize = 3;
    let changed: Vec<usize> =
        script.iter().enumerate().filter(|(_, (t, _))| *t != ' ').map(|(k, _)| k).collect();
    if changed.is_empty() {
        return String::from("(no line-level differences — whitespace or trailing newline)");
    }
    let mut out = String::from("--- golden\n+++ actual\n");
    let mut hunk_start = changed[0].saturating_sub(CTX);
    let mut hunk_end = (changed[0] + CTX + 1).min(script.len());
    let flush = |start: usize, end: usize, out: &mut String| {
        // Line numbers for the @@ header (1-based, count per side).
        let old_start = script[..start].iter().filter(|(t, _)| *t != '+').count() + 1;
        let new_start = script[..start].iter().filter(|(t, _)| *t != '-').count() + 1;
        let old_len = script[start..end].iter().filter(|(t, _)| *t != '+').count();
        let new_len = script[start..end].iter().filter(|(t, _)| *t != '-').count();
        let _ = writeln!(out, "@@ -{old_start},{old_len} +{new_start},{new_len} @@");
        for (tag, line) in &script[start..end] {
            let _ = writeln!(out, "{tag}{line}");
        }
    };
    for &k in &changed[1..] {
        let start = k.saturating_sub(CTX);
        if start <= hunk_end {
            hunk_end = (k + CTX + 1).min(script.len());
        } else {
            flush(hunk_start, hunk_end, &mut out);
            hunk_start = start;
            hunk_end = (k + CTX + 1).min(script.len());
        }
    }
    flush(hunk_start, hunk_end, &mut out);
    out
}

/// Compare `actual` against the named snapshot, regenerating it when
/// `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run UPDATE_GOLDEN=1 cargo test \
             --test golden_snapshots to create it",
            path.display()
        )
    });
    assert!(
        golden == actual,
        "golden snapshot {name} drifted:\n{}",
        unified_diff(&golden, actual)
    );
}

fn table4_json() -> String {
    let mut out = String::from("{\n  \"table\": \"IV\",\n  \"rows\": [\n");
    let rows = ex::table4::run();
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": {}, \"tops\": {:?}, \"watts\": {:?}, \
                 \"tops_per_watt\": {:?}, \"supports_training\": {}}}",
                json_string(&r.name),
                r.tops,
                r.watts,
                r.tops_per_watt,
                r.supports_training
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn table5_json() -> String {
    let mut out = String::from("{\n  \"table\": \"V\",\n  \"rows\": [\n");
    let rows = ex::table5::run();
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"model\": {}, \"xavier_seconds\": {:?}, \
                 \"trident_seconds\": {:?}, \"percent_change\": {:?}}}",
                json_string(&r.model),
                r.xavier_seconds,
                r.trident_seconds,
                r.percent_change
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn fidelity_json() -> String {
    // The same seeded configuration the thread-determinism test pins, so
    // one golden file guards both the value and its thread-invariance.
    let rep = fidelity::measure(16, 8, 12, true, 42);
    format!(
        "{{\n  \"artifact\": \"fidelity_enob\",\n  \"trials\": {},\n  \
         \"rms_error\": {:?},\n  \"max_error\": {:?},\n  \"effective_bits\": {:?}\n}}\n",
        rep.trials, rep.rms_error, rep.max_error, rep.effective_bits
    )
}

fn dataflow_json() -> String {
    let dataflow = DataflowModel::trident_paper();
    let mut out = String::from("{\n  \"artifact\": \"dataflow_map\",\n  \"models\": [\n");
    let body: Vec<String> = zoo::paper_models()
        .iter()
        .map(|model| {
            let m = dataflow.map_model(model);
            format!(
                "    {{\"model\": {}, \"layers\": {}, \"total_macs\": {}, \
                 \"total_tiles\": {}, \"total_passes\": {}, \"total_weight_writes\": {}}}",
                json_string(&m.model_name),
                m.layers.len(),
                m.total_macs(),
                m.total_tiles(),
                m.total_passes(),
                m.total_weight_writes()
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn ablation_drift_json() -> String {
    // Small configuration (2 digits per class, 1 trial) — enough to pin
    // the full statistical pipeline (programming noise, drift, reference
    // compensation, dual adaptive training) bit-for-bit without turning
    // the snapshot job into a training benchmark.
    let rows = ex::ablations::drift::run(ex::ablations::drift::HOUR_POINTS, 2, 1).unwrap();
    let mut out = String::from("{\n  \"artifact\": \"ablation_drift\",\n  \"rows\": [\n");
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"hours\": {:?}, \"baseline\": {:?}, \"uncompensated\": {:?}, \
                 \"compensated\": {:?}, \"adaptive\": {:?}, \"trials\": {}}}",
                r.hours,
                r.baseline_accuracy,
                r.uncompensated_accuracy,
                r.compensated_accuracy,
                r.adaptive_accuracy,
                r.trials
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn ablation_faults_json() -> String {
    // The drift golden's small configuration: 2 digits per class, 1 chip.
    let rows = ex::ablations::faults::run(ex::ablations::faults::STUCK_RATES, 2, 1).unwrap();
    let mut out = String::from("{\n  \"artifact\": \"ablation_faults\",\n  \"rows\": [\n");
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"hard_fault_rate\": {:?}, \"hard_fault_fraction\": {:?}, \
                 \"ideal\": {:?}, \"faulted\": {:?}, \"finetuned\": {:?}, \
                 \"write_failures\": {:?}, \"remapped\": {:?}, \"masked\": {:?}, \
                 \"trials\": {}}}",
                r.plan.hard_fault_rate(),
                r.hard_fault_fraction,
                r.ideal_accuracy,
                r.faulted_accuracy,
                r.finetuned_accuracy,
                r.write_failures,
                r.remapped,
                r.masked,
                r.trials
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn ablation_variation_json() -> String {
    let rows = ex::ablations::variation::run(ex::ablations::variation::SIGMAS_NM, 2, 1).unwrap();
    let mut out = String::from("{\n  \"artifact\": \"ablation_variation\",\n  \"rows\": [\n");
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"sigma_nm\": {:?}, \"ideal\": {:?}, \"deployed\": {:?}, \
                 \"finetuned\": {:?}, \"trials\": {}}}",
                r.sigma_nm, r.ideal_accuracy, r.deployed_accuracy, r.finetuned_accuracy, r.trials
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// FNV-1a over the bit pattern of every weight, layer by layer.
fn weight_digest<'a>(layers: impl IntoIterator<Item = &'a [f64]>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in layers.into_iter().flatten() {
        for byte in w.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn training_row(path: &str, losses: &[f64], digest: &str, ledgers: [f64; 3]) -> String {
    let [total, programming, elapsed] = ledgers.map(f64::to_bits);
    let (path, digest) = (json_string(path), json_string(digest));
    format!(
        "    {{\"path\": {path}, \"losses\": {losses:?}, \"weights\": {digest}, \
         \"total_energy_bits\": {total}, \"programming_energy_bits\": {programming}, \
         \"elapsed_bits\": {elapsed}}}"
    )
}

fn training_paths_json() -> String {
    // Every in-situ training path on the same 20-image digit set, two
    // epochs each. Live receiver noise makes any change in a PE's call
    // sequence visible in the weights and the ledgers.
    let data = synthetic_digits(2, 0.05, 99);
    let xs: Vec<Vec<f64>> = (0..data.len())
        .map(|i| data.inputs.row(i).iter().map(|&v| f64::from(v)).collect())
        .collect();
    let labels = &data.labels;
    let dims = [64, 16, 10];
    let mlp_row = |path: &str, engine: &PhotonicMlp, losses: &[f64]| {
        let digest = weight_digest((0..engine.layer_count()).map(|k| engine.layer_weights(k)));
        let ledgers = [
            engine.total_energy().value(),
            engine.chip().programming_energy().value(),
            engine.total_elapsed().value(),
        ];
        training_row(path, losses, &digest, ledgers)
    };
    let mut rows = Vec::new();

    let opts = |seed| EngineOptions { seed, noise_seed: Some(5), ..Default::default() };
    let mut bp = PhotonicMlp::try_with_options(&dims, opts(11)).unwrap();
    let outcome = bp.try_train(&xs, labels, 0.1, 2).unwrap();
    rows.push(mlp_row("backprop", &bp, &outcome.loss_history));

    let mut batched = PhotonicMlp::try_with_options(&dims, opts(11)).unwrap();
    let outcome = batched.try_train_batched(&xs, labels, 0.1, 2, 4).unwrap();
    rows.push(mlp_row("batched_backprop", &batched, &outcome.loss_history));

    let mut dfa = PhotonicMlp::try_with_options(&dims, opts(7)).unwrap();
    let mut feedback = DfaFeedback::for_engine(&dfa, 41);
    let losses = train_dfa(&mut dfa, &mut feedback, &xs, labels, 0.3, 2).unwrap();
    rows.push(mlp_row("dfa", &dfa, &losses));

    let mut cnn = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8);
    let losses = cnn.try_train_batched(&xs, labels, 0.1, 2, 1).unwrap();
    let digest = weight_digest([cnn.conv_weights(), cnn.dense_weights()]);
    let ledgers = [
        cnn.total_energy().value(),
        cnn.chip().programming_energy().value(),
        cnn.total_elapsed().value(),
    ];
    rows.push(training_row("cnn", &losses, &digest, ledgers));

    format!(
        "{{\n  \"artifact\": \"training_paths\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

fn transformer_perf_json() -> String {
    let mut out = String::from("{\n  \"artifact\": \"transformer_perf\",\n  \"rows\": [\n");
    let rows = ex::transformer::run_perf();
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"model\": {}, \"gmacs\": {:?}, \"mparams\": {:?}, \
                 \"latency_ms\": {:?}, \"energy_mj\": {:?}, \"inf_per_s\": {:?}}}",
                json_string(&r.model),
                r.gmacs,
                r.mparams,
                r.latency_ms,
                r.energy_mj,
                r.inf_per_s
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn transformer_kv_json() -> String {
    let r = ex::transformer::run_kv();
    format!(
        "{{\n  \"artifact\": \"transformer_kv\",\n  \"plan\": {{\"d_model\": {}, \
         \"layers\": {}, \"tokens\": {}}},\n  \"measured_writes\": {},\n  \
         \"measured_reads\": {},\n  \"expected_writes\": {},\n  \"expected_reads\": {},\n  \
         \"vit_max_err\": {:?},\n  \"gpt_max_err\": {:?}\n}}\n",
        r.plan.d_model,
        r.plan.layers,
        r.plan.tokens,
        r.measured_writes,
        r.measured_reads,
        r.expected_writes,
        r.expected_reads,
        r.vit_max_err,
        r.gpt_max_err
    )
}

/// FNV-1a over the bit pattern of every logit, vector by vector.
fn logit_digest<'a>(rows: impl IntoIterator<Item = &'a Vec<f64>>) -> String {
    weight_digest(rows.into_iter().map(Vec::as_slice))
}

fn transformer_seq(d_model: usize, tokens: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..tokens * d_model).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// The digests, ledger bits and KV tallies of one transformer row.
fn transformer_row(label: &str, digests: &[(String, String)], tx: &PhotonicTransformer) -> String {
    let digests: Vec<String> =
        digests.iter().map(|(k, v)| format!("{}: {}", json_string(k), json_string(v))).collect();
    let ledger: Vec<String> = tx
        .energy_ledger()
        .iter()
        .map(|(item, pj)| format!("{}: {}", json_string(item), pj.value().to_bits()))
        .collect();
    format!(
        "    {{\"model\": {}, \"digests\": {{{}}}, \"total_energy_bits\": {}, \
         \"elapsed_bits\": {}, \"kv_writes\": {}, \"kv_reads\": {}, \"ledger\": {{{}}}}}",
        json_string(label),
        digests.join(", "),
        tx.total_energy().value().to_bits(),
        tx.total_elapsed().value().to_bits(),
        tx.kv_cache_writes(),
        tx.kv_cache_reads(),
        ledger.join(", ")
    )
}

fn transformer_paths_json() -> String {
    // Every transformer schedule — encoder classify and batch, causal
    // prefill, KV-cache decode, a prefill after compensation — with and
    // without the statistical layer. Stat read noise makes any change in
    // a bank's call order visible in the logits; the ledger bits catch a
    // reordered or missing digital charge. The wide models run every
    // projection over several column tiles and every K/Vᵀ bank over
    // several tiles.
    let wide = |cfg| TransformerConfig { d_model: 48, heads: 3, d_ff: 40, max_seq: 40, ..cfg };
    let mut rows = Vec::new();
    for (shape, vit_seqs, gpt_seq) in [("", [8, 7, 6], 20), ("_wide", [40, 39, 17], 40)] {
        let sized = |cfg| if shape.is_empty() { cfg } else { wide(cfg) };
        for stat in [None, Some(StatParams::default())] {
            let suffix = format!("{shape}{}", if stat.is_some() { "_stat" } else { "" });

            let cfg = TransformerConfig { stat, ..sized(TransformerConfig::tiny_vit()) };
            let mut vit = PhotonicTransformer::try_new(cfg.clone()).unwrap();
            let seqs: Vec<Vec<f64>> = vit_seqs
                .iter()
                .map(|&n| transformer_seq(cfg.d_model, n, 100 + n as u64))
                .collect();
            let mut digests = Vec::new();
            for x in &seqs {
                let tokens = x.len() / cfg.d_model;
                let photonic = vit.try_forward_classify(x).unwrap();
                let twin = vit.digital_forward_classify(x).unwrap();
                digests.push((format!("classify_{tokens}"), logit_digest([&photonic])));
                digests.push((format!("twin_{tokens}"), logit_digest([&twin])));
            }
            let batch = vit.try_forward_batch(&seqs).unwrap().to_vec();
            digests.push(("batch".into(), logit_digest(&batch)));
            rows.push(transformer_row(&format!("vit{suffix}"), &digests, &vit));

            let cfg =
                TransformerConfig { stat, max_seq: gpt_seq, ..sized(TransformerConfig::tiny_gpt()) };
            let mut gpt = PhotonicTransformer::try_new(cfg.clone()).unwrap();
            let x = transformer_seq(cfg.d_model, cfg.max_seq, 7);
            let mut digests = Vec::new();
            digests.push(("prefill".into(), logit_digest(&gpt.try_forward_causal(&x).unwrap())));
            digests.push(("twin".into(), logit_digest(&gpt.digital_forward_causal(&x).unwrap())));
            for round in ["decode_1", "decode_2"] {
                gpt.reset_cache();
                let logits: Vec<Vec<f64>> =
                    x.chunks(cfg.d_model).map(|tok| gpt.try_decode_token(tok).unwrap()).collect();
                digests.push((round.into(), logit_digest(&logits)));
            }
            gpt.chip_mut().calibrate_drift_compensation();
            let short = &x[..5 * cfg.d_model];
            let calibrated = gpt.try_forward_causal(short).unwrap();
            digests.push(("calibrated_prefill".into(), logit_digest(&calibrated)));
            rows.push(transformer_row(&format!("gpt{suffix}"), &digests, &gpt));
        }
    }
    format!(
        "{{\n  \"artifact\": \"transformer_paths\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

#[test]
fn golden_table4() {
    check_golden("table4.json", &table4_json());
}

#[test]
fn golden_table5() {
    check_golden("table5.json", &table5_json());
}

#[test]
fn golden_fidelity_enob() {
    check_golden("fidelity_enob.json", &fidelity_json());
}

#[test]
fn golden_dataflow_map() {
    check_golden("dataflow_map.json", &dataflow_json());
}

#[test]
fn golden_ablation_drift() {
    check_golden("ablation_drift.json", &ablation_drift_json());
}

#[test]
fn golden_ablation_faults() {
    check_golden("ablation_faults.json", &ablation_faults_json());
}

#[test]
fn golden_ablation_variation() {
    check_golden("ablation_variation.json", &ablation_variation_json());
}

#[test]
fn golden_training_paths() {
    check_golden("training_paths.json", &training_paths_json());
}

#[test]
fn golden_transformer_perf() {
    check_golden("transformer_perf.json", &transformer_perf_json());
}

#[test]
fn golden_transformer_paths() {
    check_golden("transformer_paths.json", &transformer_paths_json());
}

#[test]
fn golden_transformer_kv() {
    check_golden("transformer_kv.json", &transformer_kv_json());
}

/// The statistical device layer must default to OFF everywhere the paper
/// tables are produced: `EngineOptions::default()` carries no
/// `StatParams`, so every pre-existing artifact (Tables IV/V, the
/// fidelity and dataflow snapshots, all non-drift ablations) renders
/// through the exactly deterministic path and stays byte-identical.
#[test]
fn statistical_layer_defaults_off() {
    assert!(EngineOptions::default().stat.is_none(), "stat layer crept into the defaults");
    let engine = PhotonicMlp::try_with_options(&[8, 4], EngineOptions::default()).unwrap();
    assert!(!engine.chip().stat_enabled(), "default engine must not carry statistical banks");
}

#[test]
fn unified_diff_is_readable() {
    let golden = "a\nb\nc\nd\ne\nf\ng\n";
    let actual = "a\nb\nc\nD\ne\nf\ng\n";
    let d = unified_diff(golden, actual);
    assert!(d.contains("--- golden"), "{d}");
    assert!(d.contains("-d"), "{d}");
    assert!(d.contains("+D"), "{d}");
    assert!(d.contains("@@ -1,7 +1,7 @@"), "{d}");
    // Unchanged far-away lines stay out of the hunk.
    let golden2 = "1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n";
    let actual2 = "1\n2\n3\n4\n5\n6\n7\n8\n9\nX\n";
    let d2 = unified_diff(golden2, actual2);
    assert!(!d2.contains(" 1\n"), "leading context should be clipped: {d2}");
    assert!(d2.contains("-10"), "{d2}");
    assert!(d2.contains("+X"), "{d2}");
}
