//! Tests of the benchmark itself: the registry against `BENCHMARK.json`,
//! smoke-sized runs of every workload, determinism of the simulated
//! metrics, and checks that fire on tampered outputs.

use crate::harness::{Ledger, Report, Size, StepCx};
use crate::json::{self, Value};
use crate::registry::{self, END_TO_END, WORKLOADS};
use crate::{classify, decode, reported_metrics, result_line, run_workload, serve, train};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Runs share the process-global obs switch, recorder and executor
/// override, so tests that run a workload take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const SMOKE: Size = Size {
    setup_reps: 1,
    seconds: 0.0,
    smoke: true,
};

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn smoke(workload: &str, traced: bool) -> Report {
    run_workload(workload, 7, &SMOKE, traced).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn text(v: &Value, key: &str) -> String {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key} is not a string"))
        .to_string()
}

#[test]
fn registry_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = field(&doc, "workloads").as_array().expect("array");
    let named: Vec<(String, String)> = workloads
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let expected: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(named, expected);
    assert!(named
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    let e2e = field(&doc, "end_to_end").as_array().expect("array");
    assert!(!e2e.is_empty() && e2e.len() <= 16);
    assert_eq!(e2e.len(), END_TO_END.len());
    for (v, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(text(v, "name"), m.name);
        assert_eq!(text(v, "unit"), m.unit);
        assert_eq!(text(v, "better"), m.better.key());
        let bound = field(v, "bound").as_f64().expect("bound");
        assert_eq!(Some(bound), m.bound, "{}", m.name);
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", registry::Better::Lower));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let layers = field(&doc, "per_layer").as_array().expect("array");
    let registry = registry::per_layer();
    assert!(!layers.is_empty() && layers.len() <= 128);
    assert_eq!(layers.len(), registry.len());
    for (v, (name, unit, better)) in layers.iter().zip(&registry) {
        assert_eq!(&text(v, "name"), name);
        assert_eq!(text(v, "unit"), *unit);
        assert_eq!(text(v, "better"), better.key());
        assert!(
            v.get("bound").is_none(),
            "{name}: per-layer metrics carry no bound"
        );
    }

    let mut names = BTreeSet::new();
    for (name, unit) in END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .chain(registry.iter().map(|(n, u, _)| (n.clone(), *u)))
        .chain(WORKLOADS.iter().map(|(n, _)| (n.to_string(), "count")))
    {
        assert!(valid_name(&name), "bad name {name}");
        assert!(valid_unit(unit), "bad unit {unit}");
        assert!(names.insert(name.clone()), "{name} is used twice");
    }
}

/// Per-layer metrics each workload must move (non-zero in a traced
/// smoke run), and ones it must leave at zero.
fn declared_layers(workload: &str) -> (Vec<&'static str>, Vec<&'static str>) {
    match workload {
        "classify" => (
            vec![
                "arch.mlp.forward_batch.us_per_call",
                "arch.cnn.forward_batch.us_per_call",
                "engine.forward_batch.self_us_per_item",
                "forward.layer0.self_us_per_item",
                "forward.layer1.self_us_per_item",
                "photonics.mac_ops.per_item",
                "pcm.reads.per_item",
                "pcm.stat_noise_samples.per_item",
                "sim.forward_layer_ns.per_item",
                "sim.energy.mrr_read.pj_per_item",
                "sim.energy.unitemized.pj_per_item",
                "nn.data.synthetic_digits.us_per_call",
                "arch.mlp.pretrain.us_per_call",
                "arch.mlp.deploy.us_per_call",
                "arch.mlp.age_and_calibrate.us_per_call",
                "arch.cnn.build.us_per_call",
                "setup.pcm.writes",
                "obs.trace_overhead_ratio",
            ],
            vec![
                "pcm.writes.per_item",
                "serve.run.self_us_per_item",
                "obs.spans_dropped",
            ],
        ),
        "train" => (
            vec![
                "arch.mlp.train_sample.us_per_call",
                "arch.cnn.train_sample.us_per_call",
                "engine.train_sample.self_us_per_item",
                "engine.forward.self_us_per_item",
                "backward.layer0.outer_product.self_us_per_item",
                "backward.layer1.outer_product.self_us_per_item",
                "backward.layer1.gradient_vector.self_us_per_item",
                "pcm.writes.per_item",
                "pcm.write_pj.per_item",
                "sim.backward_layer_ns.per_item",
                "sim.energy.gst_write.pj_per_item",
                "arch.mlp.pretrain.us_per_call",
                "arch.mlp.deploy.us_per_call",
            ],
            vec!["pcm.stat_noise_samples.per_item", "obs.spans_dropped"],
        ),
        "decode" => (
            vec![
                "arch.transformer.decode_token.us_per_call",
                "arch.transformer.decode_token.pos_00_15.us_per_call",
                "arch.transformer.decode_token.pos_48_63.us_per_call",
                "arch.transformer.reset_cache.us_per_call",
                "arch.transformer.build.us_per_call",
                "arch.transformer.kv_writes.per_item",
                "arch.transformer.kv_reads.per_item",
                "pcm.ldsu.softmax_rows.per_item",
                "pcm.ldsu.layer_norm_rows.per_item",
                "sim.energy.ldsu_softmax.pj_per_item",
            ],
            vec!["serve.batch_fill", "obs.spans_dropped"],
        ),
        "serve" => (
            vec![
                "serve.sim.run.us_per_call",
                "serve.sim.run_vit.us_per_call",
                "serve.fleet.try_build.us_per_call",
                "serve.fleet.try_build_vit.us_per_call",
                "serve.traffic.generate_arrivals.us_per_call",
                "serve.frontend.prepare_requests.us_per_call",
                "serve.run.self_us_per_item",
                "serve.dispatch.self_us_per_item",
                "serve.batch_fill",
                "serve.sim_p99_us",
                "serve.sim_goodput_ratio",
                "serve.ia_100ns.sim_p99_us",
                "serve.vit.sim_p99_us",
                "sim.energy.unitemized.pj_per_item",
            ],
            vec!["arch.transformer.kv_writes.per_item", "obs.spans_dropped"],
        ),
        other => panic!("no declaration for {other}"),
    }
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let _guard = serial();
    for (workload, _) in WORKLOADS {
        let plain = smoke(workload, false);
        assert!(plain.correct(), "{workload}: {:?}", plain.ledger.notes);
        let metrics = reported_metrics(&plain, false);
        assert_eq!(metrics.len(), END_TO_END.len());
        for m in END_TO_END {
            let v = plain.end_to_end.get(m.name).copied().unwrap_or(f64::NAN);
            assert!(v.is_finite() && v > 0.0, "{workload}: {} = {v}", m.name);
        }
        let line = json::parse(&result_line(&plain, &metrics)).expect("result line is JSON");
        let keys: Vec<&str> = line
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

        let traced = smoke(workload, true);
        assert!(
            traced.correct(),
            "{workload} traced: {:?}",
            traced.ledger.notes
        );
        let layers = reported_metrics(&traced, true);
        assert_eq!(layers.len(), registry::per_layer().len());
        assert!(
            layers.values().all(|(v, _)| v.is_finite()),
            "{workload}: {layers:?}"
        );
        let (moved, zero) = declared_layers(workload);
        for name in moved {
            assert!(
                layers[name].0 > 0.0,
                "{workload}: {name} should be non-zero"
            );
        }
        for name in zero {
            assert_eq!(layers[name].0, 0.0, "{workload}: {name} should be zero");
        }
        assert!(
            !traced.trace_events.is_empty(),
            "{workload}: the trace holds no span"
        );
    }
}

#[test]
fn simulated_metrics_ignore_threads_and_tracing() {
    let _guard = serial();
    for (workload, _) in WORKLOADS {
        rayon::pool::set_thread_override(Some(1));
        let one = smoke(workload, false);
        rayon::pool::set_thread_override(Some(2));
        let two = smoke(workload, false);
        let traced = smoke(workload, true);
        rayon::pool::set_thread_override(None);
        let sim = |r: &Report| format!("{:?}", r.sim);
        assert_eq!(sim(&one), sim(&two), "{workload}: 1 vs 2 threads");
        assert_eq!(
            one.digest, two.digest,
            "{workload}: digest at 1 vs 2 threads"
        );
        assert_eq!(sim(&one), sim(&traced), "{workload}: tracing off vs on");
        assert_eq!(
            one.digest, traced.digest,
            "{workload}: digest with tracing off vs on"
        );
    }
}

#[test]
fn non_finite_output_fails_the_run() {
    let mut cx = StepCx::default();
    cx.output("ok", &[1.0, -2.0]);
    assert_eq!(cx.ledger.failed, 0);
    cx.output("logits", &[0.5, f64::NAN]);
    cx.output("logits", &[f64::INFINITY]);
    assert_eq!(cx.ledger.failed, 2);
}

#[test]
fn serve_accounting_check_fires_on_a_tampered_report() {
    let _guard = serial();
    let report = smoke_serve_report();
    let mut clean = Ledger::default();
    serve::check_report("smoke", &report, &mut clean);
    assert_eq!(clean.failed, 0, "{:?}", clean.notes);

    let tampered = [
        |r: &mut trident::serve::ServeReport| r.shed += 1,
        |r: &mut trident::serve::ServeReport| r.on_time += 1,
        |r: &mut trident::serve::ServeReport| r.replicas[0].requests += 1,
    ];
    for tamper in tampered {
        let mut bad = report.clone();
        tamper(&mut bad);
        let mut ledger = Ledger::default();
        serve::check_report("smoke", &bad, &mut ledger);
        assert!(ledger.failed >= 1, "tampered report passed: {bad:?}");
    }
}

fn smoke_serve_report() -> trident::serve::ServeReport {
    use trident::serve::{sim, ArrivalProcess, ReplicaProfile, ServeConfig, Sharding};
    let dataset = (0..6)
        .map(|c| (vec![f64::from(c) / 6.0; 64], c as usize % 4))
        .collect();
    sim::run(&ServeConfig {
        scenario: "smoke".to_string(),
        seed: 3,
        dims: crate::models::MLP_DIMS.to_vec(),
        engine: trident::arch::engine::EngineOptions::default(),
        pretrained: None,
        dataset,
        replicas: (0..3).map(ReplicaProfile::with_seed).collect(),
        sharding: Sharding::ReplicaParallel,
        batch_max: 8,
        linger_ns: 5_000,
        slo_ns: 30_000,
        est_ns_per_item_init: 4_000,
        arrivals: ArrivalProcess::Poisson {
            mean_interarrival_ns: 60_000,
        },
        requests: 64,
        fault_events: Vec::new(),
    })
    .expect("smoke scenario runs")
}

#[test]
fn decode_check_fires_on_a_one_ulp_change() {
    let logits = vec![vec![0.25, -1.5, 3.0], vec![0.5, 0.125, -0.75]];
    let d = decode::Decoded {
        index: 0,
        tokens: Vec::new(),
        logits: logits.clone(),
    };
    let exact: Result<_, ()> = Ok(logits.clone());
    let mut ledger = Ledger::default();
    decode::check_sequence(&d, Some(&exact), &exact, &mut ledger);
    assert_eq!(ledger.failed, 0);

    let mut off = logits.clone();
    off[1][2] = f64::from_bits(off[1][2].to_bits() + 1);
    let mut ledger = Ledger::default();
    decode::check_sequence(&d, Some(&Ok(off.clone())), &exact, &mut ledger);
    assert_eq!(
        ledger.failed, 1,
        "one ulp off the recompute must fail the bitwise check"
    );

    let mut far = logits;
    far[0][0] += 2.0 * decode::DIGITAL_TOLERANCE;
    let mut ledger = Ledger::default();
    decode::check_sequence(&d, None, &Ok::<_, ()>(far), &mut ledger);
    assert_eq!(
        ledger.failed, 1,
        "a logit beyond tolerance of the digital twin must fail"
    );

    let mut ledger = Ledger::default();
    decode::check_sequence(&d, Some(&Err(())), &Err(()), &mut ledger);
    assert_eq!(ledger.failed, 2, "failed reference calls fail both checks");
}

#[test]
fn classify_check_fires_on_a_tampered_cnn_logit() {
    let images: Vec<Vec<f64>> = (0..3).map(|i| vec![f64::from(i) / 3.0; 64]).collect();
    let mut live = crate::models::cnn();
    let batched: Vec<Vec<f64>> = live.try_forward_batch(&images).expect("forward").to_vec();
    let mut twin = crate::models::cnn();
    let mut ledger = Ledger::default();
    classify::check_cnn_round(&mut twin, &images, &batched, &mut ledger);
    assert_eq!(ledger.failed, 0);

    let mut bad = batched;
    bad[2][4] = f64::from_bits(bad[2][4].to_bits() ^ 1);
    classify::check_cnn_round(&mut twin, &images, &bad, &mut ledger);
    assert_eq!(ledger.failed, 1);
}

#[test]
fn train_check_fires_at_chance() {
    let mut ledger = Ledger::default();
    train::check_above_chance(&Ok(0.4), &mut ledger);
    train::check_above_chance(&Ok(0.1), &mut ledger);
    train::check_above_chance(&Err("twin failed".to_string()), &mut ledger);
    assert_eq!((ledger.attempted, ledger.failed), (3, 2));
}

#[test]
fn run_arguments_are_validated() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = crate::parse_run_args(&args("--workload decode --seed 9 --seconds 2.5 --trace 1"))
        .expect("valid");
    assert_eq!(
        (ok.workload.as_str(), ok.seed, ok.seconds, ok.traced),
        ("decode", 9, 2.5, true)
    );
    for bad in [
        "--workload nope",
        "--workload decode --trace 2",
        "--workload decode --seed -1",
        "--workload decode --seconds",
        "--workload decode --seconds nan",
        "--workload decode --extra",
    ] {
        assert!(
            crate::parse_run_args(&args(bad)).is_err(),
            "{bad} must be rejected"
        );
    }
}

#[test]
fn compare_verdicts_follow_the_bounds() {
    use crate::compare::{exact_changes, parse_run, verdict, Run, Verdict};
    let items = END_TO_END
        .iter()
        .find(|m| m.name == "items_per_s")
        .expect("registered");
    let a = [100.0, 101.0, 99.0, 100.5, 99.5];
    assert_eq!(
        verdict(items, &a, &[100.2, 99.8, 100.1, 100.4, 99.6]),
        Verdict::Same
    );
    let bound = items.bound.expect("end-to-end metrics have bounds");
    let worse: Vec<f64> = a.iter().map(|v| v * (1.0 - 1.5 * bound)).collect();
    assert_eq!(verdict(items, &a, &worse), Verdict::Worse);
    assert_eq!(
        verdict(items, &a, &[110.0, 111.0, 109.0, 110.5, 109.5]),
        Verdict::Better
    );
    assert_eq!(
        verdict(items, &a, &[60.0, 140.0, 100.0, 70.0, 130.0]),
        Verdict::Unresolved
    );

    let report = Report::default();
    let metrics = reported_metrics(&report, false);
    let text = format!(
        "workload decode\nseed 4\ntrace 0\noutput_digest 00ff\n{}\n",
        result_line(&report, &metrics)
    );
    let run = parse_run(&text).expect("parses").expect("untraced");
    assert_eq!(
        (run.workload.as_str(), run.seed, run.digest.as_str()),
        ("decode", 4, "00ff")
    );
    assert_eq!(run.metrics.len(), END_TO_END.len());
    assert_eq!(parse_run(&text.replace("trace 0", "trace 1")), Ok(None));

    let mut moved: Run = run.clone();
    moved.metrics.insert("sim_accuracy".to_string(), 0.5);
    assert_eq!(
        exact_changes(std::slice::from_ref(&run), std::slice::from_ref(&run)),
        Vec::<String>::new()
    );
    assert_eq!(exact_changes(&[run], &[moved]).len(), 1);
}
