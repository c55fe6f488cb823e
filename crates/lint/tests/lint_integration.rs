//! End-to-end tests: the library API over fixture trees, and the
//! compiled `trident-lint` binary's exit codes and JSON output.

#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn repo_root() -> PathBuf {
    // crates/lint → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

#[test]
fn dirty_fixture_reports_every_rule() {
    let report = trident_lint::run(&fixture("dirty"), &[]).unwrap();
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    for rule in trident_lint::ALL_RULES {
        assert!(rules.contains(rule), "`{rule}` must fire on the dirty fixture: {rules:?}");
    }
    // The unwrap inside #[cfg(test)] must NOT be caught.
    let test_hits: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.scope.as_deref() == Some("test_code_may_unwrap"))
        .collect();
    assert!(test_hits.is_empty(), "test code is exempt: {test_hits:?}");
}

#[test]
fn dirty_fixture_determinism_findings_carry_caller_attribution() {
    let report = trident_lint::run(&fixture("dirty"), &[]).unwrap();
    // The HashMap inside `tally` is reached from `render_report`.
    let hash = report
        .findings
        .iter()
        .find(|f| f.rule == "det-hash-iter" && f.scope.as_deref() == Some("tally"))
        .expect("det-hash-iter in tally");
    assert!(
        hash.callers.contains(&"crates/arch/src/cache.rs::render_report".to_string()),
        "callers: {:?}",
        hash.callers
    );
    // The wall-clock read in `workload::timing::stamp_ns` is reached
    // cross-crate from `arch::cache::render_report`.
    let clock = report
        .findings
        .iter()
        .find(|f| f.rule == "det-wall-clock")
        .expect("det-wall-clock in stamp_ns");
    assert_eq!(clock.file, "crates/workload/src/timing.rs");
    assert!(
        clock.callers.contains(&"crates/arch/src/cache.rs::render_report".to_string()),
        "cross-crate attribution missing: {:?}",
        clock.callers
    );
}

#[test]
fn dirty_fixture_duplicate_stream_id_names_both_sources() {
    let report = trident_lint::run(&fixture("dirty"), &[]).unwrap();
    let dup = report
        .findings
        .iter()
        .find(|f| f.rule == "stream-dup")
        .expect("duplicated stream id must be caught");
    assert_eq!(dup.file, "crates/pcm/src/noise.rs");
    assert!(dup.message.contains("STREAM_FIX_PROG"), "{}", dup.message);
    assert!(dup.message.contains("STREAM_FIX_READ"), "{}", dup.message);
    let nonconst = report
        .findings
        .iter()
        .find(|f| f.rule == "stream-nonconst")
        .expect("computed stream address must be caught");
    assert_eq!(nonconst.scope.as_deref(), Some("rotating_noise"));
    assert!(nonconst.message.contains("source % 4"), "{}", nonconst.message);
}

#[test]
fn dirty_fixture_stateful_rng_is_flagged_only_in_the_device_model() {
    let report = trident_lint::run(&fixture("dirty"), &[]).unwrap();
    let hits: Vec<_> =
        report.findings.iter().filter(|f| f.rule == "stream-stateful-rng").collect();
    let at = |file: &str| hits.iter().filter(|f| f.file == file).count();
    // In pcm: both imports, the stored field, the construction and the
    // threaded parameter. In the chip: the `thread_rng` call.
    assert_eq!(at("crates/pcm/src/jitter.rs"), 5, "{hits:?}");
    assert_eq!(at("crates/arch/src/chip.rs"), 1, "{hits:?}");
    // The same idiom in weight init (outside the device model) and in
    // the pcm fixture's test module is not flagged.
    assert_eq!(hits.len(), 6, "{hits:?}");
    let stored = hits
        .iter()
        .find(|f| f.scope.as_deref() == Some("new"))
        .expect("the construction of the stored RNG");
    assert!(stored.message.contains("StdRng"), "{}", stored.message);
}

#[test]
fn dirty_fixture_hot_path_allocs_carry_entry_point_attribution() {
    let report = trident_lint::run(&fixture("dirty"), &[]).unwrap();
    let hits: Vec<_> =
        report.findings.iter().filter(|f| f.rule == "hot-path-alloc").collect();
    // Two idioms in the helper, one in the entry point itself.
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits.iter().all(|f| f.file == "crates/serve/src/hotpath.rs"), "{hits:?}");
    let helper = hits
        .iter()
        .find(|f| f.scope.as_deref() == Some("stage_buffers"))
        .expect("helper finding");
    assert!(
        helper.callers.contains(&"crates/serve/src/hotpath.rs::dispatch_into".to_string()),
        "the finding must name the entry point that reaches it: {:?}",
        helper.callers
    );
}

#[test]
fn rule_filter_limits_the_run() {
    let filter = trident_lint::RuleFilter::parse("stream").unwrap();
    let report = trident_lint::run_filtered(&fixture("dirty"), &[], &filter).unwrap();
    assert!(!report.findings.is_empty());
    assert!(
        report.findings.iter().all(|f| f.rule.starts_with("stream-")),
        "only stream rules may fire: {:?}",
        report.findings.iter().map(|f| f.rule).collect::<Vec<_>>()
    );
    assert_eq!(
        report.rules_run,
        ["stream-local-const", "stream-dup", "stream-nonconst", "stream-stateful-rng"]
    );
}

#[test]
fn clean_fixture_is_clean() {
    let report = trident_lint::run(&fixture("clean"), &[]).unwrap();
    assert!(report.is_clean(), "unexpected findings: {:?}", report.findings);
}

#[test]
fn allowlist_suppresses_and_reports_stale() {
    let allow = trident_lint::allowlist::parse(
        r#"
[[allow]]
file = "crates/photonics/src/energy.rs"
rules = ["no-panic", "no-cast", "no-bare-f64", "error-impl"]
reason = "fixture"

[[allow]]
file = "crates/arch/src/cache.rs"
rules = ["det-hash-iter"]
reason = "fixture"

[[allow]]
file = "crates/workload/src/timing.rs"
rules = ["det-wall-clock"]
reason = "fixture"

[[allow]]
file = "crates/serve/src/shards.rs"
rules = ["det-thread-env", "det-raw-thread"]
reason = "fixture"

[[allow]]
file = "crates/pcm/src/noise.rs"
rules = ["stream-local-const", "stream-dup", "stream-nonconst"]
reason = "fixture"

[[allow]]
file = "crates/serve/src/hotpath.rs"
rules = ["hot-path-alloc"]
reason = "fixture"

[[allow]]
file = "crates/pcm/src/jitter.rs"
rules = ["stream-stateful-rng"]
reason = "fixture"

[[allow]]
file = "crates/arch/src/chip.rs"
rules = ["stream-stateful-rng"]
reason = "fixture"

[[allow]]
file = "crates/photonics/src/nonexistent.rs"
rules = ["no-panic"]
reason = "stale"
"#,
    )
    .unwrap();
    let report = trident_lint::run(&fixture("dirty"), &allow).unwrap();
    assert!(report.is_clean());
    assert!(!report.allowed.is_empty());
    assert_eq!(report.stale_allows.len(), 1);
    assert_eq!(report.stale_allows[0].file, "crates/photonics/src/nonexistent.rs");
}

#[test]
fn binary_exits_nonzero_on_dirty_fixture_and_reports_both_seeds() {
    let out = Command::new(env!("CARGO_BIN_EXE_trident-lint"))
        .args(["--root"])
        .arg(fixture("dirty"))
        .args(["--format", "json", "--allowlist", "/dev/null"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "dirty tree must exit 1");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains("no-panic"), "unwrap finding missing from JSON: {json}");
    assert!(json.contains("no-bare-f64"), "bare-f64 finding missing from JSON: {json}");
    assert!(json.contains("\"scope\": \"last_reading_pj\""), "scope missing: {json}");
}

#[test]
fn binary_exits_zero_on_clean_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_trident-lint"))
        .args(["--root"])
        .arg(fixture("clean"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "clean tree must exit 0");
}

#[test]
fn binary_rejects_bad_usage_with_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_trident-lint"))
        .args(["--format", "yaml"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn binary_rules_flag_filters_and_rejects_unknown() {
    // Only the units family: the dirty tree's stream findings must not
    // appear and rules_run must list exactly the family's rules.
    let out = Command::new(env!("CARGO_BIN_EXE_trident-lint"))
        .args(["--root"])
        .arg(fixture("dirty"))
        .args(["--rules", "units", "--format", "json", "--allowlist", "/dev/null"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"rules_run\": [\"no-cast\", \"no-bare-f64\"]"), "{json}");
    assert!(!json.contains("stream-dup"), "filtered-out rule leaked: {json}");
    // Unknown rule name is a usage error.
    let bad = Command::new(env!("CARGO_BIN_EXE_trident-lint"))
        .args(["--rules", "no-such-rule"])
        .output()
        .expect("binary runs");
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn binary_check_allowlist_fails_on_stale_entries() {
    let dir = std::env::temp_dir().join("trident-lint-stale-test");
    std::fs::create_dir_all(&dir).unwrap();
    let allow = dir.join("stale-allow.toml");
    std::fs::write(
        &allow,
        "[[allow]]\nfile = \"crates/does/not/exist.rs\"\nrules = [\"no-panic\"]\nreason = \"stale\"\n",
    )
    .unwrap();
    // The clean fixture has no findings, so the only failure mode is
    // the stale entry — and it must fail only under --check-allowlist.
    let without = Command::new(env!("CARGO_BIN_EXE_trident-lint"))
        .args(["--root"])
        .arg(fixture("clean"))
        .args(["--allowlist"])
        .arg(&allow)
        .output()
        .expect("binary runs");
    assert_eq!(without.status.code(), Some(0), "stale entries alone don't fail a plain run");
    let with = Command::new(env!("CARGO_BIN_EXE_trident-lint"))
        .args(["--root"])
        .arg(fixture("clean"))
        .args(["--allowlist"])
        .arg(&allow)
        .arg("--check-allowlist")
        .output()
        .expect("binary runs");
    assert_eq!(with.status.code(), Some(1), "--check-allowlist must fail on stale entries");
    let err = String::from_utf8_lossy(&with.stderr);
    assert!(err.contains("stale"), "{err}");
}

#[test]
fn binary_check_allowlist_passes_on_the_real_repo() {
    let out = Command::new(env!("CARGO_BIN_EXE_trident-lint"))
        .args(["--root"])
        .arg(repo_root())
        .arg("--check-allowlist")
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "repo allowlist has debt:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn check_allowlist_ignores_entries_for_rules_not_run() {
    // Under --rules, entries exempting disabled rules never get a chance
    // to match; they must not be reported as stale debt.
    let out = Command::new(env!("CARGO_BIN_EXE_trident-lint"))
        .args(["--root"])
        .arg(repo_root())
        .args(["--rules", "determinism", "--check-allowlist"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "filtered --check-allowlist flagged out-of-scope entries:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("stale"),
        "no stale warnings expected on a filtered run"
    );
}

#[test]
fn the_repo_itself_is_clean_under_its_allowlist() {
    let root = repo_root();
    let allow = trident_lint::load_allowlist(&root).expect("allowlist parses");
    assert!(
        allow.len() <= trident_lint::ALLOWLIST_BUDGET,
        "allowlist budget is {} entries, found {}",
        trident_lint::ALLOWLIST_BUDGET,
        allow.len()
    );
    let report = trident_lint::run(&root, &allow).expect("scan runs");
    assert!(
        report.is_clean(),
        "repo has non-allowlisted findings:\n{}",
        report.to_text()
    );
    assert!(
        report.stale_allows.is_empty(),
        "stale allowlist entries: {:?}",
        report.stale_allows
    );
}
