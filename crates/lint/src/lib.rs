//! trident-lint: the repo's own invariant linter.
//!
//! Walks `crates/*/src` and enforces the invariants the energy/latency
//! model depends on (see DESIGN.md §"Static analysis & dimensional
//! safety"):
//!
//! 1. **no-panic** — no `unwrap`/`expect`/`panic!`-family macros in
//!    non-test library code. Documented panic front-doors over `try_*`
//!    APIs are exempted per function via `lint-allow.toml`.
//! 2. **no-cast** — no raw `as` numeric casts in unit-bearing modules;
//!    integer populations enter float arithmetic through
//!    `photonics::units::count`, float→index conversions through
//!    `index_clamped`.
//! 3. **no-bare-f64** — public quantity-returning functions in
//!    unit-bearing modules either return a `photonics::units` newtype or
//!    name their unit in the identifier; quantity-named `f64` parameters
//!    are rejected outright.
//! 4. **error-impl** — every `pub enum *Error` implements both `Display`
//!    and `std::error::Error`.
//! 5. **det-*** — determinism rules ([`det_rules`]): no hash-ordered
//!    iteration, wall-clock reads, core-count probes, or raw threads in
//!    the code paths that feed the byte-identical repro outputs.
//! 6. **stream-*** — RNG stream hygiene ([`stream_rules`]): `STREAM_*`
//!    ids live in the `trident-streams` registry, are unique per seed
//!    domain, mixer call sites pass registered constants, and the
//!    device model holds no stateful RNG.
//! 7. **hot-path-alloc** — zero-alloc steady state ([`alloc_rules`]):
//!    no `vec!`/`Vec::with_capacity`/`.collect()` in functions the call
//!    graph reaches *forward* from the serving entry points; allocation
//!    belongs in constructors, `reserve_*` warm-up, and the device
//!    model, never per dispatched request (DESIGN.md §15).
//!
//! Findings from the determinism and stream families carry call-graph
//! attribution ([`callgraph`]): the production functions from which the
//! offending helper is reachable, so the report points at the
//! contaminated entry point and not just the helper.
//!
//! Self-contained by design: no dependencies, a hand-rolled token
//! scanner, and a hand-rolled parser for the tiny TOML subset of
//! `lint-allow.toml`. The linter also lints itself — this crate's own
//! sources are part of the walk.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod alloc_rules;
pub mod allowlist;
pub mod callgraph;
pub mod det_rules;
pub mod report;
pub mod rules;
pub mod scanner;
pub mod stream_rules;

use allowlist::AllowEntry;
use report::Report;
use rules::{ErrorEnum, TraitImpl};
use std::fs;
use std::path::{Path, PathBuf};

/// Every rule id, in report order.
pub const ALL_RULES: &[&str] = &[
    "no-panic",
    "no-cast",
    "no-bare-f64",
    "error-impl",
    "det-hash-iter",
    "det-wall-clock",
    "det-thread-env",
    "det-raw-thread",
    "stream-local-const",
    "stream-dup",
    "stream-nonconst",
    "stream-stateful-rng",
    "hot-path-alloc",
];

/// Rule families accepted by [`RuleFilter::parse`] as shorthand for
/// every rule they contain.
pub const FAMILIES: &[&str] = &["panic", "units", "error", "determinism", "stream", "alloc"];

/// Hard ceiling on `lint-allow.toml` entries. Exemptions are debt; the
/// budget keeps the file a reviewed shortlist instead of a landfill.
pub const ALLOWLIST_BUDGET: usize = 10;

/// Which rules a run executes. Built from `--rules` (ids and family
/// names, comma-separated) or [`RuleFilter::all`].
#[derive(Debug, Clone)]
pub struct RuleFilter {
    enabled: Vec<&'static str>,
}

impl RuleFilter {
    /// Every rule enabled.
    pub fn all() -> Self {
        Self { enabled: ALL_RULES.to_vec() }
    }

    /// Parse a comma-separated list of rule ids and family names.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut enabled: Vec<&'static str> = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if let Some(&id) = ALL_RULES.iter().find(|&&r| r == part) {
                if !enabled.contains(&id) {
                    enabled.push(id);
                }
            } else if FAMILIES.contains(&part) {
                for &id in ALL_RULES.iter().filter(|&&r| rules::family_of(r) == part) {
                    if !enabled.contains(&id) {
                        enabled.push(id);
                    }
                }
            } else {
                return Err(format!(
                    "unknown rule or family `{part}` (rules: {}; families: {})",
                    ALL_RULES.join(", "),
                    FAMILIES.join(", ")
                ));
            }
        }
        if enabled.is_empty() {
            return Err("empty rule filter".to_string());
        }
        // Keep report order canonical regardless of spec order.
        enabled.sort_by_key(|id| ALL_RULES.iter().position(|r| r == id));
        Ok(Self { enabled })
    }

    /// Is the rule enabled?
    pub fn is_enabled(&self, rule: &str) -> bool {
        self.enabled.contains(&rule)
    }

    /// The enabled rule ids, in canonical order.
    pub fn rules(&self) -> &[&'static str] {
        &self.enabled
    }
}

/// A fatal error running the linter (I/O, bad allowlist).
#[derive(Debug)]
pub enum LintError {
    /// The walk or a file read failed.
    Io {
        /// Path that failed.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// The allowlist did not parse.
    Allowlist(allowlist::AllowParseError),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, source } => write!(f, "{}: {source}", path.display()),
            Self::Allowlist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Allowlist(e) => Some(e),
        }
    }
}

/// Run every rule over `root`. See [`run_filtered`].
pub fn run(root: &Path, allow: &[AllowEntry]) -> Result<Report, LintError> {
    run_filtered(root, allow, &RuleFilter::all())
}

/// How many callers the call graph attributes per finding.
const CALLER_LIMIT: usize = 3;

/// Run the linter over `root` (the workspace directory that contains
/// `crates/`). `allow` is the parsed allowlist; `filter` selects rules.
pub fn run_filtered(
    root: &Path,
    allow: &[AllowEntry],
    filter: &RuleFilter,
) -> Result<Report, LintError> {
    // Pass 1: tokenize everything once; the per-file rules, the error
    // cross-check, the stream-const table and the call graph all feed
    // off the same token streams.
    let scans = scan(root)?;
    let mut report = Report {
        files_scanned: scans.len(),
        rules_run: filter.rules().iter().map(|r| r.to_string()).collect(),
        allowlist_size: allow.len(),
        ..Default::default()
    };
    let graph = build_graph(&scans);

    let mut enums: Vec<ErrorEnum> = Vec::new();
    let mut impls: Vec<TraitImpl> = Vec::new();
    let mut consts: Vec<stream_rules::StreamConst> = Vec::new();
    let mut all: Vec<rules::Finding> = Vec::new();

    // Pass 2: per-file rules and cross-file collections.
    for (rel, tokens) in &scans {
        let krate = crate_of(rel);
        all.extend(
            rules::check_file(rel, tokens)
                .into_iter()
                .filter(|f| filter.is_enabled(f.rule)),
        );
        det_rules::check_file(rel, tokens, |r| filter.is_enabled(r), &mut all);
        if filter.is_enabled("stream-nonconst") {
            stream_rules::check_call_sites(rel, tokens, &mut all);
        }
        if filter.is_enabled("stream-stateful-rng") {
            stream_rules::check_stateful_rng(rel, tokens, &mut all);
        }
        rules::collect_error_decls(rel, &krate, tokens, &mut enums, &mut impls);
        stream_rules::collect_consts(rel, tokens, &mut consts);
    }

    // Pass 3: cross-file rules.
    if filter.is_enabled("error-impl") {
        all.extend(rules::check_error_impls(&enums, &impls));
    }
    if filter.is_enabled("stream-local-const") {
        stream_rules::check_local_consts(&consts, &mut all);
    }
    if filter.is_enabled("stream-dup") {
        stream_rules::check_duplicates(&consts, &mut all);
    }
    if filter.is_enabled("hot-path-alloc") {
        alloc_rules::check(&scans, &graph, &mut all);
    }

    // Pass 4: call-graph attribution for the families where "who reaches
    // this helper" is the question the reader asks next.
    for f in &mut all {
        if matches!(f.family(), "determinism" | "stream" | "alloc") {
            if let Some(scope) = f.scope.as_deref() {
                f.callers = graph.reaching_callers(scope, CALLER_LIMIT);
            }
        }
    }

    let mut used = vec![false; allow.len()];
    for f in all {
        match allow.iter().position(|e| e.covers(&f)) {
            Some(i) => {
                used[i] = true;
                report.allowed.push(f);
            }
            None => report.findings.push(f),
        }
    }
    // An entry is stale only if some rule it exempts actually ran and it
    // still covered nothing — under `--rules` an out-of-scope entry had no
    // chance to match, and flagging it would make `--check-allowlist`
    // fail spuriously on filtered runs.
    report.stale_allows = allow
        .iter()
        .zip(&used)
        .filter(|&(e, &u)| !u && e.rules.iter().any(|r| filter.is_enabled(r)))
        .map(|(e, _)| e.clone())
        .collect();
    Ok(report)
}

/// Tokenize every source file under `root`, in sorted path order.
fn scan(root: &Path) -> Result<Vec<(String, Vec<scanner::Token>)>, LintError> {
    let mut files = collect_sources(root)?;
    files.sort();
    files
        .iter()
        .map(|path| {
            let text = fs::read_to_string(path)
                .map_err(|source| LintError::Io { path: path.clone(), source })?;
            Ok((relative(root, path), scanner::tokenize(&scanner::mask(&text))))
        })
        .collect()
}

fn build_graph(scans: &[(String, Vec<scanner::Token>)]) -> callgraph::CallGraph {
    callgraph::build(scans.iter().map(|(rel, toks)| (rel.as_str(), toks.as_slice())))
}

/// Load and parse `lint-allow.toml` under `root`; a missing file is an
/// empty allowlist.
pub fn load_allowlist(root: &Path) -> Result<Vec<AllowEntry>, LintError> {
    let path = root.join("lint-allow.toml");
    match fs::read_to_string(&path) {
        Ok(text) => allowlist::parse(&text).map_err(LintError::Allowlist),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(source) => Err(LintError::Io { path, source }),
    }
}

/// All `.rs` files under `crates/*/src`, excluding per-crate `src/bin`
/// trees (top-level binaries may exit noisily by design).
fn collect_sources(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    let entries = fs::read_dir(&crates_dir)
        .map_err(|source| LintError::Io { path: crates_dir.clone(), source })?;
    for entry in entries.flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            walk(&src, &mut out)?;
        }
    }
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    if dir.file_name().is_some_and(|n| n == "bin") {
        return Ok(());
    }
    let entries =
        fs::read_dir(dir).map_err(|source| LintError::Io { path: dir.to_path_buf(), source })?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The crate directory name of a repo-relative path
/// (`crates/arch/src/engine.rs` → `arch`).
fn crate_of(rel: &str) -> String {
    rel.split('/').nth(1).unwrap_or("").to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_extracts_directory() {
        assert_eq!(crate_of("crates/arch/src/engine.rs"), "arch");
        assert_eq!(crate_of("crates/photonics/src/units.rs"), "photonics");
    }

    #[test]
    fn every_rule_has_a_family() {
        for rule in ALL_RULES {
            assert!(
                FAMILIES.contains(&rules::family_of(rule)),
                "rule {rule} maps to unknown family {}",
                rules::family_of(rule)
            );
        }
    }

    #[test]
    fn rule_filter_accepts_ids_and_families() {
        let f = RuleFilter::parse("determinism, no-panic").unwrap();
        assert!(f.is_enabled("no-panic"));
        assert!(f.is_enabled("det-hash-iter"));
        assert!(f.is_enabled("det-raw-thread"));
        assert!(!f.is_enabled("no-cast"));
        assert!(!f.is_enabled("stream-dup"));
        // Canonical order regardless of spec order.
        assert_eq!(f.rules()[0], "no-panic");
    }

    #[test]
    fn rule_filter_rejects_unknown_and_empty() {
        assert!(RuleFilter::parse("no-such-rule").is_err());
        assert!(RuleFilter::parse("  ,  ").is_err());
    }
}
