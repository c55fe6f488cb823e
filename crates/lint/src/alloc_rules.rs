//! The hot-path allocation rule.
//!
//! | rule             | scope                              | what it rejects |
//! |------------------|------------------------------------|-----------------|
//! | `hot-path-alloc` | serving hot path (`arch`/`nn`/`serve`) | `vec![…]`, `Vec::with_capacity`, `.collect()` in functions reachable from the serving entry points |
//!
//! The zero-alloc steady-state contract (DESIGN.md §15) says a warmed
//! replica executes a closed batch with **zero** heap allocation: every
//! buffer the forward pass touches is pre-sized scratch, reused across
//! dispatches. The runtime proof is the engines' `hot_path_allocs()`
//! counters; this rule is the static half — it walks the call graph
//! *forward* from the serving entry points ([`ENTRY_POINTS`]) and flags
//! the allocation idioms that silently reintroduce per-request heap
//! traffic.
//!
//! Construction and warm-up are pruned from the walk (and never
//! flagged), because allocation is *correct* there: `new*`/`with_*`/
//! `from_*`/`build*`/`try_build*`/`default`/`reserve*` run once per
//! fleet, before the first request; growing scratch to capacity is their
//! whole job. Nothing else is exempt: the walk runs through the engines
//! and the tile grid into the device model (PEs and weight banks), whose
//! reads, activations and outer products write into caller buffers.
//!
//! `Vec::new()` is deliberately not flagged: an empty `Vec` does not
//! touch the heap, and the reuse idiom (`std::mem::take` a scratch
//! field, refill it in place) pivots on exactly that.

use crate::callgraph::CallGraph;
use crate::rules::Finding;
use crate::scanner::Token;

/// Crate directories whose code executes per served request — the only
/// places the rule fires. `obs` is excluded on purpose: its counters
/// are `enabled()`-gated no-ops in production serving, and `core`/
/// `workload` assemble experiments, not requests.
pub const HOT_PATH_CRATES: &[&str] = &["arch", "nn", "serve"];

/// The serving entry points the forward walk starts from: the fleet
/// dispatcher, the engines' batched forwards (whose sweeps the
/// single-sample forwards reuse) and the transformer's per-token
/// KV-cache decode step.
pub const ENTRY_POINTS: &[&str] = &["dispatch_into", "try_forward_batch", "try_decode_token"];

/// Name prefixes pruned from the walk: construction and warm-up code,
/// where allocation is the point. `zeros` is `Tensor::zeros`, a
/// constructor in all but prefix.
const STOP_PREFIXES: &[&str] = &["new", "with_", "from_", "build", "try_build", "reserve"];

/// Exact names pruned from the walk: `default` and `zeros`
/// (`Tensor::zeros`), constructors in all but prefix.
const STOP_NAMES: &[&str] = &["default", "zeros"];

/// Names whose call edges are meaningless under name-based resolution:
/// iterator-adapter and container methods (`.map(…)`, `.filter(…)`, …)
/// produce edges to any same-named `fn` in the walk — e.g. every
/// `.map()` adapter would drag in `Tensor::map`. Pruning them keeps the
/// reachable set honest; a *defined* hot-path helper should not shadow
/// a std name anyway.
const STD_COLLIDING: &[&str] = &[
    "map", "filter", "fold", "zip", "sum", "get", "insert", "push", "extend", "clear",
    "len", "iter", "last", "first", "position", "min", "max", "abs", "clone",
];

/// Is this function name a sanctioned allocation boundary (or a name
/// the walk must not resolve through)?
pub fn is_boundary(name: &str) -> bool {
    STOP_PREFIXES.iter().any(|p| name.starts_with(p))
        || STOP_NAMES.contains(&name)
        || STD_COLLIDING.contains(&name)
}

/// Is this repo-relative path on the serving hot path?
pub fn is_hot_path_crate(rel: &str) -> bool {
    let p = rel.replace('\\', "/");
    p.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .is_some_and(|krate| HOT_PATH_CRATES.contains(&krate))
}

/// Run the rule over the whole scan: compute the reachable set once,
/// then flag allocation idioms inside reachable functions.
pub fn check(scans: &[(String, Vec<Token>)], graph: &CallGraph, findings: &mut Vec<Finding>) {
    let reachable = graph.reachable_from(ENTRY_POINTS, &|name| is_boundary(name));
    for (rel, tokens) in scans {
        if !is_hot_path_crate(rel) {
            continue;
        }
        for (i, t) in tokens.iter().enumerate() {
            if t.in_test {
                continue;
            }
            let Some(scope) = t.enclosing_fn.as_deref() else { continue };
            if !reachable.contains(scope) {
                continue;
            }
            let Some(word) = t.word() else { continue };
            let next_is = |c: char| tokens.get(i + 1).is_some_and(|n| n.is_punct(c));
            // `Vec::with_capacity` = Word(Vec) ':' ':' Word(with_capacity).
            let path_next = || -> Option<&str> {
                if next_is(':') && tokens.get(i + 2).is_some_and(|p| p.is_punct(':')) {
                    tokens.get(i + 3).and_then(Token::word)
                } else {
                    None
                }
            };
            let idiom = match word {
                "vec" if next_is('!') => Some("`vec![…]`"),
                "Vec" if path_next() == Some("with_capacity") => Some("`Vec::with_capacity`"),
                "collect"
                    if i > 0
                        && tokens[i - 1].is_punct('.')
                        && (next_is('(') || next_is(':')) =>
                {
                    Some("`.collect()`")
                }
                _ => None,
            };
            if let Some(idiom) = idiom {
                findings.push(Finding {
                    file: rel.clone(),
                    line: t.line,
                    rule: "hot-path-alloc",
                    scope: Some(scope.to_string()),
                    callers: Vec::new(),
                    message: format!(
                        "{idiom} in `{scope}`, reachable from a serving entry point; the \
                         steady-state dispatch contract is zero heap allocation — reuse a \
                         pre-sized scratch buffer (clear + extend in place) or size it in a \
                         `reserve_*` warm-up"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::scanner::{mask, tokenize};

    fn check_src(files: &[(&str, &str)]) -> Vec<Finding> {
        let scans: Vec<(String, Vec<Token>)> = files
            .iter()
            .map(|(rel, src)| ((*rel).to_string(), tokenize(&mask(src))))
            .collect();
        let graph =
            callgraph::build(scans.iter().map(|(rel, toks)| (rel.as_str(), toks.as_slice())));
        let mut out = Vec::new();
        check(&scans, &graph, &mut out);
        out
    }

    #[test]
    fn allocation_in_a_reachable_helper_is_flagged() {
        let hits = check_src(&[(
            "crates/serve/src/fleet.rs",
            "pub fn dispatch_into(n: usize) { stage(n); }\n\
             fn stage(n: usize) { let v = vec![0.0; n]; drop(v); }",
        )]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "hot-path-alloc");
        assert_eq!(hits[0].scope.as_deref(), Some("stage"));
    }

    #[test]
    fn all_three_idioms_fire_inside_an_entry_point() {
        let hits = check_src(&[(
            "crates/arch/src/engine.rs",
            "pub fn try_forward_batch(n: usize) {\n\
               let a = vec![0u8; n];\n\
               let b: Vec<u8> = Vec::with_capacity(n);\n\
               let c: Vec<u8> = a.iter().copied().collect();\n\
               drop((b, c));\n\
             }",
        )]);
        let idioms: Vec<&str> = hits.iter().map(|f| f.rule).collect();
        assert_eq!(idioms, ["hot-path-alloc"; 3], "{hits:?}");
    }

    #[test]
    fn constructors_are_boundaries() {
        let hits = check_src(&[(
            "crates/arch/src/engine.rs",
            "pub fn try_forward_batch(n: usize) { with_scratch(n); reserve_slots(n); }\n\
             fn with_scratch(n: usize) { let v: Vec<u8> = Vec::with_capacity(n); drop(v); }\n\
             fn reserve_slots(n: usize) { let v = vec![0.0; n]; drop(v); }",
        )]);
        assert!(hits.is_empty(), "boundary fns must not be flagged: {hits:?}");
    }

    #[test]
    fn the_device_model_is_walked_into() {
        let hits = check_src(&[
            (
                "crates/arch/src/tile.rs",
                "pub fn try_forward_batch(n: usize) { mvm_unsigned(n); latch_and_activate(n); }",
            ),
            (
                "crates/arch/src/pe.rs",
                "fn mvm_unsigned(n: usize) { let v = vec![0.0; n]; drop(v); }\n\
                 fn latch_and_activate(n: usize) { let v = vec![0.0; n]; drop(v); }",
            ),
        ]);
        let scopes: Vec<Option<&str>> = hits.iter().map(|f| f.scope.as_deref()).collect();
        assert_eq!(
            scopes,
            [Some("mvm_unsigned"), Some("latch_and_activate")],
            "a PE temporary is host memory: {hits:?}"
        );
    }

    #[test]
    fn unreachable_functions_may_allocate() {
        let hits = check_src(&[(
            "crates/nn/src/network.rs",
            "pub fn train_step(n: usize) -> Vec<usize> { (0..n).collect() }",
        )]);
        assert!(hits.is_empty(), "training code is off the hot path: {hits:?}");
    }

    #[test]
    fn non_hot_path_crates_are_out_of_scope() {
        let hits = check_src(&[(
            "crates/core/src/experiments/tables.rs",
            "pub fn dispatch_into(n: usize) -> Vec<usize> { (0..n).collect() }",
        )]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn vec_new_is_sanctioned() {
        let hits = check_src(&[(
            "crates/serve/src/fleet.rs",
            "pub fn dispatch_into() { let v: Vec<u8> = Vec::new(); drop(v); }",
        )]);
        assert!(hits.is_empty(), "empty Vec::new is heap-free: {hits:?}");
    }

    #[test]
    fn every_entry_point_is_defined_in_a_hot_path_crate() {
        // A renamed or deleted entry point would leave the walk starting
        // from nothing, and the rule would pass vacuously.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let graph = crate::build_graph(&crate::scan(&root).unwrap());
        for name in ENTRY_POINTS {
            assert!(
                graph.defs_of(name).iter().any(|def| is_hot_path_crate(&def.file)),
                "entry point `{name}` is defined by no fn in {HOT_PATH_CRATES:?}"
            );
        }
    }

    #[test]
    fn test_code_is_exempt() {
        let hits = check_src(&[(
            "crates/serve/src/fleet.rs",
            "#[cfg(test)]\nmod tests { fn try_forward_batch(n: usize) { let v = vec![0; n]; drop(v); } }",
        )]);
        assert!(hits.is_empty(), "{hits:?}");
    }
}
