//! RNG stream-hygiene rules.
//!
//! Counter-addressed RNG (`trident_streams::mix(seed, stream, draw)`)
//! only delivers independence if every logical noise source owns a
//! distinct stream id within its seed domain. Two sources sharing an id
//! draw *identical* values — a correlation bug that no test of either
//! source alone can see. These rules make the discipline checkable:
//!
//! | rule                 | what it rejects                                        |
//! |----------------------|--------------------------------------------------------|
//! | `stream-local-const` | a `STREAM_*` const defined outside the registry (`crates/streams/src/lib.rs`) |
//! | `stream-dup`         | two registered stream consts in the same domain with the same value |
//! | `stream-nonconst`    | a mixer call whose stream argument is not a `STREAM_*` identifier |
//! | `stream-stateful-rng`| `StdRng`, `SeedableRng` or `thread_rng` in the device model's non-test code |
//!
//! The *domain* of a stream const is the second `_`-segment of its name
//! (`STREAM_PCM_NU` → `PCM`, `STREAM_TRAFFIC_ARRIVAL` → `TRAFFIC`):
//! one domain = one seed family, and ids may coincide across domains
//! because their seed spaces never alias (DESIGN.md §10).
//!
//! The forwarding layer — `fn mix`, `fn seeded_u64`,
//! `fn seeded_gaussian` bodies, where the stream is necessarily a
//! parameter — is exempt from `stream-nonconst`, as is test code.
//!
//! The *device model* — `crates/photonics`, `crates/pcm` and the
//! weight bank, PE, tile grid and chip of `crates/arch` — draws every
//! sample counter-addressed by a device identity and that device's own
//! event index. A stateful RNG there would make one device's noise
//! depend on how many draws another made first, so
//! `stream-stateful-rng` rejects one outside test code.

use crate::rules::Finding;
use crate::scanner::{parse_u64_literal, Token};

/// The single file allowed to define `STREAM_*` constants.
pub const REGISTRY_FILE: &str = "crates/streams/src/lib.rs";

/// Functions whose bodies legitimately pass a non-constant stream:
/// they *are* the mixer entry points the rest of the repo calls.
const FORWARDING_FNS: &[&str] = &["mix", "seeded_u64", "seeded_gaussian"];

/// Mixer entry points whose call sites carry a stream argument
/// (argument index 1, zero-based, in every signature).
const MIXER_FNS: &[&str] = &["mix", "seeded_u64", "seeded_gaussian"];
const MIXER_STREAM_ARG: usize = 1;

/// The stateful-RNG names `stream-stateful-rng` rejects.
const STATEFUL_RNG: &[&str] = &["StdRng", "SeedableRng", "thread_rng"];

/// The arch modules that belong to the device model.
const ARCH_DEVICE_FILES: &[&str] = &[
    "crates/arch/src/bank.rs",
    "crates/arch/src/pe.rs",
    "crates/arch/src/tile.rs",
    "crates/arch/src/chip.rs",
];

/// Whether `rel` is a device-model source (see the module docs).
pub fn is_device_model(rel: &str) -> bool {
    rel.starts_with("crates/photonics/src/")
        || rel.starts_with("crates/pcm/src/")
        || ARCH_DEVICE_FILES.contains(&rel)
}

/// One `const STREAM_* : u64 = <literal>;` definition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConst {
    /// Repo-relative file.
    pub file: String,
    /// 1-based line of the const name.
    pub line: usize,
    /// The full identifier (`STREAM_PCM_NU`).
    pub name: String,
    /// Resolved literal value; `None` when the initializer is not a
    /// plain integer literal.
    pub value: Option<u64>,
}

impl StreamConst {
    /// The seed-domain segment of the name (`STREAM_PCM_NU` → `PCM`).
    pub fn domain(&self) -> &str {
        self.name.split('_').nth(1).unwrap_or("")
    }
}

/// Collect `STREAM_*` const definitions from one tokenized file.
/// Test-only consts are fixture scaffolding, not registry entries.
pub fn collect_consts(rel: &str, tokens: &[Token], out: &mut Vec<StreamConst>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test || t.word() != Some("const") {
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(Token::word) else { continue };
        if !name.starts_with("STREAM_") {
            continue;
        }
        // const STREAM_X : u64 = <literal> ;
        let value = if tokens.get(i + 2).is_some_and(|p| p.is_punct(':'))
            && tokens.get(i + 3).and_then(Token::word) == Some("u64")
            && tokens.get(i + 4).is_some_and(|p| p.is_punct('='))
        {
            tokens.get(i + 5).and_then(Token::number).and_then(parse_u64_literal)
        } else {
            None
        };
        out.push(StreamConst {
            file: rel.to_string(),
            line: tokens[i + 1].line,
            name: name.to_string(),
            value,
        });
    }
}

/// `stream-local-const`: every `STREAM_*` const must live in the
/// registry file so the full id table is readable in one place.
pub fn check_local_consts(consts: &[StreamConst], findings: &mut Vec<Finding>) {
    for c in consts {
        if c.file != REGISTRY_FILE {
            findings.push(Finding {
                file: c.file.clone(),
                line: c.line,
                rule: "stream-local-const",
                scope: None,
                callers: Vec::new(),
                message: format!(
                    "`{}` is defined outside the stream registry; move it to \
                     `{REGISTRY_FILE}` so the id table stays in one place",
                    c.name
                ),
            });
        }
    }
}

/// `stream-dup`: within one domain, two differently-named consts with
/// the same value address the same draws — correlated noise sources.
pub fn check_duplicates(consts: &[StreamConst], findings: &mut Vec<Finding>) {
    for (j, c) in consts.iter().enumerate() {
        let Some(value) = c.value else { continue };
        let Some(first) = consts[..j].iter().find(|p| {
            p.name != c.name && p.domain() == c.domain() && p.value == Some(value)
        }) else {
            continue;
        };
        findings.push(Finding {
            file: c.file.clone(),
            line: c.line,
            rule: "stream-dup",
            scope: None,
            callers: Vec::new(),
            message: format!(
                "`{}` reuses stream id {} already taken by `{}` in domain `{}`; the two \
                 noise sources draw identical values",
                c.name,
                value,
                first.name,
                c.domain()
            ),
        });
    }
}

/// `stream-nonconst`: walk mixer call sites and reject any whose stream
/// argument is not a single `STREAM_*` identifier.
pub fn check_call_sites(rel: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Some(word) = t.word() else { continue };
        if !MIXER_FNS.contains(&word)
            || !tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
            || (i > 0 && tokens[i - 1].word() == Some("fn"))
        {
            continue;
        }
        if t.enclosing_fn.as_deref().is_some_and(|f| FORWARDING_FNS.contains(&f)) {
            continue;
        }
        let Some(arg) = nth_argument(tokens, i + 1, MIXER_STREAM_ARG) else { continue };
        let ok = arg.len() == 1
            && arg[0].word().is_some_and(|w| w.starts_with("STREAM_"));
        if !ok {
            let rendered: String = arg
                .iter()
                .map(render_token)
                .collect::<Vec<_>>()
                .join(" ");
            findings.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: "stream-nonconst",
                scope: t.enclosing_fn.clone(),
                callers: Vec::new(),
                message: format!(
                    "`{word}` is addressed with a computed stream `{rendered}`; pass a \
                     registered `STREAM_*` constant so draw addresses stay auditable"
                ),
            });
        }
    }
}

/// `stream-stateful-rng`: every non-test mention of a stateful RNG in a
/// device-model file — an import, a field or parameter type, a
/// construction or a call.
pub fn check_stateful_rng(rel: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if !is_device_model(rel) {
        return;
    }
    for t in tokens.iter().filter(|t| !t.in_test) {
        let Some(word) = t.word().filter(|w| STATEFUL_RNG.contains(w)) else { continue };
        findings.push(Finding {
            file: rel.to_string(),
            line: t.line,
            rule: "stream-stateful-rng",
            scope: t.enclosing_fn.clone(),
            callers: Vec::new(),
            message: format!(
                "`{word}` in the device model: address each draw with \
                 `trident_streams::seeded_gaussian`/`seeded_u64` by device identity, \
                 registered stream and the device's own event index instead of \
                 storing or passing RNG state"
            ),
        });
    }
}

/// The tokens of argument `index` (0-based) of the call whose opening
/// `(` sits at `open`. Splits on top-level commas only.
fn nth_argument(tokens: &[Token], open: usize, index: usize) -> Option<Vec<&Token>> {
    let mut depth = 1usize;
    let mut arg_idx = 0usize;
    let mut current: Vec<&Token> = Vec::new();
    let mut k = open + 1;
    while k < tokens.len() && depth > 0 {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1 && t.is_punct(',') {
            if arg_idx == index {
                return Some(current);
            }
            arg_idx += 1;
            current.clear();
            k += 1;
            continue;
        }
        if arg_idx == index {
            current.push(t);
        }
        k += 1;
    }
    (arg_idx == index && !current.is_empty()).then_some(current)
}

fn render_token(t: &&Token) -> String {
    match &t.kind {
        crate::scanner::TokenKind::Word(w) => w.clone(),
        crate::scanner::TokenKind::Number(n) => n.clone(),
        crate::scanner::TokenKind::Punct(c) => c.to_string(),
        crate::scanner::TokenKind::Arrow => "->".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::{mask, tokenize};

    fn toks(src: &str) -> Vec<Token> {
        tokenize(&mask(src))
    }

    fn consts(rel: &str, src: &str) -> Vec<StreamConst> {
        let mut out = Vec::new();
        collect_consts(rel, &toks(src), &mut out);
        out
    }

    #[test]
    fn const_definitions_resolve_values() {
        let c = consts(
            REGISTRY_FILE,
            "pub const STREAM_PCM_NU: u64 = 1;\npub const STREAM_PCM_PROG: u64 = 0x2;",
        );
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].value, Some(1));
        assert_eq!(c[1].value, Some(2));
        assert_eq!(c[0].domain(), "PCM");
    }

    #[test]
    fn local_const_outside_registry_is_flagged() {
        let c = consts("crates/pcm/src/noise.rs", "const STREAM_PCM_EXTRA: u64 = 9;");
        let mut f = Vec::new();
        check_local_consts(&c, &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "stream-local-const");
    }

    #[test]
    fn duplicate_value_in_same_domain_is_flagged() {
        let c = consts(
            REGISTRY_FILE,
            "pub const STREAM_PCM_PROG: u64 = 2;\npub const STREAM_PCM_READ: u64 = 2;",
        );
        let mut f = Vec::new();
        check_duplicates(&c, &mut f);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "stream-dup");
        assert!(f[0].message.contains("STREAM_PCM_PROG"));
    }

    #[test]
    fn same_value_across_domains_is_sanctioned() {
        let c = consts(
            REGISTRY_FILE,
            "pub const STREAM_PCM_NU: u64 = 1;\npub const STREAM_TRAFFIC_ARRIVAL: u64 = 1;",
        );
        let mut f = Vec::new();
        check_duplicates(&c, &mut f);
        assert!(f.is_empty(), "cross-domain id reuse is fine: {f:?}");
    }

    #[test]
    fn computed_stream_argument_is_flagged() {
        let src = "fn f(seed: u64, i: u64) { let _ = seeded_u64(seed, i % 4, 0); }";
        let mut f = Vec::new();
        check_call_sites("crates/serve/src/traffic.rs", &toks(src), &mut f);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "stream-nonconst");
        assert!(f[0].message.contains("i % 4"), "{}", f[0].message);
    }

    #[test]
    fn literal_stream_argument_is_flagged() {
        let src = "fn f(seed: u64) { let _ = mix(seed, 7, 0); }";
        let mut f = Vec::new();
        check_call_sites("crates/pcm/src/noise.rs", &toks(src), &mut f);
        assert_eq!(f.len(), 1, "bare literals are unauditable too: {f:?}");
    }

    #[test]
    fn registered_constant_argument_is_clean() {
        let src = "fn f(seed: u64, d: u64) { let _ = seeded_gaussian(seed, STREAM_PCM_NU, d); }";
        let mut f = Vec::new();
        check_call_sites("crates/pcm/src/stat.rs", &toks(src), &mut f);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn forwarding_layer_is_exempt() {
        let src = "pub fn seeded_u64(seed: u64, stream: u64, draw: u64) -> u64 { mix(seed, stream, draw) }";
        let mut f = Vec::new();
        check_call_sites(REGISTRY_FILE, &toks(src), &mut f);
        assert!(f.is_empty(), "the mixer entry points forward their parameter: {f:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let _ = mix(1, 2, 3); } }";
        let mut f = Vec::new();
        check_call_sites(REGISTRY_FILE, &toks(src), &mut f);
        assert!(f.is_empty());
    }

    fn stateful(rel: &str, src: &str) -> Vec<Finding> {
        let mut f = Vec::new();
        check_stateful_rng(rel, &toks(src), &mut f);
        f
    }

    #[test]
    fn stateful_rng_is_flagged_in_the_device_model() {
        let src = "use rand::rngs::StdRng;\nfn f(rng: &mut StdRng) { let _ = thread_rng(); }";
        for rel in ["crates/pcm/src/gst.rs", "crates/photonics/src/noise.rs", "crates/arch/src/pe.rs"] {
            let f = stateful(rel, src);
            assert_eq!(f.len(), 3, "{rel}: {f:?}");
            assert!(f.iter().all(|f| f.rule == "stream-stateful-rng"));
            assert_eq!(f[2].scope.as_deref(), Some("f"));
        }
    }

    #[test]
    fn stateful_rng_outside_the_device_model_or_in_tests_is_fine() {
        let src = "use rand::SeedableRng;\nfn f() { let _ = StdRng::seed_from_u64(1); }";
        assert!(stateful("crates/arch/src/engine.rs", src).is_empty());
        assert!(stateful("crates/nn/src/init.rs", src).is_empty());
        let test = "#[cfg(test)]\nmod tests { use rand::SeedableRng; fn t() { StdRng::seed_from_u64(1); } }";
        assert!(stateful("crates/arch/src/bank.rs", test).is_empty());
    }

    #[test]
    fn nested_call_in_earlier_argument_does_not_shift_the_stream_arg() {
        let src = "fn f(a: u64, d: u64) { let _ = seeded_u64(other(a, 3), STREAM_PCM_NU, d); }";
        let mut f = Vec::new();
        check_call_sites("crates/pcm/src/stat.rs", &toks(src), &mut f);
        assert!(f.is_empty(), "{f:?}");
    }
}
