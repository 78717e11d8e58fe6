//! The rule engine: path scoping + token-stream scanners, one per rule.
//! Each rule is grounded in an existing contract of the codebase; see the
//! crate docs for the rule ↔ invariant table.

use crate::tokenize::{Tok, TokKind};
use crate::Finding;

/// The rules. `BadSuppression` is synthesized by the driver for malformed
/// `lint:allow` comments; the rest are token/manifest scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `unwrap()`/`expect()`/`panic!`-family in a serving-path file.
    PanicInServingPath,
    /// Direct `HashMap`/`HashSet` iteration in an order-sensitive module.
    NondeterministicIteration,
    /// `Instant::now`/`SystemTime::now` in kernel code.
    WallclockInKernel,
    /// `.lock()/.read()/.write()` followed by `.unwrap()`/`.expect()`.
    LockPoisonDiscipline,
    /// A non-path, non-workspace dependency in a workspace manifest.
    RegistryDep,
    /// A repo path referenced in a markdown file that does not exist.
    StaleDocPath,
    /// A `lint:allow` comment missing its rule or mandatory reason.
    BadSuppression,
}

impl Rule {
    /// The kebab-case name used in output and `lint:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::PanicInServingPath => "panic-in-serving-path",
            Rule::NondeterministicIteration => "nondeterministic-iteration",
            Rule::WallclockInKernel => "wallclock-in-kernel",
            Rule::LockPoisonDiscipline => "lock-poison-discipline",
            Rule::RegistryDep => "registry-dep",
            Rule::StaleDocPath => "stale-doc-path",
            Rule::BadSuppression => "bad-suppression",
        }
    }

    /// Inverse of [`Rule::name`]; `None` for unknown names (a
    /// `lint:allow` naming an unknown rule is malformed).
    pub fn from_name(name: &str) -> Option<Rule> {
        Some(match name {
            "panic-in-serving-path" => Rule::PanicInServingPath,
            "nondeterministic-iteration" => Rule::NondeterministicIteration,
            "wallclock-in-kernel" => Rule::WallclockInKernel,
            "lock-poison-discipline" => Rule::LockPoisonDiscipline,
            "registry-dep" => Rule::RegistryDep,
            "stale-doc-path" => Rule::StaleDocPath,
            "bad-suppression" => Rule::BadSuppression,
            _ => return None,
        })
    }
}

// ---- path scopes --------------------------------------------------------

/// Serving-path files: PR 7's typed-error discipline — a panic here is a
/// quarantine event, so the panic *macros and combinators* must not exist.
fn in_serving_scope(path: &str) -> bool {
    path.ends_with("src/serve.rs")
        || path.ends_with("src/wal.rs")
        || path.ends_with("src/api.rs")
        || path.contains("src/wal/")
}

/// Order-sensitive modules: anything feeding scores, snapshots, or WAL
/// frames. Hash-order must never reach a float accumulation or a byte
/// stream here (fused==eager, serial==parallel, idempotent snapshots).
fn in_ordered_scope(path: &str) -> bool {
    let file = path.rsplit('/').next().unwrap_or(path);
    matches!(file, "probe.rs" | "batch.rs" | "grouped.rs" | "wal.rs")
}

/// Kernel scope for the wall-clock rule: everywhere except the modules
/// whose *job* is timing (bench harness, metrics) and operator-facing
/// binaries (CLI) — kernel answers are functions of (input, seed) only.
fn in_wallclock_scope(path: &str) -> bool {
    !(path.contains("crates/bench/")
        || path.contains("crates/metrics/")
        || path.contains("src/bin/")
        || path.contains("vendor/"))
}

// ---- token scanners -----------------------------------------------------

/// Runs every code rule applicable to `rel_path` over the token stream.
/// `exempt` is the per-line `#[cfg(test)]` mask; exempt findings are
/// dropped at the source, not suppressed.
pub fn scan_tokens(
    rel_path: &str,
    code: &[Tok],
    exempt: &[bool],
    source: &str,
    out: &mut Vec<Finding>,
) {
    let mut sink = |rule: Rule, line: usize| {
        if exempt.get(line).copied().unwrap_or(false) {
            return;
        }
        out.push(Finding {
            file: rel_path.to_string(),
            line,
            rule,
            snippet: crate::snippet_at(source, line),
        });
    };

    if in_serving_scope(rel_path) {
        scan_panics(code, &mut sink);
    }
    if in_ordered_scope(rel_path) {
        scan_hash_iteration(code, &mut sink);
    }
    if in_wallclock_scope(rel_path) {
        scan_wallclock(code, &mut sink);
    }
    scan_lock_unwrap(code, &mut sink);
}

fn ident(t: &Tok) -> Option<&str> {
    match &t.kind {
        TokKind::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(t: &Tok, c: char) -> bool {
    matches!(t.kind, TokKind::Punct(p) if p == c)
}

/// `panic-in-serving-path`: `.unwrap(` / `.expect(` method calls and the
/// `panic!`/`unreachable!`/`todo!`/`unimplemented!` macros. `assert!` and
/// `debug_assert!` stay legal — they guard caller contracts, not runtime
/// state (the rule polices the *recoverable* paths).
fn scan_panics(code: &[Tok], sink: &mut impl FnMut(Rule, usize)) {
    for (i, t) in code.iter().enumerate() {
        let Some(name) = ident(t) else { continue };
        match name {
            "unwrap" | "expect" => {
                let dotted = i > 0 && punct(&code[i - 1], '.');
                let called = i + 1 < code.len() && punct(&code[i + 1], '(');
                if dotted && called {
                    sink(Rule::PanicInServingPath, t.line);
                }
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if i + 1 < code.len() && punct(&code[i + 1], '!') =>
            {
                sink(Rule::PanicInServingPath, t.line);
            }
            _ => {}
        }
    }
}

const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// `nondeterministic-iteration`, two passes:
///
/// 1. collect identifiers *declared* with a hash-table type — `let`
///    bindings, fields, and params (`name: …HashMap…`) plus
///    `let name = FxHashMap::default()`-style constructions;
/// 2. flag `name.iter()`-family calls and `for … in [&[mut]] name` loops
///    on those identifiers.
///
/// Point lookups (`get`/`entry`/`insert`/`contains_key`/`retain`) are
/// order-insensitive and stay legal; to drain a map, collect and sort by
/// key before folding.
fn scan_hash_iteration(code: &[Tok], sink: &mut impl FnMut(Rule, usize)) {
    let mut hash_idents: Vec<String> = Vec::new();

    // Pass 1a: `name : <type tokens…>` where the type mentions a hash
    // table before `=`, `;` or `{`.
    for i in 0..code.len() {
        let Some(name) = ident(&code[i]) else {
            continue;
        };
        if i + 1 >= code.len() || !punct(&code[i + 1], ':') {
            continue;
        }
        // `name ::` is a path, not a declaration.
        if i + 2 < code.len() && punct(&code[i + 2], ':') {
            continue;
        }
        let window = &code[i + 2..code.len().min(i + 14)];
        for t in window {
            if matches!(
                t.kind,
                TokKind::Punct('=') | TokKind::Punct(';') | TokKind::Punct('{')
            ) {
                break;
            }
            if ident(t).is_some_and(|s| HASH_TYPES.contains(&s)) {
                hash_idents.push(name.to_string());
                break;
            }
        }
    }
    // Pass 1b: `let [mut] name = [Fx]Hash{Map,Set}::…`.
    for i in 0..code.len() {
        if ident(&code[i]) != Some("let") {
            continue;
        }
        let mut j = i + 1;
        if code.get(j).and_then(ident) == Some("mut") {
            j += 1;
        }
        let Some(name) = code.get(j).and_then(ident) else {
            continue;
        };
        if code.get(j + 1).is_some_and(|t| punct(t, '='))
            && code
                .get(j + 2)
                .and_then(ident)
                .is_some_and(|s| HASH_TYPES.contains(&s))
        {
            hash_idents.push(name.to_string());
        }
    }

    let is_hash = |name: &str| hash_idents.iter().any(|h| h == name);

    // Pass 2a: `name . method (`.
    for i in 0..code.len() {
        let Some(m) = ident(&code[i]) else { continue };
        if !ITER_METHODS.contains(&m) {
            continue;
        }
        if !(i >= 2 && punct(&code[i - 1], '.') && i + 1 < code.len() && punct(&code[i + 1], '(')) {
            continue;
        }
        if ident(&code[i - 2]).is_some_and(is_hash) {
            sink(Rule::NondeterministicIteration, code[i].line);
        }
    }
    // Pass 2b: `for <pat> in [&[mut]] name` with no further `.`/`(` chain
    // (chained forms are caught by 2a on the method itself).
    for i in 0..code.len() {
        if ident(&code[i]) != Some("for") {
            continue;
        }
        // Find the matching `in` before the loop body opens.
        let mut j = i + 1;
        let mut found_in = None;
        while j < code.len() && j < i + 24 {
            if punct(&code[j], '{') {
                break;
            }
            if ident(&code[j]) == Some("in") {
                found_in = Some(j);
                break;
            }
            j += 1;
        }
        let Some(mut k) = found_in.map(|j| j + 1) else {
            continue;
        };
        while k < code.len() && (punct(&code[k], '&') || ident(&code[k]) == Some("mut")) {
            k += 1;
        }
        let Some(name) = code.get(k).and_then(ident) else {
            continue;
        };
        let chained = code
            .get(k + 1)
            .is_some_and(|t| punct(t, '.') || punct(t, '('));
        if is_hash(name) && !chained {
            sink(Rule::NondeterministicIteration, code[k].line);
        }
    }
}

/// `wallclock-in-kernel`: `Instant::now` / `SystemTime::now` token runs.
fn scan_wallclock(code: &[Tok], sink: &mut impl FnMut(Rule, usize)) {
    for i in 0..code.len() {
        let Some(name) = ident(&code[i]) else {
            continue;
        };
        if name != "Instant" && name != "SystemTime" {
            continue;
        }
        if code.get(i + 1).is_some_and(|t| punct(t, ':'))
            && code.get(i + 2).is_some_and(|t| punct(t, ':'))
            && code.get(i + 3).and_then(ident) == Some("now")
        {
            sink(Rule::WallclockInKernel, code[i].line);
        }
    }
}

/// `lock-poison-discipline`: `.lock()/.read()/.write()` directly chained
/// into `.unwrap()`/`.expect(` — the established pattern is
/// `unwrap_or_else(PoisonError::into_inner)` (degrade, don't cascade).
fn scan_lock_unwrap(code: &[Tok], sink: &mut impl FnMut(Rule, usize)) {
    for i in 0..code.len() {
        let Some(name) = ident(&code[i]) else {
            continue;
        };
        if !matches!(name, "lock" | "read" | "write") {
            continue;
        }
        let acq = i >= 1
            && punct(&code[i - 1], '.')
            && code.get(i + 1).is_some_and(|t| punct(t, '('))
            && code.get(i + 2).is_some_and(|t| punct(t, ')'));
        if !acq {
            continue;
        }
        if code.get(i + 3).is_some_and(|t| punct(t, '.'))
            && code
                .get(i + 4)
                .and_then(ident)
                .is_some_and(|m| m == "unwrap" || m == "expect")
            && code.get(i + 5).is_some_and(|t| punct(t, '('))
        {
            sink(Rule::LockPoisonDiscipline, code[i + 4].line);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_source;
    use crate::Rule;

    #[test]
    fn panic_rule_fires_only_in_serving_scope() {
        let bad = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(
            lint_source("src/serve.rs", bad).findings[0].rule,
            Rule::PanicInServingPath
        );
        assert!(lint_source("crates/core/src/incsr.rs", bad)
            .findings
            .is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let ok = "fn f() { g().unwrap_or_else(|_| 0); h().unwrap_or(1); }\n";
        assert!(lint_source("src/serve.rs", ok).findings.is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(lint_source("src/serve.rs", src).findings.is_empty());
    }

    #[test]
    fn hash_iteration_flagged_lookup_allowed() {
        let src = "fn f() {\n    let mut m: FxHashMap<u32, f64> = FxHashMap::default();\n    m.insert(1, 2.0);\n    let _ = m.get(&1);\n    for (k, v) in &m { let _ = (k, v); }\n}\n";
        let report = lint_source("crates/core/src/probe.rs", src);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::NondeterministicIteration);
        assert_eq!(report.findings[0].line, 5);
    }

    #[test]
    fn hash_iteration_out_of_scope_module_ignored() {
        let src =
            "fn f(m: &std::collections::HashMap<u32, u32>) { for k in m.keys() { let _ = k; } }\n";
        assert!(lint_source("crates/core/src/rankone.rs", src)
            .findings
            .is_empty());
    }

    #[test]
    fn wallclock_scoping() {
        let src = "fn f() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(
            lint_source("crates/core/src/probe.rs", src).findings[0].rule,
            Rule::WallclockInKernel
        );
        assert!(lint_source("crates/bench/src/harness.rs", src)
            .findings
            .is_empty());
        assert!(lint_source("src/bin/incsim-cli.rs", src)
            .findings
            .is_empty());
    }

    #[test]
    fn lock_discipline() {
        let bad = "fn f(l: &std::sync::RwLock<u32>) { let _ = l.read().unwrap(); }\n";
        let report = lint_source("crates/core/src/incsr.rs", bad);
        assert_eq!(report.findings[0].rule, Rule::LockPoisonDiscipline);
        let ok = "fn f(l: &std::sync::RwLock<u32>) { let _ = l.read().unwrap_or_else(std::sync::PoisonError::into_inner); }\n";
        assert!(lint_source("crates/core/src/incsr.rs", ok)
            .findings
            .is_empty());
    }

    #[test]
    fn suppression_needs_reason() {
        let with = "fn f(x: Option<u32>) {\n    // lint:allow(panic-in-serving-path): test fixture exercises the panic path\n    x.unwrap();\n}\n";
        let report = lint_source("src/serve.rs", with);
        assert!(report.findings.is_empty());
        assert_eq!(report.suppressed.len(), 1);

        let without = "fn f(x: Option<u32>) {\n    // lint:allow(panic-in-serving-path)\n    x.unwrap();\n}\n";
        let report = lint_source("src/serve.rs", without);
        let rules: Vec<_> = report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&Rule::PanicInServingPath), "{report:?}");
        assert!(rules.contains(&Rule::BadSuppression), "{report:?}");
        assert!(report.suppressed.is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = "fn f() { let _ = \"x.unwrap() and panic!\"; } // Instant::now in prose\n";
        assert!(lint_source("src/serve.rs", src).findings.is_empty());
    }
}
