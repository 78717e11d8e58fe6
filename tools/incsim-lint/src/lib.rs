//! `incsim-lint` — static analysis for the workspace's own invariants.
//!
//! The headline guarantees of this codebase are *invariants, not
//! features*: fused==eager and serial==parallel bit-for-bit, idempotent
//! keyed-RNG probe snapshots, panics-as-quarantine-events in every
//! serving path, and the offline no-registry dependency rule. This crate
//! machine-checks them. It is deliberately dependency-free (no dylint, no
//! rustc plumbing — the container is offline): a string/char/raw-string/
//! comment-aware tokenizer, a `#[cfg(test)]` region classifier, and a
//! small rule engine over the token stream plus a line-based manifest
//! parser for the dependency rule.
//!
//! ## Rules
//!
//! | rule | invariant it guards |
//! |------|---------------------|
//! | `panic-in-serving-path` | a panic in `src/serve.rs`, `src/wal.rs` (incl. `src/wal/`), or `src/api.rs` is a quarantine event, never an `unwrap()`/`expect()`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` |
//! | `nondeterministic-iteration` | no direct iteration over `HashMap`/`HashSet` (incl. the in-tree `FxHashMap`) in the order-sensitive modules `probe.rs`, `batch.rs`, `grouped.rs`, `wal.rs` — collect and sort by key before folding |
//! | `wallclock-in-kernel` | no `Instant::now`/`SystemTime::now` outside bench/metrics/CLI/example code — kernel results must be a function of (input, seed), never of the clock |
//! | `lock-poison-discipline` | guard acquisition is `.lock()/.read()/.write()` + `unwrap_or_else(PoisonError::into_inner)`, never `.unwrap()`/`.expect()` — a poisoned lock must degrade, not cascade the panic |
//! | `registry-dep` | every dependency in every workspace manifest is `path`- or `workspace`-resolved — the offline container cannot fetch crates.io, so a registry dep is a build outage |
//! | `stale-doc-path` | every repo path referenced in a tracked markdown file (link targets and `src/`-, `crates/`-, … anchored tokens) names an entry that exists — docs must not rot as the tree moves |
//! | `bad-suppression` | a `lint:allow` comment without a rule name or a reason suppresses nothing and is itself a finding |
//!
//! ## Suppression protocol
//!
//! ```text
//! // lint:allow(<rule>): <mandatory reason>
//! ```
//!
//! on the finding's line or the line directly above suppresses that one
//! finding. The reason is not optional: an allow without one is reported
//! as `bad-suppression` *and* the original finding stands. Suppressions
//! are counted and reported so CI can cap them (`--max-suppressions`).

use std::fmt;
use std::path::{Path, PathBuf};

pub mod docpath;
pub mod manifest;
pub mod rules;
pub mod tokenize;

pub use rules::Rule;
use tokenize::{tokenize, Tok, TokKind};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Root-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// The trimmed source line the finding sits on.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.snippet
        )
    }
}

/// A finding silenced by a justified `lint:allow` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Root-relative path of the suppressed finding.
    pub file: String,
    /// 1-based line of the suppressed finding.
    pub line: usize,
    /// The rule that would have fired.
    pub rule: Rule,
    /// The mandatory justification from the comment.
    pub reason: String,
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a justified `lint:allow`.
    pub suppressed: Vec<Suppression>,
    /// Number of Rust sources, manifests, and markdown files inspected.
    pub files_scanned: usize,
}

impl Report {
    /// `true` when nothing fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.rule.name()).cmp(&(&b.file, b.line, b.rule.name()))
        });
        self.suppressed.sort_by(|a, b| {
            (&a.file, a.line, a.rule.name()).cmp(&(&b.file, b.line, b.rule.name()))
        });
    }

    /// Serializes the report as schema-stable JSON (`version` 1, sorted
    /// findings, fixed key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"snippet\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule.name()),
                json_str(&f.snippet)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"suppressed\": [");
        for (i, s) in self.suppressed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}}}",
                json_str(&s.file),
                s.line,
                json_str(s.rule.name()),
                json_str(&s.reason)
            ));
        }
        if !self.suppressed.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"files_scanned\": {}\n}}\n",
            self.files_scanned
        ));
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An I/O failure while walking or reading the tree (never a finding).
#[derive(Debug)]
pub struct LintIoError {
    /// The path that failed.
    pub path: PathBuf,
    /// The underlying error.
    pub source: std::io::Error,
}

impl fmt::Display for LintIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for LintIoError {}

/// Lints one Rust source with every applicable path-scoped rule.
/// `rel_path` is the root-relative path (with `/` separators) used for
/// rule scoping — fixtures pass virtual paths mirroring the real layout.
pub fn lint_source(rel_path: &str, source: &str) -> Report {
    let toks = tokenize(source);
    let exempt = test_exempt_lines(&toks.code, source.lines().count());
    let mut raw: Vec<Finding> = Vec::new();
    rules::scan_tokens(rel_path, &toks.code, &exempt, source, &mut raw);

    let allows = collect_allows(rel_path, &toks.comments);
    let mut report = Report::default();
    for f in raw {
        match allows.iter().find(|a| {
            a.rule == f.rule && a.reason.is_some() && (a.line == f.line || a.line + 1 == f.line)
        }) {
            Some(a) => report.suppressed.push(Suppression {
                file: f.file,
                line: f.line,
                rule: f.rule,
                reason: a.reason.clone().unwrap_or_default(),
            }),
            None => report.findings.push(f),
        }
    }
    // Malformed allows are findings of their own — and suppress nothing.
    for a in &allows {
        if a.malformed {
            report.findings.push(Finding {
                file: rel_path.to_string(),
                line: a.line,
                rule: Rule::BadSuppression,
                snippet: snippet_at(source, a.line),
            });
        }
    }
    report.files_scanned = 1;
    report.sort();
    report
}

/// Lints a whole tree rooted at `root`: every `.rs` source outside
/// `target/`, `vendor/` code, tests/benches/examples/fixtures, every
/// workspace `Cargo.toml` (vendor manifests included — the vendored shims
/// must themselves stay registry-free), and every tracked markdown file
/// for the `stale-doc-path` rule.
///
/// # Errors
/// Only on I/O failure; violations are findings, not errors.
pub fn lint_workspace(root: &Path) -> Result<Report, LintIoError> {
    let mut report = Report::default();
    let mut sources: Vec<PathBuf> = Vec::new();
    let mut manifests: Vec<PathBuf> = Vec::new();
    let mut docs: Vec<PathBuf> = Vec::new();
    walk(root, root, &mut sources, &mut manifests, &mut docs)?;
    sources.sort();
    manifests.sort();
    docs.sort();

    for path in &sources {
        let text = std::fs::read_to_string(path).map_err(|e| LintIoError {
            path: path.clone(),
            source: e,
        })?;
        let rel = rel_name(root, path);
        let sub = lint_source(&rel, &text);
        report.findings.extend(sub.findings);
        report.suppressed.extend(sub.suppressed);
        report.files_scanned += 1;
    }
    for path in &manifests {
        let text = std::fs::read_to_string(path).map_err(|e| LintIoError {
            path: path.clone(),
            source: e,
        })?;
        let rel = rel_name(root, path);
        manifest::scan_manifest(&rel, &text, &mut report.findings);
        report.files_scanned += 1;
    }
    for path in &docs {
        let text = std::fs::read_to_string(path).map_err(|e| LintIoError {
            path: path.clone(),
            source: e,
        })?;
        let rel = rel_name(root, path);
        docpath::scan_markdown(
            &rel,
            &text,
            &|cand| root.join(cand).exists(),
            &mut report.findings,
        );
        report.files_scanned += 1;
    }
    report.sort();
    Ok(report)
}

fn rel_name(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Directory names whose subtrees hold test/bench/demo code — out of
/// scope for the code rules (the rules police shipping paths; `#[cfg(test)]`
/// regions inside shipping files are handled separately).
const SKIP_DIRS: &[&str] = &[
    "target", ".git", "tests", "benches", "examples", "fixtures", ".claude",
];

/// Root-level documents that digest *external* material — the source
/// paper, related-work notes, exemplar snippets from other repositories,
/// and the per-PR issue brief (which names files that do not exist *yet*).
/// Their paths describe other trees, so `stale-doc-path` skips them.
const EXTERNAL_DOCS: &[&str] = &["ISSUE.md", "PAPER.md", "PAPERS.md", "SNIPPETS.md"];

fn walk(
    root: &Path,
    dir: &Path,
    sources: &mut Vec<PathBuf>,
    manifests: &mut Vec<PathBuf>,
    docs: &mut Vec<PathBuf>,
) -> Result<(), LintIoError> {
    let entries = std::fs::read_dir(dir).map_err(|e| LintIoError {
        path: dir.to_path_buf(),
        source: e,
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| LintIoError {
            path: dir.to_path_buf(),
            source: e,
        })?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            // Vendored shims stand in for external crates: their *code* is
            // out of scope, their manifests are not (collected below).
            if name == "vendor" && path.parent() == Some(root) {
                collect_vendor_manifests(&path, manifests)?;
                continue;
            }
            walk(root, &path, sources, manifests, docs)?;
        } else if name == "Cargo.toml" {
            manifests.push(path);
        } else if name.ends_with(".rs") {
            sources.push(path);
        } else if name.ends_with(".md")
            && !(path.parent() == Some(root) && EXTERNAL_DOCS.contains(&name.as_str()))
        {
            docs.push(path);
        }
    }
    Ok(())
}

fn collect_vendor_manifests(
    vendor: &Path,
    manifests: &mut Vec<PathBuf>,
) -> Result<(), LintIoError> {
    let entries = std::fs::read_dir(vendor).map_err(|e| LintIoError {
        path: vendor.to_path_buf(),
        source: e,
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| LintIoError {
            path: vendor.to_path_buf(),
            source: e,
        })?;
        let m = entry.path().join("Cargo.toml");
        if m.is_file() {
            manifests.push(m);
        }
    }
    Ok(())
}

// ---- #[cfg(test)] region classification ---------------------------------

/// Returns a per-line exemption mask: `true` for lines inside a
/// `#[cfg(test)]`-gated item/module or a `#[test]` function. An attribute
/// gates the next item: its brace-delimited body when one opens before the
/// terminating `;`, otherwise just the attribute..`;` span.
fn test_exempt_lines(code: &[Tok], line_count: usize) -> Vec<bool> {
    let mut exempt = vec![false; line_count + 2];
    let mut i = 0;
    while i < code.len() {
        if let Some((attr_end, is_test)) = parse_attr(code, i) {
            if is_test {
                let start_line = code[i].line;
                let end_line = item_end_line(code, attr_end).min(line_count + 1);
                for flag in exempt.iter_mut().take(end_line + 1).skip(start_line) {
                    *flag = true;
                }
                i = attr_end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    exempt
}

/// If `code[i]` starts an attribute `#[...]`, returns (index past `]`,
/// whether it test-gates: `#[test]` or any `cfg(...)` mentioning `test`).
fn parse_attr(code: &[Tok], i: usize) -> Option<(usize, bool)> {
    if !matches!(code[i].kind, TokKind::Punct('#')) {
        return None;
    }
    let mut j = i + 1;
    // `#![...]` is an inner attribute; same shape with a `!` in between.
    if j < code.len() && matches!(code[j].kind, TokKind::Punct('!')) {
        j += 1;
    }
    if j >= code.len() || !matches!(code[j].kind, TokKind::Punct('[')) {
        return None;
    }
    let mut depth = 0usize;
    let mut is_test = false;
    let mut saw_cfg = false;
    let mut k = j;
    while k < code.len() {
        match &code[k].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some((k + 1, is_test));
                }
            }
            TokKind::Ident(s) if s == "cfg" => saw_cfg = true,
            // Bare `#[test]`, or `test` anywhere inside `cfg(...)`
            // (covers `cfg(test)` and `cfg(any(test, ...))`).
            TokKind::Ident(s) if s == "test" && (saw_cfg || k == j + 1) => is_test = true,
            _ => {}
        }
        k += 1;
    }
    None
}

/// The last line of the item following an attribute: the matching `}` of
/// the first `{` opened before a top-level `;`, or the `;` itself.
/// Subsequent attributes are skipped over first.
fn item_end_line(code: &[Tok], mut i: usize) -> usize {
    while i < code.len() {
        if let Some((next, _)) = parse_attr(code, i) {
            i = next;
            continue;
        }
        break;
    }
    let mut paren = 0isize;
    while i < code.len() {
        match code[i].kind {
            TokKind::Punct(';') if paren == 0 => return code[i].line,
            TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => paren -= 1,
            TokKind::Punct('{') => {
                let mut depth = 0isize;
                while i < code.len() {
                    match code[i].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return code[i].line;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                break;
            }
            _ => {}
        }
        i += 1;
    }
    code.last().map_or(1, |t| t.line)
}

// ---- suppression comments -----------------------------------------------

struct Allow {
    line: usize,
    rule: Rule,
    reason: Option<String>,
    malformed: bool,
}

fn collect_allows(_rel_path: &str, comments: &[(usize, String)]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (line, text) in comments {
        // Only a comment *starting* with the marker is an allow attempt —
        // prose mentioning `lint:allow` (docs, this file) is not.
        let Some(rest) = text.trim_start().strip_prefix("lint:allow") else {
            continue;
        };
        let parsed = parse_allow(rest);
        match parsed {
            Some((rule, reason)) => out.push(Allow {
                line: *line,
                rule,
                reason: Some(reason),
                malformed: false,
            }),
            None => out.push(Allow {
                line: *line,
                // Rule is irrelevant for a malformed allow; it suppresses
                // nothing and fires `bad-suppression` itself.
                rule: Rule::BadSuppression,
                reason: None,
                malformed: true,
            }),
        }
    }
    out
}

/// Parses `(<rule>): <reason>` after `lint:allow`. `None` when the rule
/// name is unknown, the parens are missing, or the reason is empty.
fn parse_allow(rest: &str) -> Option<(Rule, String)> {
    let rest = rest.trim_start();
    let inner = rest.strip_prefix('(')?;
    let close = inner.find(')')?;
    let rule = Rule::from_name(inner[..close].trim())?;
    let after = inner[close + 1..].trim_start();
    let reason = after.strip_prefix(':')?.trim();
    if reason.is_empty() {
        return None;
    }
    Some((rule, reason.to_string()))
}

fn snippet_at(source: &str, line: usize) -> String {
    source
        .lines()
        .nth(line.saturating_sub(1))
        .unwrap_or("")
        .trim()
        .to_string()
}
