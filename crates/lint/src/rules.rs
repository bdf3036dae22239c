//! The rule table and the per-file scanner.
//!
//! Every rule here encodes a contract the workspace already enforces dynamically somewhere —
//! the `(ε, δ)` release boundary, the identical-seed ⇒ identical-bytes determinism pins, the
//! observability no-feedback invariant — lifted to a static check over every line of every
//! crate. See the README "Static analysis" section for the user-facing rule table.
//!
//! Scoping vocabulary used below:
//!
//! * **compute crates** — the deterministic kernel/algorithm crates
//!   ([`DETERMINISTIC_CRATES`]): everything whose outputs must be byte-identical for a fixed
//!   seed regardless of thread count or wall clock. `obs`, `server` and `bench` are *not*
//!   compute crates (they own time, threads and metric reads by design).
//! * **test code** — files under `tests/`, `benches/` or `examples/`, plus `#[cfg(test)]` /
//!   `#[test]`-gated regions of library files. Most determinism rules skip test code: tests
//!   pin the contracts with their own machinery (timeouts, thread spawns, metric assertions).
//! * **waiver** — `// lint:allow(<rule>, reason = "...")` on the finding's line or the line
//!   directly above. Waivers are counted and reported; a waiver that matches nothing is itself
//!   a finding (`stale-waiver`), so they cannot silently rot.

use crate::callgraph::{build_context, Context};
use crate::lexer::{lex, Token, TokenKind, Waiver};
use crate::parse::{matching, parse_fns, FnInfo};
use crate::taint;

/// Identifiers that hold *sensitive* (unreleased) values: the exact triangle count and the raw
/// noisy degree sequence, under every name the workspace uses for them. These must never reach
/// a serialization context — the `(ε, δ)`-DP release contract of Mir & Wright §3. The wire
/// boundary (`crates/server/src/api.rs`) enumerates what *is* released; everything here is the
/// complement that `impl_json_struct!`-family macros and manual `Json` construction must not
/// touch.
pub const SENSITIVE_IDENTS: &[&str] =
    &["exact", "noisy_degrees", "exact_triangle_count", "raw_noisy_degrees"];

/// Crates whose outputs must be deterministic: byte-identical for a fixed seed, independent of
/// thread count, wall clock and iteration order. `par` is included — its *results* are part of
/// the determinism contract even though it owns thread creation (its latency instrumentation
/// sites carry explicit waivers).
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "graph", "dp", "stats", "estimate", "optim", "skg", "linalg", "core", "json", "rand",
    "datasets", "par",
];

/// The workspace lint table (root `Cargo.toml` `[workspace.lints]`): lints that must never be
/// re-allowed with an `#[allow(...)]` attribute anywhere in the tree. Test code gets its
/// unwrap/expect latitude from `clippy.toml` (`allow-unwrap-in-tests`), never from attributes.
pub const WORKSPACE_LINT_TABLE: &[&str] =
    &["unwrap_used", "dbg_macro", "todo", "unimplemented", "unused_must_use", "unsafe_code"];

/// The serialization macros of `kronpriv-json` whose invocations define the release boundary.
pub(crate) const SERIALIZE_MACROS: &[&str] = &[
    "impl_json_struct",
    "impl_json_struct_lenient",
    "impl_json_struct_with_defaults",
    "impl_to_json_struct",
];

/// The append-to-`String` writers of `kronpriv-json`: a call renders its arguments into JSON
/// text as surely as `Json::` construction does, so they are taint sinks too.
pub(crate) const JSON_WRITERS: &[&str] = &["push_json", "push_json_str", "push_json_number"];

/// The kinds of `privacy-taint` sink span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sink {
    /// A serialization-macro invocation.
    Macro,
    /// Manual `Json::` construction.
    Json,
    /// A call of one of the [`JSON_WRITERS`].
    Writer,
}

/// Hash-collection methods whose call implies iteration in storage order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// The deterministic executor's entry points: the first closure argument after the `Work`
/// hint runs on worker threads and must be a pure `Fn + Sync` map.
const EXECUTOR_ENTRY_POINTS: &[&str] = &["map_reduce", "fold_reduce"];

/// Interior-mutability type names that must not appear inside a parallel closure: shared
/// mutation through them is exactly the cross-thread feedback the chunk-order contract bans.
const INTERIOR_MUT_TYPES: &[&str] = &["RefCell", "Cell"];

/// Method names that enqueue a job for execution in `crates/server`; each must be dominated
/// by a ledger debit in the same function (the PR 9 debit-before-execute invariant).
const ENQUEUE_METHODS: &[&str] = &["run", "submit"];

/// The ledger debit calls that license an enqueue.
const DEBIT_CALLS: &[&str] = &["try_debit", "force_debit"];

/// Every enforceable rule name, in the order findings are reported.
pub const RULES: &[&str] = &[
    "privacy-serialize",
    "privacy-taint",
    "forbid-unsafe",
    "hash-iter",
    "determinism-time",
    "determinism-thread",
    "allow-attr",
    "obs-read",
    "executor-capture",
    "executor-work-hint",
    "debit-before-enqueue",
];

/// One violation (or would-be violation, before waiver matching).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name from [`RULES`] (or `waiver-syntax` / `stale-waiver` for waiver hygiene).
    pub rule: String,
    /// Human-readable description of the violation.
    pub message: String,
    /// The trimmed source line.
    pub snippet: String,
}

/// A finding that was suppressed by an inline waiver (still reported, as accounting).
#[derive(Debug, Clone)]
pub struct WaivedFinding {
    /// The suppressed finding.
    pub finding: Finding,
    /// The waiver's mandatory reason text.
    pub reason: String,
}

/// The scan result for one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Unwaived findings — these fail the gate.
    pub findings: Vec<Finding>,
    /// Waived findings — reported for accounting, do not fail the gate.
    pub waived: Vec<WaivedFinding>,
}

/// Where a file sits in the workspace, which decides rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Library/binary source under a `src/` directory.
    Lib,
    /// Integration tests under a `tests/` directory.
    Test,
    /// Bench targets under a `benches/` directory.
    Bench,
    /// Examples under an `examples/` directory.
    Example,
    /// Repository tooling (`scripts/*.rs`).
    Tooling,
}

/// The classification of one workspace-relative path.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// The owning crate directory name under `crates/`, or `None` for the root package.
    pub crate_name: Option<String>,
    /// The target category.
    pub category: Category,
}

/// Classifies a workspace-relative, `/`-separated path. Returns `None` for paths the scanner
/// ignores entirely.
pub fn classify(rel: &str) -> Option<FileClass> {
    if !rel.ends_with(".rs") {
        return None;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, rest) = if parts.first() == Some(&"crates") && parts.len() >= 3 {
        (Some(parts[1].to_string()), &parts[2..])
    } else {
        (None, &parts[..])
    };
    let category = match rest.first().copied() {
        Some("src") => Category::Lib,
        Some("tests") => Category::Test,
        Some("benches") => Category::Bench,
        Some("examples") => Category::Example,
        Some("scripts") => Category::Tooling,
        _ => return None,
    };
    Some(FileClass { crate_name, category })
}

/// Scans one file's source text under its workspace-relative path, building a single-file
/// flow context (intra-file taint works; cross-file taint needs [`scan_source_with`]).
pub fn scan_source(rel: &str, source: &str) -> FileReport {
    let ctx = build_context(&[(rel.to_string(), source.to_string())]);
    scan_source_with(rel, source, &ctx)
}

/// Scans one file against a prebuilt workspace flow context ([`build_context`]).
pub fn scan_source_with(rel: &str, source: &str, ctx: &Context) -> FileReport {
    let Some(class) = classify(rel) else {
        return FileReport::default();
    };
    let lexed = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let test_spans = test_spans(&lexed.tokens);
    let fns = parse_fns(&lexed.tokens, &lexed.annotations);
    let mut scan = Scan {
        rel,
        class,
        tokens: &lexed.tokens,
        lines: &lines,
        test_spans,
        fns,
        ctx,
        raw: Vec::new(),
    };
    scan.privacy_serialize();
    scan.privacy_taint();
    scan.forbid_unsafe();
    scan.hash_iter();
    scan.determinism_time();
    scan.determinism_thread();
    scan.allow_attr();
    scan.obs_read();
    scan.executor_contracts();
    scan.debit_before_enqueue();
    apply_waivers(scan.raw, &lexed.waivers, rel, &lines)
}

/// Matches findings against waivers, producing the final per-file report plus waiver-hygiene
/// findings (malformed, unknown-rule and stale waivers).
fn apply_waivers(raw: Vec<Finding>, waivers: &[Waiver], rel: &str, lines: &[&str]) -> FileReport {
    let mut used = vec![false; waivers.len()];
    let mut report = FileReport::default();
    for finding in raw {
        let matched = waivers.iter().enumerate().find(|(_, w)| {
            w.reason.is_some()
                && w.rule == finding.rule
                && (w.line == finding.line || w.line + 1 == finding.line)
        });
        match matched {
            Some((i, w)) => {
                used[i] = true;
                report
                    .waived
                    .push(WaivedFinding { finding, reason: w.reason.clone().unwrap_or_default() });
            }
            None => report.findings.push(finding),
        }
    }
    for (i, w) in waivers.iter().enumerate() {
        let snippet = snippet_at(lines, w.line);
        if w.reason.is_none() {
            report.findings.push(Finding {
                file: rel.to_string(),
                line: w.line,
                rule: "waiver-syntax".to_string(),
                message: format!(
                    "malformed waiver for rule `{}`: a non-empty reason = \"...\" is required",
                    w.rule
                ),
                snippet,
            });
        } else if !RULES.contains(&w.rule.as_str()) {
            report.findings.push(Finding {
                file: rel.to_string(),
                line: w.line,
                rule: "waiver-syntax".to_string(),
                message: format!("waiver names unknown rule `{}`", w.rule),
                snippet,
            });
        } else if !used[i] {
            report.findings.push(Finding {
                file: rel.to_string(),
                line: w.line,
                rule: "stale-waiver".to_string(),
                message: format!(
                    "waiver for `{}` matches no finding on this or the next line — delete it",
                    w.rule
                ),
                snippet,
            });
        }
    }
    report.findings.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(&b.rule)));
    report
}

fn snippet_at(lines: &[&str], line: usize) -> String {
    lines.get(line.saturating_sub(1)).map_or(String::new(), |l| l.trim().to_string())
}

/// Line spans covered by `#[cfg(test)]`- or `#[test]`-gated items.
fn test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if let Some(after_attr) = match_test_attr(tokens, i) {
            let start_line = tokens[i].line;
            let end = skip_item(tokens, after_attr);
            let end_line = tokens.get(end.saturating_sub(1)).map_or(start_line, |t| t.line);
            spans.push((start_line, end_line));
            i = end;
        } else {
            i += 1;
        }
    }
    spans
}

/// If tokens\[i..\] begins a `#[cfg(test)]`-style or `#[test]` attribute, returns the index
/// just past the closing `]`.
fn match_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if !(tokens.get(i)?.is_punct('#') && tokens.get(i + 1)?.is_punct('[')) {
        return None;
    }
    let close = matching(tokens, i + 1, '[', ']')?;
    let inner = &tokens[i + 2..close];
    let is_test = match inner.first() {
        Some(t) if t.is_ident("test") && inner.len() == 1 => true,
        Some(t) if t.is_ident("cfg") => inner.iter().any(|t| t.is_ident("test")),
        _ => false,
    };
    is_test.then_some(close + 1)
}

/// Skips one item starting at `i` (past its attributes): ends after the first `;` outside any
/// braces, or after the matching `}` of the item's body. Intermediate attributes are consumed.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Consume any further attributes on the item.
    while tokens.get(i).is_some_and(|t| t.is_punct('#'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        match matching(tokens, i + 1, '[', ']') {
            Some(close) => i = close + 1,
            None => return tokens.len(),
        }
    }
    let mut paren = 0i64;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => paren += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => paren -= 1,
            TokenKind::Punct(';') if paren == 0 => return i + 1,
            TokenKind::Punct('{') if paren == 0 => {
                return matching(tokens, i, '{', '}').map_or(tokens.len(), |j| j + 1);
            }
            _ => {}
        }
        i += 1;
    }
    tokens.len()
}

/// Splits a call's argument-list token span (`lo..close`, parens excluded) at top-level
/// commas, returning `(start, end)` token ranges. Closure parameter pipes are tracked so the
/// commas in `|acc: u64, partial|` never split; a `|` opens closure parameters only in
/// argument-initial position (start of an argument or after `move`), so bitwise-or in
/// argument expressions is ignored.
fn split_args(tokens: &[Token], lo: usize, close: usize) -> Vec<(usize, usize)> {
    let mut args = Vec::new();
    let mut depth = 0i64;
    let mut start = lo;
    let mut in_pipes = false;
    for j in lo..close {
        match tokens[j].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => depth -= 1,
            TokenKind::Punct('|') if depth == 0 => {
                if in_pipes {
                    in_pipes = false;
                } else if j == start || tokens[j - 1].is_ident("move") {
                    in_pipes = true;
                }
            }
            TokenKind::Punct(',') if depth == 0 && !in_pipes => {
                args.push((start, j));
                start = j + 1;
            }
            _ => {}
        }
    }
    if start < close {
        args.push((start, close));
    }
    args
}

struct Scan<'a> {
    rel: &'a str,
    class: FileClass,
    tokens: &'a [Token],
    lines: &'a [&'a str],
    test_spans: Vec<(usize, usize)>,
    fns: Vec<FnInfo>,
    ctx: &'a Context,
    raw: Vec<Finding>,
}

impl Scan<'_> {
    fn in_test(&self, line: usize) -> bool {
        self.class.category != Category::Lib
            || self.test_spans.iter().any(|&(a, b)| (a..=b).contains(&line))
    }

    fn crate_is(&self, name: &str) -> bool {
        self.class.crate_name.as_deref() == Some(name)
    }

    fn in_deterministic_crate(&self) -> bool {
        self.class.crate_name.as_deref().is_some_and(|c| DETERMINISTIC_CRATES.contains(&c))
    }

    fn push(&mut self, rule: &str, line: usize, message: String) {
        // One finding per (rule, line): a single `use std::time::Instant;` is one violation.
        if self.raw.iter().any(|f| f.rule == rule && f.line == line) {
            return;
        }
        self.raw.push(Finding {
            file: self.rel.to_string(),
            line,
            rule: rule.to_string(),
            message,
            snippet: snippet_at(self.lines, line),
        });
    }

    /// Does an ident path `a::b` start at `i`? (`parts` are the idents; `::` is implied.)
    fn path_at(&self, i: usize, parts: &[&str]) -> bool {
        let mut j = i;
        for (n, part) in parts.iter().enumerate() {
            if !self.tokens.get(j).is_some_and(|t| t.is_ident(part)) {
                return false;
            }
            j += 1;
            if n + 1 < parts.len() {
                if !(self.tokens.get(j).is_some_and(|t| t.is_punct(':'))
                    && self.tokens.get(j + 1).is_some_and(|t| t.is_punct(':')))
                {
                    return false;
                }
                j += 2;
            }
        }
        true
    }

    /// Rule `privacy-serialize`: sensitive identifiers must never reach a serialization
    /// context — an `impl_json_struct!`-family invocation (except the `redacted:` block of
    /// `impl_json_struct_redacted!`), a string literal used as a manual JSON key, or anywhere
    /// in the server's wire-type code.
    fn privacy_serialize(&mut self) {
        // (a) Serialization-macro invocations, every category: the release boundary is the
        // macro, wherever it is written.
        let mut i = 0;
        while i < self.tokens.len() {
            let t = &self.tokens[i];
            let is_macro = t.kind == TokenKind::Ident
                && SERIALIZE_MACROS.contains(&t.text.as_str())
                && self.tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
            let is_redacted = t.is_ident("impl_json_struct_redacted")
                && self.tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
            if is_macro || is_redacted {
                if let Some(close) = matching(self.tokens, i + 2, '(', ')') {
                    if is_redacted {
                        self.check_redacted_invocation(i + 2, close);
                    } else {
                        self.check_span_for_sensitive(i + 2, close, &t.text.clone());
                    }
                    i = close + 1;
                    continue;
                }
            }
            i += 1;
        }
        // (b) A string literal that *is* a sensitive name — the manual `Json` construction
        // path (`Json::Object(vec![("exact".into(), ...)])`). Test code may name the fields to
        // assert their absence; the lint crate's own deny table is likewise exempt.
        if !self.crate_is("lint") {
            for t in self.tokens {
                if t.kind == TokenKind::StrLit
                    && SENSITIVE_IDENTS.contains(&t.text.as_str())
                    && !self.in_test(t.line)
                {
                    let (line, text) = (t.line, t.text.clone());
                    self.push(
                        "privacy-serialize",
                        line,
                        format!(
                            "string literal \"{text}\" names a sensitive value — manual JSON \
                             construction of unreleased fields is forbidden"
                        ),
                    );
                }
            }
        }
        // (c) Inside the server's wire-type code no sensitive identifier may appear at all:
        // the server only ever sees released values.
        if self.crate_is("server") {
            for t in self.tokens {
                if t.kind == TokenKind::Ident
                    && SENSITIVE_IDENTS.contains(&t.text.as_str())
                    && !self.in_test(t.line)
                {
                    let (line, text) = (t.line, t.text.clone());
                    self.push(
                        "privacy-serialize",
                        line,
                        format!(
                            "sensitive identifier `{text}` in server wire-type code — the \
                             server must only handle released values"
                        ),
                    );
                }
            }
        }
    }

    fn check_span_for_sensitive(&mut self, open: usize, close: usize, macro_name: &str) {
        for j in open..close {
            let t = &self.tokens[j];
            if t.kind == TokenKind::Ident && SENSITIVE_IDENTS.contains(&t.text.as_str()) {
                let (line, text) = (t.line, t.text.clone());
                self.push(
                    "privacy-serialize",
                    line,
                    format!(
                        "sensitive field `{text}` inside `{macro_name}!` — unreleased values \
                         must never serialize (use impl_json_struct_redacted!)"
                    ),
                );
            }
        }
    }

    /// `impl_json_struct_redacted!` is the sanctioned carrier for sensitive in-memory fields:
    /// only its `released:` block serializes, so only that block is checked.
    fn check_redacted_invocation(&mut self, open: usize, close: usize) {
        let mut j = open;
        while j < close {
            if self.tokens[j].is_ident("released")
                && self.tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && self.tokens.get(j + 2).is_some_and(|t| t.is_punct('{'))
            {
                if let Some(block_close) = matching(self.tokens, j + 2, '{', '}') {
                    self.check_span_for_sensitive(j + 3, block_close, "impl_json_struct_redacted");
                    j = block_close + 1;
                    continue;
                }
            }
            j += 1;
        }
    }

    /// Rule `forbid-unsafe`: every crate root must carry `#![forbid(unsafe_code)]`.
    fn forbid_unsafe(&mut self) {
        let parts: Vec<&str> = self.rel.split('/').collect();
        let is_crate_root = matches!(
            parts.as_slice(),
            ["crates", _, "src", "lib.rs" | "main.rs"] | ["src", "workspace_lib.rs"]
        );
        if !is_crate_root {
            return;
        }
        for i in 0..self.tokens.len() {
            if self.tokens[i].is_punct('#')
                && self.tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
                && self.tokens.get(i + 2).is_some_and(|t| t.is_punct('['))
                && self.tokens.get(i + 3).is_some_and(|t| t.is_ident("forbid"))
                && self.tokens.get(i + 4).is_some_and(|t| t.is_punct('('))
                && self.tokens.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
            {
                return;
            }
        }
        self.push(
            "forbid-unsafe",
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }

    /// Rule `hash-iter`: no iteration over `HashMap`/`HashSet` storage order outside test
    /// code. Keyed access (`get`, `entry`, `contains_key`, `len`) is fine — only
    /// order-revealing traversal is flagged.
    fn hash_iter(&mut self) {
        let tracked = self.typed_idents(&["HashMap", "HashSet"]);
        if tracked.is_empty() {
            return;
        }
        for i in 0..self.tokens.len() {
            let t = &self.tokens[i];
            if t.kind != TokenKind::Ident || !tracked.contains(&t.text) || self.in_test(t.line) {
                continue;
            }
            // `name.iter()` / `.keys()` / ... — iteration methods on a hash-typed binding.
            if self.tokens.get(i + 1).is_some_and(|n| n.is_punct('.'))
                && self
                    .tokens
                    .get(i + 2)
                    .is_some_and(|m| HASH_ITER_METHODS.contains(&m.text.as_str()))
                && self.tokens.get(i + 3).is_some_and(|p| p.is_punct('('))
            {
                let (line, name, method) =
                    (t.line, t.text.clone(), self.tokens[i + 2].text.clone());
                self.push(
                    "hash-iter",
                    line,
                    format!(
                        "`{name}.{method}()` iterates a hash collection in storage order — \
                         use a sorted/Vec-based form or a BTreeMap"
                    ),
                );
            }
            // `for x in name {` / `for x in &name {` — direct for-loop traversal.
            if i >= 1 {
                let mut j = i - 1;
                while j > 0 && (self.tokens[j].is_punct('&') || self.tokens[j].is_ident("mut")) {
                    j -= 1;
                }
                if self.tokens[j].is_ident("in")
                    && self.tokens.get(i + 1).is_some_and(|n| n.is_punct('{'))
                {
                    let (line, name) = (t.line, t.text.clone());
                    self.push(
                        "hash-iter",
                        line,
                        format!(
                            "`for ... in {name}` traverses a hash collection in storage order — \
                             use a sorted/Vec-based form or a BTreeMap"
                        ),
                    );
                }
            }
        }
    }

    /// Rule `determinism-time`: no wall-clock access in compute crates. The clock is an input
    /// the determinism contract does not admit; `obs`/`server`/`bench` own all timing.
    fn determinism_time(&mut self) {
        if !self.in_deterministic_crate() || self.class.category != Category::Lib {
            return;
        }
        for i in 0..self.tokens.len() {
            let t = &self.tokens[i];
            if self.in_test(t.line) {
                continue;
            }
            if t.is_ident("Instant") || t.is_ident("SystemTime") {
                let (line, text) = (t.line, t.text.clone());
                self.push(
                    "determinism-time",
                    line,
                    format!("`{text}` in a compute crate — wall-clock reads break determinism"),
                );
            } else if self.path_at(i, &["std", "time"]) {
                let line = t.line;
                self.push(
                    "determinism-time",
                    line,
                    "`std::time` in a compute crate — wall-clock reads break determinism"
                        .to_string(),
                );
            }
        }
    }

    /// Rule `determinism-thread`: all thread creation (`thread::spawn`, `thread::scope`,
    /// `thread::Builder`) and hardware-parallelism discovery lives in `crates/par` — the one
    /// place the byte-identical-for-any-thread-count contract is engineered. Everything else (the server's HTTP pool included) must either borrow the
    /// executor or carry an explicit waiver.
    fn determinism_thread(&mut self) {
        if self.crate_is("par") || self.class.category != Category::Lib {
            return;
        }
        for i in 0..self.tokens.len() {
            let t = &self.tokens[i];
            if self.in_test(t.line) {
                continue;
            }
            let hit = if self.path_at(i, &["thread", "spawn"]) {
                Some("thread::spawn")
            } else if self.path_at(i, &["thread", "scope"]) {
                Some("thread::scope")
            } else if self.path_at(i, &["thread", "Builder"]) {
                Some("thread::Builder")
            } else if t.is_ident("available_parallelism") {
                Some("available_parallelism")
            } else {
                None
            };
            if let Some(what) = hit {
                let line = t.line;
                self.push(
                    "determinism-thread",
                    line,
                    format!(
                        "`{what}` outside crates/par — thread management belongs to the \
                         deterministic executor"
                    ),
                );
            }
        }
    }

    /// Rule `allow-attr`: the workspace lint table must not be re-allowed anywhere.
    fn allow_attr(&mut self) {
        for i in 0..self.tokens.len() {
            let t = &self.tokens[i];
            if !t.is_ident("allow") || !self.tokens.get(i + 1).is_some_and(|p| p.is_punct('(')) {
                continue;
            }
            let Some(close) = matching(self.tokens, i + 1, '(', ')') else { continue };
            for j in i + 2..close {
                let inner = &self.tokens[j];
                if inner.kind == TokenKind::Ident
                    && WORKSPACE_LINT_TABLE.contains(&inner.text.as_str())
                {
                    let (line, text) = (t.line, inner.text.clone());
                    self.push(
                        "allow-attr",
                        line,
                        format!(
                            "`#[allow({text})]` re-allows a workspace-table lint — fix the \
                             code instead (tests get unwrap latitude from clippy.toml)"
                        ),
                    );
                }
            }
        }
    }

    /// Rule `obs-read`: compute code may *write* metrics (counters, spans, progress events)
    /// but must never read them back — rendering the registry or calling a getter from a
    /// compute path would let instrumentation feed back into results.
    fn obs_read(&mut self) {
        if !self.in_deterministic_crate() || self.class.category != Category::Lib {
            return;
        }
        let metric_idents = self.typed_idents(&["Counter", "Gauge", "Histogram"]);
        for i in 0..self.tokens.len() {
            let t = &self.tokens[i];
            if self.in_test(t.line) {
                continue;
            }
            // `.render(` / `::render(` — rendering the registry.
            if t.is_ident("render")
                && i >= 1
                && (self.tokens[i - 1].is_punct('.') || self.tokens[i - 1].is_punct(':'))
                && self.tokens.get(i + 1).is_some_and(|p| p.is_punct('('))
            {
                let line = t.line;
                self.push(
                    "obs-read",
                    line,
                    "registry render in a compute crate — observability is write-only from \
                     compute paths"
                        .to_string(),
                );
            }
            // Histogram read-side accessors.
            if (t.is_ident("bucket_counts") || t.is_ident("sum_ns") || t.is_ident("bucket_bound"))
                && self.tokens.get(i + 1).is_some_and(|p| p.is_punct('('))
            {
                let (line, text) = (t.line, t.text.clone());
                self.push(
                    "obs-read",
                    line,
                    format!("`{text}()` reads a histogram from a compute crate"),
                );
            }
            // `metric.get()` on a binding typed Counter/Gauge/Histogram.
            if t.kind == TokenKind::Ident
                && metric_idents.contains(&t.text)
                && self.tokens.get(i + 1).is_some_and(|p| p.is_punct('.'))
                && self.tokens.get(i + 2).is_some_and(|m| m.is_ident("get"))
                && self.tokens.get(i + 3).is_some_and(|p| p.is_punct('('))
            {
                let (line, name) = (t.line, t.text.clone());
                self.push(
                    "obs-read",
                    line,
                    format!("`{name}.get()` reads a metric from a compute crate"),
                );
            }
            // `registry.counter(...).get()` — reading through a freshly-fetched handle.
            if (t.is_ident("counter") || t.is_ident("gauge") || t.is_ident("histogram"))
                && self.tokens.get(i + 1).is_some_and(|p| p.is_punct('('))
            {
                if let Some(close) = matching(self.tokens, i + 1, '(', ')') {
                    if self.tokens.get(close + 1).is_some_and(|p| p.is_punct('.'))
                        && self.tokens.get(close + 2).is_some_and(|m| m.is_ident("get"))
                        && self.tokens.get(close + 3).is_some_and(|p| p.is_punct('('))
                    {
                        let line = self.tokens[close + 2].line;
                        self.push(
                            "obs-read",
                            line,
                            "metric getter chained off the registry in a compute crate".to_string(),
                        );
                    }
                }
            }
        }
    }

    /// Rule `privacy-taint`: flow-aware companion to `privacy-serialize`. Sensitive *sources*
    /// (deny-list names, `// lint:source(sensitive)` functions, and helpers with inferred
    /// tainted returns) propagate through `let` bindings and assignments; a finding fires when
    /// a tainted value reaches a *sink* — a serialization-macro invocation, manual `Json`
    /// construction, a call of a [`JSON_WRITERS`] function, or a `pub` return in
    /// `crates/server` — without passing a declared
    /// `// lint:sanitizer` release function. This is what catches the rename the deny list
    /// cannot: `let t = exact_triangle_count; Json::Number(t as f64)`.
    fn privacy_taint(&mut self) {
        if self.class.category != Category::Lib {
            return;
        }
        let fns = self.fns.clone();
        for f in &fns {
            let Some((open, close)) = f.body else { continue };
            // A declared sanitizer body is the trusted boundary: it handles raw values by
            // definition, so sink checks are suppressed inside it.
            if f.is_sanitizer || self.ctx.is_sanitizer(&f.name) {
                continue;
            }
            let analysis = taint::analyze(self.tokens, f, self.ctx);
            let excised = taint::excised_mask(self.tokens, open + 1, close, self.ctx);
            let mut i = open + 1;
            while i < close {
                let t = &self.tokens[i];
                let is_macro = t.kind == TokenKind::Ident
                    && SERIALIZE_MACROS.contains(&t.text.as_str())
                    && self.tokens.get(i + 1).is_some_and(|n| n.is_punct('!'));
                if is_macro {
                    if let Some(mclose) = matching(self.tokens, i + 2, '(', ')') {
                        self.taint_sink_span(i + 2, mclose, &analysis, &excised, Sink::Macro);
                        i = mclose + 1;
                        continue;
                    }
                }
                let is_writer = t.kind == TokenKind::Ident
                    && JSON_WRITERS.contains(&t.text.as_str())
                    && self.tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
                if is_writer {
                    if let Some(wclose) = matching(self.tokens, i + 1, '(', ')') {
                        self.taint_sink_span(i + 2, wclose, &analysis, &excised, Sink::Writer);
                        i = wclose + 1;
                        continue;
                    }
                }
                let is_json = t.is_ident("Json")
                    && self.tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && self.tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && self.tokens.get(i + 3).is_some_and(|n| n.kind == TokenKind::Ident)
                    && self.tokens.get(i + 4).is_some_and(|n| n.is_punct('('));
                if is_json {
                    if let Some(jclose) = matching(self.tokens, i + 4, '(', ')') {
                        self.taint_sink_span(i + 5, jclose, &analysis, &excised, Sink::Json);
                        i += 5;
                        continue;
                    }
                }
                i += 1;
            }
            // Deny-listed spellings in server code are already rule-c `privacy-serialize`
            // findings; the flow sink only adds the leaks that arrive through renames or
            // call returns.
            if self.crate_is("server")
                && f.is_pub
                && f.has_return_type
                && analysis.return_tainted
                && !analysis.return_deny_listed
            {
                let line = analysis.return_line.unwrap_or(f.line);
                if !self.in_test(line) {
                    let name = f.name.clone();
                    self.push(
                        "privacy-taint",
                        line,
                        format!(
                            "`pub fn {name}` in crates/server returns a value derived from a \
                             sensitive source without passing a declared sanitizer"
                        ),
                    );
                }
            }
        }
    }

    /// Reports every tainted, non-excised token inside a sink span. Bare deny-list names are
    /// skipped where `privacy-serialize` already owns them (serialization macros everywhere,
    /// and all of `crates/server`) so the two rules never double-report one leak.
    fn taint_sink_span(
        &mut self,
        lo: usize,
        hi: usize,
        analysis: &taint::FnTaint,
        excised: &taint::Excised,
        sink: Sink,
    ) {
        for j in lo..hi.min(self.tokens.len()) {
            let t = &self.tokens[j];
            if excised.contains(j)
                || self.in_test(t.line)
                || !taint::token_tainted(self.tokens, j, &analysis.tainted, self.ctx)
            {
                continue;
            }
            let deny_listed = SENSITIVE_IDENTS.contains(&t.text.as_str());
            if deny_listed && (sink == Sink::Macro || self.crate_is("server")) {
                continue;
            }
            let (line, text) = (t.line, t.text.clone());
            let sink = match sink {
                Sink::Macro => "a serialization macro",
                Sink::Json => "manual Json construction",
                Sink::Writer => "a JSON writer",
            };
            self.push(
                "privacy-taint",
                line,
                format!(
                    "`{text}` carries a sensitive value into {sink} without passing a declared \
                     sanitizer — route it through the DP release functions in crates/dp"
                ),
            );
        }
    }

    /// Rules `executor-capture` and `executor-work-hint`: the executor-contract family.
    ///
    /// Closures in the parallel (`Fn + Sync`) positions of `map_reduce`/`fold_reduce` must not
    /// mutably borrow captured state or touch interior-mutability types — cross-thread
    /// feedback would break the byte-identical-for-any-thread-count contract. The sequential fold/merge positions are exempt (they run on the calling
    /// thread, in chunk order). Separately, the cost-hint argument must visibly carry a
    /// `Work` value so new kernels cannot silently opt out of work-aware cutoffs.
    fn executor_contracts(&mut self) {
        if self.class.category != Category::Lib {
            return;
        }
        let work_typed = self.typed_idents(&["Work"]);
        for i in 0..self.tokens.len() {
            let t = &self.tokens[i];
            let is_entry = t.kind == TokenKind::Ident
                && EXECUTOR_ENTRY_POINTS.contains(&t.text.as_str())
                && i > 0
                && self.tokens[i - 1].is_punct('.')
                && self.tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
            if !is_entry || self.in_test(t.line) {
                continue;
            }
            let Some(close) = matching(self.tokens, i + 1, '(', ')') else { continue };
            let args = split_args(self.tokens, i + 2, close);
            let name = t.text.clone();
            if let Some(&(lo, hi)) = args.get(2) {
                let hinted = (lo..hi).any(|j| {
                    let a = &self.tokens[j];
                    a.kind == TokenKind::Ident
                        && (a.text.to_ascii_lowercase().contains("work")
                            || work_typed.contains(&a.text))
                });
                if !hinted {
                    let line = self.tokens[lo].line;
                    self.push(
                        "executor-work-hint",
                        line,
                        format!(
                            "`{name}` call without a visible `Work` cost hint — kernel entry \
                             points must carry one for work-aware sequential cutoffs"
                        ),
                    );
                }
            }
            let parallel_args: &[usize] = if name == "fold_reduce" { &[3, 4] } else { &[3] };
            for &ai in parallel_args {
                if let Some(&(lo, hi)) = args.get(ai) {
                    self.parallel_closure_captures(lo, hi, &name);
                }
            }
        }
    }

    /// Checks one parallel-position argument: if it is a closure literal, its body must not
    /// mutably borrow anything it did not bind itself, nor mention an interior-mutability or
    /// atomic type.
    fn parallel_closure_captures(&mut self, lo: usize, hi: usize, entry: &str) {
        let mut j = lo;
        if self.tokens.get(j).is_some_and(|t| t.is_ident("move")) {
            j += 1;
        }
        if !self.tokens.get(j).is_some_and(|t| t.is_punct('|')) {
            return; // not a closure literal (a named fn or forwarded binding) — out of scope
        }
        let mut params_close = j + 1;
        while params_close < hi && !self.tokens[params_close].is_punct('|') {
            params_close += 1;
        }
        if params_close >= hi {
            return;
        }
        // Closure-locals: parameter bindings plus `let`/`for` bindings in the body. `&mut` on
        // these is fine (per-chunk state); `&mut` on anything else is a captured borrow.
        let mut locals: Vec<String> = Vec::new();
        for k in j + 1..params_close {
            let t = &self.tokens[k];
            if t.kind == TokenKind::Ident && !(k > j + 1 && self.tokens[k - 1].is_punct(':')) {
                locals.push(t.text.clone());
            }
        }
        let body = (params_close + 1, hi);
        for k in body.0..body.1 {
            if self.tokens[k].is_ident("let") {
                let mut m = k + 1;
                while m < body.1 {
                    let t = &self.tokens[m];
                    if t.is_punct('=') || t.is_punct(';') {
                        break;
                    }
                    if t.kind == TokenKind::Ident
                        && !matches!(t.text.as_str(), "mut" | "ref" | "box")
                        && !(m > 0 && self.tokens[m - 1].is_punct(':'))
                    {
                        locals.push(t.text.clone());
                    }
                    m += 1;
                }
            }
            if self.tokens[k].is_ident("for") {
                let mut m = k + 1;
                while m < body.1 && !self.tokens[m].is_ident("in") {
                    if self.tokens[m].kind == TokenKind::Ident {
                        locals.push(self.tokens[m].text.clone());
                    }
                    m += 1;
                }
            }
        }
        for k in body.0..body.1 {
            let t = &self.tokens[k];
            if t.kind == TokenKind::Ident
                && (INTERIOR_MUT_TYPES.contains(&t.text.as_str()) || t.text.starts_with("Atomic"))
            {
                let (line, text) = (t.line, t.text.clone());
                self.push(
                    "executor-capture",
                    line,
                    format!(
                        "`{text}` inside a parallel closure passed to `{entry}` — \
                         interior-mutability shared across worker threads breaks the \
                         deterministic chunk-order contract"
                    ),
                );
            }
            if t.is_punct('&') && self.tokens.get(k + 1).is_some_and(|n| n.is_ident("mut")) {
                let mut target = k + 2;
                while self.tokens.get(target).is_some_and(|x| x.is_punct('*')) {
                    target += 1;
                }
                if let Some(tok) = self.tokens.get(target) {
                    if tok.kind == TokenKind::Ident && !locals.contains(&tok.text) {
                        let (line, text) = (tok.line, tok.text.clone());
                        self.push(
                            "executor-capture",
                            line,
                            format!(
                                "`&mut {text}` borrows captured state inside a parallel \
                                 closure passed to `{entry}` — parallel closures must be \
                                 `Fn + Sync` over their environment"
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Rule `debit-before-enqueue`: in `crates/server`, a `jobs.run(...)`/`jobs.submit(...)`
    /// enqueue must be preceded in the same function by a ledger debit (`try_debit` /
    /// `force_debit`) — the static form of PR 9's debit-before-execute accountant invariant.
    fn debit_before_enqueue(&mut self) {
        if !self.crate_is("server") || self.class.category != Category::Lib {
            return;
        }
        let bodies: Vec<(usize, usize)> = self.fns.iter().filter_map(|f| f.body).collect();
        for i in 0..self.tokens.len() {
            let t = &self.tokens[i];
            let is_enqueue = t.is_ident("jobs")
                && self.tokens.get(i + 1).is_some_and(|n| n.is_punct('.'))
                && self.tokens.get(i + 2).is_some_and(|n| {
                    n.kind == TokenKind::Ident && ENQUEUE_METHODS.contains(&n.text.as_str())
                })
                && self.tokens.get(i + 3).is_some_and(|n| n.is_punct('('));
            if !is_enqueue || self.in_test(t.line) {
                continue;
            }
            let Some(&(open, _)) = bodies.iter().find(|&&(o, c)| (o..=c).contains(&i)) else {
                continue;
            };
            let debited = (open..i).any(|j| {
                let d = &self.tokens[j];
                d.kind == TokenKind::Ident
                    && DEBIT_CALLS.contains(&d.text.as_str())
                    && self.tokens.get(j + 1).is_some_and(|n| n.is_punct('('))
            });
            if !debited {
                let (line, method) = (self.tokens[i + 2].line, self.tokens[i + 2].text.clone());
                self.push(
                    "debit-before-enqueue",
                    line,
                    format!(
                        "`jobs.{method}(...)` without a preceding ledger debit in the same \
                         function — the accountant contract requires debit-before-execute"
                    ),
                );
            }
        }
    }

    /// Identifiers in this file whose declared type (ascription, field, parameter) or
    /// constructor mentions one of `type_names`. Heuristic but source-local, which keeps the
    /// tool fast and offline; fixtures pin the recognized declaration shapes.
    fn typed_idents(&self, type_names: &[&str]) -> Vec<String> {
        let mut found: Vec<String> = Vec::new();
        for i in 0..self.tokens.len() {
            let t = &self.tokens[i];
            // Bindings declared inside test regions never taint non-test code: the rules that
            // consume this list all skip test lines, so a `#[cfg(test)]`-local `m: HashMap`
            // must not turn an unrelated non-test `m` into a tracked hash binding.
            if t.kind != TokenKind::Ident || self.in_test(t.line) {
                continue;
            }
            // `name: ...Type...` up to a shape terminator (single colon only: `a::b` paths
            // must not bind `a`).
            if self.tokens.get(i + 1).is_some_and(|p| p.is_punct(':'))
                && !self.tokens.get(i + 2).is_some_and(|p| p.is_punct(':'))
                && (i == 0 || !self.tokens[i - 1].is_punct(':'))
            {
                let mut j = i + 2;
                let mut angle = 0i64;
                while let Some(tok) = self.tokens.get(j) {
                    match tok.kind {
                        TokenKind::Punct('<') => angle += 1,
                        TokenKind::Punct('>') => angle -= 1,
                        TokenKind::Punct(';' | '=' | '{' | '}') => break,
                        TokenKind::Punct(',' | ')') if angle <= 0 => break,
                        TokenKind::Ident if type_names.contains(&tok.text.as_str()) => {
                            found.push(t.text.clone());
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            // `name = Type::...` (constructor binding, e.g. `let m = HashMap::new()`).
            if self.tokens.get(i + 1).is_some_and(|p| p.is_punct('='))
                && self.tokens.get(i + 2).is_some_and(|n| {
                    n.kind == TokenKind::Ident && type_names.contains(&n.text.as_str())
                })
            {
                found.push(t.text.clone());
            }
        }
        found.sort();
        found.dedup();
        found
    }
}
