//! `kronpriv-lint` — an offline invariant checker for the kronpriv workspace.
//!
//! The workspace's value rests on three contracts that are otherwise only enforced
//! dynamically, by example-based tests:
//!
//! 1. **Privacy flow** — sensitive values (the exact triangle count, the raw noisy degree
//!    sequence) must never serialize: the `(ε, δ)`-DP release boundary of Mir & Wright §3.
//! 2. **Determinism** — identical seeds produce byte-identical results for any thread count:
//!    no hash-order iteration, no wall clock, no ad-hoc threads in compute crates.
//! 3. **Observability no-feedback** — compute paths may *write* metrics but never read them.
//!
//! v1 enforced these with a lexer ([`lexer`]) and per-line rules ([`rules`]). v2 adds a
//! flow-aware layer: a lightweight parse pass ([`parse`]) builds per-file function tables, a
//! best-effort workspace call graph ([`callgraph`]) merges `// lint:source(sensitive)` /
//! `// lint:sanitizer` annotations with inferred return taint, and a taint analysis
//! ([`taint`]) tracks sensitive *values* (not spellings) from sources through renames,
//! assignments and helper returns to serialization sinks. Executor-contract rules
//! (`executor-capture`, `executor-work-hint`) and the accountant rule
//! (`debit-before-enqueue`) statically pin the `kronpriv-par` and PR 9 ledger contracts.
//! Still no `syn`, no network, no `rustc` invocation — the whole gate runs in milliseconds,
//! and the workspace walk itself runs on `kronpriv-par` with a fixed path-order reduction, so
//! report bytes are identical for any thread count.
//!
//! Violations can be waived inline with `// lint:allow(<rule>, reason = "...")`; waivers are
//! counted, reported and themselves linted (a waiver that matches nothing is a finding).
//!
//! Run it as `cargo run -p kronpriv-lint -- --workspace-root .` (add `--json` for
//! machine-readable findings, `--sarif` for SARIF 2.1.0). The fixture corpus under
//! `crates/lint/fixtures/` is a miniature workspace of deliberate violations that the test
//! suite requires the tool to flag.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod taint;

pub use callgraph::{build_context, Context, FnFacts};
pub use rules::{
    classify, scan_source, scan_source_with, Category, FileClass, FileReport, Finding,
    WaivedFinding, DETERMINISTIC_CRATES, RULES, SENSITIVE_IDENTS, WORKSPACE_LINT_TABLE,
};

use kronpriv_par::{Executor, Work};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The aggregate result of scanning a workspace tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Unwaived findings across all files, in (file, line, rule) order. Non-empty ⇒ the gate
    /// fails.
    pub findings: Vec<Finding>,
    /// Waived findings with their reasons, for the accounting summary.
    pub waived: Vec<WaivedFinding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Directories never scanned: build output, VCS metadata, and the lint tool's own fixture
/// corpus of deliberate violations (scanned only by its test suite, never by the real gate).
fn skip_dir(rel: &str) -> bool {
    rel == "target" || rel == ".git" || rel == "crates/lint/fixtures" || rel.starts_with('.')
}

/// Recursively collects workspace-relative paths of `.rs` files under `root`, sorted so scan
/// output is deterministic.
fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel_dir) = stack.pop() {
        let abs = root.join(&rel_dir);
        for entry in fs::read_dir(&abs)? {
            let entry = entry?;
            let name = entry.file_name();
            let rel = if rel_dir.as_os_str().is_empty() {
                PathBuf::from(&name)
            } else {
                rel_dir.join(&name)
            };
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            let ty = entry.file_type()?;
            if ty.is_dir() {
                if !skip_dir(&rel_str) {
                    stack.push(rel);
                }
            } else if ty.is_file() && rel_str.ends_with(".rs") {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Per-file scan cost: lexing plus a handful of token passes over a few-KB source file.
const FILE_SCAN_WORK: Work = Work::per_item_ns(200_000);

/// Scans every `.rs` file in the workspace rooted at `root` and aggregates the per-file
/// reports. Fails only on I/O errors; findings are data, not errors.
///
/// Two phases: a sequential read pass collects every classifiable file and builds the
/// workspace flow context (annotation-seeded call-graph facts closed under return-taint
/// propagation), then the per-file rule scan fans out over `exec`. Files are sorted and the
/// chunk-order reduction concatenates per-file reports in that fixed path order, so the
/// resulting report — down to the byte — is independent of the thread count.
pub fn scan_workspace(root: &Path, exec: &Executor) -> io::Result<Report> {
    let mut files: Vec<(String, String)> = Vec::new();
    for rel in collect_rs_files(root)? {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if rules::classify(&rel_str).is_none() {
            continue;
        }
        let source = fs::read_to_string(root.join(&rel))?;
        files.push((rel_str, source));
    }
    let ctx = build_context(&files);

    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    let per_file = exec.map_reduce(
        files.len(),
        4,
        FILE_SCAN_WORK,
        |range| {
            files[range]
                .iter()
                .map(|(rel, source)| scan_source_with(rel, source, &ctx))
                .collect::<Vec<FileReport>>()
        },
        |mut acc: Vec<FileReport>, chunk| {
            acc.extend(chunk);
            acc
        },
        Vec::with_capacity(files.len()),
    );
    for file_report in per_file {
        report.findings.extend(file_report.findings);
        report.waived.extend(file_report.waived);
    }
    report.findings.sort_by(|a, b| {
        a.file.cmp(&b.file).then_with(|| a.line.cmp(&b.line)).then_with(|| a.rule.cmp(&b.rule))
    });
    report.waived.sort_by(|a, b| {
        a.finding
            .file
            .cmp(&b.finding.file)
            .then_with(|| a.finding.line.cmp(&b.finding.line))
            .then_with(|| a.finding.rule.cmp(&b.finding.rule))
    });
    Ok(report)
}

impl Report {
    /// Renders the human-readable text report (findings, waiver accounting, summary line).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n    {}\n",
                f.file, f.line, f.rule, f.message, f.snippet
            ));
        }
        if !self.waived.is_empty() {
            out.push_str(&format!("waivers in effect: {}\n", self.waived.len()));
            for w in &self.waived {
                out.push_str(&format!(
                    "    {}:{} [{}] reason: {}\n",
                    w.finding.file, w.finding.line, w.finding.rule, w.reason
                ));
            }
        }
        out.push_str(&format!(
            "kronpriv-lint: {} files scanned, {} finding(s), {} waiver(s)\n",
            self.files_scanned,
            self.findings.len(),
            self.waived.len()
        ));
        out
    }

    /// Renders the machine-readable JSON report consumed by the CI annotation step. Findings
    /// are emitted in (file, line, rule) order, so the document is byte-stable across runs.
    pub fn to_json(&self) -> kronpriv_json::Json {
        use kronpriv_json::Json;
        let finding_doc = |f: &Finding| {
            Json::Object(vec![
                ("file".to_string(), Json::String(f.file.clone())),
                ("line".to_string(), Json::Number(f.line as f64)),
                ("rule".to_string(), Json::String(f.rule.clone())),
                ("message".to_string(), Json::String(f.message.clone())),
                ("snippet".to_string(), Json::String(f.snippet.clone())),
            ])
        };
        Json::Object(vec![
            ("files_scanned".to_string(), Json::Number(self.files_scanned as f64)),
            ("findings".to_string(), Json::Array(self.findings.iter().map(finding_doc).collect())),
            (
                "waivers".to_string(),
                Json::Array(
                    self.waived
                        .iter()
                        .map(|w| {
                            let mut doc = match finding_doc(&w.finding) {
                                Json::Object(fields) => fields,
                                _ => unreachable!("finding_doc always returns an object"),
                            };
                            doc.push(("reason".to_string(), Json::String(w.reason.clone())));
                            Json::Object(doc)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders a minimal SARIF 2.1.0 document for code-scanning upload. Unwaived findings are
    /// `error`-level results; waived findings are included with an `inSource` suppression
    /// carrying the waiver reason, so suppressed results stay visible to reviewers.
    pub fn to_sarif(&self) -> kronpriv_json::Json {
        use kronpriv_json::Json;
        let location = |f: &Finding| {
            Json::Array(vec![Json::Object(vec![(
                "physicalLocation".to_string(),
                Json::Object(vec![
                    (
                        "artifactLocation".to_string(),
                        Json::Object(vec![("uri".to_string(), Json::String(f.file.clone()))]),
                    ),
                    (
                        "region".to_string(),
                        Json::Object(vec![("startLine".to_string(), Json::Number(f.line as f64))]),
                    ),
                ]),
            )])])
        };
        let result = |f: &Finding, suppression: Option<&str>| {
            let mut fields = vec![
                ("ruleId".to_string(), Json::String(f.rule.clone())),
                ("level".to_string(), Json::String("error".to_string())),
                (
                    "message".to_string(),
                    Json::Object(vec![("text".to_string(), Json::String(f.message.clone()))]),
                ),
                ("locations".to_string(), location(f)),
            ];
            if let Some(reason) = suppression {
                fields.push((
                    "suppressions".to_string(),
                    Json::Array(vec![Json::Object(vec![
                        ("kind".to_string(), Json::String("inSource".to_string())),
                        ("justification".to_string(), Json::String(reason.to_string())),
                    ])]),
                ));
            }
            Json::Object(fields)
        };
        let mut results: Vec<Json> = self.findings.iter().map(|f| result(f, None)).collect();
        results.extend(self.waived.iter().map(|w| result(&w.finding, Some(&w.reason))));
        let rules_doc = Json::Array(
            RULES
                .iter()
                .map(|r| Json::Object(vec![("id".to_string(), Json::String((*r).to_string()))]))
                .collect(),
        );
        Json::Object(vec![
            (
                "$schema".to_string(),
                Json::String("https://json.schemastore.org/sarif-2.1.0.json".to_string()),
            ),
            ("version".to_string(), Json::String("2.1.0".to_string())),
            (
                "runs".to_string(),
                Json::Array(vec![Json::Object(vec![
                    (
                        "tool".to_string(),
                        Json::Object(vec![(
                            "driver".to_string(),
                            Json::Object(vec![
                                ("name".to_string(), Json::String("kronpriv-lint".to_string())),
                                (
                                    "informationUri".to_string(),
                                    Json::String(
                                        "https://example.invalid/kronpriv-lint".to_string(),
                                    ),
                                ),
                                ("rules".to_string(), rules_doc),
                            ]),
                        )]),
                    ),
                    ("results".to_string(), Json::Array(results)),
                ])]),
            ),
        ])
    }
}
