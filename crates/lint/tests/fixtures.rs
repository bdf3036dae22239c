//! The lint tool's own acceptance suite.
//!
//! Three layers of pinning:
//!
//! 1. **Fixture corpus** — `fixtures/tree` is a miniature workspace of deliberate violations
//!    (every rule has at least one) interleaved with passing near-misses; the expected finding
//!    set is asserted exactly, (file, line, rule) by (file, line, rule).
//! 2. **Deny-list guards** — removing an entry from [`SENSITIVE_IDENTS`] or
//!    [`WORKSPACE_LINT_TABLE`], or weakening the obs no-feedback rule, fails these tests even
//!    if the fixture files were edited to match.
//! 3. **Real tree** — the actual workspace must scan clean: zero unwaived findings, and every
//!    waiver carries a reason.

use kronpriv_lint::{scan_source, scan_workspace, SENSITIVE_IDENTS, WORKSPACE_LINT_TABLE};
use kronpriv_par::Executor;
use std::path::Path;

fn fixture_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/tree"))
}

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The exact expected finding set for the fixture corpus. Every entry is a planted violation;
/// every near-miss in the same files must stay absent from the scan.
const EXPECTED: &[(&str, usize, &str)] = &[
    ("crates/dp/src/allow_bad.rs", 4, "allow-attr"),
    ("crates/dp/src/allow_bad.rs", 10, "allow-attr"),
    ("crates/dp/src/hash_bad.rs", 6, "hash-iter"),
    ("crates/dp/src/hash_bad.rs", 10, "hash-iter"),
    ("crates/dp/src/hash_bad.rs", 18, "hash-iter"),
    ("crates/dp/src/obs_bad.rs", 5, "obs-read"),
    ("crates/dp/src/obs_bad.rs", 11, "obs-read"),
    ("crates/dp/src/obs_bad.rs", 16, "obs-read"),
    ("crates/dp/src/obs_bad.rs", 21, "obs-read"),
    ("crates/dp/src/privacy_bad.rs", 9, "privacy-serialize"),
    ("crates/dp/src/privacy_bad.rs", 12, "privacy-serialize"),
    ("crates/dp/src/privacy_bad.rs", 16, "privacy-serialize"),
    ("crates/dp/src/privacy_redacted_bad.rs", 6, "privacy-serialize"),
    ("crates/dp/src/taint_helper_bad.rs", 15, "privacy-taint"),
    ("crates/dp/src/taint_method_bad.rs", 5, "privacy-taint"),
    ("crates/dp/src/taint_method_bad.rs", 9, "privacy-taint"),
    ("crates/dp/src/taint_rename_bad.rs", 5, "privacy-taint"),
    ("crates/dp/src/taint_writer_bad.rs", 5, "privacy-taint"),
    ("crates/dp/src/time_bad.rs", 4, "determinism-time"),
    ("crates/dp/src/time_bad.rs", 8, "determinism-time"),
    ("crates/dp/src/time_bad.rs", 11, "determinism-time"),
    ("crates/dp/src/waiver_bad.rs", 4, "waiver-syntax"),
    ("crates/dp/src/waiver_bad.rs", 5, "determinism-time"),
    ("crates/dp/src/waiver_bad.rs", 8, "waiver-syntax"),
    ("crates/dp/src/waiver_bad.rs", 12, "waiver-syntax"),
    ("crates/dp/src/waiver_bad.rs", 16, "stale-waiver"),
    ("crates/graph/src/lib.rs", 1, "forbid-unsafe"),
    ("crates/server/src/enqueue_bad.rs", 3, "debit-before-enqueue"),
    ("crates/server/src/pub_return_bad.rs", 9, "privacy-taint"),
    ("crates/server/src/wire_bad.rs", 7, "privacy-serialize"),
    ("crates/server/src/wire_bad.rs", 9, "privacy-serialize"),
    ("crates/server/src/wire_v1_bad.rs", 7, "privacy-serialize"),
    ("crates/server/src/wire_v1_bad.rs", 9, "privacy-serialize"),
    ("crates/stats/src/exec_capture_bad.rs", 11, "executor-capture"),
    ("crates/stats/src/exec_capture_bad.rs", 27, "executor-capture"),
    ("crates/stats/src/exec_work_bad.rs", 6, "executor-work-hint"),
    ("crates/stats/src/taint_cross_bad.rs", 5, "privacy-taint"),
    ("crates/stats/src/thread_bad.rs", 5, "determinism-thread"),
    ("crates/stats/src/thread_bad.rs", 8, "determinism-thread"),
    ("crates/stats/src/thread_bad.rs", 11, "determinism-thread"),
    ("crates/stats/src/thread_bad.rs", 17, "determinism-thread"),
];

#[test]
fn fixture_corpus_is_flagged_exactly() {
    let report = scan_workspace(fixture_root(), &Executor::auto()).expect("fixture tree scans");
    let got: Vec<(String, usize, String)> =
        report.findings.iter().map(|f| (f.file.clone(), f.line, f.rule.clone())).collect();
    let want: Vec<(String, usize, String)> =
        EXPECTED.iter().map(|&(f, l, r)| (f.to_string(), l, r.to_string())).collect();
    assert_eq!(
        got,
        want,
        "fixture findings diverged from the expectations table:\n{}",
        report.to_text()
    );
}

#[test]
fn fixture_waivers_are_counted_with_reasons() {
    let report = scan_workspace(fixture_root(), &Executor::auto()).expect("fixture tree scans");
    // waiver_ok.rs demonstrates both accepted placements: line-above and same-line.
    let waived: Vec<(String, usize, String)> = report
        .waived
        .iter()
        .map(|w| (w.finding.file.clone(), w.finding.line, w.finding.rule.clone()))
        .collect();
    assert_eq!(
        waived,
        vec![
            ("crates/dp/src/waiver_ok.rs".to_string(), 4, "determinism-time".to_string()),
            ("crates/dp/src/waiver_ok.rs".to_string(), 7, "determinism-time".to_string()),
        ]
    );
    for w in &report.waived {
        assert!(!w.reason.trim().is_empty(), "waiver without a reason survived: {w:?}");
    }
}

#[test]
fn every_rule_has_a_failing_fixture() {
    let report = scan_workspace(fixture_root(), &Executor::auto()).expect("fixture tree scans");
    for rule in kronpriv_lint::RULES {
        assert!(
            report.findings.iter().any(|f| f.rule == *rule),
            "rule `{rule}` has no failing fixture in the corpus"
        );
    }
}

/// The tentpole's proof obligation: a deny-listed value laundered through a rename reaches a
/// serialization sink. v1's spelling-based rules produce *nothing* for this file — only the
/// flow-aware taint rule catches it.
#[test]
fn renamed_sensitive_value_is_invisible_to_v1_rules_but_caught_by_taint() {
    let report = scan_workspace(fixture_root(), &Executor::auto()).expect("fixture tree scans");
    let rename_findings: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.file == "crates/dp/src/taint_rename_bad.rs")
        .map(|f| f.rule.as_str())
        .collect();
    assert!(!rename_findings.is_empty(), "the rename leak was not caught at all");
    assert!(
        rename_findings.iter().all(|r| *r == "privacy-taint"),
        "only the v2 taint rule can see the rename leak; v1 rules fired: {rename_findings:?}"
    );
}

/// The parallel workspace walk must be thread-count-invariant down to the byte: the fixed
/// path-order reduction makes one thread and four produce identical reports.
#[test]
fn report_bytes_are_identical_for_any_thread_count() {
    let one = scan_workspace(fixture_root(), &Executor::new(1)).expect("scan on 1 thread");
    let four = scan_workspace(fixture_root(), &Executor::new(4)).expect("scan on 4 threads");
    assert_eq!(one.to_text(), four.to_text());
    assert_eq!(one.to_json().to_pretty_string(), four.to_json().to_pretty_string());
    assert_eq!(one.to_sarif().to_pretty_string(), four.to_sarif().to_pretty_string());
}

/// Deleting an entry from the sensitive-identifier deny list must fail the gate: every entry
/// placed inside a serialization macro in a compute crate yields a privacy finding.
#[test]
fn every_sensitive_ident_is_denied_in_macros() {
    for ident in SENSITIVE_IDENTS {
        let source = format!("impl_json_struct!(Doc {{ value, {ident} }});\n");
        let report = scan_source("crates/dp/src/synthetic.rs", &source);
        assert!(
            report.findings.iter().any(|f| f.rule == "privacy-serialize" && f.line == 1),
            "sensitive identifier `{ident}` was not flagged inside impl_json_struct!"
        );
    }
}

/// Deleting an entry from the workspace lint table must fail the gate: re-allowing any table
/// lint by attribute is always a finding.
#[test]
fn every_workspace_table_lint_is_guarded() {
    for lint in WORKSPACE_LINT_TABLE {
        for attr in [format!("#[allow({lint})]"), format!("#[allow(clippy::{lint})]")] {
            let source = format!("{attr}\npub fn f() {{}}\n");
            let report = scan_source("crates/dp/src/synthetic.rs", &source);
            assert!(
                report.findings.iter().any(|f| f.rule == "allow-attr"),
                "`{attr}` was not flagged"
            );
        }
    }
}

/// Reading the observability registry from a compute crate must fail the gate — the ISSUE's
/// canary for the no-feedback contract.
#[test]
fn obs_registry_read_from_dp_is_a_finding() {
    let source = "pub fn leak(reg: &Registry) -> String { reg.render() }\n";
    let report = scan_source("crates/dp/src/synthetic.rs", source);
    assert!(
        report.findings.iter().any(|f| f.rule == "obs-read"),
        "registry render from crates/dp was not flagged"
    );
}

#[test]
fn real_tree_scans_clean() {
    let report = scan_workspace(workspace_root(), &Executor::auto()).expect("workspace scans");
    assert!(
        report.findings.is_empty(),
        "the real tree has unwaived findings:\n{}",
        report.to_text()
    );
    assert!(report.files_scanned > 50, "suspiciously few files scanned — wrong root?");
    for w in &report.waived {
        assert!(!w.reason.trim().is_empty(), "waiver without a reason: {w:?}");
    }
}
