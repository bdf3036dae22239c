//! The `kronpriv-lint` command-line gate.
//!
//! ```text
//! cargo run -p kronpriv-lint -- --workspace-root .          # human-readable findings
//! cargo run -p kronpriv-lint -- --workspace-root . --json   # machine-readable, for CI
//! cargo run -p kronpriv-lint -- --workspace-root . --sarif  # SARIF 2.1.0, for code scanning
//! ```
//!
//! Exit status 0 means zero unwaived findings; any finding (including waiver-hygiene findings)
//! exits 1, which is what makes `scripts/verify.sh` and CI hard gates.

#![forbid(unsafe_code)]

use kronpriv_par::Executor;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut sarif = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace-root" => match args.next() {
                Some(path) => root = PathBuf::from(path),
                None => {
                    eprintln!("--workspace-root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--sarif" => sarif = true,
            "--help" | "-h" => {
                eprintln!("usage: kronpriv-lint [--workspace-root PATH] [--json | --sarif]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?} (see --help)");
                return ExitCode::from(2);
            }
        }
    }
    let report = match kronpriv_lint::scan_workspace(&root, &Executor::auto()) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("kronpriv-lint: cannot scan {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    if sarif {
        println!("{}", report.to_sarif().to_pretty_string());
    } else if json {
        println!("{}", report.to_json().to_pretty_string());
    } else {
        print!("{}", report.to_text());
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
