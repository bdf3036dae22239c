//! Regenerates Table 1 of the paper: parameter estimates of the three estimators on the four
//! evaluation graphs, printed next to the published values.
//!
//! ```text
//! cargo run --release -p kronpriv-bench --bin table1 [-- --quick] [-- --data-dir <dir>]
//! ```

use kronpriv_bench::table1::{report_table1, run_table1, Table1Options};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let data_dir = args
        .iter()
        .position(|a| a == "--data-dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let options = Table1Options { quick, data_dir, ..Default::default() };

    println!(
        "Reproducing Table 1 (ε = 0.2, δ = 0.01){}\n",
        if quick { " [quick mode]" } else { "" }
    );
    let rows = run_table1(&options).unwrap_or_else(|e| {
        eprintln!("table1: {e}");
        std::process::exit(1)
    });
    println!("{}", report_table1(&rows));
}
