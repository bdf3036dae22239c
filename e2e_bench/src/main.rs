//! `e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints two JSON lines: the run record (inputs, thread and connection
//! counts, code identity, error rate, sample counts) and, last, the result with `correct`,
//! `attempted`, `failed` and the metrics.

use kronpriv_e2e_bench::{record_line, result_line, run, RunConfig, Workload};
use std::process::ExitCode;

fn parse_args() -> Result<RunConfig, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad(()))? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig::new(workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(outcome) => {
            println!("{}", record_line(&cfg, &outcome));
            println!("{}", result_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e-bench: {} failed: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}
