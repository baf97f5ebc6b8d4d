//! Command line. The driver's form runs one workload once:
//!
//! ```text
//! panda-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints the result object as the last line of standard output.
//! For people there are `run` (every workload, one result file) and
//! `compare <a.json> <b.json>`.

use std::process::ExitCode;

use panda_benchmark::json::Json;
use panda_benchmark::run::{self, Args};
use panda_benchmark::suite::{self, RunOpts};
use panda_benchmark::workloads::Workload;

const USAGE: &str = "usage:
  panda-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  panda-benchmark run [--seed <n>] [--seconds <s>] [--runs <k>] [--quick] [--out <path>]
  panda-benchmark compare <a.json> <b.json>
workloads: bulk_mem, bulk_tcp_disk, group_submit, small_sessions";

/// `--flag value` pairs and bare flags, in order.
fn flags(args: &[String], bare: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument {flag}"));
        }
        let value = if bare.contains(&flag.as_str()) {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .clone()
        };
        out.push((flag.clone(), value));
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: not a number: {value}"))
}

fn one_workload(args: &[String]) -> Result<bool, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut traced_ops) =
        (None, None, None, None, None);
    for (flag, value) in flags(args, &[])? {
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number::<u64>(&flag, &value)?),
            "--seconds" => seconds = Some(number::<f64>(&flag, &value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--traced-ops" => traced_ops = Some(number::<usize>(&flag, &value)?),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace is required")?,
        traced_ops: traced_ops.filter(|&n| n > 0),
    };
    let outcome = run::run(&args)?;
    for e in &outcome.errors {
        eprintln!("error: {e}");
    }
    for (m, value) in &outcome.metrics {
        println!("# {:<34} {value:>16.4} {}", m.name, m.unit);
    }
    println!("{}", Json::obj().set("detail", outcome.detail.clone()));
    println!("{}", outcome.result_line());
    Ok(outcome.failed == 0)
}

fn run_all(args: &[String]) -> Result<bool, String> {
    let mut opts = RunOpts {
        seed: 1,
        seconds: 10.0,
        runs: 1,
        quick: false,
        out: run::out_dir().join("result.json").display().to_string(),
    };
    for (flag, value) in flags(args, &["--quick"])? {
        match flag.as_str() {
            "--seed" => opts.seed = number(&flag, &value)?,
            "--seconds" => opts.seconds = number(&flag, &value)?,
            "--runs" => opts.runs = number::<usize>(&flag, &value)?.max(1),
            "--quick" => opts.quick = true,
            "--out" => opts.out = value,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    suite::run_all(&opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => suite::compare(a, b),
            _ => Err("compare takes two result files".to_string()),
        },
        Some(_) => one_workload(&args),
        None => Err("no arguments".to_string()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("panda-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
