//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <batch_cold|serve_read|serve_ingest> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this process, checks that the
//! program's outputs are correct, and prints every metric by name and
//! unit; the last line of standard output is one JSON object. With
//! `--trace 0` it reports the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a separate traced run. A failed correctness gate
//! exits with code 1; a refused run (bad arguments, the load generator
//! fell behind, an I/O failure) exits with code 2 and prints no result.
//! See `perfbench/NOTES.md` for the workloads and what each metric means.

mod batch;
mod client;
mod ingest;
mod report;
mod serve_read;
mod speed;
mod stats;
mod trace;
mod warm;

use std::process::ExitCode;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measured time per run (seconds).
    pub seconds: f64,
    pub trace: bool,
}

/// Where spans and temporary data directories go, relative to the working
/// directory.
pub const OUT_DIR: &str = ".perfbench_out";

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["batch_cold", "serve_read", "serve_ingest"];

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(warm::SPIN_FLAG) {
        if let Some(parent) = argv.get(1).and_then(|p| p.parse().ok()) {
            warm::spin(parent);
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "batch_cold" => batch::run(&args),
        "serve_read" => serve_read::run(&args),
        _ => ingest::run(&args),
    };
    match result {
        Ok(report) => {
            print!("{}", report.render(args.trace));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: run refused: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "serve_read",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_read", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "batch_cold",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "batch_cold",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "batch_cold", "--seconds", "1", "--trace", "0"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }
}
