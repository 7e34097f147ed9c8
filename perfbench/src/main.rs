//! `perfbench`: the Quarry serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <read_mix|point_lookup|write_mix|cluster_read> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop of two clients against an in-process
//! `quarry-serve` server (or, for `cluster_read`, the shard router).
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with layer spans and I/O counters and prints the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `METRICS.md` is the
//! catalogue of workloads and metrics.

mod counting;
mod inproc;
mod load;
mod node;
mod report;
mod stats;
mod trace;
mod workload;

mod cluster_read;
mod point_lookup;
mod read_mix;
mod write_mix;

use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    /// Traced (per-layer) run.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
     workloads: read_mix point_lookup write_mix cluster_read";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "read_mix" => read_mix::run(&args),
        "point_lookup" => point_lookup::run(&args),
        "write_mix" => write_mix::run(&args),
        "cluster_read" => cluster_read::run(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    match outcome {
        Ok(mut report) => {
            report.environment(&args);
            match report.render(args.trace) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
