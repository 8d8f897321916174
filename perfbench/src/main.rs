//! `perfbench`: one layered benchmark of the QAOA job service.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the separate traced run that breaks the workload down by layer.  Every
//! job's result is checked; a failed check exits non-zero without printing a
//! result.  The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the full run record goes to
//! `perfbench/results/`.

mod check;
mod inproc;
mod layers;
mod report;
mod serve;
mod trace;
mod util;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;
use workloads::Workload;

/// A seed not used while the benchmark was written, kept for checking later
/// claims on inputs nobody tuned against.
pub const CLAIM_CHECK_SEED: u64 = 0x5EED_C1A1_2026;

/// Where run records, span dumps and service journals go (inside the
/// checkout the benchmark runs from).
pub const OUT_DIR: &str = "perfbench/results";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let nproc = util::nproc();
    let c = args.workload.concurrency();
    if c.clients > nproc || c.workers > nproc {
        eprintln!(
            "perfbench: {} needs {} client and {} worker threads but this machine has {nproc} cores; refusing to run",
            args.workload.name(),
            c.clients,
            c.workers
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: creating {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let budget = Duration::from_secs(args.seconds.max(1));
    let outcome = match (args.workload, args.trace) {
        (Workload::ServeTiny, false) => report::serve_timed(args.seed, budget),
        (Workload::ServeTiny, true) => report::serve_traced(args.seed, budget),
        (w, false) => report::inproc_timed(w, args.seed, budget),
        (w, true) => report::inproc_traced(w, args.seed, budget),
    };
    match outcome.and_then(|run| run.finish(&args)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
