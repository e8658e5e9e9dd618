//! The Amber benchmark: six pinned, drift-corrected workloads on both of
//! Amber's clocks, with per-layer probes taken from outside.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run of one workload; the last
//!                                                        stdout line is the result object
//! run.sh [--seed N] [--smoke]                            all six in interleaved sweeps; prints
//!                                                        every metric, writes out/
//! run.sh --selfcheck [--seed N]                          two sets back to back on two seeds,
//!                                                        compared against the bounds
//! ```
//!
//! See `README.md` beside this crate for what each metric means.

mod child;
mod driver;
mod json;
mod metrics;
mod probes;
mod refkernel;
mod rng;
mod session;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use driver::{Host, WorkloadRun};
use json::Value;
use workloads::{Clock, Workload};

/// The seed a bare `run.sh` uses: the paper's year.
const DEFAULT_SEED: u64 = 1989;
/// A run keeps at least this many rounds however short `--seconds` is, so
/// its medians are medians.
const MIN_ROUNDS: usize = 3;

/// `--name value` pairs and bare `--flag`s, in any order.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot read {v:?}")))
            .transpose()
    }

    /// `--seed`, any 64-bit integer (a negative one is taken bit for bit).
    fn seed(&self) -> Result<u64, String> {
        match self.value("--seed") {
            None => Ok(DEFAULT_SEED),
            Some(v) => v
                .parse::<u64>()
                .or_else(|_| v.parse::<i64>().map(|n| n as u64))
                .map_err(|_| format!("--seed: cannot read {v:?}")),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.value("--workload")
            .map(|name| {
                Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("--workload: no workload {name:?}; there are {known:?}")
                })
            })
            .transpose()
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let result = if args.0.first().is_some_and(|a| a == "child") {
        child_main(&args)
    } else {
        driver_main(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("amber-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn child_main(args: &Args) -> Result<bool, String> {
    let seed = args.seed()?;
    let out = match args.0.get(1).map(String::as_str) {
        Some("round") => {
            let w = args.workload()?.ok_or("child round needs --workload")?;
            let clock = match args.value("--clock") {
                Some("virtual") => Clock::Virtual,
                _ => Clock::Wall,
            };
            let trace = args.value("--trace") == Some("1");
            let trace_out = args.value("--trace-out").map(PathBuf::from);
            child::round(w, seed, clock, trace, trace_out.as_deref())
        }
        Some("probes") => child::readings(probes::pinned_probes(seed)),
        Some("scaling") => child::readings(probes::scaling_probe()),
        other => return Err(format!("unknown child mode {other:?}")),
    };
    println!("{}", out.render());
    Ok(true)
}

fn driver_main(args: &Args) -> Result<bool, String> {
    let seed = args.seed()?;
    // `run.sh` passes the directory beside this crate, wherever that is.
    let out_dir = PathBuf::from(args.value("--out").unwrap_or("benchmark/out"));
    let host = Host::detect(out_dir)?;
    match args.workload()? {
        Some(w) => {
            let seconds = args.parsed("--seconds")?.unwrap_or(10.0);
            let trace = args.value("--trace") == Some("1");
            one_run(&host, w, seed, seconds, trace)
        }
        None if args.flag("--selfcheck") => session::selfcheck(&host, seed),
        None => session::session(&host, seed, args.flag("--smoke")),
    }
}

/// The contract's run: rounds of one workload for `seconds`, then one JSON
/// object on the last line of stdout. With `trace` off the metrics are the
/// end-to-end ones; with it on, untraced and traced rounds alternate and
/// the metrics are the per-layer ones.
fn one_run(host: &Host, w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut run = WorkloadRun::new(host, w, seed);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed() < budget {
        run.round(trace && rounds % 2 == 1, true)?;
        rounds += 1;
    }
    run.finish()?;

    let metrics = if trace {
        let probes = host.probes(seed)?;
        metrics::to_json(metrics::per_layer_units(), &run.per_layer(&probes))
    } else {
        metrics::to_json(metrics::end_to_end_units(), &run.end_to_end())
    };
    let failures = run.failures();
    for line in &failures {
        eprintln!("{}: check failed: {line}", w.name());
    }
    let correct = failures.is_empty() && run.failed() == 0;
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(run.attempted() as f64)),
        ("failed", Value::Num(run.failed() as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    Ok(correct)
}
