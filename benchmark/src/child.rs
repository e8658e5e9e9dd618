//! What runs inside a pinned child process: one round of one workload
//! bracketed by its reference kernel, or the per-layer probes. Each prints
//! one JSON object as the last line of its stdout for the driver.

use std::path::Path;
use std::time::Instant;

use crate::json::Value;
use crate::probes::Reading;
use crate::trace::{chrome_trace, kind_stats};
use crate::workloads::{Clock, RoundCfg, Workload};

/// Runs one round and reports it. On the wall clock the round is bracketed
/// by the workload's reference kernel, in this process and so on this CPU;
/// a virtual-clock round needs no bracket, its result does not depend on
/// the host.
pub fn round(w: Workload, seed: u64, clock: Clock, trace: bool, trace_out: Option<&Path>) -> Value {
    let reference = (clock == Clock::Wall).then(|| w.ref_kernel());
    // A fresh process runs slow for its first tens of milliseconds (the
    // first reference reading was half the second); one discarded pass
    // takes that out of the bracket and out of the set-up time.
    reference.map(|k| k.measure());
    let ref_before = reference.map_or(0.0, |k| k.measure());
    let out = w.run(RoundCfg {
        seed,
        clock,
        trace,
        started: Instant::now(),
    });
    let ref_after = reference.map_or(0.0, |k| k.measure());
    let rss_mb = peak_rss_mb();

    if let Some(path) = trace_out {
        let round_ns = (0, (out.wall_s * 1e9) as u64);
        let text = chrome_trace(w.name(), round_ns, &out.spans).render();
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    let kinds = kind_stats(&out.spans).into_iter().map(|(name, k)| {
        let stats = Value::obj([
            ("samples", Value::Num(k.samples as f64)),
            ("p50_ns", Value::Num(k.p50_ns as f64)),
            ("p99_ns", Value::Num(k.p99_ns as f64)),
        ]);
        (name, stats)
    });
    Value::obj([
        ("ops", Value::Num(out.ops as f64)),
        ("failed", Value::Num(out.failed as f64)),
        (
            "failures",
            Value::Arr(out.failures.iter().cloned().map(Value::Str).collect()),
        ),
        ("setup_s", Value::Num(out.setup_s)),
        ("wall_s", Value::Num(out.wall_s)),
        ("virtual_ms", Value::Num(out.virtual_ms)),
        ("ref_before", Value::Num(ref_before)),
        ("ref_after", Value::Num(ref_after)),
        ("rss_mb", Value::Num(rss_mb)),
        ("layer", readings(out.layer)),
        ("kinds", Value::obj(kinds)),
    ])
}

pub fn readings(readings: Vec<Reading>) -> Value {
    Value::obj(readings.into_iter().map(|(k, v)| (k, Value::Num(v))))
}

/// This process's peak resident set (`VmHWM`), in MB; 0 where `/proc` does
/// not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
