//! All six workloads in one sitting: interleaved sweeps, the printed table,
//! `out/results.json`, and `--selfcheck`.
//!
//! In a sweep every workload runs one round, so each workload's rounds span
//! the whole session and a slow minute of the host lands on all of them
//! alike instead of on whichever workload was running.

use std::collections::BTreeMap;

use crate::driver::{Host, WorkloadRun};
use crate::json::Value;
use crate::metrics::{
    end_to_end_units, per_layer_units, to_json, Better, DETERMINISTIC_COUNTS, END_TO_END, PER_LAYER,
};
use crate::workloads::Workload;

/// Measured sweeps of a full session, after one discarded warm-up sweep,
/// and the traced sweeps that follow them.
const SWEEPS: usize = 15;
const TRACED_SWEEPS: usize = 5;
/// `--smoke`: enough to exercise every path in a few seconds.
const SMOKE_SWEEPS: usize = 1;
const SMOKE_TRACED_SWEEPS: usize = 1;

/// Runs `sweeps` untraced and then `traced` traced sweeps over all six
/// workloads, after a discarded warm-up sweep if asked.
fn run_set<'h>(
    host: &'h Host,
    seed: u64,
    sweeps: usize,
    traced: usize,
    warm_up: bool,
) -> Result<Vec<WorkloadRun<'h>>, String> {
    let mut runs: Vec<_> = Workload::ALL
        .into_iter()
        .map(|w| WorkloadRun::new(host, w, seed))
        .collect();
    let plan = std::iter::repeat_n((false, false), usize::from(warm_up))
        .chain(std::iter::repeat_n((false, true), sweeps))
        .chain(std::iter::repeat_n((true, true), traced));
    for (sweep, (is_traced, keep)) in plan.enumerate() {
        eprintln!(
            "sweep {sweep}{}",
            match (is_traced, keep) {
                (_, false) => " (warm-up, discarded)",
                (true, _) => " (traced)",
                _ => "",
            }
        );
        for run in &mut runs {
            run.round(is_traced, keep)?;
        }
    }
    for run in &mut runs {
        run.finish()?;
    }
    Ok(runs)
}

fn print_metric(name: &str, unit: &str, better: Better, value: f64, note: &str) {
    let unit = format!("{unit} ({} is better)", better.as_str());
    println!("  {name:<38} {value:>16.6} {unit}{note}");
}

/// Reports every failed check of `runs` on stderr; `true` if there is none.
fn report_failures(runs: &[WorkloadRun]) -> bool {
    let mut ok = true;
    for run in runs {
        for line in run.failures() {
            eprintln!("{}: check failed: {line}", run.workload.name());
            ok = false;
        }
        if run.failed() > 0 {
            eprintln!("{}: {} ops failed", run.workload.name(), run.failed());
            ok = false;
        }
    }
    ok
}

/// `run.sh [--seed N] [--smoke]`.
pub fn session(host: &Host, seed: u64, smoke: bool) -> Result<bool, String> {
    let (sweeps, traced) = if smoke {
        (SMOKE_SWEEPS, SMOKE_TRACED_SWEEPS)
    } else {
        (SWEEPS, TRACED_SWEEPS)
    };
    let runs = run_set(host, seed, sweeps, traced, !smoke)?;
    let probes = host.probes(seed)?;

    let mut workloads = Vec::new();
    for run in &runs {
        let e2e = run.end_to_end();
        let layers = run.per_layer(&probes);
        let (q1, q3, rounds) = run.rate_quartiles();
        println!("\n== {} (seed {seed})", run.workload.name());
        for m in END_TO_END {
            let note = if m.name == "ops_per_s" {
                format!("   quartiles {q1:.0} .. {q3:.0}, {rounds} rounds")
            } else {
                String::new()
            };
            print_metric(m.name, m.unit, m.better, e2e[m.name], &note);
        }
        // The probed layers are the same for every workload: once, below.
        for m in PER_LAYER.iter().filter(|m| !probes.contains_key(m.name)) {
            print_metric(m.name, m.unit, m.better, layers[m.name], "");
        }
        let kinds = run.span_kinds();
        for (kind, (p50, p99, samples)) in &kinds {
            println!("  span {kind:<33} p50 {p50:>10.0} ns   p99 {p99:>10.0} ns   n={samples:.0}");
        }
        let spans = Value::obj(kinds.iter().map(|(kind, (p50, p99, samples))| {
            let stats = Value::obj([
                ("p50_ns", Value::Num(*p50)),
                ("p99_ns", Value::Num(*p99)),
                ("samples", Value::Num(*samples)),
            ]);
            (kind.as_str(), stats)
        }));
        let entry = Value::obj([
            ("end_to_end", to_json(end_to_end_units(), &e2e)),
            (
                "ops_per_s_quartiles",
                Value::Arr(vec![Value::Num(q1), Value::Num(q3)]),
            ),
            ("rounds", Value::Num(rounds as f64)),
            ("per_layer", to_json(per_layer_units(), &layers)),
            ("spans", spans),
            ("trace", Value::Str(run.trace_path().display().to_string())),
            (
                "failures",
                Value::Arr(run.failures().into_iter().map(Value::Str).collect()),
            ),
        ]);
        workloads.push((run.workload.name(), entry));
    }
    println!("\n== probes (one mechanism at a time; the same for every workload)");
    for m in PER_LAYER.iter().filter(|m| probes.contains_key(m.name)) {
        print_metric(m.name, m.unit, m.better, probes[m.name], "");
    }

    let results = Value::obj([
        ("seed", Value::Num(seed as f64)),
        ("smoke", Value::Bool(smoke)),
        ("workloads", Value::obj(workloads)),
    ]);
    let path = host.out_dir().join("results.json");
    std::fs::write(&path, results.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nresults: {}", path.display());
    Ok(report_failures(&runs))
}

/// `run.sh --selfcheck`: of two full sets back to back on the same build,
/// the second must not be worse than the first by more than the benchmark's
/// own bounds, and what is deterministic must not differ at all; then once
/// more on a second seed.
pub fn selfcheck(host: &Host, seed: u64) -> Result<bool, String> {
    let mut ok = true;
    for seed in [seed, seed + 1] {
        eprintln!("selfcheck: seed {seed}, set A");
        let a = run_set(host, seed, SWEEPS, 0, true)?;
        eprintln!("selfcheck: seed {seed}, set B");
        let b = run_set(host, seed, SWEEPS, 0, false)?;
        ok &= report_failures(&a) & report_failures(&b);

        println!("\n== selfcheck, seed {seed}");
        println!(
            "{:<20} {:<14} {:>16} {:>16} {:>8} {:>7}",
            "workload", "metric", "set A", "set B", "B/A", "bound"
        );
        let no_probes = BTreeMap::new();
        for (ra, rb) in a.iter().zip(&b) {
            let name = ra.workload.name();
            let (ea, eb) = (ra.end_to_end(), rb.end_to_end());
            for m in END_TO_END {
                let (va, vb) = (ea[m.name], eb[m.name]);
                // The acceptance rule: the second set may not be worse than
                // the first by more than the bound. Virtual time is
                // deterministic for a seed, so there any difference at all
                // is a failure, whatever the bound allows.
                let exact = m.name == "virtual_ms";
                let pass = if exact {
                    va == vb
                } else {
                    m.better.worsening(va, vb) <= m.bound
                };
                ok &= pass;
                println!(
                    "{name:<20} {:<14} {va:>16.6} {vb:>16.6} {:>8.4} {:>7} {}",
                    m.name,
                    vb / va,
                    if exact {
                        "exact".into()
                    } else {
                        format!("{:.2}", m.bound)
                    },
                    if pass { "" } else { "FAIL" }
                );
            }
            if ra.workload.is_sim() {
                let (la, lb) = (ra.per_layer(&no_probes), rb.per_layer(&no_probes));
                for count in DETERMINISTIC_COUNTS {
                    let pass = la[count] == lb[count];
                    ok &= pass;
                    println!(
                        "{name:<20} {count:<30} {:>16} {:>16} {}",
                        la[count],
                        lb[count],
                        if pass {
                            ""
                        } else {
                            "FAIL: must repeat exactly"
                        }
                    );
                }
            }
        }
    }
    println!("\nselfcheck: {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}
