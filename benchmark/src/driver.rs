//! The run protocol: rounds in fresh pinned child processes, and what a set
//! of rounds adds up to.
//!
//! Anything with an engine block point is a chain of OS-thread hand-offs;
//! left unpinned it measures the hypervisor's cross-CPU wake-up, not Amber
//! (`remote_invoke` read 18 k–120 k ops/s unpinned and 138 k–147 k under
//! `taskset -c 0`). So every round runs under `taskset -c <one cpu>`, in a
//! fresh process so that set-up time and peak memory are per round, and is
//! bracketed by a reference kernel on the same CPU to divide out the host's
//! drift. A run reports medians over its rounds.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{drift_factor, median, quartiles, spread};
use crate::workloads::Workload;

/// Where and how children are launched.
pub struct Host {
    exe: PathBuf,
    /// The CPU rounds are pinned to; `None` when `taskset` is missing or
    /// refuses, in which case rounds run unpinned and `host.pinned` is 0.
    pin_cpu: Option<usize>,
    cpus: usize,
    out_dir: PathBuf,
}

impl Host {
    pub fn detect(out_dir: PathBuf) -> Result<Host, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        // The last CPU this process may use: the first tends to take the
        // host's interrupts and the driver itself.
        let pin_cpu = allowed_cpus().last().copied().filter(|cpu| {
            Command::new("taskset")
                .args(["-c", &cpu.to_string(), "true"])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .is_ok_and(|s| s.success())
        });
        if pin_cpu.is_none() {
            eprintln!("note: taskset unavailable, rounds run unpinned (host.pinned = 0)");
        }
        std::fs::create_dir_all(&out_dir)
            .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
        Ok(Host {
            exe,
            pin_cpu,
            cpus,
            out_dir,
        })
    }

    pub fn out_dir(&self) -> &Path {
        &self.out_dir
    }

    /// Runs this executable as `child <args>` and parses the JSON object on
    /// the last line of its stdout. The child's stderr passes through.
    fn child(&self, pinned: bool, args: &[String]) -> Result<Value, String> {
        let mut cmd = match self.pin_cpu.filter(|_| pinned) {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.args(["-c", &cpu.to_string()]).arg(&self.exe);
                c
            }
            None => Command::new(&self.exe),
        };
        if pinned {
            // One malloc arena, as befits one CPU. With glibc's default a
            // thread's first allocation opens a new arena whenever it finds
            // the main one locked, and peak memory becomes bimodal (6.0 or
            // 6.9 MB for the same round of `sor_sim`).
            cmd.env("MALLOC_ARENA_MAX", "1");
        }
        let out = cmd
            .arg("child")
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start child: {e}"))?;
        if !out.status.success() {
            return Err(format!("child {args:?} ended with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text.lines().last().unwrap_or_default();
        Value::parse(last).map_err(|e| format!("child {args:?} printed no result: {e}"))
    }

    /// The per-layer probes: once per traced run, the same for every
    /// workload. The scaling probe wants two CPUs, so it alone is unpinned.
    pub fn probes(&self, seed: u64) -> Result<BTreeMap<String, f64>, String> {
        let pinned = self.child(true, &["probes".into(), "--seed".into(), seed.to_string()])?;
        let scaling = self.child(false, &["scaling".into()])?;
        let mut map = BTreeMap::from([
            ("host.cpus".to_string(), self.cpus as f64),
            (
                "host.pinned".to_string(),
                f64::from(u8::from(self.pin_cpu.is_some())),
            ),
        ]);
        for v in [pinned, scaling] {
            if let Value::Obj(pairs) = v {
                map.extend(
                    pairs
                        .into_iter()
                        .filter_map(|(k, v)| Some((k, v.as_f64()?))),
                );
            }
        }
        Ok(map)
    }
}

/// The CPUs in this process's affinity mask, ascending.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or_default();
    parse_cpu_list(list)
}

/// Parses a kernel CPU list such as `0-3,8,10-11`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// The rounds of one workload for one seed, and what they add up to.
pub struct WorkloadRun<'h> {
    host: &'h Host,
    pub workload: Workload,
    seed: u64,
    untraced: Vec<Value>,
    traced: Vec<Value>,
    /// The virtual-clock replay of a runtime workload.
    virtual_pass: Option<Value>,
}

impl<'h> WorkloadRun<'h> {
    pub fn new(host: &'h Host, workload: Workload, seed: u64) -> Self {
        WorkloadRun {
            host,
            workload,
            seed,
            untraced: Vec::new(),
            traced: Vec::new(),
            virtual_pass: None,
        }
    }

    pub fn trace_path(&self) -> PathBuf {
        self.host
            .out_dir
            .join(format!("trace-{}.json", self.workload.name()))
    }

    fn round_args(&self, clock: &str, traced: bool) -> Vec<String> {
        let mut args = vec![
            "round".to_string(),
            "--workload".into(),
            self.workload.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--clock".into(),
            clock.into(),
            "--trace".into(),
            u8::from(traced).to_string(),
        ];
        // The first traced round leaves its spans on disk.
        if traced && self.traced.is_empty() {
            args.push("--trace-out".into());
            args.push(self.trace_path().display().to_string());
        }
        args
    }

    /// Runs one wall-clock round in a fresh pinned child. `keep: false`
    /// discards it (a warm-up).
    pub fn round(&mut self, traced: bool, keep: bool) -> Result<(), String> {
        let v = self.host.child(true, &self.round_args("wall", traced))?;
        if keep {
            if traced {
                self.traced.push(v);
            } else {
                self.untraced.push(v);
            }
        }
        Ok(())
    }

    /// Replays a runtime workload on the paper's clock. The simulated
    /// workloads already reported it with every round.
    pub fn finish(&mut self) -> Result<(), String> {
        if !self.workload.is_sim() && self.virtual_pass.is_none() {
            let v = self.host.child(true, &self.round_args("virtual", false))?;
            self.virtual_pass = Some(v);
        }
        Ok(())
    }

    fn all_rounds(&self) -> impl Iterator<Item = &Value> {
        self.untraced
            .iter()
            .chain(&self.traced)
            .chain(&self.virtual_pass)
    }

    pub fn attempted(&self) -> u64 {
        self.all_rounds().map(|r| r.num("ops") as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.all_rounds()
            .map(|r| r.num("failed") as u64)
            .sum::<u64>()
            + self.determinism_failures().len() as u64
    }

    /// One line per failed check, over every round.
    pub fn failures(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .all_rounds()
            .filter_map(|r| match r.get("failures") {
                Some(Value::Arr(a)) => Some(a),
                _ => None,
            })
            .flatten()
            .filter_map(|f| match f {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        lines.extend(self.determinism_failures());
        lines.sort();
        lines.dedup();
        lines
    }

    /// A simulated workload's rounds all ran the same inputs on a
    /// deterministic engine: its virtual time must be one number.
    fn determinism_failures(&self) -> Vec<String> {
        if !self.workload.is_sim() {
            return Vec::new();
        }
        let times: Vec<f64> = self.all_rounds().map(|r| r.num("virtual_ms")).collect();
        match times.iter().find(|t| **t != times[0]) {
            Some(other) => vec![format!(
                "virtual time differs between rounds of one seed: {} ms and {other} ms",
                times[0]
            )],
            None => Vec::new(),
        }
    }

    /// The round's drift factor, from its own bracket of reference readings.
    fn drift(&self, round: &Value) -> f64 {
        drift_factor(
            round.num("ref_before"),
            round.num("ref_after"),
            self.workload.ref_kernel().nominal_per_s(),
        )
    }

    /// Each round's rate with the host's drift divided out.
    fn corrected(&self, rounds: &[Value]) -> Vec<f64> {
        rounds
            .iter()
            .map(|r| r.num("ops") / r.num("wall_s") * self.drift(r))
            .collect()
    }

    fn virtual_ms(&self) -> f64 {
        match &self.virtual_pass {
            Some(v) => v.num("virtual_ms"),
            None => self
                .all_rounds()
                .next()
                .map_or(0.0, |r| r.num("virtual_ms")),
        }
    }

    /// The end-to-end metrics, from the untraced rounds only. Both
    /// wall-clock ones are drift-corrected with the round's own bracket.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let setups: Vec<f64> = self
            .untraced
            .iter()
            .map(|r| r.num("setup_s") / self.drift(r))
            .collect();
        let peak_rss = self
            .untraced
            .iter()
            .map(|r| r.num("rss_mb"))
            .fold(0.0, f64::max);
        let values = [
            median(&setups),
            median(&self.corrected(&self.untraced)),
            self.virtual_ms(),
            peak_rss,
        ];
        END_TO_END.iter().map(|m| m.name).zip(values).collect()
    }

    /// Every per-layer metric: counts as medians over the rounds, the
    /// harness's own figures, and `probes` for the layers probed directly.
    pub fn per_layer(&self, probes: &BTreeMap<String, f64>) -> BTreeMap<&'static str, f64> {
        let wall_rounds: Vec<&Value> = self.untraced.iter().chain(&self.traced).collect();
        let counted = |name: &str| -> f64 {
            let per_round: Vec<f64> = wall_rounds
                .iter()
                .filter_map(|r| r.get("layer")?.get(name)?.as_f64())
                .collect();
            median(&per_round)
        };
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let (op_p50_ns, op_p99_ns, op_samples) =
            self.span_kinds().get("op").copied().unwrap_or_default();
        let raw: Vec<f64> = self
            .untraced
            .iter()
            .map(|r| r.num("ops") / r.num("wall_s"))
            .collect();
        let rate = median(&self.corrected(&self.untraced));
        let rate_traced = median(&self.corrected(&self.traced));
        let advisories = counted("core.advisory_moves") + counted("core.advisory_replications");
        let ops = wall_rounds.first().map_or(0.0, |r| r.num("ops"));

        PER_LAYER
            .iter()
            .map(|m| {
                let v = match m.name {
                    "bench.raw_ops_per_s" => median(&raw),
                    "bench.round_spread" => spread(&self.corrected(&self.untraced)),
                    "bench.rounds" => wall_rounds.len() as f64,
                    // Both sides drift-corrected: the overhead is a few
                    // percent, the host's drift between rounds is more.
                    "bench.trace_overhead_share" if rate > 0.0 && rate_traced > 0.0 => {
                        1.0 - rate_traced / rate
                    }
                    "bench.op_p50_us" => op_p50_ns / 1e3,
                    "bench.op_p99_us" => op_p99_ns / 1e3,
                    "bench.op_samples" => op_samples,
                    "bench.failed_ops" => self.failed() as f64,
                    "core.hops_per_remote_op" => {
                        ratio(counted("core.forward_hops"), counted("core.remote_invokes"))
                    }
                    "core.advisory_useful_share" => {
                        ratio(advisories, advisories + counted("core.advisory_skips"))
                    }
                    "engine.retransmits_per_drop" => {
                        ratio(counted("engine.retransmits"), counted("engine.drops"))
                    }
                    "engine.msgs_per_op" => ratio(counted("engine.msgs"), ops),
                    name => probes.get(name).copied().unwrap_or_else(|| counted(name)),
                };
                (m.name, v)
            })
            .collect()
    }

    /// Per span name (and `"op"` for all of them) over the traced rounds:
    /// median of the rounds' p50 and p99 in ns, and the total sample count.
    pub fn span_kinds(&self) -> BTreeMap<String, (f64, f64, f64)> {
        let mut by_kind: BTreeMap<String, Vec<(f64, f64, f64)>> = BTreeMap::new();
        for r in &self.traced {
            if let Some(Value::Obj(kinds)) = r.get("kinds") {
                for (name, k) in kinds {
                    by_kind.entry(name.clone()).or_default().push((
                        k.num("p50_ns"),
                        k.num("p99_ns"),
                        k.num("samples"),
                    ));
                }
            }
        }
        by_kind
            .into_iter()
            .map(|(name, rounds)| {
                let col = |f: fn(&(f64, f64, f64)) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
                let stats = (
                    median(&col(|r| r.0)),
                    median(&col(|r| r.1)),
                    col(|r| r.2).iter().sum(),
                );
                (name, stats)
            })
            .collect()
    }

    /// Quartiles of the corrected round rates behind `ops_per_s`, and how
    /// many rounds there were.
    pub fn rate_quartiles(&self) -> (f64, f64, usize) {
        let rates = self.corrected(&self.untraced);
        let (q1, q3) = quartiles(&rates).unwrap_or((0.0, 0.0));
        (q1, q3, rates.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(parse_cpu_list("\t0-2,8,10-11"), vec![0, 1, 2, 8, 10, 11]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert!(parse_cpu_list("").is_empty());
        assert!(parse_cpu_list("junk").is_empty());
    }
}
