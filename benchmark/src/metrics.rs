//! The metrics this benchmark reports: names, units, directions and, for the
//! end-to-end ones, the regression bound. `BENCHMARK.json` at the repository
//! root carries the same tables; a test holds the two together.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `candidate` is than `base`, as a share of `base`
    /// (negative when it is better).
    pub fn worsening(self, base: f64, candidate: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (base - candidate) / base.abs(),
            Better::Lower => (candidate - base) / base.abs(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use crate::json::Value;
use Better::{Higher, Lower};

/// What a user of the system sees, on every workload, with tracing off.
pub const END_TO_END: [EndToEnd; 4] = [
    // Process start to first measured op (cluster build and population),
    // median over a run's rounds.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    // Ops per wall second, drift-corrected, median over a run's rounds.
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.2,
    },
    // Time on the paper's clock to finish the workload's virtual-clock ops.
    EndToEnd {
        name: "virtual_ms",
        unit: "ms",
        better: Lower,
        bound: 0.15,
    },
    // Largest resident set of any untraced round's process.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.1,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Metrics of single layers (the layers are the crates), reported by the
/// traced run. No bounds: they explain a movement, they do not gate it.
pub const PER_LAYER: [PerLayer; 71] = [
    // The harness itself.
    layer("bench.raw_ops_per_s", "1/s", Higher),
    layer("bench.round_spread", "ratio", Lower),
    layer("bench.rounds", "count", Higher),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.op_p50_us", "us", Lower),
    layer("bench.op_p99_us", "us", Lower),
    layer("bench.op_samples", "count", Higher),
    // Ops that returned `Err`, failed a check or were lost, over all rounds.
    layer("bench.failed_ops", "count", Lower),
    // The host, as the reference kernels saw it.
    layer("host.ref_handoff_per_s", "1/s", Higher),
    layer("host.ref_compute_per_s", "1/s", Higher),
    layer("host.pinned", "count", Higher),
    layer("host.cpus", "count", Higher),
    // `core`, one public call kind at a time.
    layer("core.invoke_local.p50_ns", "ns", Lower),
    layer("core.invoke_local.p99_ns", "ns", Lower),
    layer("core.invoke_shared_local.p50_ns", "ns", Lower),
    layer("core.invoke_remote.p50_us", "us", Lower),
    layer("core.invoke_remote.p99_us", "us", Lower),
    layer("core.invoke_remote.self_us", "us", Lower),
    layer("core.locate_local.p50_ns", "ns", Lower),
    layer("core.locate_remote.p50_us", "us", Lower),
    layer("core.move_to.p50_us", "us", Lower),
    layer("core.move_to.p99_us", "us", Lower),
    layer("core.move_to.msgs", "count", Lower),
    layer("core.attach_unattach.p50_ns", "ns", Lower),
    layer("core.create.p50_ns", "ns", Lower),
    layer("core.destroy.p50_ns", "ns", Lower),
    layer("core.start_join.p50_us", "us", Lower),
    layer("core.probe_samples", "count", Higher),
    layer("core.invoke_local.rate_2w", "1/s", Higher),
    layer("core.invoke_local.scaling_2w", "ratio", Higher),
    // `core`, counted over a round's measured ops.
    layer("core.local_invokes", "count", Higher),
    layer("core.remote_invokes", "count", Lower),
    layer("core.thread_migrations", "count", Lower),
    layer("core.object_moves", "count", Lower),
    layer("core.forward_hops", "count", Lower),
    layer("core.home_routes", "count", Lower),
    layer("core.replications", "count", Lower),
    layer("core.hint_repairs", "count", Lower),
    layer("core.chase_divergences", "count", Lower),
    layer("core.advisory_moves", "count", Lower),
    layer("core.advisory_replications", "count", Lower),
    layer("core.advisory_skips", "count", Lower),
    layer("core.hops_per_remote_op", "ratio", Lower),
    layer("core.advisory_useful_share", "ratio", Higher),
    // `engine`, probed directly and counted over a round.
    layer("engine.real.send_rtt.p50_us", "us", Lower),
    layer("engine.real.spawn_join.p50_us", "us", Lower),
    layer("engine.sim.events_per_s", "1/s", Higher),
    layer("engine.sim.handoff.p50_us", "us", Lower),
    layer("engine.msgs", "count", Lower),
    layer("engine.bytes", "bytes", Lower),
    layer("engine.dispatches", "count", Lower),
    layer("engine.drops", "count", Lower),
    layer("engine.retransmits", "count", Lower),
    layer("engine.dups_suppressed", "count", Lower),
    layer("engine.msgs_coalesced", "count", Higher),
    layer("engine.retransmits_per_drop", "ratio", Lower),
    layer("engine.msgs_per_op", "msgs/op", Lower),
    // `vspace`, probed directly.
    layer("vspace.heap.alloc_free.p50_ns", "ns", Lower),
    layer("vspace.heap.reuse_share", "ratio", Higher),
    layer("vspace.descriptor.lookup.p50_ns", "ns", Lower),
    layer("vspace.descriptor.set_forward.p50_ns", "ns", Lower),
    layer("vspace.server.home_of.p50_ns", "ns", Lower),
    // `sync`, probed directly.
    layer("sync.barrier.virtual_us", "us", Lower),
    layer("sync.lock.uncontended.p50_ns", "ns", Lower),
    // `placement`: when the advisor last acted (`skew_adaptive_sim`).
    layer("placement.converged_virtual_ms", "ms", Lower),
    // `apps`: the SOR runs (`sor_sim`).
    layer("apps.sor.iterations", "count", Lower),
    layer("apps.sor.msgs", "count", Lower),
    layer("apps.sor.bytes", "bytes", Lower),
    layer("apps.sor.speedup_4n4p", "x", Higher),
    layer("apps.sor.speedup_8n4p", "x", Higher),
    layer("apps.sor.overlap_gain", "ratio", Higher),
];

/// `{name: {"value": v, "unit": u}}` for the `(name, unit)` pairs of `defs`,
/// in their order: how both the result line and `out/results.json` carry
/// metrics.
pub fn to_json(
    defs: impl IntoIterator<Item = (&'static str, &'static str)>,
    values: &std::collections::BTreeMap<&str, f64>,
) -> Value {
    Value::obj(defs.into_iter().map(|(name, unit)| {
        let entry = Value::obj([
            ("value", Value::Num(values[name])),
            ("unit", Value::Str(unit.into())),
        ]);
        (name, entry)
    }))
}

pub fn end_to_end_units() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit))
}

pub fn per_layer_units() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit))
}

/// Counts that must repeat exactly for a seed on the simulated workloads;
/// `--selfcheck` compares them between its two sets.
pub const DETERMINISTIC_COUNTS: [&str; 4] = [
    "engine.retransmits",
    "engine.msgs",
    "core.advisory_moves",
    "core.advisory_replications",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn rows(v: &Value, key: &str) -> Vec<Value> {
        match v.get(key) {
            Some(Value::Arr(a)) => a.clone(),
            other => panic!("{key}: expected an array, found {other:?}"),
        }
    }

    fn text(v: &Value, key: &str) -> String {
        match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: expected a string, found {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let j = benchmark_json();
        let e2e: Vec<_> = rows(&j, "end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.num("bound"),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<_> = rows(&j, "per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(layers, want);

        let workloads: Vec<_> = rows(&j, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let want: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, want);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        assert!(names.iter().all(|n| ok_name(n)));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used once");
        assert!(END_TO_END
            .iter()
            .all(|m| ok_unit(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(Higher.worsening(100.0, 90.0), 0.1);
        assert_eq!(Lower.worsening(100.0, 110.0), 0.1);
        assert!(Higher.worsening(100.0, 120.0) < 0.0);
        assert_eq!(Lower.worsening(0.0, 5.0), 0.0);
    }
}
