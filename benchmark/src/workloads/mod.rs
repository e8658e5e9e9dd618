//! The six workloads and the scaffolding they share.
//!
//! Every workload is a closed loop: its workers are Amber threads that wait
//! for each call to return before making the next. A round generates its op
//! sequences from the seed, builds a cluster, populates it, runs a fixed
//! number of ops between two statistics snapshots, and then checks the
//! program's outputs. Only API that ROADMAP item 3 keeps is used, so a
//! change that deletes a builder knob cannot break the benchmark.

use std::time::{Duration, Instant};

use amber_core::{
    AmberObject, Cluster, ClusterBuilder, Ctx, EngineChoice, LatencyModel, NodeId, ObjRef,
    ProtocolSnapshot,
};
use amber_engine::NetStats;

use crate::refkernel::RefKernel;
use crate::rng::Rng;
#[cfg(test)]
use crate::rng::SeqHash;
use crate::trace::{Recorder, Span};

mod local_invoke;
mod lossy_sim;
mod mobility_mix;
mod remote_invoke;
mod skew_adaptive_sim;
mod sor_sim;

/// Which clock a round is measured on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall time: `RealEngine` with a zero-latency network for the three
    /// runtime workloads, the simulator's own speed for the `*_sim` ones.
    Wall,
    /// The paper's clock: `SimEngine` with the Firefly cost model and
    /// 10 Mbit Ethernet. The `*_sim` workloads report both clocks from one
    /// execution; the runtime workloads replay a shorter op sequence.
    Virtual,
}

#[derive(Clone, Copy, Debug)]
pub struct RoundCfg {
    pub seed: u64,
    pub clock: Clock,
    /// Record a span around every public call.
    pub trace: bool,
    /// When the round's process started; set-up is timed from here.
    pub started: Instant,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Ops attempted in the measured phase.
    pub ops: u64,
    /// Ops that returned `Err`, failed a check or were lost.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Process start to first measured op: cluster build plus population.
    pub setup_s: f64,
    /// Wall time of the measured phase.
    pub wall_s: f64,
    /// Engine virtual time of the measured phase (0 on `RealEngine`).
    pub virtual_ms: f64,
    /// Per-layer values by metric name: statistics deltas over the
    /// measured phase plus what only this workload can report.
    pub layer: Vec<(&'static str, f64)>,
    /// Spans of the measured phase, on a time axis starting with it.
    pub spans: Vec<Span>,
}

impl RoundOut {
    fn check(&mut self, ok: bool, lost: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += lost.max(1);
            self.failures.push(what());
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LocalInvoke,
    RemoteInvoke,
    MobilityMix,
    SorSim,
    SkewAdaptiveSim,
    LossySim,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::LocalInvoke,
        Workload::RemoteInvoke,
        Workload::MobilityMix,
        Workload::SorSim,
        Workload::SkewAdaptiveSim,
        Workload::LossySim,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalInvoke => "local_invoke",
            Workload::RemoteInvoke => "remote_invoke",
            Workload::MobilityMix => "mobility_mix",
            Workload::SorSim => "sor_sim",
            Workload::SkewAdaptiveSim => "skew_adaptive_sim",
            Workload::LossySim => "lossy_sim",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` when one simulated execution yields both clocks.
    pub fn is_sim(self) -> bool {
        matches!(
            self,
            Workload::SorSim | Workload::SkewAdaptiveSim | Workload::LossySim
        )
    }

    /// The reference kernel that brackets this workload's rounds:
    /// `local_invoke` never blocks, everything else is thread hand-offs.
    pub fn ref_kernel(self) -> RefKernel {
        match self {
            Workload::LocalInvoke => RefKernel::Compute,
            _ => RefKernel::Handoff,
        }
    }

    pub fn run(self, cfg: RoundCfg) -> RoundOut {
        match self {
            Workload::LocalInvoke => local_invoke::run(cfg),
            Workload::RemoteInvoke => remote_invoke::run(cfg),
            Workload::MobilityMix => mobility_mix::run(cfg),
            Workload::SorSim => sor_sim::run(cfg),
            Workload::SkewAdaptiveSim => skew_adaptive_sim::run(cfg),
            Workload::LossySim => lossy_sim::run(cfg),
        }
    }

    /// Hash of everything the generator hands the program for `seed`.
    #[cfg(test)]
    pub fn inputs_hash(self, seed: u64, clock: Clock) -> SeqHash {
        match self {
            Workload::LocalInvoke => local_invoke::inputs_hash(seed, clock),
            Workload::RemoteInvoke => remote_invoke::inputs_hash(seed, clock),
            Workload::MobilityMix => mobility_mix::inputs_hash(seed, clock),
            Workload::SorSim => sor_sim::inputs_hash(seed),
            Workload::SkewAdaptiveSim => skew_adaptive_sim::inputs_hash(seed),
            Workload::LossySim => lossy_sim::inputs_hash(seed),
        }
    }
}

/// A round's size: `base` plus up to 1 %, picked by the seed. The op count
/// is fixed for a seed, so protocol counts are exact, and differs between
/// seeds, so even a metric that is deterministic for its inputs (virtual
/// time, message counts) is not one constant across a set of seeds.
fn seeded_count(seed: u64, base: u64) -> u64 {
    base + Rng::new(seed, 0x512E).below(base / 100 + 1)
}

/// The size of a runtime workload's round on `clock`: the virtual-clock
/// replay is shorter, simulated ops cost more wall time.
fn round_size(seed: u64, clock: Clock, wall_ops: u64, virtual_ops: u64) -> u64 {
    seeded_count(
        seed,
        match clock {
            Clock::Wall => wall_ops,
            Clock::Virtual => virtual_ops,
        },
    )
}

/// The cluster a runtime workload runs on for `clock`.
fn builder(clock: Clock, nodes: usize, processors: usize) -> ClusterBuilder {
    let b = Cluster::builder().nodes(nodes).processors(processors);
    match clock {
        // Zero latency: the numbers measure kernel mechanism, not sleeps.
        Clock::Wall => b
            .engine(EngineChoice::Real)
            .latency(LatencyModel::zero())
            .deadline(Duration::from_secs(120)),
        Clock::Virtual => b
            .engine(EngineChoice::Sim)
            .latency(LatencyModel::ethernet_10mbit()),
    }
}

type CoreCount = (&'static str, fn(&ProtocolSnapshot) -> u64);
type EngineCount = (&'static str, fn(&NetStats) -> u64);

const CORE_COUNTS: [CoreCount; 12] = [
    ("core.local_invokes", |s| s.local_invokes),
    ("core.remote_invokes", |s| s.remote_invokes),
    ("core.thread_migrations", |s| s.thread_migrations),
    ("core.object_moves", |s| s.object_moves),
    ("core.forward_hops", |s| s.forward_hops),
    ("core.home_routes", |s| s.home_routes),
    ("core.replications", |s| s.replications),
    ("core.hint_repairs", |s| s.hint_repairs),
    ("core.chase_divergences", |s| s.chase_divergences),
    ("core.advisory_moves", |s| s.advisory_moves),
    ("core.advisory_replications", |s| s.advisory_replications),
    ("core.advisory_skips", |s| s.advisory_skips),
];

const ENGINE_COUNTS: [EngineCount; 7] = [
    ("engine.msgs", NetStats::total_msgs),
    ("engine.bytes", NetStats::total_bytes),
    ("engine.dispatches", NetStats::total_dispatches),
    ("engine.drops", NetStats::total_drops),
    ("engine.retransmits", NetStats::total_retransmits),
    ("engine.dups_suppressed", NetStats::total_dups_suppressed),
    ("engine.msgs_coalesced", NetStats::total_coalesced),
];

/// What a worker did: ops that failed, what it wants checked, its spans.
struct WorkerOut<T> {
    failed: u64,
    value: T,
    spans: Vec<Span>,
}

/// Runs the measured phase of a runtime workload from inside the program's
/// main thread: starts one Amber thread per `(anchor, body)` pair (a thread
/// body runs as an operation on its anchor, which pins it to the anchor's
/// node), joins them all, and fills `out` with both clocks, the statistics
/// deltas and the spans, and returns what each body handed back beside its
/// count of failed ops. `span_capacity` is per worker.
fn measure<A, T, F>(
    ctx: &Ctx,
    cfg: RoundCfg,
    net: &NetStats,
    out: &mut RoundOut,
    span_capacity: usize,
    workers: Vec<(ObjRef<A>, F)>,
) -> Vec<T>
where
    A: AmberObject,
    T: Send + Sync + 'static,
    F: FnOnce(&Ctx, &mut Recorder) -> (u64, T) + Send + 'static,
{
    let proto0 = ctx.protocol_stats();
    let net0 = ENGINE_COUNTS.map(|(_, get)| get(net));
    let v0 = ctx.now();
    let t0 = Instant::now();
    out.setup_s = t0.duration_since(cfg.started).as_secs_f64();

    let handles: Vec<_> = workers
        .into_iter()
        .enumerate()
        .map(|(w, (anchor, body))| {
            ctx.start(&anchor, move |ctx, _| {
                let mut rec = Recorder::new(cfg.trace, t0, w as u32, span_capacity);
                let (failed, value) = body(ctx, &mut rec);
                WorkerOut {
                    failed,
                    value,
                    spans: rec.into_spans(),
                }
            })
        })
        .collect();
    let mut values = Vec::with_capacity(handles.len());
    for h in handles {
        let w = h.join(ctx);
        out.failed += w.failed;
        out.spans.extend(w.spans);
        values.push(w.value);
    }
    if out.failed > 0 {
        out.failures.push(format!(
            "{} ops failed or returned a wrong value",
            out.failed
        ));
    }

    out.wall_s = t0.elapsed().as_secs_f64();
    out.virtual_ms = match cfg.clock {
        Clock::Wall => 0.0,
        Clock::Virtual => (ctx.now() - v0).as_ms_f64(),
    };
    let proto1 = ctx.protocol_stats();
    for (name, get) in CORE_COUNTS {
        out.layer.push((name, (get(&proto1) - get(&proto0)) as f64));
    }
    for ((name, get), before) in ENGINE_COUNTS.into_iter().zip(net0) {
        out.layer.push((name, (get(net) - before) as f64));
    }
    values
}

/// The value recorded under `name` in a round's per-layer list.
fn layer_value(out: &RoundOut, name: &str) -> f64 {
    out.layer
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

fn node(i: u64) -> NodeId {
    NodeId::from(i as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn seeded_count_is_fixed_per_seed_and_within_one_percent() {
        for seed in 0..200 {
            let n = seeded_count(seed, 60_000);
            assert_eq!(n, seeded_count(seed, 60_000));
            assert!((60_000..=60_600).contains(&n));
        }
        assert_ne!(seeded_count(1, 60_000), seeded_count(2, 60_000));
    }

    /// Same seed ⇒ same inputs, different seed ⇒ different inputs, for
    /// every generator and both op-sequence lengths.
    #[test]
    fn every_generator_is_a_function_of_the_seed() {
        for w in Workload::ALL {
            for clock in [Clock::Wall, Clock::Virtual] {
                let a = w.inputs_hash(1989, clock);
                assert_eq!(a, w.inputs_hash(1989, clock), "{} repeats", w.name());
                assert_ne!(a, w.inputs_hash(1990, clock), "{} varies", w.name());
            }
        }
    }
}
