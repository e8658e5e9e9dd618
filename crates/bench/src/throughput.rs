//! Invoke-throughput measurement on the real engine.
//!
//! Every other experiment in this crate runs on the virtual clock, where
//! kernel lock contention is invisible (the simulator's baton serializes
//! everything). This module measures the opposite: wall-clock operations
//! per second of the runtime's hot paths on [`RealEngine`] OS threads,
//! where the kernel's own locking *is* the cost being measured. It backs
//! [`failed_check`], the in-memory gate over the advisor-on/advisor-off
//! pairs measured back to back.
//!
//! Scenarios, each at 1/2/4/8 nodes unless noted:
//!
//! * `local_invoke` / `local_invoke_adaptive` — one worker thread per node
//!   hammering exclusive invocations of a private, node-local counter
//!   object. The pure fast path: no migration, no messages; only descriptor
//!   reads, registry visits and payload admission. The adaptive variant
//!   prices the advisor's bookkeeping on work it can never improve.
//! * `skewed_invoke` / `skewed_invoke_adaptive` (2/4/8 nodes) — each
//!   worker hammers a hot object created one node over, so the static run
//!   pays a forward hop and a migration round trip per operation. The
//!   adaptive variant turns the placement advisor on and records how many
//!   of those the advisory moves eliminate.
//! * `read_hot_invoke` / `read_hot_invoke_adaptive` (2/4/8 nodes) —
//!   read-mostly skew over *immutable* objects living on node 0, with
//!   demand replication off so a remote read migrates the calling thread.
//!   The adaptive variant lets the traffic advisor install replicas on the
//!   heavy reader nodes; the point records how many remote invokes those
//!   replicas eliminate.
//!
//! These are exactly the pairs [`failed_check`] reads. A wall-clock number
//! for one mechanism on its own (invoke, locate, move, the lossy transport)
//! is a `BENCHMARK.json` metric, measured by `benchmark/run.sh`.
//!
//! [`RealEngine`]: amber_engine::RealEngine

use std::time::{Duration, Instant};

use amber_core::{
    Cluster, ClusterBuilder, Ctx, EngineChoice, LatencyModel, NodeId, ObjRef, SimTime,
};
use amber_placement::adaptive::{AdaptiveConfig, TrafficAdvisor};

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct Point {
    /// Scenario name (`local_invoke`, `mixed`, `skewed_invoke`, ...).
    pub scenario: &'static str,
    /// Cluster size.
    pub nodes: usize,
    /// Worker threads driving operations (one per node).
    pub workers: usize,
    /// Total operations completed across all workers.
    pub ops: u64,
    /// Wall-clock time for the operation phase only.
    pub elapsed: Duration,
    /// Forward-hop chases during the operation phase (0 for scenarios that
    /// do not measure placement quality).
    pub forward_hops: u64,
    /// Thread migrations during the operation phase (0 likewise).
    pub thread_migrations: u64,
    /// Remote invocations during the operation phase (0 for scenarios that
    /// do not measure replica placement).
    pub remote_invokes: u64,
}

impl Point {
    /// Operations per wall-clock second; 0.0 for a zero-length window (no
    /// rate was measured).
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ops as f64 / secs
        } else {
            0.0
        }
    }
}

/// Node counts every scenario is measured at.
pub const NODE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The bench advisors' tick: the stock `AdaptiveConfig` one. A 1 ms tick
/// starved the advisor whenever the host ran slow: `min_calls` is a floor on
/// calls *per tick*, and a 2-CPU host in a bad spell gives a remote reader
/// under 8 calls a millisecond on each hot object.
const TICK: SimTime = SimTime::from_ms(5);

/// How long the advisor gets to act, at the least, before its effect is
/// read: the timed phase of the scenarios that count what it saved (skewed
/// and read-hot). 20 ticks. An op count cannot stand in for this. At smoke
/// scale a worker used to be done inside a tick or two, before the advisor
/// had seen anything, and the faster an invoke gets the fewer ticks a fixed
/// count spans.
const ADVISOR_WINDOW: Duration = Duration::from_millis(20 * TICK.as_ms());

/// A worker's loop in every timed phase: runs `op(i)` for `i = 0, 1, ..`
/// until it has run at least `iters` times *and* `window` has passed since
/// `t0` (the clock is read every 16th op). Returns how many ran.
fn run_for_window(t0: Instant, window: Duration, iters: u64, mut op: impl FnMut(u64)) -> u64 {
    let mut done = 0;
    loop {
        op(done);
        done += 1;
        if done >= iters && done % 16 == 0 && t0.elapsed() >= window {
            return done;
        }
    }
}

/// One timed phase: starts a worker per `(anchor, counter)` that invokes its
/// counter through [`run_for_window`], and joins them all. Returns how many
/// invocations ran and how long the phase took.
fn invoke_phase(
    ctx: &Ctx,
    work: &[(ObjRef<u8>, ObjRef<u64>)],
    window: Duration,
    iters: u64,
) -> (u64, Duration) {
    let t0 = Instant::now();
    let hs: Vec<_> = work
        .iter()
        .map(|&(anchor, counter)| {
            ctx.start(&anchor, move |ctx, _| {
                run_for_window(t0, window, iters, |_| ctx.invoke(&counter, |_, c| *c += 1))
            })
        })
        .collect();
    let ran = hs.into_iter().map(|h| h.join(ctx)).sum();
    (ran, t0.elapsed())
}

/// Rounds per side in [`alternating_medians`].
const ROUNDS: usize = 5;

/// Measures `run(false)` and `run(true)` alternately, five times each,
/// and returns each side's median-rate point, base first. The
/// throughput-ratio check compares these: on a shared host one round can
/// lose a quarter of its rate to a neighbour, but not three of five, and
/// alternating keeps slow drift from landing on one side.
pub fn alternating_medians(run: impl Fn(bool) -> Point) -> [Point; 2] {
    let mut sides = [Vec::new(), Vec::new()];
    for _ in 0..ROUNDS {
        sides[0].push(run(false));
        sides[1].push(run(true));
    }
    sides.map(|mut side| {
        side.sort_by(|a, b| a.ops_per_sec().total_cmp(&b.ops_per_sec()));
        side.swap_remove(ROUNDS / 2)
    })
}

/// Advisor knobs for the adaptive bench runs: a low call floor and roomy
/// budgets, so even the CI smoke run crosses the decision thresholds within
/// its [`ADVISOR_WINDOW`].
fn bench_advisor() -> TrafficAdvisor {
    TrafficAdvisor::new(AdaptiveConfig {
        tick: TICK,
        min_calls: 8,
        max_moves_per_tick: 16,
        max_replicas_per_tick: 16,
        replica_cap: 8,
    })
}

fn real_builder(nodes: usize, adaptive: bool) -> ClusterBuilder {
    let b = Cluster::builder()
        .nodes(nodes)
        .processors(2)
        .engine(EngineChoice::Real)
        .latency(LatencyModel::zero())
        .deadline(Duration::from_secs(300));
    if adaptive {
        b.adaptive_placement(bench_advisor)
    } else {
        b
    }
}

/// Rounds in [`fastest_round`].
const TIMED_ROUNDS: u64 = 9;

/// The least one [`fastest_round`] round lasts: four advisor ticks, a fifth
/// of [`ADVISOR_WINDOW`]. A round sized by an op count shrinks as the invoke
/// gets faster (200 smoke iterations of a 130 ns invoke were a 0.4 ms phase
/// in which one scheduler hiccup swung a paired ratio past its 10% margin),
/// and a round shorter than a tick cannot price the advisor's ticks at all.
const ROUND_WINDOW: Duration = Duration::from_millis(4 * TICK.as_ms());

/// The timed phase of the scenario whose *throughput* is compared: nine
/// rounds, each starting one worker per `(anchor, counter)` that
/// invokes its counter for [`ROUND_WINDOW`] (and `iters` times at least).
/// Returns the operations and time of the round with the highest rate, then
/// the operations of all rounds together so the caller can check that none
/// was lost. The best round is the least-disturbed measurement, and
/// best-of-nine lands near the true maximum on both sides of a paired
/// ratio, centering it on 1.0.
fn fastest_round(
    ctx: &Ctx,
    work: &[(ObjRef<u8>, ObjRef<u64>)],
    iters: u64,
) -> (u64, Duration, u64) {
    let rounds: Vec<(u64, Duration)> = (0..TIMED_ROUNDS)
        .map(|_| invoke_phase(ctx, work, ROUND_WINDOW, iters))
        .collect();
    let rate = |&(ops, elapsed): &(u64, Duration)| ops as f64 / elapsed.as_secs_f64();
    let total = rounds.iter().map(|round| round.0).sum();
    let (ops, elapsed) = rounds
        .into_iter()
        .max_by(|a, b| rate(a).total_cmp(&rate(b)))
        .expect("TIMED_ROUNDS is not zero");
    (ops, elapsed, total)
}

/// Pure local-invoke throughput: one worker per node, each with a private
/// counter on its own node. With `adaptive` the placement advisor runs in
/// the background, pricing its per-invoke counter bumps and idle ticks on
/// a workload it can never improve (everything is already local).
pub fn run_local_invoke(nodes: usize, iters: u64, adaptive: bool) -> Point {
    let cluster = real_builder(nodes, adaptive).build();
    let (ops, elapsed) = cluster
        .run(move |ctx| {
            let n = ctx.nodes();
            // A per-node anchor pins each worker to its node; a per-node
            // counter gives it a resident object to invoke.
            let work: Vec<_> = (0..n)
                .map(|k| {
                    let node = NodeId::from(k);
                    (ctx.create_on(node, 0u8), ctx.create_on(node, 0u64))
                })
                .collect();
            let (ops, elapsed, ran) = fastest_round(ctx, &work, iters);
            let total: u64 = work.iter().map(|(_, c)| ctx.invoke(c, |_, c| *c)).sum();
            assert_eq!(total, ran, "lost invocations");
            (ops, elapsed)
        })
        .expect("local-invoke bench run failed");
    Point {
        scenario: if adaptive {
            "local_invoke_adaptive"
        } else {
            "local_invoke"
        },
        nodes,
        workers: nodes,
        ops,
        elapsed,
        forward_hops: 0,
        thread_migrations: 0,
        remote_invokes: 0,
    }
}

/// Skewed-traffic throughput: worker `k` (anchored on node `k`) hammers a
/// hot object created on node `(k + 1) % n`, so every static invocation
/// chases a forward hint and migrates the thread over and back. With
/// `adaptive` the traffic advisor notices each hot object's dominant
/// caller within a tick or two and issues advisory moves that make the
/// rest of the run local; the point records the forward hops and thread
/// migrations actually taken so the two runs can be compared. Like every
/// advisor scenario's, a worker runs `iters` operations *at least* and
/// until the 20-tick advisor window is over, so both variants give the
/// advisor the same number of ticks however fast an operation is.
pub fn run_skewed_invoke(nodes: usize, iters: u64, adaptive: bool) -> Point {
    let cluster = real_builder(nodes, adaptive).build();
    let (ops, elapsed, forward_hops, thread_migrations) = cluster
        .run(move |ctx| {
            let n = ctx.nodes();
            let work: Vec<_> = (0..n)
                .map(|k| {
                    let caller = NodeId::from(k);
                    let away = NodeId::from((k + 1) % n);
                    (ctx.create_on(caller, 0u8), ctx.create_on(away, 0u64))
                })
                .collect();
            let s0 = ctx.protocol_stats();
            let (ran, elapsed) = invoke_phase(ctx, &work, ADVISOR_WINDOW, iters);
            let s1 = ctx.protocol_stats();
            let total: u64 = work.iter().map(|(_, c)| ctx.invoke(c, |_, c| *c)).sum();
            assert_eq!(total, ran, "lost invocations");
            (
                total,
                elapsed,
                s1.forward_hops - s0.forward_hops,
                s1.thread_migrations - s0.thread_migrations,
            )
        })
        .expect("skewed-invoke bench run failed");
    Point {
        scenario: if adaptive {
            "skewed_invoke_adaptive"
        } else {
            "skewed_invoke"
        },
        nodes,
        workers: nodes,
        ops,
        elapsed,
        forward_hops,
        thread_migrations,
        remote_invokes: 0,
    }
}

/// Read-mostly skew over immutable objects: a few immutable objects live
/// on node 0 (their origin), demand replication is off, and a worker on
/// every *other* node hammers shared reads of them (with an occasional
/// local mutable bump mixed in); node 0's own worker only touches its
/// private counter. Statically each remote read migrates the calling
/// thread to node 0 and back. With `adaptive` the traffic advisor sees the
/// heavy readers and installs replicas on their nodes, after which their
/// reads are local; the point records the remote invokes actually taken so
/// the two runs can be compared.
pub fn run_read_hot_invoke(nodes: usize, iters: u64, adaptive: bool) -> Point {
    const HOT: usize = 2;
    let cluster = real_builder(nodes, adaptive)
        .demand_replication(false)
        .build();
    let (ops, elapsed, remote_invokes, forward_hops, thread_migrations) = cluster
        .run(move |ctx| {
            let n = ctx.nodes();
            let hot: Vec<_> = (0..HOT)
                .map(|i| {
                    let h = ctx.create_on(NodeId::from(0), 7u64 + i as u64);
                    ctx.set_immutable(&h);
                    h
                })
                .collect();
            let work: Vec<_> = (0..n)
                .map(|k| {
                    let node = NodeId::from(k);
                    (ctx.create_on(node, 0u8), ctx.create_on(node, 0u64))
                })
                .collect();
            let s0 = ctx.protocol_stats();
            let t0 = Instant::now();
            let hs: Vec<_> = work
                .iter()
                .enumerate()
                .map(|(k, &(anchor, counter))| {
                    let hot = hot.clone();
                    ctx.start(&anchor, move |ctx, _| {
                        run_for_window(t0, ADVISOR_WINDOW, iters, |i| {
                            if k == 0 || i % 8 == 7 {
                                ctx.invoke(&counter, |_, c| *c += 1);
                            } else {
                                let v = ctx.invoke_shared(&hot[i as usize % HOT], |_, v| *v);
                                assert!(v >= 7, "immutable read returned garbage");
                            }
                        })
                    })
                })
                .collect();
            let ran: u64 = hs.into_iter().map(|h| h.join(ctx)).sum();
            let elapsed = t0.elapsed();
            let s1 = ctx.protocol_stats();
            (
                ran,
                elapsed,
                s1.remote_invokes - s0.remote_invokes,
                s1.forward_hops - s0.forward_hops,
                s1.thread_migrations - s0.thread_migrations,
            )
        })
        .expect("read-hot bench run failed");
    Point {
        scenario: if adaptive {
            "read_hot_invoke_adaptive"
        } else {
            "read_hot_invoke"
        },
        nodes,
        workers: nodes,
        ops,
        elapsed,
        forward_hops,
        thread_migrations,
        remote_invokes,
    }
}

/// A base-scenario point and the variant measured right after it at the
/// same node count.
type Pair<'a> = (&'a Point, &'a Point);

/// Every `(base, variant)` pair in `points`; an error when there is none,
/// so a check can never pass for want of measurements.
fn pairs<'a>(points: &'a [Point], base: &str, variant: &str) -> Result<Vec<Pair<'a>>, String> {
    let found: Vec<Pair> = points
        .iter()
        .filter(|b| b.scenario == base)
        .filter_map(|b| {
            points
                .iter()
                .find(|v| v.scenario == variant && v.nodes == b.nodes)
                .map(|v| (b, v))
        })
        .collect();
    if found.is_empty() {
        return Err(format!("no {base} / {variant} pair measured"));
    }
    Ok(found)
}

/// Fails unless the variant side keeps at least `floor` of the base side's
/// throughput, taken as the median over node counts of the variant/base
/// ratio: a real regression shows at every node count, while a scheduler
/// hiccup during one measurement pair only perturbs one ratio.
fn keeps_throughput(pairs: &[Pair], floor: f64) -> Result<(), String> {
    let mut ratios: Vec<f64> = pairs
        .iter()
        .map(|(b, v)| (b.ops_per_sec(), v.ops_per_sec()))
        .filter(|&(b, v)| b > 0.0 && v > 0.0)
        .map(|(b, v)| v / b)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let median = match ratios.len() {
        0 => return Err("no pair measured a rate on both sides".into()),
        n if n % 2 == 1 => ratios[mid],
        _ => (ratios[mid - 1] + ratios[mid]) / 2.0,
    };
    if median < floor {
        return Err(format!(
            "{} at {median:.3}x {}, under {floor}x",
            pairs[0].1.scenario, pairs[0].0.scenario
        ));
    }
    Ok(())
}

/// Fails unless the variant's `count` is strictly below the base's at every
/// node count, and at most half the base's `count_at_4` at 4 nodes.
fn cuts_traffic(
    pairs: &[Pair],
    what: &str,
    count: fn(&Point) -> u64,
    count_at_4: fn(&Point) -> u64,
) -> Result<(), String> {
    for (base, variant) in pairs {
        let (nodes, b, v) = (base.nodes, count(base), count(variant));
        if v >= b {
            return Err(format!(
                "at {nodes} nodes adaptive {what} {v} not below static {b}"
            ));
        }
        let (b, v) = (count_at_4(base), count_at_4(variant));
        if nodes == 4 && b < 2 * v {
            return Err(format!(
                "at 4 nodes static traffic {b} under 2x adaptive {v}"
            ));
        }
    }
    Ok(())
}

fn advisor_overhead(points: &[Point]) -> Result<(), String> {
    keeps_throughput(
        &pairs(points, "local_invoke", "local_invoke_adaptive")?,
        0.9,
    )
}

fn skewed_placement(points: &[Point]) -> Result<(), String> {
    cuts_traffic(
        &pairs(points, "skewed_invoke", "skewed_invoke_adaptive")?,
        "forward hops",
        |p| p.forward_hops,
        |p| p.forward_hops + p.thread_migrations,
    )
}

fn replica_placement(points: &[Point]) -> Result<(), String> {
    cuts_traffic(
        &pairs(points, "read_hot_invoke", "read_hot_invoke_adaptive")?,
        "remote invokes",
        |p| p.remote_invokes,
        |p| p.remote_invokes,
    )
}

/// The gate over one run's points: does each opt-in mechanism still earn
/// its keep against the same run without it? Every pair was measured back
/// to back in one process, the one whose throughput is compared as
/// [`alternating_medians`]. Returns `None` when all checks hold, else the
/// first failed check as `"<name>: <what was measured>"`:
///
/// * `advisor_overhead` — advisor-on `local_invoke` throughput is at least
///   0.9x advisor-off (median of the per-node-count ratios): the advisor's
///   counter bumps and idle ticks must be nearly free on already-local work;
/// * `skewed_placement` — the adaptive skewed run takes strictly fewer
///   forward hops at every node count, and at 4 nodes at most half the
///   static run's forward hops + thread migrations;
/// * `replica_placement` — the adaptive read-hot run takes strictly fewer
///   remote invokes at every node count, and at most half at 4 nodes.
pub fn failed_check(points: &[Point]) -> Option<String> {
    type Check = fn(&[Point]) -> Result<(), String>;
    let checks: [(&str, Check); 3] = [
        ("advisor_overhead", advisor_overhead),
        ("skewed_placement", skewed_placement),
        ("replica_placement", replica_placement),
    ];
    checks
        .iter()
        .find_map(|(name, check)| check(points).err().map(|what| format!("{name}: {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_point(nodes: usize) -> Point {
        Point {
            scenario: "local_invoke",
            nodes,
            workers: nodes,
            ops: 100,
            elapsed: Duration::from_millis(50),
            forward_hops: 7,
            thread_migrations: 3,
            remote_invokes: 5,
        }
    }

    #[test]
    fn ops_per_sec_math() {
        let p = fake_point(2);
        assert!((p.ops_per_sec() - 2000.0).abs() < 1e-6);
        // A zero-length window measured no rate.
        let empty = Point {
            elapsed: Duration::ZERO,
            ..fake_point(2)
        };
        assert_eq!(empty.ops_per_sec(), 0.0);
    }

    /// A point set on which every check holds, one pair per node count.
    fn passing_points() -> Vec<Point> {
        let point = |scenario, nodes, ops_per_ms: u64| Point {
            scenario,
            nodes,
            workers: nodes,
            ops: ops_per_ms,
            elapsed: Duration::from_millis(1),
            forward_hops: 0,
            thread_migrations: 0,
            remote_invokes: 0,
        };
        let mut points = Vec::new();
        for nodes in NODE_COUNTS {
            points.push(point("local_invoke", nodes, 1000));
            points.push(point("local_invoke_adaptive", nodes, 970));
        }
        for nodes in [2, 4, 8] {
            points.push(Point {
                forward_hops: 1000,
                thread_migrations: 2000,
                ..point("skewed_invoke", nodes, 100)
            });
            points.push(Point {
                forward_hops: 10,
                thread_migrations: 20,
                ..point("skewed_invoke_adaptive", nodes, 900)
            });
            points.push(Point {
                remote_invokes: 800,
                ..point("read_hot_invoke", nodes, 100)
            });
            points.push(Point {
                remote_invokes: 40,
                ..point("read_hot_invoke_adaptive", nodes, 600)
            });
        }
        points
    }

    #[test]
    fn failed_check_names_each_violated_check() {
        assert_eq!(failed_check(&passing_points()), None);
        // Each case breaks one clause of one check on an otherwise passing
        // set; the check that owns the clause must be the one named.
        type Break = fn(&mut Point);
        let cases: [(&str, &str, Option<usize>, Break); 5] = [
            ("advisor_overhead", "local_invoke_adaptive", None, |p| {
                p.ops = 800
            }),
            ("skewed_placement", "skewed_invoke_adaptive", Some(8), |p| {
                p.forward_hops = 1000
            }),
            ("skewed_placement", "skewed_invoke_adaptive", Some(4), |p| {
                p.thread_migrations = 1600
            }),
            (
                "replica_placement",
                "read_hot_invoke_adaptive",
                Some(2),
                |p| p.remote_invokes = 800,
            ),
            (
                "replica_placement",
                "read_hot_invoke_adaptive",
                Some(4),
                |p| p.remote_invokes = 500,
            ),
        ];
        for (check, scenario, nodes, break_it) in cases {
            let mut points = passing_points();
            points
                .iter_mut()
                .filter(|p| p.scenario == scenario && nodes.is_none_or(|n| p.nodes == n))
                .for_each(break_it);
            let failed = failed_check(&points).unwrap_or_else(|| {
                panic!("breaking {scenario} at {nodes:?} nodes failed no check")
            });
            assert!(
                failed.starts_with(&format!("{check}: ")),
                "breaking {scenario} at {nodes:?} nodes named {failed:?}, not {check}"
            );
        }
        // A set missing a whole pair fails the check that needed it.
        let no_replica: Vec<Point> = passing_points()
            .into_iter()
            .filter(|p| p.scenario != "read_hot_invoke_adaptive")
            .collect();
        assert!(failed_check(&no_replica).is_some_and(|f| f.starts_with("replica_placement: ")));
    }

    #[test]
    fn alternating_medians_drop_a_disturbed_round() {
        // The base side's 2nd and 4th rounds ran at a third of the rate.
        let calls = std::cell::Cell::new(0u64);
        let [base, variant] = alternating_medians(|on| {
            let k = calls.replace(calls.get() + 1);
            Point {
                ops: if !on && (k == 2 || k == 6) {
                    300
                } else {
                    900 + k
                },
                elapsed: Duration::from_millis(1),
                ..fake_point(2)
            }
        });
        assert_eq!(calls.get(), 2 * ROUNDS as u64, "runs alternate, 5 a side");
        assert_eq!((base.ops, variant.ops), (900, 905), "medians");
    }

    #[test]
    fn run_for_window_runs_the_floor_and_the_window() {
        let t0 = Instant::now();
        let mut seen = Vec::new();
        let ran = run_for_window(t0, ROUND_WINDOW, 40, |i| seen.push(i));
        assert!(ran >= 40 && ran % 16 == 0 && t0.elapsed() >= ROUND_WINDOW);
        assert!(seen.iter().copied().eq(0..ran));
    }

    #[test]
    fn tiny_read_hot_invoke_run_measures_remote_reads() {
        let p = run_read_hot_invoke(2, 32, false);
        assert!(p.ops >= 64 && p.elapsed >= ADVISOR_WINDOW, "{p:?}");
        assert_eq!(p.scenario, "read_hot_invoke");
        // Node 1 reads the hot immutable objects at least 28 times, and with
        // demand replication off each read migrates to node 0 and back.
        assert!(
            p.remote_invokes >= 28,
            "remote_invokes = {}",
            p.remote_invokes
        );
    }

    #[test]
    fn tiny_local_invoke_run_counts_ops() {
        let p = run_local_invoke(2, 25, false);
        assert!(p.ops >= 50 && p.elapsed >= ROUND_WINDOW, "{p:?}");
        assert_eq!(p.nodes, 2);
    }

    #[test]
    fn tiny_skewed_invoke_run_measures_hops() {
        let p = run_skewed_invoke(2, 25, false);
        assert!(p.ops >= 50 && p.elapsed >= ADVISOR_WINDOW, "{p:?}");
        assert_eq!(p.scenario, "skewed_invoke");
        // Every static skewed op chases one hint and migrates over and back.
        assert!(p.forward_hops >= p.ops - 10, "{p:?}");
        assert!(p.thread_migrations >= 2 * (p.ops - 10), "{p:?}");
    }
}
