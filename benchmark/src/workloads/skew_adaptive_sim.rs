//! `skew_adaptive_sim`: skewed traffic under the stock traffic advisor.
//!
//! The only workload where `core::adaptive` and `placement` do the work:
//! each node's workers send most of their mutable traffic to favourites
//! that start one node over, and a quarter of all ops read two immutable
//! hot objects on node 0 with demand replication off, so virtual time is
//! set by how soon the advisor moves and replicates. Every other workload
//! installs no advisor, so advisor changes must leave them flat.

use amber_core::{Cluster, Ctx, LatencyModel, ObjRef, ProtocolEvent, SimTime};
use amber_placement::adaptive::{AdaptiveConfig, TrafficAdvisor};

use super::{layer_value, measure, node, seeded_count, Clock, RoundCfg, RoundOut};
use crate::rng::Rng;
#[cfg(test)]
use crate::rng::SeqHash;
use crate::trace::Recorder;

const NODES: u64 = 4;
const PROCESSORS: usize = 2;
const WORKERS: u64 = 8;
const COUNTERS: u64 = 64;
const COUNTERS_PER_NODE: u64 = COUNTERS / NODES;
const FAVOURITES: u64 = 8;
const HOT: u64 = 2;
const HOT_BASE: u64 = 7;
/// The stock advisor's two workload-facing knobs. While an op is remote it
/// takes 8 ms, so a node's two workers give each favourite about three
/// calls per 150 ms tick: with a floor of six the advisor moves exactly the
/// favourites, within a few ticks, whatever the seed. At a 50 ms tick and a
/// floor of four, crossing the floor is a rare event that feeds back on
/// itself, and the virtual time swings 20 % between seeds.
const ADVISOR_TICK: SimTime = SimTime::from_ms(150);
const ADVISOR_MIN_CALLS: u64 = 6;
/// Modelled compute per op.
const WORK: SimTime = SimTime::from_us(50);
/// About 0.4 s of wall time at today's simulator speed.
const OPS: u64 = 16_000;

#[derive(Clone, Copy)]
enum Op {
    /// A shared read of an immutable hot object.
    Read { hot: u8 },
    /// An exclusive increment of a counter.
    Bump { counter: u8 },
}

fn generate(seed: u64) -> Vec<Vec<Op>> {
    let total = seeded_count(seed, OPS);
    (0..WORKERS)
        .map(|w| {
            let mut rng = Rng::new(seed, w);
            // The favourites of a node's workers are the first eight
            // counters of the next node.
            let home = w / (WORKERS / NODES);
            let favourites = COUNTERS_PER_NODE * ((home + 1) % NODES);
            (0..total / WORKERS)
                .map(|_| {
                    if rng.below(4) == 0 {
                        Op::Read {
                            hot: rng.below(HOT) as u8,
                        }
                    } else if rng.below(100) < 80 {
                        Op::Bump {
                            counter: (favourites + rng.below(FAVOURITES)) as u8,
                        }
                    } else {
                        Op::Bump {
                            counter: rng.below(COUNTERS) as u8,
                        }
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
#[cfg(test)]
pub fn inputs_hash(seed: u64) -> SeqHash {
    let mut h = SeqHash::new();
    for ops in generate(seed) {
        h.push(ops.len() as u64);
        for op in ops {
            h.push(match op {
                Op::Read { hot } => u64::from(hot) << 1,
                Op::Bump { counter } => u64::from(counter) << 1 | 1,
            });
        }
    }
    h
}

pub fn run(cfg: RoundCfg) -> RoundOut {
    // One simulated execution yields both clocks.
    let cfg = RoundCfg {
        clock: Clock::Virtual,
        ..cfg
    };
    let ops = generate(cfg.seed);
    let total: u64 = ops.iter().map(|o| o.len() as u64).sum();
    let bumps: u64 = ops
        .iter()
        .flatten()
        .filter(|op| matches!(op, Op::Bump { .. }))
        .count() as u64;

    let cluster = Cluster::builder()
        .nodes(NODES as usize)
        .processors(PROCESSORS)
        .latency(LatencyModel::ethernet_10mbit())
        .demand_replication(false)
        .adaptive_placement(|| {
            TrafficAdvisor::new(AdaptiveConfig {
                tick: ADVISOR_TICK,
                min_calls: ADVISOR_MIN_CALLS,
                ..AdaptiveConfig::default()
            })
        })
        .build();
    let net = cluster.net_stats();
    // The advisor's own events, for the time it took to converge; only the
    // traced rounds pay for capturing them.
    let sink = cfg.trace.then(|| cluster.enable_tracing());
    let (mut out, measured_from) = cluster
        .run(move |ctx| {
            let mut out = RoundOut {
                ops: total,
                ..RoundOut::default()
            };
            let counters: Vec<ObjRef<u64>> = (0..COUNTERS)
                .map(|c| ctx.create_on(node(c / COUNTERS_PER_NODE), 0u64))
                .collect();
            let hot: Vec<ObjRef<u64>> = (0..HOT)
                .map(|i| {
                    let h = ctx.create_on(node(0), HOT_BASE + i);
                    ctx.set_immutable(&h);
                    h
                })
                .collect();
            let span_capacity = 2 * ops[0].len();
            let workers = ops
                .into_iter()
                .enumerate()
                .map(|(w, ops)| {
                    let anchor = ctx.create_on(node(w as u64 / (WORKERS / NODES)), 0u8);
                    // The advisor must move the data, not the workers.
                    ctx.pin(&anchor);
                    let (counters, hot) = (counters.clone(), hot.clone());
                    let body = move |ctx: &Ctx, rec: &mut Recorder| {
                        let base = (w * ops.len()) as u32;
                        let mut failed = 0u64;
                        for (i, op) in ops.iter().enumerate() {
                            let id = base + i as u32;
                            match *op {
                                Op::Read { hot: h } => {
                                    let v = rec.timed("invoke_shared", id, || {
                                        ctx.invoke_shared(&hot[usize::from(h)], |_, v| *v)
                                    });
                                    failed += u64::from(v != HOT_BASE + u64::from(h));
                                }
                                Op::Bump { counter } => {
                                    let c = &counters[usize::from(counter)];
                                    rec.timed("invoke", id, || ctx.invoke(c, |_, c| *c += 1));
                                }
                            }
                            rec.timed("work", id, || ctx.work(WORK));
                        }
                        (failed, ())
                    };
                    (anchor, body)
                })
                .collect();
            measure(ctx, cfg, &net, &mut out, span_capacity, workers);
            let measured_from = ctx.now().as_ms_f64() - out.virtual_ms;

            let sum: u64 = counters.iter().map(|c| ctx.invoke(c, |_, c| *c)).sum();
            out.check(sum == bumps, sum.abs_diff(bumps), || {
                format!("counter sum {sum} != {bumps} increments")
            });
            for what in ["core.advisory_moves", "core.advisory_replications"] {
                let n = layer_value(&out, what);
                out.check(n > 0.0, 1, || {
                    format!("{what} is 0: the advisor did nothing")
                });
            }
            (out, measured_from)
        })
        .expect("skew_adaptive_sim run failed");

    if let Some(sink) = sink {
        let last_advisory = sink
            .take()
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    ProtocolEvent::AdvisoryMove { .. } | ProtocolEvent::AdvisoryReplicate { .. }
                )
            })
            .map(|r| r.at.as_ms_f64())
            .fold(measured_from, f64::max);
        out.layer.push((
            "placement.converged_virtual_ms",
            last_advisory - measured_from,
        ));
    }
    out
}
