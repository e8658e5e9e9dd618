//! `lossy_sim`: the protocol over a network that drops 2 % and duplicates
//! 1 % of all transmission attempts.
//!
//! `engine::fault` (sequence numbers, dedup windows, retransmission
//! time-outs) is bypassed everywhere else. Virtual time prices the
//! retransmission policy deterministically, the wall rate prices its
//! bookkeeping, and the checks prove at-most-once: every op ran exactly
//! once and none returned `Err`.

use amber_core::{Cluster, Ctx, FaultPlan, LatencyModel, ObjRef};

use super::{layer_value, measure, node, seeded_count, Clock, RoundCfg, RoundOut};
use crate::rng::Rng;
#[cfg(test)]
use crate::rng::SeqHash;
use crate::trace::Recorder;

const NODES: u64 = 4;
const PROCESSORS: usize = 2;
const WORKERS: u64 = 8;
const OBJECTS: u64 = 64;
const DROP_RATE: f64 = 0.02;
const DUPLICATE_RATE: f64 = 0.01;
/// About 0.4 s of wall time at today's simulator speed.
const OPS: u64 = 8_000;

#[derive(Clone, Copy)]
enum Op {
    /// 70 %: `try_invoke` an object that is most likely remote.
    Invoke { obj: u8 },
    /// 15 %: move an object to a node.
    Move { obj: u8, to: u8 },
    /// 15 %: `try_locate` an object.
    Locate { obj: u8 },
}

fn generate(seed: u64) -> Vec<Vec<Op>> {
    let total = seeded_count(seed, OPS);
    (0..WORKERS)
        .map(|w| {
            let mut rng = Rng::new(seed, w);
            (0..total / WORKERS)
                .map(|_| {
                    let obj = rng.below(OBJECTS) as u8;
                    let to = rng.below(NODES) as u8;
                    match rng.below(100) {
                        0..=69 => Op::Invoke { obj },
                        70..=84 => Op::Move { obj, to },
                        _ => Op::Locate { obj },
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
pub fn inputs_hash(seed: u64) -> SeqHash {
    let mut h = SeqHash::new();
    for ops in generate(seed) {
        h.push(ops.len() as u64);
        for op in ops {
            h.push(match op {
                Op::Invoke { obj } => u64::from(obj) << 8,
                Op::Move { obj, to } => u64::from(obj) << 8 | u64::from(to) << 4 | 1,
                Op::Locate { obj } => u64::from(obj) << 8 | 2,
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
    let invokes: u64 = ops
        .iter()
        .flatten()
        .filter(|op| matches!(op, Op::Invoke { .. }))
        .count() as u64;

    let cluster = Cluster::builder()
        .nodes(NODES as usize)
        .processors(PROCESSORS)
        .latency(LatencyModel::ethernet_10mbit())
        .faults(
            FaultPlan::seeded(cfg.seed)
                .drop_rate(DROP_RATE)
                .duplicate_rate(DUPLICATE_RATE),
        )
        .build();
    let net = cluster.net_stats();
    cluster
        .run(move |ctx| {
            let mut out = RoundOut {
                ops: total,
                ..RoundOut::default()
            };
            let objects: Vec<ObjRef<u64>> = (0..OBJECTS)
                .map(|o| ctx.create_on(node(o % NODES), 0u64))
                .collect();
            let span_capacity = ops[0].len();
            let workers = ops
                .into_iter()
                .enumerate()
                .map(|(w, ops)| {
                    let anchor = ctx.create_on(node(w as u64 / (WORKERS / NODES)), 0u8);
                    let objects = objects.clone();
                    let body = move |ctx: &Ctx, rec: &mut Recorder| {
                        let base = (w * ops.len()) as u32;
                        let mut failed = 0u64;
                        for (i, op) in ops.iter().enumerate() {
                            let id = base + i as u32;
                            match *op {
                                Op::Invoke { obj } => {
                                    let o = &objects[usize::from(obj)];
                                    let r = rec.timed("try_invoke", id, || {
                                        ctx.try_invoke(o, |_, c| *c += 1)
                                    });
                                    failed += u64::from(r.is_err());
                                }
                                Op::Move { obj, to } => {
                                    let o = &objects[usize::from(obj)];
                                    let to = node(u64::from(to));
                                    rec.timed("move_to", id, || ctx.move_to(o, to));
                                }
                                Op::Locate { obj } => {
                                    let o = &objects[usize::from(obj)];
                                    let r = rec.timed("try_locate", id, || ctx.try_locate(o));
                                    failed += u64::from(r.is_err());
                                }
                            }
                        }
                        (failed, ())
                    };
                    (anchor, body)
                })
                .collect();
            measure(ctx, cfg, &net, &mut out, span_capacity, workers);

            // At most once, and at least once: a retransmitted invoke that
            // ran twice, or a dropped one that never ran, shows here.
            let sum: u64 = objects.iter().map(|o| ctx.invoke(o, |_, c| *c)).sum();
            out.check(sum == invokes, sum.abs_diff(invokes), || {
                format!("object counters sum to {sum}, expected {invokes} invokes")
            });
            let retransmits = layer_value(&out, "engine.retransmits");
            out.check(retransmits > 0.0, 1, || {
                "no retransmits: the fault plan was not in force".to_string()
            });
            out
        })
        .expect("lossy_sim run failed")
}
