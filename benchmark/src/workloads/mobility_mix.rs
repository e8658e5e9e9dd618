//! `mobility_mix`: the registry/descriptor layer used for writes (`move_to`,
//! `attach`) beside reads (`locate`, invocations that chase forwarding
//! chains), plus object churn.
//!
//! A shortcut that speeds residency checks but makes moves or chases dearer
//! shows here. Each worker owns 16 groups (a root with an attached child),
//! so it always knows where a group was last committed and can check every
//! `locate` as it goes.

use amber_core::{Ctx, NodeId, ObjRef};

use super::{builder, measure, node, round_size, Clock, RoundCfg, RoundOut};
use crate::rng::Rng;
#[cfg(test)]
use crate::rng::SeqHash;
use crate::trace::Recorder;

const NODES: u64 = 4;
const WORKERS: u64 = 2;
const GROUPS_PER_WORKER: u64 = 16;
/// About 0.4 s of wall time at today's speed.
const WALL_OPS: u64 = 40_000;
/// Enough ops that the seed's draw of moves against invokes averages out.
const VIRTUAL_OPS: u64 = 8_000;

#[derive(Clone, Copy)]
enum Op {
    /// 25 %: move the group's root (and so the group) to a node.
    Move { group: u8, to: u8 },
    /// 25 %: locate the group's child.
    Locate { group: u8 },
    /// 40 %: increment the child, wherever the group now is.
    Invoke { group: u8 },
    /// 5 %: create an object on a node and destroy it again.
    CreateDestroy { on: u8 },
    /// 5 %: unattach the child and attach it again.
    Reattach { group: u8 },
}

#[cfg(test)]
impl Op {
    fn word(self) -> u64 {
        match self {
            Op::Move { group, to } => u64::from(group) << 8 | u64::from(to) << 4,
            Op::Locate { group } => u64::from(group) << 8 | 1,
            Op::Invoke { group } => u64::from(group) << 8 | 2,
            Op::CreateDestroy { on } => u64::from(on) << 4 | 3,
            Op::Reattach { group } => u64::from(group) << 8 | 4,
        }
    }
}

fn generate(seed: u64, clock: Clock) -> Vec<Vec<Op>> {
    let total = round_size(seed, clock, WALL_OPS, VIRTUAL_OPS);
    (0..WORKERS)
        .map(|w| {
            let mut rng = Rng::new(seed, w);
            (0..total / WORKERS)
                .map(|_| {
                    let group = rng.below(GROUPS_PER_WORKER) as u8;
                    let on = rng.below(NODES) as u8;
                    match rng.below(100) {
                        0..=24 => Op::Move { group, to: on },
                        25..=49 => Op::Locate { group },
                        50..=89 => Op::Invoke { group },
                        90..=94 => Op::CreateDestroy { on },
                        _ => Op::Reattach { group },
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
pub fn inputs_hash(seed: u64, clock: Clock) -> SeqHash {
    let mut h = SeqHash::new();
    for ops in generate(seed, clock) {
        h.push(ops.len() as u64);
        ops.iter().for_each(|op| h.push(op.word()));
    }
    h
}

#[derive(Clone, Copy)]
struct Group {
    root: ObjRef<u64>,
    child: ObjRef<u64>,
}

pub fn run(cfg: RoundCfg) -> RoundOut {
    let ops = generate(cfg.seed, cfg.clock);
    let total: u64 = ops.iter().map(|o| o.len() as u64).sum();
    let invokes: u64 = ops
        .iter()
        .flatten()
        .filter(|op| matches!(op, Op::Invoke { .. }))
        .count() as u64;

    let cluster = builder(cfg.clock, NODES as usize, 1).build();
    let net = cluster.net_stats();
    cluster
        .run(move |ctx| {
            let mut out = RoundOut {
                ops: total,
                ..RoundOut::default()
            };
            // Worker `w` sits on node `2w`; its groups start spread over
            // all nodes, group `g` on node `g mod 4`.
            let groups: Vec<Vec<Group>> = (0..WORKERS)
                .map(|_| {
                    (0..GROUPS_PER_WORKER)
                        .map(|g| {
                            let root = ctx.create_on(node(g % NODES), 0u64);
                            let child = ctx.create_on(node(g % NODES), 0u64);
                            ctx.attach(&child, &root);
                            Group { root, child }
                        })
                        .collect()
                })
                .collect();
            let span_capacity = ops[0].len() * 11 / 10;
            let workers = ops
                .into_iter()
                .enumerate()
                .map(|(w, ops)| {
                    let home = node(2 * w as u64);
                    let anchor = ctx.create_on(home, 0u8);
                    let groups = groups[w].clone();
                    let body = move |ctx: &Ctx, rec: &mut Recorder| {
                        let base = (w * ops.len()) as u32;
                        let mut at: Vec<NodeId> =
                            (0..GROUPS_PER_WORKER).map(|g| node(g % NODES)).collect();
                        let mut failed = 0u64;
                        for (i, op) in ops.iter().enumerate() {
                            let id = base + i as u32;
                            match *op {
                                Op::Move { group, to } => {
                                    let g = &groups[usize::from(group)];
                                    let to = node(u64::from(to));
                                    rec.timed("move_to", id, || ctx.move_to(&g.root, to));
                                    at[usize::from(group)] = to;
                                }
                                Op::Locate { group } => {
                                    let g = &groups[usize::from(group)];
                                    let here = at[usize::from(group)] == home;
                                    let kind = if here {
                                        "locate_local"
                                    } else {
                                        "locate_remote"
                                    };
                                    let found = rec.timed(kind, id, || ctx.locate(&g.child));
                                    failed += u64::from(found != at[usize::from(group)]);
                                }
                                Op::Invoke { group } => {
                                    let g = &groups[usize::from(group)];
                                    let here = at[usize::from(group)] == home;
                                    let kind = if here {
                                        "invoke_local"
                                    } else {
                                        "invoke_remote"
                                    };
                                    rec.timed(kind, id, || ctx.invoke(&g.child, |_, c| *c += 1));
                                }
                                Op::CreateDestroy { on } => {
                                    let on = node(u64::from(on));
                                    let o = rec.timed("create", id, || ctx.create_on(on, 0u64));
                                    rec.timed("destroy", id, || ctx.destroy(o));
                                }
                                Op::Reattach { group } => {
                                    let g = &groups[usize::from(group)];
                                    rec.timed("unattach", id, || ctx.unattach(&g.child));
                                    rec.timed("attach", id, || ctx.attach(&g.child, &g.root));
                                }
                            }
                        }
                        // Where each group was last committed, for the
                        // harness to check once every worker is done.
                        (failed, at)
                    };
                    (anchor, body)
                })
                .collect();
            let finals = measure(ctx, cfg, &net, &mut out, span_capacity, workers);

            let sum: u64 = groups
                .iter()
                .flatten()
                .map(|g| ctx.invoke(&g.child, |_, c| *c))
                .sum();
            out.check(sum == invokes, sum.abs_diff(invokes), || {
                format!("child counters sum to {sum}, expected {invokes} invokes")
            });
            // With every worker done, each group is where its last move
            // committed it, and root and child are still together.
            for (w, (groups, at)) in groups.iter().zip(&finals).enumerate() {
                let stray = groups
                    .iter()
                    .zip(at)
                    .filter(|(g, &want)| {
                        ctx.locate(&g.child) != want || ctx.locate(&g.root) != want
                    })
                    .count() as u64;
                out.check(stray == 0, stray, || {
                    format!("{stray} of worker {w}'s groups are not where they were last moved")
                });
            }
            out
        })
        .expect("mobility_mix run failed")
}
