//! `remote_invoke`: function shipping. Two workers anchored on opposite
//! nodes, each invoking counters that live on the other node, so every op
//! migrates the calling thread out and back.
//!
//! The trap/migrate half of `core::invoke` and `engine::real`'s queue, gate
//! and token hand-off dominate; the resident fast path does almost nothing.
//! The contrast to `local_invoke`.

use amber_core::{Ctx, ObjRef};

use super::{builder, layer_value, measure, node, round_size, Clock, RoundCfg, RoundOut};
use crate::rng::Rng;
#[cfg(test)]
use crate::rng::SeqHash;
use crate::trace::Recorder;

const WORKERS: u64 = 2;
const COUNTERS_PER_WORKER: u64 = 64;
/// Every fourth op carries this many bytes of by-value arguments.
const CARRY_BYTES: usize = 1024;
/// About 0.4 s of wall time at today's speed.
const WALL_OPS: u64 = 60_000;
const VIRTUAL_OPS: u64 = 2_000;

/// Per worker, the counter each op invokes.
fn generate(seed: u64, clock: Clock) -> Vec<Vec<u8>> {
    let total = round_size(seed, clock, WALL_OPS, VIRTUAL_OPS);
    (0..WORKERS)
        .map(|w| {
            let mut rng = Rng::new(seed, w);
            (0..total / WORKERS)
                .map(|_| rng.below(COUNTERS_PER_WORKER) as u8)
                .collect()
        })
        .collect()
}

#[cfg(test)]
pub fn inputs_hash(seed: u64, clock: Clock) -> SeqHash {
    let mut h = SeqHash::new();
    for picks in generate(seed, clock) {
        h.push(picks.len() as u64);
        picks.iter().for_each(|&p| h.push(u64::from(p)));
    }
    h
}

pub fn run(cfg: RoundCfg) -> RoundOut {
    let picks = generate(cfg.seed, cfg.clock);
    let total: u64 = picks.iter().map(|p| p.len() as u64).sum();

    let cluster = builder(cfg.clock, WORKERS as usize, 1).build();
    let net = cluster.net_stats();
    cluster
        .run(move |ctx| {
            let mut out = RoundOut {
                ops: total,
                ..RoundOut::default()
            };
            // Worker `w` sits on node `w`; its counters sit on the other.
            let targets: Vec<Vec<ObjRef<u64>>> = (0..WORKERS)
                .map(|w| {
                    (0..COUNTERS_PER_WORKER)
                        .map(|_| ctx.create_on(node((w + 1) % WORKERS), 0u64))
                        .collect()
                })
                .collect();
            let span_capacity = picks[0].len();
            let workers = picks
                .into_iter()
                .zip(targets.clone())
                .enumerate()
                .map(|(w, (picks, counters))| {
                    let anchor = ctx.create_on(node(w as u64), 0u8);
                    let body = move |ctx: &Ctx, rec: &mut Recorder| {
                        let base = (w * picks.len()) as u32;
                        for (i, &p) in picks.iter().enumerate() {
                            let c = &counters[usize::from(p)];
                            rec.timed("invoke_remote", base + i as u32, || {
                                if i % 4 == 3 {
                                    ctx.invoke_carrying(c, CARRY_BYTES, |_, c| *c += 1)
                                } else {
                                    ctx.invoke(c, |_, c| *c += 1)
                                }
                            });
                        }
                        (0, ())
                    };
                    (anchor, body)
                })
                .collect();
            measure(ctx, cfg, &net, &mut out, span_capacity, workers);

            let sum: u64 = targets
                .iter()
                .flatten()
                .map(|c| ctx.invoke(c, |_, c| *c))
                .sum();
            out.check(sum == total, sum.abs_diff(total), || {
                format!("counter sum {sum} != {total} ops")
            });
            // The workload is only what it says while every op ships the
            // thread (starting and joining the workers adds a few more).
            let remote = layer_value(&out, "core.remote_invokes");
            out.check(remote >= total as f64, 1, || {
                format!("only {remote} remote invokes for {total} ops")
            });
            out
        })
        .expect("remote_invoke run failed")
}
