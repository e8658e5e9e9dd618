//! `local_invoke`: one worker invoking objects resident on its own node.
//!
//! Zero messages and no block point, so only `core::invoke`, the registry
//! and thread-frame bookkeeping work: the target of a local-invoke fast
//! path. Transport, simulator and advisor changes must leave it flat.

use amber_core::{Ctx, NodeId};

use super::{builder, layer_value, measure, round_size, Clock, RoundCfg, RoundOut};
use crate::rng::Rng;
#[cfg(test)]
use crate::rng::SeqHash;
use crate::trace::Recorder;

const COUNTERS: u64 = 1024;
const TABLE_WORDS: u64 = 256;
/// About 0.3 s of wall time at today's speed.
const WALL_OPS: u64 = 600_000;
const VIRTUAL_OPS: u64 = 20_000;

/// One op: a pick, and whether it is the shared read of the table (1 in 8)
/// or an exclusive increment of a counter.
#[derive(Clone, Copy)]
struct Op {
    pick: u16,
    shared: bool,
}

fn generate(seed: u64, clock: Clock) -> Vec<Op> {
    let ops = round_size(seed, clock, WALL_OPS, VIRTUAL_OPS);
    let mut rng = Rng::new(seed, 0);
    (0..ops)
        .map(|_| {
            let r = rng.next_u64();
            Op {
                pick: ((r >> 8) % COUNTERS) as u16,
                shared: r.is_multiple_of(8),
            }
        })
        .collect()
}

#[cfg(test)]
pub fn inputs_hash(seed: u64, clock: Clock) -> SeqHash {
    let mut h = SeqHash::new();
    for op in generate(seed, clock) {
        h.push(u64::from(op.pick) << 1 | u64::from(op.shared));
    }
    h
}

fn table_word(i: u64) -> u64 {
    i * i + 7
}

pub fn run(cfg: RoundCfg) -> RoundOut {
    let ops = generate(cfg.seed, cfg.clock);
    let exclusive = ops.iter().filter(|o| !o.shared).count() as u64;
    let expected_reads: u64 = ops
        .iter()
        .filter(|o| o.shared)
        .map(|o| table_word(u64::from(o.pick) % TABLE_WORDS))
        .sum();

    let cluster = builder(cfg.clock, 2, 1).build();
    let net = cluster.net_stats();
    cluster
        .run(move |ctx| {
            let mut out = RoundOut {
                ops: ops.len() as u64,
                ..RoundOut::default()
            };
            let counters: Vec<_> = (0..COUNTERS)
                .map(|_| ctx.create_on(NodeId::BOOT, 0u64))
                .collect();
            let table = ctx.create_on(
                NodeId::BOOT,
                (0..TABLE_WORDS).map(table_word).collect::<Vec<u64>>(),
            );
            ctx.set_immutable(&table);
            let anchor = ctx.create_on(NodeId::BOOT, 0u8);

            let worker = {
                let counters = counters.clone();
                move |ctx: &Ctx, rec: &mut Recorder| {
                    let mut reads = 0u64;
                    for (i, op) in ops.iter().enumerate() {
                        if op.shared {
                            let word = usize::from(op.pick) % TABLE_WORDS as usize;
                            reads += rec.timed("invoke_shared_local", i as u32, || {
                                ctx.invoke_shared(&table, |_, t| t[word])
                            });
                        } else {
                            let c = &counters[usize::from(op.pick)];
                            rec.timed("invoke_local", i as u32, || ctx.invoke(c, |_, c| *c += 1));
                        }
                    }
                    // A wrong read total counts as one failed op.
                    (u64::from(reads != expected_reads), ())
                }
            };
            let span_capacity = out.ops as usize;
            measure(
                ctx,
                cfg,
                &net,
                &mut out,
                span_capacity,
                vec![(anchor, worker)],
            );

            let sum: u64 = counters.iter().map(|c| ctx.invoke(c, |_, c| *c)).sum();
            out.check(sum == exclusive, sum.abs_diff(exclusive), || {
                format!("counter sum {sum} != {exclusive} exclusive ops")
            });
            let msgs = layer_value(&out, "engine.msgs");
            out.check(msgs == 0.0, 1, || {
                format!("a local workload sent {msgs} messages")
            });
            out
        })
        .expect("local_invoke run failed")
}
