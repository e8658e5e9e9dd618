//! Registry stress: genuine OS-thread concurrency hammering the kernel's
//! object registry from every angle at once — invocation storms over many
//! objects, a mover shuffling those same objects around the ring, an
//! attacher building, dragging and dissolving attachment groups, and a
//! churner whose creations outgrow every node's heap. Zero
//! network latency keeps the wall-clock down while maximizing
//! interleavings; the deadline converts any lost wake-up or deadlock into a
//! test failure instead of a hang.

use std::time::Duration;

use amber_core::{Cluster, EngineChoice, LatencyModel, NodeId};

fn real_cluster(nodes: usize, procs: usize) -> Cluster {
    Cluster::builder()
        .nodes(nodes)
        .processors(procs)
        .engine(EngineChoice::Real)
        .latency(LatencyModel::zero())
        .deadline(Duration::from_secs(120))
        .build()
}

#[test]
fn concurrent_invokes_moves_and_attaches() {
    // Two clusters storm side by side in one process: their thread ids
    // coincide, so a thread resolving "itself" against the wrong engine
    // would read the other cluster's node and strand a processor token.
    std::thread::scope(|s| {
        s.spawn(storm);
        s.spawn(storm);
    });
}

fn storm() {
    let c = real_cluster(4, 2);
    let total = c
        .run(|ctx| {
            // Eight counters spread over four nodes, invoked by eight workers
            // at once: every invoke contends for the one registry lock with
            // the mover and the attacher below.
            let counters: Vec<_> = (0..8u16)
                .map(|i| ctx.create_on(NodeId(i % 4), 0u64))
                .collect();
            let invokers: Vec<_> = (0..8u16)
                .map(|w| {
                    let counters = counters.clone();
                    let a = ctx.create_on(NodeId(w % 4), 0u8);
                    ctx.start(&a, move |ctx, _| {
                        for i in 0..50usize {
                            let obj = &counters[(w as usize + i) % counters.len()];
                            ctx.invoke(obj, |_, n| *n += 1);
                        }
                    })
                })
                .collect();
            // Shuffle the contended counters around the ring while the
            // invocation storm runs: every invoke races descriptor flips,
            // moving-flag claims and installs.
            let mover_seat = ctx.create_on(NodeId(1), 0u8);
            let mover = {
                let counters = counters.clone();
                ctx.start(&mover_seat, move |ctx, _| {
                    for round in 0..3u16 {
                        for (i, obj) in counters.iter().enumerate() {
                            ctx.move_to(obj, NodeId((i as u16 + round + 1) % 4));
                        }
                    }
                })
            };
            // Build attachment groups, drag them across nodes, dissolve
            // them — group claims racing the single-object moves above.
            let attach_seat = ctx.create_on(NodeId(2), 0u8);
            let attacher = ctx.start(&attach_seat, move |ctx, _| {
                for round in 0..4u16 {
                    let root = ctx.create_on(NodeId(round % 4), 0u32);
                    let kids: Vec<_> = (0..3u16)
                        .map(|k| {
                            let kid = ctx.create_on(NodeId((round + k) % 4), [0u8; 64]);
                            ctx.attach(&kid, &root);
                            kid
                        })
                        .collect();
                    ctx.move_to(&root, NodeId((round + 2) % 4));
                    let at = ctx.locate(&root);
                    for kid in &kids {
                        assert_eq!(ctx.locate(kid), at, "attached child strayed mid-storm");
                    }
                    for kid in kids {
                        ctx.unattach(&kid);
                    }
                }
            });
            // Churn every node's heap meanwhile: more 256 KB objects at once
            // than a node's first region holds, so region extensions fetch,
            // add and allocate under the one lock the storm contends for.
            let churn_seat = ctx.create_on(NodeId(3), 0u8);
            let churner = ctx.start(&churn_seat, move |ctx, _| {
                for _ in 0..2 {
                    let blocks: Vec<_> = (0..24u16)
                        .map(|i| ctx.create_on(NodeId(i % 4), vec![0u8; 256 * 1024]))
                        .collect();
                    for block in blocks {
                        ctx.destroy(block);
                    }
                }
            });
            for h in invokers {
                h.join(ctx);
            }
            mover.join(ctx);
            attacher.join(ctx);
            churner.join(ctx);
            counters
                .iter()
                .map(|obj| ctx.invoke(obj, |_, n| *n))
                .sum::<u64>()
        })
        .unwrap();
    assert_eq!(total, 400, "lost updates under the registry storm");
    let extensions = c.protocol_stats().region_extensions;
    assert!(
        extensions >= 4,
        "{extensions} region extensions on four nodes"
    );
}

#[test]
fn rival_group_moves_do_not_deadlock() {
    // Two attachment groups whose members are interleaved across all four
    // nodes, moved concurrently in opposite directions. Each mover claims
    // its whole group under one registry guard and parks, guard dropped, on
    // a rival's member; a claim that held the lock while parked, or a
    // waiter registration that raced the wake, would deadlock the rivals —
    // the run deadline turns that into a failure.
    let c = real_cluster(4, 2);
    c.run(|ctx| {
        let roots: Vec<_> = (0..2u16)
            .map(|g| {
                let root = ctx.create_on(NodeId(g), 0u32);
                for k in 0..6u16 {
                    let kid = ctx.create_on(NodeId(k % 4), [0u8; 32]);
                    ctx.attach(&kid, &root);
                }
                root
            })
            .collect();
        let movers: Vec<_> = roots
            .iter()
            .enumerate()
            .map(|(g, root)| {
                let root = *root;
                let seat = ctx.create_on(NodeId(g as u16 + 2), 0u8);
                ctx.start(&seat, move |ctx, _| {
                    for round in 0..6u16 {
                        let dest = if g == 0 {
                            NodeId(round % 4)
                        } else {
                            NodeId(3 - round % 4)
                        };
                        ctx.move_to(&root, dest);
                    }
                })
            })
            .collect();
        for m in movers {
            m.join(ctx);
        }
    })
    .unwrap();
}
