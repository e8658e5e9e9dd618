//! The protocol's record of itself: trace events against the counters,
//! pinned event sequences, determinism, and the runtime checkers' verdict
//! on a whole program.

use super::*;

#[test]
fn the_chase_trace_is_pinned() {
    // Every way a chase starts and ends, in one program: an exclusive
    // invoke down a two-move forwarding chain, a return re-check that
    // chases its enclosing object after it moved (routing home from a node
    // that never heard of it), a replica-served shared read, a locate that
    // compresses the chain behind it, and a destroy. The event sequence,
    // the clock and the repair count are what the kernel produced when each
    // descriptor table had a lock of its own.
    let c = Cluster::sim(3, 1);
    let sink = c.enable_tracing();
    c.run(|ctx| {
        let anchor = ctx.create(0u8);
        let rover = ctx.create(0u64);
        ctx.move_to(&rover, NodeId(1));
        ctx.move_to(&rover, NodeId(2));
        let frozen = ctx.create(7u32);
        ctx.set_immutable(&frozen);
        ctx.move_to(&frozen, NodeId(1));
        ctx.invoke(&anchor, |ctx, _| {
            ctx.invoke(&rover, |ctx, n| {
                *n += 1;
                ctx.move_to(&anchor, NodeId(1));
            });
            assert_eq!(ctx.node(), NodeId(1), "the re-check found the anchor");
        });
        assert_eq!(ctx.invoke_shared(&frozen, |_, v| *v), 7);
        ctx.move_to(&rover, NodeId(0));
        assert_eq!(ctx.locate(&rover), NodeId(0));
        ctx.destroy(rover);
    })
    .unwrap();
    let events: Vec<String> = sink
        .take()
        .iter()
        .map(|r| format!("{}@{}", r.event.name(), r.event.node().index()))
        .collect();
    let pinned = "object_create@0 object_create@0 object_move@1 message_send@0 \
         move_installed@1 message_send@1 message_send@0 message_send@1 object_move@2 \
         message_send@1 move_installed@2 message_send@2 object_create@0 message_send@0 \
         message_send@0 message_send@1 replication@1 local_invoke@0 forward_hop@0 \
         message_send@0 thread_migration@1 forward_hop@1 message_send@1 \
         thread_migration@2 hint_repair@0 remote_invoke@2 message_send@2 message_send@0 \
         object_move@1 message_send@0 move_installed@1 message_send@1 region_lookup@2 \
         message_send@2 message_send@0 home_route@2 message_send@2 thread_migration@0 \
         forward_hop@0 message_send@0 thread_migration@1 hint_repair@2 local_invoke@1 \
         message_send@1 message_send@2 object_move@0 message_send@2 move_installed@0 \
         message_send@0 forward_hop@1 message_send@1 forward_hop@2 message_send@2 \
         message_send@0 hint_repair@1 object_destroy@1";
    assert_eq!(events.join(" "), pinned);
    assert_eq!(c.now(), SimTime::from_ns(106_706_400));
    assert_eq!(c.protocol_stats().hint_repairs, 3);
}

#[test]
fn trace_reconciles_with_protocol_counters() {
    // Exercise every protocol path with tracing on, then recompute the
    // counters from the event stream alone: one `emit` feeds both, so they
    // differ only if the sink lost a record. Bytes are the one engine total
    // that is not a count of events; the capture carries those too.
    let c = Cluster::sim(3, 2);
    let sink = c.enable_tracing();
    c.run(|ctx| {
        let near = ctx.create(1u64);
        let far = ctx.create_on(
            NodeId(1),
            Grid {
                cells: vec![0.0; 64],
            },
        );
        ctx.invoke(&near, |_, n| *n += 1); // local invoke
        ctx.invoke(&far, |_, g| g.cells[0] = 1.0); // remote invoke + migration
        ctx.move_to(&far, NodeId(2)); // object move
        ctx.attach(&near, &far); // attach (internal move)
        ctx.move_to(&far, NodeId(0)); // group move
        ctx.unattach(&near);
        let frozen = ctx.create(9u8);
        ctx.set_immutable(&frozen);
        ctx.move_to(&frozen, NodeId(1)); // replication
        let h = ctx.start(&near, |_, n| *n); // thread start
        h.join(ctx); // join
        ctx.locate(&far); // locate probes (hops / home routes)
        let gone = ctx.create(0u32);
        ctx.destroy(gone); // destroy
    })
    .unwrap();
    let events = sink.take();
    assert!(!events.is_empty());
    // Timestamps are monotone non-decreasing under the virtual clock.
    for pair in events.windows(2) {
        assert!(pair[0].at <= pair[1].at, "trace out of order");
    }
    assert_eq!(ProtocolSnapshot::from_events(&events), c.protocol_stats());
    let traced_bytes: usize = events
        .iter()
        .map(|r| match r.event {
            amber_engine::ProtocolEvent::MessageSend { bytes, .. } => bytes,
            _ => 0,
        })
        .sum();
    assert_eq!(traced_bytes as u64, c.net_stats().total_bytes());
    // The stream is exportable as Chrome-trace JSON.
    let json = amber_engine::trace::chrome_trace_json(&events);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("object_move"));
}

#[test]
fn counters_never_run_ahead_of_the_trace() {
    // A sampler thread compares `protocol_stats()` with the events recorded
    // so far while a `move_to` issued from off the source node is parked in
    // its `moveto-request` round trip (and across a `start`). The simulator
    // runs one thread at a time, so each sample is an atomic look at the
    // counters and the capture: a fact counted before the block point it is
    // traced after would show as a counter ahead of its events.
    use std::sync::atomic::{AtomicBool, Ordering};
    let c = Cluster::sim(3, 2);
    let sink = c.enable_tracing();
    let sampled = c
        .run(move |ctx| {
            let anchor = ctx.create(0u8);
            let rover = ctx.create_on(NodeId(1), 0u64);
            let done = std::sync::Arc::new(AtomicBool::new(false));
            let done2 = std::sync::Arc::clone(&done);
            let sampler = ctx.start(&anchor, move |ctx, _| {
                let mut moves_seen = Vec::new();
                while !done2.load(Ordering::Acquire) {
                    let live = ctx.protocol_stats();
                    let traced = ProtocolSnapshot::from_events(&sink.snapshot());
                    assert_eq!(live, traced, "a counter ran ahead of its event");
                    moves_seen.push(live.object_moves);
                    ctx.sleep(SimTime::from_us(20));
                }
                moves_seen
            });
            // Main sits on node 0, the rover on node 1: the request travels.
            ctx.move_to(&rover, NodeId(2));
            ctx.start(&rover, |_, v| *v += 1).join(ctx);
            done.store(true, Ordering::Release);
            sampler.join(ctx)
        })
        .unwrap();
    assert!(sampled.len() > 50, "sampler barely ran: {}", sampled.len());
    assert_eq!(sampled.first(), Some(&0));
    assert_eq!(sampled.last(), Some(&1), "the move never showed");
}

#[test]
fn join_event_names_the_joiners_node() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2).processors(2));
        let sink = c.enable_tracing();
        let (inner, outer) = c
            .run(|ctx| {
                let far = ctx.create_on(NodeId(1), 0u8);
                // The worker runs on node 1 and completes a join there.
                let worker = ctx.start(&far, |ctx, _| {
                    let near = ctx.create(0u8);
                    let h = ctx.start(&near, |_, _| ());
                    let tid = h.thread_id();
                    h.join(ctx);
                    tid
                });
                let outer = worker.thread_id();
                (worker.join(ctx), outer)
            })
            .unwrap();
        let joins: Vec<_> = sink
            .take()
            .into_iter()
            .filter_map(|r| match r.event {
                amber_engine::ProtocolEvent::Join { thread, .. } => Some((thread, r.event.node())),
                _ => None,
            })
            .collect();
        assert_eq!(joins, [(inner, NodeId(1)), (outer, NodeId(0))]);
    }
}

#[test]
fn chase_compression_reconciles_counters_exactly() {
    // Build a four-link forwarding chain, walk it, then locate it from two
    // workers at once (on real threads their records race into the
    // capture), and check that the counters recomputed from the trace alone
    // equal the live ones: every message appears in the trace exactly once.
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(4).processors(2));
        let sink = c.enable_tracing();
        c.run(|ctx| {
            let rover = ctx.create_on(NodeId(0), 0u64);
            for k in [1, 2, 3] {
                ctx.move_to(&rover, NodeId(k));
            }
            // Main still sits on node 0, whose descriptor is one move stale;
            // the locate walks the chain and the reply path rewrites every
            // stale descriptor to a one-hop forward.
            assert_eq!(ctx.locate(&rover), NodeId(3));
            assert_eq!(ctx.locate(&rover), NodeId(3));
            let workers = [0, 1].map(|n| {
                let seat = ctx.create_on(NodeId(n), 0u8);
                ctx.start(&seat, move |ctx, _| {
                    for _ in 0..8 {
                        assert_eq!(ctx.locate(&rover), NodeId(3));
                    }
                })
            });
            for h in workers {
                h.join(ctx);
            }
        })
        .unwrap();
        let p = c.protocol_stats();
        assert!(p.hint_repairs > 0, "no descriptor was repaired: {p:?}");
        assert_eq!(ProtocolSnapshot::from_events(&sink.take()), p);
    }
}

#[test]
fn runs_are_deterministic() {
    fn once() -> (SimTime, u64, ProtocolSnapshot) {
        let c = Cluster::sim(4, 2);
        c.run(|ctx| {
            let objs: Vec<_> = (0..8)
                .map(|i| ctx.create_on(NodeId(i % 4), i as u64))
                .collect();
            let hs: Vec<_> = objs
                .iter()
                .map(|o| {
                    ctx.start(o, |ctx, n| {
                        ctx.work(SimTime::from_us(250));
                        *n += 1;
                    })
                })
                .collect();
            for h in hs {
                h.join(ctx);
            }
            for (i, o) in objs.iter().enumerate() {
                ctx.move_to(o, NodeId((i as u16 + 1) % 4));
            }
        })
        .unwrap();
        (c.now(), c.net_stats().total_msgs(), c.protocol_stats())
    }
    assert_eq!(once(), once());
}

#[test]
fn stats_snapshot_is_comprehensive() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2));
        c.run(|ctx| {
            let far = ctx.create_on(NodeId(1), 0u64);
            ctx.invoke(&far, |_, n| *n += 1);
            let h = ctx.start(&far, |_, n| *n);
            h.join(ctx);
            let p = ctx.protocol_stats();
            assert!(p.creates >= 2);
            assert!(p.thread_starts == 1);
            assert!(p.joins == 1);
            assert!(p.total_invokes() >= 3);
        })
        .unwrap();
    }
}

#[test]
fn null_sink_records_nothing_and_stops_cleanly() {
    // No sink installed: the run must behave identically (covered by every
    // other test); here we check enable/disable round-trips.
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2));
        let sink = c.enable_tracing();
        assert!(c.disable_tracing().is_some());
        c.run(|ctx| {
            let v = ctx.create_on(NodeId(1), 0u64);
            ctx.invoke(&v, |_, v| *v += 1);
        })
        .unwrap();
        assert!(
            sink.is_empty(),
            "events recorded after tracing was disabled"
        );
    }
}

/// End-to-end workout for the runtime checkers: with `amber-verify` active
/// (debug builds or `--features verify`) the lock-order checker and
/// lifecycle linter observe every run in this suite, panicking on the first
/// violation. This test additionally exercises moves, replication and
/// destroys in one program, then asserts the violation buffer is empty.
#[cfg(any(feature = "verify", debug_assertions))]
#[test]
fn verification_workout_is_violation_free() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(4).processors(2));
        c.run(|ctx| {
            // Mutable objects bouncing between nodes.
            let rovers: Vec<_> = (0..6).map(|i| ctx.create(i as u64)).collect();
            for (i, r) in rovers.iter().enumerate() {
                ctx.move_to(r, NodeId(((i + 1) % 4) as u16));
                ctx.invoke(r, |_, v| *v += 1);
                ctx.move_to(r, NodeId(((i + 2) % 4) as u16));
            }
            // An immutable object replicated by shared reads from every
            // node: each anchor pins a thread to its node, which then reads
            // the table.
            let table = ctx.create(vec![7u8; 64]);
            ctx.set_immutable(&table);
            let handles: Vec<_> = (0..4)
                .map(|n| {
                    let anchor = ctx.create_on(NodeId(n as u16), ());
                    let t = table;
                    ctx.start(&anchor, move |ctx, _| ctx.invoke_shared(&t, |_, v| v.len()))
                })
                .collect();
            for h in handles {
                assert_eq!(h.join(ctx), 64);
            }
            // Destroy half the rovers; keep invoking the rest.
            for (i, r) in rovers.into_iter().enumerate() {
                if i % 2 == 0 {
                    ctx.destroy(r);
                } else {
                    ctx.invoke(&r, |_, v| *v += 1);
                }
            }
        })
        .unwrap();
        let violations = amber_verify::take_violations();
        assert!(violations.is_empty(), "checker violations: {violations:?}");
    }
}
