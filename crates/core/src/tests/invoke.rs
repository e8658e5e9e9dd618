//! Invocation: function shipping, nesting and the return re-check,
//! admission of exclusive and shared operations, carried bytes, and the
//! registry visits each operation takes.

use super::*;

#[test]
fn local_invocation_does_not_touch_network() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(4).processors(2));
        c.run(|ctx| {
            let obj = ctx.create(7u64);
            let v = ctx.invoke(&obj, |_, n| {
                *n *= 6;
                *n
            });
            assert_eq!(v, 42);
        })
        .unwrap();
        assert_eq!(c.net_stats().total_msgs(), 0);
        let p = c.protocol_stats();
        assert_eq!(p.local_invokes, 1);
        assert_eq!(p.remote_invokes, 0);
    }
}

#[test]
fn remote_invocation_ships_thread_and_it_stays() {
    // Function shipping: a thread that invokes a remote object from its
    // root continues executing at the object's node afterwards — "the
    // division of computational load between the machines is determined by
    // the locations of the program's data objects" (section 2.3).
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2));
        c.run(|ctx| {
            let obj = ctx.create_on(NodeId(1), 0u32);
            let during = ctx.invoke(&obj, |ctx, n| {
                *n += 1;
                ctx.node()
            });
            assert_eq!(during, NodeId(1));
            assert_eq!(
                ctx.node(),
                NodeId(1),
                "root-level return does not bounce back"
            );
        })
        .unwrap();
        let p = c.protocol_stats();
        assert_eq!(p.remote_invokes, 1);
        assert_eq!(p.thread_migrations, 1);
    }
}

#[test]
fn nested_remote_invocation_bounces_back() {
    // From inside an operation on a node-0 object, a remote invocation
    // returns to node 0: the return-time residency check on the enclosing
    // frame ships the thread home. This is the invoke/return round trip of
    // Table 1.
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2));
        c.run(|ctx| {
            let anchor = ctx.create(0u8);
            let far = ctx.create_on(NodeId(1), 0u32);
            ctx.invoke(&anchor, |ctx, _| {
                assert_eq!(ctx.node(), NodeId(0));
                ctx.invoke(&far, |_, n| *n += 1);
                assert_eq!(ctx.node(), NodeId(0), "return check must bounce back");
            });
        })
        .unwrap();
        let p = c.protocol_stats();
        assert_eq!(p.thread_migrations, 2);
    }
}

#[test]
fn remote_invoke_is_orders_of_magnitude_dearer_than_local() {
    // The paper's core cost premise (section 1.1): remote references cost
    // three to four orders of magnitude more than local ones.
    let c = Cluster::sim(2, 1);
    let (local, remote) = c
        .run(|ctx| {
            let near = ctx.create(0u64);
            let far = ctx.create_on(NodeId(1), 0u64);
            let t0 = ctx.now();
            ctx.invoke(&near, |_, n| *n += 1);
            let t1 = ctx.now();
            ctx.invoke(&far, |_, n| *n += 1);
            let t2 = ctx.now();
            (t1 - t0, t2 - t1)
        })
        .unwrap();
    assert!(
        remote.as_ns() > 100 * local.as_ns(),
        "remote {remote} should dwarf local {local}"
    );
}

#[test]
fn a_node_past_the_cluster_fails_the_run_before_any_message() {
    // The program names the node; the kernel refuses it up front with the
    // message `move_to` gives, on both engines, before a charge or a send.
    type Entry = (&'static str, fn(&crate::Ctx));
    let entries: [Entry; 3] = [
        ("create_on", |ctx| {
            ctx.create_on(NodeId(5), 1u64);
        }),
        ("install_scheduler", |ctx| {
            ctx.install_scheduler(NodeId(5), Box::<amber_engine::policy::Fifo>::default())
        }),
        ("net_wait", |ctx| {
            ctx.net_wait(NodeId(0), NodeId(5), 64, "probe")
        }),
    ];
    for engine in ENGINES {
        for (entry, call) in entries {
            let c = on(engine, Cluster::builder().nodes(2));
            match c.run(call) {
                Err(crate::EngineError::Panic { message, .. }) => {
                    assert!(message.contains("no such node5"), "{entry}: {message}")
                }
                other => panic!("{entry} on {engine:?}: {other:?}"),
            }
            assert_eq!(c.net_stats().total_msgs(), 0, "{entry} on {engine:?}");
        }
    }
}

#[test]
fn nested_invocation_returns_to_enclosing_node() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(3));
        c.run(|ctx| {
            let outer = ctx.create_on(NodeId(1), 0u8);
            let inner = ctx.create_on(NodeId(2), 0u8);
            let trace = ctx.invoke(&outer, |ctx, _| {
                let before = ctx.node();
                let during = ctx.invoke(&inner, |ctx, _| ctx.node());
                let after = ctx.node();
                (before, during, after)
            });
            assert_eq!(trace, (NodeId(1), NodeId(2), NodeId(1)));
            // The root-level return leaves the thread at the outer object.
            assert_eq!(ctx.node(), NodeId(1));
        })
        .unwrap();
    }
}

#[test]
fn deeply_nested_invocations_unwind_node_by_node() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(4));
        c.run(|ctx| {
            let objs: Vec<_> = (0..4u16).map(|i| ctx.create_on(NodeId(i), 0u8)).collect();
            let (a, b, cc, d) = (objs[0], objs[1], objs[2], objs[3]);
            ctx.invoke(&a, |ctx, _| {
                ctx.invoke(&b, |ctx, _| {
                    ctx.invoke(&cc, |ctx, _| {
                        ctx.invoke(&d, |ctx, _| assert_eq!(ctx.node(), NodeId(3)));
                        assert_eq!(ctx.node(), NodeId(2));
                    });
                    assert_eq!(ctx.node(), NodeId(1));
                });
                assert_eq!(ctx.node(), NodeId(0));
            });
        })
        .unwrap();
    }
}

#[test]
fn reentrant_exclusive_invocation_is_an_error() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder());
        let err = c
            .run(|ctx| {
                let a = ctx.create(0u8);
                ctx.invoke(&a, |ctx, _| {
                    ctx.invoke(&a, |_, _| ());
                });
            })
            .unwrap_err();
        assert!(err.to_string().contains("re-entrant invocation"), "{err}");
    }
}

#[test]
fn region_map_misses_cost_a_server_round_trip() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(3));
        c.run(|ctx| {
            // An object created on node 1, then referenced from node 2 with
            // no descriptor: node 2 must learn region ownership from the
            // server.
            let obj = ctx.create_on(NodeId(1), 0u32);
            let probe = ctx.create_on(NodeId(2), 0u8);
            let before = ctx.protocol_stats().region_lookups;
            ctx.start(&probe, move |ctx, _| {
                ctx.invoke(&obj, |_, n| *n += 1);
            })
            .join(ctx);
            let after = ctx.protocol_stats().region_lookups;
            assert!(after > before, "home routing must consult the server once");
        })
        .unwrap();
    }
}

#[test]
fn shared_reads_of_mutable_object_ship_every_time() {
    // Unlike immutables, mutable objects are never replicated: each remote
    // shared read costs a round trip (the predictability the paper claims).
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2));
        c.run(|ctx| {
            let table = ctx.create_on(NodeId(1), vec![1u64, 2, 3]);
            let anchor = ctx.create(0u8);
            let before = ctx.protocol_stats().thread_migrations;
            for _ in 0..3 {
                ctx.invoke(&anchor, |ctx, _| ctx.invoke_shared(&table, |_, t| t.len()));
            }
            let delta = ctx.protocol_stats().thread_migrations - before;
            assert_eq!(delta, 6, "three round trips expected, saw {delta} legs");
            assert_eq!(ctx.protocol_stats().replications, 0);
        })
        .unwrap();
    }
}

#[test]
fn start_and_join_across_nodes() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(4).processors(2));
        let total = c
            .run(|ctx| {
                let mut handles = Vec::new();
                for i in 0..4u64 {
                    let target = ctx.create_on(NodeId(i as u16), i);
                    handles.push(ctx.start(&target, move |ctx, n| {
                        ctx.work(SimTime::from_ms(1));
                        *n * 10
                    }));
                }
                handles.into_iter().map(|h| h.join(ctx)).sum::<u64>()
            })
            .unwrap();
        assert_eq!(total, 60);
        let p = c.protocol_stats();
        assert_eq!(p.thread_starts, 4);
        assert_eq!(p.joins, 4);
    }
}

#[test]
fn join_before_and_after_completion() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().processors(2));
        c.run(|ctx| {
            let quick = ctx.create(0u8);
            let h = ctx.start(&quick, |ctx, _| {
                ctx.work(SimTime::from_ms(5));
                "slow result"
            });
            // Join before completion parks, then is woken with the result.
            assert_eq!(h.join(ctx), "slow result");

            let h2 = ctx.start(&quick, |_, _| 99u8);
            ctx.sleep(SimTime::from_ms(50)); // let it finish first
            assert_eq!(h2.join(ctx), 99);
        })
        .unwrap();
    }
}

#[test]
fn exclusive_invocations_serialize_per_object() {
    let c = Cluster::sim(1, 4);
    let span = c
        .run(|ctx| {
            let shared_counter = ctx.create(0u64);
            let t0 = ctx.now();
            let anchors: Vec<_> = (0..4).map(|_| ctx.create(0u8)).collect();
            let hs: Vec<_> = anchors
                .iter()
                .map(|a| {
                    ctx.start(a, move |ctx, _| {
                        ctx.invoke(&shared_counter, |ctx, n| {
                            ctx.work(SimTime::from_ms(5));
                            *n += 1;
                        });
                    })
                })
                .collect();
            for h in hs {
                h.join(ctx);
            }
            let n = ctx.invoke(&shared_counter, |_, n| *n);
            assert_eq!(n, 4);
            ctx.now() - t0
        })
        .unwrap();
    // Four 5 ms exclusive sections on one object: at least 20 ms even with
    // four processors.
    assert!(
        span >= SimTime::from_ms(20),
        "exclusive ops overlapped: {span}"
    );
}

/// Finish times of `k` threads on a 1-node, `k`-processor simulator that
/// each arrive `stagger` apart and invoke one object whose operation
/// charges `work`; returns `(arrival, op start, finish)` per thread, in
/// thread order, relative to the first arrival.
fn contended_invoke_times(k: u64, stagger: SimTime, work: SimTime) -> Vec<[SimTime; 3]> {
    let c = Cluster::sim(1, k as usize);
    c.run(move |ctx| {
        let hot = ctx.create(0u64);
        let anchors: Vec<_> = (0..k).map(|_| ctx.create(0u8)).collect();
        // Far enough out that every worker is started and asleep first.
        let t0 = ctx.now() + SimTime::from_ms(100);
        let hs: Vec<_> = anchors
            .iter()
            .zip(0..k)
            .map(|(a, i)| {
                ctx.start(a, move |ctx, _| {
                    let due = t0 + SimTime::from_ns(stagger.as_ns() * i);
                    ctx.sleep(due - ctx.now());
                    let arrival = ctx.now();
                    let start = ctx.invoke(&hot, |ctx, n| {
                        let start = ctx.now();
                        ctx.work(work);
                        *n += 1;
                        start
                    });
                    [arrival - t0, start - t0, ctx.now() - t0]
                })
            })
            .collect();
        let times = hs.into_iter().map(|h| h.join(ctx)).collect();
        assert_eq!(ctx.invoke(&hot, |_, n| *n), k);
        times
    })
    .unwrap()
}

#[test]
fn contended_invokes_finish_on_the_closed_form() {
    // Pins *where* admission sits relative to the `local_invoke` charge.
    // Every invoker pays the entry charge on arrival, in parallel (one
    // processor each), and only then queues for the payload; so the first
    // starts its op at arrival + local_invoke and each hand-off costs
    // exactly the op's own work: op j starts at local_invoke + j * work.
    // Admitting before the charge would instead put the 8 us on the
    // serialised path of every hand-off (start_j = j * (work + 8 us)) and
    // drift ablate_lock, the SOR edge installs and the barrier probe.
    let cost = CostModel::firefly();
    let (k, work) = (4u64, SimTime::from_ms(1));
    for stagger in [SimTime::ZERO, SimTime::from_us(100)] {
        let mut times = contended_invoke_times(k, stagger, work);
        if stagger.is_zero() {
            // Simultaneous arrivals are admitted in the simulator's
            // (deterministic) run order, not thread order.
            times.sort_by_key(|t| t[1]);
        }
        for (j, [arrival, start, finish]) in (0..k).zip(times) {
            if !stagger.is_zero() {
                assert_eq!(arrival, SimTime::from_ns(stagger.as_ns() * j));
            }
            let want_start = cost.local_invoke + SimTime::from_ns(work.as_ns() * j);
            assert_eq!(start, want_start, "op {j} start, stagger {stagger}");
            assert_eq!(
                finish,
                want_start + work + cost.local_return,
                "op {j} finish, stagger {stagger}"
            );
        }
    }
}

#[test]
fn entry_verdict_racing_a_move_claim_runs_each_op_once() {
    // An invoke decides residency in its entry visit, pays the 8 us
    // `local_invoke` charge, and only then asks for admission. Land a
    // `move_to` claim at every microsecond across that window (and either
    // side of it). Whatever the offset, each invoke either ran on the source
    // (its verdict preceded the claim; the thread is bound and chases the
    // object lazily) or parked on `await-move-install` and ran at the
    // destination. The checkers (lifecycle linter, and the residency
    // invariant every registry visit of the invoke path asserts) judge
    // every interleaving.
    const OPS: u64 = 3;
    let due = SimTime::from_ms(50);
    let (mut saw_local, mut saw_parked, mut claimed_under_charge) = (false, false, false);
    for claim_us in (due.as_us() - 20)..=(due.as_us() + 20) {
        let c = Cluster::sim(2, 2);
        let sink = c.enable_tracing();
        let (addr, first_op_node, count) = c
            .run(move |ctx| {
                let t0 = ctx.now();
                let obj = ctx.create(0u64);
                let anchor = ctx.create(0u8);
                let invoker = ctx.start(&anchor, move |ctx, _| {
                    ctx.sleep(t0 + due - ctx.now());
                    let mut first = None;
                    for _ in 0..OPS {
                        let at = ctx.invoke(&obj, |ctx, n| {
                            *n += 1;
                            ctx.node()
                        });
                        first.get_or_insert(at);
                    }
                    first.expect("OPS > 0")
                });
                ctx.sleep(t0 + SimTime::from_us(claim_us) - ctx.now());
                ctx.move_to(&obj, NodeId(1));
                let first = invoker.join(ctx);
                (obj.addr(), first, ctx.invoke(&obj, |_, n| *n))
            })
            .unwrap();
        assert_eq!(
            count, OPS,
            "claim at {claim_us}us: an op was lost or ran twice"
        );
        let (mut local, mut remote, mut hops) = (0u64, 0u64, 0u64);
        for r in sink.take() {
            match r.event {
                amber_engine::ProtocolEvent::LocalInvoke { obj, .. } if obj == addr.0 => local += 1,
                amber_engine::ProtocolEvent::RemoteInvoke { obj, to, .. } if obj == addr.0 => {
                    assert_eq!(to, NodeId(1), "claim at {claim_us}us");
                    remote += 1;
                }
                amber_engine::ProtocolEvent::ForwardHop { obj, .. } if obj == addr.0 => hops += 1,
                _ => {}
            }
        }
        // The invoker's ops plus main's final read.
        assert_eq!(local + remote, OPS + 1, "claim at {claim_us}us");
        // One move: no chase may follow more than moves + 1 links.
        assert!(
            hops <= 2 * (remote + 1),
            "claim at {claim_us}us: {hops} hops"
        );
        if first_op_node == NodeId(0) {
            saw_local = true;
            // Claimed after the entry visit but before admission.
            claimed_under_charge |= claim_us > due.as_us() && claim_us <= due.as_us() + 8;
        } else {
            saw_parked = true;
            assert!(
                claim_us <= due.as_us(),
                "verdict ignored a claim-free entry"
            );
        }
    }
    assert!(saw_local && saw_parked && claimed_under_charge);
}

#[test]
fn carrying_invocations_charge_payload_bytes() {
    for engine in ENGINES {
        let c = on(engine, msg_counting(2, 1));
        c.run(|ctx| {
            let far = ctx.create_on(NodeId(1), 0u64);
            let anchor = ctx.create(0u8);
            // Warm the location caches so both measured rounds are identical.
            ctx.invoke(&anchor, |ctx, _| ctx.invoke(&far, |_, n| *n += 1));
            let (_, b0) = ctx.net_totals();
            ctx.invoke(&anchor, |ctx, _| ctx.invoke(&far, |_, n| *n += 1));
            let (_, b1) = ctx.net_totals();
            let plain = b1 - b0;
            ctx.invoke(&anchor, |ctx, _| {
                ctx.invoke_carrying(&far, 10_000, |_, n| *n += 1)
            });
            let (_, b2) = ctx.net_totals();
            let carrying = b2 - b1;
            assert_eq!(
                carrying - plain,
                10_000,
                "outbound trip must carry exactly the declared payload"
            );
        })
        .unwrap();
    }
}

#[test]
fn two_threads_on_one_node_keep_their_own_frames_and_carry() {
    // The simulator runs every Amber thread on one OS thread, so the frame
    // stack and the carried bytes must follow the thread, not the OS
    // thread. Two threads on node 0 each sit two invocations deep and
    // interleave at every `work` and at every leg of a two-hop chase
    // (0 -> 1 -> 2) that carries a by-value argument of their own size.
    use amber_engine::{current_thread, with_invocations, ProtocolEvent};

    use crate::invoke::enclosing_frame;
    const ROUNDS: usize = 3;
    const PACKET: usize = 1024;
    fn check(me: Option<amber_engine::ThreadId>, frame: amber_vspace::VAddr) {
        assert_eq!(current_thread(), me);
        assert_eq!(enclosing_frame(), Some(frame), "{me:?}");
        assert_eq!(with_invocations(|c| c.carry_bytes), 0, "{me:?}");
    }
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(3));
        let sink = c.enable_tracing();
        let threads = c
            .run(|ctx| {
                let setups: Vec<_> = [1_000, 2_000]
                    .map(|carry| {
                        let (outer, inner) = (ctx.create(0u8), ctx.create(0u8));
                        let far: Vec<_> = (0..ROUNDS)
                            .map(|_| {
                                let f = ctx.create(0u8);
                                ctx.move_to(&f, NodeId(1));
                                ctx.move_to(&f, NodeId(2));
                                f
                            })
                            .collect();
                        (carry, outer, inner, far)
                    })
                    .into();
                let mut handles = Vec::new();
                for (carry, outer, inner, far) in setups {
                    let h = ctx.start(&outer, move |ctx, _| {
                        let me = current_thread();
                        check(me, outer.addr());
                        ctx.invoke(&inner, |ctx, _| {
                            for f in &far {
                                ctx.work(SimTime::from_us(100));
                                check(me, inner.addr());
                                ctx.invoke_carrying(f, carry, |ctx, _| {
                                    assert_eq!(ctx.node(), NodeId(2));
                                    check(me, f.addr());
                                    ctx.work(SimTime::from_us(100));
                                    check(me, f.addr());
                                });
                                check(me, inner.addr());
                            }
                        });
                        check(me, outer.addr());
                        me
                    });
                    handles.push((h, carry));
                }
                handles
                    .into_iter()
                    .map(|(h, carry)| (h.join(ctx), carry))
                    .collect::<Vec<_>>()
            })
            .unwrap();
        // On the wire: each round, two hops out carrying the thread's own
        // argument and one hop back carrying none.
        let records = sink.take();
        for (me, carry) in threads {
            let sent: Vec<usize> = records
                .iter()
                .filter(|r| r.thread == me)
                .filter_map(|r| match r.event {
                    ProtocolEvent::MessageSend { bytes, .. } if bytes >= PACKET => Some(bytes),
                    _ => None,
                })
                .collect();
            let round = [PACKET + carry, PACKET + carry, PACKET];
            assert_eq!(sent, round.repeat(ROUNDS), "{me:?}");
        }
    }
}

/// Registry visits per operation, counted by the lock checker: every visit
/// is one acquisition of the kernel's one tracked lock, on the OS thread
/// that makes it. A simulated run keeps its Amber threads on the OS thread
/// that called `run`, and a real one gives each its own, so on both the
/// count is the one program thread's. With `hogs`, a thread on each node
/// charges work without end, so the program thread's every charge is
/// contested.
#[cfg(any(feature = "verify", debug_assertions))]
fn visits_per_operation(c: &Cluster, hogs: bool) -> [u64; 5] {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use amber_verify::acquisitions;
    c.run(move |ctx| {
        let stop = Arc::new(AtomicBool::new(false));
        if hogs {
            for node in [NodeId(0), NodeId(1)] {
                let (engine, stop) = (Arc::clone(&ctx.kernel().engine), Arc::clone(&stop));
                let hog = move || {
                    while !stop.load(Ordering::Relaxed) {
                        engine.work(SimTime::from_us(100));
                    }
                };
                ctx.kernel().engine.spawn(node, "hog".into(), Box::new(hog));
            }
            // Both hogs start a burst, and hold their processor from now on.
            ctx.yield_now();
        }
        let before = acquisitions();
        let spare = ctx.create(0u32);
        let create = acquisitions() - before;
        let anchor = ctx.create(0u8);
        let near = ctx.create(0u64);
        let far = ctx.create_on(NodeId(1), 0u64);
        let frozen = ctx.create_on(NodeId(1), 0u64);
        ctx.set_immutable(&frozen);
        let (resident, remote, replicated) = ctx.invoke(&anchor, |ctx, _| {
            // A first round trip leaves fresh hints on both nodes.
            ctx.invoke(&far, |_, n| *n += 1);
            let before = acquisitions();
            ctx.invoke(&near, |_, n| *n += 1);
            let resident = acquisitions() - before;
            let before = acquisitions();
            ctx.invoke(&far, |_, n| *n += 1);
            let remote = acquisitions() - before;
            let before = acquisitions();
            ctx.invoke_shared(&frozen, |_, n| *n);
            (resident, remote, acquisitions() - before)
        });
        let before = acquisitions();
        ctx.destroy(spare);
        let destroy = acquisitions() - before;
        stop.store(true, Ordering::Relaxed);
        [create, resident, remote, replicated, destroy]
    })
    .unwrap()
}

/// Create; a nested resident invoke (entry and admission, exit and
/// re-check); a nested exclusive remote round trip with fresh hints (entry
/// and first hop, arrival and admission, exit with re-check and first hop
/// home, arrival home); a nested shared invoke that copies a remote
/// immutable object here (entry, the install's claim, the holder's read
/// when the request arrives, install, admission, exit and re-check);
/// destroy. A charge between two visits is uncontested here, so each pair
/// it would separate is one visit. `RealEngine`'s `work` is no block
/// point, so its visits merge as an uncontested simulator's do.
#[cfg(any(feature = "verify", debug_assertions))]
#[test]
fn lock_visits_are_pinned() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2));
        assert_eq!(visits_per_operation(&c, false), [1, 2, 4, 6, 1]);
    }
}

/// With every charge contested, no visit merges: admission and the return
/// re-check each take a visit of their own after their charge, and the
/// counts are those of a kernel that never merged.
#[cfg(any(feature = "verify", debug_assertions))]
#[test]
fn contested_charges_keep_separate_visits() {
    let c = Cluster::sim(2, 1);
    assert_eq!(visits_per_operation(&c, true), [1, 4, 6, 7, 1]);
}

/// The registry visits of a nested invoke routed by its object's home
/// node, pinned like `lock_visits_are_pinned`'s: once when the start node's
/// region map misses and the address-space server answers, once when the
/// map hits.
#[cfg(any(feature = "verify", debug_assertions))]
#[test]
fn home_route_visits_are_pinned() {
    use amber_verify::acquisitions;
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2));
        let visits = c
            .run(|ctx| {
                let anchor = ctx.create(0u8);
                let first = ctx.create_on(NodeId(1), 0u64);
                let second = ctx.create_on(NodeId(1), 0u64);
                // There and back: node 1 now forwards to the anchor, so each
                // return trip below is one forward hop, and node 0 has still
                // not learned who owns node 1's region.
                ctx.move_to(&anchor, NodeId(1));
                ctx.move_to(&anchor, NodeId(0));
                ctx.invoke(&anchor, |ctx, _| {
                    // Node 0 holds no descriptor of either object, so each
                    // goes by way of its home: the first asks the server,
                    // the second finds the region the first taught node 0.
                    let before = acquisitions();
                    ctx.invoke(&first, |_, n| *n += 1);
                    let miss = acquisitions() - before;
                    let before = acquisitions();
                    ctx.invoke(&second, |_, n| *n += 1);
                    [miss, acquisitions() - before]
                })
            })
            .unwrap();
        let stats = c.protocol_stats();
        assert_eq!((stats.home_routes, stats.region_lookups), (2, 1));
        // Each: entry and first hop, arrival and admission, exit with
        // re-check and first hop home, arrival home; the miss adds the visit
        // that reads the server's answer and teaches it to node 0's region
        // map.
        assert_eq!(visits, [5, 4]);
    }
}

/// Checked builds keep a net under admission: each payload's borrow word
/// records the loans admission made, and a loan that overlaps an
/// exclusive one panics. The test forces loans past admission, through
/// the accessor admission itself calls, from inside live operations.
#[cfg(any(feature = "verify", debug_assertions))]
#[test]
fn an_overlapping_loan_is_caught() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use crate::kernel::Access;
    for engine in ENGINES {
        let c = on(engine, Cluster::builder());
        c.run(|ctx| {
            let obj = ctx.create(0u64);
            let addr = obj.addr();
            // Lends the payload once more, as admission would; `true` if the
            // borrow word caught an overlap.
            let force = |ctx: &crate::Ctx, access| {
                catch_unwind(AssertUnwindSafe(|| {
                    if let Some(e) = ctx.kernel().objects.lock().map.get(&addr) {
                        e.payload.loan(access, true);
                    }
                }))
                .is_err()
            };
            let give_back = |ctx: &crate::Ctx, access| {
                if let Some(e) = ctx.kernel().objects.lock().map.get(&addr) {
                    e.payload.loan(access, false);
                }
            };
            ctx.invoke(&obj, |ctx, _| {
                assert!(force(ctx, Access::Shared), "a shared loan beside &mut");
                assert!(force(ctx, Access::Exclusive), "two &mut loans");
            });
            ctx.invoke_shared(&obj, |ctx, _| {
                assert!(!force(ctx, Access::Shared), "shared loans stack");
                give_back(ctx, Access::Shared);
                assert!(force(ctx, Access::Exclusive), "a &mut loan beside &");
            });
            // The caught attempts left the word as admission set it.
            ctx.invoke(&obj, |_, n| *n += 1);
        })
        .unwrap();
    }
}
