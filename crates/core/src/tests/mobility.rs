//! Mobility and location: `move_to`, forwarding chains and their
//! compression, home routing, attachment groups, and immutable objects,
//! which a move or a shared read copies instead of moving.

use proptest::prelude::*;

use super::*;
use crate::FaultPlan;

#[test]
fn move_to_relocates_and_leaves_forwarding() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(3));
        c.run(|ctx| {
            let obj = ctx.create(1u8);
            assert_eq!(ctx.locate(&obj), NodeId(0));
            ctx.move_to(&obj, NodeId(2));
            assert_eq!(ctx.locate(&obj), NodeId(2));
            // Invoking from node 0 follows the forwarding address at node 0.
            let at = ctx.invoke(&obj, |ctx, _| ctx.node());
            assert_eq!(at, NodeId(2));
        })
        .unwrap();
        let p = c.protocol_stats();
        assert_eq!(p.object_moves, 1);
        assert!(p.forward_hops >= 1);
    }
}

#[test]
fn forwarding_chain_is_followed_hop_by_hop() {
    // Move an object 0 -> 1 -> 2 -> 3 while the observer at node 0 only has
    // the original hint; its next reference must chase the chain.
    for engine in ENGINES {
        let c = on(engine, msg_counting(4, 1));
        c.run(|ctx| {
            let obj = ctx.create(0i32);
            ctx.invoke(&obj, |_, n| *n += 1); // initialize node-0 descriptor use
            ctx.move_to(&obj, NodeId(1));
            ctx.move_to(&obj, NodeId(2));
            ctx.move_to(&obj, NodeId(3));
            let anchor = ctx.create(0u8); // keeps the prober anchored to node 0
            let before = ctx.protocol_stats().forward_hops;
            let at = ctx.invoke(&anchor, |ctx, _| ctx.invoke(&obj, |ctx, _| ctx.node()));
            assert_eq!(at, NodeId(3));
            let hops = ctx.protocol_stats().forward_hops - before;
            assert!(hops >= 2, "expected a multi-hop chase, saw {hops}");
            // The chase cached a fresher hint: a second reference goes
            // direct, one migration out and one back to the anchor.
            let before = ctx.protocol_stats().thread_migrations;
            ctx.invoke(&anchor, |ctx, _| ctx.invoke(&obj, |_, _| ()));
            let migrations = ctx.protocol_stats().thread_migrations - before;
            assert_eq!(migrations, 2, "cached location should be one hop each way");
        })
        .unwrap();
    }
}

#[test]
fn locate_probes_do_not_move_the_thread() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(3));
        c.run(|ctx| {
            let obj = ctx.create(0u8);
            ctx.move_to(&obj, NodeId(2));
            let before = ctx.protocol_stats().thread_migrations;
            let loc = ctx.locate(&obj);
            assert_eq!(loc, NodeId(2));
            assert_eq!(ctx.node(), NodeId(0));
            assert_eq!(ctx.protocol_stats().thread_migrations, before);
        })
        .unwrap();
    }
}

#[test]
fn uninitialized_descriptor_routes_via_home_node() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(3));
        c.run(|ctx| {
            // Created on node 1 (home = 1), then moved to node 2. A thread on
            // node 0 has no descriptor: it must route via home node 1.
            let obj = ctx.create_on(NodeId(1), 5u64);
            ctx.move_to(&obj, NodeId(2));
            let h = ctx.start(&obj, |ctx, n| {
                assert_eq!(ctx.node(), NodeId(2));
                *n
            });
            assert_eq!(h.join(ctx), 5);
        })
        .unwrap();
        assert!(c.protocol_stats().home_routes >= 1);
    }
}

#[test]
fn hint_repairs_shorten_chains_monotonically() {
    // A rival attachment group sweeps across the cluster, leaving a
    // full-length forwarding chain behind it. Repeated locates from the
    // trailing node must get monotonically cheaper: the first walk pays
    // every link, the compressed descriptors answer the rest in at most one
    // hop.
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(6).processors(2));
        c.run(|ctx| {
            let head = ctx.create_on(NodeId(0), 0u64);
            let tail = ctx.create_on(NodeId(0), 0u32);
            ctx.attach(&tail, &head);
            for k in 1..6 {
                ctx.move_to(&head, NodeId(k));
            }
            let mut hops = Vec::new();
            for _ in 0..3 {
                let before = ctx.protocol_stats().forward_hops;
                assert_eq!(ctx.locate(&head), NodeId(5));
                hops.push(ctx.protocol_stats().forward_hops - before);
            }
            assert_eq!(hops[0], 5, "first locate must walk the whole chain");
            assert!(
                hops.windows(2).all(|w| w[1] <= w[0]),
                "chain length grew between locates: {hops:?}"
            );
            assert!(hops[2] <= 1, "compression left a long chain: {hops:?}");
        })
        .unwrap();
    }
}

#[test]
fn bound_thread_chases_moved_object() {
    let c = Cluster::sim(2, 2);
    c.run(|ctx| {
        let obj = ctx.create(Grid {
            cells: vec![0.0; 4],
        });
        // A worker gets *inside* obj, then parks mid-operation. While it is
        // parked we move the object; on wake-up the worker's residency
        // re-check must carry it to the object's new node.
        let worker = ctx.start(&obj, |ctx, _| {
            ctx.park("mid-op");
            ctx.node()
        });
        ctx.sleep(SimTime::from_ms(100)); // let the worker get inside and park
        ctx.move_to(&obj, NodeId(1));
        ctx.unpark(worker.thread_id());
        let woke_at = worker.join(ctx);
        assert_eq!(woke_at, NodeId(1), "bound thread did not chase its object");
    })
    .unwrap();
}

#[test]
fn locate_parks_while_a_move_is_in_flight() {
    // Regression: `locate` used to ignore the `moving` flag and probe
    // descriptors mid-transfer. A probe issued from the destination node
    // during the move ping-ponged between the forwarding source and the
    // not-yet-installed destination, burning a forwarding hop per bounce
    // until the transfer landed. It must park on `move_waiters` instead and
    // answer with zero protocol noise once the move installs.
    let c = Cluster::sim(2, 1);
    let (located, hops, homes) = c
        .run(|ctx| {
            // ~1 MB payload: the bulk transfer occupies ~800 ms of virtual
            // wire time, a wide window for the mid-move probe.
            let obj = ctx.create(Grid {
                cells: vec![0.0; 125_000],
            });
            let anchor = ctx.create_on(NodeId(1), 0u8);
            let prober = ctx.start(&anchor, move |ctx, _| {
                ctx.sleep(SimTime::from_ms(10));
                let before = ctx.protocol_stats();
                let at = ctx.locate(&obj);
                let after = ctx.protocol_stats();
                (
                    at,
                    after.forward_hops - before.forward_hops,
                    after.home_routes - before.home_routes,
                )
            });
            ctx.move_to(&obj, NodeId(1));
            prober.join(ctx)
        })
        .unwrap();
    assert_eq!(located, NodeId(1), "locate answered a stale location");
    // A parked locate wakes after the install and finds the object resident
    // on its own node: at most one orientation step, not a bounce per
    // in-flight transfer round trip.
    assert!(
        hops <= 1,
        "mid-move locate chased descriptors instead of parking ({hops} hops)"
    );
    assert!(homes <= 1, "{homes} home routes during a parked locate");
}

#[test]
fn diverging_chase_gives_up_with_an_error() {
    // Corrupt two descriptor tables into a forwarding cycle that never
    // reaches the object's true node: the chase must give up at the hop
    // bound with a typed error and a ChaseDiverged trace event, not abort
    // the process.
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(3));
        let sink = c.enable_tracing();
        c.run(|ctx| {
            let obj = ctx.create_on(NodeId(2), 0u64);
            let addr = ctx.addr_of(&obj);
            {
                let mut objects = ctx.kernel().objects.lock();
                objects.tables[0].cache_hint(addr, NodeId(1));
                objects.tables[1].cache_hint(addr, NodeId(0));
            }
            match ctx.try_locate(&obj) {
                Err(crate::ProtocolError::ChaseDiverged { addr: a, hops }) => {
                    assert_eq!(a, addr);
                    assert!(hops >= 10_000, "gave up early at {hops} hops");
                }
                other => panic!("expected ChaseDiverged, got {other:?}"),
            }
        })
        .unwrap();
        let p = c.protocol_stats();
        assert_eq!(p.chase_divergences, 1);
        let events = sink.take();
        assert!(
            events.iter().any(|r| r.event.name() == "chase_diverged"),
            "no chase_diverged event in the trace"
        );
    }
}

#[test]
fn a_self_forwarding_descriptor_is_a_typed_error() {
    // Location and descriptors commit together, so no legitimate state has
    // a descriptor forwarding to its own node. A corrupt one gives up with
    // a typed error at the first step: no hop, no migration from the node
    // to itself, and the op never runs.
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(3));
        c.run(|ctx| {
            let obj = ctx.create_on(NodeId(2), 0u64);
            let addr = ctx.addr_of(&obj);
            ctx.kernel().objects.lock().tables[0].set_forward(addr, NodeId(0));
            let diverged = |e: Option<crate::ProtocolError>| match e {
                Some(crate::ProtocolError::ChaseDiverged { addr: a, hops: 0 }) => {
                    assert_eq!(a, addr)
                }
                other => panic!("expected ChaseDiverged at the first step, got {other:?}"),
            };
            let mut ran = false;
            diverged(ctx.try_invoke(&obj, |_, _| ran = true).err());
            assert!(!ran, "the op ran behind a corrupt descriptor");
            assert_eq!(ctx.node(), NodeId(0));
            diverged(ctx.try_locate(&obj).err());
        })
        .unwrap();
        let p = c.protocol_stats();
        assert_eq!(p.chase_divergences, 2);
        assert_eq!((p.thread_migrations, p.forward_hops), (0, 0));
    }
}

#[test]
fn move_of_empty_group_roundtrip_preserves_payload() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(3));
        c.run(|ctx| {
            let v = ctx.create(vec![1u8, 2, 3, 4, 5]);
            for hop in [1u16, 2, 0, 2, 1] {
                ctx.move_to(&v, NodeId(hop));
            }
            let sum = ctx.invoke_shared(&v, |_, x| x.iter().map(|b| *b as u32).sum::<u32>());
            assert_eq!(sum, 15);
        })
        .unwrap();
    }
}

#[test]
fn move_to_current_location_is_free() {
    let c = Cluster::sim(2, 1);
    c.run(|ctx| {
        let v = ctx.create(7u8);
        let (m0, _) = ctx.net_totals();
        let t0 = ctx.now();
        ctx.move_to(&v, NodeId(0));
        assert_eq!(ctx.now(), t0, "no-op move must not take time");
        assert_eq!(ctx.net_totals().0, m0, "no-op move must not message");
    })
    .unwrap();
}

#[test]
fn thread_objects_are_mobile() {
    // Join is an invocation on the thread object: moving the thread object
    // moves where joiners rendezvous.
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2).processors(2));
        c.run(|ctx| {
            let target = ctx.create(0u64);
            let h = ctx.start(&target, |ctx, _| {
                ctx.sleep(SimTime::from_ms(50));
                123u64
            });
            ctx.move_to(&h.object(), NodeId(1));
            assert_eq!(ctx.locate(&h.object()), NodeId(1));
            assert_eq!(h.join(ctx), 123);
        })
        .unwrap();
    }
}

#[test]
fn attach_colocates_and_moves_group() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(3));
        c.run(|ctx| {
            let parent = ctx.create(Grid {
                cells: vec![0.0; 64],
            });
            let child = ctx.create_on(NodeId(1), 1u8);
            ctx.attach(&child, &parent);
            // Attachment co-locates immediately.
            assert_eq!(ctx.locate(&child), NodeId(0));
            // Moving the parent takes the child along.
            ctx.move_to(&parent, NodeId(2));
            assert_eq!(ctx.locate(&parent), NodeId(2));
            assert_eq!(ctx.locate(&child), NodeId(2));
            // Unattach: the child now stays put.
            ctx.unattach(&child);
            ctx.move_to(&parent, NodeId(1));
            assert_eq!(ctx.locate(&parent), NodeId(1));
            assert_eq!(ctx.locate(&child), NodeId(2));
        })
        .unwrap();
    }
}

#[test]
fn attachment_cycles_are_rejected() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder());
        let err = c
            .run(|ctx| {
                let a = ctx.create(0u8);
                let b = ctx.create(0u8);
                ctx.attach(&a, &b);
                ctx.attach(&b, &a);
            })
            .unwrap_err();
        assert!(err.to_string().contains("attachment cycle"), "{err}");
    }
}

#[test]
fn unattach_requires_attachment() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder());
        let err = c
            .run(|ctx| {
                let a = ctx.create(0u8);
                ctx.unattach(&a);
            })
            .unwrap_err();
        assert!(err.to_string().contains("not attached"), "{err}");
    }
}

#[test]
fn moving_an_attached_child_is_rejected() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2));
        let err = c
            .run(|ctx| {
                let parent = ctx.create(0u8);
                let child = ctx.create(0u8);
                ctx.attach(&child, &parent);
                ctx.move_to(&child, NodeId(1));
            })
            .unwrap_err();
        assert!(err.to_string().contains("attachment root"), "{err}");
    }
}

#[test]
fn attach_never_exposes_the_child_as_detached() {
    // Regression: `attach` used to lift `attached_to` around its
    // co-location move so the public `move_to` root assertion passed. A
    // concurrent move of the parent computed its attachment group inside
    // that window, moved the parent WITHOUT the child, and the attach then
    // completed against the parent's stale location — leaving an attached
    // child stranded on another node.
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(4));
        c.run(|ctx| {
            let parent = ctx.create_on(NodeId(1), 0u32);
            // ~100 KB child: its co-location transfer is slow enough that
            // the parent's move lands inside it on the simulator.
            let child = ctx.create_on(
                NodeId(2),
                Grid {
                    cells: vec![0.0; 12_500],
                },
            );
            let attacher_seat = ctx.create_on(NodeId(2), 0u8);
            let mover_seat = ctx.create_on(NodeId(3), 0u8);
            let attacher = ctx.start(&attacher_seat, move |ctx, _| {
                ctx.attach(&child, &parent);
            });
            let mover = ctx.start(&mover_seat, move |ctx, _| {
                // Let the attachment register first, then move the parent
                // while the child's co-location transfer is still in flight.
                ctx.sleep(SimTime::from_ms(1));
                ctx.move_to(&parent, NodeId(3));
            });
            attacher.join(ctx);
            mover.join(ctx);
            let p_at = ctx.locate(&parent);
            let c_at = ctx.locate(&child);
            assert_eq!(
                c_at, p_at,
                "attached child stranded: parent at {p_at}, child at {c_at}"
            );
            // The attachment itself must have survived both moves intact: a
            // further parent move still drags the child.
            ctx.move_to(&parent, NodeId(0));
            assert_eq!(ctx.locate(&child), NodeId(0));
        })
        .unwrap();
    }
}

proptest! {
    // Two runs per case, one of them on real threads: keep the count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random attachment forests moved concurrently by one mover per root
    /// never deadlock (a group's walk and claim take the registry lock
    /// once, and no mover holds it while parked), and every member ends up
    /// co-located with its root.
    #[test]
    fn random_attach_forests_move_without_deadlock(
        parents in proptest::collection::vec(0usize..8, 2..9),
        dests in proptest::collection::vec(0u16..4, 2..5),
    ) {
        for engine in ENGINES {
            let c = on(engine, Cluster::builder().nodes(4).processors(2));
            let (parents, dests) = (parents.clone(), dests.clone());
            c.run(move |ctx| {
                // A random forest: each object after the first attaches to a
                // uniformly chosen *earlier* object (acyclic by construction)
                // or stays a root of its own.
                let n = parents.len() + 1;
                let objs: Vec<_> = (0..n)
                    .map(|i| ctx.create_on(NodeId((i % 4) as u16), i as u64))
                    .collect();
                let mut parent_of = vec![usize::MAX; n];
                for (i, p) in parents.iter().enumerate() {
                    let child = i + 1;
                    if *p < child {
                        ctx.attach(&objs[child], &objs[*p]);
                        parent_of[child] = *p;
                    }
                }
                let roots: Vec<usize> =
                    (0..n).filter(|i| parent_of[*i] == usize::MAX).collect();
                let movers: Vec<_> = roots
                    .iter()
                    .map(|r| {
                        let root = objs[*r];
                        let dests = dests.clone();
                        let seat = ctx.create_on(NodeId((*r % 4) as u16), 0u8);
                        ctx.start(&seat, move |ctx, _| {
                            for d in dests {
                                ctx.move_to(&root, NodeId(d));
                            }
                        })
                    })
                    .collect();
                for m in movers {
                    m.join(ctx);
                }
                // Once the movers settle, every member sits with its root.
                for i in 0..n {
                    let mut r = i;
                    while parent_of[r] != usize::MAX {
                        r = parent_of[r];
                    }
                    assert_eq!(
                        ctx.locate(&objs[i]),
                        ctx.locate(&objs[r]),
                        "group member strayed from its root"
                    );
                }
            })
            .unwrap();
        }
    }
}

#[test]
fn thousand_object_attachment_group_moves_as_one() {
    // A wide attachment group (root + 999 children) must resolve and move
    // as a unit, and the whole group transfer counts as one object move.
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2));
        c.run(|ctx| {
            let root = ctx.create(0u64);
            let children: Vec<_> = (0..999).map(|i| ctx.create(i as u32)).collect();
            for ch in &children {
                ctx.attach(ch, &root);
            }
            ctx.move_to(&root, NodeId(1));
            assert_eq!(ctx.locate(&root), NodeId(1));
            for ch in children.iter().step_by(97) {
                assert_eq!(ctx.locate(ch), NodeId(1), "child strayed from group");
            }
            assert_eq!(ctx.locate(&children[998]), NodeId(1));
        })
        .unwrap();
        assert_eq!(
            c.protocol_stats().object_moves,
            1,
            "a group move is one move"
        );
    }
}

#[test]
fn immutable_move_copies_instead_of_moving() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2));
        c.run(|ctx| {
            let table = ctx.create(vec![1u32, 2, 3]);
            ctx.set_immutable(&table);
            assert!(ctx.is_immutable(&table));
            ctx.move_to(&table, NodeId(1));
            // Both nodes now answer shared invocations locally.
            let sum_here = ctx.invoke_shared(&table, |_, t| t.iter().sum::<u32>());
            assert_eq!(sum_here, 6);
            assert_eq!(ctx.node(), NodeId(0));
        })
        .unwrap();
        let p = c.protocol_stats();
        assert_eq!(
            p.object_moves, 0,
            "immutable MoveTo must not count as a move"
        );
        assert!(p.replications >= 1);
    }
}

#[test]
fn immutable_shared_reads_replicate_once_then_are_local() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2));
        c.run(|ctx| {
            let table = ctx.create_on(NodeId(1), vec![10u64; 100]);
            ctx.set_immutable(&table);
            let before = ctx.protocol_stats();
            let s1 = ctx.invoke_shared(&table, |_, t| t.len());
            let mid = ctx.protocol_stats();
            let s2 = ctx.invoke_shared(&table, |_, t| t.len());
            let after = ctx.protocol_stats();
            assert_eq!((s1, s2), (100, 100));
            assert_eq!(mid.replications - before.replications, 1);
            assert_eq!(after.replications - mid.replications, 0);
            // Neither read migrated the thread.
            assert_eq!(after.thread_migrations, before.thread_migrations);
        })
        .unwrap();
    }
}

#[test]
fn mutating_an_immutable_object_is_an_error() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder());
        let err = c
            .run(|ctx| {
                let x = ctx.create(1u8);
                ctx.set_immutable(&x);
                ctx.invoke(&x, |_, v| *v = 2);
            })
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("exclusive invocation of immutable object"),
            "{err}"
        );
    }
}

#[test]
fn immutability_check_is_queryable() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder());
        c.run(|ctx| {
            let x = ctx.create(5u8);
            assert!(!ctx.is_immutable(&x));
            ctx.set_immutable(&x);
            assert!(ctx.is_immutable(&x));
        })
        .unwrap();
    }
}

/// Runs one placement-heavy program over a network losing 5% of its
/// messages and returns every observable value it produced, reconciling the
/// traced messages against the engine's count on the way out.
fn observable_run(engine: EngineChoice, moves: &[usize], reads: usize, seed: u64) -> Vec<u64> {
    let faults = FaultPlan::seeded(seed).drop_rate(0.05);
    let c = on(
        engine,
        Cluster::builder().nodes(4).processors(2).faults(faults),
    );
    let sink = c.enable_tracing();
    let moves = moves.to_vec();
    let out = c
        .run(move |ctx| {
            let rover = ctx.create_on(NodeId(0), 0u64);
            let counter = ctx.create_on(NodeId(1), 0u64);
            let mut out = Vec::new();
            for (i, &m) in moves.iter().enumerate() {
                ctx.move_to(&rover, NodeId::from(m));
                if i % 2 == 0 {
                    out.push(ctx.locate(&rover).index() as u64);
                }
                out.push(
                    ctx.try_invoke(&counter, |_, v| {
                        *v += 1;
                        *v
                    })
                    .unwrap(),
                );
            }
            for _ in 0..reads {
                out.push(ctx.invoke(&rover, |_, v| {
                    *v += 1;
                    *v
                }));
            }
            out
        })
        .unwrap();
    assert_eq!(
        ProtocolSnapshot::from_events(&sink.take()),
        c.protocol_stats()
    );
    out
}

/// What [`observable_run`] must return, worked out with no cluster at all:
/// the program is sequential, so each `locate` names the last `move_to`
/// target, the counter reads 1, 2, 3, … and so do the rover's invocations.
fn sequential_model(moves: &[usize], reads: usize) -> Vec<u64> {
    let mut out = Vec::new();
    for (i, &m) in moves.iter().enumerate() {
        if i % 2 == 0 {
            out.push(m as u64);
        }
        out.push(i as u64 + 1);
    }
    out.extend(1..=reads as u64);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The observable values equal the sequential model's over a lossy
    /// network: path compression, replica-first resolution and
    /// retransmission are invisible to the program.
    #[test]
    fn observable_values_match_model_under_loss(
        moves in proptest::collection::vec(0usize..4, 1..10),
        reads in 0usize..4,
        seed in 0u64..1 << 48,
    ) {
        for engine in ENGINES {
            prop_assert_eq!(
                observable_run(engine, &moves, reads, seed),
                sequential_model(&moves, reads)
            );
        }
    }
}
