//! Adaptive placement: the kernel carries out what a placement policy
//! decides — advisory moves and replicas — and declines, with one
//! `AdvisorySkipped` event each, what is unsafe at that instant.

use super::*;
use crate::{PlacementDecision, PlacementPolicy, PlacementSample};
use parking_lot::Mutex;
use std::sync::Arc;

/// Minimal greedy policy for mechanism tests: propose a move to the top
/// caller once it logged `min_calls` in a window. No dominance ratio or
/// cooldown — scoring niceties live in `amber-placement` and have their
/// own tests; here we exercise the kernel mechanism.
struct TestPolicy {
    tick: SimTime,
    min_calls: u64,
}

impl PlacementPolicy for TestPolicy {
    fn tick_interval(&self) -> SimTime {
        self.tick
    }

    fn decide(&mut self, samples: &[PlacementSample]) -> Vec<PlacementDecision> {
        samples
            .iter()
            .filter_map(|s| {
                let (dom, &calls) = s
                    .calls_by_node
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, c)| *c)?;
                if calls >= self.min_calls && NodeId::from(dom) != s.location {
                    Some(PlacementDecision::Move {
                        obj: s.obj,
                        to: NodeId::from(dom),
                    })
                } else {
                    None
                }
            })
            .collect()
    }
}

/// Two nodes under the default (firefly) cost model: a remote invoke
/// costs ~8 ms of virtual time, so a 30 ms tick sees a handful of calls.
fn adaptive_sim(nodes: usize) -> Cluster {
    Cluster::builder()
        .nodes(nodes)
        .processors(2)
        .adaptive_placement(|| TestPolicy {
            tick: SimTime::from_ms(30),
            min_calls: 3,
        })
        .build()
}

#[test]
fn hot_object_migrates_to_its_dominant_caller() {
    let c = adaptive_sim(2);
    let sink = c.enable_tracing();
    c.run(|ctx| {
        let anchor = ctx.create(0u8);
        let hot = ctx.create_on(NodeId(1), 0u64);
        let h = ctx.start(&anchor, move |ctx, _| {
            // Anchored worker: every iteration starts from node 0, so
            // node 0 dominates the hot object's traffic.
            for _ in 0..40 {
                ctx.invoke(&hot, |_, n| *n += 1);
            }
        });
        h.join(ctx);
        assert_eq!(ctx.invoke(&hot, |_, n| *n), 40);
        assert_eq!(
            ctx.try_locate(&hot),
            Ok(NodeId(0)),
            "advisor never moved the hot object to its caller"
        );
    })
    .unwrap();
    let p = c.protocol_stats();
    assert!(p.advisory_moves >= 1, "no advisory move recorded: {p:?}");
    // The move pays off inside the run itself: far fewer migrations
    // than the 2-per-iteration a static placement would take.
    assert!(p.thread_migrations < 60, "stayed remote: {p:?}");
    let events = sink.take();
    assert!(events.iter().any(|r| r.event.name() == "advisory_move"));
    assert_eq!(ProtocolSnapshot::from_events(&events), c.protocol_stats());
}

#[test]
fn pinned_objects_are_skipped_not_moved() {
    let c = adaptive_sim(2);
    c.run(|ctx| {
        let anchor = ctx.create(0u8);
        let hot = ctx.create_on(NodeId(1), 0u64);
        ctx.pin(&hot);
        let h = ctx.start(&anchor, move |ctx, _| {
            for _ in 0..40 {
                ctx.invoke(&hot, |_, n| *n += 1);
            }
        });
        h.join(ctx);
        assert_eq!(ctx.try_locate(&hot), Ok(NodeId(1)), "pinned object moved");
        ctx.unpin(&hot);
    })
    .unwrap();
    let p = c.protocol_stats();
    assert_eq!(p.advisory_moves, 0, "pin ignored: {p:?}");
    assert!(p.advisory_skips >= 1, "pin never consulted: {p:?}");
}

/// Replication-side counterpart of [`TestPolicy`]: propose a replica on
/// every node that logged `min_calls` reads of an immutable object and
/// does not hold one yet. Mutable objects are proposed as replication
/// targets anyway when `propose_mutable` is set, to exercise the
/// kernel's skip path.
struct ReplicatePolicy {
    tick: SimTime,
    min_calls: u64,
    propose_mutable: bool,
}

impl PlacementPolicy for ReplicatePolicy {
    fn tick_interval(&self) -> SimTime {
        self.tick
    }

    fn decide(&mut self, samples: &[PlacementSample]) -> Vec<PlacementDecision> {
        let (min_calls, propose_mutable) = (self.min_calls, self.propose_mutable);
        samples
            .iter()
            .flat_map(move |s| {
                let eligible = s.immutable || propose_mutable;
                s.calls_by_node
                    .iter()
                    .enumerate()
                    .filter(move |&(n, &c)| {
                        eligible
                            && c >= min_calls
                            && NodeId::from(n) != s.location
                            && !s.replicas.contains(&NodeId::from(n))
                    })
                    .map(|(n, _)| PlacementDecision::Replicate {
                        obj: s.obj,
                        to: NodeId::from(n),
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

fn replica_sim(nodes: usize, propose_mutable: bool) -> Cluster {
    Cluster::builder()
        .nodes(nodes)
        .processors(2)
        .demand_replication(false)
        .adaptive_placement(move || ReplicatePolicy {
            tick: SimTime::from_ms(30),
            min_calls: 3,
            propose_mutable,
        })
        .build()
}

#[test]
fn advisor_installs_replicas_on_heavy_reader_nodes() {
    let c = replica_sim(3, false);
    let sink = c.enable_tracing();
    c.run(|ctx| {
        let hot = ctx.create(41u64);
        ctx.set_immutable(&hot);
        let hs: Vec<_> = [NodeId(1), NodeId(2)]
            .into_iter()
            .map(|node| {
                let anchor = ctx.create_on(node, 0u8);
                ctx.start(&anchor, move |ctx, _| {
                    for _ in 0..40 {
                        assert_eq!(ctx.invoke_shared(&hot, |_, v| *v), 41);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join(ctx);
        }
        // The origin keeps the object: replication copies, never moves.
        assert_eq!(ctx.try_locate(&hot), Ok(NodeId(0)));
    })
    .unwrap();
    let p = c.protocol_stats();
    assert!(
        p.advisory_replications >= 1,
        "advisor never replicated: {p:?}"
    );
    assert!(
        p.replications >= p.advisory_replications,
        "every advisory replication is a replication: {p:?}"
    );
    assert_eq!(p.object_moves, 0, "replication must not move: {p:?}");
    // The replicas pay off inside the run: with demand replication off,
    // a static placement would migrate the reader on all 80 reads.
    assert!(p.remote_invokes < 80, "readers stayed remote: {p:?}");
    assert!(p.local_invokes >= 1, "no read was served locally: {p:?}");
    let events = sink.take();
    assert!(events
        .iter()
        .any(|r| r.event.name() == "advisory_replicate"));
    assert_eq!(ProtocolSnapshot::from_events(&events), c.protocol_stats());
}

#[test]
fn an_advised_replica_still_serves_reads_after_idling() {
    // A burst of reads earns node 1 a replica, then the reader goes
    // quiet for twelve ticks while other traffic keeps the placement
    // ticks firing. The replica stays: a later read on node 1 is served
    // where it starts, with no migration to the origin.
    let c = Cluster::builder()
        .nodes(2)
        .processors(2)
        .demand_replication(false)
        .adaptive_placement(|| ReplicatePolicy {
            tick: SimTime::from_ms(10),
            // One read per window earns the replica: at a 10 ms tick a
            // migrating remote read spans most of a window, so a higher
            // bar would never be met inside a single drain.
            min_calls: 1,
            propose_mutable: false,
        })
        .build();
    c.run(|ctx| {
        let hot = ctx.create(5u64);
        ctx.set_immutable(&hot);
        let warm = ctx.create(0u64);
        let anchor = ctx.create_on(NodeId(1), 0u8);
        let h = ctx.start(&anchor, move |ctx, _| {
            for _ in 0..20 {
                assert_eq!(ctx.invoke_shared(&hot, |_, v| *v), 5);
            }
        });
        h.join(ctx);
        assert!(ctx.protocol_stats().advisory_replications >= 1);
        // The replica on node 1 now idles. Ticks are activity-armed, so
        // keep unrelated traffic flowing; the replica's own counters
        // stay at zero.
        for _ in 0..12 {
            ctx.invoke(&warm, |_, v| *v += 1);
            ctx.sleep(SimTime::from_ms(10));
        }
        let h = ctx.start(&anchor, move |ctx, _| {
            let before = ctx.protocol_stats();
            assert_eq!(ctx.invoke_shared(&hot, |_, v| *v), 5);
            let after = ctx.protocol_stats();
            assert_eq!(after.local_invokes, before.local_invokes + 1);
            assert_eq!(after.thread_migrations, before.thread_migrations);
        });
        h.join(ctx);
    })
    .unwrap();
}

#[test]
fn replication_advisories_against_mutable_objects_are_skipped() {
    let c = replica_sim(2, true);
    c.run(|ctx| {
        let anchor = ctx.create_on(NodeId(1), 0u8);
        let hot = ctx.create(0u64); // mutable, lives on node 0
        let h = ctx.start(&anchor, move |ctx, _| {
            for _ in 0..40 {
                ctx.invoke(&hot, |_, n| *n += 1);
            }
        });
        h.join(ctx);
        assert_eq!(ctx.try_locate(&hot), Ok(NodeId(0)));
    })
    .unwrap();
    let p = c.protocol_stats();
    assert_eq!(p.advisory_replications, 0, "mutable replicated: {p:?}");
    assert_eq!(p.replications, 0, "mutable replicated: {p:?}");
    assert!(p.advisory_skips >= 1, "skip not recorded: {p:?}");
}

#[test]
fn without_demand_replication_remote_reads_migrate_instead_of_copying() {
    for engine in ENGINES {
        let b = Cluster::builder().nodes(2).processors(2);
        let c = on(engine, b.demand_replication(false));
        c.run(|ctx| {
            let hot = ctx.create(7u64);
            ctx.set_immutable(&hot);
            let anchor = ctx.create_on(NodeId(1), 0u8);
            let h = ctx.start(&anchor, move |ctx, _| {
                for _ in 0..5 {
                    assert_eq!(ctx.invoke_shared(&hot, |_, v| *v), 7);
                }
            });
            h.join(ctx);
        })
        .unwrap();
        let p = c.protocol_stats();
        assert_eq!(p.replications, 0, "demand replication ran anyway: {p:?}");
        assert!(p.remote_invokes >= 5, "reads did not migrate: {p:?}");
    }
}

#[test]
fn destroy_racing_replication_is_a_typed_halt_not_a_panic() {
    // A MoveTo of an immutable object replicates it; a destroy landing
    // while the replica request is in flight used to panic the whole
    // process ("replication of destroyed object"). Now the transfer
    // re-checks liveness when the holder would serve the copy and the
    // mover halts under the typed protocol-error reason, which the
    // simulator's deadlock detector then reports. The destroy must land
    // inside the request's network flight time, so sweep the (virtual,
    // deterministic) delay until the window is hit.
    let mut hit = false;
    for delay_us in [10u64, 50, 100, 200, 500, 1000, 2000, 5000, 10_000] {
        let c = Cluster::sim(2, 2);
        let result = c.run(move |ctx| {
            let obj = ctx.create(9u64);
            ctx.set_immutable(&obj);
            let anchor = ctx.create_on(NodeId(1), 0u8);
            let h = ctx.start(&anchor, move |ctx, _| {
                // Mover on node 1: the replica request must cross the
                // network to node 0, leaving a window for the destroy.
                ctx.move_to(&obj, NodeId(1));
            });
            ctx.sleep(SimTime::from_us(delay_us));
            ctx.destroy(obj);
            h.join(ctx);
        });
        match result {
            // Destroy won before the mover even looked the object up
            // (caller bug, still a panic) or lost outright (move done).
            Ok(()) => continue,
            Err(e) => {
                let msg = e.to_string();
                if msg.contains("MoveTo on destroyed") {
                    continue;
                }
                assert!(
                    msg.contains("deadlock") && msg.contains("object-destroyed"),
                    "unexpected failure mode at {delay_us}us: {msg}"
                );
                hit = true;
            }
        }
    }
    assert!(hit, "no sweep delay hit the destroy-vs-replication window");
}

#[test]
fn a_replica_install_spanning_a_destroy_and_reuse_installs_nothing() {
    // A MoveTo of an immutable object copies it to the mover's node. If
    // the object is destroyed while the copy is in flight and the home
    // heap hands its block to a fresh mutable object, the install must
    // not land on the newcomer: a `Replica` descriptor for a mutable
    // object makes an exclusive invoke from that node fail as one of an
    // immutable object. Sweep the destroy across the transfer, counted
    // from the moment the mover sets off: the request is in flight for
    // the first ~2.6 ms, the copy's bytes and the install for the next
    // ~6 ms, and from ~8.75 ms on the replica is already there. The
    // only outcomes allowed are a clean run and the mover's typed halt.
    use std::sync::atomic::{AtomicBool, Ordering};
    let mut raced = false;
    for delay_us in (0..=10_000u64).step_by(250) {
        let c = Cluster::sim(2, 2);
        let result = c.run(move |ctx| {
            let obj = ctx.create(9u64);
            ctx.set_immutable(&obj);
            let addr = obj.addr();
            let (anchor, anchor2) = (ctx.create_on(NodeId(1), 0u8), ctx.create_on(NodeId(1), 0u8));
            let started = Arc::new(AtomicBool::new(false));
            let mover = ctx.start(&anchor, {
                let started = Arc::clone(&started);
                move |ctx, _| {
                    started.store(true, Ordering::Relaxed);
                    ctx.move_to(&obj, NodeId(1));
                }
            });
            while !started.load(Ordering::Relaxed) {
                ctx.sleep(SimTime::from_us(10));
            }
            ctx.sleep(SimTime::from_us(delay_us));
            ctx.destroy(obj);
            let fresh = ctx.create(0u64);
            assert_eq!(fresh.addr(), addr, "the heap did not reuse the block");
            // Outlast the transfer, then use the newcomer from node 1.
            ctx.sleep(SimTime::from_ms(20));
            let user = ctx.start(&anchor2, move |ctx, _| {
                let desc = ctx.kernel().objects.lock().tables[1].lookup(addr);
                let replica = Some(amber_vspace::Residency::Replica);
                assert_ne!(desc, replica, "replica of a mutable object");
                ctx.invoke(&fresh, |_, n| *n += 1);
            });
            user.join(ctx);
            mover.join(ctx);
        });
        match result {
            Ok(()) => {}
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("deadlock") && msg.contains("protocol-error: object-destroyed"),
                    "unexpected failure mode at {delay_us}us: {msg}"
                );
                raced = true;
            }
        }
    }
    assert!(
        raced,
        "no sweep delay landed the destroy inside the transfer"
    );
}

/// Proposes exactly what the test scripted, once. The kernel's declines
/// are only reachable through proposals no traffic-driven policy makes
/// (a destroyed address, a non-root, the node the object is already on).
struct ScriptedPolicy(Arc<Mutex<Vec<PlacementDecision>>>);

impl PlacementPolicy for ScriptedPolicy {
    fn tick_interval(&self) -> SimTime {
        SimTime::from_ms(30)
    }

    fn decide(&mut self, _samples: &[PlacementSample]) -> Vec<PlacementDecision> {
        std::mem::take(&mut *self.0.lock())
    }
}

#[test]
fn every_decline_is_one_skip_with_its_reason_and_no_move() {
    fn mv<T: AmberObject>(obj: &crate::ObjRef<T>, to: u16) -> PlacementDecision {
        PlacementDecision::Move {
            obj: obj.addr().raw(),
            to: NodeId(to),
        }
    }
    fn rep<T: AmberObject>(obj: &crate::ObjRef<T>, to: u16) -> PlacementDecision {
        PlacementDecision::Replicate {
            obj: obj.addr().raw(),
            to: NodeId(to),
        }
    }
    // Each row builds its object on node 0 of a 2-node cluster and
    // returns the proposal the kernel must decline with that reason.
    type Setup = fn(&crate::Ctx) -> PlacementDecision;
    let cases: [(&str, Setup); 10] = [
        ("pinned", |ctx| {
            let o = ctx.create(0u64);
            ctx.pin(&o);
            mv(&o, 1)
        }),
        ("already-there", |ctx| mv(&ctx.create(0u64), 0)),
        ("attached", |ctx| {
            let (root, child) = (ctx.create(0u64), ctx.create(0u64));
            ctx.attach(&child, &root);
            mv(&child, 1)
        }),
        ("immutable", |ctx| {
            let o = ctx.create(0u64);
            ctx.set_immutable(&o);
            mv(&o, 1)
        }),
        ("destroyed", |ctx| {
            let o = ctx.create(0u64);
            let d = mv(&o, 1);
            ctx.destroy(o);
            d
        }),
        ("no-such-node", |ctx| mv(&ctx.create(0u64), 7)),
        ("not-immutable", |ctx| rep(&ctx.create(0u64), 1)),
        ("already-there", |ctx| {
            let o = ctx.create(0u64);
            ctx.set_immutable(&o);
            rep(&o, 0)
        }),
        ("destroyed", |ctx| {
            let o = ctx.create(0u64);
            let d = rep(&o, 1);
            ctx.destroy(o);
            d
        }),
        ("no-such-node", |ctx| rep(&ctx.create(0u64), 7)),
    ];
    for (row, (reason, setup)) in cases.into_iter().enumerate() {
        let script = Arc::new(Mutex::new(Vec::new()));
        let c = Cluster::builder()
            .nodes(2)
            .processors(2)
            .adaptive_placement({
                let script = Arc::clone(&script);
                move || ScriptedPolicy(Arc::clone(&script))
            })
            .build();
        let sink = c.enable_tracing();
        c.run({
            let script = Arc::clone(&script);
            move |ctx| {
                // Created first, so it cannot reuse a destroyed row
                // object's address. Its traffic arms the tick and
                // gives it a sample; the sleep outlasts the tick.
                let warm = ctx.create(0u64);
                let proposal = setup(ctx);
                script.lock().push(proposal);
                ctx.invoke(&warm, |_, n| *n += 1);
                ctx.sleep(SimTime::from_ms(60));
            }
        })
        .unwrap();
        let proposal = format!("row {row}, {reason}");
        assert!(script.lock().is_empty(), "never proposed: {proposal}");
        let skips: Vec<_> = sink
            .take()
            .into_iter()
            .filter_map(|r| match r.event {
                amber_engine::ProtocolEvent::AdvisorySkipped { reason, .. } => Some(reason),
                _ => None,
            })
            .collect();
        assert_eq!(skips, [reason], "{proposal}");
        let p = c.protocol_stats();
        assert_eq!(p.advisory_skips, 1, "{proposal}: {p:?}");
        assert_eq!(
            (
                p.object_moves,
                p.replications,
                p.advisory_moves,
                p.advisory_replications
            ),
            (0, 0, 0, 0),
            "a declined proposal acted anyway: {proposal}: {p:?}"
        );
    }
}

#[test]
fn a_pending_tick_keeps_no_engine_alive() {
    // The run's last invocation arms a 10 s tick, still pending when
    // the run ends. The tick names the daemon by its id and holds
    // nothing else, so dropping the cluster frees the engine, and this
    // test holds the last reference to its counters. The real engine's
    // timer thread lets go once it sees the shutdown, so that count is
    // polled.
    use std::time::Instant;
    for engine in ENGINES {
        let b = Cluster::builder()
            .nodes(2)
            .adaptive_placement(|| TestPolicy {
                tick: SimTime::from_secs(10),
                min_calls: u64::MAX,
            });
        let c = on(engine, b);
        let stats = c.net_stats();
        c.run(|ctx| {
            let obj = ctx.create(0u64);
            ctx.invoke(&obj, |_, v| *v += 1);
        })
        .unwrap();
        drop(c);
        let t0 = Instant::now();
        while Arc::strong_count(&stats) > 1 && t0.elapsed() < Duration::from_secs(1) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(Arc::strong_count(&stats), 1, "{engine:?}");
    }
}

#[test]
fn idle_adaptive_cluster_still_detects_deadlock() {
    // The activity-armed tick must not blind the simulator's deadlock
    // detector: once the program wedges and a tick's drain finds no new
    // invocations, the daemon disarms its timer, the event queue
    // drains, and the deadlock is still reported.
    let c = adaptive_sim(2);
    let err = c
        .run(|ctx| {
            let anchor = ctx.create(0u8);
            let anchor2 = ctx.create(0u8);
            let a = ctx.create(0u64);
            let b = ctx.create(0u64);
            let h1 = ctx.start(&anchor, move |ctx, _| {
                ctx.invoke(&a, |ctx, _| {
                    ctx.sleep(SimTime::from_ms(10));
                    ctx.invoke(&b, |_, _| ()); // classic AB-BA
                });
            });
            let h2 = ctx.start(&anchor2, move |ctx, _| {
                ctx.invoke(&b, |ctx, _| {
                    ctx.sleep(SimTime::from_ms(10));
                    ctx.invoke(&a, |_, _| ());
                });
            });
            h1.join(ctx);
            h2.join(ctx);
        })
        .unwrap_err();
    assert!(err.to_string().contains("deadlock"), "{err}");
}
