//! Real-threaded engine integration: the same programs that run under the
//! simulator execute on genuine OS-thread concurrency, with real (sleeping)
//! network delays. These tests keep latencies small so the suite stays
//! fast; they are about concurrency soundness, not timing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use amber_apps::sor::{run_amber_sor_on, sor_sequential, SorParams};
use amber_core::{Cluster, EngineChoice, FaultPlan, LatencyModel, NodeId, SimTime};
use amber_sync::{Barrier, Lock, Monitor, SpinLock};

fn real_cluster(nodes: usize, procs: usize) -> Cluster {
    Cluster::builder()
        .nodes(nodes)
        .processors(procs)
        .engine(EngineChoice::Real)
        .latency(LatencyModel::fixed(SimTime::from_us(300)))
        .deadline(Duration::from_secs(60))
        .build()
}

#[test]
fn objects_threads_and_mobility_under_real_concurrency() {
    let c = real_cluster(3, 2);
    let total = c
        .run(|ctx| {
            let counter = ctx.create(0u64);
            let hs: Vec<_> = (0..6u16)
                .map(|i| {
                    let a = ctx.create_on(NodeId(i % 3), 0u8);
                    ctx.start(&a, move |ctx, _| {
                        for _ in 0..20 {
                            ctx.invoke(&counter, |_, n| *n += 1);
                        }
                    })
                })
                .collect();
            // Move the contended object around while the storm runs.
            for r in 0..3u16 {
                ctx.move_to(&counter, NodeId(r));
            }
            for h in hs {
                h.join(ctx);
            }
            ctx.invoke(&counter, |_, n| *n)
        })
        .unwrap();
    assert_eq!(total, 120);
}

#[test]
fn locks_exclude_on_real_threads() {
    let c = real_cluster(2, 2);
    let (total, violations) = c
        .run(|ctx| {
            let lock = Lock::new(ctx);
            let state = ctx.create((0u64, 0u64)); // (counter, violations)
            let in_cs = ctx.create(false);
            let hs: Vec<_> = (0..4u16)
                .map(|i| {
                    let a = ctx.create_on(NodeId(i % 2), 0u8);
                    ctx.start(&a, move |ctx, _| {
                        for _ in 0..10 {
                            lock.acquire(ctx);
                            let busy = ctx.invoke(&in_cs, |_, b| std::mem::replace(b, true));
                            if busy {
                                ctx.invoke(&state, |_, s| s.1 += 1);
                            }
                            ctx.invoke(&state, |_, s| s.0 += 1);
                            ctx.invoke(&in_cs, |_, b| *b = false);
                            lock.release(ctx);
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join(ctx);
            }
            ctx.invoke(&state, |_, s| *s)
        })
        .unwrap();
    assert_eq!(total, 40);
    assert_eq!(violations, 0, "mutual exclusion violated on real threads");
}

#[test]
fn barrier_rendezvous_on_real_threads() {
    let c = real_cluster(2, 2);
    c.run(|ctx| {
        let bar = Barrier::new(ctx, 4);
        let arrived = ctx.create(0usize);
        let hs: Vec<_> = (0..4u16)
            .map(|i| {
                let a = ctx.create_on(NodeId(i % 2), 0u8);
                ctx.start(&a, move |ctx, _| {
                    for _ in 0..3 {
                        ctx.invoke(&arrived, |_, n| *n += 1);
                        bar.wait(ctx);
                        let n = ctx.invoke_shared(&arrived, |_, n| *n);
                        assert!(n % 4 == 0 || n >= 4, "released early at {n}");
                        bar.wait(ctx);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join(ctx);
        }
    })
    .unwrap();
}

#[test]
fn monitor_queue_and_spin_counter_on_real_threads() {
    // The two kinds that otherwise run only under the simulator. A producer
    // on node 0 hands items through a Monitor/CondVar queue to a consumer on
    // each of nodes 1 and 2; every item taken also bumps a counter whose
    // read and write are separate invocations, so only the SpinLock around
    // them keeps the count exact.
    const ITEMS: u64 = 30;
    let c = real_cluster(3, 2);
    let (taken, bumps) = c
        .run(|ctx| {
            let mon = Monitor::new(ctx);
            let not_empty = mon.condition(ctx);
            let queue = ctx.create(Vec::<Option<u64>>::new());
            let spin = SpinLock::new(ctx);
            let bumps = ctx.create(0u64);

            let consumers: Vec<_> = (1..3u16)
                .map(|n| {
                    let a = ctx.create_on(NodeId(n), 0u8);
                    ctx.start(&a, move |ctx, _| {
                        let (mut count, mut sum) = (0u64, 0u64);
                        loop {
                            mon.enter(ctx);
                            while ctx.invoke_shared(&queue, |_, q| q.is_empty()) {
                                not_empty.wait(ctx);
                            }
                            let item = ctx.invoke(&queue, |_, q| q.remove(0));
                            mon.exit(ctx);
                            let Some(v) = item else {
                                return (count, sum);
                            };
                            count += 1;
                            sum += v;
                            spin.with(ctx, |ctx| {
                                let seen = ctx.invoke_shared(&bumps, |_, b| *b);
                                ctx.invoke(&bumps, move |_, b| *b = seen + 1);
                            });
                        }
                    })
                })
                .collect();
            // The items, then one end marker a consumer.
            for item in (1..=ITEMS).map(Some).chain([None, None]) {
                mon.with(ctx, |ctx| {
                    ctx.invoke(&queue, move |_, q| q.push(item));
                    not_empty.signal(ctx);
                });
            }
            let taken: Vec<_> = consumers.into_iter().map(|h| h.join(ctx)).collect();

            // Every processor is back in its node's pool: two threads can
            // each hold one of a node's two at the same instant. A token
            // lost to a block/unblock cycle above would leave the second
            // thread waiting for it until the deadline.
            for n in 0..3u16 {
                let running = Arc::new(AtomicUsize::new(0));
                let pair: Vec<_> = (0..2)
                    .map(|_| {
                        let a = ctx.create_on(NodeId(n), 0u8);
                        let running = Arc::clone(&running);
                        ctx.start(&a, move |_, _| {
                            running.fetch_add(1, Ordering::SeqCst);
                            while running.load(Ordering::SeqCst) < 2 {
                                std::thread::yield_now();
                            }
                        })
                    })
                    .collect();
                for h in pair {
                    h.join(ctx);
                }
            }
            (taken, ctx.invoke(&bumps, |_, b| *b))
        })
        .unwrap();
    let (count, sum) = taken
        .iter()
        .fold((0, 0), |(c, s), (count, sum)| (c + count, s + sum));
    assert_eq!(count, ITEMS);
    assert_eq!(sum, ITEMS * (ITEMS + 1) / 2);
    assert_eq!(bumps, ITEMS, "the spin lock let an update be lost");
}

#[test]
fn timeout_fires_on_a_hung_program() {
    let c = Cluster::builder()
        .nodes(1)
        .processors(2)
        .engine(EngineChoice::Real)
        .latency(LatencyModel::zero())
        .deadline(Duration::from_millis(200))
        .build();
    let err = c.run(|ctx| ctx.park("never-woken")).unwrap_err();
    assert_eq!(err, amber_core::EngineError::Timeout);
}

#[test]
fn remote_invokes_complete_over_a_lossy_link_on_real_threads() {
    // The runtime under a fault plan on OS threads (the engine's own tests
    // drive bare legs through one): retransmission timers here are
    // wall-clock, not virtual. A worker on each node invokes the other
    // node's counter 20 times over a link dropping 5% of attempts; every
    // invoke must run exactly once, well inside the deadline.
    let c = Cluster::builder()
        .nodes(2)
        .processors(2)
        .engine(EngineChoice::Real)
        .latency(LatencyModel::zero())
        .deadline(Duration::from_secs(60))
        .faults(FaultPlan::seeded(0x10556).drop_rate(0.05))
        .build();
    let counts = c
        .run(|ctx| {
            let work: Vec<_> = (0..2u16)
                .map(|k| {
                    (
                        ctx.create_on(NodeId(k), 0u8),
                        ctx.create_on(NodeId(k), 0u64),
                    )
                })
                .collect();
            let hs: Vec<_> = (0..2)
                .map(|k| {
                    let (anchor, peer) = (work[k].0, work[1 - k].1);
                    ctx.start(&anchor, move |ctx, _| {
                        for _ in 0..20 {
                            ctx.invoke(&peer, |_, n| *n += 1);
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join(ctx);
            }
            [work[0].1, work[1].1].map(|counter| ctx.invoke(&counter, |_, n| *n))
        })
        .unwrap();
    assert_eq!(counts, [20, 20]);
    assert!(c.protocol_stats().remote_invokes >= 40);
    let net = c.net_stats();
    assert!(net.total_drops() > 0, "the plan dropped nothing");
    assert!(net.total_retransmits() >= net.total_drops());
}

#[test]
fn destroyed_references_error_on_real_threads() {
    // A full invoke of a destroyed object halts the thread under a
    // protocol-error label, which on the real engine surfaces as the run
    // deadline expiring rather than a process abort. (`try_locate`'s typed
    // error is core's `locating_a_destroyed_object_is_a_typed_error`, which
    // runs on both engines.)
    let c = Cluster::builder()
        .nodes(1)
        .processors(2)
        .engine(EngineChoice::Real)
        .latency(LatencyModel::zero())
        .deadline(Duration::from_millis(300))
        .build();
    let err = c
        .run(|ctx| {
            let a = ctx.create(5u32);
            ctx.destroy(a);
            ctx.invoke(&a, |_, _| ());
        })
        .unwrap_err();
    assert_eq!(err, amber_core::EngineError::Timeout);
}

#[test]
fn destroy_races_are_typed_errors_on_real_threads() {
    // Genuine OS-thread concurrency: destroyers race invokers and each
    // other across the cluster. Every outcome must be a typed result —
    // `Ok`, `ObjectDestroyed`, or `ObjectBusy` — never a process abort,
    // and exactly one destroyer wins each object.
    let c = real_cluster(2, 2);
    let (wins, total) = c
        .run(|ctx| {
            let mut wins = 0usize;
            let mut total = 0usize;
            for round in 0..8u64 {
                let target = ctx.create_on(NodeId((round % 2) as u16), round);
                let anchor = ctx.create_on(NodeId(1), 0u8);
                let invoker = ctx.start(&anchor, move |ctx, _| {
                    // Races the destroy below; either it ran first or it
                    // observed the typed error.
                    match ctx.try_invoke(&target, |_, n| *n += 1) {
                        Ok(()) => true,
                        Err(amber_core::ProtocolError::ObjectDestroyed(_)) => false,
                        Err(e) => panic!("unexpected invoke error: {e}"),
                    }
                });
                let other = ctx.create_on(NodeId(1), 0u8);
                let destroyer = ctx.start(&other, move |ctx, _| {
                    matches!(ctx.try_destroy(target), Ok(()))
                });
                let mine = loop {
                    // Busy just means the invoker held the object at that
                    // instant; retry until the race resolves.
                    match ctx.try_destroy(target) {
                        Ok(()) => break true,
                        Err(amber_core::ProtocolError::ObjectDestroyed(_)) => break false,
                        Err(amber_core::ProtocolError::ObjectBusy(_)) => continue,
                        Err(e) => panic!("unexpected destroy error: {e}"),
                    }
                };
                invoker.join(ctx);
                let theirs = destroyer.join(ctx);
                assert!(
                    mine ^ theirs,
                    "round {round}: exactly one destroyer must win"
                );
                wins += usize::from(mine);
                total += 1;
            }
            (wins, total)
        })
        .unwrap();
    assert_eq!(total, 8);
    assert!(wins <= total);
}

#[test]
fn adaptive_placement_localizes_skewed_traffic_on_real_threads() {
    use amber_placement::adaptive::{AdaptiveConfig, TrafficAdvisor};

    let c = Cluster::builder()
        .nodes(2)
        .processors(2)
        .engine(EngineChoice::Real)
        .latency(LatencyModel::zero())
        .deadline(Duration::from_secs(60))
        .adaptive_placement(|| {
            TrafficAdvisor::new(AdaptiveConfig {
                tick: SimTime::from_ms(1),
                min_calls: 8,
            })
        })
        .build();
    c.run(|ctx| {
        let anchor = ctx.create(0u8); // node 0
        let hot = ctx.create_on(NodeId(1), 0u64);
        let h = ctx.start(&anchor, move |ctx, _| {
            // The advisor ticks on the wall clock and a remote invoke takes
            // under a microsecond, so a fixed number of calls is a sleep of
            // unknown length (3000 of them end inside the second tick).
            // Keep the traffic up until the advisor has acted - the run's
            // deadline bounds that - then make the calls that are judged.
            let mut calls = 0u64;
            while ctx.protocol_stats().advisory_moves == 0 {
                ctx.invoke(&hot, |_, n| *n += 1);
                calls += 1;
            }
            let before = ctx.protocol_stats().thread_migrations;
            for _ in 0..3000 {
                ctx.invoke(&hot, |_, n| *n += 1);
            }
            let migrations = ctx.protocol_stats().thread_migrations - before;
            (calls + 3000, migrations)
        });
        let (calls, migrations) = h.join(ctx);
        assert_eq!(ctx.invoke(&hot, |_, n| *n), calls);
        // After the advisor acts, dominance and location agree on node 0,
        // so the placement is stable for the rest of the run.
        assert_eq!(ctx.try_locate(&hot), Ok(NodeId(0)));
        // 3000 static iterations would migrate the worker ~6000 times; the
        // advisory move must eliminate the overwhelming majority.
        assert!(migrations < 3000, "traffic stayed remote: {migrations}");
    })
    .unwrap();
}

#[test]
fn admission_alone_keeps_payloads_whole_on_real_threads() {
    // Admission is a payload's only guard. Writers on OS threads of both
    // nodes bump a pair's two halves with a yield between them; readers
    // look at each half with a yield between. No reader may see a pair
    // torn, and every write must land.
    const PAIRS: usize = 2;
    const THREADS: u16 = 8;
    const ROUNDS: usize = 2000;
    let c = Cluster::builder()
        .nodes(2)
        .processors(2)
        .engine(EngineChoice::Real)
        .latency(LatencyModel::zero())
        .deadline(Duration::from_secs(60))
        .build();
    let (torn, pairs, writes) = c
        .run(|ctx| {
            let pairs: Vec<_> = (0..PAIRS)
                .map(|i| ctx.create_on(NodeId(i as u16 % 2), (0u64, 0u64)))
                .collect();
            let hs: Vec<_> = (0..THREADS)
                .map(|t| {
                    let pairs = pairs.clone();
                    let anchor = ctx.create_on(NodeId(t % 2), 0u8);
                    ctx.start(&anchor, move |ctx, _| {
                        let (mut torn, mut writes) = (0u64, 0u64);
                        for r in 0..ROUNDS {
                            let pair = &pairs[(usize::from(t) + r) % PAIRS];
                            if t % 3 == 0 {
                                torn += ctx.invoke_shared(pair, |ctx, p| {
                                    let first = p.0;
                                    ctx.yield_now();
                                    u64::from(first != p.1)
                                });
                            } else {
                                ctx.invoke(pair, |ctx, p| {
                                    p.0 += 1;
                                    ctx.yield_now();
                                    p.1 += 1;
                                });
                                writes += 1;
                            }
                        }
                        (torn, writes)
                    })
                })
                .collect();
            let (mut torn, mut writes) = (0, 0);
            for h in hs {
                let (t, w) = h.join(ctx);
                torn += t;
                writes += w;
            }
            let pairs: Vec<_> = pairs
                .iter()
                .map(|p| ctx.invoke_shared(p, |_, p| *p))
                .collect();
            (torn, pairs, writes)
        })
        .unwrap();
    assert_eq!(torn, 0, "a reader saw a pair half-written");
    assert!(pairs.iter().all(|(a, b)| a == b), "{pairs:?}");
    assert_eq!(pairs.iter().map(|p| p.0).sum::<u64>(), writes);
    assert_eq!(writes, 5 * ROUNDS as u64);
}

#[test]
fn sor_on_real_threads_matches_sequential() {
    // The paper's application on OS threads: workers, edge threads and
    // convergence threads race for real, yet the Red/Black schedule leaves
    // nothing to chance, so the grid must be the sequential solver's bit
    // for bit.
    for (nodes, procs) in [(1, 2), (2, 1)] {
        let p = SorParams::small(nodes, procs);
        let (seq_iters, seq_sum, _) = sor_sequential(&p);
        let builder = Cluster::builder()
            .engine(EngineChoice::Real)
            .latency(LatencyModel::zero())
            .deadline(Duration::from_secs(60));
        let r = run_amber_sor_on(builder, p);
        assert_eq!(r.iterations, seq_iters, "{nodes}Nx{procs}P");
        assert_eq!(
            r.checksum.to_bits(),
            seq_sum.to_bits(),
            "{nodes}Nx{procs}P: {} against {seq_sum}",
            r.checksum
        );
    }
}
