//! Cross-crate integration tests: the Amber runtime driven through the
//! facade crate, exercising protocols that span `amber-core`, `amber-sync`
//! and `amber-dsm` together.

use amber_core::{AmberObject, Cluster, NodeId, SimTime};
use amber_dsm::Dsm;
use amber_sync::{Barrier, Lock, Monitor};

struct Doc {
    body: String,
}

impl AmberObject for Doc {
    fn transfer_size(&self) -> usize {
        std::mem::size_of::<Self>() + self.body.len()
    }
}

#[test]
fn pipeline_across_four_nodes() {
    // A document is passed through per-node "stages" by moving it from
    // node to node; each stage appends, under its own lock.
    let c = Cluster::sim(4, 2);
    let body = c
        .run(|ctx| {
            let doc = ctx.create(Doc {
                body: String::new(),
            });
            for stage in 0..4u16 {
                ctx.move_to(&doc, NodeId(stage));
                ctx.invoke(&doc, move |ctx, d| {
                    assert_eq!(ctx.node(), NodeId(stage));
                    d.body.push_str(&format!("[stage{stage}]"));
                });
            }
            ctx.invoke_shared(&doc, |_, d| d.body.clone())
        })
        .unwrap();
    assert_eq!(body, "[stage0][stage1][stage2][stage3]");
}

#[test]
fn moving_object_with_queued_invokers_is_safe() {
    // Threads hammer an object while another thread moves it repeatedly:
    // nobody deadlocks, every increment lands.
    let c = Cluster::sim(3, 2);
    let total = c
        .run(|ctx| {
            let counter = ctx.create(0u64);
            let hs: Vec<_> = (0..3u16)
                .map(|i| {
                    let a = ctx.create_on(NodeId(i), 0u8);
                    ctx.start(&a, move |ctx, _| {
                        for _ in 0..10 {
                            ctx.invoke(&counter, |_, n| *n += 1);
                            ctx.work(SimTime::from_us(500));
                        }
                    })
                })
                .collect();
            // Interleave moves with the invocation storm.
            for round in 0..6u16 {
                ctx.sleep(SimTime::from_ms(2));
                ctx.move_to(&counter, NodeId(round % 3));
            }
            for h in hs {
                h.join(ctx);
            }
            ctx.invoke(&counter, |_, n| *n)
        })
        .unwrap();
    assert_eq!(total, 30);
}

#[test]
fn immutable_replicas_agree_everywhere() {
    let c = Cluster::sim(4, 1);
    c.run(|ctx| {
        let config = ctx.create(vec![3u64, 1, 4, 1, 5]);
        ctx.set_immutable(&config);
        let hs: Vec<_> = (0..4u16)
            .map(|i| {
                let a = ctx.create_on(NodeId(i), 0u8);
                ctx.start(&a, move |ctx, _| {
                    ctx.invoke_shared(&config, |_, v| v.iter().sum::<u64>())
                })
            })
            .collect();
        for h in hs {
            assert_eq!(h.join(ctx), 14);
        }
        // Each of the three non-home nodes replicated exactly once.
        assert_eq!(ctx.protocol_stats().replications, 3);
    })
    .unwrap();
}

#[test]
fn sync_objects_compose_across_nodes() {
    // Lock + barrier + a two-permit gate (a counter encapsulated behind a
    // monitor and its condition variable) together in a staged computation.
    let c = Cluster::sim(2, 2);
    let log_len = c
        .run(|ctx| {
            let lock = Lock::new(ctx);
            let gate = Monitor::new(ctx);
            let freed = gate.condition(ctx);
            let permits = ctx.create(2u32);
            let barrier = Barrier::new(ctx, 4);
            let log = ctx.create(Vec::<u8>::new());
            let hs: Vec<_> = (0..4u16)
                .map(|i| {
                    let a = ctx.create_on(NodeId(i % 2), 0u8);
                    ctx.start(&a, move |ctx, _| {
                        gate.enter(ctx);
                        while ctx.invoke_shared(&permits, |_, p| *p == 0) {
                            freed.wait(ctx);
                        }
                        ctx.invoke(&permits, |_, p| *p -= 1);
                        gate.exit(ctx);
                        lock.with(ctx, |ctx| {
                            ctx.invoke(&log, move |_, l| l.push(i as u8));
                        });
                        gate.with(ctx, |ctx| {
                            ctx.invoke(&permits, |_, p| *p += 1);
                            freed.signal(ctx);
                        });
                        barrier.wait(ctx);
                        // After the barrier everyone sees all four entries.
                        let n = ctx.invoke_shared(&log, |_, l| l.len());
                        assert_eq!(n, 4);
                    })
                })
                .collect();
            for h in hs {
                h.join(ctx);
            }
            ctx.invoke_shared(&log, |_, l| l.len())
        })
        .unwrap();
    assert_eq!(log_len, 4);
}

#[test]
fn monitor_guards_a_remote_resource() {
    let c = Cluster::sim(2, 2);
    c.run(|ctx| {
        let mon = Monitor::new(ctx);
        let cv = mon.condition(ctx);
        let slot = ctx.create(Option::<u32>::None);

        let consumer_anchor = ctx.create_on(NodeId(1), 0u8);
        let consumer = ctx.start(&consumer_anchor, move |ctx, _| {
            mon.enter(ctx);
            while ctx.invoke_shared(&slot, |_, s| s.is_none()) {
                cv.wait(ctx);
            }
            let v = ctx.invoke(&slot, |_, s| s.take().unwrap());
            mon.exit(ctx);
            v
        });

        ctx.sleep(SimTime::from_ms(30));
        mon.with(ctx, |ctx| {
            ctx.invoke(&slot, |_, s| *s = Some(99));
            cv.signal(ctx);
        });
        assert_eq!(consumer.join(ctx), 99);
    })
    .unwrap();
}

#[test]
fn dsm_and_objects_share_one_cluster() {
    // A program mixing both memory systems: results computed in DSM pages
    // are published through an Amber object.
    let c = Cluster::sim(2, 1);
    let total = c
        .run(|ctx| {
            let dsm = Dsm::new(ctx, 4, 256);
            let sink = ctx.create(0u64);
            let d = dsm.clone();
            let a = ctx.create_on(NodeId(1), 0u8);
            let h = ctx.start(&a, move |ctx, _| {
                for i in 0..8 {
                    d.write_u64(ctx, i * 8, (i as u64) * 11);
                }
                let mut sum = 0;
                for i in 0..8 {
                    sum += d.read_u64(ctx, i * 8);
                }
                ctx.invoke(&sink, move |_, s| *s += sum);
            });
            h.join(ctx);
            ctx.invoke(&sink, |_, s| *s)
        })
        .unwrap();
    assert_eq!(total, 11 * (0..8).sum::<u64>());
}

#[test]
fn whole_program_runs_are_reproducible() {
    fn run_once() -> (u64, u64, SimTime, u64) {
        let c = Cluster::sim(3, 2);
        let v = c
            .run(|ctx| {
                let lock = Lock::new(ctx);
                let acc = ctx.create(0u64);
                let hs: Vec<_> = (0..6u16)
                    .map(|i| {
                        let a = ctx.create_on(NodeId(i % 3), 0u8);
                        ctx.start(&a, move |ctx, _| {
                            for k in 0..4 {
                                lock.with(ctx, |ctx| {
                                    ctx.invoke(&acc, move |_, n| *n += k + i as u64);
                                });
                                ctx.work(SimTime::from_us(700));
                            }
                        })
                    })
                    .collect();
                for h in hs {
                    h.join(ctx);
                }
                ctx.invoke(&acc, |_, n| *n)
            })
            .unwrap();
        let digest = c.schedule_digest().expect("a simulated run has a digest");
        (v, c.net_stats().total_msgs(), c.now(), digest)
    }
    assert_eq!(run_once(), run_once());
}

#[test]
fn deadlock_detector_names_the_guilty() {
    let c = Cluster::sim(2, 1);
    let err = c
        .run(|ctx| {
            let l1 = Lock::new(ctx);
            let l2 = Lock::new(ctx);
            let a = ctx.create(0u8);
            let h = ctx.start(&a, move |ctx, _| {
                l2.acquire(ctx);
                ctx.sleep(SimTime::from_ms(10));
                l1.acquire(ctx); // classic AB-BA
                l1.release(ctx);
                l2.release(ctx);
            });
            l1.acquire(ctx);
            ctx.sleep(SimTime::from_ms(10));
            l2.acquire(ctx);
            l2.release(ctx);
            l1.release(ctx);
            h.join(ctx);
        })
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(msg.contains("lock-acquire"), "{msg}");
}

#[test]
fn a_simulated_run_spawns_no_os_thread() {
    // Every simulated thread runs on a stack of its own on the OS thread
    // that called `run`: 64 threads, and one spawned by a courier where its
    // leg arrived, note which OS thread they are on after every block
    // point.
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    use amber_engine::{must_current_thread, Engine, EngineExt, LatencyModel, SimEngine};
    const THREADS: u16 = 64;
    let e = SimEngine::cluster(4, 2, LatencyModel::fixed(SimTime::from_ms(1)));
    let seen: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let note = {
        let seen = Arc::clone(&seen);
        move || seen.lock().unwrap().push(std::thread::current().id())
    };
    let e2 = Arc::clone(&e);
    e.run(NodeId(0), move || {
        for i in 0..THREADS {
            let (e, note) = (Arc::clone(&e2), note.clone());
            let body = move || {
                for _ in 0..3 {
                    e.work(SimTime::from_us(100 * u64::from(i % 7 + 1)));
                    note();
                    e.yield_now();
                    note();
                    e.sleep(SimTime::from_us(50));
                    note();
                }
            };
            e2.spawn(NodeId(i % 4), format!("w{i}"), Box::new(body));
        }
        let (e, main) = (Arc::clone(&e2), must_current_thread());
        let note2 = note.clone();
        let courier = move || {
            e.leg(NodeId(0), NodeId(1), 64, true, "courier-leg");
            let e3 = Arc::clone(&e);
            let body = move || {
                e3.work(SimTime::from_us(10));
                note2();
                e3.unblock(main);
            };
            e.spawn(NodeId(1), "from-courier".into(), Box::new(body));
        };
        e2.spawn(NodeId(0), "courier".into(), Box::new(courier));
        e2.block_current("await-courier-thread");
        note();
    })
    .unwrap();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), usize::from(THREADS) * 9 + 2);
    let caller = std::thread::current().id();
    assert!(seen.iter().all(|&id| id == caller), "{seen:?}");
}

/// A payload that counts its drops.
struct Counted(std::sync::Arc<std::sync::atomic::AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }
}

impl AmberObject for Counted {}

/// The registry entry owns its payload: `destroy` drops it exactly once, a
/// destroy that finds the object busy drops nothing — while an operation
/// runs on it, and while a thread's frame is bound to it but not yet
/// admitted — and dropping the cluster drops every survivor once. With
/// `exact`, the program also checks that the second busy destroy landed
/// before the operation began (the simulator's schedule guarantees it; on
/// OS threads the operation holds the object either way).
fn payloads_drop_exactly_once(cluster: Cluster, exact: bool) {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
    use std::sync::Arc;

    use amber_core::{ObjRef, ProtocolError};

    let drops = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&drops);
    let survivors = cluster
        .run(move |ctx| {
            let dropped = || counted.load(SeqCst);
            let destroyed = ctx.create(Counted(Arc::clone(&counted)));
            ctx.try_destroy(destroyed).unwrap();
            assert_eq!(dropped(), 1, "destroy drops the payload once");

            // A thread on node 1 invokes `target` on node 0 and holds it
            // until released; `entered` says its operation has begun. The
            // first start leaves node 0 a hint to `anchor`, so the next
            // takes a forward hop there, not a home route.
            let anchor = ctx.create_on(NodeId(1), 0u8);
            let hold = |target: ObjRef<Counted>| {
                let entered = Arc::new(AtomicBool::new(false));
                let release = Arc::new(AtomicBool::new(false));
                let (e, r) = (Arc::clone(&entered), Arc::clone(&release));
                let holder = ctx.start(&anchor, move |ctx, _| {
                    ctx.invoke(&target, |ctx, _| {
                        e.store(true, SeqCst);
                        while !r.load(SeqCst) {
                            ctx.sleep(SimTime::from_us(10));
                        }
                    })
                });
                (holder, entered, release)
            };
            let release_and_destroy =
                |holder: amber_core::JoinHandle<()>, release: Arc<AtomicBool>, target| {
                    release.store(true, SeqCst);
                    holder.join(ctx);
                    let before = dropped();
                    ctx.try_destroy(target).unwrap();
                    assert_eq!(dropped(), before + 1);
                };

            // An operation running.
            let running = ctx.create(Counted(Arc::clone(&counted)));
            let (holder, entered, release) = hold(running);
            while !entered.load(SeqCst) {
                ctx.sleep(SimTime::from_us(10));
            }
            let busy = ctx.try_destroy(running);
            assert_eq!(busy, Err(ProtocolError::ObjectBusy(running.addr())));
            assert_eq!(dropped(), 1, "a busy destroy drops nothing");
            release_and_destroy(holder, release, running);

            // A frame bound, its thread still on the way: node 1 has no
            // descriptor for `bound`, so the invoker routes via the home
            // node, counted as it sets off, and only then migrates here.
            let bound = ctx.create(Counted(Arc::clone(&counted)));
            let routes = ctx.protocol_stats().home_routes;
            let (holder, entered, release) = hold(bound);
            while ctx.protocol_stats().home_routes == routes {
                ctx.sleep(SimTime::from_us(10));
            }
            let busy = ctx.try_destroy(bound);
            if exact {
                assert!(!entered.load(SeqCst), "the destroy came too late");
            }
            assert_eq!(busy, Err(ProtocolError::ObjectBusy(bound.addr())));
            assert_eq!(dropped(), 2, "a busy destroy drops nothing");
            release_and_destroy(holder, release, bound);

            for _ in 0..3 {
                ctx.create(Counted(Arc::clone(&counted)));
            }
            dropped()
        })
        .unwrap();
    assert_eq!(survivors, 3, "the run dropped only what it destroyed");
    drop(cluster);
    assert_eq!(
        drops.load(SeqCst),
        6,
        "the cluster drops each survivor once"
    );
}

#[test]
fn payloads_drop_exactly_once_simulated() {
    payloads_drop_exactly_once(Cluster::sim(2, 2), true);
}

#[test]
fn payloads_drop_exactly_once_on_real_threads() {
    let cluster = Cluster::builder()
        .nodes(2)
        .processors(2)
        .engine(amber_core::EngineChoice::Real)
        .latency(amber_core::LatencyModel::fixed(SimTime::from_ms(2)))
        .deadline(std::time::Duration::from_secs(60))
        .build();
    payloads_drop_exactly_once(cluster, false);
}
