//! Per-layer probes taken from outside: each mechanism measured in
//! isolation, through public functions only, with nothing layered on top
//! that the probe does not name.
//!
//! `core` is probed through `Ctx` on a two-node `RealEngine` cluster with a
//! zero-latency network, using the same span recorder as the traced rounds;
//! `engine`, `vspace` and `sync` are called directly. The probes are the
//! same for every workload: what differs per workload is which of them its
//! end-to-end numbers should follow (see the README's interaction list).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amber_core::{Cluster, Ctx, EngineChoice, LatencyModel, NodeId, SimTime};
use amber_engine::{must_current_thread, Engine, EngineExt, NetStats, RealEngine, SimEngine};
use amber_sync::{Barrier, Lock};
use amber_vspace::{AddressSpaceServer, DescriptorTable, HeapError, NodeHeap, VAddr};

use crate::refkernel::RefKernel;
use crate::rng::Rng;
use crate::stats::{median, percentile_sorted};
use crate::trace::{kind_stats, KindStats, Recorder};

/// Metric name and value.
pub type Reading = (&'static str, f64);

/// Samples per `core` call kind that costs microseconds, and per kind that
/// costs nanoseconds.
const SLOW_SAMPLES: u32 = 2_000;
const FAST_SAMPLES: u32 = 20_000;

/// Every probe that runs on one CPU.
pub fn pinned_probes(seed: u64) -> Vec<Reading> {
    let mut r = vec![
        ("host.ref_handoff_per_s", RefKernel::Handoff.measure()),
        ("host.ref_compute_per_s", RefKernel::Compute.measure()),
    ];
    r.extend(engine_real());
    r.extend(engine_sim());
    r.extend(vspace(seed));
    r.extend(sync());
    r.extend(core());
    // A remote invoke is one send round trip plus what `core` adds to it.
    let value = |name: &str| r.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
    let self_us = value("core.invoke_remote.p50_us") - value("engine.real.send_rtt.p50_us");
    r.push(("core.invoke_remote.self_us", self_us));
    r
}

fn p50(mut samples: Vec<u64>) -> f64 {
    samples.sort_unstable();
    percentile_sorted(&samples, 50.0) as f64
}

/// Times `batches` batches of `per_batch` calls of `f` and returns the
/// median nanoseconds per call: for calls too short to time one by one.
fn batch_p50_ns(batches: usize, per_batch: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut per_call = Vec::with_capacity(batches);
    let mut i = 0u64;
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            f(i);
            i += 1;
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&per_call)
}

// ----- engine -------------------------------------------------------------

/// `Engine::send` out and back with `block_current`/`unblock`, and a thread
/// spawned and waited for, with no `core` on top.
fn engine_real() -> Vec<Reading> {
    let engine = RealEngine::cluster(2, 1, LatencyModel::zero());
    let e = Arc::clone(&engine);
    let (rtt, spawn_join) = engine
        .run(NodeId(0), move || {
            let me = must_current_thread();
            let mut rtt = Vec::with_capacity(SLOW_SAMPLES as usize);
            for _ in 0..SLOW_SAMPLES {
                let t0 = Instant::now();
                let (out, back) = (Arc::clone(&e), Arc::clone(&e));
                e.send(
                    NodeId(0),
                    NodeId(1),
                    64,
                    Box::new(move || {
                        out.send(NodeId(1), NodeId(0), 64, Box::new(move || back.unblock(me)));
                    }),
                );
                e.block_current("probe-send-rtt");
                rtt.push(t0.elapsed().as_nanos() as u64);
            }
            let mut spawn_join = Vec::with_capacity(SLOW_SAMPLES as usize);
            for _ in 0..SLOW_SAMPLES {
                let t0 = Instant::now();
                let child = Arc::clone(&e);
                e.spawn(
                    NodeId(0),
                    "probe-child".to_string(),
                    Box::new(move || child.unblock(me)),
                );
                e.block_current("probe-spawn-join");
                spawn_join.push(t0.elapsed().as_nanos() as u64);
            }
            (rtt, spawn_join)
        })
        .expect("engine.real probe failed");
    vec![
        ("engine.real.send_rtt.p50_us", p50(rtt) / 1e3),
        ("engine.real.spawn_join.p50_us", p50(spawn_join) / 1e3),
    ]
}

/// The simulator's own speed: charged bursts per wall second with four
/// threads on 2N×2P, and the wall cost of passing the baton between two.
fn engine_sim() -> Vec<Reading> {
    const THREADS: usize = 4;
    const BURSTS: u64 = 20_000;
    let engine = SimEngine::cluster(2, 2, LatencyModel::ethernet_10mbit());
    let e = Arc::clone(&engine);
    let t0 = Instant::now();
    engine
        .run(NodeId(0), move || {
            let me = must_current_thread();
            let remaining = Arc::new(AtomicUsize::new(THREADS));
            let burst = {
                let e = Arc::clone(&e);
                move || {
                    for _ in 0..BURSTS {
                        e.work(SimTime::from_us(10));
                    }
                    // SeqCst: the last thread out must see every other
                    // decrement before it wakes the main thread.
                    if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                        e.unblock(me);
                    }
                }
            };
            for t in 1..THREADS {
                e.spawn(
                    NodeId((t % 2) as u16),
                    format!("burst{t}"),
                    Box::new(burst.clone()),
                );
            }
            burst();
            // A wake that came first is kept, so this returns at once then.
            e.block_current("probe-sim-bursts");
        })
        .expect("engine.sim burst probe failed");
    let events_per_s = (THREADS as u64 * BURSTS) as f64 / t0.elapsed().as_secs_f64();

    let engine = SimEngine::cluster(1, 1, LatencyModel::ethernet_10mbit());
    let e = Arc::clone(&engine);
    let round_trips = engine
        .run(NodeId(0), move || {
            let me = must_current_thread();
            let peer_engine = Arc::clone(&e);
            let peer = e.spawn(
                NodeId(0),
                "probe-peer".to_string(),
                Box::new(move || {
                    for _ in 0..SLOW_SAMPLES {
                        peer_engine.block_current("probe-peer-wait");
                        peer_engine.unblock(me);
                    }
                }),
            );
            let mut d = Vec::with_capacity(SLOW_SAMPLES as usize);
            for _ in 0..SLOW_SAMPLES {
                let t0 = Instant::now();
                e.unblock(peer);
                e.block_current("probe-main-wait");
                d.push(t0.elapsed().as_nanos() as u64);
            }
            d
        })
        .expect("engine.sim handoff probe failed");
    vec![
        ("engine.sim.events_per_s", events_per_s),
        // A round trip is two hand-offs.
        ("engine.sim.handoff.p50_us", p50(round_trips) / 2e3),
    ]
}

// ----- vspace -------------------------------------------------------------

fn vspace(seed: u64) -> Vec<Reading> {
    const BATCHES: usize = 200;
    const PER_BATCH: u64 = 256;
    let mut server = AddressSpaceServer::new();
    let mut heap = NodeHeap::new(NodeId(0));
    heap.add_region(server.assign(NodeId(0)));
    let mut alloc = |heap: &mut NodeHeap, size: u64| loop {
        match heap.alloc(size) {
            Ok(a) => return a,
            Err(HeapError::NeedRegion) => heap.add_region(server.assign(NodeId(0))),
            Err(e) => panic!("heap probe: {e}"),
        }
    };

    let alloc_free = batch_p50_ns(BATCHES, PER_BATCH, |_| {
        let a = alloc(&mut heap, 64);
        heap.free(black_box(a)).expect("freeing a live block");
    });

    // Churn over a seeded mix of sizes: how often the never-split free pool
    // can serve an allocation.
    let (allocs0, reuses0) = (heap.alloc_count(), heap.reuse_count());
    let mut rng = Rng::new(seed, 0x4EA9);
    let mut live: Vec<VAddr> = Vec::new();
    for _ in 0..20_000 {
        if live.len() < 256 && (live.is_empty() || rng.below(2) == 0) {
            live.push(alloc(&mut heap, 16 << rng.below(6)));
        } else {
            let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
            heap.free(victim).expect("freeing a live block");
        }
    }
    let reuse_share = (heap.reuse_count() - reuses0) as f64 / (heap.alloc_count() - allocs0) as f64;

    let addrs: Vec<VAddr> = (0..4096).map(|_| alloc(&mut heap, 64)).collect();
    let mut table = DescriptorTable::new();
    addrs.iter().for_each(|&a| table.set_resident(a));
    let pick = |i: u64| addrs[(i.wrapping_mul(0x9E37_79B9) % 4096) as usize];
    let lookup = batch_p50_ns(BATCHES, PER_BATCH, |i| {
        black_box(table.lookup(black_box(pick(i))));
    });
    let set_forward = batch_p50_ns(BATCHES, PER_BATCH, |i| {
        table.set_forward(black_box(pick(i)), NodeId((i % 4) as u16));
    });
    for n in 0..63u16 {
        server.assign(NodeId(n % 4));
    }
    let home_of = batch_p50_ns(BATCHES, PER_BATCH, |i| {
        black_box(server.home_of(black_box(pick(i))));
    });
    vec![
        ("vspace.heap.alloc_free.p50_ns", alloc_free),
        ("vspace.heap.reuse_share", reuse_share),
        ("vspace.descriptor.lookup.p50_ns", lookup),
        ("vspace.descriptor.set_forward.p50_ns", set_forward),
        ("vspace.server.home_of.p50_ns", home_of),
    ]
}

// ----- sync ---------------------------------------------------------------

fn sync() -> Vec<Reading> {
    // One barrier episode on the paper's clock at 4N×4P: sixteen workers
    // meet once to line up, and the second meeting is timed from the first
    // arrival to the last release. Deterministic.
    let barrier_us = Cluster::builder()
        .nodes(4)
        .processors(4)
        .build()
        .run(|ctx| {
            let bar = Barrier::new(ctx, 16);
            let handles: Vec<_> = (0..16u16)
                .map(|w| {
                    let anchor = ctx.create_on(NodeId(w / 4), 0u8);
                    ctx.start(&anchor, move |ctx, _| {
                        bar.wait(ctx);
                        let before = ctx.now();
                        bar.wait(ctx);
                        (before, ctx.now())
                    })
                })
                .collect();
            let times: Vec<_> = handles.into_iter().map(|h| h.join(ctx)).collect();
            let first_arrival = times.iter().map(|t| t.0).min().expect("sixteen workers");
            let last_release = times.iter().map(|t| t.1).max().expect("sixteen workers");
            (last_release - first_arrival).as_us_f64()
        })
        .expect("sync.barrier probe failed");

    let lock_ns = real_cluster(1)
        .run(|ctx| {
            let lock = Lock::new(ctx);
            batch_p50_ns(200, 64, |_| {
                lock.acquire(ctx);
                lock.release(ctx);
            })
        })
        .expect("sync.lock probe failed");
    vec![
        ("sync.barrier.virtual_us", barrier_us),
        ("sync.lock.uncontended.p50_ns", lock_ns),
    ]
}

// ----- core ---------------------------------------------------------------

fn real_cluster(nodes: usize) -> Cluster {
    Cluster::builder()
        .nodes(nodes)
        .processors(1)
        .engine(EngineChoice::Real)
        .latency(LatencyModel::zero())
        .deadline(Duration::from_secs(120))
        .build()
}

/// Every public call kind in isolation, timed one call at a time by the
/// span recorder. The caller is a thread anchored on node 0, as the
/// workloads' workers are: a thread outside any object's frame would stay
/// on node 1 after its first remote invoke, and the rest would be local.
fn core() -> Vec<Reading> {
    let cluster = real_cluster(2);
    let net = cluster.net_stats();
    let (kinds, move_msgs) = cluster
        .run(move |ctx| {
            let anchor = ctx.create_on(NodeId::BOOT, 0u8);
            ctx.start(&anchor, move |ctx, _| core_calls(ctx, &net))
                .join(ctx)
        })
        .expect("core probe failed");

    let kind = |name: &str| kinds.get(name).copied().unwrap_or_default();
    let ns = |k: KindStats| (k.p50_ns as f64, k.p99_ns as f64);
    let us = |k: KindStats| (k.p50_ns as f64 / 1e3, k.p99_ns as f64 / 1e3);
    let (invoke_local_p50, invoke_local_p99) = ns(kind("invoke_local"));
    let (invoke_remote_p50, invoke_remote_p99) = us(kind("invoke_remote"));
    let (move_p50, move_p99) = us(kind("move_to"));
    vec![
        ("core.invoke_local.p50_ns", invoke_local_p50),
        ("core.invoke_local.p99_ns", invoke_local_p99),
        (
            "core.invoke_shared_local.p50_ns",
            ns(kind("invoke_shared_local")).0,
        ),
        ("core.invoke_remote.p50_us", invoke_remote_p50),
        ("core.invoke_remote.p99_us", invoke_remote_p99),
        ("core.locate_local.p50_ns", ns(kind("locate_local")).0),
        ("core.locate_remote.p50_us", us(kind("locate_remote")).0),
        ("core.move_to.p50_us", move_p50),
        ("core.move_to.p99_us", move_p99),
        ("core.move_to.msgs", move_msgs),
        ("core.attach_unattach.p50_ns", ns(kind("attach_unattach")).0),
        ("core.create.p50_ns", ns(kind("create")).0),
        ("core.destroy.p50_ns", ns(kind("destroy")).0),
        ("core.start_join.p50_us", us(kind("start_join")).0),
        (
            "core.probe_samples",
            kinds.values().map(|k| k.samples).min().unwrap_or(0) as f64,
        ),
    ]
}

fn core_calls(ctx: &Ctx, net: &NetStats) -> (BTreeMap<&'static str, KindStats>, f64) {
    let (here, there) = (NodeId(0), NodeId(1));
    let mut rec = Recorder::new(
        true,
        Instant::now(),
        0,
        (6 * FAST_SAMPLES + 6 * SLOW_SAMPLES) as usize,
    );
    let local = ctx.create_on(here, 0u64);
    let remote = ctx.create_on(there, 0u64);
    let table = ctx.create_on(here, vec![7u64; 256]);
    ctx.set_immutable(&table);
    for i in 0..FAST_SAMPLES {
        rec.timed("invoke_local", i, || ctx.invoke(&local, |_, c| *c += 1));
        rec.timed("invoke_shared_local", i, || {
            black_box(ctx.invoke_shared(&table, |_, t| t[i as usize % 256]))
        });
        rec.timed("locate_local", i, || black_box(ctx.locate(&local)));
    }
    for i in 0..SLOW_SAMPLES {
        rec.timed("invoke_remote", i, || ctx.invoke(&remote, |_, c| *c += 1));
        rec.timed("locate_remote", i, || black_box(ctx.locate(&remote)));
    }

    let ball = ctx.create_on(here, [0u64; 8]);
    let msgs0 = net.total_msgs();
    for i in 0..SLOW_SAMPLES {
        let to = if i % 2 == 0 { there } else { here };
        rec.timed("move_to", i, || ctx.move_to(&ball, to));
    }
    let move_msgs = (net.total_msgs() - msgs0) as f64 / f64::from(SLOW_SAMPLES);

    let child = ctx.create_on(here, 0u64);
    ctx.attach(&child, &local);
    for i in 0..FAST_SAMPLES {
        rec.timed("attach_unattach", i, || {
            ctx.unattach(&child);
            ctx.attach(&child, &local);
        });
        let o = rec.timed("create", i, || ctx.create_on(here, 0u64));
        rec.timed("destroy", i, || ctx.destroy(o));
    }
    let started_on = ctx.create_on(here, 0u8);
    for i in 0..SLOW_SAMPLES {
        rec.timed("start_join", i, || {
            ctx.start(&started_on, |_, _| ()).join(ctx)
        });
    }
    (kind_stats(&rec.into_spans()), move_msgs)
}

/// Local invokes by one worker, then by two workers on two nodes at once.
/// Run unpinned: it shows whether a second CPU buys anything while every
/// local invoke bumps a cluster-wide counter.
pub fn scaling_probe() -> Vec<Reading> {
    const INVOKES: u64 = 300_000;
    let rate = |workers: u16| {
        real_cluster(2)
            .run(move |ctx| {
                let work: Vec<_> = (0..workers)
                    .map(|w| {
                        (
                            ctx.create_on(NodeId(w), 0u8),
                            ctx.create_on(NodeId(w), 0u64),
                        )
                    })
                    .collect();
                let t0 = Instant::now();
                let handles: Vec<_> = work
                    .iter()
                    .map(|&(anchor, counter)| {
                        ctx.start(&anchor, move |ctx, _| {
                            for _ in 0..INVOKES {
                                ctx.invoke(&counter, |_, c| *c += 1);
                            }
                        })
                    })
                    .collect();
                handles.into_iter().for_each(|h| h.join(ctx));
                (u64::from(workers) * INVOKES) as f64 / t0.elapsed().as_secs_f64()
            })
            .expect("scaling probe failed")
    };
    let one = rate(1);
    let two = rate(2);
    vec![
        ("core.invoke_local.rate_2w", two),
        ("core.invoke_local.scaling_2w", two / one),
    ]
}
