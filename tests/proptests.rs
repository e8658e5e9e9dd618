//! Property-based tests on the reproduction's core invariants.

use amber_core::{Cluster, NodeId, SimTime};
use amber_dsm::Dsm;
use amber_sync::Barrier;
use amber_vspace::{AddressSpaceServer, NodeHeap, RegionId, VAddr, REGION_BYTES};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The never-split heap: live blocks are disjoint, sized at least as
    /// requested, and freed blocks are reused whole.
    #[test]
    fn heap_blocks_never_overlap(ops in proptest::collection::vec(
        (0usize..3, 1u64..4096), 1..120)
    ) {
        let mut server = AddressSpaceServer::new();
        let mut heap = NodeHeap::new(NodeId(0));
        heap.add_region(server.assign(NodeId(0)));
        let mut live: Vec<(VAddr, u64, u64)> = Vec::new(); // (addr, req, got)
        for (op, size) in ops {
            match op {
                0 | 1 => {
                    let addr = loop {
                        match heap.alloc(size) {
                            Ok(a) => break a,
                            Err(amber_vspace::HeapError::NeedRegion) => {
                                heap.add_region(server.assign(NodeId(0)));
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    };
                    let got = heap.size_of(addr).expect("fresh block is live");
                    prop_assert!(got >= size, "block smaller than requested");
                    for (a, _, g) in &live {
                        let disjoint =
                            addr.raw() + got <= a.raw() || a.raw() + g <= addr.raw();
                        prop_assert!(disjoint, "overlap: {addr} and {a}");
                    }
                    live.push((addr, size, got));
                }
                _ => {
                    if let Some((a, _, _)) = live.pop() {
                        heap.free(a).expect("freeing a live block");
                    }
                }
            }
        }
        // Accounting agrees.
        let total: u64 = live.iter().map(|(_, _, g)| *g).sum();
        prop_assert_eq!(heap.live_bytes(), total);
    }

    /// Region assignments are disjoint and home lookups agree with the
    /// server for any request pattern.
    #[test]
    fn region_assignment_is_consistent(nodes in proptest::collection::vec(0u16..8, 1..60)) {
        let mut server = AddressSpaceServer::new();
        let mut seen = std::collections::HashSet::new();
        for n in nodes {
            let r = server.assign(NodeId(n));
            prop_assert!(seen.insert(r), "region assigned twice");
            prop_assert_eq!(server.owner(r), Some(NodeId(n)));
            let mid = VAddr(r.base().raw() + REGION_BYTES / 2);
            prop_assert_eq!(server.home_of(mid), Some(NodeId(n)));
            prop_assert_eq!(mid.region(), r);
        }
        prop_assert_eq!(server.owner(RegionId(3)), None); // below HEAP_BASE
    }

    /// Forwarding chains always converge: after an arbitrary move sequence,
    /// every probe finds the object where the last move put it.
    #[test]
    fn forwarding_chains_converge(moves in proptest::collection::vec(0u16..4, 1..12)) {
        let c = Cluster::sim(4, 1);
        let last = *moves.last().unwrap();
        c.run(move |ctx| {
            let obj = ctx.create(0u32);
            for m in &moves {
                ctx.move_to(&obj, NodeId(*m));
            }
            assert_eq!(ctx.locate(&obj), NodeId(last));
            // An invocation from the boot node also lands there.
            let at = ctx.invoke(&obj, |ctx, _| ctx.node());
            assert_eq!(at, NodeId(last));
        })
        .unwrap();
    }

    /// The barrier never releases early and always releases everyone, for
    /// any parties count and any stagger pattern.
    #[test]
    fn barrier_releases_exactly_together(
        parties in 1usize..7,
        staggers in proptest::collection::vec(0u64..5_000, 6),
    ) {
        let c = Cluster::sim(2, 2);
        c.run(move |ctx| {
            let bar = Barrier::new(ctx, parties);
            let arrived = ctx.create(0usize);
            let hs: Vec<_> = (0..parties)
                .map(|i| {
                    let a = ctx.create_on(NodeId((i % 2) as u16), 0u8);
                    let stagger = staggers[i % staggers.len()];
                    ctx.start(&a, move |ctx, _| {
                        ctx.work(SimTime::from_us(stagger));
                        ctx.invoke(&arrived, |_, n| *n += 1);
                        bar.wait(ctx);
                        // Everyone must have arrived by the time anyone passes.
                        let n = ctx.invoke_shared(&arrived, |_, n| *n);
                        assert_eq!(n, parties, "barrier released early");
                    })
                })
                .collect();
            for h in hs {
                h.join(ctx);
            }
        })
        .unwrap();
    }

    /// DSM equals a reference flat memory under arbitrary single-threaded
    /// read/write sequences issued from alternating nodes.
    #[test]
    fn dsm_matches_reference_memory(
        ops in proptest::collection::vec((0usize..2, 0usize..31, 0u64..1000), 1..40)
    ) {
        let c = Cluster::sim(3, 1);
        c.run(move |ctx| {
            let dsm = Dsm::new(ctx, 4, 64); // 256 bytes = 32 u64 slots
            let mut reference = vec![0u64; 32];
            for (i, (op, slot, val)) in ops.iter().enumerate() {
                let node = NodeId((i % 3) as u16);
                let d = dsm.clone();
                let (op, slot, val) = (*op, *slot, *val);
                let a = ctx.create_on(node, 0u8);
                let observed = ctx.start(&a, move |ctx, _| {
                    if op == 0 {
                        d.write_u64(ctx, slot * 8, val);
                        None
                    } else {
                        Some(d.read_u64(ctx, slot * 8))
                    }
                }).join(ctx);
                match observed {
                    None => reference[slot] = val,
                    Some(seen) => assert_eq!(
                        seen, reference[slot],
                        "node {node} read stale data at slot {slot}"
                    ),
                }
            }
        })
        .unwrap();
    }

    /// The event trace is a faithful ledger: over an arbitrary mixed
    /// workload, counters recomputed from the captured events alone agree
    /// with `protocol_stats()` counter for counter, message events included
    /// (one `emit` feeds both, so this guards the sink path losing or
    /// doubling an event).
    #[test]
    fn trace_summary_reconciles_with_counters(
        ops in proptest::collection::vec((0usize..7, 0usize..4, 0u16..4), 1..25)
    ) {
        let c = Cluster::sim(4, 2);
        let sink = c.enable_tracing();
        let run_ops = ops.clone();
        c.run(move |ctx| {
            let pool: Vec<_> = (0..4)
                .map(|i| ctx.create_on(NodeId((i % 4) as u16), i as u64))
                .collect();
            for (kind, i, n) in run_ops {
                let obj = pool[i];
                let node = NodeId(n);
                match kind {
                    0 => {
                        ctx.invoke(&obj, |_, v| *v += 1);
                    }
                    1 => {
                        ctx.invoke_shared(&obj, |_, v| *v);
                    }
                    2 => ctx.move_to(&obj, node),
                    3 => {
                        ctx.locate(&obj);
                    }
                    4 => {
                        let h = ctx.start(&obj, |_, v| *v);
                        h.join(ctx);
                    }
                    5 => {
                        // Attach a fresh child, drag it along one move,
                        // then release it back into ordinary life.
                        let child = ctx.create_on(node, 0u64);
                        ctx.attach(&child, &obj);
                        ctx.move_to(&obj, node);
                        assert_eq!(ctx.locate(&child), ctx.locate(&obj));
                        ctx.unattach(&child);
                    }
                    _ => {
                        // Immutable replication path.
                        let frozen = ctx.create(7u8);
                        ctx.set_immutable(&frozen);
                        ctx.move_to(&frozen, node);
                        ctx.invoke_shared(&frozen, |_, v| *v);
                    }
                }
            }
        })
        .unwrap();
        prop_assert_eq!(
            amber_core::ProtocolSnapshot::from_events(&sink.take()),
            c.protocol_stats()
        );
    }

    /// Attachment groups always co-locate, whatever the build order and
    /// wherever the root moves.
    #[test]
    fn attachment_groups_colocate(
        children in 1usize..5,
        dest in 0u16..4,
    ) {
        let c = Cluster::sim(4, 1);
        c.run(move |ctx| {
            let root = ctx.create(0u32);
            let kids: Vec<_> = (0..children)
                .map(|i| {
                    let k = ctx.create_on(NodeId((i % 4) as u16), i as u64);
                    ctx.attach(&k, &root);
                    k
                })
                .collect();
            ctx.move_to(&root, NodeId(dest));
            let root_at = ctx.locate(&root);
            assert_eq!(root_at, NodeId(dest));
            for k in &kids {
                assert_eq!(ctx.locate(k), root_at, "attached child strayed");
            }
        })
        .unwrap();
    }
}

/// Virtual-time determinism across identical runs with mixed primitives,
/// for several cluster shapes (plain test; proptest closures must be Fn
/// while cluster programs want FnOnce captures).
#[test]
fn deterministic_across_cluster_shapes() {
    for (nodes, procs) in [(1usize, 1usize), (2, 2), (4, 1), (3, 4)] {
        let once = || {
            let c = Cluster::sim(nodes, procs);
            let v = c
                .run(move |ctx| {
                    let obj = ctx.create(0u64);
                    let hs: Vec<_> = (0..nodes * 2)
                        .map(|i| {
                            let a = ctx.create_on(NodeId((i % nodes) as u16), 0u8);
                            ctx.start(&a, move |ctx, _| {
                                ctx.work(SimTime::from_us(100 * (i as u64 + 1)));
                                ctx.invoke(&obj, |_, n| *n += 1);
                            })
                        })
                        .collect();
                    for h in hs {
                        h.join(ctx);
                    }
                    ctx.invoke(&obj, |_, n| *n)
                })
                .unwrap();
            (v, c.now(), c.net_stats().total_msgs())
        };
        assert_eq!(once(), once(), "{nodes}x{procs} not deterministic");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hint-cache staleness: however movers, invokers, the adaptive
    /// placement advisor and a lossy network interleave, a descriptor
    /// chase never takes more forward hops than the number of moves the
    /// object has completed so far plus one (the chain cannot be longer
    /// than the moves that built it), and the captured trace reconciles
    /// counter-for-counter with the live stats.
    #[test]
    fn stale_hints_never_overchase(
        seed in 0u64..(1u64 << 32),
        moves in proptest::collection::vec(0u16..3, 1..10),
    ) {
        use amber_core::{EngineChoice, FaultPlan, ProtocolEvent, ProtocolSnapshot, ThreadId};
        use amber_placement::adaptive::{AdaptiveConfig, TrafficAdvisor};
        use std::collections::HashMap;

        let c = Cluster::builder()
            .nodes(3)
            .processors(2)
            .engine(EngineChoice::Sim)
            .faults(
                FaultPlan::seeded(seed)
                    .drop_rate(0.03)
                    .duplicate_rate(0.01),
            )
            .adaptive_placement(|| {
                TrafficAdvisor::new(AdaptiveConfig {
                    tick: SimTime::from_ms(20),
                    min_calls: 3,
                })
            })
            .build();
        let sink = c.enable_tracing();
        c.run(move |ctx| {
            let ball = ctx.create(0u64);
            let a1 = ctx.create_on(NodeId(1), 0u8);
            let a2 = ctx.create_on(NodeId(2), 0u8);
            let h1 = ctx.start(&a1, move |ctx, _| {
                for _ in 0..12 {
                    ctx.invoke(&ball, |_, n| *n += 1);
                }
            });
            let h2 = ctx.start(&a2, move |ctx, _| {
                for _ in 0..12 {
                    ctx.invoke(&ball, |_, n| *n += 1);
                }
            });
            for m in &moves {
                ctx.move_to(&ball, NodeId(*m));
                ctx.sleep(SimTime::from_ms(2));
            }
            h1.join(ctx);
            h2.join(ctx);
            assert_eq!(ctx.invoke(&ball, |_, n| *n), 24, "lost invocations");
        })
        .unwrap();

        let events = sink.take();
        // Completed moves per object so far (advisory moves execute as
        // ordinary object moves, so ObjectMove covers both), and each
        // thread's current chase: (object, consecutive forward hops).
        // Migrations keep a chase alive; any other action by the thread
        // ends it.
        let mut moves_done: HashMap<u64, u64> = HashMap::new();
        let mut chases: HashMap<ThreadId, (u64, u64)> = HashMap::new();
        for r in &events {
            if let ProtocolEvent::ObjectMove { obj, .. } = r.event {
                *moves_done.entry(obj).or_insert(0) += 1;
            }
            let Some(t) = r.thread else { continue };
            match r.event {
                ProtocolEvent::ForwardHop { obj, .. } => {
                    let chase = chases.entry(t).or_insert((obj, 0));
                    if chase.0 != obj {
                        *chase = (obj, 0);
                    }
                    chase.1 += 1;
                    let bound = moves_done.get(&obj).copied().unwrap_or(0) + 1;
                    prop_assert!(
                        chase.1 <= bound,
                        "{t} chased {obj:#x} for {} hops after only {} moves",
                        chase.1,
                        bound - 1
                    );
                }
                ProtocolEvent::ThreadMigration { .. } => {}
                _ => {
                    chases.remove(&t);
                }
            }
        }
        prop_assert_eq!(ProtocolSnapshot::from_events(&events), c.protocol_stats());
    }

    /// Replicas are behaviorally invisible: whatever values readers observe
    /// through advisor-installed replicas over a lossy network are exactly
    /// the values an origin-served run returns, and the captured trace
    /// (including `advisory_replications`) reconciles counter-for-counter
    /// with the live stats.
    #[test]
    fn replicas_are_behaviorally_invisible(
        seed in 0u64..(1u64 << 32),
        payload in 1u64..1_000_000,
        reads in 4u32..24,
    ) {
        use amber_core::{EngineChoice, FaultPlan, ProtocolSnapshot};
        use amber_placement::adaptive::{AdaptiveConfig, TrafficAdvisor};

        // Readers on every non-origin node each read `reads` times and
        // report the observed values; the driver returns them in node order.
        let observe = |advisor: bool| {
            let mut b = Cluster::builder()
                .nodes(4)
                .processors(2)
                .engine(EngineChoice::Sim)
                .demand_replication(false)
                .faults(
                    FaultPlan::seeded(seed)
                        .drop_rate(0.03)
                        .duplicate_rate(0.01),
                );
            if advisor {
                // A remote read costs ~8ms of virtual time, so a 30ms tick
                // window sees a few reads per node — enough to cross the
                // advisor's thresholds while readers are still running (at
                // higher read counts; low counts exercise the no-replica
                // path of the same assertions).
                b = b.adaptive_placement(|| {
                    TrafficAdvisor::new(AdaptiveConfig {
                        tick: SimTime::from_ms(30),
                        min_calls: 3,
                    })
                });
            }
            let c = b.build();
            let sink = c.enable_tracing();
            let values = c
                .run(move |ctx| {
                    let hot = ctx.create(payload);
                    ctx.set_immutable(&hot);
                    let hs: Vec<_> = (1..4u16)
                        .map(|node| {
                            let a = ctx.create_on(NodeId(node), 0u8);
                            ctx.start(&a, move |ctx, _| {
                                (0..reads)
                                    .map(|_| ctx.invoke_shared(&hot, |_, v| *v))
                                    .collect::<Vec<u64>>()
                            })
                        })
                        .collect();
                    hs.into_iter().map(|h| h.join(ctx)).collect::<Vec<_>>()
                })
                .unwrap();
            (values, sink.take(), c.protocol_stats())
        };

        let (origin_values, _, origin_stats) = observe(false);
        let (replica_values, events, stats) = observe(true);

        // Same observations, replica-served or not.
        prop_assert_eq!(&replica_values, &origin_values);
        for per_reader in &origin_values {
            prop_assert!(per_reader.iter().all(|&v| v == payload));
        }
        // The origin-served run never replicates; the advisor run's
        // replications (if its thresholds were crossed) all came from
        // advisories.
        prop_assert_eq!(origin_stats.replications, 0);
        prop_assert_eq!(stats.replications, stats.advisory_replications);
        // The sink lost nothing.
        prop_assert_eq!(ProtocolSnapshot::from_events(&events), stats);
    }
}

/// Exclusive invocation of an immutable object fails identically whether or
/// not replicas of it exist: replication must not change the error surface.
#[test]
fn exclusive_invoke_of_replicated_object_fails_like_origin() {
    let attempt = |replicate_first: bool| {
        let c = Cluster::sim(2, 2);
        c.run(move |ctx| {
            let hot = ctx.create(5u64);
            ctx.set_immutable(&hot);
            if replicate_first {
                // Demand replication (the default) installs a copy on the
                // reader's node before the exclusive attempt.
                let a = ctx.create_on(NodeId(1), 0u8);
                let h = ctx.start(&a, move |ctx, _| {
                    assert_eq!(ctx.invoke_shared(&hot, |_, v| *v), 5);
                    ctx.invoke(&hot, |_, v| *v += 1); // must panic
                });
                h.join(ctx);
            } else {
                ctx.invoke(&hot, |_, v| *v += 1); // must panic
            }
        })
        .unwrap_err()
        .to_string()
    };
    let origin = attempt(false);
    let replicated = attempt(true);
    for msg in [&origin, &replicated] {
        assert!(
            msg.contains("exclusive invocation of immutable object"),
            "unexpected error: {msg}"
        );
    }
    // Identical failure payload (both runs allocate the object at the same
    // address); only the panicking thread's name differs.
    let payload = |msg: &str| {
        let i = msg.find("panicked: ").expect("not a panic error");
        msg[i..].to_string()
    };
    assert_eq!(payload(&origin), payload(&replicated));
}
