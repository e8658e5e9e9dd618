//! Chaos stress: the full runtime protocol stack driven over a lossy
//! network. A seeded [`FaultPlan`] drops 5% of message attempts, duplicates
//! 2%, and severs one link for a scripted window; the reliability sublayer
//! under the engine must retransmit, dedup and heal so that, at the protocol
//! layer, nothing is lost and nothing runs twice.
//!
//! Every test asserts three things:
//!
//! 1. **No deadlock, no lost replies** — storms of invocations and rival
//!    attachment-group moves complete with exact results.
//! 2. **At-most-once delivery** — every injected duplicate is suppressed by
//!    the receiver's dedup window (`dups_suppressed == dups_injected`).
//! 3. **Nothing lost on the way to the sink** — a trace captured over the
//!    whole run folds ([`ProtocolSnapshot::from_events`]) to exactly
//!    `protocol_stats()`, fault events included: one `emit` feeds counter
//!    and trace.
//!
//! The simulated engine keeps the chaos deterministic: the fault seed comes
//! from `AMBER_FAULT_SEED` (decimal) so CI can sweep seeds, and a given seed
//! always replays the same drops, duplicates and retransmissions.

use amber_core::{Cluster, EngineChoice, FaultPlan, NodeId, ProtocolSnapshot, SimTime};
use amber_engine::LatencyModel;
use amber_placement::adaptive::{AdaptiveConfig, TrafficAdvisor};

fn fault_seed() -> u64 {
    std::env::var("AMBER_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xA3BE)
}

/// Every chaos test runs twice: with no placement policy, and with an
/// eager traffic advisor layered over the same fault plan, so advisory
/// moves race the drops, duplicates and the partition. The assertions
/// are the same for both: the advisor must stay behaviorally invisible.
const ADVISOR: [bool; 2] = [false, true];

/// 5% drops, 2% duplicates, and a 0<->1 partition that heals at 25ms.
fn chaos_plan() -> FaultPlan {
    FaultPlan::seeded(fault_seed())
        .drop_rate(0.05)
        .duplicate_rate(0.02)
        .partition(
            NodeId(0),
            NodeId(1),
            SimTime::from_ms(5),
            SimTime::from_ms(25),
        )
}

fn lossy_cluster(nodes: usize, procs: usize, advisor: bool) -> Cluster {
    let mut b = Cluster::builder()
        .nodes(nodes)
        .processors(procs)
        .engine(EngineChoice::Sim)
        .faults(chaos_plan());
    if advisor {
        b = b.adaptive_placement(|| {
            TrafficAdvisor::new(AdaptiveConfig {
                tick: SimTime::from_ms(10),
                min_calls: 2,
            })
        });
    }
    b.build()
}

/// Every injected duplicate was suppressed (at-most-once delivery), and
/// the captured trace folds to the live counters, in total and node by node
/// (a node's row holds the events it is the principal of: the messages it
/// sent, the duplicates it suppressed): the sink lost nothing.
fn assert_ledger_balances(c: &Cluster, sink: &amber_core::MemorySink) {
    let (p, events) = (c.protocol_stats(), sink.take());
    assert_eq!(
        p.dups_suppressed, p.dups_injected,
        "a duplicated delivery ran a handler twice (or was never suppressed)"
    );
    assert_eq!(
        ProtocolSnapshot::from_events(&events),
        p,
        "a sink lost or doubled protocol events"
    );
    let net = c.net_stats();
    for i in 0..c.nodes() {
        let about: Vec<_> = events
            .iter()
            .filter(|r| r.event.node().index() == i)
            .cloned()
            .collect();
        let row = net.node(i).events;
        assert_eq!(ProtocolSnapshot::from_events(&about), row, "node {i}");
        assert!(row.messages > 0, "node {i} never sent");
    }
}

/// An advisor run in which the advisor proposed nothing tests the same
/// thing as the run without one.
fn assert_advisor_acted(c: &Cluster, advisor: bool) {
    let p = c.protocol_stats();
    assert!(
        !advisor || p.advisory_moves + p.advisory_skips > 0,
        "the advisor never proposed: {p:?}"
    );
}

#[test]
fn invoke_storm_survives_lossy_links() {
    for advisor in ADVISOR {
        let c = lossy_cluster(4, 2, advisor);
        let sink = c.enable_tracing();
        let total = c
            .run(|ctx| {
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
                for h in invokers {
                    h.join(ctx);
                }
                let total = counters
                    .iter()
                    .map(|obj| ctx.invoke(obj, |_, n| *n))
                    .sum::<u64>();
                // Drain: duplicate copies of the last replies may still be in
                // flight; let them arrive (and be suppressed) before the run
                // ends so the dedup ledger below balances exactly.
                ctx.sleep(SimTime::from_ms(200));
                total
            })
            .unwrap();
        assert_eq!(total, 400, "lost or repeated invocations under loss");
        assert_advisor_acted(&c, advisor);

        let p = c.protocol_stats();
        assert!(p.drops > 0, "chaos plan injected no drops");
        assert!(p.retransmits > 0, "losses were never repaired");
        assert_ledger_balances(&c, &sink);
    }
}

#[test]
fn rival_group_moves_heal_through_partition() {
    for advisor in ADVISOR {
        // Two attachment groups moved concurrently in opposite directions while
        // the 0<->1 link is down for 20ms of the run: group-move control
        // traffic crossing the partition must retransmit until it heals, and
        // the rival group claims must still never deadlock.
        let c = lossy_cluster(4, 2, advisor);
        let sink = c.enable_tracing();
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
            // Off-node traffic on group 0's root while its mover has it in
            // flight. Seated on this node, the pullers all start inside one
            // tick, so their first calls make one sample with a dominant
            // remote caller and the traffic advisor proposes its own move
            // of the group against the user's (declined `mid-move`, or
            // racing the mover's next claim); after the mover's last move
            // the rest of the pulls earn a second proposal.
            let pullers: Vec<_> = (0..4)
                .map(|_| {
                    let root = roots[0];
                    let seat = ctx.create(0u8);
                    ctx.start(&seat, move |ctx, _| {
                        for _ in 0..10 {
                            ctx.invoke(&root, |_, n| *n += 1);
                        }
                    })
                })
                .collect();
            for h in movers.into_iter().chain(pullers) {
                h.join(ctx);
            }
            // Both groups are intact wherever the last move left them.
            for root in &roots {
                ctx.locate(root);
            }
            assert_eq!(ctx.invoke(&roots[0], |_, n| *n), 40, "lost a pull");
            ctx.sleep(SimTime::from_ms(200));
        })
        .unwrap();
        assert_advisor_acted(&c, advisor);

        assert_ledger_balances(&c, &sink);
    }
}

#[test]
fn chaos_replays_identically_for_a_seed() {
    for advisor in ADVISOR {
        // Same seed, same program -> bit-identical fault schedule and repair
        // history, which is what makes a failing CI seed reproducible locally.
        let observe = || {
            let c = lossy_cluster(4, 2, advisor);
            c.run(|ctx| {
                // Two remote objects on different nodes: alternating invokes
                // migrate the thread back and forth, crossing the lossy (and
                // briefly partitioned) links on every iteration.
                let a = ctx.create_on(NodeId(1), 0u64);
                let b = ctx.create_on(NodeId(2), 0u64);
                for _ in 0..50 {
                    ctx.invoke(&a, |_, n| *n += 1);
                    ctx.invoke(&b, |_, n| *n += 1);
                }
                ctx.sleep(SimTime::from_ms(200));
            })
            .unwrap();
            c.protocol_stats()
        };
        let a = observe();
        let b = observe();
        assert_eq!(a, b, "chaos schedule was not deterministic for the seed");
        // The advisor pulls both objects next to the caller within a few
        // ticks, after which its run sends too little to be sure of a drop.
        if !advisor {
            assert!(a.drops > 0, "seeded plan produced no drops at all");
        }
    }
}

#[test]
fn engine_facts_are_counted_without_a_sink() {
    // Real threads, a lossy link and nobody tracing: the message facts are
    // in `protocol_stats()` all the same, and they are the rows `NetStats`'
    // totals read.
    let c = Cluster::builder()
        .nodes(2)
        .processors(2)
        .engine(EngineChoice::Real)
        .latency(LatencyModel::zero())
        .deadline(std::time::Duration::from_secs(60))
        .faults(
            FaultPlan::seeded(fault_seed())
                .drop_rate(0.2)
                .duplicate_rate(0.1),
        )
        .build();
    c.run(|ctx| {
        let far = ctx.create_on(NodeId(1), 0u64);
        // Anchored on node 0: every invoke ships the thread out and back.
        let anchor = ctx.create(0u8);
        ctx.start(&anchor, move |ctx, _| {
            for _ in 0..60 {
                ctx.invoke(&far, |_, n| *n += 1);
            }
        })
        .join(ctx);
        assert_eq!(ctx.invoke(&far, |_, n| *n), 60);
    })
    .unwrap();
    // Every leg was waited out, so nothing is left to drop or retransmit
    // (a late duplicate copy may still land: those two are not compared).
    let (p, net) = (c.protocol_stats(), c.net_stats());
    assert!(p.messages > 0 && p.drops > 0 && p.retransmits > 0, "{p:?}");
    assert_eq!(
        (p.messages, p.drops, p.retransmits),
        (net.total_msgs(), net.total_drops(), net.total_retransmits())
    );
}
