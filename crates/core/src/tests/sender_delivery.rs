//! On the real engine a thread with no delay and no fault plan takes its
//! own zero-latency leg: it hands its processor token back, stores the new
//! node and takes a token there without ever blocking. These hold the
//! token discipline to that: a thread computes on a node only while it
//! holds one of that node's processors, and a wake is consumed by the wait
//! it was posted for.

use super::*;
use amber_engine::{ClusterSpec, Engine, RealEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const ROUNDS: u64 = 2_000;

fn real_2n1p() -> (Arc<RealEngine>, Cluster) {
    let spec = ClusterSpec::uniform(2, 1).with_latency(LatencyModel::zero());
    let engine = Arc::new(RealEngine::new(spec).with_deadline(Duration::from_secs(60)));
    let cluster = Cluster::on_engine(Arc::clone(&engine) as Arc<dyn Engine>);
    (engine, cluster)
}

/// One thread rooted on each node, each invoking `ROUNDS` times an
/// object that lives on the other's node. Every stretch of user code
/// raises its node's flag; the result is the two counters and whether
/// two stretches ever shared a node.
fn ping_pong(c: &Cluster) -> ([u64; 2], bool) {
    let busy = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
    let overlapped = Arc::new(AtomicBool::new(false));
    let overlapped2 = Arc::clone(&overlapped);
    let counts = c
        .run(move |ctx| {
            let nodes = [NodeId(0), NodeId(1)];
            let anchors = nodes.map(|n| ctx.create_on(n, 0u8));
            let counters = nodes.map(|n| ctx.create_on(n, 0u64));
            let hs = [0usize, 1].map(|i| {
                let far = counters[1 - i];
                let busy = Arc::clone(&busy);
                let overlapped = Arc::clone(&overlapped2);
                ctx.start(&anchors[i], move |ctx, _| {
                    let occupy = |ctx: &crate::Ctx| {
                        let flag = &busy[ctx.node().index()];
                        if flag.swap(true, Ordering::SeqCst) {
                            overlapped.store(true, Ordering::SeqCst);
                        }
                        for _ in 0..2_000 {
                            std::hint::spin_loop();
                        }
                        flag.store(false, Ordering::SeqCst);
                    };
                    for _ in 0..ROUNDS {
                        // Both threads are born on the boot node; giving
                        // its one processor up each round is what lets
                        // them run side by side at all.
                        ctx.yield_now();
                        occupy(ctx);
                        ctx.invoke(&far, |ctx, n| {
                            occupy(ctx);
                            *n += 1;
                        });
                    }
                })
            });
            for h in hs {
                h.join(ctx);
            }
            counters.map(|o| ctx.invoke(&o, |_, n| *n))
        })
        .unwrap();
    (counts, overlapped.load(Ordering::SeqCst))
}

#[test]
fn migrating_threads_never_share_a_one_processor_node() {
    let (engine, c) = real_2n1p();
    let (counts, overlapped) = ping_pong(&c);
    assert_eq!(counts, [ROUNDS; 2]);
    assert!(!overlapped, "two threads computed on one 1-processor node");
    // The run is over: every processor is back in its node's pool.
    for n in [NodeId(0), NodeId(1)] {
        assert_eq!(engine.idle_processors(n), engine.processors(n), "{n}");
    }
}

#[test]
fn the_same_program_is_unmoved_on_the_simulator() {
    // There the handler never ran inside `send`, so blocking before the
    // test is the order the waits always took. The three numbers are
    // what the commit before the loops were turned round printed.
    let c = Cluster::sim(2, 1);
    let (counts, overlapped) = ping_pong(&c);
    assert_eq!(counts, [ROUNDS; 2]);
    assert!(!overlapped);
    assert_eq!(c.now(), SimTime::from_ns(16_675_755_000));
    assert_eq!(c.net_stats().total_msgs(), 8011);
    assert_eq!(c.protocol_stats().thread_migrations, 8003);
}

#[test]
fn a_kernel_wait_after_a_network_leg_waits_for_its_own_wake() {
    let (engine, c) = real_2n1p();
    c.run(move |ctx| {
        // A wake left over from the leg would let the wait through
        // before the waker has raised its flag.
        let wait_for_waker = || {
            let me = ctx.thread_id();
            let raised = AtomicBool::new(false);
            let (about_to_wait, waiting) = std::sync::mpsc::channel();
            std::thread::scope(|s| {
                let (raised, engine) = (&raised, &engine);
                s.spawn(move || {
                    waiting.recv().unwrap();
                    std::thread::sleep(Duration::from_millis(5));
                    raised.store(true, Ordering::SeqCst);
                    engine.unblock_kernel(me);
                });
                about_to_wait.send(()).unwrap();
                engine.block_kernel("test-wait");
                assert!(raised.load(Ordering::SeqCst), "woken by a stale permit");
            });
        };
        let far = ctx.create_on(NodeId(1), 0u64);
        ctx.invoke(&far, |_, n| *n += 1);
        assert_eq!(ctx.node(), NodeId(1), "the invoke migrated");
        wait_for_waker();
        ctx.kernel().one_way(NodeId(1), NodeId(0), 64, "test-leg");
        wait_for_waker();
    })
    .unwrap();
}
