//! The traffic advisor against the same program without it.
//!
//! Placement in the paper is entirely program-controlled; the advisor is
//! ours, so it has to earn its place. Two claims are about the mechanism
//! and the simulator settles them exactly: on skewed traffic the advisor's
//! moves cut forward hops, and on read-hot immutables its replicas cut
//! remote invokes. The third is a cost, so it is timed: on work it cannot
//! improve the advisor's bookkeeping keeps 0.9 of the invoke rate.

use std::time::{Duration, Instant};

use amber_core::{Cluster, Ctx, EngineChoice, LatencyModel, NodeId, ObjRef};
use amber_placement::adaptive::{AdaptiveConfig, TrafficAdvisor};

/// Invocations per worker in the simulated runs.
const OPS: u64 = 200;

/// `skew_adaptive_sim`'s advisor: the stock policy with a 150 ms tick and a
/// floor of six calls. A remote invoke takes ~8 ms of virtual time, so a
/// worker's 200 span about ten ticks.
fn advisor() -> TrafficAdvisor {
    TrafficAdvisor::new(AdaptiveConfig {
        tick: amber_core::SimTime::from_ms(150),
        min_calls: 6,
    })
}

/// Runs `program` on a simulated `nodes`-node cluster with the advisor off,
/// then on, and returns both results in that order.
fn off_and_on<R: Send + 'static>(
    nodes: usize,
    demand_replication: bool,
    program: fn(&Ctx) -> R,
) -> [R; 2] {
    [false, true].map(|on| {
        let b = Cluster::builder()
            .nodes(nodes)
            .processors(2)
            .demand_replication(demand_replication);
        let b = if on { b.adaptive_placement(advisor) } else { b };
        b.build().run(program).unwrap()
    })
}

/// One pinned anchor per node for a worker to start on: the advisor must
/// move the data, not the workers.
fn anchors(ctx: &Ctx) -> Vec<ObjRef<u8>> {
    (0..ctx.nodes())
        .map(|k| {
            let anchor = ctx.create_on(NodeId::from(k), 0u8);
            ctx.pin(&anchor);
            anchor
        })
        .collect()
}

/// Worker `k` invokes, `OPS` times, a counter created on node `k + 1`.
/// Returns the counters' sum and the forward hops and thread migrations
/// the workers took.
fn skewed(ctx: &Ctx) -> (u64, u64, u64) {
    let n = ctx.nodes();
    let counters: Vec<ObjRef<u64>> = (0..n)
        .map(|k| ctx.create_on(NodeId::from((k + 1) % n), 0u64))
        .collect();
    let s0 = ctx.protocol_stats();
    let workers: Vec<_> = anchors(ctx)
        .iter()
        .zip(counters.clone())
        .map(|(anchor, counter)| {
            ctx.start(anchor, move |ctx, _| {
                for _ in 0..OPS {
                    ctx.invoke(&counter, |_, c| *c += 1);
                }
            })
        })
        .collect();
    workers.into_iter().for_each(|w| w.join(ctx));
    let s1 = ctx.protocol_stats();
    let sum = counters.iter().map(|c| ctx.invoke(c, |_, c| *c)).sum();
    (
        sum,
        s1.forward_hops - s0.forward_hops,
        s1.thread_migrations - s0.thread_migrations,
    )
}

#[test]
fn the_advisor_localizes_skewed_traffic() {
    for nodes in [2, 4, 8] {
        let [(off_sum, off_hops, off_migrations), (on_sum, on_hops, on_migrations)] =
            off_and_on(nodes, true, skewed);
        println!(
            "{nodes} nodes: forward hops {off_hops} -> {on_hops}, \
             migrations {off_migrations} -> {on_migrations}"
        );
        assert_eq!((off_sum, on_sum), (nodes as u64 * OPS, nodes as u64 * OPS));
        assert!(
            on_hops < off_hops,
            "{nodes} nodes: {on_hops} forward hops advised, {off_hops} static"
        );
        if nodes == 4 {
            let (off, on) = (off_hops + off_migrations, on_hops + on_migrations);
            assert!(
                2 * on <= off,
                "4 nodes: hops + migrations {on} advised, {off} static"
            );
        }
    }
}

/// Two immutables live on node 0 and demand replication is off. Every
/// worker but node 0's reads them, bar a local bump every eighth op; node
/// 0's worker only bumps. Returns the sum of the values read and the remote
/// invokes the workers took.
fn read_hot(ctx: &Ctx) -> (u64, u64) {
    let hot: Vec<ObjRef<u64>> = (0..2)
        .map(|i| {
            let h = ctx.create_on(NodeId(0), 7 + i);
            ctx.set_immutable(&h);
            h
        })
        .collect();
    let s0 = ctx.protocol_stats();
    let workers: Vec<_> = anchors(ctx)
        .iter()
        .enumerate()
        .map(|(k, anchor)| {
            let hot = hot.clone();
            ctx.start(anchor, move |ctx, _| {
                let counter = ctx.create(0u64);
                let mut read = 0;
                for i in 0..OPS {
                    if k == 0 || i % 8 == 7 {
                        ctx.invoke(&counter, |_, c| *c += 1);
                    } else {
                        read += ctx.invoke_shared(&hot[i as usize % 2], |_, v| *v);
                    }
                }
                read
            })
        })
        .collect();
    let read = workers.into_iter().map(|w| w.join(ctx)).sum();
    (
        read,
        ctx.protocol_stats().remote_invokes - s0.remote_invokes,
    )
}

#[test]
fn the_advisor_replicates_read_hot_immutables() {
    for nodes in [2, 4, 8] {
        let [(off_read, off_remote), (on_read, on_remote)] = off_and_on(nodes, false, read_hot);
        println!("{nodes} nodes: remote invokes {off_remote} -> {on_remote}");
        assert_eq!(
            on_read, off_read,
            "{nodes} nodes: a replica read differently"
        );
        assert!(
            on_remote < off_remote,
            "{nodes} nodes: {on_remote} remote invokes advised, {off_remote} static"
        );
        if nodes == 4 {
            assert!(
                2 * on_remote <= off_remote,
                "4 nodes: {on_remote} advised, {off_remote} static"
            );
        }
    }
}

/// Invocations per second of one worker invoking a counter on its own
/// node, on `RealEngine`, for at least `window`. The node's second
/// processor is the placement daemon's, so a tick never waits for the
/// worker to give its processor up.
fn local_invoke_rate(advised: bool, window: Duration) -> f64 {
    let b = Cluster::builder()
        .processors(2)
        .engine(EngineChoice::Real)
        .latency(LatencyModel::zero())
        .deadline(Duration::from_secs(60));
    let b = if advised {
        b.adaptive_placement(|| TrafficAdvisor::new(AdaptiveConfig::default()))
    } else {
        b
    };
    b.build()
        .run(move |ctx| {
            let counter = ctx.create(0u64);
            let t0 = Instant::now();
            let mut ops = 0;
            while ops % 1024 != 0 || t0.elapsed() < window {
                ctx.invoke(&counter, |_, c| *c += 1);
                ops += 1;
            }
            let rate = ops as f64 / t0.elapsed().as_secs_f64();
            assert_eq!(ctx.invoke(&counter, |_, c| *c), ops);
            rate
        })
        .unwrap()
}

#[test]
#[ignore = "looks at time: cargo test --release --test advisor -- --ignored"]
fn the_advisor_costs_local_invokes_under_a_tenth() {
    // The median of per-pair rate ratios over batches alternated in one
    // process, so host speed and drift cancel. One worker, so it never
    // shares a CPU with a second one; each batch spans four of the stock
    // advisor's ticks, so the ticks are priced too.
    const BATCHES: usize = 21;
    let window = Duration::from_millis(4 * AdaptiveConfig::default().tick.as_ms());
    let mut ratios: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let off = local_invoke_rate(false, window);
            local_invoke_rate(true, window) / off
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[BATCHES / 2];
    println!(
        "advisor on/off local invoke rate: median {median:.3}x, range {:.3}-{:.3}x",
        ratios[0],
        ratios[BATCHES - 1]
    );
    assert!(
        median >= 0.9,
        "the advisor keeps {median:.3}x of the local invoke rate"
    );
}
