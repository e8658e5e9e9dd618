//! Installing a custom scheduler at runtime (paper, section 2.1): "an
//! application can install a custom scheduling discipline at runtime by
//! replacing the system scheduler object with a similar object that
//! supports the same interface".
//!
//! This example defines a shortest-job-first policy (priority = negated
//! expected burst) and shows priorities reordering completion under it,
//! then swaps in round-robin timeslicing mid-program.
//!
//! Run with: `cargo run --example custom_sched`

use amber_core::{Cluster, NodeId};
use amber_engine::policy::{RoundRobin, Scheduler};
use amber_engine::{SimTime, ThreadId};

/// A shortest-job-first ready queue: highest priority value first, which
/// callers set to the negated expected burst length.
struct ShortestJobFirst {
    queue: Vec<(ThreadId, i32)>,
}

impl Scheduler for ShortestJobFirst {
    fn enqueue(&mut self, thread: ThreadId, priority: i32) {
        self.queue.push((thread, priority));
    }

    fn dequeue(&mut self) -> Option<ThreadId> {
        let best = self
            .queue
            .iter()
            .enumerate()
            .max_by_key(|(i, (_, p))| (*p, std::cmp::Reverse(*i)))?
            .0;
        Some(self.queue.remove(best).0)
    }
}

fn main() {
    let cluster = Cluster::sim(1, 1);
    cluster
        .run(|ctx| {
            // Install SJF on the (single) node at runtime.
            ctx.install_scheduler(NodeId(0), Box::new(ShortestJobFirst { queue: Vec::new() }));

            let order = ctx.create(Vec::<(u64, u64)>::new());
            // Start long jobs first; SJF should still complete short ones
            // earlier once the queue fills.
            let bursts = [40u64, 30, 20, 10, 5];
            let hs: Vec<_> = bursts
                .iter()
                .map(|&ms| {
                    let anchor = ctx.create(0u8);
                    ctx.start(&anchor, move |ctx, _| {
                        ctx.set_priority(-(ms as i32)); // negated burst = SJF
                        ctx.work(SimTime::from_ms(ms));
                        let t = ctx.now().as_ms();
                        ctx.invoke(&order, move |_, o| o.push((ms, t)));
                    })
                })
                .collect();
            for h in hs {
                h.join(ctx);
            }
            let completions = ctx.invoke(&order, |_, o| o.clone());
            println!("shortest-job-first completions (burst ms, finished at ms):");
            for (burst, at) in &completions {
                println!("  {burst:>3}ms job finished at {at:>4}ms");
            }

            // Swap to round-robin timeslicing mid-program.
            ctx.install_scheduler(NodeId(0), Box::new(RoundRobin::new(SimTime::from_ms(2))));
            let t0 = ctx.now();
            let anchors: Vec<_> = (0..2).map(|_| ctx.create(0u8)).collect();
            let hs: Vec<_> = anchors
                .iter()
                .map(|a| ctx.start(a, |ctx, _| ctx.work(SimTime::from_ms(20))))
                .collect();
            for h in hs {
                h.join(ctx);
            }
            println!(
                "\nround-robin (2ms quantum): two 20ms jobs interleaved, both done after {}",
                ctx.now() - t0
            );
        })
        .expect("custom_sched failed");

    let stats = cluster.net_stats();
    println!("preemptions recorded: {}", stats.node(0).preemptions);
}
