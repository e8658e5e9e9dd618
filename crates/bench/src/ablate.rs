//! Section-4 ablations: function shipping vs data shipping, objects vs
//! pages.
//!
//! The paper argues three concrete pathologies of page-based DSM that
//! object-grained coherence avoids (sections 4.1-4.2). Each experiment here
//! runs the same logical workload through both memory systems, over the
//! same network and cost models, and reports the measured phase's time,
//! messages and bytes (setup traffic excluded):
//!
//! * **Lock contention** — a shared lock worked from several nodes. The
//!   Amber program clusters its threads at the lock for the sharing-intense
//!   phase (section 4.1's prescription); the DSM program's processes stay
//!   put and the lock/counter page shuttles between nodes.
//! * **Large objects** — one logical record larger than a page, accessed in
//!   its entirety from a remote node: one shipped thread vs one fault per
//!   page (section 4.2).
//! * **False sharing** — unrelated small variables packed into one page,
//!   each written by a different node: independent objects never
//!   communicate; the shared page ping-pongs (section 4.2).

use amber_core::{Cluster, Ctx, NodeId, SimTime};
use amber_dsm::Dsm;
use amber_sync::Lock;

/// Result of one ablation run (the measured phase only).
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Scheme + parameter label.
    pub label: String,
    /// Virtual elapsed time of the phase.
    pub elapsed: SimTime,
    /// Messages sent during the phase.
    pub msgs: u64,
    /// Payload bytes sent during the phase.
    pub bytes: u64,
    /// Fairness: spread between the first and last worker finishing
    /// (lock experiments only; zero otherwise).
    pub spread: SimTime,
    /// The run's schedule digest.
    pub digest: Option<u64>,
}

impl AblationRow {
    /// Formats as a printable table row.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.label.clone(),
            format!("{:.1}ms", self.elapsed.as_ms_f64()),
            self.msgs.to_string(),
            format!("{:.1}KB", self.bytes as f64 / 1e3),
            format!("{:.1}ms", self.spread.as_ms_f64()),
        ]
    }
}

/// Runs `phase` after `setup` on a fresh cluster, measuring only the
/// phase. The phase returns the per-worker fairness spread (or zero).
fn run_phases<S, P>(nodes: usize, procs: usize, label: String, setup: S) -> AblationRow
where
    S: FnOnce(&Ctx) -> P + Send + 'static,
    P: FnOnce(&Ctx) -> SimTime,
{
    let c = Cluster::sim(nodes, procs);
    let (elapsed, msgs, bytes, spread) = c
        .run(move |ctx| {
            let phase = setup(ctx);
            let (m0, b0) = ctx.net_totals();
            let t0 = ctx.now();
            let spread = phase(ctx);
            let (m1, b1) = ctx.net_totals();
            (ctx.now() - t0, m1 - m0, b1 - b0, spread)
        })
        .expect("ablation run failed");
    AblationRow {
        label,
        elapsed,
        msgs,
        bytes,
        spread,
        digest: c.schedule_digest(),
    }
}

/// Lock contention the Amber way: "function shipping ... clusters the
/// threads referencing a given object onto the same node, where
/// hardware-based synchronization and memory sharing can be used to their
/// fullest performance advantage" (section 4.1). Each worker migrates to
/// the lock's node for the sharing-intense phase (by moving its own anchor
/// object, which drags the bound thread along), runs its critical sections
/// locally, and migrates home.
pub fn lock_amber(nodes: usize, rounds: usize) -> AblationRow {
    run_phases(nodes, 2, format!("amber-lock {nodes} nodes"), move |ctx| {
        let lock = Lock::new(ctx);
        let counter = ctx.create(0u64);
        ctx.attach(&counter, &lock.object());
        move |ctx: &Ctx| {
            let hs: Vec<_> = (0..nodes)
                .map(|i| {
                    let home = NodeId::from(i);
                    let anchor = ctx.create_on(home, 0u8);
                    ctx.start(&anchor, move |ctx, _| {
                        // Cluster onto the lock's node for the phase.
                        ctx.move_to(&anchor, NodeId(0));
                        for _ in 0..rounds {
                            ctx.work(SimTime::from_us(200)); // think, clustered
                            lock.acquire(ctx);
                            ctx.invoke(&counter, |ctx, n| {
                                *n += 1;
                                ctx.work(SimTime::from_us(100));
                            });
                            lock.release(ctx);
                        }
                        let done = ctx.now();
                        // Back home for the program's next phase.
                        ctx.move_to(&anchor, home);
                        done
                    })
                })
                .collect();
            let finishes: Vec<SimTime> = hs.into_iter().map(|h| h.join(ctx)).collect();
            let total = ctx.invoke(&counter, |_, n| *n);
            assert_eq!(total as usize, nodes * rounds);
            spread_of(&finishes)
        }
    })
}

/// The same contention through a DSM lock variable (test-and-set on a
/// shared page) and a counter in the same memory; processes stay on their
/// home nodes, as in Ivy without explicit process migration.
pub fn lock_dsm(nodes: usize, rounds: usize) -> AblationRow {
    run_phases(nodes, 2, format!("dsm-lock   {nodes} nodes"), move |ctx| {
        let dsm = Dsm::new(ctx, 2, 1024);
        move |ctx: &Ctx| {
            let hs: Vec<_> = (0..nodes)
                .map(|i| {
                    let d = dsm.clone();
                    let anchor = ctx.create_on(NodeId::from(i), 0u8);
                    ctx.start(&anchor, move |ctx, _| {
                        for _ in 0..rounds {
                            ctx.work(SimTime::from_us(200)); // think, at home
                                                             // Spin on the lock byte at address 0. The poll
                                                             // charge matters twice over: spinning burns real
                                                             // CPU, and a zero-cost yield loop would pin the
                                                             // virtual clock (nothing else could ever run).
                            while d.test_and_set(ctx, 0) != 0 {
                                ctx.work(SimTime::from_us(5));
                                ctx.yield_now();
                            }
                            // Critical section: bump the counter at 8.
                            let v = d.read_u64(ctx, 8);
                            ctx.work(SimTime::from_us(100));
                            d.write_u64(ctx, 8, v + 1);
                            d.clear_byte(ctx, 0);
                        }
                        ctx.now()
                    })
                })
                .collect();
            let finishes: Vec<SimTime> = hs.into_iter().map(|h| h.join(ctx)).collect();
            let total = dsm.read_u64(ctx, 8);
            assert_eq!(total as usize, nodes * rounds);
            spread_of(&finishes)
        }
    })
}

/// Remote whole-record access through Amber: the record is one object on
/// node 1; a node-0 thread invokes one summing operation on it (the thread
/// ships, reads locally, ships back).
pub fn large_object_amber(record_bytes: usize) -> AblationRow {
    run_phases(
        2,
        1,
        format!("amber {record_bytes:>6}B record"),
        move |ctx| {
            let record = ctx.create_on(NodeId(1), vec![1u8; record_bytes]);
            let anchor = ctx.create(0u8);
            move |ctx: &Ctx| {
                let sum = ctx.invoke(&anchor, |ctx, _| {
                    ctx.invoke_shared(&record, |ctx, r| {
                        ctx.work(SimTime::from_ns(10 * r.len() as u64));
                        r.iter().map(|b| *b as u64).sum::<u64>()
                    })
                });
                assert_eq!(sum as usize, record_bytes);
                SimTime::ZERO
            }
        },
    )
}

/// The same record in DSM pages, read in its entirety from node 0: one
/// fault and one page transfer per page (section 4.2's multi-fault cost).
pub fn large_object_dsm(record_bytes: usize, page_size: usize) -> AblationRow {
    run_phases(
        2,
        1,
        format!("dsm   {record_bytes:>6}B record / {page_size}B pages"),
        move |ctx| {
            let pages = record_bytes.div_ceil(page_size);
            let dsm = Dsm::new(ctx, pages, page_size);
            // Node 1 owns and initializes the record.
            let d = dsm.clone();
            let init = ctx.create_on(NodeId(1), 0u8);
            ctx.start(&init, move |ctx, _| {
                d.write(ctx, 0, &vec![1u8; record_bytes]);
            })
            .join(ctx);
            let dsm2 = dsm.clone();
            move |ctx: &Ctx| {
                let mut buf = vec![0u8; record_bytes];
                dsm2.read(ctx, 0, &mut buf);
                ctx.work(SimTime::from_ns(10 * record_bytes as u64));
                let sum: u64 = buf.iter().map(|b| *b as u64).sum();
                assert_eq!(sum as usize, record_bytes);
                SimTime::ZERO
            }
        },
    )
}

/// Unrelated per-node counters as separate Amber objects, each placed on
/// its writer's node: all updates are local, zero phase traffic.
pub fn false_sharing_amber(writers: usize, rounds: usize) -> AblationRow {
    run_phases(
        writers,
        1,
        format!("amber {writers} private objects"),
        move |ctx| {
            let counters: Vec<_> = (0..writers)
                .map(|i| ctx.create_on(NodeId::from(i), 0u64))
                .collect();
            let anchors: Vec<_> = (0..writers)
                .map(|i| ctx.create_on(NodeId::from(i), 0u8))
                .collect();
            move |ctx: &Ctx| {
                let hs: Vec<_> = (0..writers)
                    .map(|i| {
                        let counter = counters[i];
                        ctx.start(&anchors[i], move |ctx, _| {
                            for _ in 0..rounds {
                                ctx.invoke(&counter, |_, n| *n += 1);
                                ctx.work(SimTime::from_us(200));
                            }
                        })
                    })
                    .collect();
                for h in hs {
                    h.join(ctx);
                }
                SimTime::ZERO
            }
        },
    )
}

/// The same counters packed into one DSM page (64 bytes apart), each
/// written by a different node: artificial sharing ping-pongs the page.
pub fn false_sharing_dsm(writers: usize, rounds: usize) -> AblationRow {
    run_phases(
        writers,
        1,
        format!("dsm   {writers} packed variables"),
        move |ctx| {
            let dsm = Dsm::new(ctx, 1, 1024);
            let anchors: Vec<_> = (0..writers)
                .map(|i| ctx.create_on(NodeId::from(i), 0u8))
                .collect();
            move |ctx: &Ctx| {
                let hs: Vec<_> = (0..writers)
                    .map(|i| {
                        let d = dsm.clone();
                        ctx.start(&anchors[i], move |ctx, _| {
                            let addr = i * 64;
                            for _ in 0..rounds {
                                let v = d.read_u64(ctx, addr);
                                d.write_u64(ctx, addr, v + 1);
                                ctx.work(SimTime::from_us(200));
                            }
                        })
                    })
                    .collect();
                for h in hs {
                    h.join(ctx);
                }
                SimTime::ZERO
            }
        },
    )
}

/// Max minus min of a set of finish times.
fn spread_of(times: &[SimTime]) -> SimTime {
    let lo = times.iter().copied().min().unwrap_or(SimTime::ZERO);
    let hi = times.iter().copied().max().unwrap_or(SimTime::ZERO);
    hi - lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_lock_traffic_is_constant_while_dsm_grows() {
        // Function shipping pays a fixed migration cost per worker,
        // independent of how long the sharing phase lasts; the DSM lock's
        // page traffic grows with the number of critical sections.
        let a_short = lock_amber(4, 10);
        let a_long = lock_amber(4, 40);
        let d_short = lock_dsm(4, 10);
        let d_long = lock_dsm(4, 40);
        let amber_growth = a_long.msgs.saturating_sub(a_short.msgs);
        let dsm_growth = d_long.msgs.saturating_sub(d_short.msgs);
        assert!(
            amber_growth <= 4,
            "clustered traffic should not grow with rounds, grew {amber_growth}"
        );
        assert!(
            dsm_growth > amber_growth,
            "dsm grew {dsm_growth}, amber {amber_growth}"
        );
    }

    #[test]
    fn lock_results_are_correct_and_deterministic() {
        // The headline section-4.1 claim is carried by the traffic-growth
        // test above; here we pin determinism and sanity of both schemes
        // (fairness spreads are reported by the harness but are parameter-
        // dependent in both directions, so they are not asserted).
        let a1 = lock_amber(4, 25);
        let a2 = lock_amber(4, 25);
        assert_eq!(a1.elapsed, a2.elapsed);
        assert_eq!(a1.msgs, a2.msgs);
        let d1 = lock_dsm(4, 25);
        let d2 = lock_dsm(4, 25);
        assert_eq!(d1.elapsed, d2.elapsed);
        assert_eq!(d1.msgs, d2.msgs);
    }

    #[test]
    fn one_invocation_beats_many_page_faults() {
        let a = large_object_amber(64 * 1024);
        let d = large_object_dsm(64 * 1024, 1024);
        assert!(
            a.elapsed < d.elapsed,
            "amber {} should beat dsm {}",
            a.elapsed,
            d.elapsed
        );
        assert!(
            a.msgs < d.msgs / 10,
            "amber: {} msgs, dsm: {}",
            a.msgs,
            d.msgs
        );
    }

    #[test]
    fn private_objects_avoid_false_sharing() {
        let a = false_sharing_amber(4, 10);
        let d = false_sharing_dsm(4, 10);
        // Well-placed objects touch the network only to start/join the
        // remote worker threads; the updates themselves are free, while
        // the packed page keeps moving.
        assert!(
            d.msgs >= 2 * a.msgs,
            "amber {} vs dsm {} msgs",
            a.msgs,
            d.msgs
        );
        assert!(a.elapsed < d.elapsed);
    }
}
