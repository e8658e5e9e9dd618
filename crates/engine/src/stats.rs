//! Cluster-wide protocol, network and scheduling counters.
//!
//! The paper argues that "the performance of a distributed system is best
//! evaluated ... by the degree to which the system prevents unnecessary
//! network communication" (section 5). These counters make that degree
//! observable: every experiment harness reports messages and bytes alongside
//! elapsed time.
//!
//! There is no list of counters here. The event table in [`crate::trace`]
//! declares each fact once — the runtime's (invocations, moves, hops, ...)
//! and the engine's own (messages, drops, retransmissions, duplicates) alike
//! — and [`Tracer::emit`](crate::Tracer::emit) is the only writer: it adds
//! one to the event's slot in its node's row and hands the same event to the
//! trace sink. The `total_*` readers, [`NetStats::snapshot`] and a captured
//! stream folded with [`ProtocolSnapshot::from_events`] therefore agree by
//! construction; what can still go wrong is a sink losing events. Beside
//! the event slots a row keeps the three facts that are not events: payload
//! bytes, dispatches and preemptions.
//!
//! Counting must not cost what it counts, so a count is a plain load and
//! store, not an atomic read-modify-write. Each OS thread that counts gets
//! a *shard* of its own — one row per node — that no other thread writes:
//! the calling thread finds it through a thread-local cache, and the
//! readers sum every shard. A `SimEngine` run counts into one shard (every
//! simulated thread runs on the run's OS thread); under `RealEngine` each
//! Amber thread, the timer thread and any outside caller has its own.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use parking_lot::Mutex;

use crate::trace::{EventKind, ProtocolEvent, ProtocolSnapshot};

/// One node's counters in one shard, aligned so that no two rows share a
/// cache line: a thread that counts never writes a line another thread
/// writes.
#[repr(align(128))]
struct NodeRow {
    /// One slot per [`EventKind`].
    events: [AtomicU64; EventKind::COUNT],
    bytes_out: AtomicU64,
    dispatches: AtomicU64,
    preemptions: AtomicU64,
}

/// Adds `n` to a slot only the calling thread writes: a load and a store,
/// with no `lock` prefix on x86, where a `fetch_add` is a `lock`ed
/// instruction. A reader on another thread sees the old value or the new
/// one.
#[inline]
fn add(slot: &AtomicU64, n: u64) {
    slot.store(slot.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

fn read(slot: &AtomicU64) -> u64 {
    slot.load(Ordering::Relaxed)
}

fn fold<'a>(rows: impl Iterator<Item = &'a NodeRow>) -> ProtocolSnapshot {
    let mut counts = [0u64; EventKind::COUNT];
    for row in rows {
        for (total, slot) in counts.iter_mut().zip(&row.events) {
            *total += read(slot);
        }
    }
    ProtocolSnapshot::from_counts(&counts)
}

/// One writer's rows, one per node.
struct Shard {
    rows: Box<[NodeRow]>,
}

impl Shard {
    fn new(nodes: usize) -> Shard {
        Shard {
            rows: (0..nodes)
                .map(|_| NodeRow {
                    events: std::array::from_fn(|_| AtomicU64::new(0)),
                    bytes_out: AtomicU64::new(0),
                    dispatches: AtomicU64::new(0),
                    preemptions: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Counts one event in its principal node's row; a message's payload is
    /// added to the row's bytes. An event about a node outside the cluster
    /// (a declined advisory's proposed target) lands in row 0.
    #[inline]
    fn count(&self, event: &ProtocolEvent) {
        let row = self
            .rows
            .get(event.node().index())
            .unwrap_or_else(|| &self.rows[0]);
        add(&row.events[event.kind() as usize], 1);
        if let ProtocolEvent::MessageSend { bytes, .. } = *event {
            add(&row.bytes_out, bytes as u64);
        }
    }
}

/// Every counting thread's shard of one [`NetStats`], with its writer, or
/// `None` once that thread handed it back for the next one to adopt. A
/// shard is never removed, and its box never moves.
struct Shards(Vec<(Option<thread::ThreadId>, Box<Shard>)>);

impl Shards {
    /// The shard `me` writes: the one it already owns, else one handed
    /// back, else a new one.
    fn register(&mut self, me: thread::ThreadId, nodes: usize) -> &Shard {
        let owned = &mut self.0;
        let at = match owned.iter().position(|(owner, _)| *owner == Some(me)) {
            Some(mine) => mine,
            None => match owned.iter().position(|(owner, _)| owner.is_none()) {
                Some(free) => {
                    owned[free].0 = Some(me);
                    free
                }
                None => {
                    owned.push((Some(me), Box::new(Shard::new(nodes))));
                    owned.len() - 1
                }
            },
        };
        &owned[at].1
    }

    fn rows(&self) -> impl Iterator<Item = &NodeRow> {
        self.0.iter().flat_map(|(_, shard)| &*shard.rows)
    }
}

/// Mints [`NetStats`]' ids. An id is never reused, so a thread's cache
/// never takes a new `NetStats` for one that was dropped.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// An empty cache: no `NetStats` has this id.
const NO_SHARD: (u64, *const Shard) = (u64::MAX, std::ptr::null());

thread_local! {
    /// The calling thread's shard of the [`NetStats`] it last counted
    /// into, with that `NetStats`' id. No destructor, so it answers during
    /// the thread's teardown too.
    static MINE: Cell<(u64, *const Shard)> = const { Cell::new(NO_SHARD) };
}

/// A plain-data snapshot of one node's row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// The events whose principal node ([`ProtocolEvent::node`]) this is:
    /// `events.messages` counts the messages it sent.
    pub events: ProtocolSnapshot,
    /// Payload bytes sent from this node.
    pub bytes_out: u64,
    /// Threads that started a CPU burst on this node (scheduling activity).
    pub dispatches: u64,
    /// Timeslice preemptions on this node.
    pub preemptions: u64,
}

/// Statistics for a whole cluster, counted without an atomic
/// read-modify-write.
///
/// Each OS thread that counts writes a shard of its own, found through a
/// thread-local cache; the readers sum every shard under the list's lock.
/// A read that follows the counting (the run returned, the threads were
/// joined) sees every count; a read during a run sees each slot as it
/// stood at some recent moment, so relaxed ordering is sufficient. An
/// engine-spawned OS thread hands its shard back as it ends, so the shards
/// are bounded by the threads alive at once, not by the threads ever
/// spawned.
pub struct NetStats {
    /// Names these counters in a thread's cache.
    id: u64,
    nodes: usize,
    shards: Mutex<Shards>,
}

impl NetStats {
    /// Creates counters for a cluster of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        NetStats {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            nodes,
            shards: Mutex::new(Shards(Vec::new())),
        }
    }

    /// Applies `bump` to the calling thread's shard. The hot path reads the
    /// thread's cache: no lock, no refcount, no `thread::current()`.
    #[inline(always)]
    fn tally(&self, bump: impl Fn(&Shard)) {
        let (id, shard) = MINE.get();
        if id == self.id {
            // SAFETY: the cache names these counters (ids are never
            // reused), so the pointer came from their list, which owns the
            // shard in a box that never moves and is never removed; `&self`
            // keeps the list alive. That the caller is the shard's one
            // writer (`register` gives a shard to one thread at a time, and
            // `hand_back` clears the cache before it lets go) keeps the
            // counts exact; the slots are atomics either way.
            bump(unsafe { &*shard });
        } else {
            self.tally_cold(&bump);
        }
    }

    /// The calling thread's first count here since it last counted
    /// elsewhere: finds or adopts its shard under the lock and caches it.
    #[cold]
    #[inline(never)]
    fn tally_cold(&self, bump: &dyn Fn(&Shard)) {
        let mut shards = self.shards.lock();
        let shard = shards.register(thread::current().id(), self.nodes);
        bump(shard);
        MINE.set((self.id, shard));
    }

    /// Hands the calling thread's shard back, for the next thread that
    /// counts here to adopt, and clears the thread's cache of it. An
    /// engine-spawned OS thread calls this as the last thing it does.
    /// Hand-back and adoption both happen under the list's lock, so the
    /// adopter starts from every count the shard holds.
    pub(crate) fn hand_back(&self) {
        if MINE.get().0 == self.id {
            MINE.set(NO_SHARD);
        }
        let me = Some(thread::current().id());
        for (owner, _) in &mut self.shards.lock().0 {
            if *owner == me {
                *owner = None;
            }
        }
    }

    /// Counts one event in its principal node's row; a message's payload is
    /// added to the row's bytes. An event about a node outside the cluster
    /// (a declined advisory's proposed target) lands in row 0.
    #[inline]
    pub(crate) fn count(&self, event: &ProtocolEvent) {
        self.tally(|shard| shard.count(event));
    }

    /// Records one thread dispatch on `node`.
    #[inline]
    pub fn record_dispatch(&self, node: usize) {
        self.tally(|shard| add(&shard.rows[node].dispatches, 1));
    }

    /// Records one timeslice preemption on `node`.
    #[inline]
    pub fn record_preemption(&self, node: usize) {
        self.tally(|shard| add(&shard.rows[node].preemptions, 1));
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of shards, handed back or not.
    #[cfg(test)]
    pub(crate) fn shards(&self) -> usize {
        self.shards.lock().0.len()
    }

    /// Snapshot of one node's row, summed over the shards.
    pub fn node(&self, node: usize) -> NodeSnapshot {
        let shards = self.shards.lock();
        let rows = || shards.0.iter().map(|(_, shard)| &shard.rows[node]);
        let sum = |slot: fn(&NodeRow) -> &AtomicU64| rows().map(|row| read(slot(row))).sum();
        NodeSnapshot {
            events: fold(rows()),
            bytes_out: sum(|r| &r.bytes_out),
            dispatches: sum(|r| &r.dispatches),
            preemptions: sum(|r| &r.preemptions),
        }
    }

    /// Every counted event kind, summed over the rows: what
    /// `protocol_stats()` reports.
    pub fn snapshot(&self) -> ProtocolSnapshot {
        fold(self.shards.lock().rows())
    }

    fn sum(&self, slot: impl Fn(&NodeRow) -> &AtomicU64) -> u64 {
        self.shards.lock().rows().map(|row| read(slot(row))).sum()
    }

    /// Total messages sent cluster-wide.
    pub fn total_msgs(&self) -> u64 {
        self.snapshot().messages
    }

    /// Total payload bytes sent cluster-wide.
    pub fn total_bytes(&self) -> u64 {
        self.sum(|r| &r.bytes_out)
    }

    /// Total thread dispatches cluster-wide.
    pub fn total_dispatches(&self) -> u64 {
        self.sum(|r| &r.dispatches)
    }

    /// Total fault-injected drops cluster-wide.
    pub fn total_drops(&self) -> u64 {
        self.snapshot().drops
    }

    /// Total retransmissions cluster-wide.
    pub fn total_retransmits(&self) -> u64 {
        self.snapshot().retransmits
    }

    /// Total duplicate copies suppressed cluster-wide.
    pub fn total_dups_suppressed(&self) -> u64 {
        self.snapshot().dups_suppressed
    }

    /// Total attempts lost to scripted partitions cluster-wide.
    pub fn total_partition_drops(&self) -> u64 {
        self.snapshot().partition_drops
    }

    /// Always 0: a shim for the `engine.msgs_coalesced` column of
    /// `benchmark/src/workloads/mod.rs`, which names this function and which
    /// the change that removed message coalescing could not touch. The next
    /// `benchmark` change drops the column and this function together.
    pub fn total_coalesced(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::time::SimTime;
    use crate::trace::{TraceRecord, Tracer};
    use std::sync::Arc;

    #[test]
    fn rows_totals_and_fold_agree() {
        let s = NetStats::new(3);
        let send = |from, to, bytes| {
            let (from, to) = (NodeId(from), NodeId(to));
            ProtocolEvent::MessageSend { from, to, bytes }
        };
        let (obj, node) = (64, NodeId(1));
        let events = [
            send(0, 2, 100),
            send(0, 1, 50),
            send(2, 0, 7),
            ProtocolEvent::LocalInvoke { obj, node },
            // Proposed target outside the cluster: counted all the same.
            ProtocolEvent::AdvisorySkipped {
                obj,
                at: NodeId(9),
                reason: "no-such-node",
            },
        ];
        events.iter().for_each(|e| s.count(e));
        assert_eq!(s.node(0).events.messages, 2);
        assert_eq!(s.node(0).bytes_out, 150);
        assert_eq!(s.node(0).events.advisory_skips, 1);
        assert_eq!(s.node(2).events.messages, 1);
        assert_eq!(s.node(1).events.local_invokes, 1);
        assert_eq!((s.total_msgs(), s.total_bytes()), (3, 157));
        let stream = events.map(|event| TraceRecord {
            at: SimTime::ZERO,
            thread: None,
            event,
        });
        assert_eq!(ProtocolSnapshot::from_events(&stream), s.snapshot());
        assert_eq!(s.snapshot().total_invokes(), 1);
    }

    #[test]
    fn dispatch_and_preemption_counters() {
        let s = NetStats::new(1);
        s.record_dispatch(0);
        s.record_dispatch(0);
        s.record_preemption(0);
        assert_eq!(s.node(0).dispatches, 2);
        assert_eq!(s.node(0).preemptions, 1);
        assert_eq!(s.total_dispatches(), 2);
    }

    #[test]
    fn counts_from_many_threads_are_exact() {
        // Every thread writes its own shard with a plain load and store: two
        // threads sharing one would lose counts here.
        const THREADS: u64 = 8;
        const EACH: u64 = 50_000;
        let s = NetStats::new(2);
        let node = NodeId(1);
        let invoke = ProtocolEvent::LocalInvoke { obj: 64, node };
        let send = ProtocolEvent::MessageSend {
            from: node,
            to: NodeId(0),
            bytes: 3,
        };
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..EACH {
                        s.count(&invoke);
                        s.count(&send);
                    }
                });
            }
        });
        let all = THREADS * EACH;
        let row = s.node(1);
        assert_eq!(row.events.local_invokes, all);
        assert_eq!(row.events.messages, all);
        assert_eq!(row.bytes_out, 3 * all);
        assert_eq!(s.node(0), NodeSnapshot::default());
        let snap = s.snapshot();
        assert_eq!((snap.local_invokes, snap.messages), (all, all));
        assert_eq!(s.total_bytes(), 3 * all);
        assert_eq!(s.shards(), THREADS as usize);
    }

    #[test]
    fn a_thread_counting_into_two_stats_keeps_them_apart() {
        let (a, b) = (NetStats::new(1), NetStats::new(2));
        for i in 0..1_000 {
            a.record_dispatch(0);
            if i % 3 == 0 {
                b.record_dispatch(1);
                b.record_preemption(1);
            }
        }
        assert_eq!(a.node(0).dispatches, 1_000);
        assert_eq!(b.node(1).dispatches, 334);
        assert_eq!(b.node(1).preemptions, 334);
        assert_eq!((b.node(0).dispatches, a.node(0).preemptions), (0, 0));
        assert_eq!((a.shards(), b.shards()), (1, 1));
    }

    #[test]
    fn a_handed_back_shard_is_adopted_with_its_counts() {
        let s = NetStats::new(1);
        for _ in 0..4 {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    s.record_dispatch(0);
                    s.hand_back();
                });
            });
        }
        s.record_dispatch(0);
        s.hand_back();
        // A count after the hand-back registers again, into the same shard.
        s.record_dispatch(0);
        assert_eq!((s.shards(), s.total_dispatches()), (1, 6));
    }

    #[test]
    fn an_emit_during_thread_teardown_still_counts() {
        struct CountsOnDrop(Arc<NetStats>);
        impl Drop for CountsOnDrop {
            fn drop(&mut self) {
                self.0.record_dispatch(0);
            }
        }
        thread_local! {
            static LATE: std::cell::RefCell<Option<CountsOnDrop>> =
                const { std::cell::RefCell::new(None) };
        }
        // The thread counts into one `NetStats`, and its first count into
        // the other comes from a thread-local's destructor: the cold path,
        // run while the thread's locals are torn down.
        let (early, late) = (Arc::new(NetStats::new(1)), Arc::new(NetStats::new(1)));
        let (early2, late2) = (Arc::clone(&early), Arc::clone(&late));
        std::thread::spawn(move || {
            early2.record_dispatch(0);
            LATE.with(|slot| *slot.borrow_mut() = Some(CountsOnDrop(late2)));
        })
        .join()
        .unwrap();
        assert_eq!((early.total_dispatches(), late.total_dispatches()), (1, 1));
    }

    /// Nanoseconds a count costs over `counts` counts: a disabled
    /// `Tracer::emit`, or a `fetch_add` on an atomic no other thread touches.
    fn count_ns(counts: u32, tracer: &Tracer, emit: bool) -> f64 {
        let shared = AtomicU64::new(0);
        let t0 = std::time::Instant::now();
        for _ in 0..counts {
            if emit {
                let (obj, node) = (std::hint::black_box(64), NodeId(0));
                tracer.emit(|| SimTime::ZERO, ProtocolEvent::LocalInvoke { obj, node });
            } else {
                std::hint::black_box(&shared).fetch_add(1, Ordering::Relaxed);
            }
        }
        t0.elapsed().as_nanos() as f64 / f64::from(counts)
    }

    #[test]
    #[ignore = "looks at time: cargo test --release -p amber-engine -- --ignored"]
    fn a_count_costs_under_half_an_atomic_add() {
        // The median of per-batch ratios taken in alternating batches in one
        // process, so host speed and drift cancel. A count is a load and a
        // store into the thread's own shard and reads ~0.2x (~2 ns against
        // ~9 ns on x86_64); a `RefCell` cache read 0.3-0.6x, and a count
        // that was itself a `fetch_add` 0.8-1.1x.
        const BATCHES: usize = 21;
        const COUNTS: u32 = 200_000;
        let stats = Arc::new(NetStats::new(1));
        let tracer = Tracer::new(Arc::clone(&stats));
        let (mut ratios, mut emits, mut adds) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..BATCHES {
            let emit = count_ns(COUNTS, &tracer, true);
            let add = count_ns(COUNTS, &tracer, false);
            ratios.push(emit / add);
            emits.push(emit);
            adds.push(add);
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (ratio, emit, add) = (median(&mut ratios), median(&mut emits), median(&mut adds));
        println!("disabled emit {emit:.2} ns, atomic add {add:.2} ns: {ratio:.2}x");
        assert_eq!(
            stats.snapshot().local_invokes,
            u64::from(COUNTS) * BATCHES as u64
        );
        assert!(
            ratio <= 0.5,
            "a count costs {emit:.2} ns against {add:.2} ns for an atomic add"
        );
    }
}
