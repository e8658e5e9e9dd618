//! The real-threaded engine.
//!
//! [`RealEngine`] runs the same Amber programs as the simulator, but on real
//! OS threads under wall-clock time. Each node's P processors are modelled
//! as a pool of P *processor tokens*: an Amber thread executes user code
//! only while holding a token of its current node, and every blocking
//! primitive releases the token (so a node's processors stay busy with other
//! threads while one waits on the network — the paper's overlap of
//! computation and communication, for real).
//!
//! Network messages are delayed by the [`LatencyModel`] using a timing-wheel
//! thread, so remote operations remain orders of magnitude more expensive
//! than local ones even in-process.
//!
//! Differences from [`SimEngine`](crate::sim::SimEngine), by design:
//!
//! * [`work`](crate::Engine::work) is a no-op — real code has real cost;
//! * timeslicing is the OS's own preemption; the installed
//!   [`Scheduler`](crate::policy::Scheduler) policy is accepted but token
//!   hand-off order is OS-determined;
//! * there is no deadlock detector; use
//!   [`with_deadline`](RealEngine::with_deadline) in tests.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU16, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::engine::{
    must_current_thread, panic_message, ClusterSpec, CurrentGuard, Engine, EngineError, Gate,
    KernelFn, ThreadBody,
};
use crate::fault::{FaultNet, Transport};
use crate::ids::{NodeId, ThreadId};
use crate::policy::Scheduler;
use crate::stats::NetStats;
use crate::time::SimTime;
use crate::trace::Tracer;
use crate::LatencyModel;

struct RealNode {
    tokens: Mutex<usize>,
    cv: Condvar,
    processors: usize,
}

impl RealNode {
    fn acquire(&self) {
        let mut avail = self.tokens.lock();
        while *avail == 0 {
            self.cv.wait(&mut avail);
        }
        *avail -= 1;
    }

    fn release(&self) {
        let mut avail = self.tokens.lock();
        *avail += 1;
        debug_assert!(*avail <= self.processors, "token over-release");
        self.cv.notify_one();
    }
}

struct RealTcb {
    /// The node the thread is assigned to. Written by a migration handler
    /// on the net thread (`Release`), read by the thread itself (`Acquire`).
    /// The wake-up that follows a migration's store orders it already; the
    /// pairing covers `acquire_current`'s re-read, which no wake-up guards.
    node: AtomicU16,
    /// User-class wake gate (`block_current`/`unblock`).
    gate: Arc<Gate>,
    /// Kernel-class wake gate (`block_kernel`/`unblock_kernel`).
    kernel_gate: Arc<Gate>,
    priority: AtomicI32,
    /// Index of the node whose processor token this thread currently
    /// holds. Tracked explicitly because a migration handler can retarget
    /// `node` concurrently with a block/unblock cycle; releases must go to
    /// the node actually held, not the node currently assigned.
    held: Mutex<Option<usize>>,
}

impl RealTcb {
    fn node(&self) -> NodeId {
        NodeId(self.node.load(Ordering::Acquire))
    }

    /// Acquires a processor token on the thread's current node, revalidating
    /// against concurrent migration (acquire-check-retry).
    fn acquire_current(&self, nodes: &[RealNode]) {
        loop {
            let n = self.node().index();
            nodes[n].acquire();
            if self.node().index() == n {
                *self.held.lock() = Some(n);
                return;
            }
            // Migrated between the read and the acquire; give it back.
            nodes[n].release();
        }
    }

    /// Releases the token this thread holds, if any.
    fn release_held(&self, nodes: &[RealNode]) {
        if let Some(n) = self.held.lock().take() {
            nodes[n].release();
        }
    }
}

thread_local! {
    /// The tcb of the Amber thread this OS thread is running, with the
    /// engine and id it belongs to, set for the duration of the thread
    /// body. A thread asking about *itself* (`node_of`, every block point)
    /// resolves here instead of through the engine-wide `threads` map. The
    /// engine pointer is only ever compared: thread ids repeat across
    /// engines, and tests run clusters side by side in one process.
    static OWN_TCB: RefCell<Option<(*const RealInner, ThreadId, Arc<RealTcb>)>> =
        const { RefCell::new(None) };
}

struct NetItem {
    due: Instant,
    seq: u64,
    handler: KernelFn,
}

impl PartialEq for NetItem {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for NetItem {}
impl PartialOrd for NetItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for NetItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

struct NetQueue {
    heap: Mutex<BinaryHeap<Reverse<NetItem>>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

struct LiveState {
    count: usize,
    started: bool,
    error: Option<EngineError>,
}

struct RealInner {
    nodes: Vec<RealNode>,
    threads: Mutex<HashMap<ThreadId, Arc<RealTcb>>>,
    next_tid: Mutex<u64>,
    live: Mutex<LiveState>,
    done_cv: Condvar,
    net: NetQueue,
    net_seq: Mutex<u64>,
    stats: Arc<NetStats>,
    latency: LatencyModel,
    epoch: Instant,
    tracer: Tracer,
}

/// Wall-clock engine over real OS threads. See the module docs.
pub struct RealEngine {
    inner: Arc<RealInner>,
    deadline: Option<Duration>,
    /// Present when the spec carries a [`crate::FaultPlan`]; every send
    /// then routes through the fault-injection/reliability layer.
    fault: Option<Arc<FaultNet>>,
}

impl Drop for RealEngine {
    /// Stops the network thread.
    fn drop(&mut self) {
        self.inner.net.shutdown.store(true, Ordering::Release);
        self.inner.net.cv.notify_all();
    }
}

impl RealEngine {
    /// Builds a real-threaded cluster from `spec`.
    pub fn new(spec: ClusterSpec) -> Self {
        let nodes = spec
            .nodes
            .iter()
            .map(|n| RealNode {
                tokens: Mutex::new(n.processors),
                cv: Condvar::new(),
                processors: n.processors,
            })
            .collect::<Vec<_>>();
        let stats = Arc::new(NetStats::new(nodes.len()));
        let inner = Arc::new(RealInner {
            nodes,
            threads: Mutex::new(HashMap::new()),
            next_tid: Mutex::new(0),
            live: Mutex::new(LiveState {
                count: 0,
                started: false,
                error: None,
            }),
            done_cv: Condvar::new(),
            net: NetQueue {
                heap: Mutex::new(BinaryHeap::new()),
                cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
            },
            net_seq: Mutex::new(0),
            stats,
            latency: spec.latency,
            epoch: Instant::now(),
            tracer: Tracer::new(),
        });
        let net_inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("amber-net".to_string())
            .spawn(move || net_loop(&net_inner))
            .expect("failed to spawn network thread");
        let fault = spec.fault.map(|plan| {
            let weak = Arc::downgrade(&inner);
            FaultNet::new(plan, spec.latency, weak as std::sync::Weak<dyn Transport>)
        });
        RealEngine {
            inner,
            deadline: None,
            fault,
        }
    }

    /// Convenience: a uniform cluster with the given latency model.
    pub fn cluster(nodes: usize, processors: usize, latency: LatencyModel) -> Arc<Self> {
        Arc::new(RealEngine::new(
            ClusterSpec::uniform(nodes, processors).with_latency(latency),
        ))
    }

    /// Fails [`run_boxed`](Engine::run_boxed) with [`EngineError::Timeout`]
    /// if the program has not finished within `deadline` of wall time.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Runs `f` on `tid`'s tcb: the calling thread's own from its
    /// thread-local, anyone else's (a waker, the net thread's `set_node`)
    /// from the shared map.
    fn with_tcb<R>(&self, tid: ThreadId, f: impl FnOnce(&RealTcb) -> R) -> R {
        OWN_TCB.with(|own| match &*own.borrow() {
            Some((engine, t, tcb)) if *t == tid && std::ptr::eq(*engine, &*self.inner) => f(tcb),
            _ => {
                let tcb = Arc::clone(
                    self.inner
                        .threads
                        .lock()
                        .get(&tid)
                        .expect("unknown thread id"),
                );
                f(&tcb)
            }
        })
    }

    /// The shared shape of every block point: give the processor token
    /// back, wait, and resume on the node the thread is assigned to *now*
    /// (it may have been migrated while blocked; revalidated against races).
    fn blocked(&self, wait: impl FnOnce(&RealTcb)) -> usize {
        self.with_tcb(must_current_thread(), |tcb| {
            tcb.release_held(&self.inner.nodes);
            wait(tcb);
            tcb.acquire_current(&self.inner.nodes);
            tcb.node().index()
        })
    }
}

/// Delivers queued messages when they come due.
fn net_loop(inner: &Arc<RealInner>) {
    loop {
        let item = {
            let mut heap = inner.net.heap.lock();
            loop {
                if inner.net.shutdown.load(Ordering::Acquire) {
                    return;
                }
                match heap.peek() {
                    None => {
                        // Re-check shutdown every 50 ms so the thread exits
                        // promptly once the run ends.
                        inner.net.cv.wait_for(&mut heap, Duration::from_millis(50));
                    }
                    Some(Reverse(head)) => {
                        let now = Instant::now();
                        if head.due <= now {
                            break heap.pop().expect("peeked item vanished").0;
                        }
                        let due = head.due;
                        inner.net.cv.wait_until(&mut heap, due);
                    }
                }
            }
        };
        (item.handler)();
    }
}

impl RealInner {
    /// Enqueues `f` on the timing wheel, due `delay` from now.
    fn enqueue_net(&self, delay: Duration, f: KernelFn) {
        let seq = {
            let mut s = self.net_seq.lock();
            let v = *s;
            *s += 1;
            v
        };
        let item = NetItem {
            due: Instant::now() + delay,
            seq,
            handler: f,
        };
        self.net.heap.lock().push(Reverse(item));
        self.net.cv.notify_all();
    }
}

impl Transport for RealInner {
    fn after(&self, delay: SimTime, f: KernelFn) {
        self.enqueue_net(delay.to_duration(), f);
    }

    fn now(&self) -> SimTime {
        SimTime::from_ns(self.epoch.elapsed().as_nanos() as u64)
    }

    fn net_stats(&self) -> &NetStats {
        &self.stats
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

impl Engine for RealEngine {
    fn now(&self) -> SimTime {
        SimTime::from_ns(self.inner.epoch.elapsed().as_nanos() as u64)
    }

    fn nodes(&self) -> usize {
        self.inner.nodes.len()
    }

    fn processors(&self, node: NodeId) -> usize {
        self.inner.nodes[node.index()].processors
    }

    fn spawn(&self, node: NodeId, name: String, body: ThreadBody) -> ThreadId {
        assert!(node.index() < self.inner.nodes.len(), "no such {node}");
        let tid = {
            let mut n = self.inner.next_tid.lock();
            let t = ThreadId(*n);
            *n += 1;
            t
        };
        let gate = Gate::new();
        let tcb = Arc::new(RealTcb {
            node: AtomicU16::new(node.0),
            gate: Arc::clone(&gate),
            kernel_gate: Gate::new(),
            priority: AtomicI32::new(0),
            held: Mutex::new(None),
        });
        self.inner.threads.lock().insert(tid, Arc::clone(&tcb));
        self.inner.live.lock().count += 1;
        let inner = Arc::clone(&self.inner);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let _guard = CurrentGuard::enter(tid);
                OWN_TCB.with(|own| {
                    *own.borrow_mut() = Some((Arc::as_ptr(&inner), tid, Arc::clone(&tcb)));
                });
                tcb.acquire_current(&inner.nodes);
                inner.stats.record_dispatch(tcb.node().index());
                let result = catch_unwind(AssertUnwindSafe(body));
                tcb.release_held(&inner.nodes);
                OWN_TCB.with(|own| *own.borrow_mut() = None);
                let mut live = inner.live.lock();
                if let Err(payload) = result {
                    if live.error.is_none() {
                        live.error = Some(EngineError::Panic {
                            thread: tid,
                            message: panic_message(&payload),
                        });
                    }
                }
                live.count -= 1;
                if live.count == 0 || live.error.is_some() {
                    inner.done_cv.notify_all();
                }
            })
            .expect("failed to spawn OS thread for Amber thread");
        tid
    }

    fn work(&self, _cost: SimTime) {
        // Real code has real cost; virtual charges are simulator-only.
    }

    fn block_current(&self, reason: &'static str) {
        amber_verify::engine_block_checkpoint(reason);
        let node = self.blocked(|tcb| tcb.gate.wait());
        self.inner.stats.record_dispatch(node);
    }

    fn unblock(&self, thread: ThreadId) {
        self.with_tcb(thread, |tcb| tcb.gate.post());
    }

    fn block_kernel(&self, reason: &'static str) {
        amber_verify::engine_block_checkpoint(reason);
        let node = self.blocked(|tcb| tcb.kernel_gate.wait());
        self.inner.stats.record_dispatch(node);
    }

    fn unblock_kernel(&self, thread: ThreadId) {
        self.with_tcb(thread, |tcb| tcb.kernel_gate.post());
    }

    fn set_node(&self, thread: ThreadId, node: NodeId) {
        assert!(node.index() < self.inner.nodes.len(), "no such {node}");
        self.with_tcb(thread, |tcb| tcb.node.store(node.0, Ordering::Release));
    }

    fn node_of(&self, thread: ThreadId) -> NodeId {
        self.with_tcb(thread, RealTcb::node)
    }

    fn set_priority(&self, thread: ThreadId, priority: i32) {
        self.with_tcb(thread, |tcb| {
            tcb.priority.store(priority, Ordering::Relaxed)
        });
    }

    fn set_scheduler(&self, _node: NodeId, _scheduler: Box<dyn Scheduler>) {
        // Token hand-off order under the real engine is OS-determined; the
        // policy interface is honoured by the simulator, which is where
        // scheduling experiments run. Accepting the call keeps programs
        // portable across engines.
    }

    fn send(&self, from: NodeId, to: NodeId, bytes: usize, handler: KernelFn) {
        amber_verify::engine_block_checkpoint("send");
        self.inner
            .stats
            .record_send(from.index(), to.index(), bytes);
        self.inner
            .tracer
            .emit(self.now(), crate::engine::current_thread(), || {
                crate::trace::ProtocolEvent::MessageSend { from, to, bytes }
            });
        if let Some(fault) = &self.fault {
            fault.send(from, to, bytes, handler);
            return;
        }
        let delay = self.inner.latency.latency(bytes).to_duration();
        self.inner.enqueue_net(delay, handler);
    }

    fn after(&self, delay: SimTime, f: KernelFn) {
        self.inner.enqueue_net(delay.to_duration(), f);
    }

    fn yield_now(&self) {
        amber_verify::engine_block_checkpoint("yield");
        self.blocked(|_| std::thread::yield_now());
    }

    fn sleep(&self, duration: SimTime) {
        amber_verify::engine_block_checkpoint("sleep");
        self.blocked(|_| std::thread::sleep(duration.to_duration()));
    }

    fn stats(&self) -> &Arc<NetStats> {
        &self.inner.stats
    }

    fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    fn run_boxed(&self, node: NodeId, body: ThreadBody) -> Result<(), EngineError> {
        {
            let mut live = self.inner.live.lock();
            assert!(
                !live.started,
                "RealEngine::run_boxed may only be called once"
            );
            live.started = true;
        }
        self.spawn(node, "main".to_string(), body);
        let start = Instant::now();
        let mut live = self.inner.live.lock();
        loop {
            if let Some(e) = live.error.clone() {
                return Err(e);
            }
            if live.count == 0 {
                return Ok(());
            }
            match self.deadline {
                Some(d) => {
                    let left = d.checked_sub(start.elapsed());
                    match left {
                        None => return Err(EngineError::Timeout),
                        Some(left) => {
                            if self.inner.done_cv.wait_for(&mut live, left).timed_out()
                                && live.count > 0
                                && live.error.is_none()
                            {
                                return Err(EngineError::Timeout);
                            }
                        }
                    }
                }
                None => self.inner.done_cv.wait(&mut live),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineExt;

    fn real(nodes: usize, procs: usize) -> Arc<RealEngine> {
        RealEngine::cluster(nodes, procs, LatencyModel::zero())
    }

    #[test]
    fn run_returns_main_result() {
        let e = real(1, 1);
        assert_eq!(e.run(NodeId(0), || "ok").unwrap(), "ok");
    }

    #[test]
    fn spawned_threads_complete_before_run_returns() {
        let e = real(2, 2);
        let e2 = Arc::clone(&e);
        let flag = Arc::new(AtomicBool::new(false));
        let flag2 = Arc::clone(&flag);
        e.run(NodeId(0), move || {
            let flag3 = Arc::clone(&flag2);
            e2.spawn(
                NodeId(1),
                "worker".into(),
                Box::new(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    flag3.store(true, Ordering::SeqCst);
                }),
            );
        })
        .unwrap();
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn block_and_unblock_across_threads() {
        let e = real(2, 1);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            let me = must_current_thread();
            let e3 = Arc::clone(&e2);
            e2.spawn(
                NodeId(1),
                "waker".into(),
                Box::new(move || {
                    std::thread::sleep(Duration::from_millis(10));
                    e3.unblock(me);
                }),
            );
            e2.block_current("demo");
        })
        .unwrap();
    }

    #[test]
    fn message_delay_is_applied() {
        let e = RealEngine::cluster(2, 1, LatencyModel::fixed(SimTime::from_ms(30)));
        let e2 = Arc::clone(&e);
        let elapsed = e
            .run(NodeId(0), move || {
                let me = must_current_thread();
                let t0 = Instant::now();
                let e3 = Arc::clone(&e2);
                e2.send(NodeId(0), NodeId(1), 0, Box::new(move || e3.unblock(me)));
                e2.block_current("await-echo");
                t0.elapsed()
            })
            .unwrap();
        assert!(
            elapsed >= Duration::from_millis(29),
            "latency not applied: {elapsed:?}"
        );
    }

    #[test]
    fn tokens_limit_concurrency_per_node() {
        // One processor: two threads spinning must not overlap. We detect
        // overlap with an "in critical section" flag.
        let e = real(1, 1);
        let e2 = Arc::clone(&e);
        let busy = Arc::new(AtomicBool::new(false));
        let overlapped = Arc::new(AtomicBool::new(false));
        let busy_outer = Arc::clone(&busy);
        let overlapped_outer = Arc::clone(&overlapped);
        e.run(NodeId(0), move || {
            for _ in 0..2 {
                let busy = Arc::clone(&busy);
                let overlapped = Arc::clone(&overlapped);
                e2.spawn(
                    NodeId(0),
                    "spinner".into(),
                    Box::new(move || {
                        if busy.swap(true, Ordering::SeqCst) {
                            overlapped.store(true, Ordering::SeqCst);
                        }
                        std::thread::sleep(Duration::from_millis(15));
                        busy.store(false, Ordering::SeqCst);
                    }),
                );
            }
            // The main thread exits releasing its token; the two spinners
            // then serialize on the single token.
        })
        .unwrap();
        assert!(!busy_outer.load(Ordering::SeqCst));
        assert!(
            !overlapped_outer.load(Ordering::SeqCst),
            "two threads ran concurrently on a 1-processor node"
        );
    }

    #[test]
    fn deadline_reports_timeout() {
        let spec = ClusterSpec::uniform(1, 2).with_latency(LatencyModel::zero());
        let e = RealEngine::new(spec).with_deadline(Duration::from_millis(50));
        let err = e
            .run(NodeId(0), || {
                std::thread::sleep(Duration::from_secs(3600));
            })
            .unwrap_err();
        assert_eq!(err, EngineError::Timeout);
    }

    #[test]
    fn own_tcb_shortcut_is_per_engine() {
        // Thread ids repeat across engines: a thread of engine A asking
        // engine B about "thread 0" must get B's thread 0, not itself.
        let a = real(2, 1);
        let b = Arc::new(
            RealEngine::new(ClusterSpec::uniform(2, 1).with_latency(LatencyModel::zero()))
                .with_deadline(Duration::from_secs(30)),
        );
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let b2 = Arc::clone(&b);
            s.spawn(move || {
                let b3 = Arc::clone(&b2);
                b2.run(NodeId(1), move || {
                    started_tx.send(must_current_thread()).unwrap();
                    b3.block_current("await-engine-a");
                })
                .expect("engine A woke itself instead of B's thread");
            });
            let a2 = Arc::clone(&a);
            a.run(NodeId(0), move || {
                let me = must_current_thread();
                let theirs = started_rx.recv().unwrap();
                assert_eq!(me, theirs);
                assert_eq!(a2.node_of(me), NodeId(0));
                assert_eq!(b.node_of(theirs), NodeId(1));
                b.unblock(theirs);
            })
            .unwrap();
        });
    }

    #[test]
    fn migration_moves_token_home() {
        let e = real(2, 1);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            let me = must_current_thread();
            assert_eq!(e2.node_of(me), NodeId(0));
            // Simulate what the runtime does on migration: block, have a
            // kernel handler retarget and wake us.
            let e3 = Arc::clone(&e2);
            e2.send(
                NodeId(0),
                NodeId(1),
                64,
                Box::new(move || {
                    e3.set_node(me, NodeId(1));
                    e3.unblock(me);
                }),
            );
            e2.block_current("migrating");
            assert_eq!(e2.node_of(me), NodeId(1));
        })
        .unwrap();
    }
}
