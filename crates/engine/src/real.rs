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
//! Every message goes through the fault layer's windows
//! (`crate::fault::Links`, under the spec's [`FaultPlan`](crate::FaultPlan),
//! perfect by default), which sit under one mutex of their own. A sender
//! opens its message there and queues what the attempt's fate scheduled on
//! the `amber-net` timer thread, whose queue carries the same typed copy
//! and retransmit events the simulator's does, beside the timed kernel
//! wakes ([`wake_kernel_after`](crate::Engine::wake_kernel_after)), each of
//! which posts its thread's gate. Copies come due after the
//! [`LatencyModel`]'s delay, so under a non-zero model remote operations
//! remain orders of magnitude more expensive than local ones even
//! in-process. The timer thread settles each copy under the windows' mutex
//! and delivers its payload in one place.
//!
//! A [`leg`](crate::Engine::leg), which is every message the runtime sends,
//! has no handler at all: its payload is its arrival, which moves the
//! thread, marks the leg arrived and posts the thread's gate in the kernel
//! class; the thread blocks first and tests for the arrival after. One leg
//! skips the windows: on a perfect network with no delay to serve, the
//! travelling thread takes it itself. It counts the send, gives its
//! processor token back, moves to the destination and takes a token there
//! — no allocation, no gate.
//!
//! [`RealEngine::send`], outside the [`Engine`] trait, is the one message
//! that carries code: its handler runs on the timer thread, in kernel
//! context ([`current_thread`] reads `None`), one handler at a time and
//! concurrently with the Amber threads. It stays only for the benchmark's
//! `engine.real.send_rtt` probe.
//!
//! Differences from [`SimEngine`](crate::sim::SimEngine), by design:
//!
//! * [`work`](crate::Engine::work) is a no-op — real code has real cost;
//! * timeslicing is the OS's own preemption; the installed
//!   [`Scheduler`](crate::policy::Scheduler) policy is accepted but token
//!   hand-off order is OS-determined;
//! * there is no deadlock detector; use
//!   [`with_deadline`](RealEngine::with_deadline) in tests.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU16, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::engine::{
    current_thread, must_current_thread, panic_message, ClusterSpec, CurrentGuard, Engine,
    EngineError, Gate, ThreadBody, WakeClass,
};
use crate::fault::{Links, Scheduled, Wire};
use crate::ids::{NodeId, ThreadId};
use crate::policy::Scheduler;
use crate::stats::NetStats;
use crate::time::SimTime;
use crate::trace::{ProtocolEvent, Tracer};
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
        {
            let mut avail = self.tokens.lock();
            *avail += 1;
            #[expect(clippy::disallowed_macros, reason = "a release follows its acquire")]
            {
                debug_assert!(*avail <= self.processors, "token over-release");
            }
        }
        // After the unlock, as `Gate::post` and `enqueue_net` do.
        self.cv.notify_one();
    }
}

/// [`RealTcb::held`] when the thread holds no processor token.
const NO_TOKEN: usize = usize::MAX;

struct RealTcb {
    /// The node the thread is assigned to. Only the thread's own legs move
    /// it, and only while it holds no processor token: the thread itself on
    /// a leg with nothing to wait for, or else the leg's arrival on the
    /// timer thread, which stores it (`Release`) before it marks the leg
    /// arrived. Read by the thread and by anyone asking `node_of`
    /// (`Acquire`).
    node: AtomicU16,
    /// The number of the thread's last leg whose message has arrived; its
    /// next leg is one past it. Written only by arrivals on the timer
    /// thread (`Release`), read by the thread (`Acquire`).
    arrived: AtomicU64,
    /// The thread's waits, in the user class (`block_current`/`unblock`)
    /// and the kernel class (`block_kernel`/`unblock_kernel`, and the
    /// arrival of a leg through the windows).
    gate: Gate,
    /// Index of the node whose processor token the thread holds, or
    /// [`NO_TOKEN`]. Only the thread itself reads and writes it, so its
    /// accesses are plain (`Relaxed`) loads and stores.
    held: AtomicUsize,
}

impl RealTcb {
    fn node(&self) -> NodeId {
        NodeId(self.node.load(Ordering::Acquire))
    }

    /// Acquires a processor token on the thread's current node. Nothing
    /// moves the thread while it waits for one (see `node`).
    fn acquire_current(&self, nodes: &[RealNode]) {
        let n = self.node().index();
        nodes[n].acquire();
        self.held.store(n, Ordering::Relaxed);
    }

    /// Releases the token this thread holds, if any.
    fn release_held(&self, nodes: &[RealNode]) {
        let n = self.held.load(Ordering::Relaxed);
        if n != NO_TOKEN {
            self.held.store(NO_TOKEN, Ordering::Relaxed);
            nodes[n].release();
        }
    }

    /// The message of leg number `leg` has arrived: moves a travelling
    /// thread to `dest`, marks the leg arrived and wakes its wait. A late
    /// copy of an earlier leg's message finds its number arrived already
    /// and does nothing. Arrivals all run on the timer thread, so they do
    /// not race one another.
    fn arrive(&self, leg: u64, dest: Option<NodeId>) {
        if self.arrived.load(Ordering::Relaxed) >= leg {
            return;
        }
        if let Some(node) = dest {
            self.node.store(node.0, Ordering::Release);
        }
        self.arrived.store(leg, Ordering::Release);
        self.gate.post(WakeClass::Kernel);
    }
}

thread_local! {
    /// The tcb of the Amber thread this OS thread is running, with the
    /// engine and id it belongs to, set for the duration of the thread
    /// body. A thread asking about *itself* (`node_of`, every block point)
    /// resolves here instead of through the engine-wide `threads` table. The
    /// engine pointer is only ever compared: thread ids repeat across
    /// engines, and tests run clusters side by side in one process.
    static OWN_TCB: RefCell<Option<(*const RealInner, ThreadId, Arc<RealTcb>)>> =
        const { RefCell::new(None) };

    /// On the timer thread, while it runs a handler: the Amber thread that
    /// queued it, which the handler's own sends are queued by.
    static QUEUED_BY: Cell<Option<ThreadId>> = const { Cell::new(None) };
}

/// The Amber thread a handler queued now is named after: the running one;
/// inside a handler, that handler's; from a host thread, thread 0.
fn queuer() -> ThreadId {
    current_thread()
        .or_else(|| QUEUED_BY.get())
        .unwrap_or(ThreadId(0))
}

/// A [`RealEngine::send`]'s handler, and the Amber thread whose `send`
/// queued it: the thread a panic of the handler is named after.
struct Handler {
    run: Box<dyn FnOnce() + Send + 'static>,
    by: ThreadId,
}

struct NetItem {
    due: Instant,
    seq: u64,
    job: Job,
}

/// What the timer thread does with an item when it comes due.
enum Job {
    /// A `wake_kernel_after` fell due: posts the thread's kernel gate.
    KernelWake(Arc<RealTcb>),
    /// The fault layer's: a copy arrived, or a lost attempt's timer expired.
    Net(Wire),
}

/// What a message does on the timer thread when its first copy arrives.
enum Payload {
    /// A leg's arrival (see `RealTcb::arrive`).
    Arrive {
        tcb: Arc<RealTcb>,
        leg: u64,
        dest: Option<NodeId>,
    },
    /// A `send`'s: runs its handler.
    Handler(Handler),
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

/// What the timer thread and its producers share, under one lock.
struct NetState {
    heap: BinaryHeap<Reverse<NetItem>>,
    /// Tie-break among items due at the same instant: enqueue order.
    next_seq: u64,
    shutdown: bool,
}

struct NetQueue {
    state: Mutex<NetState>,
    /// Signalled after every push and on shutdown; the timer thread is its
    /// only waiter.
    cv: Condvar,
}

struct LiveState {
    count: usize,
    started: bool,
    error: Option<EngineError>,
}

struct RealInner {
    nodes: Vec<RealNode>,
    /// Every thread's tcb, at the index of its id: ids are handed out in
    /// order, and a tcb is never removed.
    threads: Mutex<Vec<Arc<RealTcb>>>,
    live: Mutex<LiveState>,
    done_cv: Condvar,
    net: NetQueue,
    stats: Arc<NetStats>,
    latency: LatencyModel,
    epoch: Instant,
    tracer: Tracer,
    /// Every link's window.
    links: Mutex<Links<Payload>>,
    /// A perfect plan: a leg with no delay to serve skips the windows.
    perfect: bool,
}

/// Wall-clock engine over real OS threads. See the module docs.
pub struct RealEngine {
    inner: Arc<RealInner>,
    deadline: Option<Duration>,
}

impl Drop for RealEngine {
    /// Stops the network thread. The flag is set under the lock the thread
    /// checks it under, so the wake-up cannot fall between its check and
    /// its wait.
    fn drop(&mut self) {
        self.inner.net.state.lock().shutdown = true;
        self.inner.net.cv.notify_one();
    }
}

impl RealEngine {
    /// Builds a real-threaded cluster from `spec`.
    pub fn new(spec: ClusterSpec) -> Self {
        let nodes = (0..spec.nodes)
            .map(|_| RealNode {
                tokens: Mutex::new(spec.processors),
                cv: Condvar::new(),
                processors: spec.processors,
            })
            .collect::<Vec<_>>();
        let stats = Arc::new(NetStats::new(nodes.len()));
        let inner = Arc::new(RealInner {
            nodes,
            threads: Mutex::new(Vec::new()),
            live: Mutex::new(LiveState {
                count: 0,
                started: false,
                error: None,
            }),
            done_cv: Condvar::new(),
            net: NetQueue {
                state: Mutex::new(NetState {
                    heap: BinaryHeap::new(),
                    next_seq: 0,
                    shutdown: false,
                }),
                cv: Condvar::new(),
            },
            tracer: Tracer::new(Arc::clone(&stats)),
            stats,
            latency: spec.latency,
            epoch: Instant::now(),
            perfect: spec.fault.is_perfect(),
            links: Mutex::new(Links::new(spec.fault, spec.latency, spec.nodes)),
        });
        let net_inner = Arc::clone(&inner);
        #[expect(clippy::expect_used, reason = "no timer thread, no engine")]
        std::thread::Builder::new()
            .name("amber-net".to_string())
            .spawn(move || {
                net_loop(&net_inner);
                net_inner.stats.hand_back();
            })
            .expect("failed to spawn network thread");
        RealEngine {
            inner,
            deadline: None,
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

    /// Processor tokens of `node` that no thread holds right now. Equals
    /// [`processors`](Engine::processors) whenever nothing runs there, and
    /// in particular once the run has ended.
    pub fn idle_processors(&self, node: NodeId) -> usize {
        *self.inner.nodes[node.index()].tokens.lock()
    }

    /// Sends a message of `bytes` payload from `from` to `to` whose
    /// `handler` runs at the destination after the modelled latency, on the
    /// timer thread in kernel context (see the module docs); a handler's
    /// panic fails the run at once, in the name of the Amber thread that
    /// sent it. Not part of [`Engine`]: the runtime's messages are legs,
    /// and this stays only for the benchmark's `engine.real.send_rtt`
    /// probe, which times a handler's round trip.
    pub fn send(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        handler: Box<dyn FnOnce() + Send + 'static>,
    ) {
        // Checked builds assert the caller holds no tracked lock, since
        // the send takes the windows' and the queue's.
        amber_verify::engine_block_checkpoint("send");
        self.inner.tracer.emit(
            || self.now(),
            ProtocolEvent::MessageSend { from, to, bytes },
        );
        let by = queuer();
        let handler = Payload::Handler(Handler { run: handler, by });
        self.inner.transmit(from, to, bytes, handler);
    }

    /// Runs `f` on `tid`'s tcb: the calling thread's own from its
    /// thread-local (every block point and leg), anyone else's (a waker)
    /// from the shared table, indexed by id.
    fn with_tcb<R>(&self, tid: ThreadId, f: impl FnOnce(&Arc<RealTcb>) -> R) -> R {
        OWN_TCB.with(|own| match &*own.borrow() {
            Some((engine, t, tcb)) if *t == tid && std::ptr::eq(*engine, &*self.inner) => f(tcb),
            _ => {
                #[expect(clippy::expect_used, reason = "spawned TCBs are never removed")]
                let tcb = Arc::clone(
                    self.inner
                        .threads
                        .lock()
                        .get(tid.0 as usize)
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

/// Delivers queued messages and kernel wakes when they come due.
fn net_loop(inner: &RealInner) {
    loop {
        let item = {
            let mut net = inner.net.state.lock();
            loop {
                if net.shutdown {
                    return;
                }
                match net.heap.peek().map(|Reverse(head)| head.due) {
                    None => inner.net.cv.wait(&mut net),
                    Some(due) if due <= Instant::now() => {
                        #[expect(clippy::expect_used, reason = "peeked under this same guard")]
                        break net.heap.pop().expect("peeked item vanished").0;
                    }
                    Some(due) => {
                        inner.net.cv.wait_until(&mut net, due);
                    }
                }
            }
        };
        match item.job {
            Job::KernelWake(tcb) => tcb.gate.post(WakeClass::Kernel),
            Job::Net(wire) => inner.on_wire(wire),
        }
    }
}

impl RealInner {
    fn now(&self) -> SimTime {
        SimTime::from_ns(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Hands `job` to the timer thread, due `delay` from now.
    fn enqueue_net(&self, delay: Duration, job: Job) {
        let due = Instant::now() + delay;
        {
            let mut net = self.net.state.lock();
            let seq = net.next_seq;
            net.next_seq += 1;
            net.heap.push(Reverse(NetItem { due, seq, job }));
        }
        // After the unlock, so the woken thread finds the lock free.
        self.net.cv.notify_one();
    }

    /// Queues what the fault layer scheduled, in its order.
    fn schedule(&self, wire: Scheduled) {
        for (delay, ev) in wire.into_iter().flatten() {
            self.enqueue_net(delay.to_duration(), Job::Net(ev));
        }
    }

    /// Sends `payload` from `from` to `to` through its link's window, and
    /// queues what its first attempt scheduled. The caller has raised the
    /// send.
    fn transmit(&self, from: NodeId, to: NodeId, bytes: usize, payload: Payload) {
        let wire = self
            .links
            .lock()
            .send(from, to, bytes, payload, &self.tracer, || self.now());
        self.schedule(wire);
    }

    /// A fault layer event came due on the timer thread.
    fn on_wire(&self, wire: Wire) {
        match wire {
            Wire::Copy { from, to, seq } => {
                // Bound first: the payload is delivered with the windows
                // unlocked.
                let payload = self.links.lock().settle(from, to, seq);
                match payload {
                    Some(Payload::Arrive { tcb, leg, dest }) => tcb.arrive(leg, dest),
                    Some(Payload::Handler(handler)) => self.run_handler(handler),
                    None => self.tracer.emit(
                        || self.now(),
                        ProtocolEvent::MessageDuplicateSuppressed { from, to },
                    ),
                }
            }
            Wire::Retransmit(lost) => {
                let wire = self
                    .links
                    .lock()
                    .retransmit(lost, &self.tracer, || self.now());
                self.schedule(wire);
            }
        }
    }

    /// Runs a handler on the timer thread, in kernel context. A panic fails
    /// the run at once in the name of the handler's queuer, and the loop
    /// serves on, so the shutdown still reaches it.
    fn run_handler(&self, Handler { run, by }: Handler) {
        QUEUED_BY.set(Some(by));
        let outcome = catch_unwind(AssertUnwindSafe(run));
        QUEUED_BY.set(None);
        if let Err(payload) = outcome {
            let mut live = self.live.lock();
            if live.error.is_none() {
                live.error = Some(EngineError::Panic {
                    thread: by,
                    message: panic_message(&payload),
                });
            }
            self.done_cv.notify_all();
        }
    }
}

impl Engine for RealEngine {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn nodes(&self) -> usize {
        self.inner.nodes.len()
    }

    fn processors(&self, node: NodeId) -> usize {
        self.inner.nodes[node.index()].processors
    }

    fn spawn(&self, node: NodeId, name: String, body: ThreadBody) -> ThreadId {
        #[expect(clippy::disallowed_macros, reason = "spawn targets are checked nodes")]
        {
            assert!(node.index() < self.inner.nodes.len(), "no such {node}");
        }
        let tcb = Arc::new(RealTcb {
            node: AtomicU16::new(node.0),
            arrived: AtomicU64::new(0),
            gate: Gate::new(),
            held: AtomicUsize::new(NO_TOKEN),
        });
        let tid = {
            let mut threads = self.inner.threads.lock();
            threads.push(Arc::clone(&tcb));
            ThreadId(threads.len() as u64 - 1)
        };
        self.inner.live.lock().count += 1;
        let inner = Arc::clone(&self.inner);
        #[expect(clippy::expect_used, reason = "no OS thread, no Amber thread")]
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
                // Before the live count drops, so that once the run returns
                // every thread's shard is back for the next one to adopt.
                inner.stats.hand_back();
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

    fn uncontested(&self, _cost: SimTime) -> bool {
        // `work` is a no-op: no thread waits on it.
        true
    }

    fn block_current(&self, reason: &'static str) {
        amber_verify::engine_block_checkpoint(reason);
        let node = self.blocked(|tcb| tcb.gate.wait(WakeClass::User));
        self.inner.stats.record_dispatch(node);
    }

    fn unblock(&self, thread: ThreadId) {
        self.with_tcb(thread, |tcb| tcb.gate.post(WakeClass::User));
    }

    fn block_kernel(&self, reason: &'static str) {
        amber_verify::engine_block_checkpoint(reason);
        let node = self.blocked(|tcb| tcb.gate.wait(WakeClass::Kernel));
        self.inner.stats.record_dispatch(node);
    }

    fn unblock_kernel(&self, thread: ThreadId) {
        self.with_tcb(thread, |tcb| tcb.gate.post(WakeClass::Kernel));
    }

    fn node_of(&self, thread: ThreadId) -> NodeId {
        self.with_tcb(thread, |tcb| tcb.node())
    }

    // Token hand-off order under the real engine is OS-determined; the
    // policy interface (a thread's priority, a node's scheduler) is honoured
    // by the simulator, which is where scheduling experiments run. Accepting
    // both calls keeps programs portable across engines.
    fn set_priority(&self, _thread: ThreadId, _priority: i32) {}

    fn set_scheduler(&self, _node: NodeId, _scheduler: Box<dyn Scheduler>) {}

    fn leg(&self, from: NodeId, to: NodeId, bytes: usize, travel: bool, reason: &'static str) {
        amber_verify::engine_block_checkpoint(reason);
        let nodes = &self.inner.nodes;
        #[expect(clippy::disallowed_macros, reason = "migration targets are checked")]
        {
            assert!(to.index() < nodes.len(), "no such {to}");
        }
        self.inner.tracer.emit(
            || self.now(),
            ProtocolEvent::MessageSend { from, to, bytes },
        );
        let dest = travel.then_some(to);
        let delay = self.inner.latency.latency(bytes);
        let here = self.with_tcb(must_current_thread(), |tcb| {
            tcb.release_held(nodes);
            if self.inner.perfect && delay.is_zero() {
                // Nothing to wait for: the thread takes the leg itself.
                if let Some(node) = dest {
                    tcb.node.store(node.0, Ordering::Release);
                }
            } else {
                let leg = tcb.arrived.load(Ordering::Relaxed) + 1;
                let arrival = Payload::Arrive {
                    tcb: Arc::clone(tcb),
                    leg,
                    dest,
                };
                self.inner.transmit(from, to, bytes, arrival);
                // Block first, test after: every arrival posts the gate
                // once, and this wait is where its post is taken.
                loop {
                    tcb.gate.wait(WakeClass::Kernel);
                    if tcb.arrived.load(Ordering::Acquire) >= leg {
                        break;
                    }
                }
            }
            tcb.acquire_current(nodes);
            tcb.node().index()
        });
        self.inner.stats.record_dispatch(here);
    }

    fn wake_kernel_after(&self, delay: SimTime, thread: ThreadId) {
        let tcb = self.with_tcb(thread, Arc::clone);
        self.inner
            .enqueue_net(delay.to_duration(), Job::KernelWake(tcb));
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

    fn schedule_digest(&self) -> Option<u64> {
        None
    }

    fn run_boxed(&self, node: NodeId, body: ThreadBody) -> Result<(), EngineError> {
        {
            let mut live = self.inner.live.lock();
            #[expect(clippy::disallowed_macros, reason = "one engine runs one program")]
            {
                assert!(
                    !live.started,
                    "RealEngine::run_boxed may only be called once"
                );
            }
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
    use crate::engine::{with_invocations, EngineExt};
    use std::sync::atomic::AtomicBool;

    /// Zero latency, and a deadline so that a failed assertion inside a
    /// handler on the timer thread fails the test instead of hanging it.
    fn real(nodes: usize, procs: usize) -> Arc<RealEngine> {
        let spec = ClusterSpec::uniform(nodes, procs).with_latency(LatencyModel::zero());
        Arc::new(RealEngine::new(spec).with_deadline(Duration::from_secs(60)))
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
    fn every_body_starts_with_an_empty_invocation_context() {
        // Each Amber thread is an OS thread of its own: a thread that left
        // frames and carried bytes behind as it ended, or main holding
        // some, leaves nothing to the next body.
        fn litter() {
            with_invocations(|c| {
                c.frames.extend([7, 8]);
                c.carry_bytes = 99;
            });
        }
        fn empty() -> bool {
            with_invocations(|c| c.frames.is_empty() && c.carry_bytes == 0)
        }
        let e = real(1, 1);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            assert!(empty(), "main");
            litter();
            let me = must_current_thread();
            for name in ["litterer", "next"] {
                let e3 = Arc::clone(&e2);
                let body = move || {
                    assert!(empty(), "{name}");
                    litter();
                    e3.unblock(me);
                };
                e2.spawn(NodeId(0), name.into(), Box::new(body));
                e2.block_current("await-child");
            }
            assert_eq!(with_invocations(|c| c.carry_bytes), 99);
        })
        .unwrap();
    }

    #[test]
    fn shards_are_handed_on_when_threads_end() {
        // 2 000 short threads in waves of at most 8 on 4 nodes. Each hands
        // its shard back as it ends and the next wave adopts them, so the
        // shards stay bounded by the threads alive at once (the waves,
        // main, the timer thread and the test's own) and no count is lost.
        const WAVES: u64 = 250;
        const WAVE: u16 = 8;
        let e = real(4, 2);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            for _ in 0..WAVES {
                for i in 0..WAVE {
                    let e3 = Arc::clone(&e2);
                    let node = NodeId(i % 4);
                    let body = move || {
                        let thread = must_current_thread();
                        let start = ProtocolEvent::ThreadStart { thread, node };
                        e3.tracer().emit(|| e3.now(), start);
                    };
                    e2.spawn(node, "wave".into(), Box::new(body));
                }
                // A wave is over once main is the only thread left.
                while e2.inner.live.lock().count > 1 {
                    e2.yield_now();
                }
            }
        })
        .unwrap();
        let stats = e.stats();
        let threads = WAVES * u64::from(WAVE);
        assert_eq!(stats.snapshot().thread_starts, threads);
        assert_eq!(stats.total_dispatches(), threads + 1);
        let shards = stats.shards();
        assert!(shards <= usize::from(WAVE) + 3, "{shards} shards");
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

    /// What one message from node 0 to node 1, sent by the main thread,
    /// found on the way.
    struct Delivery {
        sender: ThreadId,
        sender_os: std::thread::ThreadId,
        /// The OS thread the handler ran on, and `current_thread()` there.
        handler_os: std::thread::Thread,
        inside_handler: Option<ThreadId>,
        /// `current_thread()` on the sender once the handler had woken it.
        after_send: Option<ThreadId>,
    }

    fn deliver_one(e: Arc<RealEngine>) -> Delivery {
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            let sender = must_current_thread();
            let (tx, rx) = std::sync::mpsc::channel();
            let e3 = Arc::clone(&e2);
            e2.send(
                NodeId(0),
                NodeId(1),
                64,
                Box::new(move || {
                    tx.send((std::thread::current(), current_thread())).unwrap();
                    e3.unblock(sender);
                }),
            );
            e2.block_current("await-delivery");
            let (handler_os, inside_handler) = rx.recv().unwrap();
            Delivery {
                sender,
                sender_os: std::thread::current().id(),
                handler_os,
                inside_handler,
                after_send: current_thread(),
            }
        })
        .unwrap()
    }

    #[test]
    fn every_handler_runs_on_the_timer_thread() {
        let perfect = ClusterSpec::uniform(2, 1).with_latency(LatencyModel::zero());
        let delayed =
            ClusterSpec::uniform(2, 1).with_latency(LatencyModel::fixed(SimTime::from_us(50)));
        let faulty = ClusterSpec::uniform(2, 1)
            .with_latency(LatencyModel::zero())
            .with_faults(crate::FaultPlan::seeded(1));
        for spec in [perfect, delayed, faulty] {
            let e = RealEngine::new(spec).with_deadline(Duration::from_secs(60));
            let d = deliver_one(Arc::new(e));
            assert_ne!(d.handler_os.id(), d.sender_os);
            assert_eq!(d.handler_os.name(), Some("amber-net"));
            assert_eq!(d.inside_handler, None, "handlers run in kernel context");
            assert_eq!(d.after_send, Some(d.sender));
        }
    }

    #[test]
    fn lossy_legs_arrive_exactly_once() {
        // Every surviving attempt is duplicated and three in ten are lost:
        // each leg ends once, on its own arrival, and every second copy
        // finds its window settled.
        const LEGS: u64 = 100;
        let spec = ClusterSpec::uniform(2, 1)
            .with_latency(LatencyModel::zero())
            .with_faults(
                crate::FaultPlan::seeded(3)
                    .drop_rate(0.3)
                    .duplicate_rate(1.0),
            );
        let e = Arc::new(RealEngine::new(spec).with_deadline(Duration::from_secs(60)));
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            let me = must_current_thread();
            for i in 0..LEGS {
                let (from, to) = (NodeId(i as u16 % 2), NodeId(1 - i as u16 % 2));
                e2.leg(from, to, 64, true, "lossy-leg");
                assert_eq!(e2.node_of(me), to);
                let (arrived, permits) = e2.with_tcb(me, |tcb| {
                    (
                        tcb.arrived.load(Ordering::Acquire),
                        tcb.gate.permits(WakeClass::Kernel),
                    )
                });
                assert_eq!((arrived, permits), (i + 1, 0), "leg {i}");
            }
            // The trailing copies land on the timer thread.
            e2.sleep(SimTime::from_ms(50));
        })
        .unwrap();
        let p = e.stats().snapshot();
        assert_eq!(p.messages, LEGS);
        assert!(p.retransmits > 0, "no attempt was lost at 30 %");
        // One surviving attempt per leg, each duplicated, each duplicate
        // suppressed.
        assert_eq!((p.dups_injected, p.dups_suppressed), (LEGS, LEGS));
        assert_eq!(p.retransmits, p.drops);
    }

    #[test]
    fn a_send_from_a_handler_takes_the_timer_thread_at_constant_depth() {
        // A handler that sends itself on 10 000 times: were any hop
        // delivered by the hop before it, the chain would nest 10 000
        // frames on one stack. Each hop records where its frame sits.
        const HOPS: usize = 10_000;
        fn hop(e: Arc<RealEngine>, left: usize, me: ThreadId, frames: Arc<Mutex<Vec<usize>>>) {
            let marker = 0u8;
            frames.lock().push(std::ptr::addr_of!(marker) as usize);
            assert_eq!(current_thread(), None);
            assert_eq!(std::thread::current().name(), Some("amber-net"));
            if left == 0 {
                e.unblock(me);
                return;
            }
            let next = Arc::clone(&e);
            e.send(
                NodeId(0),
                NodeId(1),
                0,
                Box::new(move || hop(next, left - 1, me, frames)),
            );
        }
        let e = real(2, 1);
        let e2 = Arc::clone(&e);
        let frames = Arc::new(Mutex::new(Vec::new()));
        let frames2 = Arc::clone(&frames);
        e.run(NodeId(0), move || {
            let me = must_current_thread();
            let first = Arc::clone(&e2);
            e2.send(
                NodeId(0),
                NodeId(1),
                0,
                Box::new(move || hop(first, HOPS, me, frames2)),
            );
            e2.block_current("await-chain");
        })
        .unwrap();
        // Every hop ran on amber-net, each from the timer loop's own frame.
        let frames = frames.lock();
        assert_eq!(frames.len(), HOPS + 1);
        let (lo, hi) = (frames.iter().min().unwrap(), frames.iter().max().unwrap());
        assert!(
            hi - lo < 4096,
            "stack grew {} bytes over the chain",
            hi - lo
        );
    }

    #[test]
    fn a_panicking_handler_fails_the_run_promptly() {
        // Main's handler sends one on, which panics on the timer thread
        // while main waits for a wake it will never get: the run fails at
        // once in main's name, not at its deadline.
        let spec =
            ClusterSpec::uniform(2, 1).with_latency(LatencyModel::fixed(SimTime::from_ms(1)));
        let e = Arc::new(RealEngine::new(spec).with_deadline(Duration::from_secs(10)));
        let e2 = Arc::clone(&e);
        let sender = Arc::new(Mutex::new(None));
        let sender2 = Arc::clone(&sender);
        let t0 = Instant::now();
        let err = e
            .run(NodeId(0), move || {
                *sender2.lock() = Some(must_current_thread());
                let e3 = Arc::clone(&e2);
                let handler = move || {
                    let boom = Box::new(|| panic!("handler blew up"));
                    e3.send(NodeId(1), NodeId(0), 0, boom);
                };
                e2.send(NodeId(0), NodeId(1), 0, Box::new(handler));
                e2.block_current("never-woken");
            })
            .unwrap_err();
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        let thread = sender.lock().expect("main never ran");
        assert_eq!(
            err,
            EngineError::Panic {
                thread,
                message: "handler blew up".to_string(),
            }
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
    fn every_token_comes_home_after_racing_block_points() {
        // Two pairs on one 2-processor node, each handing a turn back and
        // forth: every `release` races an `acquire` for the same tokens and
        // every `unblock` a `block_current`. A token lost or minted shows in
        // `idle_processors`; a block point skipped, in the dispatch count.
        const CYCLES: u64 = 10_000;
        let e = real(1, 2);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            for pair in 0..2 {
                let (tx, rx) = std::sync::mpsc::channel();
                let e3 = Arc::clone(&e2);
                let second = e2.spawn(
                    NodeId(0),
                    format!("second{pair}"),
                    Box::new(move || {
                        let first = rx.recv().unwrap();
                        for _ in 0..CYCLES {
                            e3.block_current("await-first");
                            e3.unblock(first);
                        }
                    }),
                );
                let e3 = Arc::clone(&e2);
                let first = e2.spawn(
                    NodeId(0),
                    format!("first{pair}"),
                    Box::new(move || {
                        for _ in 0..CYCLES {
                            e3.unblock(second);
                            e3.block_current("await-second");
                        }
                    }),
                );
                tx.send(first).unwrap();
            }
        })
        .unwrap();
        assert_eq!(e.idle_processors(NodeId(0)), 2);
        // Five thread starts, and one return from each block point.
        assert_eq!(e.stats().total_dispatches(), 5 + 4 * CYCLES);
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
            e2.leg(NodeId(0), NodeId(1), 64, true, "migrating");
            assert_eq!(e2.node_of(me), NodeId(1));
            let idle = [NodeId(0), NodeId(1)].map(|n| e2.idle_processors(n));
            assert_eq!(idle, [1, 0], "the thread holds node 1's processor");
        })
        .unwrap();
        assert_eq!(e.idle_processors(NodeId(1)), 1);
    }

    #[test]
    fn a_zero_latency_leg_needs_no_timer_thread() {
        const LEGS: u64 = 10_000;
        let e = real(2, 1);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            let me = must_current_thread();
            for i in 0..LEGS {
                let (from, to) = if i % 2 == 0 {
                    (NodeId(0), NodeId(1))
                } else {
                    (NodeId(1), NodeId(0))
                };
                e2.leg(from, to, 64, true, "test-leg");
                assert_eq!(e2.node_of(me), to);
                assert_eq!((e2.idle_processors(from), e2.idle_processors(to)), (1, 0));
            }
            let permits = e2.with_tcb(me, |tcb| tcb.gate.permits(WakeClass::Kernel));
            assert_eq!(permits, 0, "a leg left a kernel wake behind");
        })
        .unwrap();
        assert_eq!(e.inner.net.state.lock().next_seq, 0, "a leg took the timer");
        assert_eq!(e.stats().total_msgs(), LEGS);
        // Main's start, and one return from each leg's block point.
        assert_eq!(e.stats().total_dispatches(), 1 + LEGS);
    }

    #[test]
    fn a_stray_kernel_wake_does_not_end_a_leg() {
        // A host thread wakes the traveller as soon as it has given its
        // processor up. Under load that wake can land after the leg has
        // ended instead, as a pending one; the traveller takes it and tries
        // again until one lands inside a leg, where the leg consumes it.
        const LATENCY: Duration = Duration::from_micros(50);
        let spec =
            ClusterSpec::uniform(2, 1).with_latency(LatencyModel::fixed(SimTime::from_us(50)));
        let e = Arc::new(RealEngine::new(spec).with_deadline(Duration::from_secs(60)));
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            let me = must_current_thread();
            for _ in 0..100 {
                let from = e2.node_of(me);
                let to = NodeId(1 - from.0);
                let t0 = Instant::now();
                std::thread::scope(|s| {
                    s.spawn(|| {
                        while e2.idle_processors(from) == 0 {
                            std::hint::spin_loop();
                        }
                        e2.unblock_kernel(me);
                    });
                    e2.leg(from, to, 64, true, "test-leg");
                });
                assert!(t0.elapsed() >= LATENCY, "the leg ended early");
                assert_eq!(e2.node_of(me), to);
                assert_eq!((e2.idle_processors(from), e2.idle_processors(to)), (1, 0));
                if e2.with_tcb(me, |tcb| tcb.gate.permits(WakeClass::Kernel)) == 0 {
                    return;
                }
                e2.block_kernel("late-stray-wake");
            }
            panic!("no stray wake landed inside a leg");
        })
        .unwrap();
    }
}
