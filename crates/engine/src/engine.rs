//! The [`Engine`] abstraction: what the Amber runtime needs from its
//! execution substrate.
//!
//! `amber-core` implements the paper's protocols (residency checks,
//! forwarding, migration, scheduling of bound threads) purely in terms of
//! this trait, so the same runtime code runs under:
//!
//! * [`SimEngine`](crate::sim::SimEngine) — a deterministic discrete-event
//!   engine with a virtual clock, used for every performance experiment, and
//! * [`RealEngine`](crate::real::RealEngine) — real OS threads with per-node
//!   processor tokens and real network delays, used to demonstrate the
//!   runtime is a genuinely concurrent system.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::ids::{NodeId, ThreadId};
use crate::policy::Scheduler;
use crate::stats::NetStats;
use crate::time::SimTime;
use crate::trace::Tracer;
use crate::LatencyModel;

/// The body of an Amber thread.
pub type ThreadBody = Box<dyn FnOnce() + Send + 'static>;

/// A kernel message handler, executed at the destination node when the
/// message is delivered. Handlers run in kernel context: they may call
/// [`Engine::unblock`], [`Engine::send`] and [`Engine::spawn`], but must
/// never block or charge work, and [`current_thread`] reads `None` inside
/// one wherever it runs.
///
/// Under the simulator that is the stack of whichever Amber thread is
/// giving the baton up when the message falls due; handlers still run one at
/// a time, and a handler's panic fails the run as that thread's.
/// Under the real engine that thread may be the *sender's* — a zero-delay
/// message is delivered before [`Engine::send`] returns — so handlers run
/// concurrently with one another and with the thread they are about to
/// wake, and must synchronise whatever they share. The runtime itself sends
/// no handler: its messages are [`Engine::leg`]s.
pub type KernelFn = Box<dyn FnOnce() + Send + 'static>;

/// Configuration of a whole cluster.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Processors per node (the Firefly had 4 CVAX CPUs for user threads).
    /// A node's ready queue starts under [`Fifo`](crate::policy::Fifo);
    /// [`Engine::set_scheduler`] replaces it.
    pub processors: usize,
    /// Network latency model applied to every message.
    pub latency: LatencyModel,
    /// Optional fault plan. When set, every message routes through the
    /// fault-injection and reliable-delivery layer (see [`crate::FaultPlan`]);
    /// when `None` the network is a perfect channel and the message path is
    /// exactly the classic direct one.
    pub fault: Option<crate::fault::FaultPlan>,
}

impl ClusterSpec {
    /// A homogeneous cluster: `nodes` nodes of `processors` CPUs each, like
    /// the paper's "N nodes x P processors" configurations.
    pub fn uniform(nodes: usize, processors: usize) -> Self {
        #[expect(clippy::disallowed_macros, reason = "a cluster needs a boot node")]
        {
            assert!(nodes > 0, "a cluster needs at least one node");
        }
        #[expect(clippy::disallowed_macros, reason = "a node needs a processor")]
        {
            assert!(processors > 0, "a node needs at least one processor");
        }
        ClusterSpec {
            nodes,
            processors,
            latency: LatencyModel::default(),
            fault: None,
        }
    }

    /// Replaces the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Installs a fault plan: messages are dropped, duplicated and
    /// partitioned per the plan, and delivered at most once through the
    /// reliability sublayer.
    pub fn with_faults(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }
}

/// Why an engine run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Every live thread is blocked and (in the simulator) no event is
    /// pending: the program can never make progress.
    Deadlock {
        /// Virtual time at which the deadlock was detected.
        at: SimTime,
        /// The blocked threads with the reasons they gave when blocking.
        blocked: Vec<(ThreadId, String)>,
    },
    /// An Amber thread panicked.
    Panic {
        /// The thread that panicked.
        thread: ThreadId,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A real-engine run exceeded its wall-clock deadline.
    Timeout,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Deadlock { at, blocked } => {
                write!(f, "deadlock at {at}: {} thread(s) blocked [", blocked.len())?;
                for (i, (t, why)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t} ({why})")?;
                }
                write!(f, "]")
            }
            EngineError::Panic { thread, message } => {
                write!(f, "{thread} panicked: {message}")
            }
            EngineError::Timeout => write!(f, "run exceeded its wall-clock deadline"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Execution substrate for the Amber runtime.
///
/// Methods that say "current thread" must be called from inside an Amber
/// thread (a closure passed to [`spawn`](Engine::spawn) or
/// [`run_boxed`](Engine::run_boxed)); calling them from kernel handlers or
/// from outside the engine is a programming error and panics.
pub trait Engine: Send + Sync {
    /// Current time: virtual under the simulator, elapsed wall clock under
    /// the real engine.
    fn now(&self) -> SimTime;

    /// Number of nodes in the cluster.
    fn nodes(&self) -> usize;

    /// Number of processors on `node`.
    fn processors(&self, node: NodeId) -> usize;

    /// Creates a new Amber thread running `body` on `node`.
    ///
    /// The thread becomes runnable immediately; it is *not* started lazily.
    /// `name` is used in diagnostics (deadlock reports).
    fn spawn(&self, node: NodeId, name: String, body: ThreadBody) -> ThreadId;

    /// Charges `cost` of CPU work to the current thread on its current node.
    ///
    /// Under the simulator this occupies one of the node's processors for
    /// `cost` of virtual time (queueing behind other bursts under the node's
    /// scheduling policy, and subject to timeslice preemption). Under the
    /// real engine it is a no-op: real code has real cost.
    fn work(&self, cost: SimTime);

    /// Parks the current thread until another thread or a kernel handler
    /// calls [`unblock`](Engine::unblock) on it.
    ///
    /// A wake-up that arrives before the block takes effect is not lost:
    /// the block consumes it and returns immediately.
    ///
    /// User-level and kernel-level waits are separate wake classes: an
    /// [`unblock`](Engine::unblock) aimed at a thread that is currently in
    /// a *kernel* wait (see [`block_kernel`](Engine::block_kernel)) is held
    /// as a pending user wake rather than waking the kernel wait — this is
    /// what makes runtime-internal waits nested inside user-level waiting
    /// paths lossless.
    fn block_current(&self, reason: &'static str);

    /// Makes `thread` runnable again (on whatever node it is currently
    /// assigned to). Wakes only user-level blocks; see
    /// [`block_current`](Engine::block_current).
    fn unblock(&self, thread: ThreadId);

    /// Parks the current thread in the *kernel* wake class: woken only by
    /// [`unblock_kernel`](Engine::unblock_kernel). Used by runtime-internal
    /// protocol steps (thread migration, message waits, payload admission).
    fn block_kernel(&self, reason: &'static str);

    /// Wakes a kernel-class wait (or records it as pending).
    fn unblock_kernel(&self, thread: ThreadId);

    /// The node `thread` is currently assigned to.
    fn node_of(&self, thread: ThreadId) -> NodeId;

    /// Sets the priority handed to [`Scheduler::enqueue`] whenever `thread`
    /// is queued from now on.
    fn set_priority(&self, thread: ThreadId, priority: i32);

    /// Replaces `node`'s scheduler at runtime (the paper's replaceable
    /// scheduler object). Threads already queued are drained into the new
    /// scheduler in dequeue order.
    fn set_scheduler(&self, node: NodeId, scheduler: Box<dyn Scheduler>);

    /// Sends a message of `bytes` payload from `from` to `to`; `handler`
    /// runs at the destination after the modelled latency (under the
    /// simulator inside the dispatch step of whichever Amber thread gives the
    /// baton up then — possibly the sender itself, at its next block point).
    ///
    /// The handler may have run by the time `send` returns: the real engine
    /// delivers a message with no delay to serve on the sending Amber
    /// thread itself (see [`KernelFn`]). A thread that only waits for its
    /// message to arrive takes a [`leg`](Engine::leg) instead.
    fn send(&self, from: NodeId, to: NodeId, bytes: usize, handler: KernelFn);

    /// One network leg waited out by the current thread: sends one message
    /// of `bytes` from `from` to `to`, counted as [`send`](Engine::send)
    /// counts it, and parks the thread in the kernel wake class until the
    /// message is delivered. With `travel` the thread travels with the
    /// message and is on `to` when this returns: the engine half of thread
    /// migration.
    ///
    /// Like [`block_kernel`](Engine::block_kernel), the leg is a block
    /// point. A kernel wake aimed at the thread meanwhile does not end it,
    /// and neither does a late copy of an earlier leg's message: each
    /// arrival carries the thread's leg number.
    fn leg(&self, from: NodeId, to: NodeId, bytes: usize, travel: bool, reason: &'static str);

    /// Schedules `f` to run in kernel context after `delay`: a timer, not a
    /// message — nothing travels, no network statistics are recorded and no
    /// fault plan applies. Under the simulator the handler fires `delay` of
    /// virtual time from now, where a message handler would (see
    /// [`KernelFn`]); under the real engine it is handed to the timer
    /// thread, whatever the delay and whoever calls. Like message handlers,
    /// `f` must never block or charge work. Used for periodic runtime duties
    /// (the placement tick).
    fn after(&self, delay: SimTime, f: KernelFn);

    /// Voluntarily yields the processor (a timeslice point).
    fn yield_now(&self);

    /// Suspends the current thread for `duration`.
    fn sleep(&self, duration: SimTime);

    /// The cluster's counter rows: every protocol event kind, plus payload
    /// bytes, dispatches and preemptions, per node.
    fn stats(&self) -> &Arc<NetStats>;

    /// The engine's protocol-event tracer. [`Tracer::emit`] is where the
    /// runtime layers above, and the engine itself for every message, raise
    /// a [`crate::trace::ProtocolEvent`]: it is counted in
    /// [`stats`](Engine::stats) and, once a [`crate::trace::TraceSink`] is
    /// installed, recorded.
    fn tracer(&self) -> &Tracer;

    /// Runs `body` as the program's main thread on `node` and waits until
    /// *every* Amber thread has terminated.
    ///
    /// Returns an error on deadlock (simulator), panic, or timeout (real
    /// engine with a deadline). An engine is single-shot: `run_boxed` may
    /// only be called once.
    fn run_boxed(&self, node: NodeId, body: ThreadBody) -> Result<(), EngineError>;
}

/// Typed convenience wrapper over [`Engine::run_boxed`].
pub trait EngineExt: Engine {
    /// Runs `f` as the main thread on `node`, waits for the whole program,
    /// and returns `f`'s result.
    ///
    /// # Panics
    ///
    /// Panics if the engine reports an error but the main closure completed;
    /// errors are returned otherwise.
    fn run<R, F>(&self, node: NodeId, f: F) -> Result<R, EngineError>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let slot = Arc::new(Mutex::new(None));
        let slot2 = Arc::clone(&slot);
        self.run_boxed(
            node,
            Box::new(move || {
                let r = f();
                *slot2.lock() = Some(r);
            }),
        )?;
        let r = slot.lock().take();
        #[expect(clippy::expect_used, reason = "run_boxed Ok: main stored its result")]
        Ok(r.expect("main thread completed without storing a result"))
    }
}

impl<E: Engine + ?Sized> EngineExt for E {}

/// The invocation context of one Amber thread, kept by the engine for
/// `amber-core` so that it follows the thread wherever it runs: on an OS
/// thread of its own, or on a stack of its own beside others on one OS
/// thread (see [`with_invocations`]).
#[derive(Debug, Default)]
pub struct Invocations {
    /// Addresses of the objects the thread has invocation frames on;
    /// `frames.last()` is the object whose operation is executing.
    pub frames: Vec<u64>,
    /// Extra payload bytes the thread's next outbound migration carries
    /// (arguments passed by value with an invocation).
    pub carry_bytes: usize,
}

thread_local! {
    /// The Amber thread executing on this OS thread: `None` outside one and
    /// in kernel context.
    static CURRENT: Cell<Option<ThreadId>> = const { Cell::new(None) };
    /// The invocation context of the Amber thread executing here.
    static INVOCATIONS: RefCell<Invocations> = const {
        RefCell::new(Invocations {
            frames: Vec::new(),
            carry_bytes: 0,
        })
    };
}

/// The Amber thread executing here, if any.
///
/// Kernel handlers and host code see `None`.
pub fn current_thread() -> Option<ThreadId> {
    CURRENT.get()
}

/// Runs `f` on the invocation context of the Amber thread executing here.
/// `f` must not call back in.
pub fn with_invocations<R>(f: impl FnOnce(&mut Invocations) -> R) -> R {
    INVOCATIONS.with(|c| f(&mut c.borrow_mut()))
}

/// The Amber thread executing here.
///
/// # Panics
///
/// Panics when called outside an Amber thread (e.g. from a kernel handler).
#[expect(clippy::expect_used, reason = "kernel paths run on Amber threads")]
pub fn must_current_thread() -> ThreadId {
    current_thread().expect("this operation must be called from an Amber thread")
}

/// What a switched-out context keeps of the per-thread state above: its
/// current thread and its invocation context.
///
/// `RealEngine` runs each Amber thread on an OS thread of its own, so that
/// state is simply its OS thread's. `SimEngine` runs all of them on one OS
/// thread, each on a stack of its own, and at every switch between two
/// stacks parks the outgoing context's state in its `Parked` and unparks
/// the incoming one's: the same two thread-locals serve both engines, and
/// reading them costs what it cost before there were stacks.
#[derive(Default)]
pub(crate) struct Parked {
    current: Cell<Option<ThreadId>>,
    invocations: RefCell<Invocations>,
}

impl Parked {
    /// Makes this the state of Amber thread `tid` before its body starts:
    /// no frame, nothing carried.
    pub(crate) fn reset(&self, tid: ThreadId) {
        self.current.set(Some(tid));
        *self.invocations.borrow_mut() = Invocations::default();
    }

    /// Exchanges what runs on this OS thread with what is parked here: the
    /// outgoing context calls it on its own `Parked`, then the incoming
    /// context's `Parked` is exchanged in turn.
    pub(crate) fn exchange(&self) {
        self.current.set(CURRENT.replace(self.current.get()));
        INVOCATIONS.with(|running| running.swap(&self.invocations));
    }
}

/// Sets the current-thread marker for a scope — a thread body, or a
/// handler run on an Amber thread's stack — and puts the previous one back
/// when dropped, unwinding included. Engines call this; user code never
/// should.
pub(crate) struct CurrentGuard(Option<ThreadId>);

impl CurrentGuard {
    /// The scope is the body of Amber thread `tid`.
    pub(crate) fn enter(tid: ThreadId) -> CurrentGuard {
        CurrentGuard(CURRENT.replace(Some(tid)))
    }

    /// The scope is kernel context: no current thread.
    pub(crate) fn kernel() -> CurrentGuard {
        CurrentGuard(CURRENT.replace(None))
    }
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.set(self.0);
    }
}

/// The text of a caught panic payload, for [`EngineError::Panic`].
pub(crate) fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A binary-semaphore-style gate a parked [`RealEngine`](crate::RealEngine)
/// thread waits on (a simulated thread parks by switching stacks instead).
///
/// Permits posted before the wait are consumed by it, so wake-ups never
/// race with blocks. Two rules make a wake cost one host hand-off or
/// nothing. The permit is recorded under the lock, the wake is issued
/// after it: the woken thread finds the lock free. A wake nobody waits for
/// is a load: the `Condvar` counts the threads inside its waits.
pub(crate) struct Gate {
    state: Mutex<u32>,
    cv: Condvar,
}

impl Gate {
    pub(crate) fn new() -> Gate {
        Gate {
            state: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a permit is available, consuming it.
    pub(crate) fn wait(&self) {
        let mut permits = self.state.lock();
        while *permits == 0 {
            self.cv.wait(&mut permits);
        }
        *permits -= 1;
    }

    /// Posts one permit, waking a waiter if present.
    pub(crate) fn post(&self) {
        *self.state.lock() += 1;
        // The guard is gone: the woken thread finds the lock free.
        self.cv.notify_one();
    }

    /// Permits posted and not yet consumed.
    #[cfg(test)]
    pub(crate) fn permits(&self) -> u32 {
        *self.state.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_spec_uniform() {
        let s = ClusterSpec::uniform(8, 4);
        assert_eq!((s.nodes, s.processors), (8, 4));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn cluster_spec_rejects_empty() {
        let _ = ClusterSpec::uniform(0, 4);
    }

    #[test]
    fn gate_permit_before_wait_is_not_lost() {
        let g = Gate::new();
        g.post();
        // Must return immediately rather than deadlocking the test.
        g.wait();
    }

    #[test]
    fn gate_wakes_waiter() {
        let g = Arc::new(Gate::new());
        let g2 = Arc::clone(&g);
        let h = std::thread::spawn(move || g2.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        g.post();
        h.join().unwrap();
    }

    /// Runs `f` on a thread of its own and fails, rather than hangs, when
    /// a lost wake leaves it parked past `secs`.
    fn within<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(std::time::Duration::from_secs(secs))
            .expect("a gate lost a wake (or a thread under test panicked)")
    }

    #[test]
    fn gates_hand_a_turn_back_and_forth() {
        // Every post lands on a gate whose waiter is parked, about to park
        // or just woken: the three states a wake issued after the unlock
        // can meet.
        const ROUND_TRIPS: u32 = 200_000;
        let turns = within(60, || {
            let (ping, pong) = (Arc::new(Gate::new()), Arc::new(Gate::new()));
            let (ping2, pong2) = (Arc::clone(&ping), Arc::clone(&pong));
            let peer = std::thread::spawn(move || {
                for _ in 0..ROUND_TRIPS {
                    ping2.wait();
                    pong2.post();
                }
            });
            for _ in 0..ROUND_TRIPS {
                ping.post();
                pong.wait();
            }
            peer.join().unwrap();
            (ping.permits(), pong.permits())
        });
        assert_eq!(turns, (0, 0), "permits left over");
    }

    #[test]
    fn racing_posters_lose_no_permit() {
        const POSTERS: u32 = 4;
        const POSTS: u32 = 50_000;
        let left = within(60, || {
            let g = Arc::new(Gate::new());
            let posters: Vec<_> = (0..POSTERS)
                .map(|_| {
                    let g = Arc::clone(&g);
                    std::thread::spawn(move || (0..POSTS).for_each(|_| g.post()))
                })
                .collect();
            for _ in 0..POSTERS * POSTS {
                g.wait();
            }
            posters.into_iter().for_each(|p| p.join().unwrap());
            g.permits()
        });
        assert_eq!(left, 0, "more permits than posts");
    }

    #[test]
    fn current_thread_is_scoped() {
        assert_eq!(current_thread(), None);
        {
            let _g = CurrentGuard::enter(ThreadId(7));
            assert_eq!(current_thread(), Some(ThreadId(7)));
            {
                let _kernel = CurrentGuard::kernel();
                assert_eq!(current_thread(), None);
            }
            assert_eq!(current_thread(), Some(ThreadId(7)));
        }
        assert_eq!(current_thread(), None);
    }

    #[test]
    fn engine_error_display() {
        let e = EngineError::Deadlock {
            at: SimTime::from_ms(5),
            blocked: vec![(ThreadId(1), "join".to_string())],
        };
        let s = e.to_string();
        assert!(s.contains("deadlock"), "{s}");
        assert!(s.contains("thread1"), "{s}");
        assert!(s.contains("join"), "{s}");
    }
}
