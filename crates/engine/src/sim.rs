//! The deterministic discrete-event engine.
//!
//! [`SimEngine`] runs an Amber program under a *virtual clock*. User code
//! executes natively (real Rust closures), and exactly one Amber thread runs
//! at a time, so no Amber thread has an OS thread of its own: each has a
//! 256 KiB stack of its own, and all of them run on the OS thread that
//! called [`run_boxed`](crate::Engine::run_boxed). Stacks outlive their
//! engine: a thread's fiber goes back to one capped, process-wide cache when
//! the thread ends or its engine drops, and the next spawn anywhere takes it
//! from there instead of mapping one. Whoever holds the "baton"
//! executes until its next block point (work, block, yield, sleep, the end
//! of its body) and there runs the one dispatch step itself
//! (`SimInner::pass_baton`): grant the next runnable thread, else advance
//! the virtual clock to the earliest event and handle it, until some thread
//! can run. If that thread is the caller it carries on; otherwise the caller
//! switches stacks to it (`crate::fiber::swap`), or back to `run_boxed` once
//! the run is over. Virtual time advances only inside that step, and at an
//! uncontested charge, one whose step could only have handed the baton
//! straight back at the end of its burst (see [`work`](SimEngine::work)).
//! So:
//!
//! * computation costs come from explicit [`work`](crate::Engine::work)
//!   charges (occupying one of the node's P virtual processors, queueing
//!   under the node's scheduling policy, preempted by its quantum);
//! * communication costs come from the [`LatencyModel`] applied to every
//!   [`leg`](crate::Engine::leg);
//! * the whole run is deterministic: same program, same spec, same trace.
//!   The step folds every grant, `(clock, thread)`, into one word, the
//!   [`schedule_digest`](crate::Engine::schedule_digest), so two runs'
//!   schedules compare as two integers.
//!
//! Determinism is what lets this reproduce the paper's figures: a
//! "32-processor" run is simulated event by event, with speedup read off
//! the virtual clock, and the same program reads the same virtual time on
//! any host, however many CPUs it has or lends the run.
//!
//! The state has an owner, not a lock. `run_boxed` claims it for its OS
//! thread, on which every fiber of the run lives, and gives it back when
//! the run ends; while it runs, a touch of the state from that thread is a
//! thread-local address, a load and a compare with no atomic
//! read-modify-write, and one from any other OS thread panics. Outside a
//! run (`now()` after it, `set_scheduler` before it) each touch claims the
//! state for itself. A nested touch panics: the state is borrowed, never
//! aliased.
//!
//! The queue holds data only: every event is a thread id or the fault
//! layer's typed item, and the step runs no code but thread bodies. It is a
//! min-heap of integer keys, one per event, each packing the instant, the
//! event's sequence number and the slot its payload waits in, so the heap
//! orders events by `(at, seq)` with one integer compare. Every
//! message goes through the fault layer's windows (`crate::fault::Links`,
//! under the spec's `FaultPlan`, perfect by default), which live in the
//! state too: a copy's arrival and a lost attempt's timer are typed events
//! of the one queue, and the step settles a copy and handles its payload in
//! one place. Every message is a leg, and its payload is its arrival: it
//! moves a travelling thread and wakes the leg's kernel-class wait. A timed
//! kernel wake ([`wake_kernel_after`](crate::Engine::wake_kernel_after)) is
//! a thread id on the queue too, handled as
//! [`unblock_kernel`](crate::Engine::unblock_kernel) would be. Deadlock
//! detection is part of the step as well: if every live thread is blocked
//! and no event is pending, the step fails the run with
//! [`EngineError::Deadlock`] naming the blocked threads and their reasons.
//!
//! What belongs to an Amber thread rather than to an OS thread — its id and
//! its invocation frames — lives in the OS thread's thread-locals while it
//! runs, and in its fiber's `Parked` while it is switched out: every switch
//! exchanges the two. Which thread runs is also this OS thread's last grant,
//! so a block point checks its caller with two thread-local reads. A run
//! that fails leaves its parked threads' stacks unreturned to, which leaks
//! what is on them and nothing else; their engine's drop unmaps them rather
//! than caching them.

use std::cell::{Cell, RefCell, RefMut};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::{Arc, Mutex, PoisonError};

use crate::engine::{
    must_current_thread, panic_message, ClusterSpec, CurrentGuard, Engine, EngineError, Parked,
    ThreadBody, WakeClass,
};
use crate::fault::{splitmix, Links, Scheduled, Wire};
use crate::fiber::{self, Stack};
use crate::ids::{NodeId, ThreadId};
use crate::policy::{Fifo, Scheduler};
use crate::stats::NetStats;
use crate::time::SimTime;
use crate::trace::{ProtocolEvent, Tracer};
use crate::LatencyModel;

/// What a simulated thread is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    /// In the runnable queue, will execute user code at the current instant.
    Ready,
    /// Holds the baton: executing user code, or running the dispatch step
    /// that will pass it on.
    Active,
    /// Occupying a processor for a charged CPU burst.
    Working,
    /// Waiting in the node scheduler for a free processor.
    QueuedCpu,
    /// Parked until `unblock`.
    Blocked,
    /// Parked until a timer event.
    Sleeping,
    /// Terminated.
    Dead,
}

/// What a simulated thread runs the first time it is switched to.
struct Start {
    /// Valid while the thread runs: threads run only inside `run_boxed`,
    /// whose engine holds it.
    inner: *const SimInner,
    tid: ThreadId,
    body: ThreadBody,
}

/// A simulated thread's stack, and where its stack pointer and per-thread
/// state are kept while it is switched out. Owned through a [`FiberBox`], so
/// its address never changes: its stack's first frame and the switch point
/// into it.
struct Fiber {
    sp: Cell<*mut u8>,
    parked: Parked,
    start: Cell<Option<Start>>,
    stack: Stack,
}

/// Owns a boxed [`Fiber`] through a raw pointer, which, unlike a `Box`,
/// leaves the pointers into it valid when the owner moves.
struct FiberBox(NonNull<Fiber>);

// SAFETY: a fiber's context runs only inside `run_boxed`, on the OS thread
// that called it. Another OS thread reaches a fiber only while no context
// runs on it and none will be resumed: arming one in a `spawn` outside a
// run, dropping an engine, or passing through the cache.
unsafe impl Send for FiberBox {}

/// The most fibers [`SPARE`] keeps. The largest simulated run in the tree,
/// SOR at 8 nodes × 4 processors, has 55 threads alive at once, so every
/// cluster of a sweep finds the stacks the one before it left, and the
/// cache pins at most 64 × 260 KiB of address space.
const SPARE_CAP: usize = 64;

/// Fibers no thread runs on, of every engine in the process: a spawn takes
/// one before it maps a stack, and a dropped [`FiberBox`] comes back here
/// until there are [`SPARE_CAP`], as glibc keeps the stacks of joined
/// pthreads. Each was armed before, so each keeps its stack's guard page
/// and the pages its last thread touched.
static SPARE: Mutex<Vec<FiberBox>> = Mutex::new(Vec::new());

/// The cache's list. Nothing panics while holding it, but a poisoned list
/// is still a list.
fn spare() -> std::sync::MutexGuard<'static, Vec<FiberBox>> {
    SPARE.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FiberBox {
    /// A fiber from the cache, or a freshly mapped one.
    fn take() -> std::io::Result<FiberBox> {
        let cached = {
            let mut spare = spare();
            #[cfg(test)]
            tests::count_take(spare.len());
            spare.pop()
        };
        if let Some(fiber) = cached {
            return Ok(fiber);
        }
        let fiber = Box::new(Fiber {
            sp: Cell::new(std::ptr::null_mut()),
            parked: Parked::default(),
            start: Cell::new(None),
            stack: Stack::new()?,
        });
        Ok(FiberBox(NonNull::from(Box::leak(fiber))))
    }

    fn get(&self) -> &Fiber {
        // SAFETY: owned since `take`, and only shared references are made.
        unsafe { self.0.as_ref() }
    }

    /// Makes the fiber `start.tid`'s, to run `start` from a fresh frame.
    /// Its last context, if any, has left its stack for good.
    fn arm(&self, start: Start) {
        let fiber = self.get();
        fiber.parked.reset(start.tid);
        fiber.start.set(Some(start));
        // SAFETY: no context is saved on the stack (see above), and the
        // argument is the fiber `fiber_main` expects, live while it runs.
        let sp = unsafe { fiber::prepare(&fiber.stack, fiber_main, self.0.as_ptr().cast()) };
        fiber.sp.set(sp);
    }

    /// Unmaps the fiber's stack instead of caching it: a context is parked
    /// on it, with values no destructor will run for, and the memory keeps
    /// whatever may still point into it.
    fn discard(self) {
        let fiber = std::mem::ManuallyDrop::new(self);
        // SAFETY: leaked by `take` and owned by this box alone, which is
        // not dropped.
        drop(unsafe { Box::from_raw(fiber.0.as_ptr()) });
    }
}

impl Drop for FiberBox {
    /// Returns the fiber to [`SPARE`]; past the cap, unmaps it.
    fn drop(&mut self) {
        let mut spare = spare();
        if spare.len() < SPARE_CAP {
            spare.push(FiberBox(self.0));
            return;
        }
        drop(spare);
        // SAFETY: leaked by `take` and owned by this box alone.
        drop(unsafe { Box::from_raw(self.0.as_ptr()) });
    }
}

/// `run_boxed`'s own context, on its caller's stack: the step that ends the
/// run switches back to it.
struct Root {
    sp: Cell<*mut u8>,
    /// What ran on this OS thread when the run began, while the run lasts.
    parked: Parked,
}

/// Where `SimState` reaches the [`Root`] of the run in progress.
struct RootPtr(NonNull<Root>);

// SAFETY: set and cleared by `run_boxed` around the run, and dereferenced
// only by steps of that run, on the OS thread running it.
unsafe impl Send for RootPtr {}

/// Who runs a dispatch step, and so where it saves its context.
#[derive(Clone, Copy)]
enum Stepper {
    /// A thread at a block point, resumed when granted the baton again.
    Thread(ThreadId),
    /// A thread whose body has returned: nothing resumes it.
    Exiting(ThreadId),
    /// `run_boxed`, resumed when the run is over.
    Root,
}

/// The base of every simulated thread's stack, above the trampoline: runs
/// the body, records how it ended, and gives the baton up for good.
extern "C" fn fiber_main(fiber: *mut u8) -> ! {
    // SAFETY: `FiberBox::arm` passes its own fiber, live while it runs.
    let fiber = unsafe { &*fiber.cast::<Fiber>() };
    let Some(Start { inner, tid, body }) = fiber.start.take() else {
        std::process::abort()
    };
    // SAFETY: see `Start::inner`.
    let inner = unsafe { &*inner };
    let result = catch_unwind(AssertUnwindSafe(body));
    let mut st = inner.state.borrow();
    if let Err(payload) = result {
        let message = panic_message(&payload);
        if st.error.is_none() {
            st.error = Some(EngineError::Panic {
                thread: tid,
                message,
            });
        }
    }
    st.tcb_mut(tid).state = RunState::Dead;
    st.live -= 1;
    inner.pass_baton(st, Stepper::Exiting(tid));
    // The step switched away, and nothing switches back to an exited thread.
    std::process::abort()
}

struct Tcb {
    node: NodeId,
    /// `None` once the thread has exited and its fiber carries another.
    fiber: Option<FiberBox>,
    state: RunState,
    /// Remaining CPU burst when `Working` or `QueuedCpu`.
    remaining: SimTime,
    priority: i32,
    /// User wake-ups that arrived while the thread was not user-blocked;
    /// each is consumed by one subsequent user `block_current`. Counters,
    /// not flags: two wake-ups must satisfy two waits.
    pending_user: u32,
    /// Kernel wake-ups that arrived while the thread was not kernel-blocked.
    pending_kernel: u32,
    /// The number of the thread's last leg whose message has arrived; its
    /// next leg is one past it.
    arrived: u64,
    /// Which class the current `Blocked` state belongs to.
    blocked_class: WakeClass,
    name: String,
    block_reason: &'static str,
}

impl Drop for Tcb {
    /// A thread that never ended when its engine goes leaves a context on
    /// its fiber that nothing resumes: that stack is unmapped, not cached.
    fn drop(&mut self) {
        if let Some(fiber) = self.fiber.take() {
            if self.state != RunState::Dead {
                fiber.discard();
            }
        }
    }
}

struct NodeSim {
    processors: usize,
    /// Processors currently occupied by charged bursts.
    busy: usize,
    sched: Box<dyn Scheduler>,
    /// `sched.quantum()`, read once when the policy is installed.
    quantum: Option<SimTime>,
}

enum Event {
    /// A charged burst completed; the thread resumes user code.
    WorkDone(ThreadId),
    /// A charged burst hit the timeslice quantum; re-enqueue the remainder.
    Quantum(ThreadId),
    /// A sleep timer fired.
    Wake(ThreadId),
    /// A `wake_kernel_after` fell due: wake the thread in the kernel class.
    KernelWake(ThreadId),
    /// The fault layer's: a copy arrived, or a lost attempt's timer expired.
    Net(Wire),
}

/// A message's payload: the message of `tid`'s leg number `leg` reached its
/// destination; `node` is where a travelling thread arrives.
struct Arrival {
    tid: ThreadId,
    leg: u64,
    node: Option<NodeId>,
}

/// Bits of a queue key that name an event's slot; the `seq` takes the
/// rest of the low 64, the instant the high 64.
const SLOT_BITS: u32 = 24;
const SEQ_BITS: u32 = 64 - SLOT_BITS;

/// An event due `at`, numbered `seq`, whose payload sits in `slot`, as one
/// integer: `at << 64 | seq << SLOT_BITS | slot`. Keys order as `(at, seq)`
/// do; `seq` is unique, so the slot never decides.
///
/// # Panics
///
/// If `seq` or `slot` does not fit its bits: a key never wraps.
fn event_key(at: SimTime, seq: u64, slot: usize) -> u128 {
    #[expect(
        clippy::disallowed_macros,
        reason = "a wrapped key would reorder the run"
    )]
    {
        assert!(
            seq < 1 << SEQ_BITS,
            "event seq {seq} overflows {SEQ_BITS} bits"
        );
        assert!(
            slot < 1 << SLOT_BITS,
            "event slot {slot} overflows {SLOT_BITS} bits"
        );
    }
    (u128::from(at.as_ns()) << 64) | (u128::from(seq) << SLOT_BITS) | slot as u128
}

/// The events due, in `(at, seq)` order: a min-heap of [`event_key`]s, each
/// naming the slot that holds its payload, so the heap moves 16-byte
/// integers and compares them in one step. A popped event's slot goes to
/// `free` for the next push.
#[derive(Default)]
struct Events {
    keys: BinaryHeap<Reverse<u128>>,
    slots: Vec<Option<Event>>,
    free: Vec<usize>,
}

impl Events {
    /// Queues `ev`; a key that does not fit panics with the queue as it was.
    fn push(&mut self, at: SimTime, seq: u64, ev: Event) {
        let slot = self.free.last().copied().unwrap_or(self.slots.len());
        let key = event_key(at, seq, slot);
        match self.free.pop() {
            Some(slot) => self.slots[slot] = Some(ev),
            None => self.slots.push(Some(ev)),
        }
        self.keys.push(Reverse(key));
    }

    /// The earliest event and the instant it is due.
    fn pop(&mut self) -> Option<(SimTime, Event)> {
        let Reverse(key) = self.keys.pop()?;
        let slot = (key as usize) & ((1 << SLOT_BITS) - 1);
        #[expect(
            clippy::expect_used,
            reason = "a slot holds its event until its key pops"
        )]
        let ev = self.slots[slot]
            .take()
            .expect("a queued key with an empty slot");
        self.free.push(slot);
        Some((SimTime::from_ns((key >> 64) as u64), ev))
    }

    /// When the earliest event is due.
    fn next_at(&self) -> Option<SimTime> {
        self.keys
            .peek()
            .map(|&Reverse(key)| SimTime::from_ns((key >> 64) as u64))
    }
}

thread_local! {
    /// The thread the last grant on this OS thread went to, the engine that
    /// granted it, and its node then. Once a run is over it is what it was
    /// before the run: `None`, or the grant of the thread whose body ran it.
    ///
    /// A thread's node changes only in `SimState::arrive`, inside a step,
    /// while the thread is not running, and a thread resumes only through a
    /// grant: so while it runs, what its grant recorded is its node, and
    /// `node_of` answers the running thread's question about itself from
    /// here. The engine is part of the key because thread ids repeat across
    /// engines; it is only ever compared.
    static GRANTED: Cell<Option<(*const SimInner, ThreadId, NodeId)>> =
        const { Cell::new(None) };

    /// Never read: its address names this OS thread in a [`StateCell`]'s
    /// owner word. It is unique among live OS threads and a multiple of 8,
    /// which leaves bit 0 for [`RUN`].
    static HERE: u64 = const { 0 };
}

/// Puts `GRANTED` back as it was when dropped.
struct RestoreGrant(Option<(*const SimInner, ThreadId, NodeId)>);

impl Drop for RestoreGrant {
    fn drop(&mut self) {
        GRANTED.set(self.0);
    }
}

/// An owner word's: nobody holds the state.
const FREE: usize = 0;
/// An owner word's bit: the OS thread named holds the state for a whole
/// run, not for one touch.
const RUN: usize = 1;

const OTHER_THREAD: &str = "a SimEngine touched from another OS thread while it runs";
const NESTED: &str = "a SimEngine's state touched while already borrowed";
const RUN_TWICE: &str = "SimEngine::run_boxed may only be called once";

fn here() -> usize {
    HERE.with(|word| std::ptr::from_ref(word) as usize)
}

/// `SimState` and the word naming the OS thread that may touch it: `FREE`,
/// a run's thread with [`RUN`] set, or a thread touching it once from
/// outside a run.
struct StateCell {
    owner: AtomicUsize,
    state: RefCell<SimState>,
}

// SAFETY: `state` is touched only through a `StateRef`, which the OS thread
// named in `owner` alone can make: a claim takes the word with Acquire and
// its release gives it back with Release, so the word admits one OS thread
// at a time and all one holder did happens before the next holder's claim.
// A run's claim lasts the run, and all of a run's fibers live on the one OS
// thread that claimed it. `owner` is an atomic, and what `SimState` owns is
// `Send`, so moving the borrow between holders is sound.
unsafe impl Sync for StateCell {}

/// Holds a [`StateCell`]'s owner word, and gives it back on drop.
struct Claim<'a>(&'a AtomicUsize);

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.0.store(FREE, Release);
    }
}

/// A borrow of the state: a run's thread's alone, or a touch from outside
/// a run with the claim it made.
struct StateRef<'a> {
    st: RefMut<'a, SimState>,
    /// Declared after `st`, so the word is given back after the borrow.
    _touch: Option<Claim<'a>>,
}

impl Deref for StateRef<'_> {
    type Target = SimState;
    fn deref(&self) -> &SimState {
        &self.st
    }
}

impl DerefMut for StateRef<'_> {
    fn deref_mut(&mut self) -> &mut SimState {
        &mut self.st
    }
}

impl StateCell {
    fn new(state: SimState) -> StateCell {
        StateCell {
            owner: AtomicUsize::new(FREE),
            state: RefCell::new(state),
        }
    }

    /// Borrows the state. On the OS thread running this engine that is a
    /// thread-local read, a load and a compare beside the borrow flag;
    /// anywhere else it claims the owner word for the borrow's length.
    ///
    /// # Panics
    ///
    /// On a nested borrow, or on another OS thread while a run holds it.
    #[inline(always)]
    fn borrow(&self) -> StateRef<'_> {
        let me = here();
        // Relaxed: only this OS thread stores its own name in the word, and
        // it sees its own stores; any other value takes the Acquire claim.
        let touch = if self.owner.load(Relaxed) == me | RUN {
            None
        } else {
            Some(self.claim(me, OTHER_THREAD))
        };
        #[expect(clippy::panic, reason = "a nested borrow is a bug")]
        let Ok(st) = self.state.try_borrow_mut() else {
            panic!("{NESTED}")
        };
        StateRef { st, _touch: touch }
    }

    /// Claims the owner word as `word`, waiting out another OS thread's
    /// touch; panics with `held_by_run` if a run holds it, and on a claim
    /// nested in this thread's own.
    #[cold]
    fn claim(&self, word: usize, held_by_run: &str) -> Claim<'_> {
        let mine = word & !RUN;
        loop {
            match self
                .owner
                .compare_exchange_weak(FREE, word, Acquire, Relaxed)
            {
                Ok(_) => return Claim(&self.owner),
                #[expect(clippy::panic, reason = "touching a running engine is a bug")]
                Err(held) if held & RUN != 0 => panic!("{held_by_run}"),
                #[expect(clippy::panic, reason = "a nested borrow is a bug")]
                Err(held) if held == mine => panic!("{NESTED}"),
                Err(_) => std::thread::yield_now(),
            }
        }
    }
}

struct SimState {
    clock: SimTime,
    /// The next event's number: with its instant, its place in the queue.
    seq: u64,
    events: Events,
    /// Threads ready to execute user code at the current instant (FIFO).
    runnable: VecDeque<ThreadId>,
    /// Indexed by thread id: ids are handed out in order, and a tcb is
    /// never removed.
    threads: Vec<Tcb>,
    nodes: Vec<NodeSim>,
    /// Threads spawned and not yet dead.
    live: usize,
    started: bool,
    finished: bool,
    error: Option<EngineError>,
    /// Threads that left their stacks for good in a step before this one,
    /// whose fibers can go back to the cache ([`SPARE`]).
    exited: Vec<ThreadId>,
    /// The run in progress's [`Root`].
    root: Option<RootPtr>,
    /// Every link's window.
    links: Links<Arrival>,
    /// Every grant of the baton so far, `(clock, thread)` in order, folded
    /// into one word ([`Engine::schedule_digest`]).
    digest: u64,
}

struct SimInner {
    state: StateCell,
    stats: Arc<NetStats>,
    tracer: Tracer,
}

/// Deterministic virtual-time engine. See the module docs.
pub struct SimEngine {
    inner: Arc<SimInner>,
}

impl SimEngine {
    /// Builds a simulated cluster from `spec`.
    pub fn new(spec: ClusterSpec) -> Self {
        let nodes = (0..spec.nodes)
            .map(|_| {
                let sched = Box::<Fifo>::default();
                NodeSim {
                    processors: spec.processors,
                    busy: 0,
                    quantum: sched.quantum(),
                    sched,
                }
            })
            .collect::<Vec<_>>();
        let stats = Arc::new(NetStats::new(nodes.len()));
        let inner = Arc::new(SimInner {
            state: StateCell::new(SimState {
                clock: SimTime::ZERO,
                seq: 0,
                events: Events::default(),
                runnable: VecDeque::new(),
                threads: Vec::new(),
                nodes,
                live: 0,
                started: false,
                finished: false,
                error: None,
                exited: Vec::new(),
                root: None,
                links: Links::new(spec.fault, spec.latency, spec.nodes),
                digest: 0,
            }),
            tracer: Tracer::new(Arc::clone(&stats)),
            stats,
        });
        SimEngine { inner }
    }

    /// Convenience: a uniform cluster with the given latency model.
    pub fn cluster(nodes: usize, processors: usize, latency: LatencyModel) -> Arc<Self> {
        Arc::new(SimEngine::new(
            ClusterSpec::uniform(nodes, processors).with_latency(latency),
        ))
    }
}

impl SimState {
    #[expect(clippy::expect_used, reason = "spawned TCBs are never removed")]
    fn tcb(&self, tid: ThreadId) -> &Tcb {
        self.threads.get(tid.0 as usize).expect("unknown thread id")
    }

    #[expect(clippy::expect_used, reason = "spawned TCBs are never removed")]
    fn tcb_mut(&mut self, tid: ThreadId) -> &mut Tcb {
        self.threads
            .get_mut(tid.0 as usize)
            .expect("unknown thread id")
    }

    #[expect(
        clippy::expect_used,
        reason = "a fiber leaves its tcb after its last step"
    )]
    fn fiber(&self, tid: ThreadId) -> &Fiber {
        self.tcb(tid).fiber.as_ref().expect("exited thread").get()
    }

    #[expect(
        clippy::expect_used,
        reason = "run_boxed sets the root before any step"
    )]
    fn root(&self) -> &Root {
        let root = self.root.as_ref().expect("no run in progress");
        // SAFETY: `run_boxed`'s local, live until it clears `root`.
        unsafe { root.0.as_ref() }
    }

    fn push_event(&mut self, at: SimTime, ev: Event) {
        self.events.push(at, self.seq, ev);
        self.seq += 1;
    }

    /// Whether a burst of `cost` by the running thread on `node_ix` is
    /// uncontested: the step it would take must grant the baton straight
    /// back when the burst ends, with nothing else done in between. That
    /// holds when a processor is free, the node's quantum does not cut the
    /// burst, no thread is ready, the run goes on, and no event is due by
    /// the burst's end: an event due exactly then was queued earlier, has
    /// the smaller `seq`, and fires first.
    fn uncontested(&self, node_ix: usize, cost: SimTime) -> bool {
        let node = &self.nodes[node_ix];
        let end = self.clock + cost;
        self.runnable.is_empty()
            && node.busy < node.processors
            && !self.finished
            && self.error.is_none()
            && self.events.next_at().is_none_or(|next| next > end)
            && node.quantum.is_none_or(|q| cost <= q)
    }

    /// Queues what the fault layer scheduled, in its order.
    fn schedule(&mut self, wire: Scheduled) {
        for (delay, ev) in wire.into_iter().flatten() {
            let at = self.clock + delay;
            self.push_event(at, Event::Net(ev));
        }
    }

    /// Starts (or resumes) a charged burst for `tid` on its node, splitting
    /// it at the scheduler's quantum. The caller has already accounted the
    /// processor (`busy`).
    fn start_burst(&mut self, tid: ThreadId, stats: &NetStats) {
        let (node_ix, remaining) = {
            let tcb = self.tcb(tid);
            (tcb.node.index(), tcb.remaining)
        };
        #[expect(clippy::disallowed_macros, reason = "work() skips a zero cost")]
        {
            debug_assert!(!remaining.is_zero(), "zero-length burst");
        }
        let quantum = self.nodes[node_ix].quantum;
        let clock = self.clock;
        stats.record_dispatch(node_ix);
        match quantum {
            Some(q) if remaining > q => {
                self.tcb_mut(tid).remaining = remaining - q;
                self.tcb_mut(tid).state = RunState::Working;
                self.push_event(clock + q, Event::Quantum(tid));
            }
            _ => {
                self.tcb_mut(tid).remaining = SimTime::ZERO;
                self.tcb_mut(tid).state = RunState::Working;
                self.push_event(clock + remaining, Event::WorkDone(tid));
            }
        }
    }

    /// After a processor on `node_ix` frees up, admit the next queued burst.
    fn pull_next(&mut self, node_ix: usize, stats: &NetStats) {
        #[expect(clippy::disallowed_macros, reason = "callers free a processor first")]
        {
            debug_assert!(self.nodes[node_ix].busy < self.nodes[node_ix].processors);
        }
        if let Some(next) = self.nodes[node_ix].sched.dequeue() {
            self.nodes[node_ix].busy += 1;
            self.start_burst(next, stats);
        }
    }

    /// Makes `thread` ready if it is blocked in `class`; otherwise records
    /// the wake as pending, for its next block in that class. A dead thread
    /// takes no wake.
    fn wake(&mut self, thread: ThreadId, class: WakeClass) {
        let tcb = self.tcb_mut(thread);
        match (tcb.state, tcb.blocked_class == class) {
            (RunState::Dead, _) => {}
            (RunState::Blocked, true) => {
                tcb.state = RunState::Ready;
                self.runnable.push_back(thread);
            }
            _ => match class {
                WakeClass::User => tcb.pending_user += 1,
                WakeClass::Kernel => tcb.pending_kernel += 1,
            },
        }
    }

    /// The message of `tid`'s leg number `leg` has arrived: moves a
    /// travelling thread to `node` and wakes the leg's kernel-class wait. A
    /// late copy of an earlier leg's message finds its number arrived
    /// already and does nothing.
    fn arrive(&mut self, Arrival { tid, leg, node }: Arrival) {
        let tcb = self.tcb_mut(tid);
        if tcb.arrived >= leg {
            return;
        }
        tcb.arrived = leg;
        if let Some(node) = node {
            #[expect(clippy::disallowed_macros, reason = "a leg's wait holds no burst")]
            {
                debug_assert!(
                    !matches!(tcb.state, RunState::Working | RunState::QueuedCpu),
                    "cannot migrate a thread in the middle of a CPU burst"
                );
            }
            tcb.node = node;
        }
        self.wake(tid, WakeClass::Kernel);
    }

    fn blocked_report(&self) -> Vec<(ThreadId, String)> {
        (0u64..)
            .zip(&self.threads)
            .filter(|(_, t)| t.state == RunState::Blocked)
            .map(|(id, t)| (ThreadId(id), format!("{} ({})", t.block_reason, t.name)))
            .collect()
    }
}

impl SimInner {
    fn finish(&self, st: &mut SimState, error: Option<EngineError>) {
        if st.error.is_none() {
            st.error = error;
        }
        st.finished = true;
    }

    /// Raises and sends a message from `from` to `to` through its link's
    /// window, and queues what its first attempt scheduled.
    fn transmit(
        &self,
        st: &mut SimState,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        arrival: Arrival,
    ) {
        let clock = st.clock;
        self.tracer
            .emit(|| clock, ProtocolEvent::MessageSend { from, to, bytes });
        let wire = st
            .links
            .send(from, to, bytes, arrival, &self.tracer, || clock);
        st.schedule(wire);
    }

    /// The one dispatch step, run by whoever gives the baton up, with the
    /// borrow of the state it already holds: a thread at a block point (its
    /// tcb already says what it waits for), a thread leaving for good, or
    /// `run_boxed` handing the baton out for the first time. Returns once
    /// the stepper holds the baton again; for `run_boxed`, once the run is
    /// over.
    ///
    /// The order of the tests is the schedule, and every pinned result
    /// depends on it: in particular `live == 0` ends a run with whatever is
    /// still queued — undelivered copies, trailing duplicates, the timers
    /// of lost attempts, timed kernel wakes — unhandled.
    fn pass_baton(&self, mut st: StateRef<'_>, stepper: Stepper) {
        // Threads that exited in earlier steps are off their stacks now.
        while let Some(tid) = st.exited.pop() {
            drop(st.tcb_mut(tid).fiber.take());
        }
        let next = loop {
            if st.finished {
                break None;
            }
            if st.error.is_some() || st.live == 0 {
                self.finish(&mut st, None);
                break None;
            }
            // 1. Grant the baton to a thread that is ready *now*.
            if let Some(tid) = st.runnable.pop_front() {
                let tcb = st.tcb_mut(tid);
                #[expect(clippy::disallowed_macros, reason = "only a Ready tcb joins runnable")]
                {
                    debug_assert_eq!(tcb.state, RunState::Ready);
                }
                tcb.state = RunState::Active;
                st.digest = splitmix(st.digest ^ st.clock.as_ns()).wrapping_add(tid.0);
                break Some(tid);
            }
            // 2. Otherwise advance the virtual clock to the next event.
            if let Some((at, ev)) = st.events.pop() {
                #[expect(clippy::disallowed_macros, reason = "events go at clock + delay")]
                {
                    debug_assert!(at >= st.clock, "time went backwards");
                }
                st.clock = at;
                match ev {
                    Event::WorkDone(tid) => {
                        let node_ix = st.tcb(tid).node.index();
                        st.nodes[node_ix].busy -= 1;
                        st.tcb_mut(tid).state = RunState::Ready;
                        st.runnable.push_back(tid);
                        st.pull_next(node_ix, &self.stats);
                    }
                    Event::Quantum(tid) => {
                        let node_ix = st.tcb(tid).node.index();
                        st.nodes[node_ix].busy -= 1;
                        self.stats.record_preemption(node_ix);
                        let prio = st.tcb(tid).priority;
                        st.tcb_mut(tid).state = RunState::QueuedCpu;
                        st.nodes[node_ix].sched.enqueue(tid, prio);
                        st.pull_next(node_ix, &self.stats);
                    }
                    Event::Wake(tid) => {
                        if st.tcb(tid).state == RunState::Sleeping {
                            st.tcb_mut(tid).state = RunState::Ready;
                            st.runnable.push_back(tid);
                        }
                    }
                    Event::KernelWake(tid) => st.wake(tid, WakeClass::Kernel),
                    Event::Net(Wire::Copy { from, to, seq }) => {
                        match st.links.settle(from, to, seq) {
                            Some(arrival) => st.arrive(arrival),
                            None => {
                                let _kernel = CurrentGuard::kernel();
                                let dup = ProtocolEvent::MessageDuplicateSuppressed { from, to };
                                self.tracer.emit(|| at, dup);
                            }
                        }
                    }
                    Event::Net(Wire::Retransmit(lost)) => {
                        let _kernel = CurrentGuard::kernel();
                        let wire = st.links.retransmit(lost, &self.tracer, || at);
                        st.schedule(wire);
                    }
                }
                continue;
            }
            // 3. No runnable thread, no event, live threads remain: deadlock.
            let blocked = st.blocked_report();
            let at = st.clock;
            self.finish(&mut st, Some(EngineError::Deadlock { at, blocked }));
            break None;
        };
        GRANTED.set(next.map(|tid| (std::ptr::from_ref(self), tid, st.tcb(tid).node)));
        match (stepper, next) {
            (Stepper::Thread(me), Some(tid)) if me == tid => return,
            (Stepper::Root, None) => return,
            _ => {}
        }
        if let Stepper::Exiting(me) = stepper {
            st.exited.push(me);
        }
        // With the run over nothing switches back to a thread: like every
        // other parked thread, it never returns to user code.
        let (save, outgoing) = match stepper {
            Stepper::Thread(me) | Stepper::Exiting(me) => {
                let fiber = st.fiber(me);
                (fiber.sp.as_ptr(), &fiber.parked)
            }
            Stepper::Root => (st.root().sp.as_ptr(), &st.root().parked),
        };
        let (sp, incoming) = match next {
            Some(tid) => {
                let fiber = st.fiber(tid);
                (fiber.sp.get(), &fiber.parked)
            }
            None => (st.root().sp.get(), &st.root().parked),
        };
        // The per-thread state goes with the context: the stepper's into
        // its own `Parked`, the incoming context's out of its.
        outgoing.exchange();
        incoming.exchange();
        drop(st);
        #[expect(
            clippy::disallowed_macros,
            reason = "block points hold no tracked lock"
        )]
        {
            // Every context shares this OS thread's held-lock stack, so it
            // must be empty here; `engine_block_checkpoint` proves it at
            // every block point, and a thread exits holding nothing.
            debug_assert!(amber_verify::holds_no_lock(), "a lock held across a switch");
        }
        // SAFETY: `sp` is where the context switched to was saved (or
        // prepared) and has not been resumed since: only the step that
        // grants a thread or ends the run switches to it. `save` is the
        // stepper's own slot, live until something switches back to it.
        unsafe { fiber::swap(save, sp) };
    }
}

impl SimEngine {
    /// Borrows the state for the thread at a block point, which must be
    /// running on its own stack: the step saves the running context in the
    /// caller's fiber, so any other caller (a thread of another engine, or
    /// another OS thread) would overwrite a context still in use.
    ///
    /// The caller is that thread exactly when this OS thread's last grant
    /// (`GRANTED`) went to it from this engine: a grant switches to the
    /// grantee's stack, and a nested run puts back the grant it found. So
    /// the check is two thread-local reads and a compare; checked builds
    /// also test that the caller's stack lies in the thread's fiber.
    fn borrow_running(&self) -> (ThreadId, StateRef<'_>) {
        let tid = must_current_thread();
        let st = self.inner.state.borrow();
        let granted = GRANTED
            .get()
            .is_some_and(|(engine, t, _)| t == tid && std::ptr::eq(engine, &*self.inner));
        #[expect(
            clippy::disallowed_macros,
            reason = "a block point is called on its stack"
        )]
        {
            assert!(granted, "{tid} is not a thread of this engine running here");
        }
        if amber_verify::ACTIVE {
            let here = 0u8;
            let fiber = st.tcb(tid).fiber.as_ref();
            #[expect(clippy::disallowed_macros, reason = "verify builds check the grant")]
            {
                assert!(
                    fiber.is_some_and(|f| f.get().stack.contains(std::ptr::addr_of!(here))),
                    "{tid} is not a thread of this engine running here"
                );
            }
        }
        (tid, st)
    }

    fn block_class(&self, reason: &'static str, class: WakeClass) {
        amber_verify::engine_block_checkpoint(reason);
        let (tid, st) = self.borrow_running();
        self.park(tid, st, reason, class);
    }

    /// Blocks `tid`, the running thread, in `class` and returns once it
    /// holds the baton again; a wake of that class that came first is
    /// consumed instead, and the thread carries on.
    // Called rather than inlined into `block_class`, it added ~8 ns to a
    // baton pass (`engine.sim.handoff.p50_us` 0.083 → 0.092 µs on x86_64).
    #[inline(always)]
    fn park(&self, tid: ThreadId, mut st: StateRef<'_>, reason: &'static str, class: WakeClass) {
        #[expect(clippy::disallowed_macros, reason = "only the baton holder runs code")]
        {
            debug_assert_eq!(st.tcb(tid).state, RunState::Active, "no baton");
        }
        let pending = match class {
            WakeClass::User => &mut st.tcb_mut(tid).pending_user,
            WakeClass::Kernel => &mut st.tcb_mut(tid).pending_kernel,
        };
        if *pending > 0 {
            *pending -= 1;
            return;
        }
        {
            let tcb = st.tcb_mut(tid);
            tcb.state = RunState::Blocked;
            tcb.blocked_class = class;
            tcb.block_reason = reason;
        }
        self.inner.pass_baton(st, Stepper::Thread(tid));
    }

    fn unblock_class(&self, thread: ThreadId, class: WakeClass) {
        self.inner.state.borrow().wake(thread, class);
    }
}

impl Engine for SimEngine {
    fn now(&self) -> SimTime {
        self.inner.state.borrow().clock
    }

    fn nodes(&self) -> usize {
        self.inner.stats.node_count()
    }

    fn processors(&self, node: NodeId) -> usize {
        self.inner.state.borrow().nodes[node.index()].processors
    }

    fn spawn(&self, node: NodeId, name: String, body: ThreadBody) -> ThreadId {
        let mut st = self.inner.state.borrow();
        #[expect(clippy::disallowed_macros, reason = "spawn targets are checked nodes")]
        {
            assert!(node.index() < st.nodes.len(), "spawn on nonexistent {node}");
        }
        let tid = ThreadId(st.threads.len() as u64);
        #[expect(clippy::expect_used, reason = "no stack, no Amber thread")]
        let fiber = FiberBox::take().expect("failed to map a stack for an Amber thread");
        st.live += 1;
        fiber.arm(Start {
            inner: Arc::as_ptr(&self.inner),
            tid,
            body,
        });
        st.threads.push(Tcb {
            node,
            fiber: Some(fiber),
            state: RunState::Ready,
            remaining: SimTime::ZERO,
            priority: 0,
            pending_user: 0,
            pending_kernel: 0,
            arrived: 0,
            blocked_class: WakeClass::User,
            name,
            block_reason: "",
        });
        st.runnable.push_back(tid);
        tid
    }

    /// Charges `cost` to the running thread on its node. An uncontested
    /// burst (`SimState::uncontested`) is a clock advance: the thread keeps
    /// the baton and takes no step, so its node's scheduler sees no
    /// `dequeue` when it ends. Any other burst takes the full step.
    fn work(&self, cost: SimTime) {
        if cost.is_zero() {
            return;
        }
        amber_verify::engine_block_checkpoint("work");
        let (tid, mut st) = self.borrow_running();
        #[expect(clippy::disallowed_macros, reason = "only the baton holder runs code")]
        {
            debug_assert_eq!(st.tcb(tid).state, RunState::Active, "no baton");
        }
        let node_ix = st.tcb(tid).node.index();
        if st.uncontested(node_ix, cost) {
            // Exactly what the step would do: dispatch the burst, pop its
            // `WorkDone` next, and grant the baton back. The `seq` it would
            // have taken goes unused, which reorders no two other events;
            // its `pull_next` would find the scheduler empty, since a node
            // queues a thread only while every processor is busy; and the
            // exited fibers wait for the next real step. A schedule seed
            // that forces a yield at every block point must route this
            // shortcut through its choice point, or turn it off.
            self.inner.stats.record_dispatch(node_ix);
            st.clock += cost;
            return;
        }
        st.tcb_mut(tid).remaining = cost;
        if st.nodes[node_ix].busy < st.nodes[node_ix].processors {
            st.nodes[node_ix].busy += 1;
            st.start_burst(tid, &self.inner.stats);
        } else {
            let prio = st.tcb(tid).priority;
            st.tcb_mut(tid).state = RunState::QueuedCpu;
            st.nodes[node_ix].sched.enqueue(tid, prio);
        }
        self.inner.pass_baton(st, Stepper::Thread(tid));
    }

    /// Answers from `SimState::uncontested`, the test `work` makes, for the
    /// node the running thread's grant recorded (see `GRANTED`), with one
    /// borrow of the state. It takes no `borrow_running`: the kernel asks
    /// around every invoke, and that stack check would cost each ask more
    /// than the answer.
    fn uncontested(&self, cost: SimTime) -> bool {
        if cost.is_zero() {
            return true;
        }
        match GRANTED.get() {
            Some((engine, _, node)) if std::ptr::eq(engine, &*self.inner) => {
                self.inner.state.borrow().uncontested(node.index(), cost)
            }
            _ => false,
        }
    }

    fn block_current(&self, reason: &'static str) {
        self.block_class(reason, WakeClass::User);
    }

    fn unblock(&self, thread: ThreadId) {
        self.unblock_class(thread, WakeClass::User);
    }

    fn block_kernel(&self, reason: &'static str) {
        self.block_class(reason, WakeClass::Kernel);
    }

    fn unblock_kernel(&self, thread: ThreadId) {
        self.unblock_class(thread, WakeClass::Kernel);
    }

    fn node_of(&self, thread: ThreadId) -> NodeId {
        // The running thread asking about itself reads what its grant
        // recorded (see `GRANTED`); every other query borrows the state.
        if let Some((engine, tid, node)) = GRANTED.get() {
            if tid == thread && std::ptr::eq(engine, &*self.inner) {
                if amber_verify::ACTIVE {
                    let tcb_node = self.inner.state.borrow().tcb(thread).node;
                    #[expect(clippy::disallowed_macros, reason = "verify builds check the grant")]
                    {
                        assert_eq!(node, tcb_node, "{thread} moved since its grant");
                    }
                }
                return node;
            }
        }
        self.inner.state.borrow().tcb(thread).node
    }

    fn set_priority(&self, thread: ThreadId, priority: i32) {
        self.inner.state.borrow().tcb_mut(thread).priority = priority;
    }

    fn set_scheduler(&self, node: NodeId, mut scheduler: Box<dyn Scheduler>) {
        let mut st = self.inner.state.borrow();
        let node_ix = node.index();
        while let Some(t) = st.nodes[node_ix].sched.dequeue() {
            let prio = st.tcb(t).priority;
            scheduler.enqueue(t, prio);
        }
        st.nodes[node_ix].quantum = scheduler.quantum();
        st.nodes[node_ix].sched = scheduler;
    }

    fn leg(&self, from: NodeId, to: NodeId, bytes: usize, travel: bool, reason: &'static str) {
        amber_verify::engine_block_checkpoint(reason);
        let (tid, mut st) = self.borrow_running();
        #[expect(clippy::disallowed_macros, reason = "migration targets are checked")]
        {
            assert!(to.index() < st.nodes.len(), "no such {to}");
        }
        let leg = st.tcb(tid).arrived + 1;
        let node = travel.then_some(to);
        let arrival = Arrival { tid, leg, node };
        self.inner.transmit(&mut st, from, to, bytes, arrival);
        // Block first, test after: a kernel wake that came before the
        // arrival is consumed by a turn of this loop, not taken for it.
        loop {
            self.park(tid, st, reason, WakeClass::Kernel);
            st = self.inner.state.borrow();
            if st.tcb(tid).arrived >= leg {
                return;
            }
        }
    }

    fn wake_kernel_after(&self, delay: SimTime, thread: ThreadId) {
        let mut st = self.inner.state.borrow();
        let at = st.clock + delay;
        st.push_event(at, Event::KernelWake(thread));
    }

    fn yield_now(&self) {
        amber_verify::engine_block_checkpoint("yield");
        let (tid, mut st) = self.borrow_running();
        st.tcb_mut(tid).state = RunState::Ready;
        st.runnable.push_back(tid);
        self.inner.pass_baton(st, Stepper::Thread(tid));
    }

    fn sleep(&self, duration: SimTime) {
        if duration.is_zero() {
            return self.yield_now();
        }
        amber_verify::engine_block_checkpoint("sleep");
        let (tid, mut st) = self.borrow_running();
        st.tcb_mut(tid).state = RunState::Sleeping;
        let at = st.clock + duration;
        st.push_event(at, Event::Wake(tid));
        self.inner.pass_baton(st, Stepper::Thread(tid));
    }

    fn stats(&self) -> &Arc<NetStats> {
        &self.inner.stats
    }

    fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    fn schedule_digest(&self) -> Option<u64> {
        Some(self.inner.state.borrow().digest)
    }

    fn run_boxed(&self, node: NodeId, body: ThreadBody) -> Result<(), EngineError> {
        // A run nested in another engine's thread hands that thread its
        // grant back as it returns or unwinds: its block points test it.
        let _outer = RestoreGrant(GRANTED.get());
        let root = Root {
            sp: Cell::new(std::ptr::null_mut()),
            parked: Parked::default(),
        };
        // The run owns the state from here until this returns or unwinds.
        let _run = self.inner.state.claim(here() | RUN, RUN_TWICE);
        {
            let mut st = self.inner.state.borrow();
            #[expect(clippy::disallowed_macros, reason = "one engine runs one program")]
            {
                assert!(!st.started, "{RUN_TWICE}");
            }
            st.started = true;
            st.root = Some(RootPtr(NonNull::from(&root)));
        }
        // With `main` spawned the first step finds a runnable thread, never
        // `live == 0`; from here the threads pass the baton among themselves,
        // and the step that ends the run switches back here.
        self.spawn(node, "main".to_string(), body);
        self.inner
            .pass_baton(self.inner.state.borrow(), Stepper::Root);
        let mut st = self.inner.state.borrow();
        st.root = None;
        match st.error.clone() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{with_invocations, EngineExt};
    use crate::policy::RoundRobin;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicU64;

    fn sim(nodes: usize, procs: usize) -> Arc<SimEngine> {
        SimEngine::cluster(nodes, procs, LatencyModel::fixed(SimTime::from_ms(1)))
    }

    impl Events {
        /// No key queued, and no payload left behind.
        fn is_empty(&self) -> bool {
            self.keys.is_empty() && self.iter().next().is_none()
        }

        /// The payloads queued, in slot order.
        fn iter(&self) -> impl Iterator<Item = &Event> {
            self.slots.iter().flatten()
        }
    }

    /// Cached fibers taken by every OS thread, and by this one.
    static TAKEN: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        static TAKEN_HERE: Cell<u64> = const { Cell::new(0) };
    }

    /// Called under the cache's lock, so a take that came first is
    /// counted before the next holder of the lock reads the count.
    pub(super) fn count_take(cached: usize) {
        if cached > 0 {
            TAKEN.fetch_add(1, Relaxed);
            TAKEN_HERE.set(TAKEN_HERE.get() + 1);
        }
    }

    /// `f`'s result, and whether another OS thread took a cached fiber
    /// while it ran.
    fn others_took<R>(f: impl FnOnce() -> R) -> (R, bool) {
        let (all, mine) = (TAKEN.load(Relaxed), TAKEN_HERE.get());
        let out = f();
        let others = (TAKEN.load(Relaxed) - all) - (TAKEN_HERE.get() - mine);
        (out, others > 0)
    }

    /// Runs `attempt` until it says the cache was left alone while it ran
    /// (`Some`): the harness runs other engines' tests beside this one, on
    /// other OS threads, and they share the cache.
    fn undisturbed<R>(mut attempt: impl FnMut() -> Option<R>) -> R {
        for _ in 0..100 {
            if let Some(out) = attempt() {
                return out;
            }
        }
        panic!("other tests used the fiber cache during each of 100 attempts")
    }

    #[test]
    fn run_returns_main_result() {
        let e = sim(1, 1);
        let out = e.run(NodeId(0), || 6 * 7).unwrap();
        assert_eq!(out, 42);
    }

    #[test]
    fn work_advances_virtual_clock() {
        let e = sim(1, 1);
        let e2 = Arc::clone(&e);
        let elapsed = e
            .run(NodeId(0), move || {
                let t0 = e2.now();
                e2.work(SimTime::from_ms(5));
                e2.work(SimTime::from_ms(7));
                e2.now() - t0
            })
            .unwrap();
        assert_eq!(elapsed, SimTime::from_ms(12));
    }

    #[test]
    fn parallel_work_on_two_processors_overlaps() {
        let e = sim(1, 2);
        let e2 = Arc::clone(&e);
        let elapsed = e
            .run(NodeId(0), move || {
                let e3 = Arc::clone(&e2);
                let t0 = e2.now();
                let helper = e2.spawn(
                    NodeId(0),
                    "helper".into(),
                    Box::new(move || e3.work(SimTime::from_ms(10))),
                );
                e2.work(SimTime::from_ms(10));
                // Wait for the helper by polling is not possible; just work
                // again and measure: both 10 ms bursts overlapped.
                let _ = helper;
                e2.now() - t0
            })
            .unwrap();
        assert_eq!(elapsed, SimTime::from_ms(10));
    }

    #[test]
    fn serialized_work_on_one_processor_queues() {
        let e = sim(1, 1);
        let e2 = Arc::clone(&e);
        let total = Arc::new(Mutex::new(SimTime::ZERO));
        let total2 = Arc::clone(&total);
        e.run(NodeId(0), move || {
            let e3 = Arc::clone(&e2);
            let t0 = e2.now();
            e2.spawn(
                NodeId(0),
                "helper".into(),
                Box::new(move || e3.work(SimTime::from_ms(10))),
            );
            e2.work(SimTime::from_ms(10));
            // The helper queued behind us (or vice versa): total time for
            // both bursts on one processor is 20 ms. Sleep until it is done.
            e2.sleep(SimTime::from_ms(100));
            *total2.lock() = e2.now() - t0;
        })
        .unwrap();
        // Our own burst finished at 10 or 20 ms; can't see the helper's end
        // directly, but the clock after sleep proves no time was lost.
        assert!(total.lock().as_ms() >= 100);
        assert_eq!(e.stats().total_dispatches(), 2);
    }

    #[test]
    fn message_latency_is_modelled() {
        let e = SimEngine::cluster(2, 1, LatencyModel::fixed(SimTime::from_ms(3)));
        let e2 = Arc::clone(&e);
        let elapsed = e
            .run(NodeId(0), move || {
                let t0 = e2.now();
                e2.leg(NodeId(0), NodeId(1), 128, false, "await-arrival");
                e2.now() - t0
            })
            .unwrap();
        assert_eq!(elapsed, SimTime::from_ms(3));
        assert_eq!(e.stats().total_msgs(), 1);
        assert_eq!(e.stats().total_bytes(), 128);
    }

    #[test]
    fn whoever_gives_the_baton_up_finds_the_end_of_the_run() {
        // Who takes the last step, main's body, and the one thread the
        // deadlock report names - `None` when the run ends well.
        type Program = Box<dyn FnOnce(Arc<SimEngine>) + Send>;
        type Row = (&'static str, Program, Option<(ThreadId, &'static str)>);
        let rows: Vec<Row> = vec![
            (
                "a parking thread",
                Box::new(|e| e.block_current("never-woken")),
                Some((ThreadId(0), "never-woken (main)")),
            ),
            (
                "an exiting thread",
                Box::new(|e| {
                    let e2 = Arc::clone(&e);
                    e.spawn(
                        NodeId(0),
                        "child".into(),
                        Box::new(move || e2.block_current("orphaned")),
                    );
                    // The child parks for good; main comes back and returns.
                    e.yield_now();
                }),
                Some((ThreadId(1), "orphaned (child)")),
            ),
            (
                "the last exit, a kernel wake still queued",
                Box::new(|e| e.wake_kernel_after(SimTime::from_ms(1), must_current_thread())),
                None,
            ),
        ];
        for (who, program, deadlock) in rows {
            let e = sim(2, 1);
            let e2 = Arc::clone(&e);
            match (e.run(NodeId(0), move || program(e2)), deadlock) {
                (Ok(()), None) => {}
                (Err(EngineError::Deadlock { blocked, .. }), Some((thread, why))) => {
                    assert_eq!(blocked, [(thread, why.to_string())], "{who}");
                }
                (other, _) => panic!("{who}: {other:?}"),
            }
            // `live == 0` ends a run whatever is still queued: the wake
            // never falls due, and no clock moves.
            assert_eq!(e.now(), SimTime::ZERO, "{who}");
        }
    }

    #[test]
    fn every_body_starts_with_an_empty_invocation_context() {
        // A thread leaves frames and carried bytes behind as it exits; the
        // next spawn runs on its fiber, back from the cache, and starts with
        // none of them. Neither does a body spawned while main holds some.
        fn litter() {
            with_invocations(|c| {
                c.frames.extend([7, 8]);
                c.carry_bytes = 99;
            });
        }
        fn empty() -> bool {
            with_invocations(|c| c.frames.is_empty() && c.carry_bytes == 0)
        }
        undisturbed(|| {
            let e = sim(1, 1);
            let e2 = Arc::clone(&e);
            e.run(NodeId(0), move || {
                assert!(empty(), "main");
                litter();
                let fiber = |tid| std::ptr::from_ref(e2.inner.state.borrow().fiber(tid));
                let first = || {
                    assert!(empty(), "a fresh fiber");
                    litter();
                };
                let litterer = e2.spawn(NodeId(0), "litterer".into(), Box::new(first));
                let littered = fiber(litterer);
                // It runs and exits at the first step; the second returns
                // its fiber to the cache.
                e2.yield_now();
                e2.yield_now();
                let second = || assert!(empty(), "a reused fiber");
                let reuser = e2.spawn(NodeId(0), "reuser".into(), Box::new(second));
                let reused = fiber(reuser) == littered;
                e2.yield_now();
                // Main's own context went nowhere.
                assert_eq!(with_invocations(|c| c.carry_bytes), 99);
                // Another test's fiber came back in between: try again.
                reused.then_some(())
            })
            .unwrap()
        });
    }

    #[test]
    fn panic_in_thread_is_reported() {
        let e = sim(1, 1);
        let err = e.run(NodeId(0), || panic!("boom")).unwrap_err();
        match err {
            EngineError::Panic { message, .. } => assert!(message.contains("boom")),
            other => panic!("expected panic error, got {other}"),
        }
    }

    #[test]
    fn unblock_before_block_is_not_lost() {
        let e = sim(1, 2);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            let me = must_current_thread();
            // Wake ourselves first (pending), then block: must not hang.
            e2.unblock(me);
            e2.block_current("self-wake");
        })
        .unwrap();
    }

    #[test]
    fn sleep_advances_clock_exactly() {
        let e = sim(1, 1);
        let e2 = Arc::clone(&e);
        let t = e
            .run(NodeId(0), move || {
                e2.sleep(SimTime::from_ms(250));
                e2.now()
            })
            .unwrap();
        assert_eq!(t, SimTime::from_ms(250));
    }

    #[test]
    fn migration_changes_charge_node() {
        let e = sim(2, 1);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            let me = must_current_thread();
            assert_eq!(e2.node_of(me), NodeId(0));
            e2.leg(NodeId(0), NodeId(1), 64, true, "migrating");
            assert_eq!(e2.node_of(me), NodeId(1));
            e2.work(SimTime::from_ms(1));
        })
        .unwrap();
        // The burst was dispatched on node 1.
        assert_eq!(e.stats().node(1).dispatches, 1);
        assert_eq!(e.stats().node(0).dispatches, 0);
    }

    #[test]
    fn a_stray_kernel_wake_does_not_end_a_leg() {
        // Half-way through main's 1 ms leg another thread wakes it.
        let e = sim(2, 1);
        let e2 = Arc::clone(&e);
        let (me, at, node) = e
            .run(NodeId(0), move || {
                let me = must_current_thread();
                let e3 = Arc::clone(&e2);
                let stray = move || {
                    e3.sleep(SimTime::from_us(500));
                    e3.unblock_kernel(me);
                };
                e2.spawn(NodeId(1), "stray".into(), Box::new(stray));
                e2.leg(NodeId(0), NodeId(1), 64, true, "test-leg");
                (me, e2.now(), e2.node_of(me))
            })
            .unwrap();
        assert_eq!((at, node), (SimTime::from_ms(1), NodeId(1)));
        // The wake was consumed inside the leg, not left pending.
        assert_eq!(e.inner.state.borrow().tcb(me).pending_kernel, 0);
    }

    #[test]
    fn round_robin_quantum_preempts() {
        let e = SimEngine::cluster(1, 1, LatencyModel::zero());
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            e2.set_scheduler(NodeId(0), Box::new(RoundRobin::new(SimTime::from_ms(1))));
            let e3 = Arc::clone(&e2);
            e2.spawn(
                NodeId(0),
                "b".into(),
                Box::new(move || e3.work(SimTime::from_ms(5))),
            );
            e2.work(SimTime::from_ms(5));
        })
        .unwrap();
        // Two 5 ms bursts with a 1 ms quantum: at least 8 preemptions.
        assert!(e.stats().node(0).preemptions >= 8);
    }

    #[test]
    fn deterministic_event_ordering() {
        // Run the same mildly concurrent program twice and require identical
        // message/dispatch counts, final clocks and schedules.
        fn run_once() -> (SimTime, u64, u64, u64) {
            let e = sim(4, 2);
            let e2 = Arc::clone(&e);
            let t = e
                .run(NodeId(0), move || {
                    for i in 0..4u64 {
                        let e3 = Arc::clone(&e2);
                        e2.spawn(
                            NodeId((i % 4) as u16),
                            format!("w{i}"),
                            Box::new(move || {
                                e3.work(SimTime::from_us(100 * (i + 1)));
                                let (src, dst) =
                                    (NodeId((i % 4) as u16), NodeId(((i + 1) % 4) as u16));
                                e3.leg(src, dst, 64, false, "w-leg");
                            }),
                        );
                    }
                    e2.sleep(SimTime::from_ms(50));
                    e2.now()
                })
                .unwrap();
            let digest = e.schedule_digest().unwrap();
            (
                t,
                e.stats().total_msgs(),
                e.stats().total_dispatches(),
                digest,
            )
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn the_digest_tells_apart_schedules_the_counts_do_not() {
        // Two programs that differ only in the order they spawn two threads
        // made ready at one instant. The same charges and legs happen at the
        // same instants, so the clock and every count agree; the thread ids
        // swap places in the schedule, and only the digest says so.
        fn run_once(short_first: bool) -> (SimTime, u64, u64, u64) {
            let e = sim(2, 2);
            let e2 = Arc::clone(&e);
            e.run(NodeId(0), move || {
                let mut costs = [1, 2];
                if !short_first {
                    costs.reverse();
                }
                for ms in costs {
                    let e3 = Arc::clone(&e2);
                    let body = move || {
                        e3.work(SimTime::from_ms(ms));
                        e3.leg(NodeId(0), NodeId(1), 64, false, "leg");
                    };
                    e2.spawn(NodeId(0), format!("{ms} ms"), Box::new(body));
                }
                e2.sleep(SimTime::from_ms(50));
            })
            .unwrap();
            let stats = e.stats();
            let digest = e.schedule_digest().unwrap();
            (
                e.now(),
                stats.total_dispatches(),
                stats.total_msgs(),
                digest,
            )
        }
        let (short, long) = (run_once(true), run_once(false));
        assert_eq!((short.0, short.1, short.2), (long.0, long.1, long.2));
        assert_eq!(short.2, 2);
        assert_ne!(short.3, long.3);
        assert_eq!(short, run_once(true));
    }

    /// Runs the program `the_dispatch_order_is_pinned` pins on a 2N×2P
    /// cluster built from `spec` and returns `(now in µs, thread)` for every
    /// resume from an engine primitive, in the order the resumes happened,
    /// then the clock the run ended on and the duplicates it suppressed.
    fn resume_log(spec: ClusterSpec) -> (Vec<(u64, u64)>, u64, u64) {
        fn spawn<M, F>(e: &Arc<SimEngine>, mark: &M, node: u16, name: &str, body: F) -> ThreadId
        where
            M: Fn() + Clone + Send + 'static,
            F: FnOnce(Arc<SimEngine>, M) + Send + 'static,
        {
            let (e2, mark) = (Arc::clone(e), mark.clone());
            e.spawn(NodeId(node), name.into(), Box::new(move || body(e2, mark)))
        }
        let e = Arc::new(SimEngine::new(spec));
        let log = Arc::new(Mutex::new(Vec::new()));
        let mark = {
            let (e, log) = (Arc::clone(&e), Arc::clone(&log));
            move || log.lock().push((e.now().as_us(), must_current_thread().0))
        };
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            let e = e2;
            e.set_scheduler(NodeId(0), Box::new(RoundRobin::new(SimTime::from_ms(1))));
            let waiter = spawn(&e, &mark, 1, "waiter", |e, mark| {
                e.block_kernel("await-courier");
                mark();
                e.work(SimTime::from_us(700));
                mark();
                e.sleep(SimTime::from_ms(1));
                mark();
            });
            spawn(&e, &mark, 0, "spinner", |e, mark| {
                e.work(SimTime::from_us(2500));
                mark();
                e.yield_now();
                mark();
                e.work(SimTime::from_us(1500));
                mark();
                e.sleep(SimTime::from_ms(2));
                mark();
            });
            spawn(&e, &mark, 0, "sender", move |e, mark| {
                e.work(SimTime::from_ms(3));
                mark();
                // The courier's leg is the one message: where it arrives,
                // the courier spawns a thread and wakes the kernel waiter.
                spawn(&e, &mark, 0, "courier", move |e, mark| {
                    e.leg(NodeId(0), NodeId(1), 64, true, "courier-leg");
                    mark();
                    spawn(&e, &mark, 1, "fourth", |e, mark| {
                        e.work(SimTime::from_us(500));
                        mark();
                        e.yield_now();
                        mark();
                    });
                    e.unblock_kernel(waiter);
                });
                mark();
                e.yield_now();
                mark();
                e.work(SimTime::from_ms(1));
                mark();
            });
            e.work(SimTime::from_us(2500));
            mark();
            e.sleep(SimTime::from_ms(3));
            mark();
            e.yield_now();
            mark();
        })
        .unwrap();
        let log = log.lock().clone();
        (log, e.now().as_us(), e.stats().total_dups_suppressed())
    }

    #[test]
    fn the_dispatch_order_is_pinned() {
        // Round-robin on node 0 (three bursts on two processors), FIFO on
        // node 1, and a courier whose leg's arrival spawns a thread and
        // wakes a kernel waiter. `deterministic_event_ordering` compares a
        // run with itself; this compares it with the order the engine has
        // always produced.
        let spec =
            ClusterSpec::uniform(2, 2).with_latency(LatencyModel::fixed(SimTime::from_ms(1)));
        let faulty = spec
            .clone()
            .with_faults(crate::FaultPlan::seeded(7).duplicate_rate(1.0));
        // Captured at c654b01, where a thread of its own made every grant,
        // with the courier's message a handler that spawned the fourth
        // thread; this courier program was captured on 09572bf (the last
        // commit with handlers), where it reads the same times and order
        // with one more thread and its one resume at 5500.
        let resumes = vec![
            (3500, 0),
            (3500, 2),
            (3500, 2),
            (4500, 3),
            (4500, 3),
            (4500, 3),
            (5000, 2),
            (5500, 4),
            (5500, 1),
            (5500, 3),
            (6000, 5),
            (6000, 5),
            (6200, 1),
            (6500, 0),
            (6500, 0),
            (7000, 2),
            (7200, 1),
        ];
        assert_eq!(resume_log(spec), (resumes.clone(), 7200, 0));
        // The duplicate of the one message is suppressed and moves nothing.
        assert_eq!(resume_log(faulty), (resumes, 7200, 1));
    }

    /// What `the_charge_order_is_pinned` reads off its program: `(now in
    /// ns, thread)` for every resume, the timer thread's wakes included, in
    /// the order they happened; per charge, in the
    /// order they returned, the thread and whether the charge queued an
    /// event; then the clock the run ended on, in ns, and the dispatches
    /// and preemptions it counted.
    type ChargeLog = (Vec<(u64, u64)>, Vec<(u64, bool)>, u64, u64, u64);

    /// Runs one charge of every kind the uncontested-charge shortcut must
    /// refuse, and of the kinds it may take, on a 2N×1P cluster with
    /// round-robin on node 1, beside a thread that the timers wake. With
    /// `answers`, each charge first asks
    /// `uncontested` and records the answer there, in the order the charges
    /// returned.
    fn charge_log(answers: Option<Arc<Mutex<Vec<bool>>>>) -> ChargeLog {
        let e = sim(2, 1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let queued = Arc::new(Mutex::new(Vec::new()));
        let mark = {
            let (e, log) = (Arc::clone(&e), Arc::clone(&log));
            move || log.lock().push((e.now().as_ns(), must_current_thread().0))
        };
        let charge = {
            let (e, queued) = (Arc::clone(&e), Arc::clone(&queued));
            move |us: u64| {
                let asked = answers
                    .as_ref()
                    .map(|_| e.uncontested(SimTime::from_us(us)));
                let seq = e.inner.state.borrow().seq;
                e.work(SimTime::from_us(us));
                let moved = e.inner.state.borrow().seq != seq;
                queued.lock().push((must_current_thread().0, moved));
                if let (Some(answers), Some(asked)) = (&answers, asked) {
                    answers.lock().push(asked);
                }
            }
        };
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            let e = e2;
            e.set_scheduler(NodeId(1), Box::new(RoundRobin::new(SimTime::from_ms(1))));
            // The timers' thread, parked before the first charge.
            let (timed_e, timed_mark) = (Arc::clone(&e), mark.clone());
            let timed = move || {
                for _ in 0..2 {
                    timed_e.block_kernel("await-timer");
                    timed_mark();
                }
            };
            let timed = e.spawn(NodeId(1), "timed".into(), Box::new(timed));
            e.yield_now();
            // Alone, with nothing queued.
            charge(100);
            mark();
            // A timer at exactly the end of the burst fires first...
            e.wake_kernel_after(SimTime::from_us(200), timed);
            charge(200);
            mark();
            // ...and one a nanosecond later fires after it.
            e.wake_kernel_after(SimTime::from_ns(300_001), timed);
            charge(300);
            mark();
            // Round-robin at 1 ms cuts a 2.5 ms burst, not a 1 ms one. The
            // nanosecond timer has fired by then.
            let (rr_e, rr_charge, rr_mark) = (Arc::clone(&e), charge.clone(), mark.clone());
            e.spawn(
                NodeId(1),
                "rr".into(),
                Box::new(move || {
                    rr_e.sleep(SimTime::from_us(1));
                    rr_charge(2500);
                    rr_mark();
                    rr_charge(1000);
                    rr_mark();
                }),
            );
            e.sleep(SimTime::from_ms(10));
            mark();
            // A peer in `runnable` with the processor free, then the peer's
            // charge with the processor taken.
            let (peer_charge, peer_mark) = (charge.clone(), mark.clone());
            e.spawn(
                NodeId(0),
                "peer".into(),
                Box::new(move || {
                    peer_charge(10);
                    peer_mark();
                }),
            );
            charge(50);
            mark();
            charge(50);
            mark();
        })
        .unwrap();
        let log = log.lock().clone();
        let queued = queued.lock().clone();
        let (dispatches, preemptions) = (0..2).fold((0, 0), |(d, p), n| {
            let row = e.stats().node(n);
            (d + row.dispatches, p + row.preemptions)
        });
        (log, queued, e.now().as_ns(), dispatches, preemptions)
    }

    #[test]
    fn the_charge_order_is_pinned() {
        // The resumes, the clock and the counts were captured when every
        // charge queued the end of its burst: taking some without a step
        // moves none of them. The timers then ran a handler of their own;
        // this program, whose timers wake a parked thread (thread 1), was
        // captured on 09572bf (the last commit with timer handlers), with
        // each `wake_kernel_after(d, timed)` an `after(d, ..)` whose handler
        // called `unblock_kernel(timed)`: the same times and charges, with
        // the timers' thread in place of kernel context.
        let resumes = vec![
            (100_000, 0),
            (300_000, 1),
            (300_000, 0),
            (600_000, 0),
            (600_001, 1),
            (3_101_000, 2),
            (4_101_000, 2),
            (10_600_000, 0),
            (10_650_000, 0),
            (10_660_000, 3),
            (10_710_000, 0),
        ];
        // Which charges take the full step: the lone charge, the one a
        // nanosecond before a timer and the 1 ms one under a 1 ms quantum
        // do not; the tie, the 2.5 ms burst under that quantum, the charge
        // beside a ready peer and both charges against a busy processor do.
        let queued = vec![
            (0, false),
            (0, true),
            (0, false),
            (2, true),
            (2, false),
            (0, true),
            (3, true),
            (0, true),
        ];
        assert_eq!(charge_log(None), (resumes, queued, 10_710_000, 10, 2));
    }

    #[test]
    fn uncontested_agrees_with_work() {
        // Asked just before each charge, `uncontested` says whether that
        // charge takes the shortcut: it leaves `seq` where it was, so it
        // queues no event. Asking moves nothing the pinned log reads.
        let answers = Arc::new(Mutex::new(Vec::new()));
        let log = charge_log(Some(Arc::clone(&answers)));
        let answers = answers.lock().clone();
        let shortcuts: Vec<bool> = log.1.iter().map(|&(_, moved)| !moved).collect();
        assert_eq!(answers, shortcuts);
        assert_eq!(answers.iter().filter(|&&a| a).count(), 3);
        assert_eq!(log, charge_log(None));
        // Outside a run nobody holds a grant: no answer, so `false`.
        let e = sim(1, 1);
        assert!(!e.uncontested(SimTime::from_us(1)));
        assert!(e.uncontested(SimTime::ZERO));
    }

    #[test]
    fn a_lone_thread_queues_no_event() {
        const CHARGES: u64 = 1_000;
        let e = sim(1, 1);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            for i in 1..=CHARGES {
                e2.work(SimTime::from_us(3));
                let st = e2.inner.state.borrow();
                assert!(st.events.is_empty(), "charge {i} left an event queued");
                assert_eq!(st.seq, 0, "charge {i} took a sequence number");
                assert_eq!(st.clock, SimTime::from_us(3 * i));
            }
        })
        .unwrap();
        assert_eq!(e.stats().total_dispatches(), CHARGES);
    }

    #[test]
    fn the_queue_pops_in_at_then_seq_order() {
        // A seeded mix of pushes, most tied on a few instants near the
        // clock, and pops, against a reference heap of `(at, seq)`. Each
        // event carries its `seq` as its payload, so a pop says which key
        // it came from.
        let mut draws = 0u64;
        let mut next = move || {
            draws += 1;
            splitmix(1989 ^ draws)
        };
        let mut events = Events::default();
        let mut reference = BinaryHeap::new();
        let (mut seq, mut clock, mut deepest) = (0u64, 0u64, 0);
        let pop = |events: &mut Events, reference: &mut BinaryHeap<_>| {
            let popped = events.pop().map(|(at, ev)| match ev {
                Event::Wake(ThreadId(seq)) => (at, seq),
                _ => unreachable!("only wakes are queued"),
            });
            assert_eq!(popped, reference.pop().map(|Reverse(key)| key));
            popped
        };
        for step in 0..10_000 {
            // Deepen the queue for a while, then drain it.
            if next() % 5 < if step < 4_000 { 3 } else { 2 } {
                let ahead = if next() % 8 == 0 {
                    next() % 1_000
                } else {
                    next() % 3
                };
                let at = SimTime::from_ns(clock + ahead);
                events.push(at, seq, Event::Wake(ThreadId(seq)));
                reference.push(Reverse((at, seq)));
                seq += 1;
                deepest = deepest.max(reference.len());
            } else if let Some((at, _)) = pop(&mut events, &mut reference) {
                clock = at.as_ns();
            }
            assert_eq!(events.iter().count(), reference.len(), "step {step}");
            let next_at = reference.peek().map(|&Reverse((at, _))| at);
            assert_eq!(events.next_at(), next_at, "step {step}");
        }
        while pop(&mut events, &mut reference).is_some() {}
        assert!(events.is_empty() && reference.is_empty());
        // A popped slot is reused: the queue never held more payloads than
        // its deepest moment.
        assert!(deepest > 100, "{deepest}");
        assert_eq!(events.slots.len(), deepest);
    }

    #[test]
    fn a_key_field_past_its_bits_panics() {
        let (seq, slot) = ((1 << SEQ_BITS) - 1, (1 << SLOT_BITS) - 1);
        // Every field at its limit fills the key exactly...
        assert_eq!(event_key(SimTime::MAX, seq, slot), u128::MAX);
        assert_eq!(event_key(SimTime::ZERO, 0, 0), 0);
        // ...and one past it panics, never wrapping into its neighbour.
        assert_eq!(
            panic_of(|| event_key(SimTime::ZERO, seq + 1, 0)),
            "event seq 1099511627776 overflows 40 bits"
        );
        assert_eq!(
            panic_of(|| event_key(SimTime::ZERO, 0, slot + 1)),
            "event slot 16777216 overflows 24 bits"
        );
        // A push that panics leaves the queue as it was.
        let mut events = Events::default();
        events.push(SimTime::from_ns(5), seq, Event::Wake(ThreadId(1)));
        let wake = Event::Wake(ThreadId(2));
        panic_of(|| events.push(SimTime::from_ns(3), seq + 1, wake));
        assert_eq!(events.iter().count(), 1);
        assert!(matches!(
            events.pop(),
            Some((at, Event::Wake(ThreadId(1)))) if at == SimTime::from_ns(5)
        ));
        assert!(events.is_empty());
    }

    #[test]
    fn a_simulated_run_counts_into_one_shard() {
        // Every simulated thread is a fiber on the run's OS thread, so a
        // whole run counts into one shard, whichever node counts.
        const THREADS: u16 = 16;
        let e = sim(4, 2);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            for t in 0..THREADS {
                let e3 = Arc::clone(&e2);
                let (from, to) = (NodeId(t % 4), NodeId((t + 1) % 4));
                let body = move || {
                    e3.work(SimTime::from_us(5));
                    e3.leg(from, to, 64, true, "test-leg");
                    e3.work(SimTime::from_us(5));
                };
                e2.spawn(from, format!("w{t}"), Box::new(body));
            }
        })
        .unwrap();
        let stats = e.stats();
        assert_eq!(stats.total_msgs(), u64::from(THREADS));
        assert_eq!(stats.total_bytes(), 64 * u64::from(THREADS));
        assert!(stats.total_dispatches() > u64::from(THREADS));
        assert_eq!(stats.shards(), 1);
    }

    #[test]
    fn node_of_answers_the_running_thread_from_its_grant() {
        // Two engines on two OS threads, whose mains are both thread 0:
        // each travels by legs to its own last node, once with its arrival
        // handled in its own step and once switched out to a peer and
        // back in, and reads its node from what the grant recorded. Once
        // b's run is over, a's main, still granted, asks b about "thread
        // 0" and must get b's thread, not itself. Debug and `verify`
        // builds also hold every answer from a grant to the tcb's.
        fn travel(e: Arc<SimEngine>, last: u16, met: Arc<std::sync::Barrier>) -> ThreadId {
            let me = must_current_thread();
            assert_eq!(me, ThreadId(0));
            let granted = |node: u16| Some((Arc::as_ptr(&e.inner), me, NodeId(node)));
            e.leg(NodeId(0), NodeId(1), 64, true, "alone");
            assert_eq!(GRANTED.get(), granted(1));
            assert_eq!(e.node_of(me), NodeId(1));
            let e_peer = Arc::clone(&e);
            let peer = move || {
                // Main is parked mid-leg: asked about, it is looked up.
                assert_eq!(e_peer.node_of(me), NodeId(1));
                assert_eq!(e_peer.node_of(must_current_thread()), NodeId(1));
            };
            e.spawn(NodeId(1), "peer".into(), Box::new(peer));
            e.leg(NodeId(1), NodeId(last), 64, true, "switched");
            assert_eq!(GRANTED.get(), granted(last));
            assert_eq!(e.node_of(me), NodeId(last));
            // Both mains have arrived for good.
            met.wait();
            me
        }
        let (a, b) = (sim(3, 1), sim(3, 1));
        let met = Arc::new(std::sync::Barrier::new(2));
        let (b_over, b_is_over) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let (b2, met2) = (Arc::clone(&b), Arc::clone(&met));
            s.spawn(move || {
                let e = Arc::clone(&b2);
                b2.run(NodeId(0), move || travel(e, 0, met2)).unwrap();
                b_over.send(()).unwrap();
            });
            let (a2, b3) = (Arc::clone(&a), Arc::clone(&b));
            a.run(NodeId(0), move || {
                let me = travel(Arc::clone(&a2), 2, met);
                b_is_over.recv().unwrap();
                assert_eq!(b3.node_of(me), NodeId(0));
                assert_eq!(a2.node_of(me), NodeId(2));
            })
            .unwrap();
        });
        // With both runs over, the tcbs answer.
        assert_eq!(
            (a.node_of(ThreadId(0)), b.node_of(ThreadId(0))),
            (NodeId(2), NodeId(0))
        );
    }

    /// The message `f` panicked with; fails if it returned.
    fn panic_of<R>(f: impl FnOnce() -> R) -> String {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(_) => panic!("returned instead of panicking"),
            Err(payload) => panic_message(&payload),
        }
    }

    #[test]
    fn a_nested_run_hands_its_caller_back() {
        // An outer thread runs an inner engine to completion, whose main is
        // thread 0 too, on another node; then the outer thread's block
        // points and grant-read answers are its own again at once.
        let outer = sim(1, 1);
        let o2 = Arc::clone(&outer);
        let got = outer
            .run(NodeId(0), move || {
                let me = must_current_thread();
                let inner = sim(2, 1);
                let i2 = Arc::clone(&inner);
                let seven = inner
                    .run(NodeId(1), move || {
                        i2.work(SimTime::from_us(5));
                        i2.yield_now();
                        7
                    })
                    .unwrap();
                assert!(o2.uncontested(SimTime::from_us(1)));
                o2.work(SimTime::from_us(3));
                o2.yield_now();
                assert!(o2.uncontested(SimTime::from_us(1)));
                (seven, o2.node_of(me), o2.now())
            })
            .unwrap();
        assert_eq!(got, (7, NodeId(0), SimTime::from_us(3)));
    }

    #[test]
    fn a_foreign_block_point_panics() {
        // Thread ids repeat across engines: every engine here has a thread
        // 0, and none of them may be parked by another engine's step.
        const FOREIGN: &str = "thread0 is not a thread of this engine running here";
        let (a, b, idle) = (sim(1, 1), sim(1, 1), sim(1, 1));
        idle.spawn(NodeId(0), "never-run".into(), Box::new(|| ()));
        let a2 = Arc::clone(&a);
        a.run(NodeId(0), move || {
            // A thread of `a` at a block point of an idle engine...
            assert_eq!(panic_of(|| idle.yield_now()), FOREIGN);
            assert_eq!(panic_of(|| idle.work(SimTime::from_us(1))), FOREIGN);
            // ...and a thread of `b`, run nested, at one of `a`'s.
            let a3 = Arc::clone(&a2);
            let err = b.run(NodeId(0), move || a3.yield_now()).unwrap_err();
            assert!(
                matches!(&err, EngineError::Panic { message, .. } if message == FOREIGN),
                "{err}"
            );
            // `a`'s thread goes on.
            a2.work(SimTime::from_us(2));
            a2.yield_now();
        })
        .unwrap();
        assert_eq!(a.now(), SimTime::from_us(2));
    }

    #[test]
    fn only_the_thread_running_an_engine_touches_it_until_the_run_is_over() {
        let e = sim(2, 1);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            e2.work(SimTime::from_ms(1));
            let me = must_current_thread();
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert_eq!(panic_of(|| e2.now()), OTHER_THREAD);
                    assert_eq!(panic_of(|| e2.node_of(me)), OTHER_THREAD);
                });
            });
            // The run goes on untouched.
            e2.work(SimTime::from_ms(1));
            assert_eq!(e2.now(), SimTime::from_ms(2));
        })
        .unwrap();
        // Over, it answers any OS thread, two at once included.
        let at_once = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    at_once.wait();
                    for _ in 0..10_000 {
                        assert_eq!(e.now(), SimTime::from_ms(2));
                        assert_eq!(e.node_of(ThreadId(0)), NodeId(0));
                    }
                });
            }
        });
        assert_eq!(e.now(), SimTime::from_ms(2));
        assert_eq!(e.inner.state.owner.load(Relaxed), FREE);
    }

    #[test]
    fn a_second_run_panics_and_leaves_the_engine_answering() {
        let e = sim(1, 1);
        let e2 = Arc::clone(&e);
        // From inside the run the claim refuses it, and the body's panic
        // fails the run...
        let err = e
            .run(NodeId(0), move || {
                e2.work(SimTime::from_ms(3));
                e2.run(NodeId(0), || ()).unwrap();
            })
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::Panic { message, .. } if message == RUN_TWICE),
            "{err}"
        );
        // ...after it, the claim is free and the first run's mark refuses
        // it. Each refusal gives the claim back: another OS thread reads.
        assert_eq!(panic_of(|| e.run(NodeId(0), || ())), RUN_TWICE);
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(e.now(), SimTime::from_ms(3)));
        });
        assert_eq!(e.processors(NodeId(0)), 1);
    }

    #[test]
    fn a_nested_touch_panics_rather_than_deadlocking() {
        let e = sim(1, 1);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            let st = e2.inner.state.borrow();
            assert_eq!(panic_of(|| e2.now()), NESTED);
            drop(st);
            e2.work(SimTime::from_ms(1));
        })
        .unwrap();
        // Outside a run the nested touch finds its own claim. The deadline
        // is this test's own: the mutex this replaced deadlocked here.
        let (tx, rx) = std::sync::mpsc::channel();
        let e2 = Arc::clone(&e);
        std::thread::spawn(move || {
            let st = e2.inner.state.borrow();
            let _ = tx.send(panic_of(|| e2.now()));
            drop(st);
        });
        let nested = rx.recv_timeout(std::time::Duration::from_secs(20));
        assert_eq!(nested.as_deref(), Ok(NESTED));
        assert_eq!(e.now(), SimTime::from_ms(1));
    }

    #[test]
    fn the_chaos_schedule_is_pinned() {
        // 150 one-leg threads over the six directed links of a 3-node
        // cluster, through a 1-2 partition that heals, then 30 travelling
        // legs round the ring. `seeded_chaos_is_deterministic` compares a
        // run with itself; this compares it with the schedule the fault
        // layer has always produced. The threads are spawned in the order
        // the handler messages this replaced were sent, and each sends its
        // leg at time 0, in that order: a fate hashes (seed, link, seq,
        // attempt), so the schedule is the handlers' own.
        use std::sync::atomic::{AtomicU64, Ordering};
        const MSGS: u64 = 150;
        let plan = crate::FaultPlan::seeded(1234)
            .drop_rate(0.2)
            .duplicate_rate(0.1)
            .partition(
                NodeId(1),
                NodeId(2),
                SimTime::from_ms(2),
                SimTime::from_ms(30),
            );
        let spec = ClusterSpec::uniform(3, 1)
            .with_latency(LatencyModel::fixed(SimTime::from_ms(1)))
            .with_faults(plan);
        let e = Arc::new(SimEngine::new(spec));
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            let me = must_current_thread();
            let got = Arc::new(AtomicU64::new(0));
            for i in 0..MSGS {
                let from = NodeId((i % 3) as u16);
                let to = NodeId((from.0 + 1 + (i / 3 % 2) as u16) % 3);
                let (e3, got2) = (Arc::clone(&e2), Arc::clone(&got));
                let body = move || {
                    e3.leg(from, to, 64 + i as usize % 5, false, "chaos-leg");
                    got2.fetch_add(1, Ordering::Relaxed);
                    e3.unblock_kernel(me);
                };
                e2.spawn(from, format!("chaos{i}"), Box::new(body));
            }
            while got.load(Ordering::Relaxed) < MSGS {
                e2.block_kernel("await-chaos-storm");
            }
            for i in 0..30u16 {
                e2.leg(NodeId(i % 3), NodeId((i + 1) % 3), 96, true, "ring-leg");
            }
        })
        .unwrap();
        let p = e.stats().snapshot();
        let pinned = (
            e.now().as_us(),
            p.messages,
            p.drops,
            p.retransmits,
            p.partition_drops,
            p.dups_injected,
            p.dups_suppressed,
        );
        // Captured before the fault layer moved onto the engines' queues.
        assert_eq!(pinned, (241_000, 180, 40, 79, 39, 19, 19));
    }

    /// One-way reliable messages: `n` threads on node 0, spawned at once,
    /// each take one leg to node 1, and the caller blocks until every leg
    /// has arrived, so lost messages hang (and the deadlock detector
    /// reports them) rather than passing silently.
    fn pingstorm(e: &Arc<SimEngine>, n: u64) {
        pingstorm_probed(e, n, |_| {});
    }

    /// [`pingstorm`], calling `probe` at each arrival and at each of the
    /// caller's wakes.
    fn pingstorm_probed(e: &Arc<SimEngine>, n: u64, probe: fn(&SimEngine)) {
        use std::sync::atomic::{AtomicU64, Ordering};
        let me = must_current_thread();
        let got = Arc::new(AtomicU64::new(0));
        for i in 0..n {
            let (e2, got2) = (Arc::clone(e), Arc::clone(&got));
            let body = move || {
                e2.leg(
                    NodeId(0),
                    NodeId(1),
                    64 + (i as usize % 7),
                    false,
                    "ping-leg",
                );
                probe(&e2);
                got2.fetch_add(1, Ordering::Release);
                e2.unblock_kernel(me);
            };
            e.spawn(NodeId(0), format!("ping{i}"), Box::new(body));
        }
        while got.load(Ordering::Acquire) < n {
            e.block_kernel("await-pingstorm");
            probe(e);
        }
    }

    #[test]
    fn faulty_link_retransmits_until_delivered() {
        let spec = ClusterSpec::uniform(2, 1)
            .with_latency(LatencyModel::fixed(SimTime::from_ms(1)))
            .with_faults(crate::FaultPlan::seeded(11).drop_rate(0.4));
        let e = Arc::new(SimEngine::new(spec));
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || pingstorm(&e2, 200)).unwrap();
        // With a 40% drop rate some first attempts were certainly lost...
        assert!(e.stats().total_drops() > 0, "no drops at 40% loss");
        assert!(e.stats().total_retransmits() > 0, "no retransmissions");
        // ...yet the logical message count stays one per send.
        assert_eq!(e.stats().total_msgs(), 200);
    }

    #[test]
    fn duplicates_are_suppressed_exactly() {
        let spec = ClusterSpec::uniform(2, 1)
            .with_latency(LatencyModel::fixed(SimTime::from_ms(1)))
            .with_faults(crate::FaultPlan::seeded(5).duplicate_rate(1.0));
        let e = Arc::new(SimEngine::new(spec));
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            pingstorm(&e2, 50);
            // Let the trailing duplicate copies land before the run ends.
            e2.sleep(SimTime::from_ms(10));
        })
        .unwrap();
        let p = e.stats().snapshot();
        assert_eq!(p.dups_injected, 50);
        assert_eq!(
            p.dups_suppressed, p.dups_injected,
            "every injected duplicate must be suppressed, none double-handled"
        );
    }

    #[test]
    fn partition_heals_and_messages_get_through() {
        let spec = ClusterSpec::uniform(2, 1)
            .with_latency(LatencyModel::fixed(SimTime::from_ms(1)))
            .with_faults(crate::FaultPlan::seeded(9).partition(
                NodeId(0),
                NodeId(1),
                SimTime::ZERO,
                SimTime::from_ms(40),
            ));
        let e = Arc::new(SimEngine::new(spec));
        let e2 = Arc::clone(&e);
        let elapsed = e
            .run(NodeId(0), move || {
                pingstorm(&e2, 3);
                e2.now()
            })
            .unwrap();
        // Nothing crossed the link before the partition healed.
        assert!(
            elapsed >= SimTime::from_ms(40),
            "delivered through a partition: {elapsed}"
        );
        assert!(e.stats().total_partition_drops() >= 3);
        assert!(e.stats().total_retransmits() >= 3);
    }

    #[test]
    fn zero_rate_fault_plan_changes_nothing_observable() {
        let spec = ClusterSpec::uniform(2, 1)
            .with_latency(LatencyModel::fixed(SimTime::from_ms(3)))
            .with_faults(crate::FaultPlan::seeded(1));
        let e = Arc::new(SimEngine::new(spec));
        let e2 = Arc::clone(&e);
        let elapsed = e
            .run(NodeId(0), move || {
                let t0 = e2.now();
                pingstorm(&e2, 1);
                e2.now() - t0
            })
            .unwrap();
        assert_eq!(elapsed, SimTime::from_ms(3), "latency model not honoured");
        assert_eq!(e.stats().total_msgs(), 1);
        assert_eq!(e.stats().total_drops(), 0);
        assert_eq!(e.stats().total_retransmits(), 0);
    }

    #[test]
    fn a_zero_rate_plan_queues_no_timer() {
        // A zero-rate plan loses nothing, so nothing waits on a timer: no
        // step finds one queued, and the storm leaves the queue empty.
        fn no_timer_queued(e: &SimEngine) {
            let st = e.inner.state.borrow();
            let timers = st
                .events
                .iter()
                .filter(|ev| matches!(ev, Event::Net(Wire::Retransmit(_))))
                .count();
            assert_eq!(timers, 0, "a timer for an attempt that was not lost");
        }
        let spec = ClusterSpec::uniform(2, 1)
            .with_latency(LatencyModel::fixed(SimTime::from_ms(1)))
            .with_faults(crate::FaultPlan::seeded(1));
        let e = Arc::new(SimEngine::new(spec));
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            pingstorm_probed(&e2, 200, no_timer_queued);
            assert!(e2.inner.state.borrow().events.is_empty());
        })
        .unwrap();
        assert_eq!(e.stats().total_msgs(), 200);
    }

    #[test]
    fn seeded_chaos_is_deterministic() {
        fn run_once() -> (SimTime, crate::ProtocolSnapshot, u64) {
            let spec = ClusterSpec::uniform(2, 1)
                .with_latency(LatencyModel::fixed(SimTime::from_ms(1)))
                .with_faults(
                    crate::FaultPlan::seeded(1234)
                        .drop_rate(0.2)
                        .duplicate_rate(0.1),
                );
            let e = Arc::new(SimEngine::new(spec));
            let e2 = Arc::clone(&e);
            let t = e
                .run(NodeId(0), move || {
                    pingstorm(&e2, 100);
                    e2.now()
                })
                .unwrap();
            (t, e.stats().snapshot(), e.schedule_digest().unwrap())
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn exhausted_attempts_surface_as_deadlock_not_hang() {
        // A link that always drops: the sender's wait can never be
        // satisfied, and once the bounded retransmissions stop, the event
        // queue drains and the simulator reports the deadlock.
        let spec = ClusterSpec::uniform(2, 1)
            .with_latency(LatencyModel::fixed(SimTime::from_ms(1)))
            .with_faults(crate::FaultPlan::seeded(2).drop_rate(1.0));
        let e = Arc::new(SimEngine::new(spec));
        let e2 = Arc::clone(&e);
        let err = e.run(NodeId(0), move || pingstorm(&e2, 1)).unwrap_err();
        match err {
            EngineError::Deadlock { blocked, .. } => {
                // The caller, and the thread whose leg never arrived.
                let why: Vec<&str> = blocked.iter().map(|(_, why)| why.as_str()).collect();
                assert_eq!(why, ["await-pingstorm (main)", "ping-leg (ping0)"]);
            }
            other => panic!("expected deadlock, got {other}"),
        }
        assert_eq!(e.stats().total_drops(), 16, "attempt budget not honoured");
        assert_eq!(e.stats().total_retransmits(), 15);
    }

    /// Nanoseconds a hand-off over `round_trips` turns between two
    /// simulated threads: the `unblock`/`block_current` pair of the
    /// benchmark's `engine.sim.handoff` probe, two baton passes a turn.
    fn baton_pass_ns(round_trips: u32) -> f64 {
        let e = sim(1, 1);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            let me = must_current_thread();
            let e3 = Arc::clone(&e2);
            let peer = e2.spawn(
                NodeId(0),
                "peer".into(),
                Box::new(move || {
                    for _ in 0..round_trips {
                        e3.block_current("await-main");
                        e3.unblock(me);
                    }
                }),
            );
            let t0 = std::time::Instant::now();
            for _ in 0..round_trips {
                e2.unblock(peer);
                e2.block_current("await-peer");
            }
            t0.elapsed().as_nanos() as f64 / (2.0 * f64::from(round_trips))
        })
        .unwrap()
    }

    /// The same turns over what the host sells: two `std` `Mutex` +
    /// `Condvar` permit counters, the permit recorded under the lock and
    /// the wake issued after it.
    fn host_wake_ns(round_trips: u32) -> f64 {
        type Permits = (std::sync::Mutex<u32>, std::sync::Condvar);
        fn post(gate: &Permits) {
            *gate.0.lock().unwrap() += 1;
            gate.1.notify_one();
        }
        fn wait(gate: &Permits) {
            let mut permits = gate.0.lock().unwrap();
            while *permits == 0 {
                permits = gate.1.wait(permits).unwrap();
            }
            *permits -= 1;
        }
        let ping: Arc<Permits> = Arc::default();
        let pong: Arc<Permits> = Arc::default();
        let (ping2, pong2) = (Arc::clone(&ping), Arc::clone(&pong));
        let peer = std::thread::spawn(move || {
            for _ in 0..round_trips {
                wait(&ping2);
                post(&pong2);
            }
        });
        let t0 = std::time::Instant::now();
        for _ in 0..round_trips {
            post(&ping);
            wait(&pong);
        }
        let ns = t0.elapsed().as_nanos() as f64 / (2.0 * f64::from(round_trips));
        peer.join().unwrap();
        ns
    }

    #[test]
    #[ignore = "looks at time: cargo test --release -p amber-engine -- --ignored"]
    fn a_baton_pass_costs_a_tenth_of_a_host_wake_at_most() {
        // A ratio of two medians taken in alternating batches in one
        // process, so host speed and drift cancel. A pass switches stacks
        // on one OS thread and reads ~0.04x on one CPU (64-76 ns against
        // 1.7-2.0 us with the grant as the block point's check, 69-75 ns
        // with the stack-bounds walk; ~100 ns while the state sat under a
        // mutex); an OS thread per simulated thread, woken through a gate,
        // read ~1.1x.
        const BATCHES: usize = 21;
        const ROUND_TRIPS: u32 = 5_000;
        let (mut ours, mut floor) = (Vec::new(), Vec::new());
        for _ in 0..BATCHES {
            ours.push(baton_pass_ns(ROUND_TRIPS));
            floor.push(host_wake_ns(ROUND_TRIPS));
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (ours, floor) = (median(&mut ours), median(&mut floor));
        println!(
            "baton pass {ours:.0} ns, host wake {floor:.0} ns: {:.2}x",
            ours / floor
        );
        assert!(
            ours <= 0.1 * floor,
            "a baton pass costs {ours:.0} ns against {floor:.0} ns for the host's own wake"
        );
    }

    /// Nanoseconds a `work` charge over `charges` charges of one thread:
    /// alone on its node, or sharing its one processor with a peer that
    /// charges as often, so that every charge queues behind the other's
    /// burst and hands the baton over.
    fn charge_ns(charges: u32, contended: bool) -> f64 {
        let e = sim(1, 1);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            let cost = SimTime::from_us(1);
            let threads = if contended {
                let e3 = Arc::clone(&e2);
                let peer = move || (0..charges).for_each(|_| e3.work(cost));
                e2.spawn(NodeId(0), "peer".into(), Box::new(peer));
                2.0
            } else {
                1.0
            };
            let t0 = std::time::Instant::now();
            (0..charges).for_each(|_| e2.work(cost));
            t0.elapsed().as_nanos() as f64 / (threads * f64::from(charges))
        })
        .unwrap()
    }

    #[test]
    #[ignore = "looks at time: cargo test --release -p amber-engine -- --ignored"]
    fn an_uncontested_charge_costs_under_half_a_contended_one() {
        // A ratio of two medians taken in alternating batches in one
        // process, so host speed and drift cancel. A lone thread's charge
        // is a clock advance through the run's borrow of the state and
        // reads 0.09-0.15x on x86_64 pinned to one CPU (8-17 ns against
        // 110-121 ns; 0.11-0.16x with a heap of whole events, whose one
        // queued event cost a few ns less, against 94-107 ns; ~0.3x while
        // the state sat under a mutex); when every charge took a dispatch
        // step it read ~0.65x.
        const BATCHES: usize = 21;
        const CHARGES: u32 = 20_000;
        let (mut lone, mut shared) = (Vec::new(), Vec::new());
        for _ in 0..BATCHES {
            lone.push(charge_ns(CHARGES, false));
            shared.push(charge_ns(CHARGES, true));
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (lone, shared) = (median(&mut lone), median(&mut shared));
        println!(
            "uncontested charge {lone:.0} ns, contended {shared:.0} ns: {:.2}x",
            lone / shared
        );
        assert!(
            lone <= 0.45 * shared,
            "an uncontested charge costs {lone:.0} ns against {shared:.0} ns for a contended one"
        );
    }

    /// How deep `deep_run` dives: 192 KiB, of the 256 KiB an OS thread of
    /// its own gave a body.
    const DEPTH: usize = 192 * 1024;

    /// Runs a body on a fresh engine that recurses [`DEPTH`] bytes deep
    /// between two block points; returns its frame count and the
    /// protection of the mapping right below its stack.
    fn deep_run() -> (usize, String) {
        fn dive(floor: usize) -> usize {
            let pad = std::hint::black_box([0u8; 1024]);
            if pad.as_ptr() as usize <= floor {
                return 0;
            }
            // Used after the call, so every frame keeps its kilobyte.
            1 + dive(floor) + usize::from(std::hint::black_box(pad)[0])
        }
        let e = sim(1, 1);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            // Deep at a block point too: what is below stays put.
            e2.work(SimTime::from_us(1));
            let top = 0u8;
            let frames = dive(std::ptr::addr_of!(top) as usize - DEPTH);
            e2.work(SimTime::from_us(1));
            (frames, protection_below(std::ptr::addr_of!(top) as usize))
        })
        .unwrap()
    }

    /// The permissions `/proc/self/maps` gives the mapping that ends where
    /// the one holding `addr` starts.
    fn protection_below(addr: usize) -> String {
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
        let ranges: Vec<(usize, usize, &str)> = maps
            .lines()
            .map(|line| {
                let mut fields = line.split_whitespace();
                let (range, perms) = (fields.next().unwrap(), fields.next().unwrap());
                let (lo, hi) = range.split_once('-').unwrap();
                let hex = |h| usize::from_str_radix(h, 16).unwrap();
                (hex(lo), hex(hi), perms)
            })
            .collect();
        let start = ranges
            .iter()
            .find(|&&(lo, hi, _)| (lo..hi).contains(&addr))
            .map(|&(lo, _, _)| lo)
            .unwrap();
        ranges
            .iter()
            .find(|&&(_, hi, _)| hi == start)
            .map_or_else(|| "unmapped".to_string(), |&(_, _, perms)| perms.into())
    }

    #[test]
    fn a_body_has_the_stack_its_os_thread_had() {
        let (frames, guard) = deep_run();
        assert!((1..=DEPTH / 1024).contains(&frames), "{frames}");
        assert_eq!(guard, "---p");
    }

    #[test]
    fn a_reused_stack_keeps_its_depth_and_its_guard_page() {
        // The second run's main runs on a stack the first one left in the
        // cache: it maps nothing, dives as deep, and still has the guard
        // page below it.
        let ((frames, guard), mapped) = undisturbed(|| {
            let (run, took) = others_took(|| {
                deep_run();
                let before = fiber::tests::mapped_here();
                (deep_run(), fiber::tests::mapped_here() - before)
            });
            (!took).then_some(run)
        });
        assert_eq!(mapped, 0, "the second run mapped a stack");
        assert!((1..=DEPTH / 1024).contains(&frames), "{frames}");
        assert_eq!(guard, "---p");
    }

    /// Runs `threads` simulated threads, all alive at once, on a fresh
    /// engine, and drops it.
    fn run_threads(threads: usize) {
        let e = sim(1, 1);
        let e2 = Arc::clone(&e);
        e.run(NodeId(0), move || {
            for i in 1..threads {
                let e3 = Arc::clone(&e2);
                let body = move || e3.sleep(SimTime::from_us(1));
                e2.spawn(NodeId(0), format!("t{i}"), Box::new(body));
            }
            e2.sleep(SimTime::from_us(1));
        })
        .unwrap();
    }

    #[test]
    fn a_second_engine_maps_no_stack() {
        let mapped = undisturbed(|| {
            let (mapped, took) = others_took(|| {
                run_threads(8);
                let before = fiber::tests::mapped_here();
                run_threads(8);
                fiber::tests::mapped_here() - before
            });
            (!took).then_some(mapped)
        });
        assert_eq!(mapped, 0);
        // A stack that is mapped is counted.
        let before = fiber::tests::mapped_here();
        drop(Stack::new().unwrap());
        assert_eq!(fiber::tests::mapped_here(), before + 1);
    }

    #[test]
    fn the_cache_never_holds_more_than_its_cap() {
        run_threads(SPARE_CAP + 8);
        assert!(spare().len() <= SPARE_CAP, "{}", spare().len());
    }

    #[test]
    fn a_backtrace_stops_at_the_base_of_a_simulated_stack() {
        // Unwinders find no return address in the trampoline, so a
        // backtrace taken in a body, before a leg and after the switch
        // back from it, ends there instead of walking off the top of the
        // stack.
        use std::backtrace::Backtrace;
        let e = sim(2, 1);
        let e2 = Arc::clone(&e);
        let traces = e
            .run(NodeId(0), move || {
                let before = Backtrace::force_capture().to_string();
                e2.leg(NodeId(0), NodeId(1), 0, true, "await-arrival");
                [before, Backtrace::force_capture().to_string()]
            })
            .unwrap();
        for trace in traces {
            let last = trace.lines().rev().find(|l| l.contains(": "));
            assert!(last.is_some_and(|l| l.contains("trampoline")), "{trace}");
        }
    }
}
