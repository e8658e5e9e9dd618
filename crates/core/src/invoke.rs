//! Location-independent invocation: the residency protocol.
//!
//! This module implements the paper's sections 3.2-3.5:
//!
//! * an invocation pushes its frame *first*, then checks the local
//!   descriptor (so a concurrent move always sees the thread as bound);
//! * a non-resident descriptor traps: the thread migrates along the
//!   forwarding chain, or via the object's home node when the descriptor is
//!   uninitialized;
//! * the return path pops the frame and re-checks the *enclosing* frame's
//!   object — if that object moved (or the thread executed remotely), the
//!   thread ships back to wherever the enclosing object now lives;
//! * a residency re-check also runs at every "context switch in" (wake-ups
//!   and work charges), which is how threads bound to a moved object chase
//!   it lazily, exactly as in the paper.
//!
//! Operations on a payload run under an access protocol (exclusive `&mut T`
//! or shared `&T`) with kernel-managed waiter queues, standing in for the
//! intra-node hardware synchronization of a real multiprocessor node.
//! Admission is the payload's only guard: it lends the operation the
//! payload itself ([`Lent`]), with no lock and no reference count beneath.
//!
//! An invocation has five steps, and a resident object — the common case,
//! the paper's 12 us local invoke — takes exactly two registry visits:
//!
//! 1. **entry** ([`Kernel::bind_frame`]): push the frame, bind it to the
//!    object and, under the same registry lock — which guards `location`,
//!    `moving` and every node's descriptor table, so they commit together —
//!    decide residency. The verdict is exact, not a hint. A non-resident
//!    verdict takes the chase's first step in the same visit and only then
//!    runs the rest of the chase ([`Kernel::ensure_at_object`]), which is
//!    the one slow path;
//! 2. **charge** `local_invoke`, a scheduling point under the simulator;
//! 3. **admission** ([`Kernel::admit`]), *after* the charge on the virtual
//!    clock: invokers pay the charge in parallel and only then queue, so a
//!    contended object's hand-off costs the operation alone. Admitting
//!    before a charge another thread could run in would hold the object
//!    8 us longer per hand-off and move every contended virtual-time
//!    result. When the charge is uncontested
//!    ([`Engine::uncontested`](amber_engine::Engine::uncontested)) no
//!    thread can run in it, so admission made in the visit before it is
//!    admission made after it: the entry visit, or the chase visit that
//!    finds the object, admits. Otherwise admission is a visit of its own
//!    after the charge ([`Kernel::acquire_payload`]);
//! 4. the operation, outside every kernel lock;
//! 5. **exit** ([`Kernel::finish_invocation`]): size, release, unbind,
//!    wake; then the `local_return` charge and the return re-check, which
//!    joins the exit visit when that charge is uncontested and the exit
//!    wakes nobody (a wake makes a thread runnable and contests it).
//!
//! Every chase step is one registry visit: the `moving` park, the
//! descriptor read — or, with no descriptor, the region-map read — and,
//! when the step finds the object, the path compression; only a region-map
//! miss takes a visit more, for the server's answer. The return re-check
//! takes the first step home when the enclosing object is elsewhere. So,
//! with uncontested charges, a nested resident invoke costs two visits
//! and a nested remote round trip with fresh hints four: entry and first
//! hop, arrival and admission, exit with re-check and first hop home,
//! arrival home. With every charge contested they cost four and six.
//!
//! Frame bookkeeping is owned by the thread: the frame stack and the bytes
//! a migration carries are the engine's per-thread invocation context
//! ([`amber_engine::with_invocations`]), which follows the thread whether it
//! has an OS thread of its own (`RealEngine`) or a stack on a shared one
//! (`SimEngine`). No borrow of it is ever held across an operation (nested
//! invocations push frames of their own).

use amber_engine::{
    must_current_thread, with_invocations, NodeId, ProtocolEvent, SimTime, ThreadId,
};
use amber_vspace::{DescriptorTable, Residency, VAddr};

use crate::errors::ProtocolError;
use crate::kernel::{Access, Kernel, Lent, ObjectEntry, Objects, OpWaiter};
use crate::objref::ObjRef;

/// The last thing a thread's body does: every frame it pushed is popped.
/// Its first need not clear anything: each engine starts every thread with
/// an empty invocation context.
pub(crate) fn unregister_thread() {
    #[expect(clippy::disallowed_macros, reason = "every invoke pops what it pushed")]
    {
        debug_assert_eq!(enclosing_frame(), None, "thread exits inside a frame");
    }
}

/// The object whose operation the calling thread is executing, if any.
pub(crate) fn enclosing_frame() -> Option<VAddr> {
    with_invocations(|c| c.frames.last().copied().map(VAddr))
}

fn pop_frame(addr: VAddr) {
    let popped = with_invocations(|c| c.frames.pop());
    #[expect(clippy::disallowed_macros, reason = "frames pop in push order")]
    {
        debug_assert_eq!(popped, Some(addr.0), "frame stack corrupted");
    }
}

fn set_carry(bytes: usize) {
    with_invocations(|c| c.carry_bytes = bytes);
}

/// Bound on forwarding-chase hops before the chase gives up with
/// [`ProtocolError::ChaseDiverged`]. Chains are at most `moves + 1` links
/// long in practice, so this is pure corruption insurance — but a corrupted
/// descriptor graph now yields a typed error and a `ChaseDiverged` trace
/// event instead of aborting the process.
const MAX_CHASE_HOPS: u32 = 10_000;

/// What one chase step at a node found ([`Objects::chase_step`]).
pub(crate) enum ChaseStep {
    /// The node's descriptor answers: the object is `Resident` there, or a
    /// `Replica` of it is installed.
    Found(Residency),
    /// A move of the object is in flight and the thread is queued on it:
    /// park, then look at the same node again.
    Park,
    /// The chain continues. The hop is paid by [`Kernel::chase_hop`] once
    /// the guard is dropped.
    Next(Hop),
}

/// Where a chain continues from a node not holding the object.
#[derive(Clone, Copy)]
pub(crate) enum Hop {
    /// At the node its descriptor forwards to.
    Forward(NodeId),
    /// Its descriptor is uninitialized: at the home node its region map
    /// names, or (`None`) the server's answer.
    Home(Option<NodeId>),
}

/// How many distinct nodes a [`Chain`] holds before it allocates. A chain
/// never holds the node its chase ends at, so on a cluster of five nodes
/// or fewer it never spills.
const INLINE_CHAIN: usize = 4;

/// The distinct nodes a chase has left, in the order it left them: the
/// first [`INLINE_CHAIN`] inline, the rest in a `Vec`.
#[derive(Default)]
pub(crate) struct Chain {
    inline: [NodeId; INLINE_CHAIN],
    len: usize,
    spill: Vec<NodeId>,
}

impl Chain {
    /// Appends `node` unless the chase has already left it once.
    pub(crate) fn push(&mut self, node: NodeId) {
        if self.iter().any(|n| n == node) {
            return;
        }
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = node;
                self.len += 1;
            }
            None => self.spill.push(node),
        }
    }

    /// The nodes in the order they were pushed.
    pub(crate) fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.inline[..self.len].iter().chain(&self.spill).copied()
    }
}

/// What a return re-check found ([`Objects::recheck_step`]).
enum Recheck {
    /// The thread's enclosing object is local to it.
    Here,
    /// The enclosing object at the address is elsewhere: the chase's first
    /// step, taken in the visit.
    Chase(VAddr, Result<ChaseStep, ProtocolError>),
}

/// What an invocation's entry visit decided.
enum Verdict<'k> {
    /// [`Here`](Verdict::Here), and admitted in the same visit: the
    /// `local_invoke` charge after it is uncontested, so admission made
    /// before the charge is admission made after it.
    Admitted(Lent<'k>),
    /// Run on the start node: the object is resident there or, for a
    /// shared invocation, the start node's descriptor is `Resident` or
    /// `Replica` (replica-first resolution).
    Here,
    /// An immutable object a shared caller copies to its own node.
    Replicate,
    /// The object is elsewhere: the chase's first step, taken in the visit.
    Chase(Result<ChaseStep, ProtocolError>),
}

impl Objects {
    /// One step of the residency chase, taken at node `at` for thread `me`
    /// inside a registry visit. If a move of the object is in flight, `me`
    /// queues on it ([`ChaseStep::Park`]) rather than chasing descriptors
    /// mid-transfer; the mover wakes it once the group has installed.
    /// Otherwise `at`'s descriptor answers, and when it holds nothing, so
    /// does `at`'s region map. The object's location, `moving` flag and
    /// descriptors commit together, so the step never sees a descriptor lag
    /// the registry.
    #[inline]
    pub(crate) fn chase_step(
        &mut self,
        addr: VAddr,
        at: NodeId,
        me: ThreadId,
    ) -> Result<ChaseStep, ProtocolError> {
        let Some(e) = self.map.get_mut(&addr) else {
            return Err(ProtocolError::ObjectDestroyed(addr));
        };
        if e.moving {
            e.move_waiters.push(me);
            return Ok(ChaseStep::Park);
        }
        e.check_resident(addr, &self.tables);
        Ok(match self.tables[at.index()].lookup(addr) {
            Some(Residency::Forward(n)) => ChaseStep::Next(Hop::Forward(n)),
            Some(held) => ChaseStep::Found(held),
            None => ChaseStep::Next(Hop::Home(self.region_owner(at, addr))),
        })
    }

    /// The return re-check's visit at `here` for thread `me`, whose
    /// enclosing object is at `addr`: the chase's first step when the
    /// object is not local there.
    fn recheck_step(&mut self, addr: VAddr, here: NodeId, me: ThreadId) -> Recheck {
        if self.tables[here.index()].is_local(addr) {
            return Recheck::Here;
        }
        Recheck::Chase(addr, self.chase_step(addr, here, me))
    }

    /// The owner of `addr`'s region, if `at`'s region map knows it. Cold,
    /// so that `chase_step` inlines: with the lookup inline, `remote_invoke`
    /// read about 4 % slower (EXPERIMENTS.md, "one kernel lock").
    #[cold]
    fn region_owner(&self, at: NodeId, addr: VAddr) -> Option<NodeId> {
        self.regions[at.index()].lookup(addr.region())
    }
}

impl Kernel {
    /// Parks the current thread forever on `err`'s name. This is how
    /// infallible protocol paths surface a [`ProtocolError`]: like the other
    /// named waits, a simulated run then reports a deadlock naming the
    /// condition (e.g. `protocol-error: object-destroyed`) instead of the
    /// process aborting. Under the real engine the thread simply never
    /// completes and the run's deadline fires.
    pub(crate) fn halt(&self, err: ProtocolError) -> ! {
        let reason = err.reason();
        loop {
            self.engine.block_kernel(reason);
        }
    }

    /// The entry visit: pushes the invocation frame and binds it to the
    /// object — the section-3.5 "frame first" step — and decides, under the
    /// same registry lock, where the invocation runs relative to `from`, the
    /// node it starts on (see [`Verdict`]). Returns
    /// [`ProtocolError::ObjectDestroyed`] (with the frame unwound) for
    /// references to destroyed objects.
    ///
    /// A verdict to run here is also a chance at admission in the same
    /// visit ([`Verdict::Admitted`]), taken when the `local_invoke` charge
    /// that follows is uncontested and the visit arms no tick.
    ///
    /// With adaptive placement enabled the invocation also lands in the
    /// object's per-caller-node counter under the lock already held, and the
    /// first one to land there since the placement tick last drained it
    /// arms the tick in the same visit, unless it is armed already.
    fn bind_frame(
        &self,
        addr: VAddr,
        me: ThreadId,
        from: NodeId,
        access: Access,
    ) -> Result<Verdict<'_>, ProtocolError> {
        with_invocations(|c| c.frames.push(addr.0));
        let mut guard = self.objects.lock();
        let objects = &mut *guard;
        let Some(e) = objects.map.get_mut(&addr) else {
            drop(guard);
            pop_frame(addr);
            return Err(ProtocolError::ObjectDestroyed(addr));
        };
        e.bound += 1;
        // Every bump and the tick's drain hold the registry lock.
        let first_since_drain = e.calls.get_mut(from.index()).is_some_and(|c| {
            *c += 1;
            *c == 1
        });
        if access == Access::Exclusive && e.immutable {
            drop(guard);
            #[expect(clippy::panic, reason = "mutating an immutable is a program bug")]
            {
                panic!("exclusive invocation of immutable object {addr}");
            }
        }
        // The first call since the drain arms the tick if nothing has.
        let tick = first_since_drain && !std::mem::replace(&mut objects.armed, true);
        e.check_resident(addr, &objects.tables);
        let shared = access == Access::Shared;
        // Replica-first: a shared invocation is served by any `Resident` or
        // `Replica` descriptor on the start node.
        let here = (!e.moving && e.location == from)
            || (shared && objects.tables[from.index()].is_local(addr));
        // Arming queues the tick's timer, which would contest the charge.
        // The admitted verdict returns straight from here: merged with the
        // others, the loan went through memory in pieces the loads after
        // the unlock could not forward from.
        if here && !tick {
            if let Some(lent) = self.admit(e, addr, me, access, true) {
                drop(guard);
                return Ok(Verdict::Admitted(lent));
            }
        }
        let verdict = if here {
            Verdict::Here
        } else if shared && e.immutable && self.demand_replication {
            // Section 2.3's read-only replication. With demand replication
            // off, copies install only where the placement advisor puts
            // them, and a read away from one migrates like any other.
            Verdict::Replicate
        } else {
            Verdict::Chase(objects.chase_step(addr, from, me))
        };
        drop(guard);
        if tick {
            self.schedule_placement_tick();
        }
        Ok(verdict)
    }

    /// Unwinds a frame bound by [`bind_frame`](Kernel::bind_frame) when the
    /// residency protocol fails *before* the payload was acquired: the
    /// fallible invoke paths surface a typed error with the thread's frame
    /// stack and the object's bound count exactly as they were.
    fn unbind_frame(&self, addr: VAddr) {
        if let Some(e) = self.objects.lock().map.get_mut(&addr) {
            e.bound -= 1;
        }
        pop_frame(addr);
    }

    /// Migrates the current thread one network hop, charging the full
    /// trap/marshal/wire/dispatch path plus any by-value argument payload
    /// the thread is carrying.
    fn migrate_current(&self, from: NodeId, to: NodeId) {
        #[expect(clippy::disallowed_macros, reason = "chase_hop refuses a self-forward")]
        {
            debug_assert_ne!(from, to);
        }
        let carry = with_invocations(|c| c.carry_bytes);
        self.engine.work(self.cost.remote_trap);
        self.engine.work(self.cost.thread_marshal);
        self.engine.leg(
            from,
            to,
            self.cost.thread_packet_bytes + carry,
            true,
            "thread-migration",
        );
        self.engine.work(self.cost.remote_dispatch);
        self.emit(ProtocolEvent::ThreadMigration { from, to });
    }

    /// Pays the hop a [`ChaseStep::Next`] found at `at`, with the registry
    /// guard dropped: charges and records the forward hop, or records the
    /// home route — asking the server first when `at`'s region map missed
    /// — and counts it against `hops`. Returns the node the chain continues
    /// at. Both travellers call it: an invoking thread that migrates along
    /// the chain ([`ensure_at_object`](Kernel::ensure_at_object)) and a
    /// locate that sends probes down it ([`locate`](Kernel::locate)).
    ///
    /// A descriptor that leads back to `at` is corrupt — no legitimate state
    /// has one, since location and descriptors commit together — and the
    /// chase gives up with [`ProtocolError::ChaseDiverged`], as it does at
    /// [`MAX_CHASE_HOPS`], rather than migrate from a node to itself.
    pub(crate) fn chase_hop(
        &self,
        hop: Hop,
        addr: VAddr,
        at: NodeId,
        hops: &mut u32,
    ) -> Result<NodeId, ProtocolError> {
        let next = match hop {
            Hop::Forward(n) | Hop::Home(Some(n)) => n,
            Hop::Home(None) => self.ask_server(at, addr),
        };
        if next == at {
            return Err(self.chase_diverged(addr, at, *hops));
        }
        match hop {
            Hop::Forward(_) => {
                self.emit(ProtocolEvent::ForwardHop {
                    obj: addr.0,
                    at,
                    to: next,
                });
                self.engine.work(self.cost.forward_hop);
            }
            Hop::Home(_) => self.emit(ProtocolEvent::HomeRoute {
                obj: addr.0,
                at,
                home: next,
            }),
        }
        *hops += 1;
        if *hops >= MAX_CHASE_HOPS {
            // Bounded give-up, mirroring the transport's `MAX_ATTEMPTS`
            // retransmit give-up.
            return Err(self.chase_diverged(addr, at, *hops));
        }
        Ok(next)
    }

    /// Records a chase that gave up at `at` after `hops` hops and returns
    /// the error the chaser surfaces instead of aborting the process.
    fn chase_diverged(&self, addr: VAddr, at: NodeId, hops: u32) -> ProtocolError {
        self.emit(ProtocolEvent::ChaseDiverged {
            obj: addr.0,
            at,
            hops,
        });
        ProtocolError::ChaseDiverged { addr, hops }
    }

    /// Path compression at the end of a chase: "the object's last known
    /// location is cached on all nodes along the chain" (section 3.3).
    /// Rewrites, in the held descriptor tables, the descriptor of every
    /// node in `chain` to a one-hop forward to `to`. Each rewrite that
    /// actually changes a descriptor is a repair, counted and traced so the
    /// bookkeeping reconciles exactly.
    pub(crate) fn compress(
        &self,
        tables: &mut [DescriptorTable],
        addr: VAddr,
        chain: &Chain,
        to: NodeId,
    ) {
        for n in chain.iter() {
            if n != to && tables[n.index()].cache_hint(addr, to) {
                self.emit(ProtocolEvent::HintRepair {
                    obj: addr.0,
                    at: n,
                    to,
                });
            }
        }
    }

    /// Runs the residency protocol from `step`, the chase's first step,
    /// which the caller took in the registry visit that found the object
    /// not local, until the object at `addr` is local to the current thread:
    /// resident, or replicated when `admission` is `None` (a re-check) or
    /// shared. Each later step is one visit, and the one that finds the
    /// object resident compresses the chain behind the thread in it, and
    /// for an invocation (`admission` set) may admit it too
    /// ([`admit`](Kernel::admit)). Returns the node the thread
    /// ends up on and any such loan, or a typed error for references to
    /// destroyed objects and chases that exceed the hop bound.
    fn ensure_at_object(
        &self,
        addr: VAddr,
        admission: Option<Access>,
        mut step: ChaseStep,
    ) -> Result<(NodeId, Option<Lent<'_>>), ProtocolError> {
        let me = must_current_thread();
        let mut here = self.engine.node_of(me);
        let mut hops: u32 = 0;
        let mut chain = Chain::default();
        loop {
            match step {
                #[expect(clippy::panic, reason = "replicas are of immutables, refused at entry")]
                ChaseStep::Found(Residency::Replica) if admission == Some(Access::Exclusive) => {
                    // A replica exists but exclusive access was requested;
                    // immutable objects cannot be mutated.
                    panic!("exclusive invocation of immutable object {addr}")
                }
                ChaseStep::Found(_) => return Ok((here, None)),
                ChaseStep::Park => self.engine.block_kernel("await-move-install"),
                ChaseStep::Next(hop) => {
                    let next = self.chase_hop(hop, addr, here, &mut hops)?;
                    chain.push(here);
                    self.migrate_current(here, next);
                    here = next;
                }
            }
            let mut guard = self.objects.lock();
            let objects = &mut *guard;
            step = objects.chase_step(addr, here, me)?;
            if let ChaseStep::Found(held) = step {
                if held == Residency::Resident {
                    self.compress(&mut objects.tables, addr, &chain, here);
                }
                // The arrival admits too, unless the loop refuses the find.
                let lent = match admission {
                    Some(access) if held == Residency::Resident || access == Access::Shared => {
                        let e = objects.map.get_mut(&addr);
                        e.and_then(|e| self.admit(e, addr, me, access, true))
                    }
                    _ => None,
                };
                if lent.is_some() {
                    return Ok((here, lent));
                }
            }
        }
    }

    /// The residency re-check of section 3.5, made at every context switch
    /// in and after every frame pop: if the current thread's enclosing
    /// object is not on this node (it moved, or the thread just executed
    /// remotely), the thread chases it before doing anything else. One
    /// registry visit reads the descriptor and, when it is not local, takes
    /// the chase's first step.
    pub(crate) fn recheck_residency(&self) {
        let Some(addr) = enclosing_frame() else {
            return;
        };
        let Some(me) = amber_engine::current_thread() else {
            return;
        };
        let here = self.engine.node_of(me);
        let found = self.objects.lock().recheck_step(addr, here, me);
        self.chase_home(found);
    }

    /// Runs the rest of a re-check that found the enclosing object
    /// elsewhere.
    fn chase_home(&self, found: Recheck) {
        let Recheck::Chase(addr, first) = found else {
            return;
        };
        if let Err(e) = first.and_then(|step| self.ensure_at_object(addr, None, step)) {
            self.halt(e);
        }
    }

    /// Admission's one grant: if nothing in flight excludes it, admits
    /// `me` to `e`'s payload in `access` mode and lends it the payload;
    /// `None` leaves the entry as it was. Call it under the guard that read
    /// `e`, the object at `addr`.
    ///
    /// With `early` the visit comes *before* the `local_invoke` charge, and
    /// admission is granted only when that charge is uncontested, so that
    /// no thread can run between the two and admitting first is admitting
    /// after the charge. The caller then queues no event and wakes no
    /// thread before the charge, which
    /// [`uncontested_charge`](Kernel::uncontested_charge) checks.
    ///
    /// Always inline: returned through memory, the loan cost `local_invoke`
    /// about 3 % in stalled loads.
    #[inline(always)]
    fn admit(
        &self,
        e: &mut ObjectEntry,
        addr: VAddr,
        me: ThreadId,
        access: Access,
        early: bool,
    ) -> Option<Lent<'_>> {
        #[expect(clippy::disallowed_macros, reason = "self-invoking is a program bug")]
        {
            assert_ne!(
                e.excl_owner,
                Some(me),
                "re-entrant invocation of object {addr} (operation invoked itself)"
            );
        }
        let granted = match access {
            Access::Exclusive => e.excl_owner.is_none() && e.shared_count == 0,
            // Shared admissions do not barge past a queued exclusive
            // waiter; otherwise a steady stream of shared operations
            // (e.g. SOR workers) starves arriving edge installs.
            Access::Shared => {
                e.excl_owner.is_none()
                    && !e
                        .op_waiters
                        .iter()
                        .any(|w| w.access == Access::Exclusive && w.thread != me)
            }
        };
        // The engine is asked last: its answer costs more than the test.
        if !granted || (early && !self.engine.uncontested(self.cost.local_invoke)) {
            return None;
        }
        match access {
            Access::Exclusive => e.excl_owner = Some(me),
            Access::Shared => e.shared_count += 1,
        }
        // Clear any stale registration left by a spurious wake-up.
        e.op_waiters.retain(|w| w.thread != me);
        e.payload.loan(access, true);
        let data = e.payload.data.get();
        // SAFETY: the loan is what admission just granted, and it ends
        // before the exit visit releases admission.
        // 1. Admission is the exclusion. Grant and release both happen
        //    under the registry mutex, so its unlock/lock orders every
        //    access, on `RealEngine`'s OS threads too.
        // 2. Only `destroy` removes an entry, and it refuses while
        //    `excl_owner`, `shared_count` or `bound` is set.
        // 3. The payload's heap block never moves: a rehash moves only the
        //    entry's `Box`, and a busy `destroy` nothing.
        // 4. The kernel (`&self`, the loan's lifetime) outlives it.
        Some(unsafe {
            match access {
                Access::Exclusive => Lent::Exclusive(&mut *data),
                Access::Shared => Lent::Shared(&*data),
            }
        })
    }

    /// Charges `cost` after a visit that did what it would have done after
    /// the charge. Checked builds ask again that the charge is uncontested.
    fn uncontested_charge(&self, cost: SimTime) {
        if amber_verify::ACTIVE {
            let still = self.engine.uncontested(cost);
            #[expect(clippy::disallowed_macros, reason = "a merged visit contests nothing")]
            {
                assert!(
                    still,
                    "a charge merged into the visit before it is contested"
                );
            }
        }
        self.engine.work(cost);
    }

    /// Acquires the payload in `access` mode, parking behind current
    /// operations if necessary. Returns the loan admission grants, or
    /// [`ProtocolError::ObjectDestroyed`] when the object vanished between
    /// chase resolution and this admission check — liveness is re-checked
    /// under the registry lock on every iteration (including after each park),
    /// so a racing destroy surfaces as a typed error, never a panic.
    fn acquire_payload(&self, addr: VAddr, access: Access) -> Result<Lent<'_>, ProtocolError> {
        let me = must_current_thread();
        loop {
            let mut guard = self.objects.lock();
            let objects = &mut *guard;
            let Some(e) = objects.map.get_mut(&addr) else {
                return Err(ProtocolError::ObjectDestroyed(addr));
            };
            e.check_resident(addr, &objects.tables);
            if let Some(lent) = self.admit(e, addr, me, access, false) {
                return Ok(lent);
            }
            if !e.op_waiters.iter().any(|w| w.thread == me) {
                e.op_waiters.push_back(OpWaiter { thread: me, access });
            }
            drop(guard);
            self.engine.block_kernel("object-op-wait");
            // Re-run the admission check (every park in the runtime is
            // predicate-guarded: wake-ups may be spurious).
        }
    }

    /// Refreshes the wire size after an exclusive operation, releases the
    /// payload, unbinds the invocation frame, and wakes every queued waiter
    /// — one registry visit for the whole epilogue; the woken threads re-run
    /// the admission check and re-queue if they lose.
    ///
    /// When the invocation is nested, it wakes nobody and the
    /// `local_return` charge after it is uncontested, the same visit also
    /// makes the return re-check and returns what it found; the caller then
    /// skips the re-check's own visit. A wake makes a thread runnable, which
    /// contests the charge.
    ///
    /// Waking everyone (rather than the exact admissible set) is the
    /// missed-wakeup-proof choice: threads can be woken spuriously for
    /// other reasons and re-register, so precise hand-off bookkeeping would
    /// have to chase stale entries.
    fn finish_invocation(&self, addr: VAddr, access: Access) -> Option<Recheck> {
        let me = must_current_thread();
        // The frame the re-check looks at: the one below this invocation's.
        let enclosing = with_invocations(|c| c.frames.iter().rev().nth(1).copied().map(VAddr));
        let (to_wake, recheck): (Vec<ThreadId>, _) = {
            let mut guard = self.objects.lock();
            let objects = &mut *guard;
            let to_wake = match objects.map.get_mut(&addr) {
                // Destroy during release cannot happen (destroy asserts
                // idle), but be tolerant in release paths.
                None => Vec::new(),
                Some(e) => {
                    e.check_resident(addr, &objects.tables);
                    match access {
                        Access::Exclusive => {
                            #[expect(clippy::disallowed_macros, reason = "admission made us owner")]
                            {
                                debug_assert_eq!(e.excl_owner, Some(me));
                            }
                            // The loan has ended and admission is still ours.
                            e.size = (e.size_fn)(e.payload.data.get_mut());
                            e.excl_owner = None;
                        }
                        Access::Shared => {
                            #[expect(clippy::disallowed_macros, reason = "admission counted it in")]
                            {
                                debug_assert!(e.shared_count > 0);
                            }
                            e.shared_count -= 1;
                        }
                    }
                    e.payload.loan(access, false);
                    e.bound -= 1;
                    if e.shared_count > 0 {
                        // Shared operations still draining; the last one
                        // admits waiters.
                        Vec::new()
                    } else {
                        e.op_waiters.drain(..).map(|w| w.thread).collect()
                    }
                }
            };
            // The wakes below would make a thread runnable in the charge.
            // With no enclosing frame the re-check makes no visit to merge.
            let recheck = match enclosing {
                Some(encl)
                    if to_wake.is_empty() && self.engine.uncontested(self.cost.local_return) =>
                {
                    Some(objects.recheck_step(encl, self.engine.node_of(me), me))
                }
                _ => None,
            };
            (to_wake, recheck)
        };
        for t in to_wake {
            self.engine.unblock_kernel(t);
        }
        pop_frame(addr);
        recheck
    }

    /// Everything an invocation does before its operation runs — entry,
    /// residency (the chase, or an immutable object's replication, only when
    /// the entry verdict says the object is not here), the `local_invoke`
    /// charge, then admission — returning the payload's loan to run `op` on.
    /// Admission is granted in the entry or arrival visit when the charge
    /// is uncontested, and in a visit of its own after the charge otherwise.
    /// `carry` bytes of by-value arguments ride the outbound migration.
    ///
    /// Errors can only arise *before* the payload is acquired: the frame is
    /// fully unwound and the thread shipped back to its enclosing object.
    fn enter_invocation(
        &self,
        addr: VAddr,
        access: Access,
        carry: usize,
    ) -> Result<Lent<'_>, ProtocolError> {
        let me = must_current_thread();
        let start_node = self.engine.node_of(me);
        // Frame first, then the residency check (section 3.5 ordering).
        match self.bind_frame(addr, me, start_node, access)? {
            Verdict::Admitted(lent) => {
                self.emit(ProtocolEvent::LocalInvoke {
                    obj: addr.0,
                    node: start_node,
                });
                self.uncontested_charge(self.cost.local_invoke);
                Ok(lent)
            }
            verdict => self.resolve(addr, access, carry, start_node, verdict),
        }
    }

    /// The rest of [`enter_invocation`](Kernel::enter_invocation) when the
    /// entry visit did not admit: residency, the charge and admission. Kept
    /// out of line, so that the admitted path's loan stays in registers; with
    /// it inline, copies of the verdict through the stack stalled loads that
    /// could not forward from the stores before them.
    #[inline(never)]
    fn resolve<'k>(
        &'k self,
        addr: VAddr,
        access: Access,
        carry: usize,
        start_node: NodeId,
        verdict: Verdict<'k>,
    ) -> Result<Lent<'k>, ProtocolError> {
        let at = match verdict {
            Verdict::Admitted(lent) => Ok((start_node, Some(lent))),
            Verdict::Here => Ok((start_node, None)),
            Verdict::Replicate => self.replicate_here(addr).map(|_| (start_node, None)),
            Verdict::Chase(first) => {
                set_carry(carry);
                let at = first.and_then(|step| self.ensure_at_object(addr, Some(access), step));
                set_carry(0);
                at
            }
        };
        let admitted = at.and_then(|(at, lent)| {
            if at != start_node {
                self.emit(ProtocolEvent::RemoteInvoke {
                    obj: addr.0,
                    from: start_node,
                    to: at,
                });
            } else {
                self.emit(ProtocolEvent::LocalInvoke {
                    obj: addr.0,
                    node: at,
                });
            }
            match lent {
                Some(lent) => {
                    self.uncontested_charge(self.cost.local_invoke);
                    Ok(lent)
                }
                None => {
                    self.engine.work(self.cost.local_invoke);
                    // A destroy can land between resolution and admission.
                    self.acquire_payload(addr, access)
                }
            }
        });
        if admitted.is_err() {
            self.unbind_frame(addr);
            self.recheck_residency();
        }
        admitted
    }

    /// Everything after the operation: exit, the `local_return` charge, and
    /// the return-time re-check that ships the thread back to its enclosing
    /// object's node — made in the exit visit when the charge is
    /// uncontested, in a visit of its own after the charge otherwise.
    fn leave_invocation(&self, addr: VAddr, access: Access) {
        match self.finish_invocation(addr, access) {
            Some(found) => {
                self.uncontested_charge(self.cost.local_return);
                self.chase_home(found);
            }
            None => {
                self.engine.work(self.cost.local_return);
                self.recheck_residency();
            }
        }
    }

    /// Fallible exclusive invocation: a dangling reference or a diverged
    /// forwarding chase returns a [`ProtocolError`] — with the invocation
    /// frame fully unwound and the thread shipped back to its enclosing
    /// object — instead of halting the thread. Errors can only arise
    /// *before* the payload is acquired, so `op` has not run when one is
    /// returned.
    pub(crate) fn try_invoke_exclusive_carrying<T: 'static, R>(
        &self,
        ctx: &crate::cluster::Ctx,
        obj: &ObjRef<T>,
        carry: usize,
        op: impl FnOnce(&crate::cluster::Ctx, &mut T) -> R,
    ) -> Result<R, ProtocolError> {
        let addr = obj.addr();
        let lent = self.enter_invocation(addr, Access::Exclusive, carry)?;
        #[expect(clippy::expect_used, reason = "ObjRef<T> comes from create::<T>")]
        let t: &mut T = lent.downcast_mut().expect("object payload type confusion");
        let result = op(ctx, t);
        self.leave_invocation(addr, Access::Exclusive);
        Ok(result)
    }

    /// Fallible shared invocation; the `&T` counterpart of
    /// [`try_invoke_exclusive_carrying`](Kernel::try_invoke_exclusive_carrying),
    /// with the same guarantee: an error means `op` never ran and the frame
    /// is fully unwound.
    pub(crate) fn try_invoke_shared_carrying<T: 'static, R>(
        &self,
        ctx: &crate::cluster::Ctx,
        obj: &ObjRef<T>,
        carry: usize,
        op: impl FnOnce(&crate::cluster::Ctx, &T) -> R,
    ) -> Result<R, ProtocolError> {
        let addr = obj.addr();
        let lent = self.enter_invocation(addr, Access::Shared, carry)?;
        #[expect(clippy::expect_used, reason = "ObjRef<T> comes from create::<T>")]
        let t: &T = lent.downcast_ref().expect("object payload type confusion");
        let result = op(ctx, t);
        self.leave_invocation(addr, Access::Shared);
        Ok(result)
    }
}
