//! Amber threads: Start and Join (paper, section 2.1).
//!
//! Threads are objects. `Start` creates a *thread object* on the caller's
//! node and begins executing an operation on a target object — which, being
//! an ordinary invocation, ships the new thread to wherever that object
//! lives. `Join` is an invocation on the thread object itself, so joining a
//! thread from another node migrates the joiner, exactly as the paper
//! describes ("invocations made on the thread object itself (e.g., a Join
//! operation)").
//!
//! The result is buffered in the thread object; a join that arrives early
//! parks on the thread object's waiter list and is woken by the terminating
//! thread.

use amber_engine::{must_current_thread, ProtocolEvent, ThreadId};

use crate::cluster::Ctx;
use crate::kernel::Kernel;
use crate::objref::{AmberObject, ObjRef};

/// The state held by a thread object: completion flag, buffered result, and
/// joiners to wake.
pub struct ThreadObj<R: Send + Sync + 'static> {
    result: Option<R>,
    finished: bool,
    waiters: Vec<ThreadId>,
}

// SAFETY-of-design note: the payload only crosses threads through the
// kernel's locks; `R` itself is never shared by reference, only moved out by
// the single joiner, but the blanket `Sync` bound on object payloads still
// requires `R: Sync` here.
impl<R: Send + Sync + 'static> AmberObject for ThreadObj<R> {}

/// A handle to a started thread; joinable exactly once.
///
/// The handle is `Clone`/`Copy`-free on purpose: `join` consumes it, giving
/// the single-consumer semantics of the paper's `Join` (which returns the
/// operation's result).
#[derive(Debug)]
pub struct JoinHandle<R: Send + Sync + 'static> {
    pub(crate) obj: ObjRef<ThreadObj<R>>,
    pub(crate) tid: ThreadId,
}

impl<R: Send + Sync + 'static> JoinHandle<R> {
    /// The engine-level id of the started thread.
    pub fn thread_id(&self) -> ThreadId {
        self.tid
    }

    /// The thread object itself, for mobility operations (a thread object
    /// can be moved or attached like any other object).
    pub fn object(&self) -> ObjRef<ThreadObj<R>> {
        self.obj
    }

    /// Non-blocking probe: harvests the thread's result if it has already
    /// terminated, or gives the handle back otherwise so the caller can
    /// retry or fall back to a blocking [`join`](JoinHandle::join).
    ///
    /// Like `join`, a successful `try_join` consumes the handle, so the
    /// result is harvested at most once by construction; a repeated join
    /// is a compile error, not a runtime panic.
    pub fn try_join(self, ctx: &Ctx) -> Result<R, JoinHandle<R>> {
        let kernel = ctx.kernel();
        let outcome = ctx.invoke(&self.obj, |_, t| {
            t.finished.then(|| t.result.take()).flatten()
        });
        match outcome {
            Some(r) => {
                kernel.emit(ProtocolEvent::Join {
                    thread: self.tid,
                    node: kernel.current_node(),
                });
                Ok(r)
            }
            None => Err(self),
        }
    }

    /// Blocks the calling thread until the started thread terminates and
    /// returns its result.
    ///
    /// Joining is an invocation on the thread object: if the thread object
    /// lives on another node, the joiner migrates there.
    ///
    /// If the result was already harvested through the raw thread object
    /// (only possible from inside the runtime crate), the joiner parks on
    /// a wait that can never be satisfied; the simulator reports that as
    /// an [`EngineError::Deadlock`](amber_engine::EngineError) naming
    /// `join-result-taken` — a defined error the caller sees, where this
    /// used to panic the kernel with "thread result joined twice".
    pub fn join(self, ctx: &Ctx) -> R {
        enum Outcome<R> {
            Ready(R),
            NotYet,
            Taken,
        }
        let kernel = ctx.kernel();
        loop {
            let me = must_current_thread();
            let outcome = ctx.invoke(&self.obj, |_, t| {
                if !t.finished {
                    t.waiters.push(me);
                    Outcome::NotYet
                } else {
                    match t.result.take() {
                        Some(r) => Outcome::Ready(r),
                        None => Outcome::Taken,
                    }
                }
            });
            match outcome {
                Outcome::Ready(r) => {
                    kernel.emit(ProtocolEvent::Join {
                        thread: self.tid,
                        node: kernel.current_node(),
                    });
                    return r;
                }
                Outcome::NotYet => kernel.park("join"),
                Outcome::Taken => kernel.park("join-result-taken"),
            }
        }
    }
}

impl Kernel {
    /// Starts a new thread executing `op` on `target`: the Start primitive.
    ///
    /// The thread object is created on the caller's current node; the new
    /// thread begins life there and its first action — invoking `target` —
    /// ships it to the target object's node if necessary.
    pub(crate) fn start_thread<T, R>(
        self: &std::sync::Arc<Self>,
        target: &ObjRef<T>,
        op: impl FnOnce(&Ctx, &mut T) -> R + Send + 'static,
    ) -> JoinHandle<R>
    where
        T: AmberObject,
        R: Send + Sync + 'static,
    {
        let here = self.current_node();
        self.engine.work(self.cost.thread_create);
        let thread_obj: ObjRef<ThreadObj<R>> = self.create_local(
            here,
            ThreadObj {
                result: None,
                finished: false,
                waiters: Vec::new(),
            },
        );
        self.engine.work(self.cost.sched_enqueue);
        let kernel = std::sync::Arc::clone(self);
        let target = *target;
        let tid = self.engine.spawn(
            here,
            format!("amber-{}", thread_obj.addr()),
            Box::new(move || {
                let ctx = Ctx::new(std::sync::Arc::clone(&kernel));
                let result = ctx.invoke(&target, op);
                // Publish the result through the thread object and wake
                // joiners. This is itself an invocation: a thread object
                // that was moved pulls its terminating thread to it.
                let waiters = ctx.invoke(&thread_obj, |_, t| {
                    t.result = Some(result);
                    t.finished = true;
                    std::mem::take(&mut t.waiters)
                });
                kernel.engine.work(kernel.cost.context_switch);
                for w in waiters {
                    kernel.unpark(w);
                }
                crate::invoke::unregister_thread();
            }),
        );
        self.emit(ProtocolEvent::ThreadStart {
            thread: tid,
            node: here,
        });
        JoinHandle {
            obj: thread_obj,
            tid,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::Cluster;
    use amber_engine::SimTime;

    #[test]
    fn try_join_returns_handle_until_finished() {
        let c = Cluster::sim(1, 2);
        let got = c
            .run(|ctx| {
                let a = ctx.create(0u8);
                let h = ctx.start(&a, |ctx, _| {
                    ctx.sleep(SimTime::from_ms(5));
                    42u32
                });
                let h = match h.try_join(ctx) {
                    Ok(_) => panic!("thread cannot have finished yet"),
                    Err(h) => h,
                };
                ctx.sleep(SimTime::from_ms(10));
                h.try_join(ctx).expect("thread finished; result available")
            })
            .unwrap();
        assert_eq!(got, 42);
    }

    #[test]
    fn join_after_result_taken_is_deadlock_not_panic() {
        let c = Cluster::sim(1, 2);
        let err = c
            .run(|ctx| {
                let a = ctx.create(0u8);
                let h = ctx.start(&a, |_, _| 7u32);
                ctx.sleep(SimTime::from_ms(10));
                // Steal the result through the raw thread object, the way a
                // duplicated harvest would. This used to panic the kernel
                // ("thread result joined twice"); now the join surfaces as
                // a detected deadlock naming the wait.
                let stolen = ctx.invoke(&h.object(), |_, t| t.result.take());
                assert_eq!(stolen, Some(7));
                h.join(ctx)
            })
            .unwrap_err();
        let s = err.to_string();
        assert!(s.contains("join-result-taken"), "{s}");
    }
}
