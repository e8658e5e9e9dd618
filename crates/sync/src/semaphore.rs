//! Counting semaphores.
//!
//! Not named in the paper's list but directly constructible from its
//! primitive synchronization objects (the paper invites programmers to
//! "extend the class hierarchy to define custom mechanisms for concurrency
//! control using these primitive synchronization objects", section 2.2).
//! None of the example applications needs one; `tests/runtime.rs` composes
//! it with a lock and a barrier across nodes.

use amber_core::{AmberObject, Ctx, ObjRef};
use amber_engine::ThreadId;

/// Internal semaphore state, an Amber object.
pub struct SemState {
    permits: u64,
    waiters: std::collections::VecDeque<ThreadId>,
}

impl AmberObject for SemState {}

/// A counting semaphore with parking waiters.
#[derive(Clone, Copy)]
pub struct Semaphore {
    state: ObjRef<SemState>,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(ctx: &Ctx, permits: u64) -> Semaphore {
        Semaphore {
            state: ctx.create(SemState {
                permits,
                waiters: std::collections::VecDeque::new(),
            }),
        }
    }

    /// The underlying object, for mobility operations.
    pub fn object(&self) -> ObjRef<SemState> {
        self.state
    }

    /// Acquires one permit, parking until one is available.
    pub fn acquire(&self, ctx: &Ctx) {
        let me = ctx.thread_id();
        loop {
            let got = ctx.invoke(&self.state, |_, s| {
                if s.permits > 0 {
                    s.permits -= 1;
                    true
                } else {
                    if !s.waiters.contains(&me) {
                        s.waiters.push_back(me);
                    }
                    false
                }
            });
            if got {
                return;
            }
            ctx.park("semaphore-acquire");
        }
    }

    /// Attempts to take a permit without blocking; `true` on success.
    pub fn try_acquire(&self, ctx: &Ctx) -> bool {
        ctx.invoke(&self.state, |_, s| {
            if s.permits > 0 {
                s.permits -= 1;
                true
            } else {
                false
            }
        })
    }

    /// Returns one permit, waking a waiter if present.
    pub fn release(&self, ctx: &Ctx) {
        let next = ctx.invoke(&self.state, |_, s| {
            s.permits += 1;
            s.waiters.pop_front()
        });
        if let Some(w) = next {
            ctx.unpark(w);
        }
    }

    /// Current number of free permits.
    pub fn permits(&self, ctx: &Ctx) -> u64 {
        ctx.invoke_shared(&self.state, |_, s| s.permits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_core::{Cluster, SimTime};

    #[test]
    fn permits_bound_concurrency() {
        let c = Cluster::sim(1, 4);
        let max_inside = c
            .run(|ctx| {
                let sem = Semaphore::new(ctx, 2);
                let inside = ctx.create(0i32);
                let max_seen = ctx.create(0i32);
                let anchors: Vec<_> = (0..4).map(|_| ctx.create(0u8)).collect();
                let hs: Vec<_> = anchors
                    .iter()
                    .map(|a| {
                        ctx.start(a, move |ctx, _| {
                            sem.acquire(ctx);
                            let now = ctx.invoke(&inside, |_, i| {
                                *i += 1;
                                *i
                            });
                            ctx.invoke(&max_seen, move |_, m| *m = (*m).max(now));
                            ctx.work(SimTime::from_ms(1));
                            ctx.invoke(&inside, |_, i| *i -= 1);
                            sem.release(ctx);
                        })
                    })
                    .collect();
                for h in hs {
                    h.join(ctx);
                }
                ctx.invoke(&max_seen, |_, m| *m)
            })
            .unwrap();
        assert!(max_inside <= 2, "semaphore admitted {max_inside} at once");
        assert!(max_inside >= 1);
    }

    #[test]
    fn try_acquire_and_counting() {
        let c = Cluster::sim(1, 1);
        c.run(|ctx| {
            let sem = Semaphore::new(ctx, 1);
            assert!(sem.try_acquire(ctx));
            assert!(!sem.try_acquire(ctx));
            sem.release(ctx);
            assert_eq!(sem.permits(ctx), 1);
            sem.release(ctx);
            assert_eq!(sem.permits(ctx), 2);
        })
        .unwrap();
    }
}
