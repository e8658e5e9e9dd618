//! Pluggable per-node scheduling policies.
//!
//! Amber inherits Presto's open scheduler: "an application can install a
//! custom scheduling discipline at runtime by replacing the system scheduler
//! object with a similar object that supports the same interface" (paper,
//! section 2.1). Here the interface is the [`Scheduler`] trait; the engines
//! consult whichever implementation is installed on a node to pick the next
//! thread for a processor, and a program may swap it at any time through
//! the runtime.
//!
//! Determinism note: every built-in policy breaks ties by arrival order, so
//! the discrete-event engine remains fully deterministic under all of them.

use std::collections::VecDeque;

use crate::ids::ThreadId;
use crate::time::SimTime;

/// A per-node ready queue ordering policy.
///
/// The engine calls [`enqueue`](Scheduler::enqueue) when a thread becomes
/// runnable on the node but no processor is free, and
/// [`dequeue`](Scheduler::dequeue) when a processor frees up, except at the
/// end of an uncontested burst: on `SimEngine` a burst that finds a
/// processor free, no other thread ready and nothing due before it ends is
/// a clock advance, and, since the queue holds a thread only while every
/// processor is busy, ends without a `dequeue`. A policy that returns a
/// quantum enables timeslicing: a thread's CPU burst is preempted after the
/// quantum and the thread is re-enqueued.
pub trait Scheduler: Send {
    /// Adds a runnable thread with its priority (larger is more urgent).
    fn enqueue(&mut self, thread: ThreadId, priority: i32);

    /// Removes and returns the next thread to run, if any.
    fn dequeue(&mut self) -> Option<ThreadId>;

    /// The timeslice quantum, or `None` to run bursts to completion.
    ///
    /// `SimEngine` reads it once, when the policy is installed (at
    /// `SimEngine::new` or `Engine::set_scheduler`), not per burst, so a
    /// policy's quantum must not change while it is installed.
    fn quantum(&self) -> Option<SimTime> {
        None
    }
}

/// First-in first-out, run to completion. The default policy.
#[derive(Default)]
pub struct Fifo {
    queue: VecDeque<ThreadId>,
}

impl Scheduler for Fifo {
    fn enqueue(&mut self, thread: ThreadId, _priority: i32) {
        self.queue.push_back(thread);
    }

    fn dequeue(&mut self) -> Option<ThreadId> {
        self.queue.pop_front()
    }
}

/// Round-robin timeslicing with the given quantum.
pub struct RoundRobin {
    queue: VecDeque<ThreadId>,
    quantum: SimTime,
}

impl RoundRobin {
    /// Creates a round-robin policy preempting bursts after `quantum`.
    pub fn new(quantum: SimTime) -> Self {
        RoundRobin {
            queue: VecDeque::new(),
            quantum,
        }
    }
}

impl Scheduler for RoundRobin {
    fn enqueue(&mut self, thread: ThreadId, _priority: i32) {
        self.queue.push_back(thread);
    }

    fn dequeue(&mut self) -> Option<ThreadId> {
        self.queue.pop_front()
    }

    fn quantum(&self) -> Option<SimTime> {
        Some(self.quantum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> ThreadId {
        ThreadId(n)
    }

    #[test]
    fn fifo_orders_by_arrival() {
        let mut s = Fifo::default();
        s.enqueue(t(1), 0);
        s.enqueue(t(2), 5);
        s.enqueue(t(3), -1);
        assert_eq!(s.dequeue(), Some(t(1)));
        assert_eq!(s.dequeue(), Some(t(2)));
        assert_eq!(s.dequeue(), Some(t(3)));
        assert_eq!(s.dequeue(), None);
    }

    #[test]
    fn round_robin_exposes_quantum() {
        let s = RoundRobin::new(SimTime::from_ms(10));
        assert_eq!(s.quantum(), Some(SimTime::from_ms(10)));
    }
}
