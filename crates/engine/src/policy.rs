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

use std::collections::BinaryHeap;
use std::collections::VecDeque;

use crate::ids::ThreadId;
use crate::time::SimTime;

/// A per-node ready queue ordering policy.
///
/// The engine calls [`enqueue`](Scheduler::enqueue) when a thread becomes
/// runnable on the node but no processor is free, and
/// [`dequeue`](Scheduler::dequeue) when a processor frees up. A policy that
/// returns a quantum enables timeslicing: a thread's CPU burst is preempted
/// after the quantum and the thread is re-enqueued.
pub trait Scheduler: Send {
    /// Adds a runnable thread with its priority (larger is more urgent).
    fn enqueue(&mut self, thread: ThreadId, priority: i32);

    /// Removes and returns the next thread to run, if any.
    fn dequeue(&mut self) -> Option<ThreadId>;

    /// The timeslice quantum, or `None` to run bursts to completion.
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

/// Last-in first-out. Favour recently-runnable threads (better cache
/// behaviour for fine-grained fork/join workloads, per the Presto lineage).
#[derive(Default)]
pub struct Lifo {
    stack: Vec<ThreadId>,
}

impl Scheduler for Lifo {
    fn enqueue(&mut self, thread: ThreadId, _priority: i32) {
        self.stack.push(thread);
    }

    fn dequeue(&mut self) -> Option<ThreadId> {
        self.stack.pop()
    }
}

/// Strict priority with FIFO tie-break, run to completion.
#[derive(Default)]
pub struct Priority {
    heap: BinaryHeap<PrioEntry>,
    seq: u64,
}

#[derive(PartialEq, Eq)]
struct PrioEntry {
    priority: i32,
    /// Reversed arrival order so earlier arrivals win ties.
    seq: std::cmp::Reverse<u64>,
    thread: ThreadId,
}

impl Ord for PrioEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.priority, &self.seq).cmp(&(other.priority, &other.seq))
    }
}

impl PartialOrd for PrioEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Scheduler for Priority {
    fn enqueue(&mut self, thread: ThreadId, priority: i32) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(PrioEntry {
            priority,
            seq: std::cmp::Reverse(seq),
            thread,
        });
    }

    fn dequeue(&mut self) -> Option<ThreadId> {
        self.heap.pop().map(|e| e.thread)
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
    fn lifo_orders_by_recency() {
        let mut s = Lifo::default();
        s.enqueue(t(1), 0);
        s.enqueue(t(2), 0);
        assert_eq!(s.dequeue(), Some(t(2)));
        assert_eq!(s.dequeue(), Some(t(1)));
    }

    #[test]
    fn priority_orders_by_priority_then_arrival() {
        let mut s = Priority::default();
        s.enqueue(t(1), 1);
        s.enqueue(t(2), 3);
        s.enqueue(t(3), 3);
        s.enqueue(t(4), 2);
        assert_eq!(s.dequeue(), Some(t(2)));
        assert_eq!(s.dequeue(), Some(t(3)));
        assert_eq!(s.dequeue(), Some(t(4)));
        assert_eq!(s.dequeue(), Some(t(1)));
    }

    #[test]
    fn round_robin_exposes_quantum() {
        let s = RoundRobin::new(SimTime::from_ms(10));
        assert_eq!(s.quantum(), Some(SimTime::from_ms(10)));
    }
}
