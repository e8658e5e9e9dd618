//! Machine-checked discipline for the Amber runtime.
//!
//! Two analysis layers, both compiled to zero-cost no-ops unless the
//! `verify` cargo feature or `debug_assertions` is on:
//!
//! * **Lock checker** — the [`OrderedMutex`] wrapper carries a
//!   [`LockLevel`] and validates every acquisition against a thread-local
//!   held-lock stack. The kernel has one tracked lock, the object registry,
//!   so the rule is that no tracked lock is taken while one is held: the
//!   registry taken again while held is reported before it self-deadlocks,
//!   and with no second lock there is no cross-thread cycle to order.
//!   Engines call [`engine_block_checkpoint`] at every block/park/send
//!   point; holding any tracked lock there is a violation. The checker also
//!   counts each OS thread's acquisitions ([`acquisitions`]), so tests can
//!   pin how many lock visits an operation takes.
//! * **Protocol-lifecycle linter** — lives in `amber-engine`, beside the
//!   event table it reads, and reports illegal event sequences here as
//!   [`Violation::Lifecycle`].
//!
//! Violations are recorded in a global registry and panic by default (so a
//! violating test run fails loudly); negative tests switch panicking off
//! with [`set_panic_on_violation`] and drain the registry with
//! [`take_violations`].

#![warn(missing_docs)]

use std::fmt;

use parking_lot::Mutex;

/// `true` when the runtime checkers are compiled in (the `verify` feature
/// or `debug_assertions`); `false` when every wrapper is a plain newtype.
pub const ACTIVE: bool = cfg!(any(feature = "verify", debug_assertions));

/// The kernel's tracked locks. There is one: the object registry, which
/// also guards every node's descriptor table. A thread holds at most one
/// tracked lock at a time, so taking the registry lock while holding it is
/// reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockLevel {
    /// The cluster's one object-registry mutex (`Kernel::objects`).
    Registry,
}

impl fmt::Display for LockLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockLevel::Registry => write!(f, "Registry"),
        }
    }
}

/// One detected discipline violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A tracked lock was acquired while one was already held: the
    /// held/acquiring pair names the levels.
    LockOrder {
        /// The most recently acquired lock still held.
        held: LockLevel,
        /// The lock whose acquisition broke the order.
        acquiring: LockLevel,
    },
    /// A tracked lock was held while entering an engine block point
    /// (park, sleep, yield, send, or charged work).
    HeldAcrossBlock {
        /// The most recently acquired lock still held.
        held: LockLevel,
        /// The engine block point's reason string.
        reason: &'static str,
    },
    /// The protocol-lifecycle linter rejected an event sequence.
    Lifecycle {
        /// Raw address of the offending object.
        obj: u64,
        /// What was illegal about the sequence.
        message: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::LockOrder { held, acquiring } => write!(
                f,
                "lock order violation: {held} -> {acquiring} (one tracked lock at a time)"
            ),
            Violation::HeldAcrossBlock { held, reason } => {
                write!(f, "lock {held} held entering engine block point `{reason}`")
            }
            Violation::Lifecycle { obj, message } => {
                write!(f, "lifecycle violation on object {obj:#x}: {message}")
            }
        }
    }
}

/// Global violation registry. Tiny and cold: it only ever grows when a
/// checker fires, so keeping it unconditionally compiled costs nothing on
/// hot paths.
static VIOLATIONS: Mutex<Vec<Violation>> = Mutex::new(Vec::new());
static PANIC_ON_VIOLATION: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Records a violation, panicking unless panic-on-violation was disabled.
/// Called by the lock checker and the lifecycle linter; tests may call it
/// directly to exercise the reporting path.
pub fn report(v: Violation) {
    VIOLATIONS.lock().push(v.clone());
    if PANIC_ON_VIOLATION.load(std::sync::atomic::Ordering::Relaxed) {
        panic!("amber-verify: {v}");
    }
}

/// Drains and returns every recorded violation.
pub fn take_violations() -> Vec<Violation> {
    std::mem::take(&mut VIOLATIONS.lock())
}

/// Sets whether a reported violation panics immediately (the default) or is
/// only recorded for later [`take_violations`]; returns the previous
/// setting. Negative tests switch panicking off around deliberately illegal
/// acquisitions.
pub fn set_panic_on_violation(on: bool) -> bool {
    PANIC_ON_VIOLATION.swap(on, std::sync::atomic::Ordering::Relaxed)
}

/// Asserts that no tracked lock is held at an engine block point. Engines
/// call this at the top of every park/yield/sleep/send/work path; compiled
/// to nothing when the checkers are off.
#[inline]
pub fn engine_block_checkpoint(reason: &'static str) {
    #[cfg(any(feature = "verify", debug_assertions))]
    checker::block_checkpoint(reason);
    #[cfg(not(any(feature = "verify", debug_assertions)))]
    let _ = reason;
}

/// `true` when the calling OS thread holds no tracked lock; always `true`
/// with the checkers off. An engine that runs several Amber threads on one
/// OS thread asserts it wherever it switches between them: the held-lock
/// stack belongs to the OS thread, and [`engine_block_checkpoint`] keeps it
/// empty at every point that switches.
pub fn holds_no_lock() -> bool {
    #[cfg(any(feature = "verify", debug_assertions))]
    return checker::holds_none();
    #[cfg(not(any(feature = "verify", debug_assertions)))]
    true
}

/// Tracked-lock acquisitions the calling OS thread has made so far; always
/// 0 with the checkers off. Tests read it before and after an operation to
/// pin how many registry visits the operation takes. An engine that runs
/// several Amber threads on one OS thread counts them all here.
pub fn acquisitions() -> u64 {
    #[cfg(any(feature = "verify", debug_assertions))]
    return checker::ACQUISITIONS.with(|n| n.get());
    #[cfg(not(any(feature = "verify", debug_assertions)))]
    0
}

#[cfg(any(feature = "verify", debug_assertions))]
mod checker {
    use std::cell::{Cell, RefCell};

    use crate::{report, LockLevel, Violation};

    thread_local! {
        /// Tracked locks held by this thread, in acquisition order.
        static HELD: RefCell<Vec<LockLevel>> = const { RefCell::new(Vec::new()) };
        /// Tracked locks this thread has acquired, ever.
        pub(crate) static ACQUISITIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Order check, run *before* the underlying lock is acquired so a
    /// nested acquisition panics instead of deadlocking.
    pub(crate) fn before_acquire(level: LockLevel) {
        let top = HELD.with(|h| h.borrow().last().copied());
        if let Some(held) = top {
            report(Violation::LockOrder {
                held,
                acquiring: level,
            });
        }
    }

    /// Pushes an acquired lock onto the held stack and counts it.
    pub(crate) fn acquired(level: LockLevel) {
        HELD.with(|h| h.borrow_mut().push(level));
        ACQUISITIONS.with(|n| n.set(n.get() + 1));
    }

    /// Pops a released lock (the most recent matching entry, which is the
    /// top in all non-violating programs).
    pub(crate) fn released(level: LockLevel) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(ix) = h.iter().rposition(|l| *l == level) {
                h.remove(ix);
            }
        });
    }

    pub(crate) fn holds_none() -> bool {
        HELD.with(|h| h.borrow().is_empty())
    }

    pub(crate) fn block_checkpoint(reason: &'static str) {
        let top = HELD.with(|h| h.borrow().last().copied());
        if let Some(held) = top {
            report(Violation::HeldAcrossBlock { held, reason });
        }
    }
}

/// A mutex that participates in the lock check. With the checkers off
/// this is a transparent newtype: `lock()` is the underlying lock and the
/// guard is a plain deref, no extra atomics or branches.
pub struct OrderedMutex<T> {
    #[cfg(any(feature = "verify", debug_assertions))]
    level: LockLevel,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// A new mutex at `level` holding `value`.
    pub const fn new(level: LockLevel, value: T) -> OrderedMutex<T> {
        #[cfg(not(any(feature = "verify", debug_assertions)))]
        let _ = level;
        OrderedMutex {
            #[cfg(any(feature = "verify", debug_assertions))]
            level,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the mutex, checking the acquisition against the calling
    /// thread's held-lock stack first.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(any(feature = "verify", debug_assertions))]
        checker::before_acquire(self.level);
        let inner = self.inner.lock();
        #[cfg(any(feature = "verify", debug_assertions))]
        checker::acquired(self.level);
        OrderedMutexGuard {
            inner,
            #[cfg(any(feature = "verify", debug_assertions))]
            level: self.level,
        }
    }
}

/// Guard returned by [`OrderedMutex::lock`].
pub struct OrderedMutexGuard<'a, T> {
    inner: parking_lot::MutexGuard<'a, T>,
    #[cfg(any(feature = "verify", debug_assertions))]
    level: LockLevel,
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(any(feature = "verify", debug_assertions))]
impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        checker::released(self.level);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_pair() {
        assert_eq!(LockLevel::Registry.to_string(), "Registry");
        let v = Violation::LockOrder {
            held: LockLevel::Registry,
            acquiring: LockLevel::Registry,
        };
        let s = v.to_string();
        assert!(s.contains("Registry -> Registry"), "{s}");
    }
}
