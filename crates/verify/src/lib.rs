//! Machine-checked discipline for the Amber runtime.
//!
//! Two analysis layers, both compiled to zero-cost no-ops unless the
//! `verify` cargo feature or `debug_assertions` is on:
//!
//! * **Lock checker** — the [`OrderedMutex`] wrapper counts, per thread,
//!   the tracked locks held. The kernel keeps every fact about its objects
//!   and nodes under one lock, the object registry, and it is the one
//!   tracked lock, so the rule is that no tracked lock is taken while one
//!   is held: the registry taken again while held is reported
//!   ([`Violation::NestedAcquisition`]) before it self-deadlocks, and with
//!   no second lock there is no order to rank. Engines call
//!   [`engine_block_checkpoint`] at every block/park/send point; holding
//!   any tracked lock there is a violation. The checker also counts each OS
//!   thread's acquisitions ([`acquisitions`]), so tests can pin how many
//!   lock visits an operation takes.
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

/// One detected discipline violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A tracked lock was acquired while the thread already held one.
    NestedAcquisition,
    /// A tracked lock was held while entering an engine block point
    /// (park, sleep, yield, send, or charged work).
    HeldAcrossBlock {
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
            Violation::NestedAcquisition => write!(
                f,
                "nested acquisition: a tracked lock taken while one is held"
            ),
            Violation::HeldAcrossBlock { reason } => {
                write!(
                    f,
                    "tracked lock held entering engine block point `{reason}`"
                )
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
/// count belongs to the OS thread, and [`engine_block_checkpoint`] keeps it
/// at zero at every point that switches.
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
    use std::cell::Cell;

    use crate::{report, Violation};

    thread_local! {
        /// Tracked locks this thread holds: at most one in a program that
        /// keeps the rule.
        static DEPTH: Cell<u32> = const { Cell::new(0) };
        /// Tracked locks this thread has acquired, ever.
        pub(crate) static ACQUISITIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Runs *before* the underlying lock is acquired, so a nested
    /// acquisition panics instead of deadlocking.
    pub(crate) fn before_acquire() {
        if !holds_none() {
            report(Violation::NestedAcquisition);
        }
    }

    /// Counts an acquired lock as held, and as acquired.
    pub(crate) fn acquired() {
        DEPTH.with(|d| d.set(d.get() + 1));
        ACQUISITIONS.with(|n| n.set(n.get() + 1));
    }

    /// Counts a released lock out.
    pub(crate) fn released() {
        DEPTH.with(|d| d.set(d.get() - 1));
    }

    pub(crate) fn holds_none() -> bool {
        DEPTH.with(|d| d.get() == 0)
    }

    pub(crate) fn block_checkpoint(reason: &'static str) {
        if !holds_none() {
            report(Violation::HeldAcrossBlock { reason });
        }
    }
}

/// A mutex that participates in the lock check. With the checkers off
/// this is a transparent newtype: `lock()` is the underlying lock and the
/// guard is a plain deref, no extra atomics or branches.
pub struct OrderedMutex<T> {
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// A new mutex holding `value`.
    pub const fn new(value: T) -> OrderedMutex<T> {
        OrderedMutex {
            inner: Mutex::new(value),
        }
    }

    /// Acquires the mutex, first checking that the calling thread holds no
    /// tracked lock.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(any(feature = "verify", debug_assertions))]
        checker::before_acquire();
        let inner = self.inner.lock();
        #[cfg(any(feature = "verify", debug_assertions))]
        checker::acquired();
        OrderedMutexGuard { inner }
    }
}

/// Guard returned by [`OrderedMutex::lock`].
pub struct OrderedMutexGuard<'a, T> {
    inner: parking_lot::MutexGuard<'a, T>,
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
        checker::released();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_violation() {
        let nested = Violation::NestedAcquisition.to_string();
        assert!(nested.contains("nested acquisition"), "{nested}");
        let held = Violation::HeldAcrossBlock { reason: "park" }.to_string();
        assert!(held.contains("`park`"), "{held}");
    }
}
