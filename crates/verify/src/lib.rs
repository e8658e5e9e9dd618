//! Machine-checked discipline for the Amber runtime.
//!
//! Two analysis layers, both compiled to zero-cost no-ops unless the
//! `verify` cargo feature or `debug_assertions` is on:
//!
//! * **Lock-order checker** — [`OrderedMutex`] / [`OrderedRwLock`] wrappers
//!   carry a [`LockLevel`] and validate every acquisition against a
//!   thread-local held-lock stack (levels must strictly ascend, so a lock
//!   taken again while held is reported before it self-deadlocks). Ranks are
//!   a strict total order, so the per-thread rule is complete: an
//!   acquisition-order cycle across threads needs one down-rank edge, and
//!   that edge is reported where it is taken. Engines call
//!   [`engine_block_checkpoint`] at every block/park/send point; holding
//!   any tracked lock there is a violation.
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

/// The tiers of the kernel's documented lock hierarchy, in acquisition
/// order. Ranks are totally ordered: the object registry before every
/// per-node descriptor table. A thread may only acquire a tracked lock
/// whose rank is strictly greater than the last tracked lock it acquired,
/// so taking the registry lock while holding it is reported too.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockLevel {
    /// The cluster's one object-registry mutex (`Kernel::objects`).
    Registry,
    /// One node's residency-descriptor table, by node index.
    DescriptorTable(usize),
}

impl LockLevel {
    /// Total-order rank: tier in the high bits, index in the low bits.
    pub fn rank(self) -> u64 {
        match self {
            LockLevel::Registry => 0,
            LockLevel::DescriptorTable(i) => (1 << 32) | i as u64,
        }
    }
}

impl fmt::Display for LockLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockLevel::Registry => write!(f, "Registry"),
            LockLevel::DescriptorTable(i) => write!(f, "DescriptorTable({i})"),
        }
    }
}

/// One detected discipline violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A tracked lock was acquired while holding one of equal or higher
    /// rank: the held/acquiring pair names the offending levels.
    LockOrder {
        /// The highest-ranked lock already held.
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
                "lock order violation: {held} -> {acquiring} (ranks must strictly ascend)"
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

#[cfg(any(feature = "verify", debug_assertions))]
mod checker {
    use std::cell::RefCell;

    use crate::{report, LockLevel, Violation};

    thread_local! {
        /// Tracked locks held by this thread, in acquisition order.
        static HELD: RefCell<Vec<LockLevel>> = const { RefCell::new(Vec::new()) };
    }

    /// Order check, run *before* the underlying lock is acquired so a
    /// misordered acquisition panics instead of deadlocking.
    pub(crate) fn before_acquire(level: LockLevel) {
        let top = HELD.with(|h| h.borrow().last().copied());
        if let Some(top) = top {
            if level.rank() <= top.rank() {
                report(Violation::LockOrder {
                    held: top,
                    acquiring: level,
                });
            }
        }
    }

    /// Pushes an acquired lock onto the held stack.
    pub(crate) fn acquired(level: LockLevel) {
        HELD.with(|h| h.borrow_mut().push(level));
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

/// A mutex that participates in the lock-order check. With the checkers off
/// this is a transparent newtype: `lock()` is the underlying lock and the
/// guard is a plain deref, no extra atomics or branches.
pub struct OrderedMutex<T> {
    level: LockLevel,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// A new mutex at `level` holding `value`.
    pub const fn new(level: LockLevel, value: T) -> OrderedMutex<T> {
        OrderedMutex {
            level,
            inner: Mutex::new(value),
        }
    }

    /// The level this lock was registered at.
    pub fn level(&self) -> LockLevel {
        self.level
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

/// A reader-writer lock that participates in the lock-order check; see
/// [`OrderedMutex`].
pub struct OrderedRwLock<T> {
    level: LockLevel,
    inner: parking_lot::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// A new rwlock at `level` holding `value`.
    pub const fn new(level: LockLevel, value: T) -> OrderedRwLock<T> {
        OrderedRwLock {
            level,
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// The level this lock was registered at.
    pub fn level(&self) -> LockLevel {
        self.level
    }

    /// Acquires shared access, order-checked like a lock acquisition.
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        #[cfg(any(feature = "verify", debug_assertions))]
        checker::before_acquire(self.level);
        let inner = self.inner.read();
        #[cfg(any(feature = "verify", debug_assertions))]
        checker::acquired(self.level);
        OrderedRwLockReadGuard {
            inner,
            #[cfg(any(feature = "verify", debug_assertions))]
            level: self.level,
        }
    }

    /// Acquires exclusive access, order-checked like a lock acquisition.
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        #[cfg(any(feature = "verify", debug_assertions))]
        checker::before_acquire(self.level);
        let inner = self.inner.write();
        #[cfg(any(feature = "verify", debug_assertions))]
        checker::acquired(self.level);
        OrderedRwLockWriteGuard {
            inner,
            #[cfg(any(feature = "verify", debug_assertions))]
            level: self.level,
        }
    }
}

/// Shared guard returned by [`OrderedRwLock::read`].
pub struct OrderedRwLockReadGuard<'a, T> {
    inner: parking_lot::RwLockReadGuard<'a, T>,
    #[cfg(any(feature = "verify", debug_assertions))]
    level: LockLevel,
}

impl<T> std::ops::Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

#[cfg(any(feature = "verify", debug_assertions))]
impl<T> Drop for OrderedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        checker::released(self.level);
    }
}

/// Exclusive guard returned by [`OrderedRwLock::write`].
pub struct OrderedRwLockWriteGuard<'a, T> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
    #[cfg(any(feature = "verify", debug_assertions))]
    level: LockLevel,
}

impl<T> std::ops::Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedRwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(any(feature = "verify", debug_assertions))]
impl<T> Drop for OrderedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        checker::released(self.level);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_totally_ordered() {
        let order = [
            LockLevel::Registry,
            LockLevel::DescriptorTable(0),
            LockLevel::DescriptorTable(7),
        ];
        for w in order.windows(2) {
            assert!(w[0].rank() < w[1].rank(), "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn display_names_the_index() {
        assert_eq!(LockLevel::Registry.to_string(), "Registry");
        assert_eq!(
            LockLevel::DescriptorTable(2).to_string(),
            "DescriptorTable(2)"
        );
        let v = Violation::LockOrder {
            held: LockLevel::DescriptorTable(0),
            acquiring: LockLevel::Registry,
        };
        let s = v.to_string();
        assert!(s.contains("DescriptorTable(0) -> Registry"), "{s}");
    }
}
