//! Minimal, std-backed stand-in for the subset of the `parking_lot` API
//! this workspace uses: `Mutex`/`MutexGuard` and `Condvar` (plain, timed
//! and deadline waits).
//! Lock poisoning is deliberately swallowed — like the real `parking_lot`,
//! a panic while holding a lock does not poison it.
//!
//! Two rules make a wake cost one host hand-off or nothing. The permit is
//! recorded under the lock, the wake is issued after it: that is the
//! caller's half — record what the wake is for under the mutex, notify once
//! the guard is dropped — and the woken thread then finds the lock free. A
//! wake nobody waits for is a load: [`Condvar`] counts the threads inside
//! its waits and `notify_one`/`notify_all` return without a system call at
//! zero, as the real crate's do; the count is raised under the guard the
//! waiter holds, so a notify that follows the unlock loses no waiter.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A mutual-exclusion primitive (std-backed, non-poisoning).
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            guard: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { guard: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                guard: Some(e.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// RAII guard for [`Mutex`]; the lock is released on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    // `None` only transiently, while a `Condvar` wait has released the lock.
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard is locked")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard is locked")
    }
}

/// The result of a timed [`Condvar`] wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// `true` if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable usable with [`MutexGuard`]s.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads inside a wait: raised by the waiter while it still holds the
    /// guard, lowered once it holds it again. `Relaxed` throughout — the
    /// mutex is the ordering: a notifier that took the lock after a waiter
    /// released it (the only one that waiter depends on) acquired what the
    /// waiter's unlock released, the raise included, and a notifier that
    /// took it before is seen by the waiter's own check of its condition.
    waiters: AtomicUsize,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Atomically releases the lock and waits for a notification.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.guard.take().expect("guard is locked");
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        guard.guard = Some(g);
    }

    /// Waits with a timeout relative to now.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.guard.take().expect("guard is locked");
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let (g, r) = self
            .inner
            .wait_timeout(g, timeout)
            .unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        guard.guard = Some(g);
        WaitTimeoutResult(r.timed_out())
    }

    /// Waits until the deadline `until`.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        until: Instant,
    ) -> WaitTimeoutResult {
        let now = Instant::now();
        let timeout = until.saturating_duration_since(now);
        if timeout.is_zero() {
            return WaitTimeoutResult(true);
        }
        self.wait_for(guard, timeout)
    }

    /// Wakes one waiter; `false`, and no system call, when no thread is
    /// inside a wait.
    pub fn notify_one(&self) -> bool {
        let parked = self.waiters.load(Ordering::Relaxed) > 0;
        if parked {
            self.inner.notify_one();
        }
        parked
    }

    /// Wakes every waiter and returns how many were inside a wait; `0`,
    /// and no system call, when none was.
    pub fn notify_all(&self) -> usize {
        let parked = self.waiters.load(Ordering::Relaxed);
        if parked > 0 {
            self.inner.notify_all();
        }
        parked
    }
}

// Keep the dead-code lint honest about the one field std's guards hide.
#[allow(dead_code)]
fn _assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Mutex<u32>>();
    check::<Condvar>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
    }

    #[test]
    fn a_notify_nobody_waits_for_reports_nobody() {
        let cv = Condvar::new();
        assert!(!cv.notify_one());
        assert_eq!(cv.notify_all(), 0);
    }

    /// Runs `notify` with one thread inside `wait` and returns what it
    /// reported. The waiter raises `parked` under the mutex it then waits
    /// on, so whoever reads it `true` under that mutex holds a lock the
    /// waiter can only have given up inside `wait`, past the count, and
    /// cannot leave `wait` without.
    fn notify_one_parked_thread<R>(notify: impl FnOnce(&Condvar) -> R) -> R {
        // (parked, released)
        let pair = Arc::new((Mutex::new((false, false)), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut st = m.lock();
            st.0 = true;
            while !st.1 {
                cv.wait(&mut st);
            }
        });
        let (m, cv) = &*pair;
        let reported = loop {
            let mut st = m.lock();
            if st.0 {
                st.1 = true;
                break notify(cv);
            }
            drop(st);
            std::thread::yield_now();
        };
        waiter.join().unwrap();
        reported
    }

    #[test]
    fn a_notify_reports_the_thread_inside_wait() {
        assert!(notify_one_parked_thread(Condvar::notify_one));
        assert_eq!(notify_one_parked_thread(Condvar::notify_all), 1);
    }

    #[test]
    fn a_timed_out_wait_leaves_no_waiter_behind() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        assert!(cv.wait_until(&mut g, Instant::now()).timed_out());
        assert!(!cv.notify_one());
        assert_eq!(cv.notify_all(), 0);
    }

    #[test]
    fn a_notify_after_the_unlock_never_loses_a_waiter() {
        // Two mailboxes, a ball sent back and forth: each side pushes under
        // the mailbox's mutex and notifies once the guard is gone, which is
        // the window a wake skipped for "nobody parked" would fall into. A
        // lost wake shows as a wait that runs into the deadline.
        const ROUNDS: u64 = 100_000;
        type Mailbox = (Mutex<Option<u64>>, Condvar);
        fn put(mailbox: &Mailbox, ball: u64) {
            *mailbox.0.lock() = Some(ball);
            mailbox.1.notify_one();
        }
        fn take(mailbox: &Mailbox, deadline: Instant) -> u64 {
            let (m, cv) = mailbox;
            let mut slot = m.lock();
            loop {
                if let Some(ball) = slot.take() {
                    return ball;
                }
                let left = deadline.saturating_duration_since(Instant::now());
                assert!(
                    !cv.wait_for(&mut slot, left).timed_out() || slot.is_some(),
                    "a waiter was never woken"
                );
            }
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        let there: Arc<Mailbox> = Arc::new((Mutex::new(None), Condvar::new()));
        let back: Arc<Mailbox> = Arc::new((Mutex::new(None), Condvar::new()));
        let (there2, back2) = (Arc::clone(&there), Arc::clone(&back));
        let echo = std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                let ball = take(&there2, deadline);
                put(&back2, ball);
            }
        });
        for ball in 0..ROUNDS {
            put(&there, ball);
            assert_eq!(take(&back, deadline), ball);
        }
        echo.join().unwrap();
        assert!(!there.1.notify_one() && !back.1.notify_one());
    }
}
