//! Negative tests: prove the checkers actually *detect* the bugs they
//! exist for. Each test provokes one illegal pattern with the panic hook
//! disabled and asserts the violation it recorded.
//!
//! The violation buffer and panic flag are process-global, so every test
//! serializes on one mutex and drains the buffer before and after.

#![cfg(any(feature = "verify", debug_assertions))]

use amber_verify::{
    acquisitions, engine_block_checkpoint, set_panic_on_violation, take_violations, OrderedMutex,
    Violation,
};
use parking_lot::{Mutex, MutexGuard};

/// Serializes tests that touch the global violation buffer / panic flag.
static SERIAL: Mutex<()> = Mutex::new(());

/// Enters a quiet section: panics-on-violation off, buffer drained.
fn quiet() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock();
    set_panic_on_violation(false);
    let _ = take_violations();
    guard
}

/// Leaves the quiet section, returning everything recorded inside it.
fn drain_and_restore() -> Vec<Violation> {
    let v = take_violations();
    set_panic_on_violation(true);
    v
}

#[test]
fn two_registries_held_at_once_is_a_nested_acquisition() {
    // Two clusters' registries are two tracked locks: a thread that holds
    // one while taking the other could deadlock against a thread taking
    // them the other way round.
    let _serial = quiet();
    let first = OrderedMutex::new(());
    let second = OrderedMutex::new(());
    {
        let _a = first.lock();
        let _b = second.lock(); // a tracked lock held: illegal
    }
    let violations = drain_and_restore();
    assert_eq!(violations, [Violation::NestedAcquisition]);
}

#[test]
fn a_lock_taken_twice_is_reported_before_it_deadlocks() {
    // Panic-on-violation stays on: the report must fire before the inner
    // lock() reaches the mutex, or this test hangs instead of failing.
    let _serial = SERIAL.lock();
    let _ = take_violations();
    let registry = OrderedMutex::new(());
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _outer = registry.lock();
        let _inner = registry.lock();
    }));
    let violations = take_violations();
    let payload = outcome.expect_err("re-taking a held lock must panic");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("nested acquisition"),
        "expected a nested-acquisition violation, got {message:?}"
    );
    assert_eq!(violations, [Violation::NestedAcquisition]);
    // The unwind dropped the outer guard: the lock is free again.
    drop(registry.lock());
}

#[test]
fn one_visit_at_a_time_is_clean_and_counted() {
    let _serial = quiet();
    let first = OrderedMutex::new(());
    let second = OrderedMutex::new(());
    let before = acquisitions();
    drop(first.lock());
    drop(second.lock());
    drop(first.lock());
    assert_eq!(acquisitions() - before, 3, "each visit is one acquisition");
    let violations = drain_and_restore();
    assert!(
        violations.is_empty(),
        "visits that never overlap must not trip the checker: {violations:?}"
    );
}

#[test]
fn lock_held_across_engine_block_is_reported() {
    let _serial = quiet();
    let registry = OrderedMutex::new(());
    {
        let _r = registry.lock();
        engine_block_checkpoint("unit-test-block");
    }
    let violations = drain_and_restore();
    assert_eq!(
        violations,
        [Violation::HeldAcrossBlock {
            reason: "unit-test-block"
        }]
    );
}

#[test]
fn no_lock_held_at_checkpoint_is_clean() {
    let _serial = quiet();
    let registry = OrderedMutex::new(());
    drop(registry.lock());
    engine_block_checkpoint("unit-test-block");
    let violations = drain_and_restore();
    assert!(violations.is_empty(), "unexpected: {violations:?}");
}
