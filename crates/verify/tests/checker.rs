//! Negative tests: prove the checkers actually *detect* the bugs they
//! exist for. Each test provokes one illegal pattern with the panic hook
//! disabled and asserts the recorded violation names the offending pair.
//!
//! The violation buffer and panic flag are process-global, so every test
//! serializes on one mutex and drains the buffer before and after.

#![cfg(any(feature = "verify", debug_assertions))]

use amber_verify::{
    engine_block_checkpoint, set_panic_on_violation, take_violations, LockLevel, OrderedMutex,
    OrderedRwLock, Violation,
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
fn descriptor_then_shard_is_a_lock_order_violation() {
    let _serial = quiet();
    let descriptors = OrderedRwLock::new(LockLevel::DescriptorTable(0), ());
    let shard = OrderedMutex::new(LockLevel::RegistryShard(3), ());
    {
        let _d = descriptors.write();
        let _s = shard.lock(); // descriptor table held: illegal
    }
    let violations = drain_and_restore();
    let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert!(
        rendered
            .iter()
            .any(|m| m.contains("DescriptorTable(0)") && m.contains("RegistryShard(3)")),
        "expected a DescriptorTable(0) -> RegistryShard(3) order violation, got {rendered:?}"
    );
}

#[test]
fn shard_indices_must_ascend() {
    let _serial = quiet();
    let hi = OrderedMutex::new(LockLevel::RegistryShard(5), ());
    let lo = OrderedMutex::new(LockLevel::RegistryShard(3), ());
    {
        let _hi = hi.lock();
        let _lo = lo.lock(); // 5 then 3: shard order must ascend
    }
    let violations = drain_and_restore();
    let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert!(
        rendered
            .iter()
            .any(|m| m.contains("RegistryShard(5)") && m.contains("RegistryShard(3)")),
        "expected a RegistryShard(5) -> RegistryShard(3) order violation, got {rendered:?}"
    );
}

#[test]
fn ascending_acquisition_is_clean() {
    let _serial = quiet();
    let topo = OrderedMutex::new(LockLevel::Topology, ());
    let s0 = OrderedMutex::new(LockLevel::RegistryShard(0), ());
    let s7 = OrderedMutex::new(LockLevel::RegistryShard(7), ());
    let desc = OrderedRwLock::new(LockLevel::DescriptorTable(1), ());
    {
        let _t = topo.lock();
        let _a = s0.lock();
        let _b = s7.lock();
        let _d = desc.read();
    }
    // Release order frees the stack; a fresh single acquisition stays legal.
    drop(s7.lock());
    let violations = drain_and_restore();
    assert!(
        violations.is_empty(),
        "strictly ascending acquisition must not trip the checker: {violations:?}"
    );
}

#[test]
fn lock_held_across_engine_block_is_reported() {
    let _serial = quiet();
    let topo = OrderedMutex::new(LockLevel::Topology, ());
    {
        let _t = topo.lock();
        engine_block_checkpoint("unit-test-block");
    }
    let violations = drain_and_restore();
    let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert!(
        rendered
            .iter()
            .any(|m| m.contains("Topology") && m.contains("unit-test-block")),
        "expected a held-across-block violation naming Topology, got {rendered:?}"
    );
}

#[test]
fn no_lock_held_at_checkpoint_is_clean() {
    let _serial = quiet();
    let topo = OrderedMutex::new(LockLevel::Topology, ());
    drop(topo.lock());
    engine_block_checkpoint("unit-test-block");
    let violations = drain_and_restore();
    assert!(violations.is_empty(), "unexpected: {violations:?}");
}
