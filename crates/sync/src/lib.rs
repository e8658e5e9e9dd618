//! Amber synchronization objects (paper, section 2.2).
//!
//! "The system supports relinquishing and non-relinquishing locks, barrier
//! synchronization, monitors and condition variables." All of them are
//! ordinary Amber objects here: mobile (`move_to`/`attach` their underlying
//! object) and remotely invocable, so a single lock can "enforce concurrency
//! constraints involving multiple objects on different nodes".
//!
//! Blocking is implemented with the runtime's park/unpark plus short
//! non-blocking invocations on the synchronization object's state —
//! operations never park *inside* an exclusive invocation, which is the safe
//! pattern for building further custom schemes (the paper's open class
//! hierarchy).

#![warn(missing_docs)]

mod barrier;
mod lock;
mod monitor;
mod spin;

pub use barrier::{Barrier, BarrierState};
pub use lock::{Lock, LockState};
pub use monitor::{CondState, CondVar, Monitor};
pub use spin::{SpinLock, SpinState};
