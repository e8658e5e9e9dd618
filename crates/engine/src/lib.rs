//! Execution substrate for the Amber reproduction.
//!
//! The paper's testbed — a network of DEC Firefly multiprocessors running
//! Topaz — is replaced by this crate: a *cluster* of N simulated nodes with
//! P processors each, inside one process. Two interchangeable engines
//! implement the same [`Engine`] interface:
//!
//! * [`SimEngine`] — a deterministic discrete-event engine under a virtual
//!   clock. All of the paper's performance experiments (Table 1, Figures 2
//!   and 3, and the section-4 ablations) run here: computation charges
//!   virtual CPU time from a Firefly-calibrated [`CostModel`], and every
//!   message pays the [`LatencyModel`].
//! * [`RealEngine`] — real OS threads gated by per-node processor tokens,
//!   with real (sleep-based) network delays. Demonstrates the runtime is a
//!   genuinely concurrent system and backs the concurrency stress tests.
//!
//! The Amber runtime (`amber-core`) is written against [`Engine`] only, so
//! every protocol runs unchanged on both.
//!
//! # Examples
//!
//! ```
//! use amber_engine::{Engine, EngineExt, LatencyModel, NodeId, SimEngine, SimTime};
//!
//! // A 2-node x 2-processor virtual cluster.
//! let engine = SimEngine::cluster(2, 2, LatencyModel::ethernet_10mbit());
//! let e = std::sync::Arc::clone(&engine);
//! let elapsed = engine
//!     .run(NodeId(0), move || {
//!         e.work(SimTime::from_ms(5)); // charge 5 ms of virtual CPU
//!         e.now()
//!     })
//!     .unwrap();
//! assert_eq!(elapsed, SimTime::from_ms(5));
//! ```

#![warn(missing_docs)]
// Every panic edge outside tests is a deliberate one, with an `#[expect]`
// saying why it cannot fire (`clippy.toml` disallows `std::assert`).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_macros
)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_macros
    )
)]

mod cost;
mod engine;
mod fault;
mod fiber;
mod ids;
mod lifecycle;
mod real;
mod sim;
mod time;

pub mod cases;
pub mod policy;
pub mod stats;
pub mod trace;

pub use cost::{CostModel, LatencyModel};
pub use engine::{
    current_thread, must_current_thread, with_invocations, ClusterSpec, Engine, EngineError,
    EngineExt, Invocations, ThreadBody,
};
pub use fault::{FaultPlan, Partition};
pub use ids::{NodeId, ThreadId};
pub use real::RealEngine;
pub use sim::SimEngine;
pub use stats::NetStats;
pub use time::SimTime;
pub use trace::{EventKind, MemorySink, ProtocolEvent, ProtocolSnapshot, TraceRecord, Tracer};
