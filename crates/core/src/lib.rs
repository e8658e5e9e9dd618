//! The Amber runtime: a network-wide object space over a cluster of
//! multiprocessor nodes.
//!
//! This crate reproduces the primary contribution of *The Amber System:
//! Parallel Programming on a Network of Multiprocessors* (SOSP 1989):
//! a runtime in which
//!
//! * passive **objects** live in one uniform virtual address space spanning
//!   every node, referenced by [`ObjRef`]s that mean the same thing
//!   everywhere;
//! * active **threads** ([`Ctx::start`]/[`JoinHandle::join`]) invoke object
//!   operations location-independently — invoking a remote object migrates
//!   the *thread* to the object (function shipping), with per-node
//!   descriptor tables, forwarding chains and home-node routing resolving
//!   where that is;
//! * programs control placement explicitly with [`Ctx::move_to`],
//!   [`Ctx::locate`], [`Ctx::attach`]/[`Ctx::unattach`] and runtime
//!   immutability ([`Ctx::set_immutable`]) with replication.
//!
//! The runtime is written against the `amber-engine` substrate, so the same
//! program runs deterministically under a virtual clock (for experiments)
//! or on real OS threads.
//!
//! # Quick start
//!
//! ```
//! use amber_core::Cluster;
//! use amber_engine::NodeId;
//!
//! let cluster = Cluster::sim(2, 4); // 2 nodes x 4 processors
//! let result = cluster
//!     .run(|ctx| {
//!         // An object on the remote node.
//!         let counter = ctx.create_on(NodeId(1), 0u64);
//!         // Invoking it ships this thread over and back.
//!         ctx.invoke(&counter, |_, c| {
//!             *c += 1;
//!             *c
//!         })
//!     })
//!     .unwrap();
//! assert_eq!(result, 1);
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

mod adaptive;
mod cluster;
mod errors;
mod invoke;
mod kernel;
mod mobility;
mod objref;
mod thread;

pub use adaptive::{PlacementDecision, PlacementPolicy, PlacementSample};
pub use cluster::{Cluster, ClusterBuilder, Ctx, EngineChoice};
pub use errors::ProtocolError;
pub use objref::{AmberObject, ObjRef};
pub use thread::{JoinHandle, ThreadObj};

// Commonly useful re-exports so applications depend on one crate.
pub use amber_engine::{
    trace, CostModel, EngineError, FaultPlan, LatencyModel, MemorySink, NodeId, Partition,
    ProtocolEvent, ProtocolSnapshot, SimTime, ThreadId, TraceRecord, TraceSink,
};
pub use amber_vspace::VAddr;

#[cfg(test)]
mod tests;
