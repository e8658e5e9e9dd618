//! Facade crate for the Amber reproduction workspace.
//!
//! Re-exports every subsystem under one roof so examples and downstream
//! users can depend on a single crate:
//!
//! * [`core`] / [`engine`] / [`vspace`] — the runtime and its substrates;
//! * [`sync`] — synchronization objects;
//! * [`dsm`] — the Ivy-style page-DSM baseline;
//! * [`placement`] — higher-level object placement;
//! * [`apps`] — the paper's applications.
//!
//! See `README.md` for a tour and `DESIGN.md`/`EXPERIMENTS.md` for the
//! reproduction methodology and results.

pub use amber_apps as apps;
pub use amber_core as core;
pub use amber_dsm as dsm;
pub use amber_engine as engine;
pub use amber_placement as placement;
pub use amber_sync as sync;
pub use amber_vspace as vspace;

/// The most common imports for writing an Amber program.
pub mod prelude {
    pub use amber_core::{AmberObject, Cluster, Ctx, EngineChoice, NodeId, ObjRef, SimTime};
    pub use amber_sync::{Barrier, CondVar, Lock, Monitor, SpinLock};
}
