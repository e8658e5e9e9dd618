//! Applications for the Amber reproduction.
//!
//! * [`sor`] — the paper's section-6 application: Red/Black Successive
//!   Over-Relaxation over distributed section objects, with communication
//!   overlap, plus the sequential baseline (Figures 2 and 3).
//! * [`sor_dsm`] — the same SOR through the page-DSM baseline: the
//!   comparison the paper's section 6 says it could not run.

#![warn(missing_docs)]

pub mod sor;
pub mod sor_dsm;
