//! Adaptive object placement.
//!
//! The paper leaves placement policy out of the kernel on purpose: "Our
//! assumption is that the best policy for managing location is
//! application-specific and is best left to the program or higher-level
//! object placement software" (section 2.3). Programs here place their own
//! objects with `create_on`/`move_to`/`attach`; this crate holds the one
//! piece of placement software a workload runs, the [`adaptive`] traffic
//! advisor.

#![warn(missing_docs)]

pub mod adaptive;
