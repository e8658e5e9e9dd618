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

pub mod adaptive;
