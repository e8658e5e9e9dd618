//! The global virtual address space of the Amber reproduction.
//!
//! Amber's key implementation idea (paper, section 3.1) is a network-wide
//! virtual address space arranged identically on every node, so addresses —
//! object references, stack back-links, code pointers — keep their meaning
//! when they cross the wire. This crate models that space:
//!
//! * [`VAddr`]/[`RegionId`] — 64-bit global addresses carved into 1 MB
//!   regions ([`REGION_BYTES`]);
//! * [`AddressSpaceServer`] — the startup/extension authority that hands
//!   regions to nodes, making every object's *home node* computable from
//!   its address; [`RegionMap`] is each node's lazily-filled cache of that
//!   assignment;
//! * [`NodeHeap`] — per-node allocation with the paper's "blocks are never
//!   divided once freed" rule;
//! * [`DescriptorTable`] — per-node residency state: resident, forwarding
//!   address, immutable replica, or absent (the paper's zero-filled
//!   "uninitialized descriptor" meaning *ask the home node*).
//!
//! Everything here is engine-agnostic plain data; `amber-core` supplies the
//! protocol (who asks whom, and what each step costs).

#![warn(missing_docs)]

mod addr;
mod descriptor;
mod heap;
mod server;

pub use addr::{AddrHasher, AddrMap, RegionId, VAddr, HEAP_BASE, REGION_BYTES};
pub use descriptor::{DescriptorTable, Residency};
pub use heap::{HeapError, NodeHeap, ALIGN};
pub use server::{AddressSpaceServer, RegionMap};
