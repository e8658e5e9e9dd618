//! Per-node object descriptors.
//!
//! "each object has an *object descriptor* on every node that indicates
//! whether or not the described object is locally resident. ... If a mutable
//! object is moved, its descriptor is changed to indicate that it is not
//! resident, and a forwarding address is inserted" (paper, section 3.2).
//!
//! A node's descriptor table is sparse: an address with *no* entry is the
//! reproduction of the paper's zero-filled, uninitialized descriptor — it
//! means "not resident here, no hint; ask the object's home node"
//! (section 3.3). That trick is what lets object creation cost nothing on
//! the other N-1 nodes.

use amber_engine::NodeId;

use crate::addr::{AddrMap, VAddr};

/// What one node's descriptor says about an object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Residency {
    /// The object lives here; invocations proceed locally.
    Resident,
    /// The object left; its last known location is the forwarding address.
    Forward(NodeId),
    /// A local copy of an *immutable* object is installed; invocations read
    /// the replica locally.
    Replica,
}

/// A node's view of the objects it has heard about.
///
/// There is one `DescriptorTable` per node. Entries appear when an object is
/// created locally, moves through, or (for immutables) is replicated here.
#[derive(Debug, Default)]
pub struct DescriptorTable {
    entries: AddrMap<Residency>,
}

impl DescriptorTable {
    /// Creates an empty table (every descriptor "uninitialized").
    pub fn new() -> Self {
        DescriptorTable::default()
    }

    /// This node's descriptor for `addr`; `None` is the uninitialized state
    /// (route to the home node).
    pub fn lookup(&self, addr: VAddr) -> Option<Residency> {
        self.entries.get(&addr).copied()
    }

    /// `true` if the object is resident (or replicated) here.
    pub fn is_local(&self, addr: VAddr) -> bool {
        matches!(
            self.lookup(addr),
            Some(Residency::Resident) | Some(Residency::Replica)
        )
    }

    /// Marks the object resident here (creation or arrival of a move).
    pub fn set_resident(&mut self, addr: VAddr) {
        self.entries.insert(addr, Residency::Resident);
    }

    /// Marks the object gone, leaving a forwarding address (departure of a
    /// move). "the object leaves a new forwarding address on each node that
    /// it visits" (section 3.3).
    pub fn set_forward(&mut self, addr: VAddr, to: NodeId) {
        self.entries.insert(addr, Residency::Forward(to));
    }

    /// Installs a replica of an immutable object.
    pub fn set_replica(&mut self, addr: VAddr) {
        self.entries.insert(addr, Residency::Replica);
    }

    /// Caches a fresher location hint. "the object's last known location is
    /// cached on all nodes along the chain so that the object can be located
    /// quickly on subsequent references" (section 3.3).
    ///
    /// Never downgrades a `Resident`/`Replica` entry, and leaves an entry
    /// already forwarding to `to` alone. Returns whether the descriptor
    /// actually changed, so callers that count repairs can count exactly.
    pub fn cache_hint(&mut self, addr: VAddr, to: NodeId) -> bool {
        match self.entries.get(&addr) {
            Some(Residency::Resident) | Some(Residency::Replica) => false,
            Some(Residency::Forward(cur)) if *cur == to => false,
            _ => {
                self.entries.insert(addr, Residency::Forward(to));
                true
            }
        }
    }

    /// Removes the entry entirely (object destroyed and block reused).
    pub fn clear(&mut self, addr: VAddr) {
        self.entries.remove(&addr);
    }

    /// Number of initialized descriptors on this node.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no descriptor has been initialized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Addresses of all objects resident on this node (for diagnostics).
    pub fn residents(&self) -> Vec<VAddr> {
        let mut v: Vec<VAddr> = self
            .entries
            .iter()
            .filter(|(_, r)| matches!(r, Residency::Resident))
            .map(|(a, _)| *a)
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninitialized_means_unknown() {
        let t = DescriptorTable::new();
        assert_eq!(t.lookup(VAddr(64)), None);
        assert!(!t.is_local(VAddr(64)));
        assert!(t.is_empty());
    }

    #[test]
    fn create_move_leave_forwarding() {
        let mut t = DescriptorTable::new();
        let a = VAddr(1024);
        t.set_resident(a);
        assert!(t.is_local(a));
        t.set_forward(a, NodeId(3));
        assert!(!t.is_local(a));
        assert_eq!(t.lookup(a), Some(Residency::Forward(NodeId(3))));
    }

    #[test]
    fn hint_does_not_clobber_residency() {
        let mut t = DescriptorTable::new();
        let a = VAddr(2048);
        t.set_resident(a);
        t.cache_hint(a, NodeId(5));
        assert_eq!(t.lookup(a), Some(Residency::Resident));
        t.set_forward(a, NodeId(1));
        t.cache_hint(a, NodeId(2));
        assert_eq!(t.lookup(a), Some(Residency::Forward(NodeId(2))));
    }

    #[test]
    fn replica_counts_as_local() {
        let mut t = DescriptorTable::new();
        let a = VAddr(4096);
        t.set_replica(a);
        assert!(t.is_local(a));
        t.cache_hint(a, NodeId(9));
        assert_eq!(t.lookup(a), Some(Residency::Replica));
    }

    #[test]
    fn residents_lists_only_resident() {
        let mut t = DescriptorTable::new();
        t.set_resident(VAddr(300));
        t.set_resident(VAddr(100));
        t.set_forward(VAddr(200), NodeId(1));
        t.set_replica(VAddr(400));
        assert_eq!(t.residents(), vec![VAddr(100), VAddr(300)]);
    }

    #[test]
    fn cache_hint_reports_actual_rewrites() {
        let mut t = DescriptorTable::new();
        let a = VAddr(512);
        // Uninitialized -> installs a hint.
        assert!(t.cache_hint(a, NodeId(2)));
        assert_eq!(t.lookup(a), Some(Residency::Forward(NodeId(2))));
        // Same target -> no-op.
        assert!(!t.cache_hint(a, NodeId(2)));
        // Fresher target -> rewrite.
        assert!(t.cache_hint(a, NodeId(4)));
        assert_eq!(t.lookup(a), Some(Residency::Forward(NodeId(4))));
        // Never downgrades residency.
        t.set_resident(a);
        assert!(!t.cache_hint(a, NodeId(1)));
        assert_eq!(t.lookup(a), Some(Residency::Resident));
        t.set_replica(a);
        assert!(!t.cache_hint(a, NodeId(1)));
        assert_eq!(t.lookup(a), Some(Residency::Replica));
    }

    #[test]
    fn clear_returns_to_uninitialized() {
        let mut t = DescriptorTable::new();
        let a = VAddr(8192);
        t.set_resident(a);
        t.clear(a);
        assert_eq!(t.lookup(a), None);
    }
}
