//! Identifiers for nodes and threads.

use std::fmt;

/// Identifies one node (one simulated multiprocessor workstation) in the
/// cluster.
///
/// The paper's testbed was a group of eight DEC Fireflies; node ids here are
/// dense indices `0..cluster.nodes()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The node on which a program's main thread starts, and which hosts the
    /// address-space server.
    pub const BOOT: NodeId = NodeId(0);

    /// The dense index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        #[expect(clippy::disallowed_macros, reason = "node counts fit u16 by far")]
        {
            debug_assert!(v <= u16::MAX as usize, "node index out of range");
        }
        NodeId(v as u16)
    }
}

/// Identifies an Amber thread.
///
/// Thread ids are unique for the lifetime of an engine and are never reused.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ThreadId(pub u64);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(NodeId::from(7usize).index(), 7);
        assert_eq!(NodeId::BOOT, NodeId(0));
    }

    #[test]
    fn thread_id_display() {
        assert_eq!(ThreadId(42).to_string(), "thread42");
    }
}
