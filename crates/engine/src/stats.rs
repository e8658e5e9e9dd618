//! Cluster-wide protocol, network and scheduling counters.
//!
//! The paper argues that "the performance of a distributed system is best
//! evaluated ... by the degree to which the system prevents unnecessary
//! network communication" (section 5). These counters make that degree
//! observable: every experiment harness reports messages and bytes alongside
//! elapsed time.
//!
//! There is no list of counters here. The event table in [`crate::trace`]
//! declares each fact once — the runtime's (invocations, moves, hops, ...)
//! and the engine's own (messages, drops, retransmissions, duplicates) alike
//! — and [`Tracer::emit`](crate::Tracer::emit) is the only writer: it adds
//! one to the event's slot in its node's row and hands the same event to the
//! trace sink. The `total_*` readers, [`NetStats::snapshot`] and a captured
//! stream folded with [`ProtocolSnapshot::from_events`] therefore agree by
//! construction; what can still go wrong is a sink losing events. Beside
//! the event slots a row keeps the three facts that are not events: payload
//! bytes, dispatches and preemptions.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::trace::{EventKind, ProtocolEvent, ProtocolSnapshot};

/// One node's counters, aligned so that no two nodes' rows share a cache
/// line: workers on different nodes never write the same line when they
/// count.
#[repr(align(128))]
struct NodeRow {
    /// One slot per [`EventKind`].
    events: [AtomicU64; EventKind::COUNT],
    bytes_out: AtomicU64,
    dispatches: AtomicU64,
    preemptions: AtomicU64,
}

/// A plain-data snapshot of one node's row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// The events whose principal node ([`ProtocolEvent::node`]) this is:
    /// `events.messages` counts the messages it sent.
    pub events: ProtocolSnapshot,
    /// Payload bytes sent from this node.
    pub bytes_out: u64,
    /// Threads that started a CPU burst on this node (scheduling activity).
    pub dispatches: u64,
    /// Timeslice preemptions on this node.
    pub preemptions: u64,
}

/// Shared, lock-free statistics for a whole cluster.
///
/// Engines update these as messages flow and threads are dispatched;
/// harnesses read consistent-enough snapshots after a run completes (all
/// threads quiesced), so relaxed ordering is sufficient.
pub struct NetStats {
    rows: Box<[NodeRow]>,
}

fn fold(rows: &[NodeRow]) -> ProtocolSnapshot {
    let mut counts = [0u64; EventKind::COUNT];
    for row in rows {
        for (total, slot) in counts.iter_mut().zip(&row.events) {
            *total += slot.load(Ordering::Relaxed);
        }
    }
    ProtocolSnapshot::from_counts(&counts)
}

impl NetStats {
    /// Creates counters for a cluster of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        NetStats {
            rows: (0..nodes)
                .map(|_| NodeRow {
                    events: std::array::from_fn(|_| AtomicU64::new(0)),
                    bytes_out: AtomicU64::new(0),
                    dispatches: AtomicU64::new(0),
                    preemptions: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Counts one event in its principal node's row; a message's payload is
    /// added to the row's bytes. An event about a node outside the cluster
    /// (a declined advisory's proposed target) lands in row 0.
    #[inline]
    pub(crate) fn count(&self, event: &ProtocolEvent) {
        let row = self
            .rows
            .get(event.node().index())
            .unwrap_or_else(|| &self.rows[0]);
        row.events[event.kind() as usize].fetch_add(1, Ordering::Relaxed);
        if let ProtocolEvent::MessageSend { bytes, .. } = *event {
            row.bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Records one thread dispatch on `node`.
    pub fn record_dispatch(&self, node: usize) {
        self.rows[node].dispatches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one timeslice preemption on `node`.
    pub fn record_preemption(&self, node: usize) {
        self.rows[node].preemptions.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// Snapshot of one node's row.
    pub fn node(&self, node: usize) -> NodeSnapshot {
        let row = &self.rows[node];
        NodeSnapshot {
            events: fold(std::slice::from_ref(row)),
            bytes_out: row.bytes_out.load(Ordering::Relaxed),
            dispatches: row.dispatches.load(Ordering::Relaxed),
            preemptions: row.preemptions.load(Ordering::Relaxed),
        }
    }

    /// Every counted event kind, summed over the rows: what
    /// `protocol_stats()` reports.
    pub fn snapshot(&self) -> ProtocolSnapshot {
        fold(&self.rows)
    }

    fn sum(&self, slot: impl Fn(&NodeRow) -> &AtomicU64) -> u64 {
        self.rows
            .iter()
            .map(|r| slot(r).load(Ordering::Relaxed))
            .sum()
    }

    /// Total messages sent cluster-wide.
    pub fn total_msgs(&self) -> u64 {
        self.snapshot().messages
    }

    /// Total payload bytes sent cluster-wide.
    pub fn total_bytes(&self) -> u64 {
        self.sum(|r| &r.bytes_out)
    }

    /// Total thread dispatches cluster-wide.
    pub fn total_dispatches(&self) -> u64 {
        self.sum(|r| &r.dispatches)
    }

    /// Total fault-injected drops cluster-wide.
    pub fn total_drops(&self) -> u64 {
        self.snapshot().drops
    }

    /// Total retransmissions cluster-wide.
    pub fn total_retransmits(&self) -> u64 {
        self.snapshot().retransmits
    }

    /// Total duplicate copies suppressed cluster-wide.
    pub fn total_dups_suppressed(&self) -> u64 {
        self.snapshot().dups_suppressed
    }

    /// Total attempts lost to scripted partitions cluster-wide.
    pub fn total_partition_drops(&self) -> u64 {
        self.snapshot().partition_drops
    }

    /// Always 0: a shim for the `engine.msgs_coalesced` column of
    /// `benchmark/src/workloads/mod.rs`, which names this function and which
    /// the change that removed message coalescing could not touch. The next
    /// `benchmark` change drops the column and this function together.
    pub fn total_coalesced(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::time::SimTime;
    use crate::trace::TraceRecord;

    #[test]
    fn rows_totals_and_fold_agree() {
        let s = NetStats::new(3);
        let send = |from, to, bytes| {
            let (from, to) = (NodeId(from), NodeId(to));
            ProtocolEvent::MessageSend { from, to, bytes }
        };
        let (obj, node) = (64, NodeId(1));
        let events = [
            send(0, 2, 100),
            send(0, 1, 50),
            send(2, 0, 7),
            ProtocolEvent::LocalInvoke { obj, node },
            // Proposed target outside the cluster: counted all the same.
            ProtocolEvent::AdvisorySkipped {
                obj,
                at: NodeId(9),
                reason: "no-such-node",
            },
        ];
        events.iter().for_each(|e| s.count(e));
        assert_eq!(s.node(0).events.messages, 2);
        assert_eq!(s.node(0).bytes_out, 150);
        assert_eq!(s.node(0).events.advisory_skips, 1);
        assert_eq!(s.node(2).events.messages, 1);
        assert_eq!(s.node(1).events.local_invokes, 1);
        assert_eq!((s.total_msgs(), s.total_bytes()), (3, 157));
        let stream = events.map(|event| TraceRecord {
            at: SimTime::ZERO,
            thread: None,
            event,
        });
        assert_eq!(ProtocolSnapshot::from_events(&stream), s.snapshot());
        assert_eq!(s.snapshot().total_invokes(), 1);
    }

    #[test]
    fn dispatch_and_preemption_counters() {
        let s = NetStats::new(1);
        s.record_dispatch(0);
        s.record_dispatch(0);
        s.record_preemption(0);
        assert_eq!(s.node(0).dispatches, 2);
        assert_eq!(s.node(0).preemptions, 1);
        assert_eq!(s.total_dispatches(), 2);
    }
}
