//! Protocol-level statistics.
//!
//! Where `amber_engine::NetStats` counts raw messages and bytes, these
//! counters record *why* the runtime communicated: invocations (local vs
//! remote), thread migrations, object moves, forwarding hops, replications,
//! home-node routings and region extensions. Experiment harnesses report
//! them so every result can be explained in protocol terms.
//!
//! There is no list of counters here. The event table in
//! [`amber_engine::trace`] declares each protocol fact once;
//! `Kernel::emit` is the only writer, adding one to the event's slot
//! in [`EventCounters`] and handing the same event to the trace sink, and
//! both readers — `protocol_stats()` on the live counters and
//! [`TraceSummary::from_events`] on a captured stream — turn per-kind counts
//! into a [`ProtocolSnapshot`] with the one generated mapping. A trace
//! captured over a whole run therefore agrees with `protocol_stats()` by
//! construction; what can still go wrong is a sink losing events.

use std::sync::atomic::{AtomicU64, Ordering};

pub use amber_engine::ProtocolSnapshot;
use amber_engine::{EventKind, ProtocolEvent, TraceRecord};

/// One node's counters, one slot per [`EventKind`], aligned so that no two
/// nodes' rows share a cache line: workers on different nodes never write
/// the same line when they count.
#[repr(align(128))]
struct CounterRow([AtomicU64; EventKind::COUNT]);

/// The live protocol counters: a row per node, indexed by
/// [`ProtocolEvent::node`].
pub(crate) struct EventCounters {
    rows: Box<[CounterRow]>,
}

impl EventCounters {
    pub(crate) fn new(nodes: usize) -> EventCounters {
        EventCounters {
            rows: (0..nodes)
                .map(|_| CounterRow(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
        }
    }

    /// Counts one event. An event about a node outside the cluster (a
    /// declined advisory's proposed target) lands in row 0.
    #[inline]
    pub(crate) fn bump(&self, event: &ProtocolEvent) {
        let row = self
            .rows
            .get(event.node().index())
            .unwrap_or_else(|| &self.rows[0]);
        row.0[event.kind() as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Sums the rows.
    pub(crate) fn snapshot(&self) -> ProtocolSnapshot {
        let mut counts = [0u64; EventKind::COUNT];
        for row in self.rows.iter() {
            for (total, slot) in counts.iter_mut().zip(&row.0) {
                *total += slot.load(Ordering::Relaxed);
            }
        }
        ProtocolSnapshot::from_counts(&counts)
    }
}

/// Aggregate view of a captured protocol event stream: the
/// [`ProtocolSnapshot`] it folds to, plus the engine-level message events
/// that `amber_engine::NetStats` counts independently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// The counters as recomputed from the event stream.
    pub snapshot: ProtocolSnapshot,
    /// Engine-level network messages observed.
    pub messages: u64,
    /// Total payload bytes of those messages.
    pub message_bytes: u64,
    /// Total payload bytes moved by explicit object moves.
    pub moved_bytes: u64,
    /// Fault-injected attempt drops observed.
    pub dropped: u64,
    /// Retransmissions observed.
    pub retransmits: u64,
    /// Duplicate copies suppressed by receiver dedup windows.
    pub duplicates_suppressed: u64,
    /// Attempts lost to scripted partitions.
    pub partition_drops: u64,
}

impl TraceSummary {
    /// Recomputes protocol counters from a captured event stream.
    pub fn from_events(events: &[TraceRecord]) -> TraceSummary {
        let mut counts = [0u64; EventKind::COUNT];
        let (mut message_bytes, mut moved_bytes) = (0, 0);
        for rec in events {
            counts[rec.event.kind() as usize] += 1;
            match rec.event {
                ProtocolEvent::MessageSend { bytes, .. } => message_bytes += bytes as u64,
                ProtocolEvent::ObjectMove { bytes, .. } => moved_bytes += bytes as u64,
                _ => {}
            }
        }
        let of = |kind: EventKind| counts[kind as usize];
        TraceSummary {
            snapshot: ProtocolSnapshot::from_counts(&counts),
            messages: of(EventKind::MessageSend),
            message_bytes,
            moved_bytes,
            dropped: of(EventKind::MessageDropped),
            retransmits: of(EventKind::MessageRetransmit),
            duplicates_suppressed: of(EventKind::MessageDuplicateSuppressed),
            partition_drops: of(EventKind::LinkPartitioned),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_engine::{NodeId, SimTime};

    fn rec(event: ProtocolEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime::ZERO,
            thread: None,
            event,
        }
    }

    #[test]
    fn counters_and_fold_agree_and_rows_sum() {
        let c = EventCounters::new(2);
        let events = [
            ProtocolEvent::LocalInvoke {
                obj: 64,
                node: NodeId(0),
            },
            ProtocolEvent::LocalInvoke {
                obj: 64,
                node: NodeId(1),
            },
            ProtocolEvent::ObjectMove {
                obj: 64,
                from: NodeId(0),
                to: NodeId(1),
                group: 1,
                bytes: 48,
            },
            // Proposed target outside the cluster: counted all the same.
            ProtocolEvent::AdvisorySkipped {
                obj: 64,
                at: NodeId(9),
                reason: "no-such-node",
            },
        ];
        for e in &events {
            c.bump(e);
        }
        let snap = c.snapshot();
        assert_eq!(snap.local_invokes, 2);
        assert_eq!(snap.object_moves, 1);
        assert_eq!(snap.advisory_skips, 1);
        assert_eq!(snap.total_invokes(), 2);
        assert_eq!(snap.remote_invokes, 0);
        let mut stream: Vec<_> = events.into_iter().map(rec).collect();
        stream.push(rec(ProtocolEvent::MessageSend {
            from: NodeId(0),
            to: NodeId(1),
            bytes: 100,
        }));
        let summary = TraceSummary::from_events(&stream);
        assert_eq!(summary.snapshot, snap);
        assert_eq!(
            (summary.messages, summary.message_bytes, summary.moved_bytes),
            (1, 100, 48)
        );
    }
}
