//! Protocol event tracing, and the one table that declares the protocol's
//! facts.
//!
//! The runtime layered above the engine raises one [`ProtocolEvent`] per
//! protocol action (invocations, thread migrations, object moves, forwarding
//! hops, replications, ...), and the engine raises its own for every message
//! and for what a fault plan does to it. Every kind is declared once, as a
//! row of the `protocol_events!` table below: variant and fields, stable
//! name, principal node, and the [`ProtocolSnapshot`] counter it feeds.
//! Everything else that has to know the kinds — [`EventKind`],
//! `kind()`/`name()`/`node()`, the Chrome-trace `args` writer,
//! [`ProtocolSnapshot`] and the mapping from per-kind counts to it — is
//! generated from the rows. Adding an event is one row plus one `emit` call
//! where it happens.
//!
//! [`Tracer::emit`] is where a fact is born, whoever raises it
//! (`amber-core` through `Kernel::emit`, the engines' `send`, the fault
//! layer): it counts the event in its node's row of the engine's
//! [`NetStats`] and, stamped with the engine clock, hands it to an installed
//! [`TraceSink`]. With no sink installed that is a load and a store into
//! the calling thread's own counter shard and one relaxed load, with no
//! atomic read-modify-write, so tracing costs nothing when it is off. In
//! checked builds [`Tracer::lint`] has the tracer judge each event against
//! the per-object lifecycle on its way to the sink.
//!
//! [`MemorySink`] collects events in memory for tests and post-run analysis;
//! [`chrome_trace_json`] renders a captured stream as Chrome-trace / Perfetto
//! JSON (load it at `ui.perfetto.dev` or `chrome://tracing`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::engine::current_thread;
use crate::ids::{NodeId, ThreadId};
use crate::lifecycle::Linter;
use crate::stats::NetStats;
use crate::time::SimTime;

/// How one field of an event renders inside a Chrome-trace `args` object.
trait TraceArg {
    fn write_arg(&self, out: &mut String);
}

macro_rules! trace_arg {
    ($($ty:ty => |$v:ident| $render:expr),+ $(,)?) => {$(
        impl TraceArg for $ty {
            fn write_arg(&self, out: &mut String) {
                use std::fmt::Write;
                let $v = self;
                let _ = write!(out, "{}", $render);
            }
        }
    )+};
}

trace_arg! {
    u64 => |v| v,
    u32 => |v| v,
    usize => |v| v,
    NodeId => |v| v.index(),
    ThreadId => |v| v.0,
    &'static str => |v| format_args!("\"{v}\""),
}

fn push_fields(out: &mut String, fields: &[(&str, &dyn TraceArg)]) {
    for (i, (name, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(name);
        out.push_str("\":");
        value.write_arg(out);
    }
}

/// The protocol's vocabulary: one row per event kind, and the only place a
/// kind is spelled out. A row gives the variant with its fields (rendered, in
/// declaration order, as the Chrome-trace `args`), its stable name, the field
/// that names its principal node and the [`ProtocolSnapshot`] counter it
/// feeds. [`EventKind`],
/// [`ProtocolEvent::kind`]/[`name`](ProtocolEvent::name)/
/// [`node`](ProtocolEvent::node), the `args` writer and [`ProtocolSnapshot`]
/// with its [`from_counts`](ProtocolSnapshot::from_counts) are all generated
/// from the rows, so adding an event is one row here plus one `emit` where
/// it happens.
macro_rules! protocol_events {
    ($(
        $(#[$doc:meta])*
        $variant:ident $name:literal @$at:ident, counts $counter:ident {
            $($(#[$fdoc:meta])* $field:ident: $ty:ty),+ $(,)?
        }
    )+) => {
        /// One protocol-level action, as emitted by the runtime.
        ///
        /// Object addresses are carried as raw `u64`s: the engine knows
        /// nothing of the virtual address space layered above it.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum ProtocolEvent {$(
            $(#[$doc])*
            $variant {$($(#[$fdoc])* $field: $ty),+},
        )+}

        /// The kind of a [`ProtocolEvent`]: the variant without its fields.
        /// `kind as usize` is dense in `0..EventKind::COUNT` and indexes
        /// per-kind counter rows.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum EventKind {$(
            $(#[$doc])*
            $variant,
        )+}

        impl EventKind {
            /// Every kind, in index order.
            pub const ALL: &'static [EventKind] = &[$(EventKind::$variant),+];
            /// Number of kinds.
            pub const COUNT: usize = Self::ALL.len();

            /// Short stable name, used as the Chrome-trace event name.
            pub fn name(self) -> &'static str {
                match self {$(EventKind::$variant => $name,)+}
            }
        }

        impl ProtocolEvent {
            /// Which kind of event this is.
            #[inline]
            pub fn kind(&self) -> EventKind {
                match self {$(ProtocolEvent::$variant { .. } => EventKind::$variant,)+}
            }

            /// The node this event is principally about (the Chrome-trace
            /// `pid`, and the counter row it lands in).
            #[inline]
            pub fn node(&self) -> NodeId {
                match *self {$(ProtocolEvent::$variant { $at, .. } => $at,)+}
            }

            /// Appends the fields as the members of a JSON object.
            fn push_args(&self, out: &mut String) {
                match *self {$(
                    ProtocolEvent::$variant { $($field),+ } => {
                        push_fields(out, &[$((stringify!($field), &$field)),+])
                    }
                )+}
            }
        }

        /// How many events of each kind have happened: what
        /// `protocol_stats()` reports, and what a captured trace folds to.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct ProtocolSnapshot {$(
            #[doc = concat!("[`ProtocolEvent::", stringify!($variant), "`] events.")]
            pub $counter: u64,
        )+}

        impl ProtocolSnapshot {
            /// Names a row of per-kind counts (indexed by `EventKind as
            /// usize`).
            pub(crate) fn from_counts(counts: &[u64; EventKind::COUNT]) -> ProtocolSnapshot {
                ProtocolSnapshot {$(
                    $counter: counts[EventKind::$variant as usize],
                )+}
            }
        }
    };
}

protocol_events! {
    /// An invocation satisfied on the caller's node (including replica
    /// reads).
    LocalInvoke "local_invoke" @node, counts local_invokes {
        /// Address of the invoked object.
        obj: u64,
        /// Node the invocation ran on.
        node: NodeId,
    }
    /// An invocation that trapped and migrated the calling thread.
    RemoteInvoke "remote_invoke" @to, counts remote_invokes {
        /// Address of the invoked object.
        obj: u64,
        /// Node the call started on.
        from: NodeId,
        /// Node the invocation ultimately ran on.
        to: NodeId,
    }
    /// One network hop of a migrating thread, including hops along
    /// forwarding chains and return-time migrations back to the enclosing
    /// object.
    ThreadMigration "thread_migration" @to, counts thread_migrations {
        /// Node the thread left.
        from: NodeId,
        /// Node the thread arrived at.
        to: NodeId,
    }
    /// An explicit object move (one event per MoveTo, however large the
    /// attachment group).
    ObjectMove "object_move" @to, counts object_moves {
        /// Address of the moved (root) object.
        obj: u64,
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// Number of objects in the attachment group that travelled.
        group: usize,
        /// Total payload bytes transferred.
        bytes: usize,
    }
    /// A forwarding-address hop followed (by a thread or a locate probe).
    ForwardHop "forward_hop" @at, counts forward_hops {
        /// Address being chased.
        obj: u64,
        /// Node whose descriptor forwarded.
        at: NodeId,
        /// Node the forwarding address pointed to.
        to: NodeId,
    }
    /// A reference routed via the object's home node because the local
    /// descriptor was uninitialized.
    HomeRoute "home_route" @at, counts home_routes {
        /// Address being resolved.
        obj: u64,
        /// Node that had no descriptor.
        at: NodeId,
        /// The home node consulted.
        home: NodeId,
    }
    /// An immutable-object replica installed.
    Replication "replication" @to, counts replications {
        /// Address of the replicated object.
        obj: u64,
        /// Node the copy came from.
        from: NodeId,
        /// Node the replica installed on.
        to: NodeId,
        /// Payload bytes copied.
        bytes: usize,
    }
    /// A heap region fetched from the address-space server after startup.
    RegionExtension "region_extension" @node, counts region_extensions {
        /// Node whose heap was extended.
        node: NodeId,
    }
    /// A region-map miss answered by the address-space server.
    RegionLookup "region_lookup" @node, counts region_lookups {
        /// Node that missed.
        node: NodeId,
    }
    /// An object created.
    ObjectCreate "object_create" @node, counts creates {
        /// Address of the new object.
        obj: u64,
        /// Node it was created on.
        node: NodeId,
    }
    /// An object destroyed.
    ObjectDestroy "object_destroy" @node, counts destroys {
        /// Address of the destroyed object.
        obj: u64,
        /// Node the destroy ran on.
        node: NodeId,
    }
    /// A thread started.
    ThreadStart "thread_start" @node, counts thread_starts {
        /// The new thread.
        thread: ThreadId,
        /// Node it was started on.
        node: NodeId,
    }
    /// A join completed.
    Join "join" @node, counts joins {
        /// The joined thread.
        thread: ThreadId,
        /// Node the joiner resumed on with the result.
        node: NodeId,
    }
    /// One engine-level network message (every protocol message and bulk
    /// transfer shows up here).
    MessageSend "message_send" @from, counts messages {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Payload bytes.
        bytes: usize,
    }
    /// A transmission attempt lost by the fault plan's drop probability.
    MessageDropped "message_dropped" @from, counts drops {
        /// Sending node.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Payload bytes that were lost.
        bytes: usize,
    }
    /// The reliability sublayer retransmitted a message whose every prior
    /// attempt was lost.
    MessageRetransmit "message_retransmit" @from, counts retransmits {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// The attempt number of this (re)transmission (1 = first retry).
        attempt: u32,
    }
    /// The wire duplicated a surviving transmission attempt: both copies
    /// arrive, and the receiver suppresses one.
    MessageDuplicated "message_duplicated" @from, counts dups_injected {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
    }
    /// A copy arrived for a message its link's window had already
    /// settled: a wire duplicate, suppressed.
    MessageDuplicateSuppressed "message_duplicate_suppressed" @to, counts dups_suppressed {
        /// Sending node.
        from: NodeId,
        /// Receiving node that suppressed the copy.
        to: NodeId,
    }
    /// A transmission attempt lost to a scripted partition.
    LinkPartitioned "link_partitioned" @from, counts partition_drops {
        /// Sending node.
        from: NodeId,
        /// Unreachable receiver.
        to: NodeId,
    }
    /// The adaptive placement advisor moved an object group toward its
    /// dominant caller node (the underlying transfer also emits an
    /// `ObjectMove`).
    AdvisoryMove "advisory_move" @to, counts advisory_moves {
        /// Address of the moved (root) object.
        obj: u64,
        /// Node the group left.
        from: NodeId,
        /// Dominant caller node the group moved to.
        to: NodeId,
    }
    /// The adaptive placement advisor installed a replica of an immutable
    /// object on a heavy reader node (the underlying transfer also emits a
    /// `Replication`).
    AdvisoryReplicate "advisory_replicate" @to, counts advisory_replications {
        /// Address of the replicated object.
        obj: u64,
        /// Node the copy came from.
        from: NodeId,
        /// Reader node the replica installed on.
        to: NodeId,
    }
    /// The kernel declined a placement advisory at execution time (object
    /// pinned, mid-move, mid-install, destroyed, attached, mutable where a
    /// replica was proposed, immutable where a move was, or already there).
    AdvisorySkipped "advisory_skipped" @at, counts advisory_skips {
        /// Address the advisor proposed to move.
        obj: u64,
        /// Destination the advisor proposed.
        at: NodeId,
        /// Why the kernel declined.
        reason: &'static str,
    }
    /// A forwarding chase exceeded its hop bound and gave up with an error
    /// instead of converging (mirrors the transport's retransmit give-up).
    ChaseDiverged "chase_diverged" @at, counts chase_divergences {
        /// Address being chased.
        obj: u64,
        /// Node the chase gave up on.
        at: NodeId,
        /// Hops followed before giving up.
        hops: u32,
    }
    /// A stale descriptor rewritten to a one-hop forward after a chase
    /// resolved (LOCUS-style path compression along the reply path).
    HintRepair "hint_repair" @at, counts hint_repairs {
        /// Address whose descriptor was repaired.
        obj: u64,
        /// Node whose descriptor was rewritten.
        at: NodeId,
        /// Resolved location the descriptor now forwards to.
        to: NodeId,
    }
    /// One member of a moved object group finished installing at the
    /// destination (the root's transfer emits a single `ObjectMove`; every
    /// member — root included — emits one of these when its registry entry
    /// settles at the new node).
    MoveInstalled "move_installed" @to, counts move_installs {
        /// Address of the installed group member.
        obj: u64,
        /// Node the member now resides on.
        to: NodeId,
    }
    /// The destroy path failed to return an object's storage to its home
    /// heap (the allocator did not recognize the address). Always absent in
    /// a healthy run; counted instead of asserted so release builds surface
    /// it to operators.
    HeapFreeAnomaly "heap_free_anomaly" @node, counts heap_free_anomalies {
        /// Address whose heap free failed.
        obj: u64,
        /// Home node whose heap rejected the free.
        node: NodeId,
    }
}

impl ProtocolEvent {
    /// Short stable name, used as the Chrome-trace event name.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }
}

impl ProtocolSnapshot {
    /// Recomputes the counters from a captured event stream. A capture of a
    /// whole run equals the live counters unless its sink lost a record.
    pub fn from_events(events: &[TraceRecord]) -> ProtocolSnapshot {
        let mut counts = [0u64; EventKind::COUNT];
        for rec in events {
            counts[rec.event.kind() as usize] += 1;
        }
        ProtocolSnapshot::from_counts(&counts)
    }

    /// Total invocations of any kind.
    pub fn total_invokes(&self) -> u64 {
        self.local_invokes + self.remote_invokes
    }
}

/// One timestamped trace entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Engine clock at emission (virtual or wall, per the engine).
    pub at: SimTime,
    /// The Amber thread that caused the event, when emitted from thread
    /// context (`None` in kernel context or from host code).
    pub thread: Option<ThreadId>,
    /// The event itself.
    pub event: ProtocolEvent,
}

/// Destination for trace records.
///
/// Implementations must be cheap and non-blocking: sinks are invoked from
/// protocol hot paths (sometimes under engine locks) and must never call
/// back into the engine.
pub trait TraceSink: Send + Sync {
    /// Consumes one record.
    fn record(&self, rec: TraceRecord);
}

/// A sink that buffers every record in memory; for tests and post-run
/// export.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceRecord>>,
}

impl MemorySink {
    /// A fresh, empty sink.
    pub fn new() -> Arc<MemorySink> {
        Arc::new(MemorySink::default())
    }

    /// Takes the buffered records, leaving the sink empty.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.events.lock())
    }

    /// Copies the buffered records without draining them.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.events.lock().clone()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn record(&self, rec: TraceRecord) {
        self.events.lock().push(rec);
    }
}

/// The engine's event door: where a protocol fact is counted and traced.
///
/// Tracing is disabled by default, and [`emit`](Tracer::emit) then costs a
/// load and a store into the calling thread's own shard (the count) and one
/// relaxed load, so instrumented protocol paths pay nothing measurable for
/// it.
pub struct Tracer {
    /// The per-node counter rows; written only by [`emit`](Tracer::emit).
    stats: Arc<NetStats>,
    enabled: AtomicBool,
    sink: Mutex<Option<Arc<dyn TraceSink>>>,
    /// The protocol-lifecycle linter, once [`lint`](Tracer::lint) switched
    /// it on; it sees every event before the sink does.
    linter: OnceLock<Linter>,
}

impl Tracer {
    /// A tracer with no sink (disabled) that counts into `stats`.
    pub fn new(stats: Arc<NetStats>) -> Tracer {
        Tracer {
            stats,
            enabled: AtomicBool::new(false),
            sink: Mutex::new(None),
            linter: OnceLock::new(),
        }
    }

    /// `true` if a sink is installed or the linter is on.
    #[inline]
    fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switches the protocol-lifecycle linter on for the tracer's lifetime:
    /// every event is judged against the per-object state machine (created,
    /// resident on exactly one node, moving, replicated, destroyed) before
    /// it reaches the sink, with or without one, and an illegal sequence is
    /// reported to `amber-verify`'s violation registry. A no-op unless
    /// [`amber_verify::ACTIVE`] (the `verify` feature or a debug build).
    pub fn lint(&self) {
        if amber_verify::ACTIVE {
            self.linter.get_or_init(Linter::default);
            self.enabled.store(true, Ordering::Release);
        }
    }

    /// Installs `sink`, enabling tracing. Replaces any previous sink.
    pub fn install(&self, sink: Arc<dyn TraceSink>) {
        *self.sink.lock() = Some(sink);
        self.enabled.store(true, Ordering::Release);
    }

    /// Removes the sink and returns it, if any. Disables tracing unless the
    /// linter is on, which still has to see every event.
    pub fn uninstall(&self) -> Option<Arc<dyn TraceSink>> {
        self.enabled
            .store(self.linter.get().is_some(), Ordering::Release);
        self.sink.lock().take()
    }

    /// Raises one protocol fact: counts it in its node's row and, if
    /// tracing is enabled, records it stamped with `now()` and the current
    /// thread. The only writer of the event counters, so counters and trace
    /// cannot disagree; `now` is only evaluated when something will see the
    /// record:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use amber_engine::trace::{MemorySink, ProtocolEvent, Tracer};
    /// use amber_engine::{NetStats, NodeId, SimTime};
    ///
    /// let stats = Arc::new(NetStats::new(2));
    /// let tracer = Tracer::new(Arc::clone(&stats));
    /// let send = || ProtocolEvent::MessageSend {
    ///     from: NodeId(0),
    ///     to: NodeId(1),
    ///     bytes: 64,
    /// };
    /// // Disabled: counted, and the clock is never read.
    /// tracer.emit(|| unreachable!(), send());
    /// let sink = MemorySink::new();
    /// tracer.install(sink.clone());
    /// tracer.emit(|| SimTime::from_us(3), send());
    /// assert_eq!((stats.total_msgs(), sink.len()), (2, 1));
    /// ```
    #[inline]
    pub fn emit(&self, now: impl FnOnce() -> SimTime, event: ProtocolEvent) {
        self.stats.count(&event);
        if self.is_enabled() {
            self.record(now(), event);
        }
    }

    fn record(&self, at: SimTime, event: ProtocolEvent) {
        if let Some(linter) = self.linter.get() {
            linter.observe(&event);
        }
        let sink = self.sink.lock().clone();
        if let Some(sink) = sink {
            sink.record(TraceRecord {
                at,
                thread: current_thread(),
                event,
            });
        }
    }
}

/// The Chrome-trace `tid` of records raised in kernel context (suppressed
/// duplicates, retransmission timers): a track of their own on each node,
/// clear of every Amber thread's.
const KERNEL_TID: u64 = i32::MAX as u64;

/// Renders records as Chrome-trace / Perfetto JSON (JSON-object format with
/// a `traceEvents` array of instant events; `pid` is the node, `tid` the
/// Amber thread, or a track named `kernel` for records with no thread).
///
/// The output loads directly in `ui.perfetto.dev` or `chrome://tracing`.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(64 + records.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    // Node index -> whether it needs a kernel track.
    let mut nodes: BTreeMap<usize, bool> = BTreeMap::new();
    for rec in records {
        let node = rec.event.node().index();
        *nodes.entry(node).or_default() |= rec.thread.is_none();
        let ts_us = rec.at.as_ns() as f64 / 1_000.0;
        let tid = rec.thread.map_or(KERNEL_TID, |t| t.0);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{ts_us},\"pid\":{node},\"tid\":{tid},\"args\":{{",
            rec.event.name(),
        );
        rec.event.push_args(&mut out);
        out.push_str("}},");
    }
    // Metadata so viewers label each pid as its node and the kernel track.
    for (node, kernel) in nodes {
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{node},\"args\":{{\"name\":\"node{node}\"}}}},",
        );
        if kernel {
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{node},\"tid\":{KERNEL_TID},\"args\":{{\"name\":\"kernel\"}}}},",
            );
        }
    }
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(us: u64, event: ProtocolEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_us(us),
            thread: Some(ThreadId(1)),
            event,
        }
    }

    #[test]
    fn disabled_tracer_counts_without_reading_the_clock() {
        let stats = Arc::new(NetStats::new(1));
        let t = Tracer::new(Arc::clone(&stats));
        t.emit(
            || panic!("clock read while tracing is disabled"),
            ProtocolEvent::RegionLookup { node: NodeId(0) },
        );
        assert_eq!(stats.snapshot().region_lookups, 1);
    }

    #[test]
    fn install_take_uninstall_roundtrip() {
        let t = Tracer::new(Arc::new(NetStats::new(3)));
        let sink = MemorySink::new();
        t.install(sink.clone());
        assert!(t.is_enabled());
        let _in_thread = crate::engine::CurrentGuard::enter(ThreadId(3));
        t.emit(
            || SimTime::from_us(5),
            ProtocolEvent::ForwardHop {
                obj: 0x42,
                at: NodeId(0),
                to: NodeId(2),
            },
        );
        let events = sink.take();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at, SimTime::from_us(5));
        assert_eq!(events[0].thread, Some(ThreadId(3)));
        assert!(sink.is_empty());
        assert!(t.uninstall().is_some());
        assert!(!t.is_enabled());
    }

    #[test]
    fn chrome_trace_shape() {
        let (n0, n1) = (NodeId(0), NodeId(1));
        let records = vec![
            rec(
                10,
                ProtocolEvent::RemoteInvoke {
                    obj: 7,
                    from: NodeId(0),
                    to: NodeId(1),
                },
            ),
            rec(
                20,
                ProtocolEvent::ObjectMove {
                    obj: 7,
                    from: NodeId(1),
                    to: NodeId(0),
                    group: 2,
                    bytes: 4096,
                },
            ),
            // Raised by a retried attempt, from a timer: no Amber thread.
            TraceRecord {
                thread: None,
                ..rec(30, ProtocolEvent::LinkPartitioned { from: n1, to: n0 })
            },
        ];
        let json = chrome_trace_json(&records);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"traceEvents\":["), "{json}");
        assert!(json.contains("\"name\":\"remote_invoke\""), "{json}");
        assert!(json.contains("\"bytes\":4096"), "{json}");
        assert!(json.contains("\"process_name\""), "{json}");
        // The kernel-context record gets a named track of its own on its
        // node, not thread 0's; node 0 has none and gets no such track.
        assert!(json.contains("\"pid\":1,\"tid\":2147483647,"), "{json}");
        assert!(!json.contains("\"tid\":0"), "{json}");
        assert_eq!(json.matches("\"thread_name\"").count(), 1, "{json}");
        // Balanced braces/brackets => structurally sound JSON (no serde in
        // the workspace to parse it properly).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// One event of every kind with its stable name and principal node.
    /// Field values are all distinct within an event, so a swapped field
    /// shows in the rendering.
    fn every_kind() -> Vec<(ProtocolEvent, &'static str, u16)> {
        use ProtocolEvent as E;
        let (n1, n2, n3) = (NodeId(1), NodeId(2), NodeId(3));
        vec![
            (E::LocalInvoke { obj: 64, node: n1 }, "local_invoke", 1),
            (
                E::RemoteInvoke {
                    obj: 64,
                    from: n1,
                    to: n2,
                },
                "remote_invoke",
                2,
            ),
            (
                E::ThreadMigration { from: n1, to: n2 },
                "thread_migration",
                2,
            ),
            (
                E::ObjectMove {
                    obj: 64,
                    from: n1,
                    to: n2,
                    group: 5,
                    bytes: 4096,
                },
                "object_move",
                2,
            ),
            (
                E::ForwardHop {
                    obj: 64,
                    at: n1,
                    to: n2,
                },
                "forward_hop",
                1,
            ),
            (
                E::HomeRoute {
                    obj: 64,
                    at: n1,
                    home: n3,
                },
                "home_route",
                1,
            ),
            (
                E::Replication {
                    obj: 64,
                    from: n1,
                    to: n2,
                    bytes: 512,
                },
                "replication",
                2,
            ),
            (E::RegionExtension { node: n1 }, "region_extension", 1),
            (E::RegionLookup { node: n2 }, "region_lookup", 2),
            (E::ObjectCreate { obj: 64, node: n1 }, "object_create", 1),
            (E::ObjectDestroy { obj: 64, node: n2 }, "object_destroy", 2),
            (
                E::ThreadStart {
                    thread: ThreadId(9),
                    node: n1,
                },
                "thread_start",
                1,
            ),
            (
                E::Join {
                    thread: ThreadId(9),
                    node: n2,
                },
                "join",
                2,
            ),
            (
                E::MessageSend {
                    from: n1,
                    to: n2,
                    bytes: 100,
                },
                "message_send",
                1,
            ),
            (
                E::MessageDropped {
                    from: n1,
                    to: n2,
                    bytes: 100,
                },
                "message_dropped",
                1,
            ),
            (
                E::MessageRetransmit {
                    from: n1,
                    to: n2,
                    attempt: 3,
                },
                "message_retransmit",
                1,
            ),
            (
                E::MessageDuplicated { from: n1, to: n2 },
                "message_duplicated",
                1,
            ),
            (
                E::MessageDuplicateSuppressed { from: n1, to: n2 },
                "message_duplicate_suppressed",
                2,
            ),
            (
                E::LinkPartitioned { from: n1, to: n2 },
                "link_partitioned",
                1,
            ),
            (
                E::AdvisoryMove {
                    obj: 64,
                    from: n1,
                    to: n2,
                },
                "advisory_move",
                2,
            ),
            (
                E::AdvisoryReplicate {
                    obj: 64,
                    from: n1,
                    to: n2,
                },
                "advisory_replicate",
                2,
            ),
            (
                E::AdvisorySkipped {
                    obj: 64,
                    at: n1,
                    reason: "pinned",
                },
                "advisory_skipped",
                1,
            ),
            (
                E::ChaseDiverged {
                    obj: 64,
                    at: n1,
                    hops: 7,
                },
                "chase_diverged",
                1,
            ),
            (
                E::HintRepair {
                    obj: 64,
                    at: n1,
                    to: n2,
                },
                "hint_repair",
                1,
            ),
            (E::MoveInstalled { obj: 64, to: n2 }, "move_installed", 2),
            (
                E::HeapFreeAnomaly { obj: 64, node: n1 },
                "heap_free_anomaly",
                1,
            ),
        ]
    }

    #[test]
    fn every_kind_renders_its_golden() {
        let kinds = every_kind();
        let mut names: Vec<_> = kinds.iter().map(|k| k.1).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len(), "event names must be unique");
        let mut records = Vec::new();
        for (i, (event, name, node)) in kinds.into_iter().enumerate() {
            assert_eq!(event.name(), name);
            assert_eq!(event.node(), NodeId(node), "{name}");
            // The two a timer or a late copy raises, on node 1 and node 2:
            // kernel context, no thread.
            let kernel = matches!(name, "message_retransmit" | "message_duplicate_suppressed");
            records.push(TraceRecord {
                thread: (!kernel).then_some(ThreadId(1)),
                ..rec(i as u64, event)
            });
        }
        const ARGS: [&str; 26] = [
            r#""obj":64,"node":1"#,
            r#""obj":64,"from":1,"to":2"#,
            r#""from":1,"to":2"#,
            r#""obj":64,"from":1,"to":2,"group":5,"bytes":4096"#,
            r#""obj":64,"at":1,"to":2"#,
            r#""obj":64,"at":1,"home":3"#,
            r#""obj":64,"from":1,"to":2,"bytes":512"#,
            r#""node":1"#,
            r#""node":2"#,
            r#""obj":64,"node":1"#,
            r#""obj":64,"node":2"#,
            r#""thread":9,"node":1"#,
            r#""thread":9,"node":2"#,
            r#""from":1,"to":2,"bytes":100"#,
            r#""from":1,"to":2,"bytes":100"#,
            r#""from":1,"to":2,"attempt":3"#,
            r#""from":1,"to":2"#,
            r#""from":1,"to":2"#,
            r#""from":1,"to":2"#,
            r#""obj":64,"from":1,"to":2"#,
            r#""obj":64,"from":1,"to":2"#,
            r#""obj":64,"at":1,"reason":"pinned""#,
            r#""obj":64,"at":1,"hops":7"#,
            r#""obj":64,"at":1,"to":2"#,
            r#""obj":64,"to":2"#,
            r#""obj":64,"node":1"#,
        ];
        let mut want = String::from(r#"{"displayTimeUnit":"ms","traceEvents":["#);
        for (i, (r, args)) in records.iter().zip(ARGS).enumerate() {
            let tid = if r.thread.is_some() { 1 } else { 2147483647 };
            want.push_str(&format!(
                r#"{{"name":"{}","ph":"i","s":"p","ts":{i},"pid":{},"tid":{tid},"args":{{{args}}}}},"#,
                r.event.name(),
                r.event.node().index(),
            ));
        }
        want.push_str(concat!(
            r#"{"name":"process_name","ph":"M","pid":1,"args":{"name":"node1"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":2147483647,"args":{"name":"kernel"}},"#,
            r#"{"name":"process_name","ph":"M","pid":2,"args":{"name":"node2"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":2,"tid":2147483647,"args":{"name":"kernel"}}]}"#,
        ));
        assert_eq!(chrome_trace_json(&records), want);
    }

    /// The `(field, value)` pairs of a snapshot, read off its derived
    /// `Debug` so the list cannot fall out of step with the struct.
    fn snapshot_fields(s: &ProtocolSnapshot) -> Vec<(String, u64)> {
        let text = format!("{s:?}");
        let body = text
            .strip_prefix("ProtocolSnapshot { ")
            .and_then(|t| t.strip_suffix(" }"))
            .expect("derived Debug shape");
        body.split(", ")
            .map(|f| {
                let (name, v) = f.split_once(": ").expect("field: value");
                (name.to_string(), v.parse().expect("u64 field"))
            })
            .collect()
    }

    #[test]
    fn counted_kinds_and_snapshot_fields_pair_one_to_one() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "kind indexes are dense");
        }
        let sample = every_kind();
        assert_eq!(
            sample.len(),
            EventKind::COUNT,
            "the golden covers every kind"
        );
        let mut fed = Vec::new();
        for (event, name, _) in &sample {
            let one = [rec(0, event.clone())];
            let hit: Vec<_> = snapshot_fields(&ProtocolSnapshot::from_events(&one))
                .into_iter()
                .filter(|(_, v)| *v != 0)
                .collect();
            match hit.as_slice() {
                [(field, 1)] => fed.push(field.clone()),
                other => panic!("{name} feeds {other:?}"),
            }
        }
        let all: Vec<_> = snapshot_fields(&ProtocolSnapshot::default())
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(fed, all, "one field per kind, in table order");
        let ones = ProtocolSnapshot::from_counts(&[1; EventKind::COUNT]);
        assert!(snapshot_fields(&ones).iter().all(|(_, v)| *v == 1));
        assert_eq!(ones.total_invokes(), 2);
    }
}
