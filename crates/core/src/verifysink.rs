//! The verifying trace sink: tees every protocol event through the
//! `amber-verify` lifecycle linter on its way to whatever sink the user
//! installed.
//!
//! When the runtime checkers are active (the `verify` feature or a debug
//! build), [`crate::Cluster`] installs one of these as the engine's trace
//! sink for the whole cluster lifetime; `enable_tracing`/`set_trace_sink`/
//! `disable_tracing` then swap the *inner* sink, so the linter sees every
//! event of every run — including runs with no user sink at all — without
//! changing the public tracing API.
//!
//! The sink honours the [`TraceSink`] contract (cheap, non-blocking, never
//! calls back into the engine): the linter does one small hash-map update
//! per relevant event under its own private mutex.

use std::sync::Arc;

use amber_engine::{ProtocolEvent, TraceRecord, TraceSink};
use amber_verify::lifecycle::{LifecycleEvent, LifecycleLinter};
use parking_lot::Mutex;

pub(crate) struct VerifyingSink {
    linter: LifecycleLinter,
    inner: Mutex<Option<Arc<dyn TraceSink>>>,
}

impl VerifyingSink {
    pub(crate) fn new() -> VerifyingSink {
        VerifyingSink {
            linter: LifecycleLinter::new(),
            inner: Mutex::new(None),
        }
    }

    /// Swaps the user-facing sink events are forwarded to, returning the
    /// previous one.
    pub(crate) fn set_inner(&self, sink: Option<Arc<dyn TraceSink>>) -> Option<Arc<dyn TraceSink>> {
        std::mem::replace(&mut *self.inner.lock(), sink)
    }

    /// Translates the engine's trace vocabulary into the linter's; events
    /// with no lifecycle meaning (messages, thread starts, charges) map to
    /// `None`.
    fn lifecycle_event(ev: &ProtocolEvent) -> Option<LifecycleEvent> {
        Some(match *ev {
            ProtocolEvent::ObjectCreate { obj, node } => LifecycleEvent::Created {
                obj,
                node: node.index(),
            },
            ProtocolEvent::ObjectDestroy { obj, node } => LifecycleEvent::Destroyed {
                obj,
                node: node.index(),
            },
            ProtocolEvent::ObjectMove { obj, from, to, .. } => LifecycleEvent::MoveStarted {
                obj,
                from: from.index(),
                to: to.index(),
            },
            ProtocolEvent::MoveInstalled { obj, to } => LifecycleEvent::MoveInstalled {
                obj,
                to: to.index(),
            },
            ProtocolEvent::Replication { obj, to, .. } => LifecycleEvent::ReplicaInstalled {
                obj,
                to: to.index(),
            },
            ProtocolEvent::ReplicaEvicted { obj, node } => LifecycleEvent::ReplicaEvicted {
                obj,
                node: node.index(),
            },
            ProtocolEvent::AdvisoryMove { obj, .. } => {
                LifecycleEvent::Advisory { obj, kind: "move" }
            }
            ProtocolEvent::AdvisoryReplicate { obj, .. } => LifecycleEvent::Advisory {
                obj,
                kind: "replicate",
            },
            ProtocolEvent::HintRepair { obj, to, .. } => LifecycleEvent::HintRepaired {
                obj,
                to: to.index(),
            },
            ProtocolEvent::LocalInvoke { obj, .. } | ProtocolEvent::RemoteInvoke { obj, .. } => {
                LifecycleEvent::Invoked { obj }
            }
            _ => return None,
        })
    }
}

impl TraceSink for VerifyingSink {
    fn record(&self, rec: TraceRecord) {
        if let Some(ev) = Self::lifecycle_event(&rec.event) {
            self.linter.observe(ev);
        }
        let inner = self.inner.lock().clone();
        if let Some(inner) = inner {
            inner.record(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_engine::{MemorySink, NodeId, SimTime};

    #[test]
    fn forwards_to_inner_and_observes() {
        let sink = VerifyingSink::new();
        let mem = MemorySink::new();
        assert!(sink.set_inner(Some(mem.clone())).is_none());
        sink.record(TraceRecord {
            at: SimTime::ZERO,
            thread: None,
            event: ProtocolEvent::ObjectCreate {
                obj: 0x40,
                node: NodeId(0),
            },
        });
        assert_eq!(mem.take().len(), 1);
        let old = sink.set_inner(None);
        assert!(old.is_some());
        // With no inner sink, recording still lints without panicking.
        sink.record(TraceRecord {
            at: SimTime::ZERO,
            thread: None,
            event: ProtocolEvent::ObjectDestroy {
                obj: 0x40,
                node: NodeId(0),
            },
        });
    }
}
