//! Protocol-lifecycle linter: a per-object state machine over the
//! [`ProtocolEvent`] stream, judged beside the table that declares it.
//!
//! The legal lifecycle is
//!
//! ```text
//! Created ──► Resident ⇄ Moving ──► Resident
//!                │
//!        replica ▼
//!            Replica set grows (a copy stays until the destroy)
//!                │
//!                ▼
//!            Destroyed   (terminal; the address may be reused by a
//!                         fresh ObjectCreate)
//! ```
//!
//! and, stated once on the event stream, *a mutable object is resident on
//! exactly one node*: the linter keeps that node (`ObjectCreate.node`, then
//! each `MoveInstalled.to`) and rejects an `ObjectMove` that claims to leave
//! any other.
//!
//! [`Tracer`](crate::trace::Tracer) hands every event to [`Linter::observe`]
//! before the sink once [`Tracer::lint`](crate::trace::Tracer::lint) has
//! switched it on. Illegal sequences go to `amber-verify`'s violation
//! registry, so they panic by default and tests collect them with
//! `amber_verify::take_violations`.

use std::collections::{HashMap, HashSet};

use amber_verify::{report, Violation};
use parking_lot::Mutex;

use crate::ids::NodeId;
use crate::trace::ProtocolEvent;

/// Linter state for one object address.
struct ObjState {
    /// `false` once destroyed (the address may be reused by a new create).
    live: bool,
    /// A group move is in flight.
    moving: bool,
    /// The one node the object resides on.
    at: NodeId,
    /// Every node that ever legitimately hosted the object or a replica —
    /// the set a repaired hint is allowed to point into.
    ever: HashSet<NodeId>,
}

type Objects = HashMap<u64, ObjState>;

/// An illegal event: the offending object and what was wrong.
type Illegal = (u64, String);

/// The per-object state machine. One instance lints one cluster's stream,
/// fed every protocol event in emission order.
#[derive(Default)]
pub(crate) struct Linter {
    objects: Mutex<Objects>,
}

/// The state of `obj` if it is live, else why `what` cannot happen to it.
fn live<'a>(objects: &'a mut Objects, obj: u64, what: &str) -> Result<&'a mut ObjState, Illegal> {
    match objects.get_mut(&obj) {
        None => Err((obj, format!("{what} on unknown object"))),
        Some(st) if !st.live => Err((obj, format!("{what} after destroy"))),
        Some(st) => Ok(st),
    }
}

/// Steps the state machine by one event.
fn step(objects: &mut Objects, ev: &ProtocolEvent) -> Result<(), Illegal> {
    use ProtocolEvent as E;
    match *ev {
        E::ObjectCreate { obj, node } => {
            if objects.get(&obj).is_some_and(|st| st.live) {
                return Err((obj, "created while still live".into()));
            }
            let st = ObjState {
                live: true,
                moving: false,
                at: node,
                ever: HashSet::from([node]),
            };
            objects.insert(obj, st);
        }
        // Raised once per move, for the group's root.
        E::ObjectMove { obj, from, .. } => {
            let st = live(objects, obj, "move start")?;
            if st.moving {
                return Err((obj, "second move start while moving".into()));
            }
            if from != st.at {
                let at = st.at;
                return Err((
                    obj,
                    format!("move leaves {from}, but the object resides on {at}"),
                ));
            }
            st.moving = true;
        }
        // Non-root group members never get an `ObjectMove` of their own, so
        // `moving` may already be false; install settles the object at `to`.
        E::MoveInstalled { obj, to } => {
            let st = live(objects, obj, "move install")?;
            st.moving = false;
            st.at = to;
            st.ever.insert(to);
        }
        E::Replication { obj, to, .. } => {
            let st = live(objects, obj, "replica install")?;
            if st.moving {
                return Err((obj, "replica install while moving".into()));
            }
            st.ever.insert(to);
        }
        E::AdvisoryMove { obj, .. } => {
            live(objects, obj, "advisory move")?;
        }
        E::AdvisoryReplicate { obj, .. } => {
            live(objects, obj, "advisory replicate")?;
        }
        // A hint repair racing a destroy is a benign teardown transient (the
        // chase observes a forward that the destroy sweep is about to
        // clear), so dead and unknown objects pass; a *live* object's hint
        // must point at a node that hosted it at some point.
        E::HintRepair { obj, to, .. } => match objects.get(&obj) {
            Some(st) if st.live && !st.ever.contains(&to) => {
                return Err((
                    obj,
                    format!("hint repaired to {to}, which never hosted the object"),
                ));
            }
            _ => {}
        },
        E::LocalInvoke { obj, .. } | E::RemoteInvoke { obj, .. } => {
            live(objects, obj, "invocation")?;
        }
        E::ObjectDestroy { obj, .. } => {
            let st = live(objects, obj, "destroy")?;
            if st.moving {
                return Err((obj, "destroy while moving".into()));
            }
            st.live = false;
        }
        // Messages, thread starts, chases: no lifecycle meaning.
        _ => {}
    }
    Ok(())
}

impl Linter {
    /// Feeds one event through the state machine, reporting an illegal
    /// transition through the global violation registry.
    pub(crate) fn observe(&self, ev: &ProtocolEvent) {
        // The guard is a temporary of this statement: `report` may panic
        // and must not do so under the lock.
        let verdict = step(&mut self.objects.lock(), ev);
        if let Err((obj, message)) = verdict {
            report(Violation::Lifecycle { obj, message });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_verify::{set_panic_on_violation, take_violations};
    use ProtocolEvent as E;

    /// The violation buffer and panic flag are process-global: tests that
    /// touch them take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    const N: [NodeId; 3] = [NodeId(0), NodeId(1), NodeId(2)];

    /// Lints `events` on a fresh linter with panics off; returns what it
    /// reported, rendered.
    fn lint(events: &[ProtocolEvent]) -> Vec<String> {
        let _serial = SERIAL.lock();
        set_panic_on_violation(false);
        let _ = take_violations();
        let linter = Linter::default();
        for ev in events {
            linter.observe(ev);
        }
        set_panic_on_violation(true);
        take_violations().iter().map(|v| v.to_string()).collect()
    }

    fn create(obj: u64) -> ProtocolEvent {
        E::ObjectCreate { obj, node: N[0] }
    }

    fn mv(obj: u64, from: NodeId, to: NodeId) -> ProtocolEvent {
        E::ObjectMove {
            obj,
            from,
            to,
            group: 1,
            bytes: 8,
        }
    }

    #[test]
    fn illegal_sequences_are_rejected() {
        let advise = |obj| E::AdvisoryMove {
            obj,
            from: N[0],
            to: N[1],
        };
        let destroy = |obj| E::ObjectDestroy { obj, node: N[0] };
        let repair = |obj| E::HintRepair {
            obj,
            at: N[0],
            to: N[2],
        };
        let cases: [(Vec<ProtocolEvent>, &str); 4] = [
            (
                vec![create(0x40), destroy(0x40), advise(0x40)],
                "advisory move after destroy",
            ),
            (
                vec![create(0x40), mv(0x40, N[0], N[1]), mv(0x40, N[0], N[2])],
                "second move start",
            ),
            (
                vec![create(0x40), repair(0x40)],
                "hint repaired to node2, which never hosted",
            ),
            (
                vec![create(0x40), mv(0x40, N[1], N[2])],
                "move leaves node1, but the object resides on node0",
            ),
        ];
        for (events, expected) in cases {
            let got = lint(&events);
            assert!(
                got.len() == 1 && got[0].contains("0x40") && got[0].contains(expected),
                "expected one `{expected}` violation, got {got:?}"
            );
        }
    }

    #[test]
    fn legal_lifecycle_is_clean() {
        let obj = 0x100;
        let got = lint(&[
            create(obj),
            E::LocalInvoke { obj, node: N[0] },
            E::AdvisoryMove {
                obj,
                from: N[0],
                to: N[1],
            },
            mv(obj, N[0], N[1]),
            E::MessageSend {
                from: N[0],
                to: N[1],
                bytes: 8,
            },
            E::MoveInstalled { obj, to: N[1] },
            E::HintRepair {
                obj,
                at: N[0],
                to: N[1],
            },
            // The next move leaves the node the last one installed at.
            mv(obj, N[1], N[0]),
            E::MoveInstalled { obj, to: N[0] },
            E::AdvisoryReplicate {
                obj,
                from: N[0],
                to: N[2],
            },
            E::Replication {
                obj,
                from: N[0],
                to: N[2],
                bytes: 8,
            },
            E::ObjectDestroy { obj, node: N[0] },
            // A post-destroy hint repair is a benign teardown transient.
            E::HintRepair {
                obj,
                at: N[2],
                to: N[0],
            },
            // The address is reused: a fresh object, resident where created.
            E::ObjectCreate { obj, node: N[2] },
            E::RemoteInvoke {
                obj,
                from: N[0],
                to: N[2],
            },
            mv(obj, N[2], N[0]),
            E::MoveInstalled { obj, to: N[0] },
        ]);
        assert!(got.is_empty(), "unexpected: {got:?}");
    }
}
