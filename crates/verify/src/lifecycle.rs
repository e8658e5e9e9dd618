//! Protocol-lifecycle linter: a per-object state machine fed by the trace
//! stream.
//!
//! The legal lifecycle is
//!
//! ```text
//! Created ──► Resident ⇄ Moving ──► Resident
//!                │  ▲
//!     replica    ▼  │ evict
//!            Replica set grows/shrinks
//!                │
//!                ▼
//!            Destroyed   (terminal; the address may be reused by a
//!                         fresh Created)
//! ```
//!
//! The linter is engine-agnostic: callers translate their trace vocabulary
//! into [`LifecycleEvent`]s (plain `u64` object addresses and `usize` node
//! indices) and feed them to [`LifecycleLinter::observe`]. Illegal
//! sequences are reported through the shared violation registry
//! ([`crate::report`]), so they panic by default and can be collected with
//! [`crate::take_violations`] in tests.

use std::collections::{HashMap, HashSet};

use parking_lot::Mutex;

use crate::{report, Violation};

/// One protocol event, in the linter's engine-agnostic vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// An object became resident at `node` (creation or address reuse).
    Created {
        /// Object address.
        obj: u64,
        /// Home node at creation.
        node: usize,
    },
    /// A move of the object's group began (root object only).
    MoveStarted {
        /// Object address.
        obj: u64,
        /// Source node.
        from: usize,
        /// Destination node.
        to: usize,
    },
    /// One group member finished installing at the destination.
    MoveInstalled {
        /// Object address.
        obj: u64,
        /// Destination node.
        to: usize,
    },
    /// A read-only replica was installed at `to`.
    ReplicaInstalled {
        /// Object address.
        obj: u64,
        /// Replica node.
        to: usize,
    },
    /// The replica at `node` was evicted.
    ReplicaEvicted {
        /// Object address.
        obj: u64,
        /// Node losing its replica.
        node: usize,
    },
    /// A placement advisory (move/replicate) was accepted for the object.
    Advisory {
        /// Object address.
        obj: u64,
        /// Which advisory: `"move"` or `"replicate"`.
        kind: &'static str,
    },
    /// A stale location hint was repaired to point at `to`.
    HintRepaired {
        /// Object address.
        obj: u64,
        /// Node the hint now points at.
        to: usize,
    },
    /// The object was invoked (locally or remotely).
    Invoked {
        /// Object address.
        obj: u64,
    },
    /// The object was destroyed at `node`.
    Destroyed {
        /// Object address.
        obj: u64,
        /// Home node at destruction.
        node: usize,
    },
}

impl LifecycleEvent {
    fn obj(&self) -> u64 {
        match *self {
            LifecycleEvent::Created { obj, .. }
            | LifecycleEvent::MoveStarted { obj, .. }
            | LifecycleEvent::MoveInstalled { obj, .. }
            | LifecycleEvent::ReplicaInstalled { obj, .. }
            | LifecycleEvent::ReplicaEvicted { obj, .. }
            | LifecycleEvent::Advisory { obj, .. }
            | LifecycleEvent::HintRepaired { obj, .. }
            | LifecycleEvent::Invoked { obj }
            | LifecycleEvent::Destroyed { obj, .. } => obj,
        }
    }
}

/// Linter state for one object address.
struct ObjState {
    /// `false` once destroyed (the address may be reused by a new Created).
    live: bool,
    /// A group move is in flight.
    moving: bool,
    /// Every node that ever legitimately hosted the object or a replica —
    /// the set a repaired hint is allowed to point into.
    ever: HashSet<usize>,
    /// Nodes currently holding a replica.
    replicas: HashSet<usize>,
}

/// The per-object state machine. One instance lints one trace stream; feed
/// it every protocol event in emission order via [`observe`].
///
/// [`observe`]: LifecycleLinter::observe
#[derive(Default)]
pub struct LifecycleLinter {
    objects: Mutex<HashMap<u64, ObjState>>,
}

impl LifecycleLinter {
    /// A fresh linter with no objects observed.
    pub fn new() -> LifecycleLinter {
        LifecycleLinter::default()
    }

    fn violation(&self, obj: u64, message: String) {
        report(Violation::Lifecycle { obj, message });
    }

    /// Feeds one event through the state machine, reporting any illegal
    /// transition through the global violation registry.
    pub fn observe(&self, ev: LifecycleEvent) {
        let obj = ev.obj();
        let mut objects = self.objects.lock();
        match ev {
            LifecycleEvent::Created { node, .. } => {
                match objects.get(&obj) {
                    Some(st) if st.live => {
                        drop(objects);
                        self.violation(obj, "created while still live".into());
                        return;
                    }
                    _ => {}
                }
                let mut ever = HashSet::new();
                ever.insert(node);
                objects.insert(
                    obj,
                    ObjState {
                        live: true,
                        moving: false,
                        ever,
                        replicas: HashSet::new(),
                    },
                );
            }
            LifecycleEvent::MoveStarted { .. } => {
                let msg = match objects.get_mut(&obj) {
                    None => Some("move started on unknown object".to_string()),
                    Some(st) if !st.live => Some("move started after destroy".to_string()),
                    Some(st) if st.moving => Some("second MoveStart while moving".to_string()),
                    Some(st) => {
                        st.moving = true;
                        None
                    }
                };
                if let Some(m) = msg {
                    drop(objects);
                    self.violation(obj, m);
                }
            }
            LifecycleEvent::MoveInstalled { to, .. } => {
                // Non-root group members never get a MoveStarted of their
                // own, so `moving` may already be false here; install just
                // settles the object at `to`.
                let msg = match objects.get_mut(&obj) {
                    None => Some("move installed on unknown object".to_string()),
                    Some(st) if !st.live => Some("move installed after destroy".to_string()),
                    Some(st) => {
                        st.moving = false;
                        st.ever.insert(to);
                        None
                    }
                };
                if let Some(m) = msg {
                    drop(objects);
                    self.violation(obj, m);
                }
            }
            LifecycleEvent::ReplicaInstalled { to, .. } => {
                let msg = match objects.get_mut(&obj) {
                    None => Some("replica installed on unknown object".to_string()),
                    Some(st) if !st.live => Some("replica installed after destroy".to_string()),
                    Some(st) if st.moving => Some("replica installed while moving".to_string()),
                    Some(st) => {
                        st.replicas.insert(to);
                        st.ever.insert(to);
                        None
                    }
                };
                if let Some(m) = msg {
                    drop(objects);
                    self.violation(obj, m);
                }
            }
            LifecycleEvent::ReplicaEvicted { node, .. } => {
                let msg = match objects.get_mut(&obj) {
                    None => Some("replica evicted on unknown object".to_string()),
                    Some(st) if !st.live => Some("replica evicted after destroy".to_string()),
                    Some(st) if !st.replicas.contains(&node) => {
                        Some(format!("evict of non-replica node {node}"))
                    }
                    Some(st) => {
                        st.replicas.remove(&node);
                        None
                    }
                };
                if let Some(m) = msg {
                    drop(objects);
                    self.violation(obj, m);
                }
            }
            LifecycleEvent::Advisory { kind, .. } => {
                let msg = match objects.get(&obj) {
                    None => Some(format!("advisory {kind} on unknown object")),
                    Some(st) if !st.live => Some(format!("advisory {kind} after destroy")),
                    Some(_) => None,
                };
                if let Some(m) = msg {
                    drop(objects);
                    self.violation(obj, m);
                }
            }
            LifecycleEvent::HintRepaired { to, .. } => {
                // Hint repairs racing a destroy are a benign teardown
                // transient (the chase observes a forward that the destroy
                // sweep is about to clear), so dead/unknown objects are
                // allowed; a *live* object's hint must point at a node that
                // actually hosted it at some point.
                let msg = match objects.get(&obj) {
                    Some(st) if st.live && !st.ever.contains(&to) => Some(format!(
                        "hint repaired to node {to}, which never hosted the object"
                    )),
                    _ => None,
                };
                if let Some(m) = msg {
                    drop(objects);
                    self.violation(obj, m);
                }
            }
            LifecycleEvent::Invoked { .. } => {
                let msg = match objects.get(&obj) {
                    None => Some("invocation of unknown object".to_string()),
                    Some(st) if !st.live => Some("invocation after destroy".to_string()),
                    Some(_) => None,
                };
                if let Some(m) = msg {
                    drop(objects);
                    self.violation(obj, m);
                }
            }
            LifecycleEvent::Destroyed { .. } => {
                let msg = match objects.get_mut(&obj) {
                    None => Some("destroy of unknown object".to_string()),
                    Some(st) if !st.live => Some("double destroy".to_string()),
                    Some(st) if st.moving => Some("destroy while moving".to_string()),
                    Some(st) => {
                        st.live = false;
                        st.replicas.clear();
                        None
                    }
                };
                if let Some(m) = msg {
                    drop(objects);
                    self.violation(obj, m);
                }
            }
        }
    }

    /// Number of object addresses the linter has ever observed.
    pub fn objects_seen(&self) -> usize {
        self.objects.lock().len()
    }
}
