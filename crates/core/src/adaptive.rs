//! Adaptive object placement: the mechanism half.
//!
//! Amber leaves placement program-controlled (paper, sections 3.3–3.4); the
//! adaptive engine closes the loop the paper leaves open. The invoke path
//! counts, per object, how many invocations started on each node (a plain
//! add in the registry entry, under the guard the path already holds — see
//! [`crate::kernel::ObjectEntry::calls`]). A placement daemon wakes on a
//! periodic tick, drains those counters into [`PlacementSample`]s (folding
//! attached children onto their group root, since groups move as one), asks
//! the installed [`PlacementPolicy`] for decisions, and executes each as an
//! *advisory* group move — declined on the spot, with an `AdvisorySkipped`
//! event, if the object is pinned, mid-move, attached, immutable, destroyed,
//! or already at the target.
//!
//! This module is pure mechanism; scoring (persistence, dominance,
//! cooldown, rate limits) lives in the policy, whose stock implementation
//! is `amber_placement::adaptive`.
//!
//! A replica the daemon installs for a `Replicate` decision stays until the
//! object is destroyed, as a demand-installed replica does.
//!
//! # Tick scheduling and quiescence
//!
//! A tick is a timed kernel wake of the daemon,
//! [`amber_engine::Engine::wake_kernel_after`]: an event of the simulator's
//! queue holding the daemon's thread id, or an item of the real engine's
//! timer thread that posts the daemon's gate. Neither holds the engine, so
//! a tick still pending when a run ends keeps nothing alive. A standing
//! periodic timer would blind the simulator's deadlock detector (the event
//! queue would never drain), so the timer is *activity-armed*: the first
//! invocation after an idle period arms exactly one tick, raising `armed`
//! (a plain `bool` beside the entries) inside its entry visit and
//! scheduling the timer once the guard is dropped; the daemon re-arms after
//! a tick whose drain found calls. A drain that finds none lowers `armed`
//! inside its own registry visit, having read the call slots and nothing
//! else: an invocation counted after that visit takes the lock after it,
//! so it finds the flag down and arms the next tick itself. Only an
//! invocation that finds its object's slot for its node *drained* looks at
//! `armed`: every later one before the next drain would tell the daemon
//! nothing new, so the steady state of the invoke path is one add under a
//! lock it already holds. An idle — or deadlocked — program therefore has
//! no pending timer and deadlock detection keeps working; the daemon itself
//! parks under the name `placement-tick`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use amber_engine::{NodeId, ProtocolEvent, SimTime, ThreadId};
use amber_vspace::{Residency, VAddr};
use parking_lot::Mutex;

use crate::kernel::{Kernel, Objects};

/// One object's (or attachment group's) traffic over the last placement
/// tick, as handed to the policy.
#[derive(Clone, Debug)]
pub struct PlacementSample {
    /// Raw address of the object (the group root, for attachment groups).
    pub obj: u64,
    /// Where the object currently resides.
    pub location: NodeId,
    /// Invocations started on each node since the previous tick, summed
    /// over the whole attachment group; indexed by node.
    pub calls_by_node: Vec<u64>,
    /// Whether the object is immutable — replication is only legal (and
    /// only proposed) for immutable objects.
    pub immutable: bool,
    /// Nodes that already hold a replica of this object (empty for mutable
    /// objects). Lets a policy cap replica sets and avoid re-proposing.
    pub replicas: Vec<NodeId>,
}

/// A policy's proposal for one object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementDecision {
    /// Move `obj`'s attachment group to `to`.
    Move {
        /// Raw address of the object to move (a group root).
        obj: u64,
        /// Proposed destination node.
        to: NodeId,
    },
    /// Install a replica of the immutable object `obj` on `to`.
    Replicate {
        /// Raw address of the immutable object to replicate.
        obj: u64,
        /// Reader node that should receive a copy.
        to: NodeId,
    },
}

/// The decision half of adaptive placement.
///
/// Implementations see only traffic; safety (pins, in-flight moves,
/// attachment, immutability) is enforced by the kernel when it executes the
/// decisions, so a policy proposing an unsafe move costs one skip event,
/// not correctness. `decide` runs on the placement daemon with no kernel
/// locks held.
pub trait PlacementPolicy: Send {
    /// Cadence of placement ticks: virtual time under the simulator, wall
    /// clock under the real engine.
    fn tick_interval(&self) -> SimTime;

    /// One decision round. `samples` holds every object that saw traffic
    /// since the last round, in ascending address order (deterministic
    /// input for deterministic policies); each sample's `calls_by_node` has
    /// one slot per cluster node.
    fn decide(&mut self, samples: &[PlacementSample]) -> Vec<PlacementDecision>;
}

/// Kernel-side adaptive placement state.
pub(crate) struct PlacementRuntime {
    pub(crate) policy: Mutex<Box<dyn PlacementPolicy>>,
    /// Tick cadence, captured from the policy at construction.
    pub(crate) tick: SimTime,
    /// Set at the end of `Cluster::run`; the daemon exits at the next wake.
    pub(crate) stop: AtomicBool,
    /// The daemon thread, once spawned.
    pub(crate) daemon: OnceLock<ThreadId>,
}

impl PlacementRuntime {
    pub(crate) fn new(policy: Box<dyn PlacementPolicy>) -> PlacementRuntime {
        let tick = policy.tick_interval();
        PlacementRuntime {
            policy: Mutex::new(policy),
            tick,
            stop: AtomicBool::new(false),
            daemon: OnceLock::new(),
        }
    }
}

/// Traffic observed for one object during a tick's drain, before group
/// folding.
struct Observation {
    location: NodeId,
    attached_to: Option<VAddr>,
    immutable: bool,
    /// Nodes holding a replica descriptor, in node order; empty for a
    /// mutable object.
    replicas: Vec<NodeId>,
    calls: Vec<u64>,
}

impl Kernel {
    /// Arms one tick: a kernel wake of the daemon after the tick interval,
    /// unless the daemon is stopping, for whoever raised `armed`. Never
    /// called under the registry lock: an engine's `wake_kernel_after`
    /// touches its own state (a timer queue lock, or the simulator's
    /// borrowed state).
    pub(crate) fn schedule_placement_tick(&self) {
        let Some(p) = &self.placement else { return };
        if p.stop.load(Ordering::Relaxed) {
            return;
        }
        #[expect(
            clippy::expect_used,
            reason = "Cluster::run spawns the daemon before any thread can invoke"
        )]
        let &daemon = p.daemon.get().expect("placement tick before the daemon");
        self.engine.wake_kernel_after(p.tick, daemon);
    }

    /// Spawns the placement daemon (an ordinary Amber kernel-class thread
    /// on the boot node). Called by `Cluster::run` before the engine
    /// starts; a no-op without a policy.
    pub(crate) fn spawn_placement_daemon(self: &Arc<Kernel>) {
        let Some(p) = &self.placement else { return };
        let kernel = Arc::clone(self);
        let tid = self.engine.spawn(
            NodeId::BOOT,
            "amber-placement".into(),
            Box::new(move || kernel.placement_daemon_loop()),
        );
        let _ = p.daemon.set(tid);
    }

    /// Signals the daemon to exit and wakes it. Called when the cluster's
    /// main thread returns.
    pub(crate) fn stop_placement_daemon(&self) {
        let Some(p) = &self.placement else { return };
        p.stop.store(true, Ordering::Release);
        if let Some(&tid) = p.daemon.get() {
            self.engine.unblock_kernel(tid);
        }
    }

    fn placement_daemon_loop(&self) {
        #[expect(clippy::expect_used, reason = "the daemon exists only with a policy")]
        let p = self
            .placement
            .as_ref()
            .expect("placement daemon without placement state");
        loop {
            if p.stop.load(Ordering::Acquire) {
                break;
            }
            self.engine.block_kernel("placement-tick");
            if p.stop.load(Ordering::Acquire) {
                break;
            }
            if !self.placement_tick() {
                // Quiet: the drain disarmed the tick, and the next
                // invocation arms another (see module docs).
                continue;
            }
            if p.stop.load(Ordering::Acquire) {
                break;
            }
            self.schedule_placement_tick();
        }
        crate::invoke::unregister_thread();
    }

    /// One placement round: drain counters, fold groups, consult the
    /// policy, execute its decisions as advisory moves. Returns `false`,
    /// with the tick disarmed inside the drain's registry visit, when the
    /// drain found no call.
    fn placement_tick(&self) -> bool {
        #[expect(clippy::expect_used, reason = "only the daemon ticks; it has a policy")]
        let p = self
            .placement
            .as_ref()
            .expect("placement tick without placement state");
        let n = self.engine.nodes();

        // Drain this tick's per-object counters under one registry guard
        // (an invocation counts before or after the drain, never inside it)
        // and copy out the attachment shape needed to fold groups onto
        // their roots and every immutable object's replica holders. The
        // policy runs with the lock released.
        let mut guard = self.objects.lock();
        if guard.map.values().all(|e| e.calls.iter().all(|&v| v == 0)) {
            // A quiet tick reads the slots and nothing else. Disarm while
            // the registry is still held: an invocation counted after this
            // visit takes the lock after it, so it finds the flag down and
            // arms the next tick.
            guard.armed = false;
            return false;
        }
        let Objects { map, tables, .. } = &mut *guard;
        let observed: HashMap<VAddr, Observation> = map
            .iter_mut()
            .map(|(&addr, e)| {
                let calls: Vec<u64> = e.calls.iter_mut().map(std::mem::take).collect();
                let replicas = if e.immutable {
                    (0..n)
                        .filter(|&i| tables[i].lookup(addr) == Some(Residency::Replica))
                        .map(NodeId::from)
                        .collect()
                } else {
                    Vec::new()
                };
                let obs = Observation {
                    location: e.location,
                    attached_to: e.attached_to,
                    immutable: e.immutable,
                    replicas,
                    calls,
                };
                (addr, obs)
            })
            .collect();
        drop(guard);

        // Groups move as one, so score whole groups: each object's traffic
        // is credited to its attachment root. The snapshot is one critical
        // section, so every chain in it is whole; the walk stays bounded
        // all the same.
        let mut tally: HashMap<VAddr, (&Observation, Vec<u64>)> = HashMap::new();
        for (addr, obs) in &observed {
            if obs.calls.iter().all(|&v| v == 0) {
                continue;
            }
            let mut root = *addr;
            let mut steps = 0usize;
            while let Some(parent) = observed.get(&root).and_then(|o| o.attached_to) {
                root = parent;
                steps += 1;
                if steps > observed.len() {
                    break;
                }
            }
            let Some(root_obs) = observed.get(&root) else {
                continue;
            };
            let entry = tally
                .entry(root)
                .or_insert_with(|| (root_obs, vec![0u64; n]));
            for (slot, v) in obs.calls.iter().enumerate() {
                entry.1[slot] += v;
            }
        }

        let mut samples: Vec<PlacementSample> = tally
            .into_iter()
            .map(|(addr, (root, calls_by_node))| PlacementSample {
                obj: addr.raw(),
                location: root.location,
                calls_by_node,
                immutable: root.immutable,
                replicas: root.replicas.clone(),
            })
            .collect();
        samples.sort_by_key(|s| s.obj);

        // Successful advisories count and trace *inside* the kernel, at the
        // claim point under the registry lock (so the event stream stays
        // linearized against destroys); only the skip bookkeeping lives
        // here.
        let decisions = p.policy.lock().decide(&samples);
        for d in decisions {
            let (obj, to, outcome) = match d {
                PlacementDecision::Move { obj, to } => {
                    (obj, to, self.advisory_move(VAddr(obj), to))
                }
                PlacementDecision::Replicate { obj, to } => {
                    (obj, to, self.advisory_replicate(VAddr(obj), to))
                }
            };
            if let Err(reason) = outcome {
                self.emit(ProtocolEvent::AdvisorySkipped {
                    obj,
                    at: to,
                    reason,
                });
            }
        }
        true
    }
}
