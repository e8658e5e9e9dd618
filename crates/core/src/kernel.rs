//! The Amber kernel: cluster-wide object registry and per-node state.
//!
//! One `Kernel` underlies a whole cluster. It owns:
//!
//! * the global object registry — payloads plus mobility metadata (location,
//!   immutability, attachment, bound threads, in-progress moves) — and every
//!   node's descriptor table from `amber-vspace`, all under one lock: an
//!   attachment group's walk, busy check and claim are a single critical
//!   section, and so is a chase step's `moving` park, descriptor read and
//!   path compression;
//! * per-node state — heaps and region-map caches from `amber-vspace`;
//! * the address-space server (logically on the boot node; consulting it
//!   from elsewhere is charged as a network round trip).
//!
//! It keeps no counters: a protocol fact is raised through
//! [`Kernel::emit`], which hands it to the engine's
//! [`Tracer::emit`](amber_engine::Tracer::emit) — the one door through
//! which a fact, the runtime's or the engine's, is both counted (a
//! cache-padded row per node, see [`amber_engine::stats`]) and traced.
//!
//! The registry being ordinary process memory is the reproduction of the
//! paper's identically-arranged virtual address spaces: an address means
//! the same thing everywhere, and *residency* is pure metadata. All costs of
//! distribution come from the explicit protocol charges and messages issued
//! by the methods in this crate, never from the data structures themselves.
//!
//! Locking (see DESIGN.md, "Locking discipline"): the object registry is
//! the one tracked lock. It is never taken while it is held, and no lock is
//! ever held across an engine block. A payload has no lock of its own:
//! admission, granted and released under the registry lock, is its guard.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;

use amber_engine::{
    must_current_thread, CostModel, Engine, NodeId, ProtocolEvent, SimTime, ThreadId,
};
use amber_verify::{OrderedMutex, OrderedMutexGuard};
use amber_vspace::{
    AddrMap, AddressSpaceServer, DescriptorTable, HeapError, NodeHeap, RegionMap, Residency, VAddr,
};
use parking_lot::Mutex;

use crate::adaptive::{PlacementPolicy, PlacementRuntime};
use crate::errors::ProtocolError;
use crate::objref::{AmberObject, ObjRef};

/// Access mode requested on an object payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Access {
    /// Exclusive (`&mut T`): serialized against all other access.
    Exclusive,
    /// Shared (`&T`): concurrent with other shared access. Used for
    /// intra-node parallel operations and immutable replicas.
    Shared,
}

/// An object's payload, type-erased, in one heap block its registry entry
/// owns, so it stays put when the map rehashes. Admission is its only guard
/// ([`Lent`]).
pub(crate) struct Payload<T: ?Sized = dyn Any + Send + Sync> {
    /// Checked builds' borrow word, RefCell-style: -1 while lent
    /// exclusively, else the number of shared loans out. Moved only under
    /// the registry lock, and never touched with the checkers off.
    loans: Cell<i32>,
    pub(crate) data: UnsafeCell<T>,
}

impl Payload {
    /// Moves the borrow word by one loan in `access` mode: admission lends
    /// as it grants, the exit visit gives back as it releases. Checked
    /// builds panic on an exclusive loan beside any other — the overlap a
    /// lock on the payload would have blocked — or on a give-back with no
    /// such loan out; with the checkers off it is a no-op.
    pub(crate) fn loan(&self, access: Access, lend: bool) {
        if amber_verify::ACTIVE {
            let out = self.loans.get();
            let (legal, next) = match (access, lend) {
                (Access::Exclusive, true) => (out == 0, -1),
                (Access::Exclusive, false) => (out == -1, 0),
                (Access::Shared, true) => (out >= 0, out + 1),
                (Access::Shared, false) => (out > 0, out - 1),
            };
            #[expect(clippy::disallowed_macros, reason = "admission lends what it grants")]
            {
                assert!(legal, "{access:?} loan (lend: {lend}) beside loans {out}");
            }
            self.loans.set(next);
        }
    }
}

/// What admission lends one invocation: its payload, `&mut` after
/// exclusive admission and `&` after shared. The loan borrows the kernel
/// and ends before the exit visit releases admission.
pub(crate) enum Lent<'k> {
    Exclusive(&'k mut (dyn Any + Send + Sync)),
    Shared(&'k (dyn Any + Send + Sync)),
}

impl<'k> Lent<'k> {
    /// The payload as a `T` from an exclusive loan.
    pub(crate) fn downcast_mut<T: 'static>(self) -> Option<&'k mut T> {
        match self {
            Lent::Exclusive(data) => data.downcast_mut(),
            Lent::Shared(_) => None,
        }
    }

    /// The payload as a `T`.
    pub(crate) fn downcast_ref<T: 'static>(self) -> Option<&'k T> {
        match self {
            Lent::Exclusive(data) => data.downcast_ref(),
            Lent::Shared(data) => data.downcast_ref(),
        }
    }
}

/// A waiting invoker queued behind the object's current operations.
pub(crate) struct OpWaiter {
    pub(crate) thread: ThreadId,
    pub(crate) access: Access,
}

/// A replica install under way to one node: the thread copying the object
/// there, and the readers on that node parked until the copy lands.
pub(crate) struct ReplicaInstall {
    pub(crate) node: NodeId,
    pub(crate) owner: ThreadId,
    pub(crate) waiters: Vec<ThreadId>,
}

/// Registry entry for one object.
pub(crate) struct ObjectEntry {
    /// The payload, lent to operations that run outside the registry lock.
    pub(crate) payload: Box<Payload>,
    /// Authoritative current location. The *protocol path* to discover it
    /// still follows per-node descriptors, so costs stay faithful; while
    /// the object is settled (`!moving`) this node's descriptor says
    /// `Resident` ([`check_resident`](ObjectEntry::check_resident)).
    pub(crate) location: NodeId,
    /// Home node (owner of the address's region); creation node.
    pub(crate) home: NodeId,
    /// Wire size, refreshed after each exclusive operation.
    pub(crate) size: usize,
    /// Computes the wire size from the type-erased payload.
    pub(crate) size_fn: fn(&(dyn Any + Send + Sync)) -> usize,
    /// Marked immutable at runtime: moves become copies (replication).
    pub(crate) immutable: bool,
    /// Objects attached to this one (they move when this moves).
    pub(crate) attached: Vec<VAddr>,
    /// The object this one is attached to, if any.
    pub(crate) attached_to: Option<VAddr>,
    /// Invocation frames currently bound to this object, over all threads
    /// and nesting depths (the *bound threads* of section 3.4/3.5, counted):
    /// incremented by an invoke's entry visit, decremented by its exit or
    /// unwind. A non-zero count makes `destroy` decline.
    pub(crate) bound: u32,
    /// Exclusive operation in progress (owner thread).
    pub(crate) excl_owner: Option<ThreadId>,
    /// Number of shared operations in progress.
    pub(crate) shared_count: u32,
    /// Invokers waiting for the payload.
    pub(crate) op_waiters: VecDeque<OpWaiter>,
    /// A move of this object is in flight; invokers park until it installs.
    pub(crate) moving: bool,
    /// Threads parked waiting for the in-flight move to complete.
    pub(crate) move_waiters: Vec<ThreadId>,
    /// Replica installs under way, at most one per node. They end with the
    /// entry: a destroy wakes their readers, and a copier whose claim is
    /// gone installs nothing.
    pub(crate) installs: Vec<ReplicaInstall>,
    /// Per-caller-node invocation counters for the adaptive placement
    /// engine: slot `n` counts invocations started on node `n` since the
    /// last placement tick drained them. Bumped and drained only under the
    /// registry lock the invoke path already holds, so the fast path takes
    /// no extra lock; empty when adaptive placement is disabled.
    pub(crate) calls: Box<[u64]>,
    /// Pinned by the user: the placement advisor never moves this object
    /// (explicit `MoveTo` still does).
    pub(crate) pinned: bool,
}

impl ObjectEntry {
    /// A fresh entry for an object just created on `node`. `call_slots` is
    /// the cluster's node count when adaptive placement is on, else 0.
    fn new<T: AmberObject>(value: T, node: NodeId, size: usize, call_slots: usize) -> ObjectEntry {
        ObjectEntry {
            payload: Box::new(Payload {
                loans: Cell::new(0),
                data: UnsafeCell::new(value),
            }),
            location: node,
            home: node,
            size,
            size_fn: |any| match any.downcast_ref::<T>() {
                Some(t) => t.transfer_size(),
                None => 0,
            },
            immutable: false,
            attached: Vec::new(),
            attached_to: None,
            bound: 0,
            excl_owner: None,
            shared_count: 0,
            op_waiters: VecDeque::new(),
            moving: false,
            move_waiters: Vec::new(),
            installs: Vec::new(),
            calls: vec![0; call_slots].into_boxed_slice(),
            pinned: false,
        }
    }

    /// The replica install under way to `node`, if any.
    pub(crate) fn install_at(&mut self, node: NodeId) -> Option<&mut ReplicaInstall> {
        self.installs.iter_mut().find(|i| i.node == node)
    }

    /// Claims the replica install to `node` for the copying thread `owner`.
    /// An entry holds at most one install per node, so call it only after
    /// [`install_at`](ObjectEntry::install_at) found none under the same
    /// guard.
    pub(crate) fn claim_install(&mut self, node: NodeId, owner: ThreadId) {
        self.installs.push(ReplicaInstall {
            node,
            owner,
            waiters: Vec::new(),
        });
    }

    /// Checked builds hold a settled object to the residency invariant: the
    /// descriptor at its location says `Resident`. Call it under the guard
    /// that read the entry; it is a no-op with the checkers off.
    #[inline]
    pub(crate) fn check_resident(&self, addr: VAddr, tables: &[DescriptorTable]) {
        if amber_verify::ACTIVE && !self.moving {
            let desc = tables[self.location.index()].lookup(addr);
            #[expect(
                clippy::disallowed_macros,
                reason = "checked builds hold the invariant"
            )]
            {
                assert_eq!(
                    desc,
                    Some(Residency::Resident),
                    "{addr} on {}",
                    self.location
                );
            }
        }
    }
}

/// The object registry's entries, keyed by object address.
pub(crate) type ObjectMap = AddrMap<ObjectEntry>;

/// What the registry lock guards: every object's entry and every node's
/// residency descriptors. An object's location, its `moving` flag and each
/// node's descriptor of it change in one critical section, so a holder of
/// the guard sees them agree.
pub(crate) struct Objects {
    pub(crate) map: ObjectMap,
    /// Node `n`'s descriptor table at index `n`: resident, forwarding,
    /// replica or (no entry) uninitialized.
    pub(crate) tables: Box<[DescriptorTable]>,
}

/// The object registry: entries and descriptor tables under one lock, the
/// kernel's one tracked lock.
///
/// Aligned to 128 bytes so the lock word shares no cache line with the
/// `Kernel` fields every operation reads. Unpadded among them,
/// `remote_invoke` measured about 3 % fewer ops/s; behind a `Box` instead,
/// the extra load cost `local_invoke` about 1 % (EXPERIMENTS.md, "one
/// registry lock").
#[repr(align(128))]
pub(crate) struct Registry(OrderedMutex<Objects>);

impl Registry {
    /// Takes the registry lock. Never held across an engine block and never
    /// taken while held: a nested `lock()` self-deadlocks, so a path that
    /// needs several entries takes the guard once and passes the map down.
    #[inline]
    pub(crate) fn lock(&self) -> OrderedMutexGuard<'_, Objects> {
        self.0.lock()
    }
}

/// Per-node kernel state.
pub(crate) struct NodeKernel {
    pub(crate) heap: Mutex<NodeHeap>,
    pub(crate) regions: Mutex<RegionMap>,
}

/// The cluster-wide kernel.
pub(crate) struct Kernel {
    pub(crate) engine: Arc<dyn Engine>,
    pub(crate) cost: CostModel,
    pub(crate) objects: Registry,
    pub(crate) nodes: Vec<NodeKernel>,
    pub(crate) server: Mutex<AddressSpaceServer>,
    /// Adaptive placement state (policy, tick arming, daemon handle); `None`
    /// when the cluster was built without a placement policy.
    pub(crate) placement: Option<PlacementRuntime>,
    /// When `true` (the default, the paper's semantics), a shared invocation
    /// of an immutable object replicates it to the caller's node on demand.
    /// When `false`, replicas install only where the placement advisor (or
    /// an explicit `MoveTo`) puts them, and other remote reads migrate the
    /// thread.
    pub(crate) demand_replication: bool,
}

impl Kernel {
    /// Builds kernel state over `engine`, assigning each node its startup
    /// region (paper, section 3.1).
    pub(crate) fn new(
        engine: Arc<dyn Engine>,
        cost: CostModel,
        policy: Option<Box<dyn PlacementPolicy>>,
        demand_replication: bool,
    ) -> Arc<Kernel> {
        let n = engine.nodes();
        let mut server = AddressSpaceServer::new();
        let nodes: Vec<NodeKernel> = (0..n)
            .map(|i| {
                let node = NodeId::from(i);
                let region = server.assign(node);
                let mut heap = NodeHeap::new(node);
                heap.add_region(region);
                let mut regions = RegionMap::new();
                regions.learn(region, node);
                NodeKernel {
                    heap: Mutex::new(heap),
                    regions: Mutex::new(regions),
                }
            })
            .collect();
        Arc::new(Kernel {
            engine,
            cost,
            objects: Registry(OrderedMutex::new(Objects {
                map: ObjectMap::default(),
                tables: (0..n).map(|_| DescriptorTable::new()).collect(),
            })),
            nodes,
            server: Mutex::new(server),
            placement: policy.map(PlacementRuntime::new),
            demand_replication,
        })
    }

    /// Number of per-caller-node counter slots new objects get: the node
    /// count when adaptive placement is enabled, else 0 (no counting).
    pub(crate) fn call_slots(&self) -> usize {
        if self.placement.is_some() {
            self.nodes.len()
        } else {
            0
        }
    }

    /// Fails the calling thread on a node id the program named but the
    /// cluster does not have, before any charge or message goes toward it.
    #[expect(clippy::disallowed_macros, reason = "a node past the cluster is a bug")]
    pub(crate) fn check_node(&self, node: NodeId) {
        assert!(node.index() < self.nodes.len(), "no such {node}");
    }

    /// The node the current thread is executing on.
    pub(crate) fn current_node(&self) -> NodeId {
        self.engine.node_of(must_current_thread())
    }

    /// Raises one protocol fact through the engine's one `emit`: counted in
    /// its node's row and, if a trace sink is installed, recorded stamped
    /// with the engine clock and the current thread. Call it where the fact
    /// commits (under the registry guard that commits it, where there is
    /// one). With no sink this is one relaxed add and one relaxed load; the
    /// clock is not read.
    #[inline]
    pub(crate) fn emit(&self, event: ProtocolEvent) {
        let engine = &*self.engine;
        engine.tracer().emit(|| engine.now(), event);
    }

    /// Sends a message and parks the current thread until it is delivered,
    /// modelling the thread waiting one network leg. Returns after the
    /// latency for `bytes` has elapsed. The wait is kernel-class: a user
    /// wake-up aimed at this thread (a lock hand-off, a barrier release) is
    /// held pending instead of ending it.
    pub(crate) fn one_way(&self, from: NodeId, to: NodeId, bytes: usize, reason: &'static str) {
        self.engine.leg(from, to, bytes, false, reason);
    }

    /// A full request/reply round trip of small control messages.
    pub(crate) fn control_rtt(&self, from: NodeId, to: NodeId, reason: &'static str) {
        let bytes = self.cost.control_packet_bytes;
        self.one_way(from, to, bytes, reason);
        self.one_way(to, from, bytes, reason);
    }

    /// Resolves the home node of `addr` as seen from `asking`, consulting
    /// the address-space server (a charged round trip) on a region-map miss.
    pub(crate) fn home_of(&self, asking: NodeId, addr: VAddr) -> NodeId {
        let region = addr.region();
        if let Some(owner) = self.nodes[asking.index()].regions.lock().lookup(region) {
            return owner;
        }
        self.emit(ProtocolEvent::RegionLookup { node: asking });
        self.engine.work(self.cost.region_lookup);
        if asking != NodeId::BOOT {
            self.control_rtt(asking, NodeId::BOOT, "region-lookup");
        }
        #[expect(clippy::expect_used, reason = "addresses lie in assigned regions")]
        let owner = self
            .server
            .lock()
            .owner(region)
            .expect("address outside any assigned region");
        self.nodes[asking.index()]
            .regions
            .lock()
            .learn(region, owner);
        owner
    }

    /// Allocates a heap block of `size` bytes on `node`, extending the
    /// node's pool from the address-space server if needed.
    pub(crate) fn heap_alloc(&self, node: NodeId, size: usize) -> VAddr {
        loop {
            let r = self.nodes[node.index()].heap.lock().alloc(size as u64);
            match r {
                Ok(addr) => return addr,
                Err(HeapError::NeedRegion) => {
                    self.emit(ProtocolEvent::RegionExtension { node });
                    // Fetch a fresh region from the server (round trip off
                    // the boot node).
                    if node != NodeId::BOOT {
                        self.control_rtt(node, NodeId::BOOT, "region-extend");
                    }
                    self.engine.work(self.cost.region_lookup);
                    let region = self.server.lock().assign(node);
                    let nk = &self.nodes[node.index()];
                    nk.regions.lock().learn(region, node);
                    nk.heap.lock().add_region(region);
                }
                #[expect(clippy::panic, reason = "only TooLarge is left: object > region")]
                Err(e) => panic!("heap allocation failed: {e}"),
            }
        }
    }

    /// Creates an object of type `T` resident on `node` and returns its
    /// reference. `node` must be the node the current thread runs on; use
    /// [`create_remote`](Kernel::create_remote) otherwise.
    pub(crate) fn create_local<T: AmberObject>(&self, node: NodeId, value: T) -> ObjRef<T> {
        #[expect(clippy::disallowed_macros, reason = "callers pass the current node")]
        {
            debug_assert_eq!(node, self.current_node());
        }
        let size = value.transfer_size();
        self.create_at(node, value, size)
    }

    /// Creates an object on a *different* node: the initial value travels in
    /// a creation request; the reply carries the new reference.
    pub(crate) fn create_remote<T: AmberObject>(&self, node: NodeId, value: T) -> ObjRef<T> {
        let from = self.current_node();
        #[expect(clippy::disallowed_macros, reason = "create_on sends only off-node")]
        {
            debug_assert_ne!(node, from);
        }
        let size = value.transfer_size();
        self.engine.work(self.cost.object_marshal);
        self.one_way(
            from,
            node,
            size + self.cost.control_packet_bytes,
            "create-request",
        );
        // We are logically at the target node's kernel now: allocate there.
        let obj = self.create_at(node, value, size);
        self.one_way(node, from, self.cost.control_packet_bytes, "create-reply");
        obj
    }

    /// What `node`'s kernel does for a creation, local or requested: the
    /// `object_create` charge, a heap block, then the registry entry and
    /// the descriptor in one visit.
    fn create_at<T: AmberObject>(&self, node: NodeId, value: T, size: usize) -> ObjRef<T> {
        self.engine.work(self.cost.object_create);
        let addr = self.heap_alloc(node, size.max(1));
        let entry = ObjectEntry::new(value, node, size, self.call_slots());
        // Emission under the registry lock keeps the trace stream
        // linearized with the registry transition: no destroy of a reused
        // address can slot its event between our insert and our
        // ObjectCreate.
        {
            let mut objects = self.objects.lock();
            objects.tables[node.index()].set_resident(addr);
            let prev = objects.map.insert(addr, entry);
            #[expect(clippy::disallowed_macros, reason = "destroy removes the entry first")]
            {
                debug_assert!(prev.is_none(), "heap handed out a live address");
            }
            self.emit(ProtocolEvent::ObjectCreate { obj: addr.0, node });
        }
        ObjRef::from_addr(addr)
    }

    /// Destroys an object, returning its heap block to the home node's free
    /// pool. The object must be idle (no operations in progress, no threads
    /// bound, no move in flight) and must not be part of an attachment.
    ///
    /// Races surface as typed errors, never panics: a double destroy (or a
    /// destroy of an address that never existed) is
    /// [`ProtocolError::ObjectDestroyed`]; a destroy that catches the object
    /// with operations in progress, mid-move, or attached is
    /// [`ProtocolError::ObjectBusy`]. All checks, the entry removal and
    /// every node's descriptor clear happen under one registry lock, so
    /// exactly one of two racing destroyers wins and the loser gets a
    /// deterministic `Err`.
    pub(crate) fn destroy(&self, addr: VAddr) -> Result<(), ProtocolError> {
        let me = self.current_node();
        let entry = {
            let mut objects = self.objects.lock();
            let Entry::Occupied(slot) = objects.map.entry(addr) else {
                return Err(ProtocolError::ObjectDestroyed(addr));
            };
            let e = slot.get();
            let busy = e.excl_owner.is_some()
                || e.shared_count != 0
                || e.bound != 0
                || e.moving
                || !e.attached.is_empty()
                || e.attached_to.is_some();
            if busy {
                // Busy objects stay alive, their entry untouched: the race
                // loser observed nothing but an `Err`.
                return Err(ProtocolError::ObjectBusy(addr));
            }
            let e = slot.remove();
            // Clear the address on *every* node, not just here/location/home:
            // replicas (demand- or advisor-installed) and cached forwarding
            // hints may live anywhere, and a stale `Replica` descriptor would
            // alias the next object the home heap hands out at this address.
            for table in objects.tables.iter_mut() {
                table.clear(addr);
            }
            // Emit under the same registry lock that committed the removal:
            // once the heap block is freed below, the address can be reused
            // and its ObjectCreate must serialize *after* this event.
            self.emit(ProtocolEvent::ObjectDestroy {
                obj: addr.0,
                node: me,
            });
            e
        };
        // A replica install under way ends with the entry: its copier finds
        // the claim gone, and the readers parked on it wake to find the
        // object destroyed.
        for install in &entry.installs {
            for &t in &install.waiters {
                self.engine.unblock_kernel(t);
            }
        }
        // The registry entry was removed atomically above, so exactly one
        // destroyer reaches this free; a failure would mean heap-metadata
        // corruption, which the free-pool scan already self-heals, so the
        // result is counted and traced rather than a panic edge (visible in
        // release builds instead of vanishing with `debug_assert!`).
        let freed = self.nodes[entry.home.index()].heap.lock().free(addr);
        if freed.is_err() {
            self.emit(ProtocolEvent::HeapFreeAnomaly {
                obj: addr.0,
                node: entry.home,
            });
        }
        Ok(())
    }

    /// Charges `cost` of CPU to the current thread, after first letting the
    /// thread chase its enclosing object if that object moved away (the
    /// context-switch residency re-check of section 3.5).
    pub(crate) fn work(&self, cost: SimTime) {
        self.recheck_residency();
        self.engine.work(cost);
    }

    /// Parks the current thread; on wake-up, re-checks residency like a
    /// context switch back in.
    pub(crate) fn park(&self, reason: &'static str) {
        self.engine.block_current(reason);
        self.recheck_residency();
    }

    /// Wakes `thread`.
    pub(crate) fn unpark(&self, thread: ThreadId) {
        self.engine.unblock(thread);
    }
}
