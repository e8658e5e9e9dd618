//! The Amber kernel: every fact about a cluster's objects and nodes.
//!
//! One `Kernel` underlies a whole cluster. Under its one lock, the object
//! registry, it keeps:
//!
//! * every object's entry — payload plus mobility metadata (location,
//!   immutability, attachment, bound threads, in-progress moves) — and
//!   every node's descriptor table from `amber-vspace`: an attachment
//!   group's walk, busy check and claim are a single critical section, and
//!   so is a chase step's `moving` park, descriptor read, home lookup and
//!   path compression;
//! * every node's heap and region-map cache from `amber-vspace`, and the
//!   address-space server (logically on the boot node; consulting it from
//!   elsewhere is charged as a network round trip): a creation allocates
//!   and inserts in one visit, and a destroy frees in its removal's;
//! * the placement tick's arming flag.
//!
//! It keeps no counters: a protocol fact is raised through
//! [`Kernel::emit`], which hands it to the engine's
//! [`Tracer::emit`](amber_engine::Tracer::emit) — the one door through
//! which a fact, the runtime's or the engine's, is both counted (a row
//! per node in the counting thread's own shard, see
//! [`amber_engine::stats`]) and traced.
//!
//! The registry being ordinary process memory is the reproduction of the
//! paper's identically-arranged virtual address spaces: an address means
//! the same thing everywhere, and *residency* is pure metadata. All costs of
//! distribution come from the explicit protocol charges and messages issued
//! by the methods in this crate, never from the data structures themselves.
//!
//! Locking (see DESIGN.md, "Locking discipline"): the object registry is
//! the kernel's one lock. It is never taken while it is held, and it is
//! never held across an engine block. A payload has no lock of its own:
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

/// What the registry lock guards: every kernel fact. An object's location,
/// its `moving` flag and each node's descriptor of it change in one
/// critical section, so a holder of the guard sees them agree; so do a
/// heap block and the entry that lives in it.
pub(crate) struct Objects {
    pub(crate) map: ObjectMap,
    /// Node `n`'s descriptor table at index `n`: resident, forwarding,
    /// replica or (no entry) uninitialized.
    pub(crate) tables: Box<[DescriptorTable]>,
    /// Node `n`'s heap at index `n`, carved from the regions the server
    /// assigned it.
    pub(crate) heaps: Box<[NodeHeap]>,
    /// Node `n`'s region-map cache at index `n`: the owner of every region
    /// it has heard of.
    pub(crate) regions: Box<[RegionMap]>,
    pub(crate) server: AddressSpaceServer,
    /// A placement tick timer is pending (see `adaptive.rs`, "Tick
    /// scheduling and quiescence").
    pub(crate) armed: bool,
}

/// The object registry: every kernel fact under the kernel's one lock.
///
/// Aligned to 128 bytes so the lock word shares no cache line with the
/// `Kernel` fields every operation reads. Unpadded among them,
/// `remote_invoke` measured about 3 % fewer ops/s; behind a `Box` instead,
/// the extra load cost `local_invoke` about 1 % (EXPERIMENTS.md, "The
/// kernel's lock", PR 30).
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

/// The cluster-wide kernel.
pub(crate) struct Kernel {
    pub(crate) engine: Arc<dyn Engine>,
    pub(crate) cost: CostModel,
    pub(crate) objects: Registry,
    /// Adaptive placement state (policy, stop flag, daemon handle); `None`
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
        let (heaps, regions): (Vec<_>, Vec<_>) = (0..n)
            .map(|i| {
                let node = NodeId::from(i);
                let region = server.assign(node);
                let mut heap = NodeHeap::new(node);
                heap.add_region(region);
                let mut regions = RegionMap::new();
                regions.learn(region, node);
                (heap, regions)
            })
            .unzip();
        Arc::new(Kernel {
            engine,
            cost,
            objects: Registry(OrderedMutex::new(Objects {
                map: ObjectMap::default(),
                tables: (0..n).map(|_| DescriptorTable::new()).collect(),
                heaps: heaps.into(),
                regions: regions.into(),
                server,
                armed: false,
            })),
            placement: policy.map(PlacementRuntime::new),
            demand_replication,
        })
    }

    /// Number of per-caller-node counter slots new objects get: the node
    /// count when adaptive placement is enabled, else 0 (no counting).
    pub(crate) fn call_slots(&self) -> usize {
        if self.placement.is_some() {
            self.engine.nodes()
        } else {
            0
        }
    }

    /// Fails the calling thread on a node id the program named but the
    /// cluster does not have, before any charge or message goes toward it.
    #[expect(clippy::disallowed_macros, reason = "a node past the cluster is a bug")]
    pub(crate) fn check_node(&self, node: NodeId) {
        assert!(node.index() < self.engine.nodes(), "no such {node}");
    }

    /// The node the current thread is executing on.
    pub(crate) fn current_node(&self) -> NodeId {
        self.engine.node_of(must_current_thread())
    }

    /// Raises one protocol fact through the engine's one `emit`: counted in
    /// its node's row and, if a trace sink is installed, recorded stamped
    /// with the engine clock and the current thread. Call it where the fact
    /// commits (under the registry guard that commits it, where there is
    /// one). With no sink this is a load and a store into the calling
    /// thread's own counter shard and one relaxed load; the clock is not
    /// read.
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

    /// The home node of `addr` for `asking`, whose region map missed: the
    /// address-space server's answer, a charged round trip off the boot
    /// node, which `asking`'s region map then keeps.
    pub(crate) fn ask_server(&self, asking: NodeId, addr: VAddr) -> NodeId {
        self.emit(ProtocolEvent::RegionLookup { node: asking });
        self.engine.work(self.cost.region_lookup);
        if asking != NodeId::BOOT {
            self.control_rtt(asking, NodeId::BOOT, "region-lookup");
        }
        let region = addr.region();
        let mut objects = self.objects.lock();
        #[expect(clippy::expect_used, reason = "addresses lie in assigned regions")]
        let owner = objects
            .server
            .owner(region)
            .expect("address outside any assigned region");
        objects.regions[asking.index()].learn(region, owner);
        owner
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
    /// `object_create` charge, then a heap block, the registry entry and the
    /// descriptor in one visit. A heap that needs a region first fetches
    /// one from the server, with the guard dropped across the round trip,
    /// and then adds it and allocates in the creation's visit.
    fn create_at<T: AmberObject>(&self, node: NodeId, value: T, size: usize) -> ObjRef<T> {
        self.engine.work(self.cost.object_create);
        let entry = ObjectEntry::new(value, node, size, self.call_slots());
        let bytes = size.max(1) as u64;
        let mut objects = self.objects.lock();
        let mut block = objects.heaps[node.index()].alloc(bytes);
        if let Err(HeapError::NeedRegion) = block {
            drop(objects);
            self.emit(ProtocolEvent::RegionExtension { node });
            if node != NodeId::BOOT {
                self.control_rtt(node, NodeId::BOOT, "region-extend");
            }
            self.engine.work(self.cost.region_lookup);
            objects = self.objects.lock();
            let region = objects.server.assign(node);
            objects.regions[node.index()].learn(region, node);
            let heap = &mut objects.heaps[node.index()];
            heap.add_region(region);
            block = heap.alloc(bytes);
        }
        let addr = match block {
            Ok(addr) => addr,
            #[expect(clippy::panic, reason = "only TooLarge is left: object > region")]
            Err(e) => panic!("heap allocation failed: {e}"),
        };
        objects.tables[node.index()].set_resident(addr);
        let prev = objects.map.insert(addr, entry);
        #[expect(clippy::disallowed_macros, reason = "destroy removes the entry first")]
        {
            debug_assert!(prev.is_none(), "heap handed out a live address");
        }
        // Emission under the registry lock keeps the trace stream
        // linearized with the registry transition: no destroy of a reused
        // address can slot its event between our insert and our
        // ObjectCreate.
        self.emit(ProtocolEvent::ObjectCreate { obj: addr.0, node });
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
            // The block goes back to the home heap, and the destroy is
            // emitted, under the lock that committed the removal: a creation
            // that reuses the address serializes after this event. A node
            // allocates only from regions assigned to it, so the home node
            // is the region's owner.
            #[expect(clippy::expect_used, reason = "addresses lie in assigned regions")]
            let home = objects
                .server
                .owner(addr.region())
                .expect("address outside any assigned region");
            let freed = objects.heaps[home.index()].free(addr);
            self.emit(ProtocolEvent::ObjectDestroy {
                obj: addr.0,
                node: me,
            });
            // Exactly one destroyer removes the entry, so a failed free
            // means heap-metadata corruption, which the free-pool scan
            // already self-heals: it is counted and traced rather than a
            // panic edge (visible in release builds instead of vanishing
            // with `debug_assert!`).
            if freed.is_err() {
                self.emit(ProtocolEvent::HeapFreeAnomaly {
                    obj: addr.0,
                    node: home,
                });
            }
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
