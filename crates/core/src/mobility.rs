//! Object mobility: MoveTo, Locate, Attach/Unattach and immutable
//! replication (paper, sections 2.3, 3.3 and 3.4).
//!
//! The protocol follows the paper:
//!
//! * `MoveTo` flips the source descriptor to a forwarding address *before*
//!   the contents travel, preempts the source node's processors so running
//!   threads re-check residency, transfers the object (and everything
//!   attached to it) in one bulk message, installs descriptors at the
//!   destination, and acknowledges. Threads bound to the object chase it
//!   lazily at their next residency check — the paper's own semantics.
//! * `Locate` follows the forwarding chain with small control probes and
//!   caches the discovered location locally.
//! * `Attach` builds groups of objects that are guaranteed co-located and
//!   move as one; attachment is dynamic, unlike Emerald's static version.
//! * Marking an object immutable turns subsequent `MoveTo` calls into
//!   replication: the destination installs a copy and the source keeps its
//!   own; shared invocations anywhere are then served by local replicas.
//!
//! Multi-object paths here follow the kernel's locking discipline: a
//! group's walk, busy check and `moving` claim run under one registry
//! guard, so membership cannot change between them. The descriptor tables
//! sit under the same guard, so a move's flips are one visit and its
//! install — every member's location with the destination's descriptor —
//! another.
//!
//! A replica install under way is part of the object's registry entry,
//! under the same guard as its descriptors. The visit that finds no copy
//! at a node claims the install there, and readers on that node who arrive
//! meanwhile park on it. The copier writes the `Replica` descriptor only
//! while its own claim stands. A destroy removes the entry, claims and all,
//! and wakes those readers, so the install ends with the object even when
//! the heap hands the freed address to a new object before the copy lands.

use amber_engine::{must_current_thread, NodeId, ProtocolEvent};
use amber_vspace::VAddr;

use crate::errors::ProtocolError;
use crate::invoke::{Chain, ChaseStep};
use crate::kernel::{Kernel, ObjectMap, Objects, ReplicaInstall};

/// The attachment closure rooted at `addr` in the held registry map: the
/// object plus everything transitively attached to it, in deterministic BFS
/// order (the order members were pushed). Attachments form a forest —
/// `attach` refuses cycles and a second parent under the same guard — so
/// the walk meets no member twice.
fn group_of(objects: &ObjectMap, addr: VAddr) -> Vec<VAddr> {
    let mut group = vec![addr];
    let mut i = 0;
    while i < group.len() {
        if let Some(e) = objects.get(&group[i]) {
            group.extend_from_slice(&e.attached);
        }
        i += 1;
    }
    group
}

impl Kernel {
    /// Explicitly moves the object (with its attachment group) to `dest`.
    ///
    /// Moving an *immutable* object copies it instead (the paper's stated
    /// `MoveTo`-on-immutable semantics). Moving to the current location is
    /// a no-op. The call is synchronous: it returns once the destination
    /// has installed the object and acknowledged.
    ///
    /// # Panics
    ///
    /// Panics if the object is unknown, or attached to another object (move
    /// the root of the attachment instead).
    pub(crate) fn move_to(&self, addr: VAddr, dest: NodeId) {
        self.move_object(addr, dest, false);
    }

    /// The internal move path behind [`move_to`](Kernel::move_to).
    ///
    /// `allow_attached` lets `attach` move a child that is *already*
    /// registered as attached, so co-location never opens a window in which
    /// a concurrent mover observes the child as detached (the old
    /// implementation temporarily lifted `attached_to` around the move).
    pub(crate) fn move_object(&self, addr: VAddr, dest: NodeId, allow_attached: bool) {
        self.check_node(dest);
        let me = must_current_thread();
        // Serialize concurrent moves of the same *group*, not just the same
        // root: an attach may be co-locating a member while we try to move
        // the root, and two in-flight transfers of one object interleave
        // their descriptor writes (leaving a stale Resident entry behind).
        // So the mover atomically claims the `moving` flag on every member
        // of the attachment group, parking if any member is already moving.
        // The walk, the busy check with its waiter registration and the
        // claim share one registry guard, so membership is stable from
        // computation through claim and no registration can race the wake;
        // the guard is dropped before any park or network work.
        let (source, immutable, group) = loop {
            let mut objects = self.objects.lock();
            #[expect(clippy::panic, reason = "MoveTo after destroy is a program bug")]
            let e = objects
                .map
                .get_mut(&addr)
                .unwrap_or_else(|| panic!("MoveTo on destroyed or unknown object {addr}"));
            if e.moving {
                e.move_waiters.push(me);
                drop(objects);
                self.engine.block_kernel("moveto-serialize");
                continue;
            }
            let (location, immutable, attached_to) = (e.location, e.immutable, e.attached_to);
            #[expect(clippy::disallowed_macros, reason = "only attach moves attached ones")]
            {
                assert!(
                    allow_attached || attached_to.is_none(),
                    "MoveTo on an attached object; move the attachment root"
                );
            }
            if immutable {
                break (location, true, Vec::new());
            }
            if location == dest {
                return;
            }
            let group = group_of(&objects.map, addr);
            if let Some(busy) = group
                .iter()
                .find(|a| objects.map.get(a).is_some_and(|m| m.moving))
            {
                #[expect(clippy::expect_used, reason = "busy was found under this guard")]
                objects
                    .map
                    .get_mut(busy)
                    .expect("checked above")
                    .move_waiters
                    .push(me);
                drop(objects);
                self.engine.block_kernel("moveto-serialize");
                continue;
            }
            #[expect(clippy::expect_used, reason = "destroy refuses attached objects")]
            for a in &group {
                objects
                    .map
                    .get_mut(a)
                    .expect("attached object vanished")
                    .moving = true;
            }
            break (location, false, group);
        };
        if immutable {
            // A concurrent destroy can win the race between the claim above
            // and the holder serving the copy; halt the thread under the
            // typed reason rather than aborting the process.
            self.replicate_at(addr, dest)
                .unwrap_or_else(|e| self.halt(e));
            return;
        }
        self.transfer_group(addr, source, dest, &group);
    }

    /// Executes a placement advisory: a one-shot, never-parking group move
    /// of `addr` to `dest`. Returns the reason the kernel declined on a
    /// skip — the advisor's proposals are best-effort and simply skipped
    /// when the object is pinned, mid-move, attached (a non-root),
    /// immutable, destroyed, or already at `dest`. The `AdvisoryMove` event
    /// is emitted at the claim point, under the registry lock, so the event
    /// stream cannot show an advisory for an object that was already
    /// destroyed.
    ///
    /// Unlike [`move_object`](Kernel::move_object), a busy group is a skip,
    /// not a wait: the placement daemon must never park on user-driven
    /// moves, and a mid-move object will be re-scored on a later tick.
    pub(crate) fn advisory_move(&self, addr: VAddr, dest: NodeId) -> Result<(), &'static str> {
        if dest.index() >= self.engine.nodes() {
            return Err("no-such-node");
        }
        let (source, group) = {
            let mut objects = self.objects.lock();
            let Some(e) = objects.map.get(&addr) else {
                return Err("destroyed");
            };
            if e.moving {
                return Err("mid-move");
            }
            if e.pinned {
                return Err("pinned");
            }
            if e.attached_to.is_some() {
                return Err("attached");
            }
            if e.immutable {
                return Err("immutable");
            }
            let root = e.location;
            if root == dest {
                return Err("already-there");
            }
            let group = group_of(&objects.map, addr);
            if group
                .iter()
                .any(|a| objects.map.get(a).is_none_or(|e| e.moving || e.pinned))
            {
                return Err("group-busy");
            }
            #[expect(clippy::expect_used, reason = "the check above found all live")]
            for a in &group {
                objects.map.get_mut(a).expect("checked above").moving = true;
            }
            // The claim committed: count and trace the advisory while the
            // registry is still locked, so no destroy can slot its event
            // before this one.
            self.emit(ProtocolEvent::AdvisoryMove {
                obj: addr.0,
                from: root,
                to: dest,
            });
            (root, group)
        };
        self.transfer_group(addr, source, dest, &group);
        Ok(())
    }

    /// The transfer half of a move: descriptors flip to forwarding before
    /// the bytes travel, the group transfers in one bulk message, installs
    /// at `dest`, acknowledges, and every thread parked on a member's
    /// `moving` flag wakes. Callers own the claim — every member's `moving`
    /// flag must already be set (or the group must be otherwise private).
    fn transfer_group(&self, addr: VAddr, source: NodeId, dest: NodeId, group: &[VAddr]) {
        let me = must_current_thread();
        let my_node = self.engine.node_of(me);

        self.engine.work(self.cost.move_initiate);

        // If the mover is not on the source node, the move request first
        // travels to the source (a control round trip).
        if my_node != source {
            self.control_rtt(my_node, source, "moveto-request");
        }

        let mut bytes = 0usize;
        {
            // Flip descriptors to forwarding *before* the transfer
            // (section 3.5 ordering) and gather the group size, in one
            // visit. Each member is flipped at its *own* current node: a
            // freshly attached child may not have reached the root's node
            // yet, and flipping only the root's table would leave the
            // child's node claiming residency after the group installs at
            // `dest`.
            let mut guard = self.objects.lock();
            let objects = &mut *guard;
            for a in group {
                #[expect(clippy::expect_used, reason = "destroy refuses a moving object")]
                let e = objects.map.get(a).expect("attached object vanished");
                bytes += e.size;
                objects.tables[e.location.index()].set_forward(*a, dest);
            }
        }
        self.emit(ProtocolEvent::ObjectMove {
            obj: addr.0,
            from: source,
            to: dest,
            group: group.len(),
            bytes,
        });
        // Preempt every processor on the source node so running threads
        // make a residency check before continuing (section 3.5).
        let procs = self.engine.processors(source);
        self.engine
            .work(self.cost.preempt_per_processor * procs as u64);
        self.engine.work(self.cost.object_marshal);

        // Bulk transfer to the destination; the handler installs the group.
        self.one_way(source, dest, bytes, "moveto-transfer");
        // We are logically the destination kernel now: install. Each
        // member's location and its destination descriptor change in one
        // visit.
        self.engine.work(self.cost.move_install);
        {
            let mut objects = self.objects.lock();
            #[expect(clippy::expect_used, reason = "destroy refuses a moving object")]
            for a in group {
                objects
                    .map
                    .get_mut(a)
                    .expect("attached object vanished")
                    .location = dest;
                objects.tables[dest.index()].set_resident(*a);
                // Every member (root included) marks its arrival while the
                // registry is locked: the event precedes any observation of
                // the new location, so a hint repaired toward `dest` can
                // never appear in the trace before the install that made
                // `dest` a legitimate host.
                self.emit(ProtocolEvent::MoveInstalled { obj: a.0, to: dest });
            }
        }
        // Acknowledge back to the source (completes the synchronous move).
        self.one_way(dest, source, self.cost.control_packet_bytes, "moveto-ack");
        // Clear the moving flag on every group member and release anyone
        // who parked on any of them.
        let waiters = {
            let mut guard = self.objects.lock();
            let objects = &mut *guard;
            let mut ws = Vec::new();
            for a in group {
                #[expect(clippy::expect_used, reason = "destroy refuses a moving object")]
                let e = objects.map.get_mut(a).expect("moved object vanished");
                e.moving = false;
                e.check_resident(*a, &objects.tables);
                ws.append(&mut e.move_waiters);
            }
            ws
        };
        for t in waiters {
            self.engine.unblock_kernel(t);
        }
        // If the mover itself is bound to the moved object, chase it now.
        self.recheck_residency();
    }

    /// Installs a replica of immutable object `addr` on the current node if
    /// one is not already present. Fails (instead of panicking) when a
    /// concurrent destroy wins the race — see
    /// [`replicate_at`](Kernel::replicate_at).
    pub(crate) fn replicate_here(&self, addr: VAddr) -> Result<NodeId, ProtocolError> {
        let here = self.current_node();
        self.replicate_at(addr, here)
    }

    /// Installs a replica of immutable object `addr` on `node`, parking if
    /// another thread is already installing one there. Returns the node the
    /// copy came from, or [`ProtocolError::ObjectDestroyed`] when a
    /// concurrent destroy races the transfer.
    fn replicate_at(&self, addr: VAddr, node: NodeId) -> Result<NodeId, ProtocolError> {
        let me = must_current_thread();
        // One transfer per (object, node). Each visit answers "already
        // local", parks the caller on the install under way at `node`, or
        // claims the install in the object's entry and reads the holder.
        let location = loop {
            let mut guard = self.objects.lock();
            let Objects { map, tables, .. } = &mut *guard;
            if tables[node.index()].is_local(addr) {
                // Already resident or replicated here; report the node
                // itself as the (trivial) source.
                return Ok(node);
            }
            // Immutability is never lifted, so a mutable entry is a new
            // object at the address of one destroyed since the caller
            // looked.
            let Some(e) = map.get_mut(&addr).filter(|e| e.immutable) else {
                return Err(ProtocolError::ObjectDestroyed(addr));
            };
            match e.install_at(node) {
                Some(install) => install.waiters.push(me),
                None => {
                    e.claim_install(node, me);
                    break e.location;
                }
            }
            drop(guard);
            self.engine.block_kernel("replica-wait");
        };
        self.replicate_install(addr, node, location)
    }

    /// The transfer half of replication, run by the thread whose claim on
    /// `node` sits in the object's entry: a request to the holder at
    /// `location`, the copy back, the install. A destroy takes the claim
    /// away with the entry, and the heap may hand the freed block to a new
    /// object whose entry has no such claim, so each later visit goes on
    /// only while this thread's claim stands. The install clears it and
    /// wakes the readers parked on it.
    fn replicate_install(
        &self,
        addr: VAddr,
        node: NodeId,
        location: NodeId,
    ) -> Result<NodeId, ProtocolError> {
        let me = must_current_thread();
        let mine = |i: &ReplicaInstall| i.node == node && i.owner == me;
        // Request/response with the holder: a control request, then the
        // object's bytes come back. (An immutable object never moves, so
        // `location` stays valid across the blocking sends below.)
        let my_node = self.current_node();
        self.one_way(
            my_node,
            location,
            self.cost.control_packet_bytes,
            "replica-request",
        );
        // The holder reads the object only now, when the request arrives: a
        // destroy that won the race while the request was in flight makes
        // the copy impossible.
        let size = self
            .objects
            .lock()
            .map
            .get(&addr)
            .filter(|e| e.installs.iter().any(mine))
            .map(|e| e.size);
        let Some(size) = size else {
            return Err(ProtocolError::ObjectDestroyed(addr));
        };
        self.one_way(location, node, size, "replica-data");
        if my_node != node {
            // Third-party replication (MoveTo of an immutable to elsewhere,
            // or a placement advisory): the destination confirms back to
            // the requester.
            self.one_way(node, my_node, self.cost.control_packet_bytes, "replica-ack");
        }
        self.engine.work(self.cost.move_install);
        // The claim check, the descriptor write, the Replication event and
        // the claim's release commit in one visit, atomically with respect
        // to a racing destroy.
        let waiters = {
            let mut guard = self.objects.lock();
            let Objects { map, tables, .. } = &mut *guard;
            let install = map.get_mut(&addr).and_then(|e| {
                let ix = e.installs.iter().position(mine)?;
                Some(e.installs.swap_remove(ix))
            });
            let Some(install) = install else {
                return Err(ProtocolError::ObjectDestroyed(addr));
            };
            tables[node.index()].set_replica(addr);
            self.emit(ProtocolEvent::Replication {
                obj: addr.0,
                from: location,
                to: node,
                bytes: size,
            });
            install.waiters
        };
        for t in waiters {
            self.engine.unblock_kernel(t);
        }
        Ok(location)
    }

    /// Executes a replication advisory: a one-shot, never-parking replica
    /// install of immutable object `addr` on `dest`. Returns the reason the
    /// kernel declined on a skip — like
    /// [`advisory_move`](Kernel::advisory_move), proposals are best-effort
    /// and a declined one costs one skip event. The advisory counter and
    /// trace event are emitted at the claim point, under the registry lock, so
    /// the event stream cannot show an advisory for a destroyed object; a
    /// destroy racing the transfer after that point is a benign failed
    /// install, not a skip.
    ///
    /// Where a plain reader parks on an in-flight install, the placement
    /// daemon skips (`mid-install`): the replica is arriving anyway, and the
    /// daemon must never park on user-driven traffic.
    pub(crate) fn advisory_replicate(&self, addr: VAddr, dest: NodeId) -> Result<(), &'static str> {
        if dest.index() >= self.engine.nodes() {
            return Err("no-such-node");
        }
        let me = must_current_thread();
        let from = {
            let mut guard = self.objects.lock();
            let Objects { map, tables, .. } = &mut *guard;
            let Some(e) = map.get_mut(&addr) else {
                return Err("destroyed");
            };
            if e.install_at(dest).is_some() {
                return Err("mid-install");
            }
            if tables[dest.index()].is_local(addr) {
                return Err("already-there");
            }
            if !e.immutable {
                return Err("not-immutable");
            }
            if e.moving {
                return Err("mid-move");
            }
            if e.location == dest {
                return Err("already-there");
            }
            e.claim_install(dest, me);
            // The advisory is committed: count and trace it while the
            // object is provably live under the registry lock.
            self.emit(ProtocolEvent::AdvisoryReplicate {
                obj: addr.0,
                from: e.location,
                to: dest,
            });
            e.location
        };
        // A destroy winning the race mid-transfer fails the install
        // quietly: the advisory itself already counted.
        let _ = self.replicate_install(addr, dest, from);
        Ok(())
    }

    /// Marks the object immutable: it will never again be modified, so
    /// subsequent moves copy it and shared invocations replicate it.
    ///
    /// # Panics
    ///
    /// Panics if an exclusive operation is in progress.
    pub(crate) fn set_immutable(&self, addr: VAddr) {
        let mut objects = self.objects.lock();
        #[expect(clippy::panic, reason = "set_immutable after destroy is a program bug")]
        let e = objects
            .map
            .get_mut(&addr)
            .unwrap_or_else(|| panic!("set_immutable on destroyed object {addr}"));
        #[expect(clippy::disallowed_macros, reason = "freezing mid-op is a program bug")]
        {
            assert!(
                e.excl_owner.is_none(),
                "set_immutable while an exclusive operation is in progress"
            );
        }
        e.immutable = true;
    }

    /// `true` if the object has been marked immutable.
    pub(crate) fn is_immutable(&self, addr: VAddr) -> bool {
        self.objects
            .lock()
            .map
            .get(&addr)
            .is_some_and(|e| e.immutable)
    }

    /// Attaches `child` to `parent`: co-locates them now and makes `child`
    /// follow every subsequent move of `parent`.
    ///
    /// # Panics
    ///
    /// Panics if either object is unknown, if `child` is already attached,
    /// or if attaching would create a cycle.
    pub(crate) fn attach(&self, child: VAddr, parent: VAddr) {
        #[expect(clippy::disallowed_macros, reason = "self-attach is a program bug")]
        {
            assert_ne!(child, parent, "an object cannot attach to itself");
        }
        {
            // One registry guard covers the known check, the cycle walk and
            // the link, so the structure cannot change under the walk and
            // the mutation serializes against concurrent group claims.
            let mut objects = self.objects.lock();
            #[expect(clippy::disallowed_macros, reason = "Attach after destroy is a bug")]
            {
                assert!(
                    objects.map.contains_key(&parent) && objects.map.contains_key(&child),
                    "attach of unknown object"
                );
            }
            // Cycle check: walk up from parent.
            let mut cur = Some(parent);
            while let Some(a) = cur {
                #[expect(clippy::disallowed_macros, reason = "a cyclic Attach is a program bug")]
                {
                    assert_ne!(a, child, "attachment cycle");
                }
                cur = objects.map.get(&a).and_then(|e| e.attached_to);
            }
            #[expect(clippy::expect_used, reason = "the known check above found it")]
            let c = objects.map.get_mut(&child).expect("child vanished");
            #[expect(clippy::disallowed_macros, reason = "attaching twice is a program bug")]
            {
                assert!(
                    c.attached_to.is_none(),
                    "object is already attached; Unattach first"
                );
            }
            c.attached_to = Some(parent);
            #[expect(clippy::expect_used, reason = "the known check above found it")]
            objects
                .map
                .get_mut(&parent)
                .expect("parent vanished")
                .attached
                .push(child);
        }
        // Co-locate immediately: bring the child to the parent's node via
        // the internal move path, which accepts an attached root. The old
        // implementation lifted `attached_to` around a public `move_to`,
        // opening a window in which a concurrent `MoveTo` of the parent
        // computed its attachment group without the child (and the child's
        // own move then targeted a stale parent location). Re-reading the
        // parent's location each round closes the race: if the parent moves
        // underneath us, we chase it until both agree.
        let me = must_current_thread();
        let mut rounds = 0u32;
        loop {
            // Only compare *settled* locations: if either object is
            // mid-move, park on its waiters and re-read afterwards. The
            // busy check and waiter registration share one registry guard.
            let settled = {
                let mut objects = self.objects.lock();
                let busy = [parent, child]
                    .into_iter()
                    .find(|a| objects.map.get(a).is_some_and(|e| e.moving));
                if let Some(busy) = busy {
                    #[expect(clippy::expect_used, reason = "busy was found under this guard")]
                    objects
                        .map
                        .get_mut(&busy)
                        .expect("checked above")
                        .move_waiters
                        .push(me);
                    None
                } else {
                    Some((
                        #[expect(clippy::expect_used, reason = "destroy refuses attached objects")]
                        objects.map.get(&parent).expect("parent vanished").location,
                        #[expect(clippy::expect_used, reason = "destroy refuses attached objects")]
                        objects.map.get(&child).expect("child vanished").location,
                    ))
                }
            };
            let Some((parent_loc, child_loc)) = settled else {
                self.engine.block_kernel("attach-await-move");
                continue;
            };
            if parent_loc == child_loc {
                break;
            }
            rounds += 1;
            #[expect(clippy::disallowed_macros, reason = "each round chases the parent")]
            {
                assert!(rounds < 10_000, "attach co-location did not converge");
            }
            self.move_object(child, parent_loc, true);
        }
    }

    /// Detaches `child` from whatever it is attached to.
    ///
    /// # Panics
    ///
    /// Panics if the object is unknown or not attached.
    pub(crate) fn unattach(&self, child: VAddr) {
        // Structure mutation: both halves of the link go under one registry
        // guard, so no group walk or attach sees one without the other.
        let mut objects = self.objects.lock();
        #[expect(clippy::panic, reason = "Unattach after destroy is a program bug")]
        let c = objects
            .map
            .get_mut(&child)
            .unwrap_or_else(|| panic!("unattach of unknown object {child}"));
        #[expect(clippy::expect_used, reason = "Unattach needs a prior Attach")]
        let parent = c
            .attached_to
            .take()
            .expect("unattach of an object that is not attached");
        #[expect(clippy::expect_used, reason = "destroy refuses attached objects")]
        objects
            .map
            .get_mut(&parent)
            .expect("attachment parent vanished")
            .attached
            .retain(|a| *a != child);
    }

    /// Pins the object: the adaptive placement advisor will never move it
    /// (an explicit `MoveTo` still will). Pinning is advisory-only state; a
    /// pinned object behaves identically in every other respect.
    ///
    /// # Panics
    ///
    /// Panics if the object is unknown or destroyed.
    pub(crate) fn pin(&self, addr: VAddr) {
        self.set_pinned(addr, true);
    }

    /// Clears a [`pin`](Kernel::pin): the placement advisor may move the
    /// object again.
    ///
    /// # Panics
    ///
    /// Panics if the object is unknown or destroyed.
    pub(crate) fn unpin(&self, addr: VAddr) {
        self.set_pinned(addr, false);
    }

    fn set_pinned(&self, addr: VAddr, pinned: bool) {
        let mut objects = self.objects.lock();
        #[expect(clippy::panic, reason = "pin/unpin after destroy is a program bug")]
        let e = objects
            .map
            .get_mut(&addr)
            .unwrap_or_else(|| panic!("pin/unpin of destroyed or unknown object {addr}"));
        e.pinned = pinned;
    }

    /// Locates the object by following the forwarding chain with control
    /// probes (the thread does not move). Caches the answer locally.
    /// Returns a typed error for destroyed objects and chases that exceed
    /// the hop bound.
    ///
    /// Resolution is replica-first: a `Resident` or `Replica` descriptor on
    /// the caller's own node answers immediately — one registry visit, no
    /// probe on the wire. When a chase does run, the reply piggybacks the
    /// resolved location and every node the chase passed through rewrites
    /// its descriptor to a one-hop forward (LOCUS-style path compression),
    /// so the chain shortens for everyone behind this chase, not just the
    /// chasing node.
    ///
    /// Each step down the chain is a
    /// [`chase_step`](crate::kernel::Objects::chase_step) and a
    /// [`chase_hop`](Kernel::chase_hop), the same ones an invoking thread
    /// takes, so a locate that lands mid-move parks until the move installs
    /// instead of reading descriptors mid-transfer. The origin's own
    /// descriptor and the first step share one registry visit.
    pub(crate) fn locate(&self, addr: VAddr) -> Result<NodeId, ProtocolError> {
        let me = must_current_thread();
        let origin = self.engine.node_of(me);
        let mut step = {
            let mut objects = self.objects.lock();
            if objects.tables[origin.index()].is_local(addr) {
                return Ok(origin);
            }
            objects.chase_step(addr, origin, me)?
        };
        let mut cur = origin;
        let mut hops = 0u32;
        let mut chain = Chain::default();
        loop {
            match step {
                ChaseStep::Found(_) => break,
                ChaseStep::Park => self.engine.block_kernel("await-move-install"),
                ChaseStep::Next(hop) => {
                    let next = self.chase_hop(hop, addr, cur, &mut hops)?;
                    self.one_way(cur, next, self.cost.control_packet_bytes, "locate-probe");
                    chain.push(cur);
                    cur = next;
                }
            }
            step = self.objects.lock().chase_step(addr, cur, me)?;
        }
        if cur != origin {
            // One reply message carries the resolved location back, and
            // every distinct node the chase passed through (the origin
            // included) compresses its descriptor to a one-hop forward as
            // the answer passes — the rewrites ride the reply, no extra
            // packets.
            self.one_way(cur, origin, self.cost.control_packet_bytes, "locate-reply");
            self.compress(&mut self.objects.lock().tables, addr, &chain, cur);
        }
        Ok(cur)
    }
}
