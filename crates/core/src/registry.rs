//! Sharded kernel state: the concurrent object registry.
//!
//! [`ObjectRegistry`] is a fixed power-of-two array of
//! [`CachePadded`]`<Mutex<AddrMap<..>>>` shards, shard chosen from the
//! object's address bits, so operations on different objects never share a
//! lock. Single-object paths (the invoke fast path) lock exactly one shard.
//! The rare multi-object paths (attachment-group moves, `Attach`/`Unattach`)
//! lock all of the group's shards through [`ObjectRegistry::lock_group`],
//! which acquires them in **ascending shard-index order** — the lock order
//! that makes concurrent group operations deadlock-free.
//!
//! A shard is authoritative for its entries' `location` and `moving`, which
//! is what lets an invoke's entry visit decide residency under the lock it
//! already holds (see [`crate::invoke`]). Per-thread state (the frame
//! stack) is not here at all: it is owned by the thread.
//!
//! None of this changes protocol behaviour: which events fire, which costs
//! are charged and which messages travel are untouched. Only real-lock
//! contention changes. See DESIGN.md, "Locking discipline".

use amber_verify::{LockLevel, OrderedMutex, OrderedMutexGuard};
use amber_vspace::{AddrMap, VAddr};

use crate::kernel::ObjectEntry;

/// Number of object-registry shards. Power of two so the shard index is a
/// mask of mixed address bits; 64 keeps per-shard collision odds low even
/// for clusters with thousands of live objects while staying cheap to
/// allocate per cluster.
pub(crate) const OBJ_SHARDS: usize = 64;

/// Pads and aligns its contents to 128 bytes so neighbouring shards never
/// share a cache line (two lines: covers adjacent-line prefetching on
/// modern x86).
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) T);

/// The shard index of an object address.
///
/// Heap blocks are 16-byte aligned (`amber_vspace::ALIGN`), so the low 4
/// bits carry no information; the bits directly above are the bump
/// allocator's sequence within a region, which spreads consecutively
/// created objects across consecutive shards. Higher bits are folded in so
/// region-aligned strides (objects allocated at the same offset of
/// different 1 MB regions) cannot alias onto one shard.
///
/// Routing is a pure function of the address: stable for the object's
/// lifetime (addresses never change, even across moves).
#[inline]
pub(crate) fn shard_of(addr: VAddr) -> usize {
    let a = addr.raw() >> 4;
    // `a >> 16` is the region number: a 1 MB region holds 2^16 blocks.
    ((a ^ (a >> 9) ^ (a >> 16)) as usize) & (OBJ_SHARDS - 1)
}

/// Shard locks are order-checked under `amber-verify`: every shard carries
/// `LockLevel::RegistryShard(index)`, so a misordered multi-shard
/// acquisition (or a shard taken while a descriptor table is held) is
/// reported rather than silently risking deadlock.
type ObjectShard = OrderedMutex<ObjectMap>;

/// One shard's entries, keyed by object address.
pub(crate) type ObjectMap = AddrMap<ObjectEntry>;

/// The cluster-wide object registry, sharded by address.
pub(crate) struct ObjectRegistry {
    shards: Box<[CachePadded<ObjectShard>]>,
}

impl ObjectRegistry {
    pub(crate) fn new() -> ObjectRegistry {
        ObjectRegistry {
            shards: (0..OBJ_SHARDS)
                .map(|i| {
                    CachePadded(OrderedMutex::new(
                        LockLevel::RegistryShard(i),
                        ObjectMap::default(),
                    ))
                })
                .collect(),
        }
    }

    /// Locks the single shard holding `addr`. The fast-path acquisition:
    /// one uncontended-unless-colliding mutex, never the whole registry.
    pub(crate) fn lock(&self, addr: VAddr) -> OrderedMutexGuard<'_, ObjectMap> {
        self.shards[shard_of(addr)].0.lock()
    }

    /// Locks every shard touched by `addrs` in ascending shard-index order
    /// (the documented multi-entry lock order) and returns a guard that
    /// resolves entries across the held shards.
    pub(crate) fn lock_group(&self, addrs: &[VAddr]) -> GroupGuard<'_> {
        let mut indices: Vec<usize> = addrs.iter().map(|a| shard_of(*a)).collect();
        indices.sort_unstable();
        indices.dedup();
        let guards = indices
            .into_iter()
            .map(|i| (i, self.shards[i].0.lock()))
            .collect();
        GroupGuard { guards }
    }

    /// Visits every entry, locking one shard at a time in ascending order.
    /// Callers must copy what they need out of `f` and format afterwards;
    /// the view is per-shard consistent, not a cluster-wide snapshot.
    pub(crate) fn for_each(&self, mut f: impl FnMut(VAddr, &ObjectEntry)) {
        for shard in self.shards.iter() {
            let map = shard.0.lock();
            for (a, e) in map.iter() {
                f(*a, e);
            }
        }
    }
}

/// Multi-shard guard returned by [`ObjectRegistry::lock_group`]: all shards
/// of an address set, held at once, acquired in ascending index order.
pub(crate) struct GroupGuard<'a> {
    /// `(shard index, guard)`, sorted ascending by index.
    guards: Vec<(usize, OrderedMutexGuard<'a, ObjectMap>)>,
}

impl GroupGuard<'_> {
    fn guard_of(&self, addr: VAddr) -> Option<usize> {
        let s = shard_of(addr);
        self.guards.binary_search_by_key(&s, |(i, _)| *i).ok()
    }

    /// The entry for `addr`, if its shard is held and the object exists.
    pub(crate) fn get(&self, addr: VAddr) -> Option<&ObjectEntry> {
        let i = self.guard_of(addr)?;
        self.guards[i].1.get(&addr)
    }

    /// Mutable entry access; same conditions as [`GroupGuard::get`].
    pub(crate) fn get_mut(&mut self, addr: VAddr) -> Option<&mut ObjectEntry> {
        let i = self.guard_of(addr)?;
        self.guards[i].1.get_mut(&addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The invariants every lock-order argument in the kernel rests on (a
    /// group sorted by shard index stays sorted on every re-lock): low
    /// addresses densely, then 16-aligned ones, as heap blocks are, up to
    /// half the address space.
    #[test]
    fn shard_of_is_in_range_and_stable() {
        let high_step = (u64::MAX / 2 / 4099) & !0xf;
        let high = (0..u64::MAX / 2).step_by(high_step as usize);
        for raw in (0..1_000_000u64).step_by(97).chain(high) {
            let a = VAddr(raw);
            let s = shard_of(a);
            assert!(s < OBJ_SHARDS);
            assert_eq!(s, shard_of(a), "routing must be a pure function");
        }
    }

    #[test]
    fn consecutive_allocations_spread_over_shards() {
        // A bump allocator hands out 16-byte-aligned consecutive blocks;
        // 64 consecutive small objects must not pile onto a few shards.
        use std::collections::HashSet;
        let hit: HashSet<usize> = (0..64u64).map(|i| shard_of(VAddr(i * 16))).collect();
        assert!(hit.len() >= 48, "only {} distinct shards", hit.len());
    }

    #[test]
    fn region_aligned_strides_do_not_alias() {
        // Objects at the same offset of different 1 MB regions are the
        // common structured pattern, not a corner: every node's first
        // region hands its n-th object the same offset, so a per-node
        // worker set built in a loop lands there. 64 consecutive regions
        // must take 64 shards; folding from one bit too high once put each
        // pair of neighbouring regions, hence nodes k and k+1, on one lock.
        use std::collections::HashSet;
        let hit: HashSet<usize> = (0..64u64)
            .map(|i| shard_of(VAddr(i * amber_vspace::REGION_BYTES + 32)))
            .collect();
        assert_eq!(hit.len(), OBJ_SHARDS);
    }

    #[test]
    fn group_guard_resolves_across_shards() {
        use std::collections::VecDeque;
        let reg = ObjectRegistry::new();
        let addrs: Vec<VAddr> = (1..5u64).map(|i| VAddr(i * 16)).collect();
        for &a in &addrs {
            reg.lock(a).insert(
                a,
                ObjectEntry {
                    cell: std::sync::Arc::new(crate::kernel::ObjectCell {
                        data: parking_lot::RwLock::new(Box::new(0u64)),
                    }),
                    location: amber_engine::NodeId(0),
                    home: amber_engine::NodeId(0),
                    size: 8,
                    size_fn: |_| 8,
                    immutable: false,
                    attached: Vec::new(),
                    attached_to: None,
                    bound: 0,
                    excl_owner: None,
                    shared_count: 0,
                    op_waiters: VecDeque::new(),
                    moving: false,
                    move_waiters: Vec::new(),
                    calls: Box::new([]),
                    pinned: false,
                },
            );
        }
        let mut g = reg.lock_group(&addrs);
        for &a in &addrs {
            assert!(g.get(a).is_some(), "{a} missing from group view");
            g.get_mut(a).unwrap().moving = true;
        }
        // An address whose shard is not held resolves to None, not a panic.
        let outside = VAddr(0x9999 * 16);
        if addrs.iter().all(|a| shard_of(*a) != shard_of(outside)) {
            assert!(g.get(outside).is_none());
        }
        drop(g);
        let mut count = 0;
        reg.for_each(|_, e| {
            assert!(e.moving);
            count += 1;
        });
        assert_eq!(count, addrs.len());
    }
}
