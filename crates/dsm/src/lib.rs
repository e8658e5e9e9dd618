//! An Ivy-style page-based distributed shared virtual memory.
//!
//! Section 4 of the Amber paper contrasts Amber's object-grained,
//! function-shipping coherence with Ivy's page-grained, data-shipping
//! shared virtual memory (Li & Hudak). To make that comparison measurable
//! rather than rhetorical, this crate implements the baseline: a DSM with
//!
//! * fixed distributed management: page *p* is managed by node
//!   `p mod N`, which tracks the page's owner and copyset;
//! * read faults that replicate the page read-only from its owner;
//! * write faults that transfer ownership and invalidate every copy;
//! * real bytes moving between per-node page frames (tests verify
//!   coherence on the data itself, not just on counters).
//!
//! The DSM runs beside the Amber object space over the same engine, so the
//! section-4 ablations (false sharing, multi-page objects, lock-variable
//! thrashing) compare the two models under identical network and CPU cost
//! models.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amber_core::{Ctx, NodeId, SimTime};
use amber_engine::ThreadId;
use parking_lot::Mutex;

/// Access level a node holds on a page frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PageAccess {
    /// Read-only replica.
    Read,
    /// Exclusive, writable copy (this node is the owner).
    Write,
}

/// One node's copy of a page.
struct Frame {
    data: Vec<u8>,
    access: PageAccess,
}

/// Manager-side state for one page (fixed distributed manager).
struct PageMeta {
    owner: NodeId,
    copyset: Vec<NodeId>,
    /// A fault protocol for this page is in flight; later faulters park.
    busy: bool,
    waiters: Vec<ThreadId>,
}

/// Counters exposed by [`Dsm::stats`].
#[derive(Default)]
pub struct DsmCounters {
    /// Read faults taken (page replicated in).
    pub read_faults: AtomicU64,
    /// Write faults taken (ownership transferred).
    pub write_faults: AtomicU64,
    /// Invalidation messages sent.
    pub invalidations: AtomicU64,
    /// Whole-page transfers over the network.
    pub page_transfers: AtomicU64,
    /// Local accesses that hit a valid frame.
    pub hits: AtomicU64,
    /// Ownership-location hops taken on faults (to the manager and on to
    /// the owner, excluding the final transfer).
    pub locate_hops: AtomicUsize,
}

/// Plain-data snapshot of [`DsmCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct DsmSnapshot {
    pub read_faults: u64,
    pub write_faults: u64,
    pub invalidations: u64,
    pub page_transfers: u64,
    pub hits: u64,
    pub locate_hops: u64,
}

struct DsmInner {
    page_size: usize,
    pages: usize,
    /// Per-page manager state. Indexed by page number; the *manager node*
    /// for page p is `p % nodes`, which determines message routing costs.
    meta: Vec<Mutex<PageMeta>>,
    /// Per-node page frames.
    frames: Vec<Mutex<HashMap<usize, Frame>>>,
    nodes: usize,
    counters: DsmCounters,
}

/// CPU cost of fielding one page fault (trap + handler).
const FAULT_CPU: SimTime = SimTime::from_us(300);
/// Size of a small DSM control message (fault request, forward, invalidate).
const CONTROL_BYTES: usize = 64;

/// A page-based shared virtual memory spanning the cluster.
///
/// Addresses run from `0` to `size_bytes()`. All pages start owned by node
/// 0 with zeroed contents, like freshly mapped shared memory.
///
/// # Examples
///
/// ```
/// use amber_core::{Cluster, NodeId};
/// use amber_dsm::Dsm;
///
/// let cluster = Cluster::sim(2, 1);
/// cluster
///     .run(|ctx| {
///         let dsm = Dsm::new(ctx, 4, 1024); // 4 pages of 1 KB
///         dsm.write_u64(ctx, 0, 42);
///         assert_eq!(dsm.read_u64(ctx, 0), 42);
///     })
///     .unwrap();
/// ```
#[derive(Clone)]
pub struct Dsm {
    inner: Arc<DsmInner>,
}

impl Dsm {
    /// Maps a shared memory of `pages` pages of `page_size` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `pages` or `page_size` is zero.
    pub fn new(ctx: &Ctx, pages: usize, page_size: usize) -> Dsm {
        assert!(pages > 0 && page_size > 0, "empty DSM");
        let nodes = ctx.nodes();
        let meta = (0..pages)
            .map(|_| {
                Mutex::new(PageMeta {
                    owner: NodeId(0),
                    copyset: Vec::new(),
                    busy: false,
                    waiters: Vec::new(),
                })
            })
            .collect();
        let mut frames: Vec<Mutex<HashMap<usize, Frame>>> =
            (0..nodes).map(|_| Mutex::new(HashMap::new())).collect();
        {
            let node0 = frames[0].get_mut();
            for p in 0..pages {
                node0.insert(
                    p,
                    Frame {
                        data: vec![0u8; page_size],
                        access: PageAccess::Write,
                    },
                );
            }
        }
        Dsm {
            inner: Arc::new(DsmInner {
                page_size,
                pages,
                meta,
                frames,
                nodes,
                counters: DsmCounters::default(),
            }),
        }
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> usize {
        self.inner.page_size
    }

    /// Total bytes mapped.
    pub fn size_bytes(&self) -> usize {
        self.inner.page_size * self.inner.pages
    }

    /// The manager node of `page` under the fixed distributed scheme.
    pub fn manager_of(&self, page: usize) -> NodeId {
        NodeId((page % self.inner.nodes) as u16)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DsmSnapshot {
        let c = &self.inner.counters;
        DsmSnapshot {
            read_faults: c.read_faults.load(Ordering::Relaxed),
            write_faults: c.write_faults.load(Ordering::Relaxed),
            invalidations: c.invalidations.load(Ordering::Relaxed),
            page_transfers: c.page_transfers.load(Ordering::Relaxed),
            hits: c.hits.load(Ordering::Relaxed),
            locate_hops: c.locate_hops.load(Ordering::Relaxed) as u64,
        }
    }

    fn check_range(&self, addr: usize, len: usize) {
        assert!(
            addr + len <= self.size_bytes(),
            "DSM access [{addr}, {}) out of bounds (size {})",
            addr + len,
            self.size_bytes()
        );
    }

    /// Ensures the calling thread's node holds `page` with at least the
    /// requested access, running the fault protocol if not.
    fn ensure(&self, ctx: &Ctx, page: usize, want_write: bool) {
        let me = ctx.thread_id();
        let here = ctx.node();
        loop {
            // Fast path: a sufficient frame already present.
            {
                let frames = self.inner.frames[here.index()].lock();
                if let Some(f) = frames.get(&page) {
                    if !want_write || f.access == PageAccess::Write {
                        self.inner.counters.hits.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
            // Serialize faulters per page.
            {
                let mut m = self.inner.meta[page].lock();
                if m.busy {
                    m.waiters.push(me);
                    drop(m);
                    ctx.park("dsm-fault-wait");
                    continue;
                }
                m.busy = true;
            }
            self.fault(ctx, page, want_write, here);
            let waiters = {
                let mut m = self.inner.meta[page].lock();
                m.busy = false;
                std::mem::take(&mut m.waiters)
            };
            for w in waiters {
                ctx.unpark(w);
            }
            // Loop: re-verify the frame (a concurrent write fault could
            // steal the page between our fault completing and the access).
        }
    }

    /// The fault protocol proper. Runs with the page marked busy.
    fn fault(&self, ctx: &Ctx, page: usize, want_write: bool, here: NodeId) {
        let c = &self.inner.counters;
        ctx.work(FAULT_CPU);
        let (owner, copyset) = {
            let m = self.inner.meta[page].lock();
            (m.owner, m.copyset.clone())
        };
        let manager = self.manager_of(page);
        // Fault request to the manager, who forwards to the owner (each leg
        // skipped when the roles coincide).
        if here != manager {
            ctx.net_wait(here, manager, CONTROL_BYTES, "dsm-fault-request");
            c.locate_hops.fetch_add(1, Ordering::Relaxed);
        }
        if manager != owner {
            ctx.net_wait(manager, owner, CONTROL_BYTES, "dsm-fault-forward");
            c.locate_hops.fetch_add(1, Ordering::Relaxed);
        }
        if want_write {
            c.write_faults.fetch_add(1, Ordering::Relaxed);
            // Invalidate every copy except the faulting node. Ivy pays one
            // round trip per copy holder; this is the artificial-sharing
            // cost the paper's section 4.2 warns about.
            for holder in copyset.iter().filter(|n| **n != here && **n != owner) {
                ctx.net_wait(owner, *holder, CONTROL_BYTES, "dsm-invalidate");
                ctx.net_wait(*holder, owner, CONTROL_BYTES, "dsm-invalidate-ack");
                c.invalidations.fetch_add(1, Ordering::Relaxed);
                self.inner.frames[holder.index()].lock().remove(&page);
            }
            // Page (with ownership) moves to the faulting node.
            let data = if owner != here {
                ctx.net_wait(owner, here, self.inner.page_size, "dsm-page-transfer");
                c.page_transfers.fetch_add(1, Ordering::Relaxed);
                c.invalidations.fetch_add(1, Ordering::Relaxed);
                self.inner.frames[owner.index()]
                    .lock()
                    .remove(&page)
                    .map(|f| f.data)
                    .expect("owner lost its page frame")
            } else {
                // Upgrading a read copy we already hold.
                self.inner.frames[here.index()]
                    .lock()
                    .remove(&page)
                    .map(|f| f.data)
                    .expect("upgrade without a local frame")
            };
            self.inner.frames[here.index()].lock().insert(
                page,
                Frame {
                    data,
                    access: PageAccess::Write,
                },
            );
            let mut m = self.inner.meta[page].lock();
            m.owner = here;
            m.copyset.clear();
        } else {
            c.read_faults.fetch_add(1, Ordering::Relaxed);
            // Owner sends a read-only copy and downgrades itself.
            ctx.net_wait(owner, here, self.inner.page_size, "dsm-page-copy");
            c.page_transfers.fetch_add(1, Ordering::Relaxed);
            let data = {
                let mut of = self.inner.frames[owner.index()].lock();
                let f = of.get_mut(&page).expect("owner lost its page frame");
                f.access = PageAccess::Read;
                f.data.clone()
            };
            self.inner.frames[here.index()].lock().insert(
                page,
                Frame {
                    data,
                    access: PageAccess::Read,
                },
            );
            let mut m = self.inner.meta[page].lock();
            if !m.copyset.contains(&here) {
                m.copyset.push(here);
            }
            if !m.copyset.contains(&owner) {
                m.copyset.push(owner);
            }
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, ctx: &Ctx, addr: usize, buf: &mut [u8]) {
        self.check_range(addr, buf.len());
        let here = ctx.node();
        let mut off = 0;
        while off < buf.len() {
            let a = addr + off;
            let page = a / self.inner.page_size;
            let in_page = a % self.inner.page_size;
            let n = (self.inner.page_size - in_page).min(buf.len() - off);
            self.ensure(ctx, page, false);
            let frames = self.inner.frames[here.index()].lock();
            let f = frames.get(&page).expect("frame vanished after ensure");
            buf[off..off + n].copy_from_slice(&f.data[in_page..in_page + n]);
            off += n;
        }
    }

    /// Writes `data` starting at `addr`.
    pub fn write(&self, ctx: &Ctx, addr: usize, data: &[u8]) {
        self.check_range(addr, data.len());
        let here = ctx.node();
        let mut off = 0;
        while off < data.len() {
            let a = addr + off;
            let page = a / self.inner.page_size;
            let in_page = a % self.inner.page_size;
            let n = (self.inner.page_size - in_page).min(data.len() - off);
            self.ensure(ctx, page, true);
            let mut frames = self.inner.frames[here.index()].lock();
            let f = frames.get_mut(&page).expect("frame vanished after ensure");
            f.data[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            off += n;
        }
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, ctx: &Ctx, addr: usize) -> u64 {
        let mut b = [0u8; 8];
        self.read(ctx, addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&self, ctx: &Ctx, addr: usize, v: u64) {
        self.write(ctx, addr, &v.to_le_bytes());
    }

    /// Reads an `f64` at `addr`.
    pub fn read_f64(&self, ctx: &Ctx, addr: usize) -> f64 {
        f64::from_bits(self.read_u64(ctx, addr))
    }

    /// Writes an `f64` at `addr`.
    pub fn write_f64(&self, ctx: &Ctx, addr: usize, v: f64) {
        self.write_u64(ctx, addr, v.to_bits());
    }

    /// Atomic test-and-set on the byte at `addr`: returns the old value and
    /// sets it to 1. This is the "shared lock variable" of section 4.1 —
    /// every contended call write-faults the whole page to the caller,
    /// which is exactly the thrashing behaviour the ablation measures.
    pub fn test_and_set(&self, ctx: &Ctx, addr: usize) -> u8 {
        self.check_range(addr, 1);
        let here = ctx.node();
        let page = addr / self.inner.page_size;
        let in_page = addr % self.inner.page_size;
        loop {
            self.ensure(ctx, page, true);
            let mut frames = self.inner.frames[here.index()].lock();
            match frames.get_mut(&page) {
                Some(f) if f.access == PageAccess::Write => {
                    let old = f.data[in_page];
                    f.data[in_page] = 1;
                    return old;
                }
                _ => {
                    // A concurrent write fault stole the page between our
                    // fault completing and the RMW; fault it back.
                    continue;
                }
            }
        }
    }

    /// Clears the byte at `addr` (lock release for
    /// [`test_and_set`](Dsm::test_and_set)).
    pub fn clear_byte(&self, ctx: &Ctx, addr: usize) {
        self.write(ctx, addr, &[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_core::Cluster;

    #[test]
    fn read_your_own_writes_locally() {
        let c = Cluster::sim(1, 1);
        c.run(|ctx| {
            let dsm = Dsm::new(ctx, 2, 256);
            dsm.write_u64(ctx, 8, 0xDEAD_BEEF);
            assert_eq!(dsm.read_u64(ctx, 8), 0xDEAD_BEEF);
        })
        .unwrap();
    }

    #[test]
    fn writes_are_visible_across_nodes() {
        let c = Cluster::sim(2, 1);
        c.run(|ctx| {
            let dsm = Dsm::new(ctx, 2, 256);
            dsm.write_u64(ctx, 0, 7);
            let d = dsm.clone();
            let remote = ctx.create_on(NodeId(1), 0u8);
            let h = ctx.start(&remote, move |ctx, _| {
                let v = d.read_u64(ctx, 0);
                d.write_u64(ctx, 0, v + 1);
            });
            h.join(ctx);
            assert_eq!(dsm.read_u64(ctx, 0), 8);
        })
        .unwrap();
    }

    #[test]
    fn read_fault_replicates_write_fault_invalidates() {
        let c = Cluster::sim(3, 1);
        let snap = c
            .run(|ctx| {
                let dsm = Dsm::new(ctx, 1, 128);
                dsm.write_u64(ctx, 0, 1); // node 0 owns, writes locally
                                          // Two remote readers replicate the page.
                for i in 1..3u16 {
                    let d = dsm.clone();
                    let a = ctx.create_on(NodeId(i), 0u8);
                    ctx.start(&a, move |ctx, _| d.read_u64(ctx, 0)).join(ctx);
                }
                let after_reads = dsm.stats();
                assert_eq!(after_reads.read_faults, 2);
                assert_eq!(after_reads.invalidations, 0);
                // Node 0 was downgraded to Read by the replications; its
                // next write faults and invalidates the two reader copies.
                dsm.write_u64(ctx, 0, 2);
                dsm.stats()
            })
            .unwrap();
        assert_eq!(snap.write_faults, 1);
        assert_eq!(snap.invalidations, 2);
    }

    #[test]
    fn false_sharing_ping_pongs_the_page() {
        // Two nodes write *different* variables that share a page: every
        // write faults. This is the artificial-sharing pathology of 4.2.
        let c = Cluster::sim(2, 1);
        let snap = c
            .run(|ctx| {
                let dsm = Dsm::new(ctx, 1, 1024);
                let rounds = 5;
                for _ in 0..rounds {
                    dsm.write_u64(ctx, 0, 1); // node 0's variable
                    let d = dsm.clone();
                    let a = ctx.create_on(NodeId(1), 0u8);
                    ctx.start(&a, move |ctx, _| d.write_u64(ctx, 64, 2))
                        .join(ctx);
                }
                dsm.stats()
            })
            .unwrap();
        // Every write after the first faults: ~2 per round.
        assert!(
            snap.write_faults >= 9,
            "expected ping-pong, saw {} write faults",
            snap.write_faults
        );
    }

    #[test]
    fn cross_page_access_is_split() {
        let c = Cluster::sim(1, 1);
        c.run(|ctx| {
            let dsm = Dsm::new(ctx, 2, 16);
            let data: Vec<u8> = (0..24).collect();
            dsm.write(ctx, 4, &data);
            let mut back = vec![0u8; 24];
            dsm.read(ctx, 4, &mut back);
            assert_eq!(back, data);
        })
        .unwrap();
    }

    #[test]
    fn test_and_set_admits_exactly_one() {
        let c = Cluster::sim(2, 2);
        let winners = c
            .run(|ctx| {
                let dsm = Dsm::new(ctx, 1, 64);
                let winners = ctx.create(0u32);
                let hs: Vec<_> = (0..4)
                    .map(|i| {
                        let d = dsm.clone();
                        let a = ctx.create_on(NodeId(i % 2), 0u8);
                        ctx.start(&a, move |ctx, _| {
                            if d.test_and_set(ctx, 0) == 0 {
                                ctx.invoke(&winners, |_, w| *w += 1);
                            }
                        })
                    })
                    .collect();
                for h in hs {
                    h.join(ctx);
                }
                ctx.invoke(&winners, |_, w| *w)
            })
            .unwrap();
        assert_eq!(winners, 1, "test_and_set admitted {winners} winners");
    }

    #[test]
    fn out_of_bounds_access_is_an_error() {
        let c = Cluster::sim(1, 1);
        let err = c
            .run(|ctx| {
                let dsm = Dsm::new(ctx, 1, 64);
                dsm.write_u64(ctx, 60, 1);
            })
            .unwrap_err();
        assert!(err.to_string().contains("out of bounds"), "{err}");
    }

    #[test]
    fn large_object_spans_many_pages_many_faults() {
        // Section 4.2: a remote data item larger than a page costs one
        // fault (and one transfer) per page when accessed in its entirety.
        let c = Cluster::sim(2, 1);
        let faults = c
            .run(|ctx| {
                let dsm = Dsm::new(ctx, 8, 128);
                // Node 0 initializes 1 KB; node 1 reads it all.
                let data = vec![0xABu8; 1024];
                dsm.write(ctx, 0, &data);
                let d = dsm.clone();
                let a = ctx.create_on(NodeId(1), 0u8);
                ctx.start(&a, move |ctx, _| {
                    let mut buf = vec![0u8; 1024];
                    d.read(ctx, 0, &mut buf);
                    assert!(buf.iter().all(|b| *b == 0xAB));
                })
                .join(ctx);
                dsm.stats().read_faults
            })
            .unwrap();
        assert_eq!(faults, 8, "one fault per page expected");
    }

    #[test]
    fn dsm_remote_fault_is_much_dearer_than_local_hit() {
        let c = Cluster::sim(2, 1);
        let (local, remote) = c
            .run(|ctx| {
                let dsm = Dsm::new(ctx, 2, 1024);
                dsm.write_u64(ctx, 0, 1); // node 0 now hits locally
                let t0 = ctx.now();
                dsm.write_u64(ctx, 8, 2); // local hit
                let local = ctx.now() - t0;
                let d = dsm.clone();
                let a = ctx.create_on(NodeId(1), 0u8);
                let remote = ctx
                    .start(&a, move |ctx, _| {
                        let t0 = ctx.now();
                        let _ = d.read_u64(ctx, 0); // remote read fault
                        ctx.now() - t0
                    })
                    .join(ctx);
                (local, remote)
            })
            .unwrap();
        assert!(
            remote.as_ns() > 100 * local.as_ns().max(1),
            "remote fault {remote} should dwarf local hit {local}"
        );
    }
}
