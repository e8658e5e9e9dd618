//! Global virtual addresses and regions.
//!
//! Amber avoids address translation by giving every object one virtual
//! address that means the same thing on every node (paper, section 3.1).
//! Our in-process reproduction models that address space explicitly:
//! a [`VAddr`] is a 64-bit global address, carved into fixed-size
//! [`RegionId`] regions (1 MB, as in the paper) that the address-space
//! server hands out to nodes for their private heap allocations.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Size of one heap region in bytes (the paper uses 1 MB regions).
pub const REGION_BYTES: u64 = 1 << 20;

/// Base of the dynamic-object address space. Everything below is reserved
/// for (replicated) program text and static data, mirroring the paper's
/// layout where code and statics occupy identical low addresses everywhere.
pub const HEAP_BASE: u64 = 0x0000_0100_0000_0000;

/// A global virtual address, valid on every node of the cluster.
///
/// The address of an object is the address of its descriptor (section 3.2);
/// objects never change address when they move.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(pub u64);

impl VAddr {
    /// The null address. Never points at an object.
    pub const NULL: VAddr = VAddr(0);

    /// Raw numeric value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// `true` for the null address.
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The address `offset` bytes past this one.
    pub const fn offset(self, offset: u64) -> VAddr {
        VAddr(self.0 + offset)
    }

    /// The region containing this address.
    pub const fn region(self) -> RegionId {
        RegionId(self.0 / REGION_BYTES)
    }
}

impl fmt::Debug for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VAddr({:#x})", self.0)
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Multiply-shift hasher for maps keyed by [`VAddr`]. Keys are addresses the
/// allocator issued, never outside input, so there is nothing for SipHash's
/// collision resistance to defend; one multiply spreads the 16-byte-aligned,
/// region-strided bits, and folding the product's high half down covers the
/// low bits the table indexes with.
#[derive(Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        // `VAddr` hashes through `write_u64`; this only has to be correct.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` keyed by [`VAddr`] under [`AddrHasher`].
pub type AddrMap<V> = HashMap<VAddr, V, BuildHasherDefault<AddrHasher>>;

/// Identifies one 1 MB region of the global address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegionId(pub u64);

impl RegionId {
    /// The lowest address in this region.
    pub const fn base(self) -> VAddr {
        VAddr(self.0 * REGION_BYTES)
    }

    /// One past the highest address in this region.
    pub const fn end(self) -> VAddr {
        VAddr((self.0 + 1) * REGION_BYTES)
    }

    /// `true` if `addr` falls inside this region.
    pub const fn contains(self, addr: VAddr) -> bool {
        addr.0 >= self.base().0 && addr.0 < self.end().0
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_of_address() {
        let a = VAddr(3 * REGION_BYTES + 17);
        assert_eq!(a.region(), RegionId(3));
        assert!(a.region().contains(a));
        assert!(!RegionId(2).contains(a));
    }

    #[test]
    fn region_bounds() {
        let r = RegionId(5);
        assert_eq!(r.base(), VAddr(5 * REGION_BYTES));
        assert_eq!(r.end(), VAddr(6 * REGION_BYTES));
        assert!(r.contains(r.base()));
        assert!(!r.contains(r.end()));
    }

    #[test]
    fn addr_hasher_spreads_allocator_patterns() {
        // Consecutive 16-byte blocks and same-offset blocks of consecutive
        // regions must each fill most of a 256-bucket table's low bits.
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<AddrHasher>::default();
        for stride in [16, REGION_BYTES] {
            let low: HashSet<u64> = (0..256u64)
                .map(|i| build.hash_one(VAddr(HEAP_BASE + i * stride)) & 255)
                .collect();
            assert!(low.len() >= 128, "stride {stride}: {} buckets", low.len());
        }
    }

    #[test]
    fn null_and_offset() {
        assert!(VAddr::NULL.is_null());
        assert_eq!(VAddr(100).offset(28), VAddr(128));
        assert!(!VAddr(1).is_null());
    }
}
