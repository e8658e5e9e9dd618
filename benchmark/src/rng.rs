//! Seeded input generation: a SplitMix64 stream and an FNV-1a hash.
//!
//! Every workload draws its op sequence from [`Rng`] before the measured
//! phase starts, so the program under test receives only generated inputs
//! and the generator's own cost is never timed.

/// SplitMix64: tiny, fast and good enough to pick objects and op kinds.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `lane` (worker index, or a
    /// constant naming what the stream is for).
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for the
    /// small ranges the generators use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a over the words of an op sequence; the generator tests compare
/// these to show that a seed fixes the inputs.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeqHash(pub u64);

#[cfg(test)]
impl SeqHash {
    pub fn new() -> SeqHash {
        SeqHash(0xCBF2_9CE4_8422_2325)
    }

    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_lanes_differ() {
        let a: Vec<u64> = (0..8).map(|_| Rng::new(7, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::new(7, 0);
        let mut y = Rng::new(7, 1);
        let mut z = Rng::new(8, 0);
        let (x, y, z) = (x.next_u64(), y.next_u64(), z.next_u64());
        assert!(x != y && x != z && y != z);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1, 0);
        assert!((0..10_000).all(|_| r.below(7) < 7));
    }
}
