//! A seeded case sweep for property tests.
//!
//! [`sweep`]`(n, body)` runs `body` for cases `0..n`, each drawing its
//! inputs from its own stream of the engine's one mixer. Case 0 takes every
//! draw at its low end and case 1 at its high end, so the edge shapes (one
//! element, the longest vector, the largest value) run in every sweep. Cases
//! are pure functions of their index: a failing one fails on every run, and
//! the panic prints its index and what it drew.
//!
//! ```
//! use amber_engine::cases::sweep;
//!
//! sweep(8, |d| {
//!     let n = d.range(1usize..5);
//!     let v: Vec<u16> = (0..n).map(|_| d.range(0u16..4)).collect();
//!     assert!(!v.is_empty() && v.iter().all(|&x| x < 4));
//! });
//! ```

use std::fmt::Debug;
use std::ops::Range;

use crate::fault::splitmix;

/// Runs `body` over cases `0..n`.
pub fn sweep(n: u64, mut body: impl FnMut(&mut Case)) {
    for index in 0..n {
        let mut case = Case {
            index,
            state: splitmix(index),
            drawn: Vec::new(),
        };
        body(&mut case);
    }
}

/// One case of a [`sweep`]: its draws, and the guard that reports them when
/// the case panics.
pub struct Case {
    index: u64,
    state: u64,
    drawn: Vec<String>,
}

impl Case {
    /// An integer in `r`: `r.start` in case 0, its last value in case 1.
    pub fn range<T: Int>(&mut self, r: Range<T>) -> T {
        let (lo, hi) = (r.start.to_u64(), r.end.to_u64());
        #[expect(clippy::panic, reason = "an empty range is the calling test's fault")]
        let span = match hi.checked_sub(lo) {
            Some(span) if span > 0 => span,
            _ => panic!("empty range {r:?}"),
        };
        let v = T::from_u64(self.pick(lo, span));
        self.drawn.push(format!("{v:?}"));
        v
    }

    /// A boolean: `false` in case 0, `true` in case 1.
    pub fn bool(&mut self) -> bool {
        let v = self.pick(0, 2) == 1;
        self.drawn.push(v.to_string());
        v
    }

    /// A value in `lo..lo + span`.
    fn pick(&mut self, lo: u64, span: u64) -> u64 {
        match self.index {
            0 => lo,
            1 => lo + span - 1,
            _ => {
                self.state = splitmix(self.state);
                lo + self.state % span
            }
        }
    }

    fn report(&self) -> String {
        format!("case {} drew [{}]", self.index, self.drawn.join(", "))
    }
}

impl Drop for Case {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("{}", self.report());
        }
    }
}

/// An unsigned integer type a [`Case`] can draw.
pub trait Int: Copy + Debug {
    /// The value, widened.
    fn to_u64(self) -> u64;
    /// A value that fits, narrowed back.
    fn from_u64(v: u64) -> Self;
}

macro_rules! int {
    ($($t:ty),*) => {$(
        impl Int for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}
int!(u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    /// Every draw of one sweep of `n` cases, case by case.
    fn draws(n: u64) -> Vec<(usize, u16, u32, u64, bool)> {
        let mut out = Vec::new();
        sweep(n, |d| {
            out.push((
                d.range(3usize..17),
                d.range(1u16..4),
                d.range(4u32..24),
                d.range(0u64..1 << 48),
                d.bool(),
            ))
        });
        out
    }

    #[test]
    fn cases_zero_and_one_draw_the_ends_of_every_range() {
        let all = draws(2);
        assert_eq!(all[0], (3, 1, 4, 0, false));
        assert_eq!(all[1], (16, 3, 23, (1 << 48) - 1, true));
    }

    #[test]
    fn a_sweep_draws_the_same_values_on_every_run() {
        let all = draws(64);
        assert_eq!(all, draws(64));
        let later: std::collections::HashSet<_> = all[2..].iter().collect();
        assert!(later.len() > 32, "the streams barely differ: {later:?}");
        assert!(all.iter().all(|&(a, b, c, e, _)| {
            (3..17).contains(&a) && (1..4).contains(&b) && (4..24).contains(&c) && e < 1 << 48
        }));
    }

    #[test]
    #[should_panic(expected = "case 5 failed")]
    fn a_failing_case_reports_its_index_and_draws() {
        sweep(8, |d| {
            let (n, flip) = (d.range(10u16..20), d.bool());
            if d.index == 5 {
                assert_eq!(d.report(), format!("case 5 drew [{n}, {flip}]"));
                panic!("case 5 failed");
            }
        });
    }
}
