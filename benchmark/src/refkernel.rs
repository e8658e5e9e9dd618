//! The two std-only reference kernels that bracket every round.
//!
//! The host this benchmark runs on drifts by roughly ±15 % over tens of
//! seconds. A reference kernel that uses nothing from the repository is run
//! immediately before and after each round, on the same CPU, and the
//! round's wall-clock rate is divided by how fast the reference ran (see
//! [`crate::stats::drift_corrected`]). Two kernels, because a workload that
//! blocks is a chain of OS-thread hand-offs and drifts with the scheduler,
//! while one that never blocks drifts with the core's clock and caches.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefKernel {
    /// Two std threads ping-ponging a turn flag over `Mutex` + `Condvar`.
    Handoff,
    /// An uncontended `Mutex<HashMap>` probe loop on one thread.
    Compute,
}

impl RefKernel {
    /// The kernel's speed on the host the benchmark was defined on, pinned
    /// to one CPU. Only a scale: it makes a corrected rate read like the
    /// raw rate it came from. Changing it rescales every `ops_per_s`, so it
    /// changes only together with a re-measured baseline.
    pub fn nominal_per_s(self) -> f64 {
        match self {
            RefKernel::Handoff => REF_NOMINAL_HANDOFF_PER_S,
            RefKernel::Compute => REF_NOMINAL_COMPUTE_PER_S,
        }
    }

    /// Runs the kernel once (about 50 ms) and returns its rate per second.
    pub fn measure(self) -> f64 {
        match self {
            RefKernel::Handoff => handoff(HANDOFF_ROUND_TRIPS),
            RefKernel::Compute => compute(COMPUTE_PROBES),
        }
    }
}

pub const REF_NOMINAL_HANDOFF_PER_S: f64 = 150_000.0;
pub const REF_NOMINAL_COMPUTE_PER_S: f64 = 45_000_000.0;

const HANDOFF_ROUND_TRIPS: u64 = 8_000;
const COMPUTE_PROBES: u64 = 2_000_000;

/// Round trips per second between two threads that take turns.
fn handoff(round_trips: u64) -> f64 {
    let turn = Arc::new((Mutex::new(0u64), Condvar::new()));
    let peer = {
        let turn = Arc::clone(&turn);
        std::thread::spawn(move || {
            let (lock, cv) = &*turn;
            let mut t = lock.lock().expect("peer never panics");
            // Odd values are the peer's turn; it answers each with the
            // next even value.
            while *t < 2 * round_trips {
                if *t % 2 == 1 {
                    *t += 1;
                    cv.notify_one();
                } else {
                    t = cv.wait(t).expect("peer never panics");
                }
            }
        })
    };
    let (lock, cv) = &*turn;
    let t0 = Instant::now();
    {
        let mut t = lock.lock().expect("peer never panics");
        while *t < 2 * round_trips {
            if *t % 2 == 0 {
                *t += 1;
                cv.notify_one();
            } else {
                t = cv.wait(t).expect("peer never panics");
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    peer.join().expect("peer never panics");
    round_trips as f64 / elapsed
}

/// Locked hash-map probes per second on one thread.
fn compute(probes: u64) -> f64 {
    const KEYS: u64 = 1024;
    let map: Mutex<HashMap<u64, u64>> = Mutex::new((0..KEYS).map(|k| (k, k)).collect());
    let t0 = Instant::now();
    let mut sum = 0u64;
    // A multiplicative walk over the keys: no RNG cost, no fixed stride.
    let mut k = 1u64;
    for _ in 0..probes {
        k = k.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let m = map.lock().expect("single thread");
        sum = sum.wrapping_add(m[&black_box(k % KEYS)]);
    }
    black_box(sum);
    probes as f64 / t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_finish_and_report_a_positive_rate() {
        assert!(handoff(50) > 0.0);
        assert!(compute(10_000) > 0.0);
    }
}
