//! Fault injection and reliable delivery for the message layer.
//!
//! The paper's Fireflies talked over real 10 Mbit Ethernet, where packets
//! are dropped, duplicated, delayed and reordered; the engines' default
//! message path models a perfect channel. A [`FaultPlan`] makes the channel
//! imperfect on purpose: drop and duplicate probabilities on every link
//! plus scripted partitions, all derived *deterministically* from a seed,
//! so a chaos run under the simulator replays exactly.
//!
//! Installing a plan (see [`ClusterSpec::with_faults`]) also gives the
//! engine a reliable-delivery state machine, [`Links`], which it drives from
//! its own event queue — the simulator's agenda, the real engine's timer
//! thread — with two typed events, a [`Wire::Copy`] arriving and a
//! [`Wire::Retransmit`] timer expiring:
//!
//! * every logical message gets a per-link sequence number;
//! * one window per directed link holds every message not yet settled. The
//!   sender's outstanding entry and the receiver's dedup record are one
//!   fact here, because the ack is free: the first copy to arrive settles
//!   its sequence number and hands the payload over **at most once**, and a
//!   later copy finds it settled and is suppressed;
//! * each attempt's fate is a pure hash drawn when it is sent, so the layer
//!   knows at once whether any copy survived. Only an attempt none of
//!   whose copies survived arms a retransmission timer, with exponential
//!   backoff, until `MAX_ATTEMPTS` attempts are spent.
//!
//! Every copy arrives one link latency after its attempt, and the timeout
//! is a round trip plus grace, so a surviving copy would always have landed
//! before the timer: arming none for it changes no delivery. In the
//! simulator every suppressed duplicate is one the plan injected, and the
//! two counters (`dups_injected`, `dups_suppressed`) end a drained run
//! equal.
//!
//! All fault decisions are pure hashes of (seed, link, sequence, attempt),
//! never a stateful RNG: the outcome of one message cannot perturb the
//! fates of others, regardless of thread interleaving.
//!
//! [`ClusterSpec::with_faults`]: crate::ClusterSpec::with_faults

use std::collections::VecDeque;

use crate::ids::NodeId;
use crate::time::SimTime;
use crate::trace::{ProtocolEvent, Tracer};
use crate::LatencyModel;

/// A scripted partition: the (bidirectional) link between `a` and `b` loses
/// every attempt in the half-open window `[start, heal)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// One side of the severed link.
    pub a: NodeId,
    /// The other side.
    pub b: NodeId,
    /// Engine time at which the partition starts.
    pub start: SimTime,
    /// Engine time at which the link heals.
    pub heal: SimTime,
}

impl Partition {
    fn severs(&self, from: NodeId, to: NodeId, now: SimTime) -> bool {
        let pair = (self.a == from && self.b == to) || (self.a == to && self.b == from);
        pair && now >= self.start && now < self.heal
    }
}

/// A deterministic description of an unreliable network.
///
/// Built with a fluent API and installed via
/// [`ClusterSpec::with_faults`](crate::ClusterSpec::with_faults):
///
/// ```
/// use amber_engine::{FaultPlan, NodeId, SimTime};
///
/// let plan = FaultPlan::seeded(7)
///     .drop_rate(0.05)
///     .duplicate_rate(0.02)
///     .partition(NodeId(0), NodeId(1), SimTime::from_ms(5), SimTime::from_ms(9));
/// assert_eq!(plan.seed, 7);
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed from which every fault decision is derived.
    pub seed: u64,
    /// Probability an attempt (an original transmission or a
    /// retransmission) is lost on the wire.
    drop: f64,
    /// Probability a surviving attempt is duplicated by the wire (both
    /// copies arrive; the receiver suppresses one).
    duplicate: f64,
    partitions: Vec<Partition>,
}

/// Slack added to the retransmission timeout on top of a round trip, so a
/// retransmission never races a copy that is still in flight.
const RTO_GRACE: SimTime = SimTime::from_ms(1);

/// Attempts per message. After this many lost attempts the sender gives up
/// and the message is lost for good: under the simulator a waiter on it
/// surfaces as a detected deadlock rather than a silent hang.
const MAX_ATTEMPTS: u32 = 16;

impl FaultPlan {
    /// A plan with the given seed and perfectly reliable links; add faults
    /// with the builder methods.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            partitions: Vec::new(),
        }
    }

    /// Sets the per-attempt drop probability on every link.
    pub fn drop_rate(mut self, p: f64) -> Self {
        #[expect(clippy::disallowed_macros, reason = "caller contract: p in [0, 1]")]
        {
            assert!((0.0..=1.0).contains(&p), "drop rate must be in [0, 1]");
        }
        self.drop = p;
        self
    }

    /// Sets the per-attempt duplication probability on every link.
    pub fn duplicate_rate(mut self, p: f64) -> Self {
        #[expect(clippy::disallowed_macros, reason = "caller contract: p in [0, 1]")]
        {
            assert!((0.0..=1.0).contains(&p), "duplicate rate must be in [0, 1]");
        }
        self.duplicate = p;
        self
    }

    /// Scripts a partition of the `a`–`b` link over `[start, heal)`.
    pub fn partition(mut self, a: NodeId, b: NodeId, start: SimTime, heal: SimTime) -> Self {
        #[expect(clippy::disallowed_macros, reason = "caller contract: start <= heal")]
        {
            assert!(start <= heal, "partition must heal after it starts");
        }
        self.partitions.push(Partition { a, b, start, heal });
        self
    }

    /// `true` if a scripted partition severs `from -> to` at `now`.
    pub fn partitioned(&self, from: NodeId, to: NodeId, now: SimTime) -> bool {
        self.partitions.iter().any(|p| p.severs(from, to, now))
    }

    /// A uniform draw in `[0, 1)`, pure in all of its inputs.
    fn unit(&self, from: NodeId, to: NodeId, seq: u64, attempt: u32, salt: u64) -> f64 {
        let mut h = splitmix(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        for v in [
            from.index() as u64,
            to.index() as u64,
            seq,
            attempt as u64,
            salt,
        ] {
            h = splitmix(h ^ v);
        }
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The fate of attempt `a`: how many copies of it reach its
    /// destination — none when a partition or the drop draw loses it, two
    /// when the wire duplicates it. Raises what befell it at `now`.
    fn copies(&self, a: &Attempt, tracer: &Tracer, now: impl Fn() -> SimTime) -> usize {
        let Attempt {
            from,
            to,
            seq,
            bytes,
            attempt,
        } = *a;
        if self.partitioned(from, to, now()) {
            tracer.emit(&now, ProtocolEvent::LinkPartitioned { from, to });
            0
        } else if self.unit(from, to, seq, attempt, SALT_DROP) < self.drop {
            tracer.emit(&now, ProtocolEvent::MessageDropped { from, to, bytes });
            0
        } else if self.unit(from, to, seq, attempt, SALT_DUP) < self.duplicate {
            tracer.emit(&now, ProtocolEvent::MessageDuplicated { from, to });
            2
        } else {
            1
        }
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const SALT_DROP: u64 = 1;
const SALT_DUP: u64 = 2;

/// One transmission attempt of one message: what its fate is drawn from,
/// and what its retransmission timer carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Attempt {
    from: NodeId,
    to: NodeId,
    seq: u64,
    bytes: usize,
    /// 0 for the original transmission, then one per retransmission.
    attempt: u32,
}

/// What [`Links`] asks its engine to queue: the typed events of the
/// reliable-delivery layer, each handled in the engine's own loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Wire {
    /// A copy of message `seq` of the `from -> to` link reaches `to`: hand
    /// it to [`Links::settle`].
    Copy { from: NodeId, to: NodeId, seq: u64 },
    /// No copy of this attempt survived, and its timeout expired: hand it
    /// to [`Links::retransmit`].
    Retransmit(Attempt),
}

/// What one attempt puts on the engine's queue, each with its delay from
/// now, to be queued in this order: one or two copies, or — when none
/// survived — its retransmission timer.
pub(crate) type Scheduled = [Option<(SimTime, Wire)>; 2];

/// One directed link's window: every message from `base` on, in sequence
/// order. A slot holds the payload until its first copy arrives or the
/// sender gives it up, and is `None` once settled; settled slots leave the
/// front as soon as they reach it.
struct Window<P> {
    base: u64,
    slots: VecDeque<Option<P>>,
}

/// The reliable-delivery state of every directed link of a cluster under a
/// [`FaultPlan`], carrying payloads of type `P` (what the engine does when
/// a message arrives). The engines drive it from their own queues; it
/// reads no clock and queues nothing itself.
pub(crate) struct Links<P> {
    plan: FaultPlan,
    latency: LatencyModel,
    nodes: usize,
    /// Indexed by `from · nodes + to`.
    windows: Vec<Window<P>>,
}

impl<P> Links<P> {
    pub(crate) fn new(plan: FaultPlan, latency: LatencyModel, nodes: usize) -> Links<P> {
        let windows = (0..nodes * nodes)
            .map(|_| Window {
                base: 0,
                slots: VecDeque::new(),
            })
            .collect();
        Links {
            plan,
            latency,
            nodes,
            windows,
        }
    }

    fn window(&self, from: NodeId, to: NodeId) -> &Window<P> {
        &self.windows[from.index() * self.nodes + to.index()]
    }

    fn window_mut(&mut self, from: NodeId, to: NodeId) -> &mut Window<P> {
        &mut self.windows[from.index() * self.nodes + to.index()]
    }

    /// Sends `payload` from `from` to `to`: opens it in the link's window
    /// under the next sequence number and makes its first attempt. The
    /// caller has already raised the logical send.
    pub(crate) fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        payload: P,
        tracer: &Tracer,
        now: impl Fn() -> SimTime,
    ) -> Scheduled {
        let window = self.window_mut(from, to);
        let seq = window.base + window.slots.len() as u64;
        window.slots.push_back(Some(payload));
        let first = Attempt {
            from,
            to,
            seq,
            bytes,
            attempt: 0,
        };
        self.attempt(first, tracer, now)
    }

    /// A copy of message `seq` reached `to`: its payload if it is the first
    /// copy, settling the sequence number, or `None` for a duplicate, which
    /// the caller raises as suppressed.
    pub(crate) fn settle(&mut self, from: NodeId, to: NodeId, seq: u64) -> Option<P> {
        let window = self.window_mut(from, to);
        let payload = seq
            .checked_sub(window.base)
            .and_then(|i| window.slots.get_mut(i as usize))
            .and_then(Option::take);
        while let Some(None) = window.slots.front() {
            window.slots.pop_front();
            window.base += 1;
        }
        payload
    }

    /// `true` while message `seq` of `from -> to` is neither delivered nor
    /// given up.
    fn is_open(&self, from: NodeId, to: NodeId, seq: u64) -> bool {
        let window = self.window(from, to);
        seq.checked_sub(window.base)
            .and_then(|i| window.slots.get(i as usize))
            .is_some_and(Option::is_some)
    }

    /// The timer of attempt `lost` expired: makes the next attempt, or —
    /// with `MAX_ATTEMPTS` spent — gives the message up, settling its
    /// sequence number so the window moves past it.
    pub(crate) fn retransmit(
        &mut self,
        lost: Attempt,
        tracer: &Tracer,
        now: impl Fn() -> SimTime,
    ) -> Scheduled {
        let Attempt { from, to, seq, .. } = lost;
        #[expect(clippy::disallowed_macros, reason = "a surviving copy arms no timer")]
        {
            debug_assert!(self.is_open(from, to, seq), "a timer outlived its message");
        }
        if lost.attempt + 1 >= MAX_ATTEMPTS {
            self.settle(from, to, seq);
            return [None, None];
        }
        let attempt = lost.attempt + 1;
        tracer.emit(&now, ProtocolEvent::MessageRetransmit { from, to, attempt });
        self.attempt(Attempt { attempt, ..lost }, tracer, now)
    }

    /// One transmission attempt: draws its fate, and schedules its copies
    /// or, when none survived, its retransmission timer.
    fn attempt(&self, a: Attempt, tracer: &Tracer, now: impl Fn() -> SimTime) -> Scheduled {
        let copy = Wire::Copy {
            from: a.from,
            to: a.to,
            seq: a.seq,
        };
        let delay = self.latency.latency(a.bytes);
        match self.plan.copies(&a, tracer, now) {
            0 => [
                Some((self.rto(a.bytes, a.attempt), Wire::Retransmit(a))),
                None,
            ],
            1 => [Some((delay, copy)), None],
            _ => [Some((delay, copy)), Some((delay, copy))],
        }
    }

    /// Retransmission timeout after attempt `attempt`: a round trip
    /// (`2 × latency(bytes)`) plus grace, doubling per attempt (capped at
    /// 32x). A copy is delivered after one `latency(bytes)`, so the timeout
    /// never expires while one is in flight.
    fn rto(&self, bytes: usize, attempt: u32) -> SimTime {
        let one_way = self.latency.latency(bytes);
        let base = one_way + one_way + RTO_GRACE;
        base * (1u64 << attempt.min(5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::NetStats;
    use std::sync::Arc;

    #[test]
    fn unit_draws_are_deterministic_and_uniformish() {
        let plan = FaultPlan::seeded(42);
        let a = plan.unit(NodeId(0), NodeId(1), 7, 0, SALT_DROP);
        let b = plan.unit(NodeId(0), NodeId(1), 7, 0, SALT_DROP);
        assert_eq!(a, b, "same inputs must draw the same value");
        let c = plan.unit(NodeId(0), NodeId(1), 8, 0, SALT_DROP);
        assert_ne!(a, c, "different sequence numbers must decorrelate");
        // Coarse uniformity: over many draws the mean lands near 0.5.
        let n = 10_000;
        let sum: f64 = (0..n)
            .map(|i| plan.unit(NodeId(0), NodeId(1), i, 0, SALT_DUP))
            .sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
        assert!((0.0..1.0).contains(&a));
    }

    #[test]
    fn drop_rate_matches_probability_over_many_draws() {
        let plan = FaultPlan::seeded(3).drop_rate(0.05);
        let n = 20_000;
        let dropped = (0..n)
            .filter(|&i| plan.unit(NodeId(0), NodeId(1), i, 0, SALT_DROP) < plan.drop)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "observed drop rate {rate}");
    }

    #[test]
    fn partition_window_is_half_open_and_bidirectional() {
        let plan = FaultPlan::seeded(1).partition(
            NodeId(0),
            NodeId(1),
            SimTime::from_ms(10),
            SimTime::from_ms(20),
        );
        assert!(!plan.partitioned(NodeId(0), NodeId(1), SimTime::from_ms(9)));
        assert!(plan.partitioned(NodeId(0), NodeId(1), SimTime::from_ms(10)));
        assert!(plan.partitioned(NodeId(1), NodeId(0), SimTime::from_ms(19)));
        assert!(!plan.partitioned(NodeId(0), NodeId(1), SimTime::from_ms(20)));
        assert!(!plan.partitioned(NodeId(0), NodeId(2), SimTime::from_ms(15)));
    }

    fn links(plan: FaultPlan) -> (Links<u64>, Tracer, Arc<NetStats>) {
        let latency = LatencyModel::fixed(SimTime::from_ms(1));
        let stats = Arc::new(NetStats::new(2));
        let tracer = Tracer::new(Arc::clone(&stats));
        (Links::new(plan, latency, 2), tracer, stats)
    }

    #[test]
    fn the_window_settles_once_and_compacts() {
        let (mut l, tracer, _) = links(FaultPlan::seeded(1));
        let (a, b) = (NodeId(0), NodeId(1));
        for payload in 10..13 {
            l.send(a, b, 64, payload, &tracer, || SimTime::ZERO);
        }
        // Settled out of order: the front waits for sequence number 0.
        assert_eq!(l.settle(a, b, 2), Some(12));
        assert_eq!(l.settle(a, b, 2), None, "a duplicate");
        assert_eq!(l.window(a, b).base, 0);
        assert_eq!(l.settle(a, b, 0), Some(10));
        assert_eq!(l.settle(a, b, 1), Some(11));
        // The base swept past the settled prefix; nothing is held.
        let w = l.window(a, b);
        assert_eq!((w.base, w.slots.len()), (3, 0));
        assert_eq!(l.settle(a, b, 1), None, "below the base");
        // The reverse link has a window of its own.
        l.send(b, a, 64, 20, &tracer, || SimTime::ZERO);
        assert_eq!(l.settle(b, a, 0), Some(20));
    }

    #[test]
    fn only_a_lost_attempt_arms_a_timer() {
        let (a, b) = (NodeId(0), NodeId(1));
        let copy = Some((
            SimTime::from_ms(1),
            Wire::Copy {
                from: a,
                to: b,
                seq: 0,
            },
        ));
        let (mut l, tracer, _) = links(FaultPlan::seeded(1));
        assert_eq!(l.send(a, b, 64, 0, &tracer, || SimTime::ZERO), [copy, None]);
        let (mut l, tracer, _) = links(FaultPlan::seeded(1).duplicate_rate(1.0));
        assert_eq!(l.send(a, b, 64, 0, &tracer, || SimTime::ZERO), [copy, copy]);
        let (mut l, tracer, stats) = links(FaultPlan::seeded(1).drop_rate(1.0));
        let mut next = l.send(a, b, 64, 7, &tracer, || SimTime::ZERO);
        for attempt in 0..MAX_ATTEMPTS {
            let lost = Attempt {
                from: a,
                to: b,
                seq: 0,
                bytes: 64,
                attempt,
            };
            let timer = (l.rto(64, attempt), Wire::Retransmit(lost));
            assert_eq!(next, [Some(timer), None]);
            next = l.retransmit(lost, &tracer, || SimTime::ZERO);
        }
        // Given up: nothing queued, and the window has moved past it.
        assert_eq!(next, [None, None]);
        assert!(!l.is_open(a, b, 0));
        assert_eq!((stats.total_drops(), stats.total_retransmits()), (16, 15));
    }

    #[test]
    fn rto_exceeds_worst_case_delivery_and_backs_off() {
        let latency = LatencyModel::ethernet_10mbit();
        let l: Links<()> = Links::new(FaultPlan::seeded(0), latency, 2);
        // A round trip plus grace: above any copy's one-way delivery.
        let one_way = latency.latency(64);
        assert_eq!(l.rto(64, 0), one_way + one_way + RTO_GRACE);
        assert!(l.rto(64, 0) > one_way);
        assert_eq!(l.rto(64, 1), l.rto(64, 0) * 2);
        // The backoff is capped.
        assert_eq!(l.rto(64, 5), l.rto(64, 9));
    }
}
