//! Fault injection and reliable delivery for the message layer.
//!
//! The paper's Fireflies talked over real 10 Mbit Ethernet, where packets
//! are dropped, duplicated, delayed and reordered; the engines' default
//! message path models a perfect channel. A [`FaultPlan`] makes the channel
//! imperfect on purpose: drop and duplicate probabilities on every link
//! plus scripted partitions, all derived *deterministically* from a seed,
//! so a chaos run under the simulator replays exactly.
//!
//! Installing a plan (see [`ClusterSpec::with_faults`]) also inserts a thin
//! reliability sublayer between [`Engine::send`] and the kernel handlers:
//!
//! * every logical message gets a per-link sequence number;
//! * the receiver keeps a dedup window (watermark + sparse set) and runs
//!   the handler **at most once** per sequence number, suppressing wire
//!   duplicates;
//! * the sender retransmits on a timeout with exponential backoff until the
//!   message is delivered or `MAX_ATTEMPTS` attempts are spent.
//!
//! Delivery acknowledgements ride the in-process control plane: the moment
//! a copy is delivered the sender's outstanding entry is retired, modelling
//! a free, loss-less ack channel. Every copy arrives one link latency after
//! its attempt, and the initial retransmission timeout is a round trip plus
//! grace, so a retransmission fires only when *no* copy of the
//! previous attempt survived — so in the simulator every suppressed
//! duplicate is one the plan injected, and the two counters
//! (`dups_injected`, `dups_suppressed`) end a drained run equal.
//!
//! All fault decisions are pure hashes of (seed, link, sequence, attempt),
//! never a stateful RNG: the outcome of one message cannot perturb the
//! fates of others, regardless of thread interleaving.
//!
//! [`ClusterSpec::with_faults`]: crate::ClusterSpec::with_faults
//! [`Engine::send`]: crate::Engine::send

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::engine::KernelFn;
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

/// What the engines must provide for the fault layer to schedule copies and
/// timers and to account what happens to them.
pub(crate) trait Transport: Send + Sync {
    /// Runs `f` in kernel (handler) context after `delay` of engine time:
    /// on the timer thread under the real engine, inside the dispatch step
    /// of whichever Amber thread is giving the baton up under the simulator
    /// — one handler at a time there, `current_thread() == None` in both.
    fn after(&self, delay: SimTime, f: KernelFn);
    /// The engine clock.
    fn now(&self) -> SimTime;
    /// The engine's tracer, which counts and records what the layer raises.
    fn tracer(&self) -> &Tracer;
}

/// Raises `event` at the engine clock.
fn emit(t: &dyn Transport, event: ProtocolEvent) {
    t.tracer().emit(|| t.now(), event);
}

/// Per-link sender state: the next sequence number and the handlers of
/// messages not yet known-delivered.
#[derive(Default)]
struct LinkSend {
    next_seq: u64,
    outstanding: HashMap<u64, KernelFn>,
}

/// Per-link receiver dedup window. Sequence numbers below `watermark` are
/// all settled (delivered or given up); `above` holds the sparse settled
/// set past the watermark, compacted as the watermark advances.
#[derive(Default)]
struct LinkRecv {
    watermark: u64,
    above: BTreeSet<u64>,
}

impl LinkRecv {
    fn is_settled(&self, seq: u64) -> bool {
        seq < self.watermark || self.above.contains(&seq)
    }

    fn settle(&mut self, seq: u64) {
        if seq < self.watermark {
            return;
        }
        self.above.insert(seq);
        while self.above.remove(&self.watermark) {
            self.watermark += 1;
        }
    }
}

#[derive(Default)]
struct Links {
    send: HashMap<(u16, u16), LinkSend>,
    recv: HashMap<(u16, u16), LinkRecv>,
}

/// The reliable-delivery state machine an engine routes `send()` through
/// when a [`FaultPlan`] is installed.
pub(crate) struct FaultNet {
    plan: FaultPlan,
    latency: LatencyModel,
    /// Back-reference to the owning engine. Weak: retransmission timers
    /// outlive deliveries and must not keep a finished engine alive.
    transport: Weak<dyn Transport>,
    links: Mutex<Links>,
}

impl FaultNet {
    pub(crate) fn new(
        plan: FaultPlan,
        latency: LatencyModel,
        transport: Weak<dyn Transport>,
    ) -> Arc<FaultNet> {
        Arc::new(FaultNet {
            plan,
            latency,
            transport,
            links: Mutex::new(Links::default()),
        })
    }

    /// Entry point from `Engine::send`: assigns the link sequence number,
    /// fires the first attempt and arms the retransmission timer. The
    /// caller has already recorded/traced the logical send.
    pub(crate) fn send(
        self: &Arc<Self>,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        handler: KernelFn,
    ) {
        let key = (from.0, to.0);
        let seq = {
            let mut links = self.links.lock();
            let link = links.send.entry(key).or_default();
            let seq = link.next_seq;
            link.next_seq += 1;
            link.outstanding.insert(seq, handler);
            seq
        };
        self.attempt(from, to, seq, bytes, 0);
        self.arm_timer(from, to, seq, bytes, 0);
    }

    /// Retransmission timeout after attempt `attempt`: a round trip
    /// (`2 × latency(bytes)`) plus grace, doubling per attempt (capped at
    /// 32x). A copy is delivered after one `latency(bytes)`, so the timeout
    /// never fires while one is in flight.
    fn rto(&self, bytes: usize, attempt: u32) -> SimTime {
        let one_way = self.latency.latency(bytes);
        let base = one_way + one_way + RTO_GRACE;
        base * (1u64 << attempt.min(5))
    }

    /// One transmission attempt: decides partition/drop fate, then
    /// schedules the surviving copy (and its wire duplicate, if drawn).
    fn attempt(self: &Arc<Self>, from: NodeId, to: NodeId, seq: u64, bytes: usize, attempt: u32) {
        let Some(t) = self.transport.upgrade() else {
            return;
        };
        let plan = &self.plan;
        if plan.partitioned(from, to, t.now()) {
            emit(&*t, ProtocolEvent::LinkPartitioned { from, to });
            return;
        }
        if plan.unit(from, to, seq, attempt, SALT_DROP) < plan.drop {
            emit(&*t, ProtocolEvent::MessageDropped { from, to, bytes });
            return;
        }
        let delay = self.latency.latency(bytes);
        self.schedule_copy(from, to, seq, delay, &t);
        if plan.unit(from, to, seq, attempt, SALT_DUP) < plan.duplicate {
            // The wire duplicated a surviving attempt: both copies arrive,
            // so exactly one of them will be suppressed at the receiver.
            emit(&*t, ProtocolEvent::MessageDuplicated { from, to });
            self.schedule_copy(from, to, seq, delay, &t);
        }
    }

    fn schedule_copy(
        self: &Arc<Self>,
        from: NodeId,
        to: NodeId,
        seq: u64,
        delay: SimTime,
        t: &Arc<dyn Transport>,
    ) {
        let net = Arc::clone(self);
        t.after(delay, Box::new(move || net.deliver_copy(from, to, seq)));
    }

    /// A copy reached the receiver: run the handler if this sequence number
    /// has not been settled yet, suppress the copy otherwise.
    fn deliver_copy(self: &Arc<Self>, from: NodeId, to: NodeId, seq: u64) {
        let Some(t) = self.transport.upgrade() else {
            return;
        };
        let key = (from.0, to.0);
        let handler = {
            let mut links = self.links.lock();
            let recv = links.recv.entry(key).or_default();
            if recv.is_settled(seq) {
                None
            } else {
                recv.settle(seq);
                // Settling doubles as the (free, in-process) delivery ack:
                // retiring the outstanding entry stops retransmissions.
                let h = links
                    .send
                    .get_mut(&key)
                    .and_then(|l| l.outstanding.remove(&seq));
                #[expect(clippy::disallowed_macros, reason = "only the first copy settles it")]
                {
                    debug_assert!(h.is_some(), "first copy found no outstanding handler");
                }
                h
            }
        };
        match handler {
            // Run outside the links lock: handlers may send again.
            Some(h) => h(),
            None => emit(&*t, ProtocolEvent::MessageDuplicateSuppressed { from, to }),
        }
    }

    fn arm_timer(self: &Arc<Self>, from: NodeId, to: NodeId, seq: u64, bytes: usize, attempt: u32) {
        let Some(t) = self.transport.upgrade() else {
            return;
        };
        let net = Arc::clone(self);
        t.after(
            self.rto(bytes, attempt),
            Box::new(move || net.timer_fired(from, to, seq, bytes, attempt)),
        );
    }

    /// The retransmission timer for attempt `attempt` expired. If the
    /// message is still outstanding every prior copy was lost (the timeout
    /// exceeds the delivery delay), so retransmit — or give up
    /// once the attempt budget is spent, settling the sequence number so
    /// the receiver window can advance past it.
    fn timer_fired(
        self: &Arc<Self>,
        from: NodeId,
        to: NodeId,
        seq: u64,
        bytes: usize,
        attempt: u32,
    ) {
        let Some(t) = self.transport.upgrade() else {
            return;
        };
        let key = (from.0, to.0);
        let retry = {
            let mut links = self.links.lock();
            let outstanding = links
                .send
                .get_mut(&key)
                .is_some_and(|l| l.outstanding.contains_key(&seq));
            if !outstanding {
                false
            } else if attempt + 1 >= MAX_ATTEMPTS {
                if let Some(l) = links.send.get_mut(&key) {
                    l.outstanding.remove(&seq);
                }
                links.recv.entry(key).or_default().settle(seq);
                false
            } else {
                true
            }
        };
        if retry {
            let attempt = attempt + 1;
            emit(&*t, ProtocolEvent::MessageRetransmit { from, to, attempt });
            self.attempt(from, to, seq, bytes, attempt);
            self.arm_timer(from, to, seq, bytes, attempt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn dedup_window_settles_and_compacts() {
        let mut w = LinkRecv::default();
        assert!(!w.is_settled(0));
        w.settle(2);
        assert!(w.is_settled(2));
        assert!(!w.is_settled(0));
        w.settle(0);
        w.settle(1);
        // Watermark swept past the contiguous prefix; the set is empty.
        assert_eq!(w.watermark, 3);
        assert!(w.above.is_empty());
        assert!(w.is_settled(1));
        // Re-settling below the watermark is a no-op.
        w.settle(1);
        assert_eq!(w.watermark, 3);
    }

    struct NullTransport;

    impl Transport for NullTransport {
        fn after(&self, _delay: SimTime, _f: KernelFn) {
            unreachable!("null transport never schedules")
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn tracer(&self) -> &Tracer {
            unreachable!("null transport has no tracer")
        }
    }

    #[test]
    fn rto_exceeds_worst_case_delivery_and_backs_off() {
        let latency = LatencyModel::ethernet_10mbit();
        let transport: Weak<NullTransport> = Weak::new();
        let net = FaultNet {
            plan: FaultPlan::seeded(0),
            latency,
            transport,
            links: Mutex::new(Links::default()),
        };
        // A round trip plus grace: above any copy's one-way delivery.
        let one_way = latency.latency(64);
        assert_eq!(net.rto(64, 0), one_way + one_way + RTO_GRACE);
        assert!(net.rto(64, 0) > one_way);
        assert_eq!(net.rto(64, 1), net.rto(64, 0) * 2);
        // The backoff is capped.
        assert_eq!(net.rto(64, 5), net.rto(64, 9));
    }
}
