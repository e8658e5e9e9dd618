//! The stock adaptive placement policy: a credit-scored traffic advisor.
//!
//! `amber-core` owns the *mechanism* of adaptive placement (per-object
//! per-caller-node counters, the tick daemon, advisory group moves — see
//! `amber_core::PlacementPolicy`); this module is the *decision* half. The
//! [`TrafficAdvisor`] accumulates a smoothed credit per object from the
//! imbalance between its dominant caller node and its current node, and
//! proposes a move only when the imbalance is persistent (credit threshold),
//! decisive (`HYSTERESIS` ratio), off cooldown (`COOLDOWN_TICKS`), and
//! within the per-tick move budget. Everything is deterministic for a
//! deterministic sample stream: ties break toward lower node ids and lower
//! addresses, and credits are compared with the NaN-proof `total_cmp`.
//!
//! Immutable objects get the dual treatment: instead of moving, a heavy
//! *reader* node earns a replica once the object's remote-reader credit
//! clears the same persistence/decisiveness/cooldown machinery, subject to a
//! separate per-tick replica budget and a per-object replica-set cap. A
//! replica, once installed, stays until the object is destroyed, as the
//! paper's copies of immutable objects do (section 2.3).

use amber_core::{NodeId, PlacementDecision, PlacementPolicy, PlacementSample, SimTime};
use std::collections::HashMap;

/// Dominance ratio: the top caller node (for an immutable object, its
/// unserved remote readers together) must out-call the object's current node
/// by at least this factor. Values near 1.0 chase noise; 2.0 waits for a
/// clear winner.
const HYSTERESIS: f64 = 2.0;

/// Ticks an object sits out after being proposed (moved *or* skipped), so
/// one hot object cannot thrash back and forth between ticks.
const COOLDOWN_TICKS: u64 = 4;

/// Rate limit: at most this many move proposals per tick, highest credit
/// first.
const MAX_MOVES_PER_TICK: usize = 8;

/// Rate limit for replication, separate from the move budget: at most this
/// many replica proposals per tick, heaviest reader first.
const MAX_REPLICAS_PER_TICK: usize = 4;

/// Cap on an immutable object's replica set (nodes holding a copy, not
/// counting the origin). Once reached, no further replicas are proposed for
/// that object.
const REPLICA_CAP: usize = 4;

/// Tuning knobs for [`TrafficAdvisor`].
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// Placement tick cadence (virtual time under the simulator, wall clock
    /// under the real engine).
    pub tick: SimTime,
    /// Minimum calls an object must receive in one tick window before it is
    /// considered at all, and the credit level a candidate must reach.
    pub min_calls: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            tick: SimTime::from_ms(5),
            min_calls: 16,
        }
    }
}

/// The stock [`PlacementPolicy`]: moves objects toward their dominant
/// caller node once the traffic imbalance is persistent and decisive.
pub struct TrafficAdvisor {
    cfg: AdaptiveConfig,
    tick_no: u64,
    /// Smoothed per-object credit: halved each tick the object appears,
    /// then increased by the tick's (dominant - local) call imbalance.
    credit: HashMap<u64, f64>,
    /// Objects proposed recently sit out until this tick number.
    cooldown_until: HashMap<u64, u64>,
}

impl TrafficAdvisor {
    /// Creates the advisor with the given knobs.
    pub fn new(cfg: AdaptiveConfig) -> TrafficAdvisor {
        TrafficAdvisor {
            cfg,
            tick_no: 0,
            credit: HashMap::new(),
            cooldown_until: HashMap::new(),
        }
    }
}

impl PlacementPolicy for TrafficAdvisor {
    fn tick_interval(&self) -> SimTime {
        self.cfg.tick
    }

    fn decide(&mut self, samples: &[PlacementSample]) -> Vec<PlacementDecision> {
        self.tick_no += 1;
        // Prune first: what stays in `cooldown_until` is a live cooldown,
        // and a zero credit is what `or_insert` recreates. Both maps stay
        // bounded by the objects still in play, and a reused address cannot
        // inherit a dead object's cooldown.
        let tick_no = self.tick_no;
        self.cooldown_until.retain(|_, until| *until > tick_no);
        self.credit.retain(|_, c| *c != 0.0);
        let mut movers: Vec<(f64, u64, NodeId)> = Vec::new();
        let mut replicators: Vec<(u64, u64, NodeId)> = Vec::new();
        for s in samples {
            let local_calls = s
                .calls_by_node
                .get(s.location.index())
                .copied()
                .unwrap_or(0);

            if s.immutable {
                // Replication path: credit accumulates from reads arriving
                // on nodes not yet served by a copy.
                let unserved =
                    |n: usize| n != s.location.index() && !s.replicas.contains(&NodeId::from(n));
                let remote: u64 = s
                    .calls_by_node
                    .iter()
                    .enumerate()
                    .filter(|(n, _)| unserved(*n))
                    .map(|(_, &c)| c)
                    .sum();
                let credit = {
                    let c = self.credit.entry(s.obj).or_insert(0.0);
                    *c = *c * 0.5 + remote as f64;
                    *c
                };
                if remote == 0 {
                    continue;
                }
                let total: u64 = s.calls_by_node.iter().sum();
                if total < self.cfg.min_calls || credit < self.cfg.min_calls as f64 {
                    continue;
                }
                // Decisiveness: unserved remote reads must dominate reads
                // the origin already serves locally.
                if (remote as f64) < HYSTERESIS * (local_calls.max(1) as f64) {
                    continue;
                }
                if self.cooldown_until.contains_key(&s.obj) {
                    continue;
                }
                let room = REPLICA_CAP.saturating_sub(s.replicas.len());
                if room == 0 {
                    continue;
                }
                let mut readers: Vec<(u64, usize)> = s
                    .calls_by_node
                    .iter()
                    .enumerate()
                    .filter(|(n, &c)| unserved(*n) && c >= self.cfg.min_calls)
                    .map(|(n, &c)| (c, n))
                    .collect();
                readers.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                readers.truncate(room);
                for (calls, n) in readers {
                    replicators.push((calls, s.obj, NodeId::from(n)));
                }
                continue;
            }

            // Move path: the dominant caller is the node that made the most
            // calls, the lower node id winning exact ties.
            let (mut dom, mut dom_calls) = (0usize, 0u64);
            for (node, &calls) in s.calls_by_node.iter().enumerate() {
                if calls > dom_calls {
                    dom = node;
                    dom_calls = calls;
                }
            }
            let gain = dom_calls as f64 - local_calls as f64;
            let credit = {
                let c = self.credit.entry(s.obj).or_insert(0.0);
                *c = *c * 0.5 + gain;
                *c
            };
            if dom == s.location.index() || dom_calls == 0 {
                continue;
            }
            let total: u64 = s.calls_by_node.iter().sum();
            if total < self.cfg.min_calls || credit < self.cfg.min_calls as f64 {
                continue;
            }
            if (dom_calls as f64) < HYSTERESIS * (local_calls.max(1) as f64) {
                continue;
            }
            if self.cooldown_until.contains_key(&s.obj) {
                continue;
            }
            movers.push((credit, s.obj, NodeId::from(dom)));
        }

        movers.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        movers.truncate(MAX_MOVES_PER_TICK);
        replicators.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        replicators.truncate(MAX_REPLICAS_PER_TICK);

        let mut out: Vec<PlacementDecision> = Vec::new();
        for (_, obj, to) in movers {
            self.credit.insert(obj, 0.0);
            self.cooldown_until
                .insert(obj, self.tick_no + COOLDOWN_TICKS);
            out.push(PlacementDecision::Move { obj, to });
        }
        for (_, obj, to) in replicators {
            self.credit.insert(obj, 0.0);
            self.cooldown_until
                .insert(obj, self.tick_no + COOLDOWN_TICKS);
            out.push(PlacementDecision::Replicate { obj, to });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdaptiveConfig {
        AdaptiveConfig {
            tick: SimTime::from_ms(1),
            min_calls: 4,
        }
    }

    fn sample(obj: u64, location: usize, calls: &[u64]) -> PlacementSample {
        PlacementSample {
            obj,
            location: NodeId::from(location),
            calls_by_node: calls.to_vec(),
            immutable: false,
            replicas: Vec::new(),
        }
    }

    fn immutable_sample(
        obj: u64,
        location: usize,
        calls: &[u64],
        replicas: &[usize],
    ) -> PlacementSample {
        PlacementSample {
            immutable: true,
            replicas: replicas.iter().map(|&n| NodeId::from(n)).collect(),
            ..sample(obj, location, calls)
        }
    }

    #[test]
    fn moves_toward_dominant_caller() {
        let mut adv = TrafficAdvisor::new(cfg());
        let d = adv.decide(&[sample(16, 1, &[40, 2])]);
        assert_eq!(
            d,
            vec![PlacementDecision::Move {
                obj: 16,
                to: NodeId(0)
            }]
        );
    }

    #[test]
    fn hysteresis_holds_back_weak_imbalance() {
        let mut adv = TrafficAdvisor::new(cfg());
        // 1.5x dominance < 2.0 hysteresis: no move, however much traffic.
        let d = adv.decide(&[sample(16, 1, &[30, 20])]);
        assert!(d.is_empty());
    }

    #[test]
    fn local_dominance_never_moves() {
        let mut adv = TrafficAdvisor::new(cfg());
        let d = adv.decide(&[sample(16, 0, &[100, 1])]);
        assert!(d.is_empty());
    }

    #[test]
    fn cooldown_suppresses_immediate_reproposal() {
        let mut adv = TrafficAdvisor::new(cfg());
        let hot = sample(16, 1, &[40, 2]);
        assert_eq!(adv.decide(std::slice::from_ref(&hot)).len(), 1);
        // Same imbalance next ticks: still cooling down.
        for _ in 1..COOLDOWN_TICKS {
            assert!(adv.decide(std::slice::from_ref(&hot)).is_empty());
        }
        // Cooldown expired (and credit rebuilt): proposed again.
        assert_eq!(adv.decide(std::slice::from_ref(&hot)).len(), 1);
    }

    #[test]
    fn a_proposed_object_that_goes_quiet_leaves_no_state_behind() {
        let mut adv = TrafficAdvisor::new(cfg());
        assert_eq!(adv.decide(&[sample(16, 1, &[40, 2])]).len(), 1);
        assert_eq!((adv.credit.len(), adv.cooldown_until.len()), (1, 1));
        for _ in 0..COOLDOWN_TICKS {
            assert!(adv.decide(&[]).is_empty());
        }
        assert!(adv.credit.is_empty(), "{:?}", adv.credit);
        assert!(adv.cooldown_until.is_empty(), "{:?}", adv.cooldown_until);
    }

    /// Nine mutable objects on node 1, all pulled toward node 0; object
    /// `16 * k` gets `10 * k` calls, so its credit rises with `k`.
    fn nine_movers() -> Vec<PlacementSample> {
        (1..=9).map(|k| sample(16 * k, 1, &[10 * k, 0])).collect()
    }

    #[test]
    fn rate_limit_takes_highest_credit_first() {
        let mut adv = TrafficAdvisor::new(cfg());
        let d = adv.decide(&nine_movers());
        // Highest credit first; the coldest of the nine misses the budget.
        let want: Vec<_> = (2..=9)
            .rev()
            .map(|k| PlacementDecision::Move {
                obj: 16 * k,
                to: NodeId(0),
            })
            .collect();
        assert_eq!(d, want);
        assert_eq!(d.len(), MAX_MOVES_PER_TICK);
    }

    #[test]
    fn quiet_objects_are_ignored() {
        let mut adv = TrafficAdvisor::new(cfg());
        // Below min_calls in the window.
        let d = adv.decide(&[sample(16, 1, &[3, 0])]);
        assert!(d.is_empty());
    }

    #[test]
    fn immutable_objects_replicate_toward_heavy_readers() {
        let mut adv = TrafficAdvisor::new(cfg());
        // Origin on node 0; nodes 1 and 2 both read heavily.
        let d = adv.decide(&[immutable_sample(16, 0, &[1, 40, 20], &[])]);
        assert_eq!(
            d,
            vec![
                PlacementDecision::Replicate {
                    obj: 16,
                    to: NodeId(1)
                },
                PlacementDecision::Replicate {
                    obj: 16,
                    to: NodeId(2)
                },
            ]
        );
    }

    #[test]
    fn replica_cap_limits_the_replica_set() {
        let mut adv = TrafficAdvisor::new(cfg());
        // Nodes 1 to 4 already hold the cap's four copies: node 5's heavy
        // reads earn nothing.
        let d = adv.decide(&[immutable_sample(16, 0, &[1, 5, 5, 5, 5, 40], &[1, 2, 3, 4])]);
        assert!(d.is_empty(), "replica cap reached: {d:?}");
    }

    #[test]
    fn nodes_already_holding_replicas_are_not_reproposed() {
        let mut adv = TrafficAdvisor::new(cfg());
        let d = adv.decide(&[immutable_sample(16, 0, &[1, 40, 40], &[1])]);
        assert_eq!(
            d,
            vec![PlacementDecision::Replicate {
                obj: 16,
                to: NodeId(2)
            }]
        );
    }

    #[test]
    fn replica_budget_is_separate_from_move_budget() {
        let mut adv = TrafficAdvisor::new(cfg());
        // Nine hot mutable movers exhaust the move budget; the immutable
        // object's replication still goes through on its own budget.
        let mut samples = nine_movers();
        samples.push(immutable_sample(1024, 0, &[1, 40], &[]));
        let d = adv.decide(&samples);
        assert_eq!(d.len(), MAX_MOVES_PER_TICK + 1, "moves: {d:?}");
        assert!(matches!(
            d[MAX_MOVES_PER_TICK],
            PlacementDecision::Replicate { obj: 1024, .. }
        ));
    }

    #[test]
    fn replication_cooldown_suppresses_immediate_reproposal() {
        let mut adv = TrafficAdvisor::new(cfg());
        let hot = immutable_sample(16, 0, &[1, 40], &[]);
        assert_eq!(adv.decide(std::slice::from_ref(&hot)).len(), 1);
        for _ in 1..COOLDOWN_TICKS {
            assert!(adv.decide(std::slice::from_ref(&hot)).is_empty());
        }
        assert_eq!(adv.decide(std::slice::from_ref(&hot)).len(), 1);
    }
}
