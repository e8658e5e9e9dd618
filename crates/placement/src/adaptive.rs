//! The stock adaptive placement policy: a credit-scored traffic advisor.
//!
//! `amber-core` owns the *mechanism* of adaptive placement (per-object
//! per-caller-node counters, the tick daemon, advisory group moves — see
//! `amber_core::PlacementPolicy`); this module is the *decision* half. The
//! [`TrafficAdvisor`] accumulates a smoothed credit per object from the
//! imbalance between its dominant caller node and its current node, and
//! proposes a move only when the imbalance is persistent (credit threshold),
//! decisive (hysteresis ratio), off cooldown, and within the per-tick move
//! budget. Everything is deterministic for a deterministic sample stream:
//! ties break toward lower node ids and lower addresses, and credits are
//! compared with `total_cmp` (the same NaN-proof ordering the creation-time
//! placers use).
//!
//! Immutable objects get the dual treatment: instead of moving, a heavy
//! *reader* node earns a replica once the object's remote-reader credit
//! clears the same persistence/decisiveness/cooldown machinery, subject to a
//! separate per-tick replica budget and a per-object replica-set cap.
//! Candidate targets (for both moves and replicas) are scored
//! load-aware: each node's raw call count is discounted by the run-queue
//! depth sampled into the tick's [`PlacementSample`], so traffic prefers
//! lightly loaded nodes when call volumes tie.

use amber_core::{
    NodeId, NodeSample, PlacementDecision, PlacementPolicy, PlacementSample, SimTime,
};
use std::collections::{HashMap, HashSet};

/// Tuning knobs for [`TrafficAdvisor`].
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// Placement tick cadence (virtual time under the simulator, wall clock
    /// under the real engine).
    pub tick: SimTime,
    /// Minimum calls an object must receive in one tick window before it is
    /// considered at all, and the credit level a candidate must reach.
    pub min_calls: u64,
    /// Dominance ratio: the top caller node must out-call the object's
    /// current node by at least this factor. Values near 1.0 chase noise;
    /// 2.0 waits for a clear winner.
    pub hysteresis: f64,
    /// Ticks an object sits out after being proposed (moved *or* skipped),
    /// so one hot object cannot thrash back and forth between ticks.
    pub cooldown_ticks: u64,
    /// Rate limit: at most this many move proposals per tick, highest
    /// credit first.
    pub max_moves_per_tick: usize,
    /// Rate limit for replication, separate from the move budget: at most
    /// this many replica proposals per tick, highest load-aware reader
    /// score first.
    pub max_replicas_per_tick: usize,
    /// Cap on an immutable object's replica set (nodes holding a copy, not
    /// counting the origin). Once reached, no further replicas are
    /// proposed for that object.
    pub replica_cap: usize,
    /// Consecutive quiet placement ticks after which a replica that served
    /// no local calls is aged out, freeing the cap for warmer readers.
    /// `None` keeps replicas until the object is destroyed.
    pub replica_idle_ticks: Option<u32>,
    /// Occupancy-share trigger for the scatter detector: a node whose
    /// resident-object share (or placement-rate share, once placements this
    /// tick reach `min_calls`) is at least this fraction of the cluster
    /// total is considered overloaded and may shed cold objects. Must
    /// exceed `1/nodes` to mean anything; the gap between fair share and
    /// this trigger is the scatter path's hysteresis band.
    pub scatter_share: f64,
    /// Cold-credit ceiling: an object is only scattered while its smoothed
    /// call credit is at or below this value, so anything the move or
    /// replicate paths are still watching is off limits — the two halves of
    /// the advisor can never fight over one object.
    pub scatter_cold_credit: f64,
    /// Rate limit for scattering, separate from the move and replica
    /// budgets: at most this many scatter proposals per tick. Zero (the
    /// default) disables the scatter path entirely; spreading cold objects
    /// is opt-in, unlike the traffic-chasing halves.
    pub max_scatters_per_tick: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            tick: SimTime::from_ms(5),
            min_calls: 16,
            hysteresis: 2.0,
            cooldown_ticks: 4,
            max_moves_per_tick: 8,
            max_replicas_per_tick: 4,
            replica_cap: 4,
            replica_idle_ticks: Some(8),
            scatter_share: 0.5,
            scatter_cold_credit: 1.0,
            max_scatters_per_tick: 0,
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

    fn replica_idle_evict_after(&self) -> Option<u32> {
        self.cfg.replica_idle_ticks
    }

    fn decide(
        &mut self,
        nodes: &[NodeSample],
        samples: &[PlacementSample],
    ) -> Vec<PlacementDecision> {
        self.tick_no += 1;
        let mut movers: Vec<(f64, u64, NodeId)> = Vec::new();
        let mut replicators: Vec<(f64, u64, NodeId)> = Vec::new();
        // Load-aware discount: a node's run-queue depth deflates its
        // attractiveness as a target. Depth is a hint (may be stale or
        // absent), so it only tilts scores, never gates.
        let depth = |n: usize| nodes.get(n).map_or(0, |node| node.queue_depth) as f64;
        let load_score = |n: usize, calls: u64| calls as f64 / (1.0 + depth(n));
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
                if (remote as f64) < self.cfg.hysteresis * (local_calls.max(1) as f64) {
                    continue;
                }
                if self.cooldown_until.get(&s.obj).copied().unwrap_or(0) > self.tick_no {
                    continue;
                }
                let room = self.cfg.replica_cap.saturating_sub(s.replicas.len());
                if room == 0 {
                    continue;
                }
                let mut readers: Vec<(f64, usize)> = s
                    .calls_by_node
                    .iter()
                    .enumerate()
                    .filter(|(n, &c)| unserved(*n) && c >= self.cfg.min_calls)
                    .map(|(n, &c)| (load_score(n, c), n))
                    .collect();
                readers.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                readers.truncate(room);
                for (score, n) in readers {
                    replicators.push((score, s.obj, NodeId::from(n)));
                }
                continue;
            }

            // Move path: pick the dominant caller by load-discounted score
            // (raw calls when depths tie), lower node id winning exact ties.
            let (mut dom, mut dom_calls, mut dom_score) = (0usize, 0u64, 0.0f64);
            for (node, &calls) in s.calls_by_node.iter().enumerate() {
                let score = load_score(node, calls);
                if calls > 0 && score > dom_score {
                    dom = node;
                    dom_calls = calls;
                    dom_score = score;
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
            if (dom_calls as f64) < self.cfg.hysteresis * (local_calls.max(1) as f64) {
                continue;
            }
            if self.cooldown_until.get(&s.obj).copied().unwrap_or(0) > self.tick_no {
                continue;
            }
            movers.push((credit, s.obj, NodeId::from(dom)));
        }

        movers.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        movers.truncate(self.cfg.max_moves_per_tick);
        replicators.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        replicators.truncate(self.cfg.max_replicas_per_tick);

        let mut out: Vec<PlacementDecision> = Vec::new();
        for (_, obj, to) in movers {
            self.credit.insert(obj, 0.0);
            self.cooldown_until
                .insert(obj, self.tick_no + self.cfg.cooldown_ticks);
            out.push(PlacementDecision::Move { obj, to });
        }
        for (_, obj, to) in replicators {
            self.credit.insert(obj, 0.0);
            self.cooldown_until
                .insert(obj, self.tick_no + self.cfg.cooldown_ticks);
            out.push(PlacementDecision::Replicate { obj, to });
        }
        self.scatter(nodes, samples, &mut out);
        out
    }
}

impl TrafficAdvisor {
    /// The spread half of the advisor: when one node dominates occupancy
    /// (resident-object share, or placement-rate share once the tick's
    /// placements are statistically meaningful), propose moving its *cold*
    /// residents toward the emptiest nodes, scored by the same
    /// `calls / (1 + queue_depth)` load measure the attract paths use —
    /// inverted, so low traffic and a shallow run queue make a node a good
    /// scatter target rather than a good move target.
    ///
    /// Guard rails keeping this from fighting the move/replicate halves:
    /// only objects whose smoothed credit is at or below the cold ceiling
    /// qualify (anything warm belongs to the attract paths), objects
    /// proposed this tick or still on cooldown are skipped, the source only
    /// sheds down to its fair share (the trigger sitting above fair share
    /// is the hysteresis band that stops ping-pong), and the whole path has
    /// its own per-tick budget.
    fn scatter(
        &mut self,
        nodes: &[NodeSample],
        samples: &[PlacementSample],
        out: &mut Vec<PlacementDecision>,
    ) {
        let budget = self.cfg.max_scatters_per_tick;
        if budget == 0 || nodes.len() < 2 {
            return;
        }
        let total_resident: u64 = nodes.iter().map(|n| n.resident).sum();
        if total_resident == 0 {
            return;
        }
        let total_placements: u64 = nodes.iter().map(|n| n.placements).sum();
        let fair = total_resident.div_ceil(nodes.len() as u64);
        // Share of cluster occupancy (and of this tick's placements, once
        // there are enough to matter) each node is responsible for.
        let share = |ns: &NodeSample| {
            let occ = ns.resident as f64 / total_resident as f64;
            let rate = if total_placements >= self.cfg.min_calls {
                ns.placements as f64 / total_placements as f64
            } else {
                0.0
            };
            occ.max(rate)
        };
        // Overloaded sources, most concentrated first (lower id on ties).
        let mut sources: Vec<(f64, usize)> = nodes
            .iter()
            .enumerate()
            .filter(|(_, ns)| share(ns) >= self.cfg.scatter_share && ns.resident > fair)
            .map(|(i, ns)| (share(ns), i))
            .collect();
        sources.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        if sources.is_empty() {
            return;
        }
        // Objects the attract paths already spoke for this tick.
        let taken: HashSet<u64> = out
            .iter()
            .map(|d| match *d {
                PlacementDecision::Move { obj, .. }
                | PlacementDecision::Replicate { obj, .. }
                | PlacementDecision::Scatter { obj, .. } => obj,
            })
            .chain(samples.iter().map(|s| s.obj))
            .collect();
        let mut remaining = budget;
        for (_, src) in sources {
            if remaining == 0 {
                break;
            }
            // Emptiness-ranked targets: invert the load score so the least
            // loaded node wins; residents then node id break ties.
            let mut targets: Vec<usize> = (0..nodes.len()).filter(|&i| i != src).collect();
            targets.sort_by(|&a, &b| {
                let load = |i: usize| nodes[i].calls as f64 / (1.0 + nodes[i].queue_depth as f64);
                load(a)
                    .total_cmp(&load(b))
                    .then(nodes[a].resident.cmp(&nodes[b].resident))
                    .then(a.cmp(&b))
            });
            // Shed at most down to fair share, never below.
            let excess = (nodes[src].resident.saturating_sub(fair)) as usize;
            let mut shed = 0usize;
            for &obj in &nodes[src].cold {
                if shed >= excess || remaining == 0 {
                    break;
                }
                if taken.contains(&obj) {
                    continue;
                }
                if self.cooldown_until.get(&obj).copied().unwrap_or(0) > self.tick_no {
                    continue;
                }
                if self.credit.get(&obj).copied().unwrap_or(0.0) > self.cfg.scatter_cold_credit {
                    continue;
                }
                // Round-robin over the emptiness ranking so one tick's
                // budget doesn't pile onto a single target.
                let to = NodeId::from(targets[shed % targets.len()]);
                self.cooldown_until
                    .insert(obj, self.tick_no + self.cfg.cooldown_ticks);
                out.push(PlacementDecision::Scatter { obj, to });
                shed += 1;
                remaining -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdaptiveConfig {
        AdaptiveConfig {
            tick: SimTime::from_ms(1),
            min_calls: 4,
            hysteresis: 2.0,
            cooldown_ticks: 3,
            max_moves_per_tick: 2,
            max_replicas_per_tick: 2,
            replica_cap: 2,
            replica_idle_ticks: Some(8),
            scatter_share: 0.5,
            scatter_cold_credit: 1.0,
            max_scatters_per_tick: 0,
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

    /// Node samples for a cluster with no occupancy signal at all — the
    /// attract-path tests use these, since only the scatter path reads them.
    fn quiet_nodes(n: usize) -> Vec<NodeSample> {
        (0..n)
            .map(|i| NodeSample {
                node: NodeId::from(i),
                resident: 0,
                placements: 0,
                calls: 0,
                queue_depth: 0,
                cold: Vec::new(),
            })
            .collect()
    }

    /// A node sample with `resident` objects, all of them cold candidates
    /// at addresses `base, base+16, ...`.
    fn loaded_node(i: usize, resident: u64, base: u64) -> NodeSample {
        NodeSample {
            node: NodeId::from(i),
            resident,
            placements: 0,
            calls: 0,
            queue_depth: 0,
            cold: (0..resident).map(|k| base + 16 * k).collect(),
        }
    }

    fn scatter_cfg() -> AdaptiveConfig {
        AdaptiveConfig {
            scatter_share: 0.5,
            scatter_cold_credit: 1.0,
            max_scatters_per_tick: 2,
            ..cfg()
        }
    }

    #[test]
    fn moves_toward_dominant_caller() {
        let mut adv = TrafficAdvisor::new(cfg());
        let d = adv.decide(&quiet_nodes(2), &[sample(16, 1, &[40, 2])]);
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
        let d = adv.decide(&quiet_nodes(2), &[sample(16, 1, &[30, 20])]);
        assert!(d.is_empty());
    }

    #[test]
    fn local_dominance_never_moves() {
        let mut adv = TrafficAdvisor::new(cfg());
        let d = adv.decide(&quiet_nodes(2), &[sample(16, 0, &[100, 1])]);
        assert!(d.is_empty());
    }

    #[test]
    fn cooldown_suppresses_immediate_reproposal() {
        let mut adv = TrafficAdvisor::new(cfg());
        let hot = sample(16, 1, &[40, 2]);
        assert_eq!(
            adv.decide(&quiet_nodes(2), std::slice::from_ref(&hot))
                .len(),
            1
        );
        // Same imbalance next ticks: still cooling down.
        assert!(adv
            .decide(&quiet_nodes(2), std::slice::from_ref(&hot))
            .is_empty());
        assert!(adv
            .decide(&quiet_nodes(2), std::slice::from_ref(&hot))
            .is_empty());
        // Cooldown expired (and credit rebuilt): proposed again.
        assert_eq!(
            adv.decide(&quiet_nodes(2), std::slice::from_ref(&hot))
                .len(),
            1
        );
    }

    #[test]
    fn rate_limit_takes_highest_credit_first() {
        let mut adv = TrafficAdvisor::new(cfg());
        let d = adv.decide(
            &quiet_nodes(2),
            &[
                sample(16, 1, &[10, 0]),
                sample(32, 1, &[80, 0]),
                sample(48, 1, &[40, 0]),
            ],
        );
        assert_eq!(d.len(), 2, "rate limit");
        assert_eq!(
            d[0],
            PlacementDecision::Move {
                obj: 32,
                to: NodeId(0)
            },
            "highest credit first"
        );
        assert_eq!(
            d[1],
            PlacementDecision::Move {
                obj: 48,
                to: NodeId(0)
            }
        );
    }

    #[test]
    fn quiet_objects_are_ignored() {
        let mut adv = TrafficAdvisor::new(cfg());
        // Below min_calls in the window.
        let d = adv.decide(&quiet_nodes(2), &[sample(16, 1, &[3, 0])]);
        assert!(d.is_empty());
    }

    #[test]
    fn immutable_objects_replicate_toward_heavy_readers() {
        let mut adv = TrafficAdvisor::new(cfg());
        // Origin on node 0; nodes 1 and 2 both read heavily.
        let d = adv.decide(
            &quiet_nodes(3),
            &[immutable_sample(16, 0, &[1, 40, 20], &[])],
        );
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
        // Cap is 2 and nodes 1, 2 already hold copies: node 3's heavy reads
        // earn nothing.
        let d = adv.decide(
            &quiet_nodes(4),
            &[immutable_sample(16, 0, &[1, 5, 5, 40], &[1, 2])],
        );
        assert!(d.is_empty(), "replica cap reached: {d:?}");
    }

    #[test]
    fn nodes_already_holding_replicas_are_not_reproposed() {
        let mut adv = TrafficAdvisor::new(cfg());
        let d = adv.decide(
            &quiet_nodes(3),
            &[immutable_sample(16, 0, &[1, 40, 40], &[1])],
        );
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
        // Two hot mutable movers exhaust the move budget; the immutable
        // object's replication still goes through on its own budget.
        let d = adv.decide(
            &quiet_nodes(2),
            &[
                sample(16, 1, &[80, 0]),
                sample(32, 1, &[60, 0]),
                immutable_sample(48, 0, &[1, 40], &[]),
            ],
        );
        assert_eq!(d.len(), 3, "moves: {d:?}");
        assert!(matches!(d[2], PlacementDecision::Replicate { obj: 48, .. }));
    }

    #[test]
    fn replication_prefers_lightly_loaded_readers() {
        let mut adv = TrafficAdvisor::new(cfg());
        // Node 1 reads slightly more but is deeply queued; node 2 wins the
        // single budget... both qualify, order flips toward the idle node.
        let s = immutable_sample(16, 0, &[1, 50, 40], &[]);
        let mut nodes = quiet_nodes(3);
        nodes[1].queue_depth = 9;
        let mut c = cfg();
        c.max_replicas_per_tick = 1;
        let mut adv2 = TrafficAdvisor::new(c);
        let d = adv2.decide(&nodes, std::slice::from_ref(&s));
        assert_eq!(
            d,
            vec![PlacementDecision::Replicate {
                obj: 16,
                to: NodeId(2)
            }]
        );
        // With no load signal the raw call count decides.
        let d = adv.decide(&quiet_nodes(3), std::slice::from_ref(&s));
        assert_eq!(
            d[0],
            PlacementDecision::Replicate {
                obj: 16,
                to: NodeId(1)
            }
        );
    }

    #[test]
    fn moves_prefer_lightly_loaded_dominant_callers() {
        let mut adv = TrafficAdvisor::new(cfg());
        // Node 0 calls more but is saturated; node 2's lighter queue makes
        // it the better target even with fewer calls.
        let s = sample(16, 1, &[50, 2, 40]);
        let mut nodes = quiet_nodes(3);
        nodes[0].queue_depth = 9;
        let d = adv.decide(&nodes, std::slice::from_ref(&s));
        assert_eq!(
            d,
            vec![PlacementDecision::Move {
                obj: 16,
                to: NodeId(2)
            }]
        );
    }

    #[test]
    fn scatter_spreads_cold_objects_off_the_dominant_node() {
        let mut adv = TrafficAdvisor::new(scatter_cfg());
        // Node 0 holds 6 of 7 objects (86% > 50% trigger); node 1 is near
        // empty. Two proposals (the budget), both toward node 1.
        let nodes = [loaded_node(0, 6, 160), loaded_node(1, 1, 960)];
        let d = adv.decide(&nodes, &[]);
        assert_eq!(
            d,
            vec![
                PlacementDecision::Scatter {
                    obj: 160,
                    to: NodeId(1)
                },
                PlacementDecision::Scatter {
                    obj: 176,
                    to: NodeId(1)
                },
            ]
        );
    }

    #[test]
    fn scatter_disabled_by_default() {
        let mut adv = TrafficAdvisor::new(cfg());
        let nodes = [loaded_node(0, 6, 160), loaded_node(1, 0, 960)];
        assert!(adv.decide(&nodes, &[]).is_empty());
    }

    #[test]
    fn scatter_holds_below_the_occupancy_trigger() {
        let mut adv = TrafficAdvisor::new(scatter_cfg());
        // 40% share < 50% trigger: balanced enough, leave it alone.
        let nodes = [
            loaded_node(0, 4, 160),
            loaded_node(1, 3, 960),
            loaded_node(2, 3, 1600),
        ];
        assert!(adv.decide(&nodes, &[]).is_empty());
    }

    #[test]
    fn scatter_stops_at_fair_share() {
        let mut c = scatter_cfg();
        c.max_scatters_per_tick = 8;
        let mut adv = TrafficAdvisor::new(c);
        // 4 of 6 on node 0, fair share is 2 per node: shed exactly 2 even
        // with budget to spare, so targets never overshoot in one tick.
        let nodes = [
            loaded_node(0, 4, 160),
            loaded_node(1, 1, 960),
            loaded_node(2, 1, 1600),
        ];
        let d = adv.decide(&nodes, &[]);
        assert_eq!(d.len(), 2, "shed to fair share only: {d:?}");
    }

    #[test]
    fn scatter_targets_the_emptiest_node_by_inverted_load() {
        let mut c = scatter_cfg();
        c.max_scatters_per_tick = 1;
        let mut adv = TrafficAdvisor::new(c);
        // Node 1 is busy (calls and queue depth), node 2 idle: the single
        // scatter goes to node 2 even though both are equally resident.
        let mut nodes = [
            loaded_node(0, 6, 160),
            loaded_node(1, 1, 960),
            loaded_node(2, 1, 1600),
        ];
        nodes[1].calls = 50;
        nodes[1].queue_depth = 4;
        let d = adv.decide(&nodes, &[]);
        assert_eq!(
            d,
            vec![PlacementDecision::Scatter {
                obj: 160,
                to: NodeId(2)
            }]
        );
    }

    #[test]
    fn scatter_skips_objects_the_attract_paths_are_watching() {
        let mut adv = TrafficAdvisor::new(scatter_cfg());
        // Object 160 shows up in the traffic samples (its group saw calls),
        // so only 176 and 192 are truly cold and eligible.
        let nodes = [loaded_node(0, 6, 160), loaded_node(1, 1, 960)];
        let d = adv.decide(&nodes, &[sample(160, 0, &[4, 0])]);
        assert_eq!(d.len(), 2);
        assert!(
            d.iter()
                .all(|p| !matches!(p, PlacementDecision::Scatter { obj: 160, .. })),
            "sampled object scattered: {d:?}"
        );
    }

    #[test]
    fn scatter_respects_cooldown() {
        let mut c = scatter_cfg();
        c.max_scatters_per_tick = 1;
        let mut adv = TrafficAdvisor::new(c);
        let nodes = [loaded_node(0, 6, 160), loaded_node(1, 1, 960)];
        let first = adv.decide(&nodes, &[]);
        assert_eq!(first.len(), 1);
        // Same picture next tick: the proposed object is cooling down, so
        // the next candidate goes instead.
        let second = adv.decide(&nodes, &[]);
        assert_eq!(second.len(), 1);
        assert_ne!(first, second, "cooldown ignored");
    }

    #[test]
    fn scatter_placement_rate_alone_can_trigger() {
        let mut adv = TrafficAdvisor::new(scatter_cfg());
        // Occupancy is balanced, but node 0 took all of this tick's (many)
        // placements: the rate share trips the same trigger.
        let mut nodes = [loaded_node(0, 3, 160), loaded_node(1, 3, 960)];
        nodes[0].placements = 8;
        let d = adv.decide(&nodes, &[]);
        assert!(d.is_empty(), "balanced occupancy must not scatter: {d:?}");
        // Set the trigger out of occupancy's reach (5/8 = 62% < 90%): only
        // the placement-rate share (8/8 = 100%) can fire, and it does.
        let mut c = scatter_cfg();
        c.scatter_share = 0.9;
        let mut adv = TrafficAdvisor::new(c);
        let mut nodes = [loaded_node(0, 5, 160), loaded_node(1, 3, 960)];
        nodes[0].placements = 8;
        let d = adv.decide(&nodes, &[]);
        assert_eq!(d.len(), 1, "placement-rate share never triggered: {d:?}");
    }

    #[test]
    fn replication_cooldown_suppresses_immediate_reproposal() {
        let mut adv = TrafficAdvisor::new(cfg());
        let hot = immutable_sample(16, 0, &[1, 40], &[]);
        assert_eq!(
            adv.decide(&quiet_nodes(2), std::slice::from_ref(&hot))
                .len(),
            1
        );
        assert!(adv
            .decide(&quiet_nodes(2), std::slice::from_ref(&hot))
            .is_empty());
        assert!(adv
            .decide(&quiet_nodes(2), std::slice::from_ref(&hot))
            .is_empty());
        assert_eq!(
            adv.decide(&quiet_nodes(2), std::slice::from_ref(&hot))
                .len(),
            1
        );
    }
}
