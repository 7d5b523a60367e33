//! Deterministic fault injection and availability accounting.
//!
//! Cloud NPU fleets lose boards, links and telemetry as a matter of course;
//! a serving stack that has never been exercised against failure proves
//! nothing about availability. This module makes failure a first-class,
//! *seeded* input to the serving simulator:
//!
//! * a [`FaultSchedule`] lists [`FaultEvent`]s — board crashes, transient
//!   hangs, link degradation, straggler boards (service-time inflation) and
//!   telemetry dropouts — either hand-written or drawn from a seeded
//!   [`FaultProfile`] generator, and is injected into the event loop as a
//!   dedicated deterministic event kind
//!   ([`ServingOptions::with_faults`](crate::ServingOptions::with_faults));
//! * a [`RecoveryPolicy`] arms the recovery machinery: failure detection by
//!   a phi-style **missed-telemetry-frame counter** (no wall clock — a node
//!   that misses `k` consecutive telemetry frames is declared dead), replica
//!   **failover** with topology-aware re-placement through the placement
//!   engine, and **re-dispatch** of the dead board's queued and in-flight
//!   requests within their remaining deadline budget
//!   ([`ServingOptions::with_recovery`](crate::ServingOptions::with_recovery));
//! * [`AvailabilityStats`] on the [`ServingReport`](crate::ServingReport)
//!   accounts for every admitted request under chaos: completed, expired,
//!   shed, re-dispatched or **lost with a fault attribution** — nothing is
//!   silently dropped — plus time-to-detect and time-to-recover
//!   distributions and per-model availability.
//!
//! Everything is a pure function of the schedule, the trace and the seed:
//! the same inputs give a byte-identical report, faults included.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::ModelId;

use crate::placement::PlacementPolicy;
use crate::NodeId;

/// One injected fault.
///
/// Durations are in cycles; factors are multiplicative slowdowns (`2.0` =
/// twice as slow). Faults target *nodes* (boards) or node pairs (links):
/// every replica hosted on an affected board feels the fault, which is how
/// real board-level failures behave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The board dies permanently: in-flight batches never complete, queued
    /// requests black-hole until detection, heartbeats stop immediately.
    BoardCrash {
        /// The board that dies.
        node: NodeId,
    },
    /// The board freezes for `for_cycles`, then recovers by itself:
    /// no new batches start and heartbeats are suppressed for the window,
    /// but work already on the device completes. A hang longer than the
    /// detection threshold is indistinguishable from a crash and is failed
    /// over; the recovered board then rejoins as spare capacity.
    BoardHang {
        /// The board that hangs.
        node: NodeId,
        /// Length of the freeze, in cycles.
        for_cycles: u64,
    },
    /// The interconnect between two boards degrades: migration and failover
    /// state transfers crossing the pair take `factor` times as long for the
    /// window. A very large factor models a partition.
    LinkDegrade {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Multiplicative transfer-time inflation (≥ 1).
        factor: f64,
        /// Length of the degradation, in cycles.
        for_cycles: u64,
    },
    /// The board straggles: every batch *started* on it during the window
    /// takes `factor` times its nominal service time.
    Straggler {
        /// The straggling board.
        node: NodeId,
        /// Multiplicative service-time inflation (≥ 1).
        factor: f64,
        /// Length of the straggle, in cycles.
        for_cycles: u64,
    },
    /// The board's telemetry agent goes quiet for the window while serving
    /// continues unaffected. Long dropouts trigger *false* failovers — the
    /// price of detection without a wall clock — and exercise the SLO
    /// engine's no-flap behaviour under missing frames.
    TelemetryDropout {
        /// The board whose heartbeats vanish.
        node: NodeId,
        /// Length of the dropout, in cycles.
        for_cycles: u64,
    },
}

impl FaultKind {
    /// The primary node this fault targets (`a` for link faults).
    pub fn node(&self) -> NodeId {
        match *self {
            FaultKind::BoardCrash { node }
            | FaultKind::BoardHang { node, .. }
            | FaultKind::Straggler { node, .. }
            | FaultKind::TelemetryDropout { node, .. } => node,
            FaultKind::LinkDegrade { a, .. } => a,
        }
    }

    /// A short stable label for metrics and traces.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::BoardCrash { .. } => "board_crash",
            FaultKind::BoardHang { .. } => "board_hang",
            FaultKind::LinkDegrade { .. } => "link_degrade",
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::TelemetryDropout { .. } => "telemetry_dropout",
        }
    }
}

/// One fault at one injection time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Injection time, in cycles.
    pub at: u64,
    /// What breaks.
    pub kind: FaultKind,
}

/// A time-ordered list of faults to inject into one serving run.
///
/// Build one by hand with [`FaultSchedule::with_fault`] for targeted
/// scenarios, or draw one from a seeded [`FaultProfile`] for randomized
/// chaos runs. The schedule is part of the run's deterministic input: the
/// same schedule and seed reproduce the same report byte for byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (no faults).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Adds one fault, keeping the schedule time-ordered (stable for ties).
    pub fn with_fault(mut self, at: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Draws a schedule from `profile` over `[0, horizon)` across `nodes`
    /// boards, seeded. Injection times land in `[horizon/10, horizon)`, past
    /// the first tenth of the horizon, so faults hit a warmed-up fleet
    /// rather than an empty one.
    pub fn generate(seed: u64, horizon: u64, nodes: u32, profile: &FaultProfile) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = nodes.max(1);
        let mut events = Vec::new();
        let lo = horizon / 10;
        let hi = horizon.max(lo + 1);
        let at = |rng: &mut StdRng| rng.gen_range(lo..hi);
        let node = |rng: &mut StdRng| NodeId(rng.gen_range(0..nodes));
        for _ in 0..profile.crashes {
            let (when, who) = (at(&mut rng), node(&mut rng));
            events.push(FaultEvent {
                at: when,
                kind: FaultKind::BoardCrash { node: who },
            });
        }
        for _ in 0..profile.hangs {
            let (when, who) = (at(&mut rng), node(&mut rng));
            events.push(FaultEvent {
                at: when,
                kind: FaultKind::BoardHang {
                    node: who,
                    for_cycles: profile.hang_cycles,
                },
            });
        }
        for _ in 0..profile.link_degrades {
            let when = at(&mut rng);
            let a = node(&mut rng);
            let b = NodeId((a.0 + 1 + rng.gen_range(0..nodes.max(2) - 1)) % nodes.max(2));
            events.push(FaultEvent {
                at: when,
                kind: FaultKind::LinkDegrade {
                    a,
                    b,
                    factor: profile.link_factor,
                    for_cycles: profile.link_cycles,
                },
            });
        }
        for _ in 0..profile.stragglers {
            let (when, who) = (at(&mut rng), node(&mut rng));
            events.push(FaultEvent {
                at: when,
                kind: FaultKind::Straggler {
                    node: who,
                    factor: profile.straggle_factor,
                    for_cycles: profile.straggle_cycles,
                },
            });
        }
        for _ in 0..profile.dropouts {
            let (when, who) = (at(&mut rng), node(&mut rng));
            events.push(FaultEvent {
                at: when,
                kind: FaultKind::TelemetryDropout {
                    node: who,
                    for_cycles: profile.dropout_cycles,
                },
            });
        }
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    /// The faults, time-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Per-kind fault counts and durations for [`FaultSchedule::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Permanent board crashes to inject.
    pub crashes: usize,
    /// Transient board hangs to inject.
    pub hangs: usize,
    /// Hang duration, in cycles.
    pub hang_cycles: u64,
    /// Link degradations to inject.
    pub link_degrades: usize,
    /// Link transfer-time inflation factor.
    pub link_factor: f64,
    /// Link degradation duration, in cycles.
    pub link_cycles: u64,
    /// Straggler windows to inject.
    pub stragglers: usize,
    /// Straggler service-time inflation factor.
    pub straggle_factor: f64,
    /// Straggler window duration, in cycles.
    pub straggle_cycles: u64,
    /// Telemetry dropouts to inject.
    pub dropouts: usize,
    /// Dropout duration, in cycles.
    pub dropout_cycles: u64,
}

impl Default for FaultProfile {
    /// One crash, one hang, one straggler window and one dropout with
    /// moderate durations — a light but representative chaos mix.
    fn default() -> Self {
        FaultProfile {
            crashes: 1,
            hangs: 1,
            hang_cycles: 400_000,
            link_degrades: 1,
            link_factor: 8.0,
            link_cycles: 500_000,
            stragglers: 1,
            straggle_factor: 4.0,
            straggle_cycles: 400_000,
            dropouts: 1,
            dropout_cycles: 300_000,
        }
    }
}

/// How the fleet detects and survives board loss.
///
/// Detection is clockless: every telemetry tick, each board hosting live
/// replicas either heartbeats (its telemetry arrived) or misses. A board at
/// `missed_frame_threshold` consecutive misses is declared dead: its
/// replicas are fenced and retired, their requests re-dispatched, and
/// replacement replicas are re-placed through the placement engine on the
/// surviving boards. Recovery requires telemetry
/// ([`ServingOptions::with_telemetry`](crate::ServingOptions::with_telemetry));
/// without a telemetry bus no frame is ever missed and nothing is detected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Consecutive missed telemetry frames before a board is declared dead.
    pub missed_frame_threshold: u32,
    /// Placement policy for failover re-placement.
    pub placement: PlacementPolicy,
}

impl RecoveryPolicy {
    /// Declares a board dead after `missed_frame_threshold` consecutive
    /// missed frames and re-places topology-aware.
    pub fn new(missed_frame_threshold: u32) -> Self {
        RecoveryPolicy {
            missed_frame_threshold: missed_frame_threshold.max(1),
            placement: PlacementPolicy::TopologyAware,
        }
    }

    /// Overrides the failover re-placement policy.
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }
}

/// Availability accounting of one model, in every run: each admitted
/// request completes, expires or is lost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelAvailability {
    /// Requests admitted (dispatched or queued) for the model.
    pub admitted: u64,
    /// Requests that eventually completed.
    pub completed: u64,
    /// Requests lost to a fault or an abandoned migration (attributed,
    /// never silent).
    pub lost: u64,
}

impl ModelAvailability {
    /// Completed fraction of admitted requests (1.0 with no traffic).
    pub fn availability(&self) -> f64 {
        if self.admitted == 0 {
            1.0
        } else {
            self.completed as f64 / self.admitted as f64
        }
    }

    /// Whether the model met an availability target such as `0.999`.
    pub fn attained(&self, target: f64) -> bool {
        self.availability() >= target
    }
}

/// What chaos did to the run and what recovery salvaged.
///
/// Attached to every [`ServingReport`](crate::ServingReport). When no faults
/// were injected, the fault and failover counters are zero, while
/// [`per_model`](AvailabilityStats::per_model) still accounts every admitted
/// request and [`lost`](AvailabilityStats::lost) counts the queue of an
/// abandoned cross-partition migration. The conservation law the chaos
/// property test pins: every admitted request **completes**, **expires with
/// a recorded drop**, or is **counted in [`lost`](AvailabilityStats::lost)
/// with an attribution** — there is no fourth bucket.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AvailabilityStats {
    /// Board crashes injected.
    pub crashes: u64,
    /// Board hangs injected.
    pub hangs: u64,
    /// Link degradations injected.
    pub link_degrades: u64,
    /// Straggler windows injected.
    pub stragglers: u64,
    /// Telemetry dropouts injected.
    pub dropouts: u64,
    /// Boards declared dead by the missed-frame detector.
    pub failovers: u64,
    /// Replicas fenced and retired by failover.
    pub replicas_failed: u64,
    /// Replacement replicas successfully re-placed.
    pub replicas_restored: u64,
    /// Failover re-placements the placement engine had no room for.
    pub restore_rejected: u64,
    /// Requests orphaned on dead boards (queued or in flight at fencing).
    pub orphaned: u64,
    /// Orphans re-dispatched to surviving replicas.
    pub redispatched: u64,
    /// Orphans already past their deadline at failover, dropped with the
    /// normal expiry accounting.
    pub expired_in_failover: u64,
    /// Requests lost: orphans no surviving replica could accept, requests
    /// still marooned on undetected dead boards at run end, and the queue of
    /// a cross-partition migration that both its destination and its source
    /// refused. The last kind is counted whether or not the run injects
    /// faults. Equals the sum of `per_model`'s `lost`.
    pub lost: u64,
    /// Total fault-to-declaration latency over all failovers, in cycles.
    pub detect_cycles_total: u64,
    /// Worst single fault-to-declaration latency, in cycles.
    pub detect_cycles_max: u64,
    /// Total fault-to-replica-restored latency over all restores, in cycles.
    pub restore_cycles_total: u64,
    /// Worst single fault-to-replica-restored latency, in cycles.
    pub restore_cycles_max: u64,
    /// Per-model admitted/completed/lost, for every model that admitted a
    /// request, in every run (faults or not).
    pub per_model: BTreeMap<ModelId, ModelAvailability>,
}

impl AvailabilityStats {
    /// Folds another partition's availability accounting into this one.
    ///
    /// Counters and totals add, worst-case latencies take the max, and the
    /// per-model entries merge field-wise — the fold is commutative except
    /// for map insertion order, which `BTreeMap` keeps canonical, so a fixed
    /// partitioning merges to the same stats in any order.
    pub fn merge(&mut self, other: &AvailabilityStats) {
        self.crashes += other.crashes;
        self.hangs += other.hangs;
        self.link_degrades += other.link_degrades;
        self.stragglers += other.stragglers;
        self.dropouts += other.dropouts;
        self.failovers += other.failovers;
        self.replicas_failed += other.replicas_failed;
        self.replicas_restored += other.replicas_restored;
        self.restore_rejected += other.restore_rejected;
        self.orphaned += other.orphaned;
        self.redispatched += other.redispatched;
        self.expired_in_failover += other.expired_in_failover;
        self.lost += other.lost;
        self.detect_cycles_total += other.detect_cycles_total;
        self.detect_cycles_max = self.detect_cycles_max.max(other.detect_cycles_max);
        self.restore_cycles_total += other.restore_cycles_total;
        self.restore_cycles_max = self.restore_cycles_max.max(other.restore_cycles_max);
        for (model, theirs) in &other.per_model {
            let ours = self.per_model.entry(*model).or_default();
            ours.admitted += theirs.admitted;
            ours.completed += theirs.completed;
            ours.lost += theirs.lost;
        }
    }

    /// Total faults injected.
    pub fn injected(&self) -> u64 {
        self.crashes + self.hangs + self.link_degrades + self.stragglers + self.dropouts
    }

    /// Mean fault-to-declaration latency, in cycles.
    pub fn mean_detect_cycles(&self) -> f64 {
        if self.failovers == 0 {
            0.0
        } else {
            self.detect_cycles_total as f64 / self.failovers as f64
        }
    }

    /// Mean fault-to-replica-restored latency, in cycles.
    pub fn mean_restore_cycles(&self) -> f64 {
        if self.replicas_restored == 0 {
            0.0
        } else {
            self.restore_cycles_total as f64 / self.replicas_restored as f64
        }
    }

    /// Fleet-wide availability: completed fraction of admitted requests
    /// across every model (1.0 with no traffic).
    pub fn availability(&self) -> f64 {
        let (admitted, completed) = self
            .per_model
            .values()
            .fold((0u64, 0u64), |(a, c), m| (a + m.admitted, c + m.completed));
        if admitted == 0 {
            1.0
        } else {
            completed as f64 / admitted as f64
        }
    }

    /// Models meeting an availability target such as `0.999`.
    pub fn models_attaining(&self, target: f64) -> usize {
        self.per_model
            .values()
            .filter(|m| m.attained(target))
            .count()
    }
}

/// Normalizes a node pair so `(a, b)` and `(b, a)` share one link record:
/// links are bidirectional.
pub(crate) fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Live chaos bookkeeping inside one serving run: which boards are down,
/// which windows are open, how many frames each board has missed, and the
/// fault and failover counters of [`AvailabilityStats`]. The serving loop
/// keeps the request ledger (lost count and per-model table) itself.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChaosState {
    /// Boards that crashed (permanent).
    pub(crate) crashed: BTreeSet<NodeId>,
    /// Boards declared dead by the detector (crashed or fenced-alive).
    pub(crate) declared: BTreeSet<NodeId>,
    /// Boards cordoned off from placement (crashed or hung); hung boards are
    /// re-onlined by the sample-tick sweep once their window closes.
    pub(crate) cordoned: BTreeSet<NodeId>,
    /// Open hang windows: node → end cycle.
    pub(crate) hung_until: BTreeMap<NodeId, u64>,
    /// Open telemetry-dropout windows: node → end cycle.
    pub(crate) dropout_until: BTreeMap<NodeId, u64>,
    /// Open link-degradation windows: pair → (end cycle, factor).
    pub(crate) link_slow: BTreeMap<(NodeId, NodeId), (u64, f64)>,
    /// Open straggler windows: node → (end cycle, factor).
    pub(crate) straggle: BTreeMap<NodeId, (u64, f64)>,
    /// Consecutive missed telemetry frames per monitored node.
    pub(crate) missed: BTreeMap<NodeId, u32>,
    /// First uncleared heartbeat-suppressing fault per node (detect latency).
    pub(crate) fault_since: BTreeMap<NodeId, u64>,
    /// The fault and failover counters; `lost` and `per_model` stay empty.
    pub(crate) stats: AvailabilityStats,
    /// Failure-detector scratch, refilled at every telemetry tick: the boards
    /// hosting a live replica, ascending and deduplicated.
    pub(crate) monitored: Vec<NodeId>,
}

impl ChaosState {
    /// Whether the board's heartbeats are suppressed at `now`.
    pub(crate) fn suppressed(&self, node: NodeId, now: u64) -> bool {
        self.crashed.contains(&node)
            || self.hung_until.get(&node).is_some_and(|&end| now < end)
            || self.dropout_until.get(&node).is_some_and(|&end| now < end)
    }

    /// Whether the board cannot start new batches at `now`.
    pub(crate) fn board_down(&self, node: NodeId, now: u64) -> bool {
        self.crashed.contains(&node) || self.hung_until.get(&node).is_some_and(|&end| now < end)
    }

    /// Transfer-time inflation for the `(a, b)` link at `now` (1.0 clean).
    pub(crate) fn link_factor(&self, a: NodeId, b: NodeId, now: u64) -> f64 {
        match self.link_slow.get(&link_key(a, b)) {
            Some(&(end, factor)) if now < end => factor.max(1.0),
            _ => 1.0,
        }
    }

    /// Service-time inflation for batches started on `node` at `now`.
    pub(crate) fn service_factor(&self, node: NodeId, now: u64) -> f64 {
        match self.straggle.get(&node) {
            Some(&(end, factor)) if now < end => factor.max(1.0),
            _ => 1.0,
        }
    }

    /// Applies one fault's state change (the serving loop handles replica
    /// fencing and event scheduling) and counts it.
    pub(crate) fn apply(&mut self, event: &FaultEvent) {
        let now = event.at;
        match event.kind {
            FaultKind::BoardCrash { node } => {
                self.stats.crashes += 1;
                self.crashed.insert(node);
                self.fault_since.entry(node).or_insert(now);
            }
            FaultKind::BoardHang { node, for_cycles } => {
                self.stats.hangs += 1;
                let end = now.saturating_add(for_cycles);
                let slot = self.hung_until.entry(node).or_insert(end);
                *slot = (*slot).max(end);
                self.fault_since.entry(node).or_insert(now);
            }
            FaultKind::LinkDegrade {
                a,
                b,
                factor,
                for_cycles,
            } => {
                self.stats.link_degrades += 1;
                let end = now.saturating_add(for_cycles);
                let slot = self
                    .link_slow
                    .entry(link_key(a, b))
                    .or_insert((end, factor));
                *slot = (slot.0.max(end), factor.max(slot.1));
            }
            FaultKind::Straggler {
                node,
                factor,
                for_cycles,
            } => {
                self.stats.stragglers += 1;
                let end = now.saturating_add(for_cycles);
                let slot = self.straggle.entry(node).or_insert((end, factor));
                *slot = (slot.0.max(end), factor.max(slot.1));
            }
            FaultKind::TelemetryDropout { node, for_cycles } => {
                self.stats.dropouts += 1;
                let end = now.saturating_add(for_cycles);
                let slot = self.dropout_until.entry(node).or_insert(end);
                *slot = (*slot).max(end);
                self.fault_since.entry(node).or_insert(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_generation_is_seeded_and_sorted() {
        let profile = FaultProfile::default();
        let a = FaultSchedule::generate(7, 1_000_000, 4, &profile);
        let b = FaultSchedule::generate(7, 1_000_000, 4, &profile);
        let c = FaultSchedule::generate(8, 1_000_000, 4, &profile);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert_eq!(a.len(), 5, "default profile injects one fault per kind");
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.events().iter().all(|e| e.at < 1_000_000));
    }

    #[test]
    fn manual_schedule_stays_time_ordered() {
        let schedule = FaultSchedule::new()
            .with_fault(500, FaultKind::BoardCrash { node: NodeId(1) })
            .with_fault(
                100,
                FaultKind::TelemetryDropout {
                    node: NodeId(0),
                    for_cycles: 50,
                },
            );
        assert_eq!(schedule.events()[0].at, 100);
        assert_eq!(schedule.events()[1].at, 500);
        assert!(!schedule.is_empty());
    }

    #[test]
    fn chaos_windows_open_and_close() {
        let mut chaos = ChaosState::default();
        chaos.apply(&FaultEvent {
            at: 100,
            kind: FaultKind::BoardHang {
                node: NodeId(2),
                for_cycles: 400,
            },
        });
        chaos.apply(&FaultEvent {
            at: 150,
            kind: FaultKind::Straggler {
                node: NodeId(1),
                factor: 3.0,
                for_cycles: 100,
            },
        });
        chaos.apply(&FaultEvent {
            at: 200,
            kind: FaultKind::LinkDegrade {
                a: NodeId(3),
                b: NodeId(0),
                factor: 5.0,
                for_cycles: 100,
            },
        });
        assert!(chaos.board_down(NodeId(2), 400));
        assert!(!chaos.board_down(NodeId(2), 500), "hang window closes");
        assert!(chaos.suppressed(NodeId(2), 400));
        assert_eq!(chaos.service_factor(NodeId(1), 200), 3.0);
        assert_eq!(chaos.service_factor(NodeId(1), 250), 1.0);
        // Link lookup is direction-agnostic.
        assert_eq!(chaos.link_factor(NodeId(0), NodeId(3), 250), 5.0);
        assert_eq!(chaos.link_factor(NodeId(3), NodeId(0), 250), 5.0);
        assert_eq!(chaos.link_factor(NodeId(3), NodeId(0), 300), 1.0);
        assert_eq!(chaos.stats.injected(), 3);
    }

    #[test]
    fn crash_suppression_is_permanent() {
        let mut chaos = ChaosState::default();
        chaos.apply(&FaultEvent {
            at: 100,
            kind: FaultKind::BoardCrash { node: NodeId(0) },
        });
        assert!(chaos.board_down(NodeId(0), u64::MAX));
        assert!(chaos.suppressed(NodeId(0), u64::MAX));
        assert_eq!(chaos.fault_since.get(&NodeId(0)), Some(&100));
    }

    #[test]
    fn availability_math() {
        let mut stats = AvailabilityStats::default();
        stats.per_model.insert(
            ModelId::Mnist,
            ModelAvailability {
                admitted: 1000,
                completed: 999,
                lost: 1,
            },
        );
        stats.per_model.insert(
            ModelId::Bert,
            ModelAvailability {
                admitted: 100,
                completed: 90,
                lost: 10,
            },
        );
        assert_eq!(stats.models_attaining(0.999), 1);
        let fleet = stats.availability();
        assert!((fleet - 1089.0 / 1100.0).abs() < 1e-12);
        assert_eq!(ModelAvailability::default().availability(), 1.0);
    }
}
