//! The bounded, head-sampled span recorder behind [`TraceRecorder`].

use workloads::{ModelId, PriorityClass};

use crate::fault::FaultEvent;
use crate::migration::{MigrationMode, MigrationRecord};
use crate::obs::{AlertTransition, FleetCounters, MetricsRegistry, ObsSink, RejectReason};
use crate::sampler::splitmix64;
use crate::telemetry::{ControlAction, TelemetryFrame};
use crate::NodeId;

/// Configuration of a [`TraceRecorder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Ring capacity in events: the recorder retains at most this many span
    /// records, overwriting the oldest beyond it, so trace memory is
    /// `O(capacity)` at any arrival count.
    pub capacity: usize,
    /// Head-sampling rate in `[0, 1]`: the fraction of requests whose
    /// lifecycle spans are recorded. The decision is a seeded hash of the
    /// request sequence number — deterministic, memoryless, and consistent
    /// across the request's dispatch, service and completion events.
    /// Migration, control and tick events are always recorded.
    pub sample_rate: f64,
    /// Seed of the sampling hash; same seed + same rate ⇒ the same sampled
    /// request set, byte-identical exports.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 65_536,
            sample_rate: 1.0,
            seed: 0,
        }
    }
}

impl TraceConfig {
    /// Overrides the ring capacity (at least one event).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Overrides the head-sampling rate (clamped to `[0, 1]`).
    pub fn with_sample_rate(mut self, rate: f64) -> Self {
        self.sample_rate = if rate.is_finite() {
            rate.clamp(0.0, 1.0)
        } else {
            1.0
        };
        self
    }

    /// Overrides the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Recorder bookkeeping: how much was recorded, overwritten and sampled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Events pushed into the ring (including ones later overwritten).
    pub recorded: u64,
    /// Events lost to ring wrap-around (oldest-first).
    pub overwritten: u64,
    /// Requests whose lifecycle passed the head-sampling decision.
    pub sampled_requests: u64,
    /// Requests skipped by head-sampling (their registry aggregates still
    /// count).
    pub skipped_requests: u64,
}

/// One recorded span/instant, compact enough for a multi-million-event ring.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TraceEvent {
    Arrival {
        at: u64,
        sequence: u64,
        model: ModelId,
    },
    Reject {
        at: u64,
        sequence: u64,
        model: ModelId,
        reason: RejectReason,
    },
    Queue {
        from: u64,
        until: u64,
        sequence: u64,
        model: ModelId,
        node: NodeId,
        slot: u32,
    },
    Service {
        from: u64,
        until: u64,
        model: ModelId,
        node: NodeId,
        slot: u32,
        batch: u32,
    },
    Complete {
        at: u64,
        sequence: u64,
        node: NodeId,
        slot: u32,
        deadline_met: Option<bool>,
    },
    Expire {
        at: u64,
        sequence: u64,
        model: ModelId,
        node: NodeId,
        slot: u32,
    },
    CopyRound {
        from: u64,
        until: u64,
        source: NodeId,
        dest: NodeId,
        slot: u32,
        round: u32,
        bytes: u64,
    },
    StopCopy {
        from: u64,
        until: u64,
        source: NodeId,
        dest: NodeId,
        slot: u32,
        bytes: u64,
        mode: MigrationMode,
        converged: bool,
    },
    Control {
        at: u64,
        kind: ControlKind,
        node: Option<NodeId>,
        dest: Option<NodeId>,
        model: Option<ModelId>,
    },
    Tick {
        at: u64,
        counters: FleetCounters,
    },
}

/// The control-action flavor recorded in a [`TraceEvent::Control`] instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ControlKind {
    ScaleUp,
    ScaleDown,
    Migrate,
}

impl ControlKind {
    pub(crate) fn label(self) -> &'static str {
        match self {
            ControlKind::ScaleUp => "scale-up",
            ControlKind::ScaleDown => "scale-down",
            ControlKind::Migrate => "migrate",
        }
    }
}

/// The structured trace recorder: an [`ObsSink`] that collects span records
/// into a bounded ring plus exact aggregates into a [`MetricsRegistry`].
///
/// Pass one to
/// [`ClusterServingSim::run_observed`](crate::ClusterServingSim::run_observed)
/// (or `run_observed_with_controller`), then export with
/// [`TraceRecorder::export_chrome_trace`] and open the JSON in
/// <https://ui.perfetto.dev>. Everything the recorder stores is keyed by
/// deterministic simulation cycles: the same seed and config produce a
/// byte-identical export.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    config: TraceConfig,
    /// `sample iff splitmix64(seed ^ sequence) <= threshold`; `u64::MAX`
    /// means always (rate ≥ 1).
    threshold: u64,
    ring: Vec<TraceEvent>,
    /// Next overwrite position once the ring is full (also the oldest
    /// retained event).
    head: usize,
    stats: TraceStats,
    registry: MetricsRegistry,
    /// Whether the batch currently being announced (see hook order on
    /// [`ObsSink`]) contains at least one sampled member.
    batch_sampled: bool,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new(TraceConfig::default())
    }
}

impl TraceRecorder {
    /// A recorder with the given ring/sampling configuration, normalized by
    /// the [`TraceConfig`] builders' rules (a struct literal's non-finite
    /// rate samples everything, exactly as `with_sample_rate` would).
    pub fn new(config: TraceConfig) -> Self {
        let config = config
            .with_capacity(config.capacity)
            .with_sample_rate(config.sample_rate);
        let threshold = if config.sample_rate >= 1.0 {
            u64::MAX
        } else {
            (config.sample_rate * u64::MAX as f64) as u64
        };
        TraceRecorder {
            config,
            threshold,
            ring: Vec::new(),
            head: 0,
            stats: TraceStats::default(),
            registry: MetricsRegistry::new(),
            batch_sampled: false,
        }
    }

    /// The configuration the recorder was built with.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Recorder bookkeeping (recorded / overwritten / sampling counts).
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Events currently retained in the ring (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The exact aggregate metrics accumulated alongside the span ring.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Whether `sequence`'s lifecycle is recorded under the seeded
    /// head-sampling decision. Deterministic and stateless: the same
    /// (seed, rate, sequence) always answers the same.
    pub fn is_sampled(&self, sequence: u64) -> bool {
        if self.threshold == u64::MAX {
            return true;
        }
        if self.threshold == 0 {
            return false;
        }
        splitmix64(self.config.seed ^ sequence) <= self.threshold
    }

    /// Exports the recorded trace as Chrome `trace_event` JSON (see
    /// [`export_chrome_trace`](crate::obs::export_chrome_trace)).
    pub fn export_chrome_trace(&self) -> String {
        crate::obs::export_chrome_trace(self)
    }

    /// Retained events, oldest first.
    pub(crate) fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, front) = self.ring.split_at(self.head.min(self.ring.len()));
        front.iter().chain(tail.iter())
    }

    /// Folds `other` into `self`: `other`'s retained events re-enter this
    /// ring (oldest first, overwriting this ring's oldest beyond capacity),
    /// sampling/loss bookkeeping sums, and the registries merge exactly.
    ///
    /// This is the combination step for per-partition recorders in a sharded
    /// event loop. Merge partitions in a fixed order for a deterministic
    /// result; events keep their own timestamps, so exporters stay truthful
    /// even though the merged ring is ordered per-partition rather than
    /// globally.
    pub fn merge(&mut self, other: &TraceRecorder) {
        for event in other.events() {
            self.push(*event);
        }
        // push() counted each retained event into `recorded`; rebase so the
        // total is everything either side ever recorded, and fold in the
        // events `other` had already lost to its own ring wrap.
        self.stats.recorded += other.stats.recorded - other.len() as u64;
        self.stats.overwritten += other.stats.overwritten;
        self.stats.sampled_requests += other.stats.sampled_requests;
        self.stats.skipped_requests += other.stats.skipped_requests;
        self.registry.merge(&other.registry);
    }

    fn push(&mut self, event: TraceEvent) {
        self.stats.recorded += 1;
        if self.ring.len() < self.config.capacity {
            self.ring.push(event);
        } else {
            self.ring[self.head] = event;
            self.head = (self.head + 1) % self.config.capacity;
            self.stats.overwritten += 1;
        }
    }
}

/// Every hook feeds the registry through the one hook→metric mapping, then
/// records its span or instant if the request is sampled.
impl ObsSink for TraceRecorder {
    fn active(&self) -> bool {
        true
    }

    fn on_arrival(&mut self, now: u64, sequence: u64, model: ModelId) {
        self.registry.on_arrival(now, sequence, model);
        if self.is_sampled(sequence) {
            self.stats.sampled_requests += 1;
            self.push(TraceEvent::Arrival {
                at: now,
                sequence,
                model,
            });
        } else {
            self.stats.skipped_requests += 1;
        }
    }

    fn on_dispatch(&mut self, now: u64, sequence: u64, model: ModelId, node: NodeId, slot: usize) {
        self.registry.on_dispatch(now, sequence, model, node, slot);
    }

    fn on_reject(&mut self, now: u64, sequence: u64, model: ModelId, reason: RejectReason) {
        self.registry.on_reject(now, sequence, model, reason);
        if self.is_sampled(sequence) {
            self.push(TraceEvent::Reject {
                at: now,
                sequence,
                model,
                reason,
            });
        }
    }

    fn on_service_request(
        &mut self,
        start: u64,
        sequence: u64,
        model: ModelId,
        arrived: u64,
        node: NodeId,
        slot: usize,
    ) {
        if self.is_sampled(sequence) {
            self.batch_sampled = true;
            self.push(TraceEvent::Queue {
                from: arrived,
                until: start,
                sequence,
                model,
                node,
                slot: slot as u32,
            });
        }
    }

    fn on_service_batch(
        &mut self,
        start: u64,
        finish: u64,
        model: ModelId,
        node: NodeId,
        slot: usize,
        batch: usize,
    ) {
        self.registry
            .on_service_batch(start, finish, model, node, slot, batch);
        if std::mem::take(&mut self.batch_sampled) {
            self.push(TraceEvent::Service {
                from: start,
                until: finish,
                model,
                node,
                slot: slot as u32,
                batch: batch as u32,
            });
        }
    }

    fn on_complete(
        &mut self,
        now: u64,
        sequence: u64,
        model: ModelId,
        priority: PriorityClass,
        arrived: u64,
        node: NodeId,
        slot: usize,
        deadline_met: Option<bool>,
    ) {
        self.registry.on_complete(
            now,
            sequence,
            model,
            priority,
            arrived,
            node,
            slot,
            deadline_met,
        );
        if self.is_sampled(sequence) {
            self.push(TraceEvent::Complete {
                at: now,
                sequence,
                node,
                slot: slot as u32,
                deadline_met,
            });
        }
    }

    fn on_expire(
        &mut self,
        now: u64,
        sequence: u64,
        model: ModelId,
        arrived: u64,
        node: NodeId,
        slot: usize,
    ) {
        self.registry
            .on_expire(now, sequence, model, arrived, node, slot);
        if self.is_sampled(sequence) {
            self.push(TraceEvent::Expire {
                at: now,
                sequence,
                model,
                node,
                slot: slot as u32,
            });
        }
    }

    fn on_copy_round(
        &mut self,
        start: u64,
        finish: u64,
        from: NodeId,
        to: NodeId,
        slot: usize,
        round: u32,
        bytes: u64,
    ) {
        self.registry
            .on_copy_round(start, finish, from, to, slot, round, bytes);
        self.push(TraceEvent::CopyRound {
            from: start,
            until: finish,
            source: from,
            dest: to,
            slot: slot as u32,
            round,
            bytes,
        });
    }

    fn on_stop_copy(&mut self, start: u64, finish: u64, slot: usize, record: &MigrationRecord) {
        self.registry.on_stop_copy(start, finish, slot, record);
        self.push(TraceEvent::StopCopy {
            from: start,
            until: finish,
            source: record.from,
            dest: record.to,
            slot: slot as u32,
            bytes: record.state_bytes,
            mode: record.mode,
            converged: record.converged,
        });
    }

    fn on_migration_rejected(&mut self, now: u64, slot: usize) {
        self.registry.on_migration_rejected(now, slot);
    }

    fn on_control(&mut self, now: u64, action: &ControlAction) {
        self.registry.on_control(now, action);
        let (kind, node, dest, model) = match action {
            ControlAction::ScaleUp { spec, .. } => {
                (ControlKind::ScaleUp, None, None, Some(spec.model))
            }
            ControlAction::ScaleDown { handle } => {
                (ControlKind::ScaleDown, Some(handle.node), None, None)
            }
            ControlAction::Migrate { handle, to, .. } => {
                (ControlKind::Migrate, Some(handle.node), Some(*to), None)
            }
        };
        self.push(TraceEvent::Control {
            at: now,
            kind,
            node,
            dest,
            model,
        });
    }

    fn on_tick(&mut self, now: u64, frame: &TelemetryFrame, counters: &FleetCounters) {
        self.registry.on_tick(now, frame, counters);
        self.push(TraceEvent::Tick {
            at: now,
            counters: *counters,
        });
    }

    fn on_alert(&mut self, now: u64, alert: &AlertTransition) {
        self.registry.on_alert(now, alert);
    }

    fn on_fault(&mut self, now: u64, fault: &FaultEvent) {
        self.registry.on_fault(now, fault);
    }

    fn on_failover(
        &mut self,
        now: u64,
        node: NodeId,
        replicas_failed: u64,
        redispatched: u64,
        detect_cycles: u64,
    ) {
        self.registry
            .on_failover(now, node, replicas_failed, redispatched, detect_cycles);
    }

    fn on_replica_restored(&mut self, now: u64, node: NodeId, slot: usize, restore_cycles: u64) {
        self.registry
            .on_replica_restored(now, node, slot, restore_cycles);
    }

    fn on_restore_rejected(&mut self, now: u64, node: NodeId) {
        self.registry.on_restore_rejected(now, node);
    }

    fn on_lost(&mut self, now: u64, sequence: u64, model: ModelId, node: NodeId) {
        self.registry.on_lost(now, sequence, model, node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Metric;

    #[test]
    fn ring_is_bounded_and_keeps_the_newest_events() {
        let mut recorder = TraceRecorder::new(TraceConfig::default().with_capacity(8));
        for sequence in 0..100u64 {
            recorder.on_arrival(sequence, sequence, ModelId::Mnist);
        }
        assert_eq!(recorder.len(), 8, "ring never exceeds capacity");
        let stats = recorder.stats();
        assert_eq!(stats.recorded, 100);
        assert_eq!(stats.overwritten, 92);
        // The survivors are the newest 8 events, oldest first.
        let sequences: Vec<u64> = recorder
            .events()
            .map(|event| match event {
                TraceEvent::Arrival { sequence, .. } => *sequence,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(sequences, (92..100).collect::<Vec<u64>>());
        // Registry aggregates are exact regardless of the ring.
        assert_eq!(recorder.metrics().counter(Metric::ServingArrivals), 100);
    }

    #[test]
    fn head_sampling_is_deterministic_and_roughly_proportional() {
        let recorder =
            TraceRecorder::new(TraceConfig::default().with_sample_rate(0.25).with_seed(42));
        let sampled: Vec<u64> = (0..10_000u64).filter(|s| recorder.is_sampled(*s)).collect();
        // Deterministic: a second recorder with the same config agrees.
        let again = TraceRecorder::new(TraceConfig::default().with_sample_rate(0.25).with_seed(42));
        assert!(sampled.iter().all(|s| again.is_sampled(*s)));
        // Roughly a quarter of the population.
        assert!(
            (2_000..3_000).contains(&sampled.len()),
            "got {}",
            sampled.len()
        );
        // A different seed draws a different subset.
        let reseeded =
            TraceRecorder::new(TraceConfig::default().with_sample_rate(0.25).with_seed(43));
        assert!(sampled.iter().any(|s| !reseeded.is_sampled(*s)));
        // Edge rates.
        let all = TraceRecorder::new(TraceConfig::default().with_sample_rate(1.0));
        assert!(all.is_sampled(7));
        let none = TraceRecorder::new(TraceConfig::default().with_sample_rate(0.0));
        assert!(!none.is_sampled(7));
    }

    #[test]
    fn struct_literal_configs_normalize_like_the_builders() {
        for rate in [f64::NAN, f64::NEG_INFINITY, f64::INFINITY, -0.5, 0.3, 1.5] {
            let literal = TraceRecorder::new(TraceConfig {
                sample_rate: rate,
                capacity: 0,
                ..TraceConfig::default()
            });
            let built = TraceRecorder::new(
                TraceConfig::default()
                    .with_sample_rate(rate)
                    .with_capacity(0),
            );
            assert_eq!(literal.config(), built.config(), "rate {rate}");
            assert!(
                (0..1_000u64).all(|s| literal.is_sampled(s) == built.is_sampled(s)),
                "rate {rate} samples differently from a struct literal"
            );
        }
    }

    #[test]
    fn unsampled_requests_skip_the_ring_but_count_in_the_registry() {
        let mut recorder = TraceRecorder::new(TraceConfig::default().with_sample_rate(0.0));
        recorder.on_arrival(0, 1, ModelId::Mnist);
        recorder.on_service_request(5, 1, ModelId::Mnist, 0, NodeId(0), 0);
        recorder.on_service_batch(5, 10, ModelId::Mnist, NodeId(0), 0, 1);
        recorder.on_complete(
            10,
            1,
            ModelId::Mnist,
            PriorityClass::Standard,
            0,
            NodeId(0),
            0,
            None,
        );
        assert!(recorder.is_empty(), "no spans at rate 0");
        assert_eq!(recorder.metrics().counter(Metric::ServingCompleted), 1);
        assert_eq!(recorder.metrics().counter(Metric::ServingBatches), 1);
        assert_eq!(recorder.stats().skipped_requests, 1);
    }

    #[test]
    fn merge_combines_rings_stats_and_registries() {
        let mut a = TraceRecorder::new(TraceConfig::default().with_capacity(4));
        for sequence in 0..3u64 {
            a.on_arrival(sequence, sequence, ModelId::Mnist);
        }
        let mut b = TraceRecorder::new(TraceConfig::default().with_capacity(4));
        for sequence in 10..16u64 {
            b.on_arrival(sequence, sequence, ModelId::Mnist);
        }
        a.merge(&b);
        assert_eq!(a.len(), 4, "merged ring stays bounded");
        let stats = a.stats();
        assert_eq!(stats.recorded, 9, "every event either side ever recorded");
        // b lost 2 to its own wrap; the merge overwrote 3 more in a.
        assert_eq!(stats.overwritten, 5);
        assert_eq!(stats.sampled_requests, 9);
        assert_eq!(a.metrics().counter(Metric::ServingArrivals), 9);
        // The survivors are b's newest retained events, oldest first.
        let sequences: Vec<u64> = a
            .events()
            .map(|event| match event {
                TraceEvent::Arrival { sequence, .. } => *sequence,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(sequences, vec![12, 13, 14, 15]);
    }
}
