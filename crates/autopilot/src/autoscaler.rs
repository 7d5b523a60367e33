//! The telemetry-driven autoscaler.
//!
//! Watches each model's outstanding work and window deadline-miss rate in
//! the [`cluster::TelemetryFrame`] ([`TelemetryFrame::outstanding`],
//! [`TelemetryFrame::deadline`]) and grows or shrinks the replica set between
//! per-model floors and ceilings. Scale-up goes through the cluster's
//! placement engine ([`cluster::ControlAction::ScaleUp`]); scale-down drains
//! the least-loaded replica and releases its vNPU
//! ([`cluster::ControlAction::ScaleDown`]). Two policy families are
//! provided:
//!
//! * [`TargetTracking`] — keep outstanding work per replica near a target,
//!   with an extra replica whenever the window miss rate exceeds its bound;
//! * [`StepScaling`] — classic threshold/step scaling with separate up and
//!   down cooldowns.
//!
//! Both apply **cooldowns** (no thrash while a previous decision is still
//! taking effect) and **hysteresis** (the scale-down threshold sits well
//! below the scale-up threshold, so the controller does not oscillate
//! around a single boundary). The decision procedure is a pure function of
//! the frame and the scaler's own state, keeping serving runs deterministic.

use std::collections::BTreeMap;

use cluster::{ControlAction, DeploySpec, PlacementPolicy, TelemetryFrame, VnpuHandle};
use workloads::ModelId;

/// Target-tracking on outstanding work per replica and the deadline-miss
/// rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetTracking {
    /// Desired outstanding requests (queued + in service) per live replica.
    pub target_outstanding_per_replica: f64,
    /// Window deadline-miss rate above which one extra replica is added even
    /// if the backlog target is met.
    pub max_miss_rate: f64,
    /// Scale down only when per-replica backlog is below
    /// `target × (1 − hysteresis)`, so the controller never flaps around the
    /// target itself.
    pub hysteresis: f64,
    /// EWMA weight of the newest backlog sample, in `(0, 1]`; 1 disables
    /// smoothing. Instantaneous queue depth is noisy — a batch completion
    /// empties it for one tick, a Poisson clump doubles it for another — and
    /// the replica busy-fraction is no alternative: under dynamic batching a
    /// replica is busy whenever *any* backlog exists (partial batches just
    /// get smaller), so utilization saturates at ~1 across a wide load
    /// range. Smoothing the outstanding-work signal is what keeps the
    /// tracker from flapping on tick-to-tick noise.
    pub smoothing: f64,
    /// Cycles between scaling decisions for one model.
    pub cooldown: u64,
}

impl TargetTracking {
    /// Tracks `target` outstanding requests per replica with a 5% miss-rate
    /// bound, 30% hysteresis and the given cooldown.
    ///
    /// # Example
    ///
    /// ```
    /// use autopilot::TargetTracking;
    ///
    /// let policy = TargetTracking::new(4.0, 50_000).with_max_miss_rate(0.025);
    /// assert_eq!(policy.target_outstanding_per_replica, 4.0);
    /// assert_eq!(policy.max_miss_rate, 0.025);
    /// // Hysteresis defaults to 30%: scale-down needs backlog below
    /// // 70% of target, not merely below target, so the tracker
    /// // doesn't flap around the setpoint.
    /// assert_eq!(policy.hysteresis, 0.3);
    /// ```
    pub fn new(target: f64, cooldown: u64) -> Self {
        TargetTracking {
            target_outstanding_per_replica: target.max(f64::MIN_POSITIVE),
            max_miss_rate: 0.05,
            hysteresis: 0.3,
            smoothing: 0.4,
            cooldown,
        }
    }

    /// Overrides the backlog-EWMA smoothing weight.
    pub fn with_smoothing(mut self, smoothing: f64) -> Self {
        self.smoothing = if smoothing.is_finite() {
            smoothing.clamp(f64::MIN_POSITIVE, 1.0)
        } else {
            1.0
        };
        self
    }

    /// Overrides the miss-rate bound.
    pub fn with_max_miss_rate(mut self, rate: f64) -> Self {
        self.max_miss_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Overrides the scale-down hysteresis.
    pub fn with_hysteresis(mut self, hysteresis: f64) -> Self {
        self.hysteresis = hysteresis.clamp(0.0, 1.0);
        self
    }
}

/// Threshold/step scaling with independent up and down cooldowns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepScaling {
    /// Outstanding work per replica above which `step` replicas are added.
    pub up_threshold: f64,
    /// Outstanding work per replica below which `step` replicas are drained.
    pub down_threshold: f64,
    /// Replicas added or drained per decision.
    pub step: usize,
    /// Cycles between scale-ups.
    pub up_cooldown: u64,
    /// Cycles between scale-downs (and after any scale-up).
    pub down_cooldown: u64,
}

impl StepScaling {
    /// One-replica steps with the down threshold at a quarter of the up
    /// threshold (built-in hysteresis) and a slower down cooldown.
    pub fn new(up_threshold: f64, up_cooldown: u64) -> Self {
        StepScaling {
            up_threshold: up_threshold.max(f64::MIN_POSITIVE),
            down_threshold: up_threshold / 4.0,
            step: 1,
            up_cooldown,
            down_cooldown: up_cooldown.saturating_mul(2),
        }
    }

    /// Overrides the scale-down threshold.
    pub fn with_down_threshold(mut self, threshold: f64) -> Self {
        self.down_threshold = threshold.max(0.0);
        self
    }

    /// Overrides the step size.
    pub fn with_step(mut self, step: usize) -> Self {
        self.step = step.max(1);
        self
    }
}

/// How one model scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AutoscalePolicy {
    /// Track a per-replica backlog target (and a miss-rate bound).
    TargetTracking(TargetTracking),
    /// Step up/down across fixed thresholds.
    StepScaling(StepScaling),
}

/// The scaling contract of one model: what a replica looks like, where the
/// replica count may move, and the policy that moves it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingSpec {
    /// The replica to deploy on scale-up.
    pub deploy: DeploySpec,
    /// How scale-up picks the hosting node.
    pub placement: PlacementPolicy,
    /// The replica floor (never drained below).
    pub min_replicas: usize,
    /// The replica ceiling (never grown above).
    pub max_replicas: usize,
    /// The scaling policy.
    pub policy: AutoscalePolicy,
}

impl ScalingSpec {
    /// A spec scaling `deploy` between `min` and `max` replicas under
    /// `policy`, placed topology-aware.
    pub fn new(deploy: DeploySpec, min: usize, max: usize, policy: AutoscalePolicy) -> Self {
        ScalingSpec {
            deploy,
            placement: PlacementPolicy::TopologyAware,
            min_replicas: min.max(1),
            max_replicas: max.max(min.max(1)),
            policy,
        }
    }

    /// Overrides the placement policy used for scale-up.
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }
}

/// Per-model cooldown and signal-smoothing bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct ScaleState {
    last_up: Option<u64>,
    last_down: Option<u64>,
    /// Smoothed outstanding-work signal (target tracking).
    ewma_outstanding: Option<f64>,
}

impl ScaleState {
    fn last_change(&self) -> Option<u64> {
        match (self.last_up, self.last_down) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }
}

/// The autoscaler: per-model [`ScalingSpec`]s plus the cooldown state.
#[derive(Debug, Clone, Default)]
pub struct Autoscaler {
    specs: BTreeMap<ModelId, ScalingSpec>,
    state: BTreeMap<ModelId, ScaleState>,
}

impl Autoscaler {
    /// An autoscaler managing no models yet.
    pub fn new() -> Self {
        Autoscaler::default()
    }

    /// Registers (or replaces) the scaling contract of one model.
    pub fn manage(&mut self, spec: ScalingSpec) {
        self.specs.insert(spec.deploy.model, spec);
    }

    /// The managed models, in id order.
    pub fn models(&self) -> impl Iterator<Item = ModelId> + '_ {
        self.specs.keys().copied()
    }

    /// The scaling contract registered for `model`, if any.
    pub fn spec(&self, model: ModelId) -> Option<&ScalingSpec> {
        self.specs.get(&model)
    }

    /// Decides the scaling actions for one telemetry frame.
    pub fn decide(&mut self, frame: &TelemetryFrame) -> Vec<ControlAction> {
        let now = frame.at.get();
        let mut actions = Vec::new();
        for (model, spec) in &self.specs {
            let live = frame.replicas_of(*model).count();
            let outstanding = frame.outstanding(*model);
            let miss_rate = frame.deadline(*model).miss_rate();
            let state = self.state.entry(*model).or_default();

            // The floor is unconditional: a model below its minimum replica
            // count is re-provisioned regardless of cooldowns (e.g. after a
            // failed scale-up or at bootstrap).
            if live < spec.min_replicas {
                for _ in live..spec.min_replicas {
                    actions.push(ControlAction::ScaleUp {
                        spec: spec.deploy,
                        placement: spec.placement,
                    });
                }
                state.last_up = Some(now);
                continue;
            }

            let per_replica = outstanding as f64 / live.max(1) as f64;
            match spec.policy {
                AutoscalePolicy::TargetTracking(tt) => {
                    let smoothed = match state.ewma_outstanding {
                        Some(prev) => {
                            tt.smoothing * outstanding as f64 + (1.0 - tt.smoothing) * prev
                        }
                        None => outstanding as f64,
                    };
                    state.ewma_outstanding = Some(smoothed);
                    let target = tt.target_outstanding_per_replica;
                    let mut desired = (smoothed / target).ceil() as usize;
                    if miss_rate > tt.max_miss_rate {
                        // Misses mean the backlog signal lags reality: add
                        // capacity even at a met backlog target.
                        desired = desired.max(live + 1);
                    }
                    let desired = desired.clamp(spec.min_replicas, spec.max_replicas);
                    let up_ok = state
                        .last_up
                        .is_none_or(|t| now.saturating_sub(t) >= tt.cooldown);
                    let down_ok = state
                        .last_change()
                        .is_none_or(|t| now.saturating_sub(t) >= tt.cooldown);
                    if desired > live && up_ok {
                        for _ in live..desired {
                            actions.push(ControlAction::ScaleUp {
                                spec: spec.deploy,
                                placement: spec.placement,
                            });
                        }
                        state.last_up = Some(now);
                    } else if live > spec.min_replicas
                        && down_ok
                        && miss_rate <= tt.max_miss_rate
                        && smoothed / (live as f64) < target * (1.0 - tt.hysteresis)
                    {
                        // Conservative shrink: one replica per decision.
                        if let Some(victim) = Self::victim(frame, *model) {
                            actions.push(ControlAction::ScaleDown { handle: victim });
                            state.last_down = Some(now);
                        }
                    }
                }
                AutoscalePolicy::StepScaling(step) => {
                    let up_ok = state
                        .last_up
                        .is_none_or(|t| now.saturating_sub(t) >= step.up_cooldown);
                    let down_ok = state
                        .last_change()
                        .is_none_or(|t| now.saturating_sub(t) >= step.down_cooldown);
                    if per_replica > step.up_threshold && up_ok {
                        let add = step.step.min(spec.max_replicas.saturating_sub(live));
                        for _ in 0..add {
                            actions.push(ControlAction::ScaleUp {
                                spec: spec.deploy,
                                placement: spec.placement,
                            });
                        }
                        if add > 0 {
                            state.last_up = Some(now);
                        }
                    } else if per_replica < step.down_threshold && down_ok {
                        let drop = step.step.min(live.saturating_sub(spec.min_replicas));
                        let mut victims: Vec<VnpuHandle> = Vec::new();
                        for _ in 0..drop {
                            match Self::victim_excluding(frame, *model, &victims) {
                                Some(victim) => victims.push(victim),
                                None => break,
                            }
                        }
                        if !victims.is_empty() {
                            state.last_down = Some(now);
                        }
                        actions.extend(
                            victims
                                .into_iter()
                                .map(|handle| ControlAction::ScaleDown { handle }),
                        );
                    }
                }
            }
        }
        actions
    }

    /// The least-loaded live replica of `model` — the cheapest to drain.
    fn victim(frame: &TelemetryFrame, model: ModelId) -> Option<VnpuHandle> {
        Self::victim_excluding(frame, model, &[])
    }

    fn victim_excluding(
        frame: &TelemetryFrame,
        model: ModelId,
        excluded: &[VnpuHandle],
    ) -> Option<VnpuHandle> {
        frame
            .replicas_of(model)
            .filter(|r| !excluded.contains(&r.handle))
            .min_by_key(|r| (r.outstanding(), r.handle))
            .map(|r| r.handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{NodeId, ReplicaSample};
    use neu10::VnpuId;
    use npu_sim::Cycles;

    fn frame(at: u64, replicas: Vec<ReplicaSample>) -> TelemetryFrame {
        TelemetryFrame {
            at: Cycles(at),
            replicas,
            deadlines: BTreeMap::new(),
        }
    }

    fn replica(index: u32, model: ModelId, queue_len: usize, in_flight: usize) -> ReplicaSample {
        ReplicaSample {
            handle: VnpuHandle {
                node: NodeId(index),
                vnpu: VnpuId(index),
            },
            model,
            queue_len,
            in_flight,
            draining: false,
        }
    }

    fn tracking_scaler(target: f64, cooldown: u64) -> Autoscaler {
        let mut scaler = Autoscaler::new();
        scaler.manage(ScalingSpec::new(
            DeploySpec::replica(ModelId::Mnist, 2, 2),
            1,
            4,
            AutoscalePolicy::TargetTracking(TargetTracking::new(target, cooldown)),
        ));
        scaler
    }

    #[test]
    fn target_tracking_scales_up_on_backlog() {
        let mut scaler = tracking_scaler(4.0, 1_000);
        // One replica with 12 outstanding: desired = ceil(12/4) = 3.
        let actions = scaler.decide(&frame(10_000, vec![replica(0, ModelId::Mnist, 11, 1)]));
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, ControlAction::ScaleUp { .. }))
                .count(),
            2
        );
        // Cooldown: an immediate second frame changes nothing.
        let again = scaler.decide(&frame(10_100, vec![replica(0, ModelId::Mnist, 11, 1)]));
        assert!(again.is_empty(), "cooldown must gate repeat scale-ups");
    }

    #[test]
    fn target_tracking_scales_down_with_hysteresis() {
        let mut scaler = tracking_scaler(4.0, 1_000);
        // Three nearly idle replicas: per-replica backlog 0.33 < 4 × 0.7.
        let idle = vec![
            replica(0, ModelId::Mnist, 1, 0),
            replica(1, ModelId::Mnist, 0, 0),
            replica(2, ModelId::Mnist, 0, 0),
        ];
        let actions = scaler.decide(&frame(50_000, idle.clone()));
        assert_eq!(actions.len(), 1, "one replica drains per decision");
        match actions[0] {
            ControlAction::ScaleDown { handle } => {
                assert_eq!(handle.node, NodeId(1), "the least-loaded replica drains");
            }
            ref other => panic!("expected a scale-down, got {other:?}"),
        }
        // Inside the hysteresis band nothing happens.
        let mut banded = tracking_scaler(4.0, 1_000);
        let busyish = vec![
            replica(0, ModelId::Mnist, 3, 1),
            replica(1, ModelId::Mnist, 3, 0),
            replica(2, ModelId::Mnist, 3, 0),
        ];
        assert!(
            banded.decide(&frame(50_000, busyish)).is_empty(),
            "per-replica backlog inside the hysteresis band must not drain"
        );
    }

    #[test]
    fn miss_rate_forces_an_extra_replica() {
        let mut scaler = tracking_scaler(8.0, 1_000);
        let mut f = frame(10_000, vec![replica(0, ModelId::Mnist, 2, 1)]);
        // Backlog target met, but the window missed a third of its deadlines.
        let tally = f.deadlines.entry(ModelId::Mnist).or_default();
        tally.record_completion(false);
        tally.record_completion(true);
        tally.record_completion(true);
        let actions = scaler.decide(&f);
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], ControlAction::ScaleUp { .. }));
    }

    #[test]
    fn floor_is_restored_unconditionally() {
        let mut scaler = Autoscaler::new();
        scaler.manage(ScalingSpec::new(
            DeploySpec::replica(ModelId::Mnist, 2, 2),
            2,
            4,
            AutoscalePolicy::TargetTracking(TargetTracking::new(4.0, u64::MAX)),
        ));
        // Zero live replicas: two scale-ups despite the infinite cooldown.
        let actions = scaler.decide(&frame(100, vec![]));
        assert_eq!(actions.len(), 2);
        assert!(actions
            .iter()
            .all(|a| matches!(a, ControlAction::ScaleUp { .. })));
    }

    #[test]
    fn step_scaling_steps_between_thresholds() {
        let mut scaler = Autoscaler::new();
        scaler.manage(ScalingSpec::new(
            DeploySpec::replica(ModelId::Mnist, 2, 2),
            1,
            4,
            AutoscalePolicy::StepScaling(
                StepScaling::new(6.0, 1_000)
                    .with_step(2)
                    .with_down_threshold(1.0),
            ),
        ));
        // Over the up threshold: +2 replicas.
        let hot = scaler.decide(&frame(5_000, vec![replica(0, ModelId::Mnist, 8, 1)]));
        assert_eq!(hot.len(), 2);
        // Far below the down threshold much later: −2 replicas, but the
        // floor keeps one.
        let cold = vec![
            replica(0, ModelId::Mnist, 0, 0),
            replica(1, ModelId::Mnist, 0, 0),
            replica(2, ModelId::Mnist, 0, 0),
        ];
        let down = scaler.decide(&frame(50_000, cold));
        assert_eq!(down.len(), 2);
        assert!(down
            .iter()
            .all(|a| matches!(a, ControlAction::ScaleDown { .. })));
        let victims: Vec<_> = down
            .iter()
            .map(|a| match a {
                ControlAction::ScaleDown { handle } => *handle,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(victims.len(), 2);
        assert_ne!(victims[0], victims[1], "distinct victims drain");
    }

    #[test]
    fn draining_replicas_are_not_picked_again() {
        let mut scaler = tracking_scaler(4.0, 0);
        let mut draining = replica(1, ModelId::Mnist, 0, 0);
        draining.draining = true;
        let f = frame(
            50_000,
            vec![
                replica(0, ModelId::Mnist, 1, 0),
                draining,
                replica(2, ModelId::Mnist, 0, 0),
            ],
        );
        let actions = scaler.decide(&f);
        assert_eq!(actions.len(), 1);
        match actions[0] {
            ControlAction::ScaleDown { handle } => assert_eq!(handle.node, NodeId(2)),
            ref other => panic!("expected a scale-down, got {other:?}"),
        }
    }
}
