//! Autopilot: the closed-loop control plane of the NPU fleet.
//!
//! The fleet layer (`cluster`) can *execute* operator decisions — place a
//! replica, route a request, migrate a vNPU — but nothing in it *makes*
//! those decisions: replica counts are fixed for a run. Real accelerator
//! fleets face strongly diurnal and bursty demand, and the whole point of
//! hardware-assisted vNPU virtualization is that the operator can pack
//! tenants densely and reassign resources dynamically. This crate closes the
//! loop:
//!
//! * the **telemetry bus** ([`cluster::telemetry`]) samples every replica
//!   and model periodically during a serving run;
//! * the [`Autoscaler`] turns those samples into replica-count decisions
//!   under pluggable policies ([`TargetTracking`], [`StepScaling`]) with
//!   cooldowns and hysteresis, scaling up through the placement engine and
//!   down by drain-then-release;
//! * the [`Defragmenter`] watches for scattered free capacity (the fleet
//!   could host another vNPU, no single board can) and issues consolidation
//!   migrations priced by the interconnect model;
//! * [`Autopilot`] composes both behind [`cluster::ControlPlane`] and keeps
//!   an [`AutopilotLog`] of every action for reporting.
//!
//! # Example
//!
//! ```
//! use autopilot::{Autopilot, AutoscalePolicy, ScalingSpec, TargetTracking};
//! use cluster::{ClusterServingSim, DeploySpec, DispatchPolicy, NpuCluster,
//!               PlacementPolicy, ServingOptions};
//! use npu_sim::NpuConfig;
//! use workloads::{ClusterTrace, ModelId};
//!
//! let mut fleet = NpuCluster::homogeneous(2, &NpuConfig::single_core());
//! let replica = DeploySpec::replica(ModelId::Mnist, 2, 2);
//! fleet.deploy(replica, PlacementPolicy::TopologyAware).unwrap();
//!
//! let mut pilot = Autopilot::new().with_model(ScalingSpec::new(
//!     replica,
//!     1,
//!     4,
//!     AutoscalePolicy::TargetTracking(TargetTracking::new(4.0, 200_000)),
//! ));
//! let trace = ClusterTrace::poisson(&[(ModelId::Mnist, 30_000)], 40, 7);
//! let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
//!     .with_batching(4)
//!     .with_telemetry(100_000);
//! let report = ClusterServingSim::new(options)
//!     .run_with_controller(&mut fleet, &trace, &mut pilot);
//! assert_eq!(report.stats.completed, report.stats.admitted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoscaler;
pub mod defrag;

pub use autoscaler::{AutoscalePolicy, Autoscaler, ScalingSpec, StepScaling, TargetTracking};
pub use defrag::Defragmenter;

use std::collections::{BTreeMap, BTreeSet};

use cluster::{
    AlertKind, AlertTransition, ControlAction, ControlPlane, NpuCluster, TelemetryFrame,
};
use npu_sim::Cycles;
use workloads::ModelId;

/// One control-plane action with the tick that issued it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutopilotEvent {
    /// The telemetry tick timestamp.
    pub at: Cycles,
    /// The action issued.
    pub action: ControlAction,
}

/// The time-ordered record of every action the autopilot issued.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AutopilotLog {
    /// The issued actions, in order.
    pub events: Vec<AutopilotEvent>,
}

impl AutopilotLog {
    /// Scale-up actions issued.
    pub fn scale_ups(&self) -> usize {
        self.count(|a| matches!(a, ControlAction::ScaleUp { .. }))
    }

    /// Scale-down actions issued.
    pub fn scale_downs(&self) -> usize {
        self.count(|a| matches!(a, ControlAction::ScaleDown { .. }))
    }

    /// Defragmentation migrations issued.
    pub fn migrations(&self) -> usize {
        self.count(|a| matches!(a, ControlAction::Migrate { .. }))
    }

    fn count(&self, pred: impl Fn(&ControlAction) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.action)).count()
    }

    /// Replays every logged action into `sink` as
    /// [`on_control`](cluster::ObsSink::on_control) instants, in issue order.
    ///
    /// The serving event loop already records control actions live when a
    /// sink is attached; this is for post-hoc export — tracing a run that
    /// was executed unobserved, or merging an autopilot's history into a
    /// separately built [`cluster::TraceRecorder`].
    pub fn trace_into(&self, sink: &mut dyn cluster::ObsSink) {
        for event in &self.events {
            sink.on_control(event.at.get(), &event.action);
        }
    }
}

/// The composed control plane: autoscaler first (capacity follows demand),
/// then the defragmenter (placeability follows capacity), with an optional
/// alert-driven boost reacting to SLO burn-rate pages between the two.
#[derive(Debug, Clone, Default)]
pub struct Autopilot {
    autoscaler: Autoscaler,
    defrag: Option<Defragmenter>,
    log: AutopilotLog,
    /// Alert-driven scaling: `None` ignores alerts entirely.
    alert_scaling: Option<AlertScaling>,
    /// N+k spare margin: `None` provisions no headroom for board loss.
    spare_margin: Option<usize>,
}

/// State of the alert-driven scale-up path.
#[derive(Debug, Clone, Default)]
struct AlertScaling {
    /// Cycles between alert-driven boosts of one model.
    cooldown: u64,
    /// Models whose SLO fired since the last telemetry tick.
    pending: BTreeSet<ModelId>,
    /// Last alert-driven boost per model (cooldown bookkeeping).
    boosted_at: BTreeMap<ModelId, u64>,
}

impl Autopilot {
    /// An autopilot managing no models and no defragmentation yet.
    pub fn new() -> Self {
        Autopilot::default()
    }

    /// Registers the scaling contract of one model.
    ///
    /// # Example
    ///
    /// ```
    /// use autopilot::{Autopilot, AutoscalePolicy, ScalingSpec, TargetTracking};
    /// use cluster::DeploySpec;
    /// use workloads::ModelId;
    ///
    /// let spec = DeploySpec::replica(ModelId::Mnist, 2, 2);
    /// let pilot = Autopilot::new().with_model(ScalingSpec::new(
    ///     spec,
    ///     /* min */ 1,
    ///     /* max */ 8,
    ///     AutoscalePolicy::TargetTracking(TargetTracking::new(4.0, 10_000)),
    /// ));
    /// // `pilot` now implements `cluster::ControlPlane`: pass it to
    /// // `ClusterServingSim::run_with_controller` and it scales Mnist
    /// // between 1 and 8 replicas from the telemetry backlog signal.
    /// let _: &dyn cluster::ControlPlane = &pilot;
    /// ```
    pub fn with_model(mut self, spec: ScalingSpec) -> Self {
        self.autoscaler.manage(spec);
        self
    }

    /// Enables fleet defragmentation.
    pub fn with_defrag(mut self, defrag: Defragmenter) -> Self {
        self.defrag = Some(defrag);
        self
    }

    /// Reacts to SLO burn-rate alerts: when a managed model's alert fires
    /// (see [`cluster::ServingOptions::with_slo`]), the next telemetry tick
    /// adds one replica on top of whatever the demand-driven policy decided
    /// — unless the policy already scaled the model this tick, the model is
    /// at its ceiling, or an alert boost happened within `cooldown` cycles.
    /// A page means the error budget is burning *now*; waiting for the
    /// backlog EWMA to catch up is exactly the lag the alert exists to cut.
    pub fn with_alert_scaling(mut self, cooldown: u64) -> Self {
        self.alert_scaling = Some(AlertScaling {
            cooldown,
            ..AlertScaling::default()
        });
        self
    }

    /// Provisions an **N+k spare margin**: every managed model is kept at
    /// `min_replicas + k` live replicas (bounded by its ceiling), so losing
    /// up to `k` boards' worth of replicas leaves the contracted floor
    /// intact while failover re-places the dead ones. Composes with the
    /// demand-driven policies and the alert boost — the margin only tops up
    /// what they have not already scaled to, it never scales down.
    pub fn with_spare_margin(mut self, k: usize) -> Self {
        self.spare_margin = Some(k);
        self
    }

    /// The actions issued so far.
    pub fn log(&self) -> &AutopilotLog {
        &self.log
    }
}

impl ControlPlane for Autopilot {
    fn control(&mut self, frame: &TelemetryFrame, cluster: &NpuCluster) -> Vec<ControlAction> {
        let mut actions = self.autoscaler.decide(frame);
        if let Some(alerts) = &mut self.alert_scaling {
            let now = frame.at.get();
            for model in std::mem::take(&mut alerts.pending) {
                let Some(spec) = self.autoscaler.spec(model) else {
                    continue;
                };
                let live = frame.replicas_of(model).count();
                let already_scaling = actions.iter().any(|action| {
                    matches!(action, ControlAction::ScaleUp { spec: s, .. } if s.model == model)
                });
                let cooled = alerts
                    .boosted_at
                    .get(&model)
                    .is_none_or(|at| now.saturating_sub(*at) >= alerts.cooldown);
                if !already_scaling && cooled && live < spec.max_replicas {
                    actions.push(ControlAction::ScaleUp {
                        spec: spec.deploy,
                        placement: spec.placement,
                    });
                    alerts.boosted_at.insert(model, now);
                }
            }
        }
        if let Some(k) = self.spare_margin {
            for model in self.autoscaler.models() {
                let Some(spec) = self.autoscaler.spec(model) else {
                    continue;
                };
                let live = frame.replicas_of(model).count();
                let pending = actions
                    .iter()
                    .filter(|action| {
                        matches!(action, ControlAction::ScaleUp { spec: s, .. } if s.model == model)
                    })
                    .count();
                let target = (spec.min_replicas + k).min(spec.max_replicas);
                let mut have = live + pending;
                while have < target {
                    actions.push(ControlAction::ScaleUp {
                        spec: spec.deploy,
                        placement: spec.placement,
                    });
                    have += 1;
                }
            }
        }
        if let Some(defrag) = &mut self.defrag {
            actions.extend(defrag.plan(frame, cluster));
        }
        self.log
            .events
            .extend(actions.iter().map(|action| AutopilotEvent {
                at: frame.at,
                action: *action,
            }));
        actions
    }

    fn on_alert(&mut self, _now: Cycles, alert: &AlertTransition) {
        if let Some(alerts) = &mut self.alert_scaling {
            if alert.kind == AlertKind::Fired {
                alerts.pending.insert(alert.model);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{
        AlertSeverity, DeploySpec, Metric, MigrationMode, NodeId, PlacementPolicy, ReplicaSample,
        TelemetryFrame, TraceConfig, TraceRecorder, VnpuHandle,
    };
    use neu10::VnpuId;
    use npu_sim::NpuConfig;
    use workloads::{ModelId, PriorityClass};

    #[test]
    fn trace_into_replays_logged_actions_as_control_instants() {
        let handle = VnpuHandle {
            node: NodeId(1),
            vnpu: VnpuId(0),
        };
        let log = AutopilotLog {
            events: vec![
                AutopilotEvent {
                    at: Cycles(100),
                    action: ControlAction::ScaleUp {
                        spec: DeploySpec::replica(ModelId::Mnist, 2, 2),
                        placement: PlacementPolicy::BestFit,
                    },
                },
                AutopilotEvent {
                    at: Cycles(200),
                    action: ControlAction::ScaleDown { handle },
                },
                AutopilotEvent {
                    at: Cycles(300),
                    action: ControlAction::Migrate {
                        handle,
                        to: NodeId(2),
                        mode: MigrationMode::PreCopy,
                    },
                },
            ],
        };
        let mut recorder = TraceRecorder::new(TraceConfig::default());
        log.trace_into(&mut recorder);
        assert_eq!(recorder.len(), 3, "one control instant per logged action");
        assert_eq!(recorder.metrics().counter(Metric::ControlScaleUps), 1);
        assert_eq!(recorder.metrics().counter(Metric::ControlScaleDowns), 1);
        assert_eq!(recorder.metrics().counter(Metric::ControlMigrations), 1);
    }

    /// A frame where `model` has one healthy, idle replica — nothing the
    /// demand-driven policies would act on.
    fn idle_frame(at: u64, model: ModelId) -> TelemetryFrame {
        let replica = ReplicaSample {
            handle: VnpuHandle {
                node: NodeId(0),
                vnpu: VnpuId(0),
            },
            model,
            queue_len: 0,
            in_flight: 0,
            draining: false,
        };
        TelemetryFrame {
            at: Cycles(at),
            replicas: vec![replica],
            deadlines: std::collections::BTreeMap::new(),
        }
    }

    fn fired(at: u64, model: ModelId) -> AlertTransition {
        AlertTransition {
            at: Cycles(at),
            model,
            priority: Some(PriorityClass::Interactive),
            severity: AlertSeverity::Page,
            policy: "page",
            kind: AlertKind::Fired,
            burn_fast: 12.0,
            burn_slow: 11.0,
        }
    }

    #[test]
    fn alert_scaling_boosts_fired_models_under_cooldown() {
        let model = ModelId::Mnist;
        let cluster = NpuCluster::homogeneous(1, &NpuConfig::single_core());
        let mut pilot = Autopilot::new()
            .with_model(ScalingSpec::new(
                DeploySpec::replica(model, 2, 2),
                1,
                4,
                AutoscalePolicy::TargetTracking(TargetTracking::new(1_000.0, 0)),
            ))
            .with_alert_scaling(500_000);

        // No alert: the idle frame produces no actions.
        assert!(pilot
            .control(&idle_frame(100_000, model), &cluster)
            .is_empty());

        // A fired page queues a boost; the next tick adds one replica.
        pilot.on_alert(Cycles(150_000), &fired(150_000, model));
        let actions = pilot.control(&idle_frame(200_000, model), &cluster);
        assert_eq!(actions.len(), 1);
        assert!(
            matches!(&actions[0], ControlAction::ScaleUp { spec, .. } if spec.model == model),
            "the alert boost is a scale-up of the fired model"
        );
        assert_eq!(pilot.log().scale_ups(), 1);

        // A second fire inside the cooldown is absorbed.
        pilot.on_alert(Cycles(250_000), &fired(250_000, model));
        assert!(pilot
            .control(&idle_frame(300_000, model), &cluster)
            .is_empty());

        // After the cooldown the boost path re-arms.
        pilot.on_alert(Cycles(800_000), &fired(800_000, model));
        assert_eq!(
            pilot.control(&idle_frame(900_000, model), &cluster).len(),
            1
        );

        // Alerts for unmanaged models are ignored (the frame keeps the
        // managed model healthy so the floor stays quiet).
        pilot.on_alert(Cycles(950_000), &fired(950_000, ModelId::Bert));
        assert!(pilot
            .control(&idle_frame(2_000_000, model), &cluster)
            .is_empty());
    }

    #[test]
    fn resolve_edges_never_queue_a_boost() {
        let model = ModelId::Mnist;
        let cluster = NpuCluster::homogeneous(1, &NpuConfig::single_core());
        let mut pilot = Autopilot::new()
            .with_model(ScalingSpec::new(
                DeploySpec::replica(model, 2, 2),
                1,
                4,
                AutoscalePolicy::TargetTracking(TargetTracking::new(1_000.0, 0)),
            ))
            .with_alert_scaling(0);
        let resolve = AlertTransition {
            kind: AlertKind::Resolved,
            ..fired(100_000, model)
        };
        pilot.on_alert(Cycles(100_000), &resolve);
        assert!(pilot
            .control(&idle_frame(200_000, model), &cluster)
            .is_empty());
    }

    #[test]
    fn spare_margin_tops_up_to_min_plus_k() {
        let model = ModelId::Mnist;
        let cluster = NpuCluster::homogeneous(1, &NpuConfig::single_core());
        let mut pilot = Autopilot::new()
            .with_model(ScalingSpec::new(
                DeploySpec::replica(model, 2, 2),
                1,
                4,
                AutoscalePolicy::TargetTracking(TargetTracking::new(1_000.0, 0)),
            ))
            .with_spare_margin(2);

        // One live replica against a floor of 1 + 2 spares: two top-ups.
        let actions = pilot.control(&idle_frame(100_000, model), &cluster);
        assert_eq!(actions.len(), 2, "margin tops up to min_replicas + k");
        assert!(actions
            .iter()
            .all(|a| matches!(a, ControlAction::ScaleUp { spec, .. } if spec.model == model)));

        // k = 0 asks for nothing beyond the floor the frame already meets.
        let mut flat = Autopilot::new()
            .with_model(ScalingSpec::new(
                DeploySpec::replica(model, 2, 2),
                1,
                4,
                AutoscalePolicy::TargetTracking(TargetTracking::new(1_000.0, 0)),
            ))
            .with_spare_margin(0);
        assert!(flat
            .control(&idle_frame(100_000, model), &cluster)
            .is_empty());
    }

    #[test]
    fn spare_margin_is_bounded_by_the_ceiling() {
        let model = ModelId::Mnist;
        let cluster = NpuCluster::homogeneous(1, &NpuConfig::single_core());
        let mut pilot = Autopilot::new()
            .with_model(ScalingSpec::new(
                DeploySpec::replica(model, 2, 2),
                1,
                2,
                AutoscalePolicy::TargetTracking(TargetTracking::new(1_000.0, 0)),
            ))
            .with_spare_margin(5);

        // min + k = 6 but max_replicas = 2: one live replica gets one spare.
        let actions = pilot.control(&idle_frame(100_000, model), &cluster);
        assert_eq!(actions.len(), 1, "spares never push past max_replicas");
    }

    #[test]
    fn spare_margin_counts_alert_boosts_as_pending() {
        let model = ModelId::Mnist;
        let cluster = NpuCluster::homogeneous(1, &NpuConfig::single_core());
        let mut pilot = Autopilot::new()
            .with_model(ScalingSpec::new(
                DeploySpec::replica(model, 2, 2),
                1,
                4,
                AutoscalePolicy::TargetTracking(TargetTracking::new(1_000.0, 0)),
            ))
            .with_alert_scaling(500_000)
            .with_spare_margin(2);

        // The alert boost contributes one scale-up; the margin only adds the
        // one still missing from min + k = 3 (live 1 + pending 1 → +1).
        pilot.on_alert(Cycles(150_000), &fired(150_000, model));
        let actions = pilot.control(&idle_frame(200_000, model), &cluster);
        assert_eq!(
            actions.len(),
            2,
            "margin composes with the boost instead of double-provisioning"
        );
    }
}
