//! The telemetry bus and the control-plane hook of the serving simulator.
//!
//! A closed-loop cluster controller (autoscaler, defragmenter, …) cannot act
//! on the cumulative counters a finished [`crate::serving::ServingReport`]
//! exposes — it needs *periodic* samples of the live fleet. When a run is
//! configured with [`crate::ServingOptions::with_telemetry`], the serving
//! simulator emits a [`TelemetryFrame`] every sampling interval: one
//! [`ReplicaSample`] per live replica (queue depth, batch occupancy) and one
//! [`ModelSample`] per model with a live replica or a deadline outcome
//! (backlog, and the deadline tally of the window since the previous tick).
//! The frame carries what controllers read and nothing else: a new field
//! enters it together with its first reader. Tail latency reaches
//! controllers through the SLO burn-rate engine instead
//! ([`ControlPlane::on_alert`]).
//!
//! A [`ControlPlane`] implementation observes each frame and answers with
//! [`ControlAction`]s, which the simulator applies *inside* the same
//! event loop, keeping runs deterministic:
//!
//! * [`ControlAction::ScaleUp`] places a new replica through the cluster's
//!   placement engine and it starts serving immediately;
//! * [`ControlAction::ScaleDown`] drains a replica (no new dispatches, the
//!   queue is served to completion) and then releases its vNPU;
//! * [`ControlAction::Migrate`] migrates a replica — cold or live pre-copy,
//!   per its [`MigrationMode`] — priced by the run's
//!   [`crate::MigrationCostModel`] exactly like a scheduled migration.
//!
//! The `autopilot` crate builds its autoscaling policies and the fleet
//! defragmenter on top of this interface.

use std::collections::BTreeMap;

use neu10::DeadlineStats;
use npu_sim::Cycles;
use workloads::ModelId;

use crate::cluster::{DeploySpec, NpuCluster, VnpuHandle};
use crate::migration::MigrationMode;
use crate::obs::AlertTransition;
use crate::placement::PlacementPolicy;
use crate::NodeId;

/// One live replica's state at a telemetry tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaSample {
    /// The replica's deployment handle.
    pub handle: VnpuHandle,
    /// The model the replica serves.
    pub model: ModelId,
    /// Requests waiting in the replica's queue.
    pub queue_len: usize,
    /// Requests in the batch currently being served (0 = idle).
    pub in_flight: usize,
    /// Whether the replica is draining towards release (scale-down).
    pub draining: bool,
}

impl ReplicaSample {
    /// Outstanding work on the replica: queued plus in-service requests.
    pub fn outstanding(&self) -> usize {
        self.queue_len + self.in_flight
    }
}

/// One model's backlog at a tick and its deadline outcomes over the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSample {
    /// The model described.
    pub model: ModelId,
    /// Live (non-draining) replicas of the model.
    pub replicas: usize,
    /// Requests queued across the model's replicas at the tick.
    pub queued: usize,
    /// Requests in service across the model's replicas at the tick.
    pub in_flight: usize,
    /// Deadline bookkeeping over the window's completions and drops.
    pub deadline: DeadlineStats,
}

impl ModelSample {
    /// An all-zero sample of `model` — the state a tick starts from before
    /// replicas and the window's deadline tally are folded in.
    pub fn empty(model: ModelId) -> Self {
        ModelSample {
            model,
            replicas: 0,
            queued: 0,
            in_flight: 0,
            deadline: DeadlineStats::default(),
        }
    }

    /// Outstanding work across the model's replicas.
    pub fn outstanding(&self) -> usize {
        self.queued + self.in_flight
    }

    /// Outstanding work per live replica (the classic autoscaling signal);
    /// a model with zero live replicas reports its raw backlog.
    pub fn outstanding_per_replica(&self) -> f64 {
        self.outstanding() as f64 / self.replicas.max(1) as f64
    }
}

/// Everything the control plane sees at one sampling tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryFrame {
    /// The tick's timestamp.
    pub at: Cycles,
    /// One sample per live (not yet released) replica, in table order.
    pub replicas: Vec<ReplicaSample>,
    /// Per-model aggregates, keyed by model.
    pub models: BTreeMap<ModelId, ModelSample>,
}

impl TelemetryFrame {
    /// The sample of one model: present while the model has a live replica
    /// or once it has had a deadline outcome. An absent sample reads as no
    /// backlog and no deadline miss.
    pub fn model(&self, model: ModelId) -> Option<&ModelSample> {
        self.models.get(&model)
    }

    /// The live (non-draining) replicas of one model.
    pub fn replicas_of(&self, model: ModelId) -> impl Iterator<Item = &ReplicaSample> {
        self.replicas
            .iter()
            .filter(move |r| r.model == model && !r.draining)
    }
}

/// An action the control plane asks the serving simulator to apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlAction {
    /// Place one new replica through the placement engine; it starts serving
    /// at the tick that issued the action.
    ScaleUp {
        /// What to deploy.
        spec: DeploySpec,
        /// How to pick the hosting node.
        placement: PlacementPolicy,
    },
    /// Drain the replica (no new dispatches) and release its vNPU once its
    /// queue and in-flight batch have been served.
    ScaleDown {
        /// The replica to retire.
        handle: VnpuHandle,
    },
    /// Migrate the replica to `to`, priced by the run's migration cost
    /// model. [`MigrationMode::Cold`] drains and goes dark for the full
    /// state transfer; [`MigrationMode::PreCopy`] streams state while the
    /// replica keeps serving and stops only for the residual dirty delta.
    Migrate {
        /// The replica to move.
        handle: VnpuHandle,
        /// The destination node.
        to: NodeId,
        /// How the state moves.
        mode: MigrationMode,
    },
}

/// A closed-loop cluster controller driven by the serving simulator.
///
/// Called once per telemetry tick with the frame and a read-only view of the
/// cluster; the returned actions are applied immediately, in order. The
/// controller must be deterministic for reproducible runs — same frames in,
/// same actions out.
pub trait ControlPlane {
    /// Observes one telemetry frame and returns the actions to apply.
    fn control(&mut self, frame: &TelemetryFrame, cluster: &NpuCluster) -> Vec<ControlAction>;

    /// Notifies the controller of an SLO alert edge (fire or resolve), as it
    /// is emitted inside the event loop. A notification, not a decision
    /// point: actions still flow through [`control`](ControlPlane::control)
    /// at the next telemetry tick, keeping the apply path single. The
    /// default ignores alerts.
    fn on_alert(&mut self, _now: Cycles, _alert: &AlertTransition) {}
}

/// The open-loop default: observes nothing, changes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopControl;

impl ControlPlane for NoopControl {
    fn control(&mut self, _frame: &TelemetryFrame, _cluster: &NpuCluster) -> Vec<ControlAction> {
        Vec::new()
    }
}

/// Counters of the control-plane activity during one serving run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Telemetry ticks emitted.
    pub samples: usize,
    /// Replicas added by [`ControlAction::ScaleUp`].
    pub scale_ups: usize,
    /// Scale-ups refused by the placement engine (no capacity).
    pub scale_up_rejected: usize,
    /// Drains requested by [`ControlAction::ScaleDown`].
    pub scale_downs: usize,
    /// Drained replicas whose vNPU was actually released.
    pub released: usize,
    /// Migrations requested by [`ControlAction::Migrate`].
    pub migrations_requested: usize,
    /// Requested migrations the destination refused (capacity raced away).
    pub migrations_rejected: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(model: ModelId, queue_len: usize, in_flight: usize) -> ReplicaSample {
        ReplicaSample {
            handle: VnpuHandle {
                node: NodeId(0),
                vnpu: neu10::VnpuId(0),
            },
            model,
            queue_len,
            in_flight,
            draining: false,
        }
    }

    #[test]
    fn outstanding_counts_queue_and_batch() {
        assert_eq!(sample(ModelId::Mnist, 3, 4).outstanding(), 7);
        let model = ModelSample {
            model: ModelId::Mnist,
            replicas: 2,
            queued: 6,
            in_flight: 2,
            deadline: DeadlineStats::default(),
        };
        assert_eq!(model.outstanding(), 8);
        assert!((model.outstanding_per_replica() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn frame_filters_draining_replicas() {
        let mut draining = sample(ModelId::Mnist, 0, 0);
        draining.draining = true;
        let frame = TelemetryFrame {
            at: Cycles(100),
            replicas: vec![
                sample(ModelId::Mnist, 1, 0),
                draining,
                sample(ModelId::Bert, 0, 1),
            ],
            models: BTreeMap::new(),
        };
        assert_eq!(frame.replicas_of(ModelId::Mnist).count(), 1);
        assert_eq!(frame.replicas_of(ModelId::Bert).count(), 1);
        assert!(frame.model(ModelId::Mnist).is_none());
    }
}
