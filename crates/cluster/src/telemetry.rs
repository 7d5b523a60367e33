//! The telemetry bus and the control-plane hook of the serving simulator.
//!
//! A closed-loop cluster controller (autoscaler, defragmenter, …) cannot act
//! on the cumulative counters a finished [`crate::serving::ServingReport`]
//! exposes — it needs *periodic* samples of the live fleet. When a run is
//! configured with [`crate::ServingOptions::with_telemetry`], the serving
//! simulator emits a [`TelemetryFrame`] every sampling interval: one
//! [`ReplicaSample`] per live replica (queue depth, batch occupancy) and the
//! per-model deadline tallies of the window since the previous tick. A
//! model's backlog is the sum of its replica samples
//! ([`TelemetryFrame::outstanding`]), so the frame carries no per-model
//! count of its own. The frame carries what controllers read and nothing
//! else: a new field enters it together with its first reader. Tail latency
//! reaches controllers through the SLO burn-rate engine instead
//! ([`ControlPlane::on_alert`]).
//!
//! Ticks are barriers of the run's coordinator, not events of the loop. A
//! [`ControlPlane`] implementation observes each frame and answers with
//! [`ControlAction`]s, which the coordinator applies at the tick in the
//! controller's order, keeping runs deterministic:
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

/// Everything the control plane sees at one sampling tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryFrame {
    /// The tick's timestamp.
    pub at: Cycles,
    /// One sample per live (not yet released) replica, in partition then
    /// table order.
    pub replicas: Vec<ReplicaSample>,
    /// Per-model deadline tallies over the window's completions and drops,
    /// keyed by model. A model's entry exists once it has had a deadline
    /// outcome; an absent entry reads as an all-zero tally.
    pub deadlines: BTreeMap<ModelId, DeadlineStats>,
}

impl TelemetryFrame {
    /// Outstanding work (queued plus in service) across every replica of
    /// `model`, draining ones included.
    pub fn outstanding(&self, model: ModelId) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.model == model)
            .map(ReplicaSample::outstanding)
            .sum()
    }

    /// The window's deadline tally of `model`: all zero before its first
    /// deadline outcome.
    pub fn deadline(&self, model: ModelId) -> DeadlineStats {
        self.deadlines.get(&model).copied().unwrap_or_default()
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
/// whole fleet; the returned actions are applied immediately, in order, at
/// every partition count. The controller must be deterministic for
/// reproducible runs — same frames in, same actions out.
pub trait ControlPlane {
    /// Observes one telemetry frame and returns the actions to apply.
    fn control(&mut self, frame: &TelemetryFrame, cluster: &NpuCluster) -> Vec<ControlAction>;

    /// Notifies the controller of an SLO alert edge (fire or resolve), as the
    /// coordinator's alert tick emits it. A notification, not a decision
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
        let mut draining = sample(ModelId::Mnist, 2, 0);
        draining.draining = true;
        let frame = TelemetryFrame {
            at: Cycles(100),
            replicas: vec![
                sample(ModelId::Mnist, 3, 4),
                draining,
                sample(ModelId::Bert, 5, 1),
            ],
            deadlines: BTreeMap::new(),
        };
        assert_eq!(frame.outstanding(ModelId::Mnist), 9, "draining included");
        assert_eq!(frame.outstanding(ModelId::Bert), 6);
        assert_eq!(frame.outstanding(ModelId::Ncf), 0);
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
            deadlines: BTreeMap::from([(
                ModelId::Bert,
                DeadlineStats {
                    with_deadline: 2,
                    met: 1,
                    missed: 1,
                    dropped: 0,
                },
            )]),
        };
        assert_eq!(frame.replicas_of(ModelId::Mnist).count(), 1);
        assert_eq!(frame.replicas_of(ModelId::Bert).count(), 1);
        assert_eq!(frame.deadline(ModelId::Mnist), DeadlineStats::default());
        assert_eq!(frame.deadline(ModelId::Bert).missed, 1);
    }
}
