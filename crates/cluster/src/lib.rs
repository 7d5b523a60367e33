//! Datacenter fleet layer above the single-board Neu10 stack.
//!
//! The core reproduction stops at one [`neu10::VnpuManager`] owning one NPU
//! board. Serving production traffic is a *fleet* problem: requests have to
//! be balanced across many boards, vNPUs have to be placed where capacity and
//! locality are best, and running vNPUs occasionally have to move (board
//! maintenance, defragmentation, load spikes). This crate provides that
//! layer:
//!
//! * [`NpuCluster`] — owns N [`ClusterNode`]s (one `VnpuManager`-backed board
//!   each) and a cluster-level **placement engine** ([`placement`]) scoring
//!   per-node free ME/VE/SRAM/HBM inventory under best-fit, worst-fit or
//!   topology-aware policies;
//! * [`router`] / [`serving`] — an open-loop request **router** with
//!   per-model queues, admission control and pluggable dispatch policies
//!   (round-robin, least-loaded, locality-affine, earliest-deadline-first),
//!   plus the discrete-event serving simulator that replays a
//!   [`workloads::ClusterTrace`] against the deployed replicas with
//!   per-replica **dynamic batching**, **request deadlines and priorities**
//!   (miss counting, drop-on-expiry) and seeded **stochastic service times**
//!   calibrated from `neu10::CollocationSim`;
//! * [`migration`] — **vNPU migration** between nodes, cold (drain → snapshot
//!   the [`neu10::scheduler::VnpuContext`] → re-place → resume) or **live
//!   pre-copy** (iterative copy rounds stream dirty HBM pages while the
//!   source keeps serving; downtime shrinks to the residual stop-and-copy),
//!   with a cost model built on [`npu_sim::InterconnectConfig`] and
//!   page-granular dirty accounting ([`npu_sim::DirtySet`]), charged to
//!   tenant latency;
//! * [`telemetry`] — the **telemetry bus and control-plane hook**: with
//!   [`ServingOptions::with_telemetry`] the serving simulator emits periodic
//!   per-replica samples and per-model deadline tallies, and a
//!   [`ControlPlane`] (such as the `autopilot` crate's autoscaler +
//!   defragmenter) answers with scale-up / drain-then-release / migrate
//!   actions applied at the same deterministic barrier tick;
//! * [`ShardOptions`] — the **sharded parallel event loop**:
//!   [`ClusterServingSim::run_sharded`] partitions the fleet into disjoint
//!   board groups advancing in bounded-lookahead rounds on a std-only worker
//!   pool, exchanging only migration envelopes and control-plane actions at
//!   barriers. Every run goes through this coordinator: a sequential run is
//!   its one-partition case.
//!
//! # Invariants
//!
//! Everything in this crate upholds the workspace determinism contract
//! (see `ARCHITECTURE.md` at the repo root):
//!
//! 1. a serving run is a pure function of `(cluster, trace, options)` —
//!    same inputs ⇒ bit-identical [`ServingReport`];
//! 2. attaching any [`ObsSink`] never changes the report;
//! 3. for the sharded loop, the thread count never changes the merged
//!    report, and `partitions = 1` is the sequential run;
//! 4. no admitted request vanishes: `admitted = completed + dropped + lost`
//!    holds through crashes, failover and cross-partition migration.
//!
//! # Example
//!
//! ```
//! use cluster::{DeploySpec, NpuCluster, PlacementPolicy};
//! use npu_sim::NpuConfig;
//! use workloads::ModelId;
//!
//! let mut fleet = NpuCluster::homogeneous(4, &NpuConfig::single_core());
//! let handle = fleet
//!     .deploy(DeploySpec::replica(ModelId::Mnist, 2, 2), PlacementPolicy::BestFit)
//!     .unwrap();
//! assert_eq!(fleet.total_vnpus(), 1);
//! assert!(fleet.node(handle.node).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod cluster;
pub mod fault;
pub mod inventory;
pub mod migration;
mod model_table;
pub mod node;
pub mod obs;
mod par;
pub mod placement;
pub mod router;
mod sampler;
pub mod serving;
mod sharded;
pub mod telemetry;

pub use cluster::{ClusterError, DeploySpec, DeployedVnpu, NpuCluster, VnpuHandle};
pub use fault::{
    AvailabilityStats, FaultEvent, FaultKind, FaultProfile, FaultSchedule, ModelAvailability,
    RecoveryPolicy,
};
pub use inventory::{NodeInventory, ResourceDemand};
pub use migration::{
    DirtyRateModel, MigrationCostModel, MigrationMode, MigrationOutcome, MigrationRecord,
    MigrationStats, PreCopyConfig,
};
pub use node::ClusterNode;
pub use obs::{
    export_chrome_trace, export_openmetrics, export_timeseries_openmetrics, validate_chrome_trace,
    validate_openmetrics, AlertKind, AlertLog, AlertSeverity, AlertTransition, BurnRatePolicy,
    FleetCounters, Metric, MetricsRegistry, NoopSink, ObsSink, OpenMetricsSummary, RejectReason,
    SeriesLabels, SloConfig, SloEngine, SloSpec, TimeSeriesConfig, TimeSeriesRecorder,
    TimeSeriesStats, TraceConfig, TraceRecorder, TraceStats, TraceValidation,
};
pub use placement::{rank_nodes, select_node, PlacementCandidate, PlacementPolicy};
pub use router::{
    AdmissionControl, DispatchPolicy, ReplicaIndex, ReplicaView, RouterStats, SlotLoad,
};
pub use serving::{
    estimated_batch_service_cycles, estimated_service_cycles, ClusterServingSim, PerfStats,
    ScheduledMigration, ServingOptions, ServingReport, StochasticService,
};
pub use sharded::ShardOptions;
pub use telemetry::{
    ControlAction, ControlPlane, ControlStats, NoopControl, ReplicaSample, TelemetryFrame,
};

/// Identifies one node (board + host) of the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}
