//! Facade crate for the Neu10 NPU-virtualization reproduction.
//!
//! This crate re-exports the full stack so that examples, integration tests
//! and downstream users can depend on a single crate:
//!
//! * [`npu_sim`] — the event-driven NPU hardware simulator (boards, chips,
//!   cores, matrix/vector engines, SRAM, HBM, DMA);
//! * [`neuisa`] — the VLIW ISA, the NeuISA µTOp extension and the operator
//!   compiler;
//! * [`workloads`] — synthetic MLPerf / TPU-reference-model workload
//!   generators and the workload characterization tools;
//! * [`neu10`] — the core virtualization framework: vNPUs, the allocator,
//!   vNPU-to-pNPU mapping, the µTOp/operation schedulers with harvesting,
//!   the baselines and the multi-tenant serving runtime;
//! * [`hypervisor`] — hypercalls, SR-IOV virtual functions, command buffers,
//!   the IOMMU and the guest-VM model;
//! * [`cluster`] — the datacenter fleet layer: multi-board vNPU placement,
//!   open-loop request routing and cold vNPU migration between boards;
//! * [`autopilot`] — the closed-loop control plane: telemetry-driven
//!   autoscaling (target-tracking / step policies with cooldowns and
//!   hysteresis) and fleet defragmentation by consolidation migrations.
//!
//! # Quickstart
//!
//! ```
//! use neu10_repro::prelude::*;
//!
//! let config = NpuConfig::single_core();
//! let result = CollocationSim::new(
//!     &config,
//!     SimOptions::new(SharingPolicy::Neu10),
//!     vec![
//!         TenantSpec::evaluation(0, ModelId::Mnist, 2),
//!         TenantSpec::evaluation(1, ModelId::Ncf, 2),
//!     ],
//! )
//! .run();
//! assert!(result.me_utilization > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use autopilot;
pub use cluster;
pub use hypervisor;
pub use neu10;
pub use neuisa;
pub use npu_sim;
pub use workloads;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use autopilot::{
        Autopilot, AutoscalePolicy, Defragmenter, ScalingSpec, StepScaling, TargetTracking,
    };
    pub use cluster::{
        AvailabilityStats, ClusterServingSim, ControlAction, ControlPlane, DeploySpec,
        DirtyRateModel, DispatchPolicy, FaultKind, FaultProfile, FaultSchedule, MigrationCostModel,
        MigrationMode, NodeId, NpuCluster, ObsSink, PlacementPolicy, PreCopyConfig, RecoveryPolicy,
        ServingOptions, SloConfig, SloSpec, TelemetryFrame, TimeSeriesConfig, TimeSeriesRecorder,
        TraceConfig, TraceRecorder, VnpuHandle,
    };
    pub use hypervisor::{GuestVm, Host};
    pub use neu10::{
        allocation_sweep, split_eus, CollocationResult, CollocationSim, LatencySummary,
        MappingMode, SharingPolicy, SimOptions, TenantSpec, VnpuAllocator, VnpuConfig, VnpuId,
        VnpuManager,
    };
    pub use neuisa::{Compiler, CompilerOptions, OperatorKind, TensorOperator};
    pub use npu_sim::{Cycles, InterconnectConfig, NpuBoard, NpuConfig};
    pub use workloads::{
        collocation_pairs, model_catalog, ClusterTrace, InferenceGraph, ModelId, WorkloadProfile,
    };
}
