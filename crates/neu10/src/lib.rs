//! Neu10: a hardware-assisted NPU virtualization framework.
//!
//! This crate is the core library of the reproduction of *"Hardware-Assisted
//! Virtualization of Neural Processing Units for Cloud Platforms"* (MICRO
//! 2024). It provides:
//!
//! * the [`vnpu`] abstraction — a virtual NPU with a user-chosen number of
//!   matrix engines (MEs), vector engines (VEs), SRAM and HBM (§III-A);
//! * the [`allocator`] — the Eq. (1)–(4) model that picks the best ME:VE
//!   split for a profiled workload and EU budget (§III-B);
//! * [`mapping`] and the [`manager`] — vNPU-to-pNPU placement with
//!   hardware-isolated and software-isolated (oversubscribed) modes (§III-C);
//! * the [`scheduler`] — the behavioural model of the µTOp/operation
//!   schedulers, including ME/VE harvesting and the preemption cost model
//!   (§III-D/E), plus the [`baselines`] (PMT, V10, Neu10-NoHarvest);
//! * the [`runtime`] — a multi-tenant serving simulator that produces the
//!   latency, throughput and utilization numbers of the paper's evaluation.
//!
//! # Quick example
//!
//! ```
//! use neu10::{CollocationSim, SimOptions, SharingPolicy, TenantSpec};
//! use npu_sim::NpuConfig;
//! use workloads::ModelId;
//!
//! let config = NpuConfig::single_core();
//! let sim = CollocationSim::new(
//!     &config,
//!     SimOptions::new(SharingPolicy::Neu10),
//!     vec![
//!         TenantSpec::evaluation(0, ModelId::Mnist, 2),
//!         TenantSpec::evaluation(1, ModelId::Ncf, 2),
//!     ],
//! );
//! let result = sim.run();
//! assert_eq!(result.tenants.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod baselines;
pub mod error;
pub mod manager;
pub mod mapping;
pub mod metrics;
pub mod runtime;
pub mod scheduler;
pub mod vnpu;
pub mod work;

pub use allocator::{
    allocation_sweep, estimated_speedup, eu_utilization, optimal_me_ve_ratio, split_eus, EuSplit,
    VnpuAllocator,
};
pub use error::Neu10Error;
pub use manager::VnpuManager;
pub use mapping::{MappingMode, PnpuMapper, VnpuPlacement};
pub use metrics::{
    geometric_mean, mean, normalized, percentile, throughput_rps, DeadlineStats, LatencySummary,
    QuantileSketch,
};
pub use runtime::{
    calibrate_service_time, AssignmentSample, CollocationResult, CollocationSim, OperatorDuration,
    ServiceTimeDistribution, SimOptions, TenantResult, TenantSpec,
};
pub use scheduler::{EngineAssignment, SharingPolicy, TenantSnapshot, VnpuContext};
pub use vnpu::{Vnpu, VnpuConfig, VnpuId, VnpuState};
pub use work::{IsaKind, OperatorWork, TenantWorkload};
