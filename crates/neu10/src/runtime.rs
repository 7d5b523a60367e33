//! The multi-tenant serving runtime: simulates collocated vNPUs sharing one
//! physical NPU core under a [`SharingPolicy`].
//!
//! The runtime replays each tenant's operator stream (one request after
//! another, closed loop) against the shared engines, the shared HBM
//! bandwidth and the policy's engine-assignment rules. It is an
//! operator-granularity fluid simulation: between scheduling events every
//! operator makes progress on its ME work, VE work and HBM traffic at rates
//! set by the engines and bandwidth it currently holds, and the next event is
//! the earliest operator completion. Assignment changes (harvest, reclaim,
//! preemption, temporal context switches) happen at events and carry the cost
//! model of §III-E / §III-G.

use std::sync::Arc;

use npu_sim::{Cycles, NpuConfig, NpuConfigKey};
use workloads::{Memo, ModelId};

use crate::metrics::LatencySummary;
use crate::scheduler::assignment::{
    compute_into as compute_assignment_into, AssignmentScratch, EngineAssignment, TenantSnapshot,
};
use crate::scheduler::context::{full_core_switch_cost, me_preemption_cost};
use crate::scheduler::policy::SharingPolicy;
use crate::vnpu::VnpuId;
use crate::work::{IsaKind, OperatorWork, TenantWorkload};

const EPS: f64 = 1e-6;
const MAX_EVENTS: usize = 20_000_000;

/// One collocated tenant: which model it serves and the vNPU resources it owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// The tenant's vNPU id.
    pub vnpu: VnpuId,
    /// The model it serves.
    pub model: ModelId,
    /// Batch size per request.
    pub batch_size: u64,
    /// MEs allocated to the vNPU.
    pub allocated_mes: usize,
    /// VEs allocated to the vNPU.
    pub allocated_ves: usize,
    /// Scheduling priority (≥ 1).
    pub priority: u32,
    /// Requests to complete before the experiment ends.
    pub target_requests: usize,
}

impl TenantSpec {
    /// The §V-A setup: a 2-ME / 2-VE vNPU at the model's evaluation batch size.
    pub fn evaluation(vnpu: u32, model: ModelId, target_requests: usize) -> Self {
        TenantSpec {
            vnpu: VnpuId(vnpu),
            model,
            batch_size: model.evaluation_batch_size(),
            allocated_mes: 2,
            allocated_ves: 2,
            priority: 1,
            target_requests: target_requests.max(1),
        }
    }

    /// Overrides the engine allocation.
    pub fn with_allocation(mut self, mes: usize, ves: usize) -> Self {
        self.allocated_mes = mes;
        self.allocated_ves = ves;
        self
    }

    /// Overrides the batch size.
    pub fn with_batch_size(mut self, batch_size: u64) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }
}

/// Runtime options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// The sharing policy under test.
    pub policy: SharingPolicy,
    /// Record the per-event ME/VE assignment timeline (Fig. 24).
    pub record_assignment_timeline: bool,
    /// Record per-operator durations (Fig. 23 / Table III analyses).
    pub record_operator_durations: bool,
}

impl SimOptions {
    /// Default options for a policy: timelines off, operator records on.
    pub fn new(policy: SharingPolicy) -> Self {
        SimOptions {
            policy,
            record_assignment_timeline: false,
            record_operator_durations: true,
        }
    }
}

/// The measured duration of one operator execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperatorDuration {
    /// Request index the operator belonged to.
    pub request: usize,
    /// Operator index within the request graph.
    pub operator: usize,
    /// Start time in cycles.
    pub start: u64,
    /// Duration in cycles.
    pub duration: u64,
}

/// One sample of the per-tenant engine assignment (Fig. 24).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignmentSample {
    /// Simulation time of the sample, in cycles.
    pub at: u64,
    /// MEs assigned to each tenant, in tenant order.
    pub mes: Vec<usize>,
    /// VEs assigned to each tenant, in tenant order.
    pub ves: Vec<usize>,
}

/// Per-tenant results of a collocation run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantResult {
    /// The tenant's vNPU.
    pub vnpu: VnpuId,
    /// The model served.
    pub model: ModelId,
    /// Requests completed during the run.
    pub completed_requests: usize,
    /// Per-request latencies in cycles.
    pub request_latencies: Vec<u64>,
    /// Per-operator execution durations (if recording was enabled).
    pub operator_durations: Vec<OperatorDuration>,
    /// ME work executed, in engine-cycles.
    pub me_work_cycles: u64,
    /// VE work executed, in engine-cycles.
    pub ve_work_cycles: u64,
    /// HBM bytes moved.
    pub hbm_bytes_moved: u64,
    /// Cycles this tenant was stalled waiting to reclaim engines that
    /// collocated tenants had harvested (Table III's overhead).
    pub blocked_by_harvest_cycles: u64,
    /// ME engine-cycles executed on harvested (not owned) engines.
    pub harvested_me_cycles: u64,
    /// VE engine-cycles executed on harvested (not owned) engines.
    pub harvested_ve_cycles: u64,
}

impl TenantResult {
    fn new(vnpu: VnpuId, model: ModelId) -> Self {
        TenantResult {
            vnpu,
            model,
            completed_requests: 0,
            request_latencies: Vec::new(),
            operator_durations: Vec::new(),
            me_work_cycles: 0,
            ve_work_cycles: 0,
            hbm_bytes_moved: 0,
            blocked_by_harvest_cycles: 0,
            harvested_me_cycles: 0,
            harvested_ve_cycles: 0,
        }
    }

    /// Latency summary (mean / p95 / p99) over the recorded requests.
    pub fn latency_summary(&self) -> LatencySummary {
        LatencySummary::from_samples(&self.request_latencies)
    }

    /// Fraction of the run this tenant spent blocked on reclaiming harvested
    /// engines (the Table III metric).
    pub fn harvest_overhead_fraction(&self, makespan: Cycles) -> f64 {
        if makespan.is_zero() {
            return 0.0;
        }
        self.blocked_by_harvest_cycles as f64 / makespan.get() as f64
    }
}

/// The outcome of one collocation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CollocationResult {
    /// The policy that was simulated.
    pub policy: SharingPolicy,
    /// Total simulated cycles until every tenant reached its request target.
    pub makespan: Cycles,
    /// Per-tenant results, in the order the tenants were specified.
    pub tenants: Vec<TenantResult>,
    /// Aggregate ME utilization of the core over the run.
    pub me_utilization: f64,
    /// Aggregate VE utilization of the core over the run.
    pub ve_utilization: f64,
    /// Assignment timeline samples (if recording was enabled).
    pub assignment_timeline: Vec<AssignmentSample>,
}

impl CollocationResult {
    /// The result of one tenant by vNPU id.
    pub fn tenant(&self, vnpu: VnpuId) -> Option<&TenantResult> {
        self.tenants.iter().find(|t| t.vnpu == vnpu)
    }

    /// Requests per second of one tenant.
    pub fn throughput_rps(&self, vnpu: VnpuId, config: &NpuConfig) -> f64 {
        let Some(tenant) = self.tenant(vnpu) else {
            return 0.0;
        };
        crate::metrics::throughput_rps(tenant.completed_requests, self.makespan, config.frequency)
    }
}

struct ActiveOp {
    op_index: usize,
    rem_me: f64,
    rem_ve: f64,
    rem_bytes: f64,
    rem_stall: f64,
    start: f64,
}

struct TenantRun {
    spec: TenantSpec,
    workload: Arc<TenantWorkload>,
    op_cursor: usize,
    request_index: usize,
    request_start: f64,
    current: Option<ActiveOp>,
    assignment: EngineAssignment,
    active_engine_cycles: f64,
    result: TenantResult,
    /// True if the current operator was dispatched after the last scheduling
    /// decision (so the tenant does not "hold" engines for it yet).
    just_dispatched: bool,
}

impl TenantRun {
    fn new(spec: TenantSpec, workload: Arc<TenantWorkload>) -> Self {
        let result = TenantResult::new(spec.vnpu, spec.model);
        TenantRun {
            spec,
            workload,
            op_cursor: 0,
            request_index: 0,
            request_start: 0.0,
            current: None,
            assignment: EngineAssignment::default(),
            active_engine_cycles: 0.0,
            result,
            just_dispatched: false,
        }
    }

    fn dispatch_next(&mut self, now: f64) {
        if self.current.is_some() || self.workload.operators.is_empty() {
            return;
        }
        if self.op_cursor == 0 {
            self.request_start = now;
        }
        self.just_dispatched = true;
        let op: &OperatorWork = &self.workload.operators[self.op_cursor];
        self.current = Some(ActiveOp {
            op_index: self.op_cursor,
            rem_me: op.me_cycles as f64,
            rem_ve: op.ve_cycles as f64,
            rem_bytes: op.hbm_bytes as f64,
            rem_stall: 0.0,
            start: now,
        });
    }

    fn snapshot(&self) -> TenantSnapshot {
        let (me_demand, ve_demand) = match &self.current {
            Some(op) => {
                let work: &OperatorWork = &self.workload.operators[op.op_index];
                let me = if op.rem_me > EPS {
                    work.me_parallelism
                } else {
                    0
                };
                let ve = if op.rem_ve > EPS {
                    work.ve_parallelism
                } else {
                    0
                };
                (me, ve)
            }
            None => (0, 0),
        };
        TenantSnapshot {
            vnpu: self.spec.vnpu,
            allocated_mes: self.spec.allocated_mes,
            allocated_ves: self.spec.allocated_ves,
            priority: self.spec.priority,
            me_demand,
            ve_demand,
            has_work: self.current.is_some(),
            active_cycles: self.active_engine_cycles as u64,
            holds_engines: !self.just_dispatched
                && self.current.is_some()
                && (self.assignment.mes > 0 || self.assignment.ves > 0 || self.assignment.active),
        }
    }

    fn time_to_complete(&self, bw_share: f64) -> f64 {
        let Some(op) = &self.current else {
            return f64::INFINITY;
        };
        let a = self.assignment;
        let mut t: f64 = 0.0;
        if op.rem_stall > EPS {
            if !a.active {
                return f64::INFINITY;
            }
            t = t.max(op.rem_stall);
        }
        if op.rem_me > EPS {
            if a.mes == 0 {
                return f64::INFINITY;
            }
            t = t.max(op.rem_me / a.mes as f64);
        }
        if op.rem_ve > EPS {
            if a.ves == 0 {
                return f64::INFINITY;
            }
            t = t.max(op.rem_ve / a.ves as f64);
        }
        if op.rem_bytes > EPS {
            if !a.active || bw_share <= 0.0 {
                return f64::INFINITY;
            }
            t = t.max(op.rem_bytes / bw_share);
        }
        t
    }

    fn advance(&mut self, dt: f64, bw_share: f64) {
        let a = self.assignment;
        let allocated_mes = self.spec.allocated_mes;
        let allocated_ves = self.spec.allocated_ves;
        let Some(op) = &mut self.current else {
            return;
        };
        if a.active && op.rem_stall > EPS {
            op.rem_stall = (op.rem_stall - dt).max(0.0);
        }
        if a.mes > 0 && op.rem_me > EPS {
            let done = op.rem_me.min(a.mes as f64 * dt);
            op.rem_me -= done;
            self.result.me_work_cycles += done as u64;
            self.active_engine_cycles += done;
            if a.mes > allocated_mes {
                let harvested_fraction = (a.mes - allocated_mes) as f64 / a.mes as f64;
                self.result.harvested_me_cycles += (done * harvested_fraction) as u64;
            }
        }
        if a.ves > 0 && op.rem_ve > EPS {
            let done = op.rem_ve.min(a.ves as f64 * dt);
            op.rem_ve -= done;
            self.result.ve_work_cycles += done as u64;
            self.active_engine_cycles += done;
            if a.ves > allocated_ves {
                let harvested_fraction = (a.ves - allocated_ves) as f64 / a.ves as f64;
                self.result.harvested_ve_cycles += (done * harvested_fraction) as u64;
            }
        }
        if a.active && bw_share > 0.0 && op.rem_bytes > EPS {
            let done = op.rem_bytes.min(bw_share * dt);
            op.rem_bytes -= done;
            self.result.hbm_bytes_moved += done as u64;
        }
    }

    fn maybe_complete(&mut self, now: f64, record_ops: bool) {
        let finished = match &self.current {
            Some(op) => {
                op.rem_me <= EPS && op.rem_ve <= EPS && op.rem_bytes <= EPS && op.rem_stall <= EPS
            }
            None => false,
        };
        if !finished {
            return;
        }
        let op = self.current.take().expect("checked above"); // simlint::allow(P1, reason = "finished is only true while an operator is current")
        if record_ops && self.request_index < self.spec.target_requests {
            self.result.operator_durations.push(OperatorDuration {
                request: self.request_index,
                operator: op.op_index,
                start: op.start as u64,
                duration: (now - op.start).max(0.0) as u64,
            });
        }
        self.op_cursor += 1;
        if self.op_cursor >= self.workload.operators.len() {
            self.op_cursor = 0;
            self.result.completed_requests += 1;
            self.result
                .request_latencies
                .push((now - self.request_start).max(0.0) as u64);
            self.request_index += 1;
        }
    }

    fn reached_target(&self) -> bool {
        self.result.completed_requests >= self.spec.target_requests
    }
}

/// Simulator of collocated vNPUs on one physical NPU core.
pub struct CollocationSim {
    config: NpuConfig,
    options: SimOptions,
    tenants: Vec<TenantRun>,
}

impl CollocationSim {
    /// Compiles the tenants' models (for the ISA implied by the policy) and
    /// builds a simulator.
    pub fn new(config: &NpuConfig, options: SimOptions, specs: Vec<TenantSpec>) -> Self {
        let isa = if options.policy.uses_vliw_isa() {
            IsaKind::Vliw
        } else {
            IsaKind::NeuIsa
        };
        let tenants = specs
            .into_iter()
            .map(|spec| {
                let workload =
                    TenantWorkload::compile_cached(spec.model, spec.batch_size, config, isa);
                TenantRun::new(spec, workload)
            })
            .collect();
        CollocationSim {
            config: config.clone(),
            options,
            tenants,
        }
    }

    /// Builds a simulator from pre-compiled workloads (one per spec, in
    /// order). Useful for custom or synthetic workloads and for reusing
    /// compilations across runs.
    ///
    /// # Panics
    ///
    /// Panics if `specs` and `workloads` have different lengths.
    pub fn from_workloads(
        config: &NpuConfig,
        options: SimOptions,
        specs: Vec<TenantSpec>,
        workloads: Vec<TenantWorkload>,
    ) -> Self {
        assert_eq!(
            specs.len(),
            workloads.len(),
            "one workload per tenant spec is required"
        );
        let tenants = specs
            .into_iter()
            .zip(workloads)
            .map(|(spec, workload)| TenantRun::new(spec, Arc::new(workload)))
            .collect();
        CollocationSim {
            config: config.clone(),
            options,
            tenants,
        }
    }

    /// Runs the simulation until every tenant has completed its request
    /// target and returns the measurements.
    pub fn run(mut self) -> CollocationResult {
        let nx = self.config.mes_per_core;
        let ny = self.config.ves_per_core;
        let bw_per_cycle = self.config.hbm_bandwidth_bytes_per_sec / self.config.frequency.hz();
        let policy = self.options.policy;
        let me_preempt = me_preemption_cost(&self.config).get() as f64;
        let core_switch = full_core_switch_cost(&self.config).get() as f64;

        let mut now = 0.0f64;
        let mut timeline: Vec<AssignmentSample> = Vec::new();
        let mut previous: Vec<EngineAssignment> =
            vec![EngineAssignment::default(); self.tenants.len()];
        // Scratch reused across every scheduling event: the per-event hot
        // path of a multi-million-event run must not allocate.
        let mut snapshots: Vec<TenantSnapshot> = Vec::with_capacity(self.tenants.len());
        let mut assignments: Vec<EngineAssignment> = Vec::with_capacity(self.tenants.len());
        let mut scratch = AssignmentScratch::default();

        for _event in 0..MAX_EVENTS {
            if self.tenants.iter().all(|t| t.reached_target()) {
                break;
            }
            for t in &mut self.tenants {
                t.dispatch_next(now);
            }

            snapshots.clear();
            snapshots.extend(self.tenants.iter().map(|t| t.snapshot()));
            compute_assignment_into(policy, &snapshots, nx, ny, &mut scratch, &mut assignments);
            self.apply_transition_costs(&previous, &assignments, me_preempt, core_switch);
            for (tenant, assignment) in self.tenants.iter_mut().zip(&assignments) {
                tenant.assignment = *assignment;
                tenant.just_dispatched = false;
            }

            // Record the sample only when the assignment changed — compared
            // in place against the last sample, without materializing the
            // candidate mes/ves vectors first.
            if self.options.record_assignment_timeline
                && timeline.last().is_none_or(|last| {
                    !last
                        .mes
                        .iter()
                        .copied()
                        .eq(assignments.iter().map(|a| a.mes))
                        || !last
                            .ves
                            .iter()
                            .copied()
                            .eq(assignments.iter().map(|a| a.ves))
                })
                && timeline.len() < 100_000
            {
                timeline.push(AssignmentSample {
                    at: now as u64,
                    mes: assignments.iter().map(|a| a.mes).collect(),
                    ves: assignments.iter().map(|a| a.ves).collect(),
                });
            }

            // Fair HBM bandwidth sharing between tenants that are actively
            // streaming.
            let streaming = self
                .tenants
                .iter()
                .filter(|t| {
                    t.assignment.active && t.current.as_ref().is_some_and(|op| op.rem_bytes > EPS)
                })
                .count()
                .max(1);
            let bw_share = bw_per_cycle / streaming as f64;

            let dt = self
                .tenants
                .iter()
                .map(|t| t.time_to_complete(bw_share))
                .fold(f64::INFINITY, f64::min);
            if !dt.is_finite() {
                // No tenant can make progress: only possible if every tenant
                // is parked, which the policies never do while work remains.
                break;
            }
            let dt = dt.max(1.0);
            now += dt;
            for t in &mut self.tenants {
                t.advance(dt, bw_share);
            }
            let record_ops = self.options.record_operator_durations;
            for t in &mut self.tenants {
                t.maybe_complete(now, record_ops);
            }
            std::mem::swap(&mut previous, &mut assignments);
        }

        let makespan = Cycles(now as u64);
        let total_me: u64 = self.tenants.iter().map(|t| t.result.me_work_cycles).sum();
        let total_ve: u64 = self.tenants.iter().map(|t| t.result.ve_work_cycles).sum();
        let me_utilization = if makespan.is_zero() {
            0.0
        } else {
            (total_me as f64 / (makespan.get() as f64 * nx as f64)).min(1.0)
        };
        let ve_utilization = if makespan.is_zero() {
            0.0
        } else {
            (total_ve as f64 / (makespan.get() as f64 * ny as f64)).min(1.0)
        };

        CollocationResult {
            policy,
            makespan,
            tenants: self.tenants.into_iter().map(|t| t.result).collect(),
            me_utilization,
            ve_utilization,
            assignment_timeline: timeline,
        }
    }

    /// Applies the cost of assignment transitions: reclaiming harvested MEs
    /// (Neu10) and context switches (temporal-sharing baselines).
    fn apply_transition_costs(
        &mut self,
        previous: &[EngineAssignment],
        next: &[EngineAssignment],
        me_preempt: f64,
        core_switch: f64,
    ) {
        match self.options.policy {
            SharingPolicy::Neu10 => {
                // A tenant that gains MEs while another loses some that were
                // still busy has to wait for the harvested µTOps to be
                // preempted and drained (256 cycles per reclaim).
                let someone_lost_busy_mes =
                    previous
                        .iter()
                        .zip(next)
                        .zip(&self.tenants)
                        .any(|((old, new), t)| {
                            new.mes < old.mes
                                && t.current.as_ref().is_some_and(|op| op.rem_me > EPS)
                        });
                if !someone_lost_busy_mes {
                    return;
                }
                for ((old, new), tenant) in previous.iter().zip(next).zip(&mut self.tenants) {
                    if new.mes > old.mes {
                        if let Some(op) = &mut tenant.current {
                            op.rem_stall += me_preempt;
                            tenant.result.blocked_by_harvest_cycles += me_preempt as u64;
                        }
                    }
                }
            }
            SharingPolicy::V10 => {
                // The ME ownership moving between vNPUs drains the in-flight
                // operator from every ME.
                let old_owner = previous.iter().position(|a| a.mes > 0);
                let new_owner = next.iter().position(|a| a.mes > 0);
                if let (Some(old), Some(new)) = (old_owner, new_owner) {
                    if old != new {
                        if let Some(op) = &mut self.tenants[new].current {
                            op.rem_stall += me_preempt * self.config.mes_per_core as f64;
                        }
                    }
                }
            }
            SharingPolicy::Pmt => {
                // Switching the active vNPU swaps the whole core context.
                let old_active = previous.iter().position(|a| a.active);
                let new_active = next.iter().position(|a| a.active);
                if let (Some(old), Some(new)) = (old_active, new_active) {
                    if old != new {
                        if let Some(op) = &mut self.tenants[new].current {
                            op.rem_stall += core_switch;
                        }
                    }
                }
            }
            SharingPolicy::Neu10NoHarvest => {}
        }
    }
}

/// A calibrated per-request service-time distribution for one
/// (model, allocation, board) triple, summarized as mean and dispersion.
///
/// Fleet-level simulators use the dispersion (coefficient of variation) to
/// draw stochastic service times around their own batch-calibrated means, so
/// tail latencies stop being a pure queueing artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceTimeDistribution {
    /// Mean per-request service time in cycles.
    pub mean_cycles: f64,
    /// Coefficient of variation (standard deviation / mean); 0 for a
    /// degenerate (deterministic) distribution.
    pub cv: f64,
}

impl ServiceTimeDistribution {
    /// Summarizes a set of per-request latency samples.
    pub fn from_samples(samples: &[u64]) -> Self {
        let mean = crate::metrics::mean(samples);
        if samples.len() < 2 || mean <= 0.0 {
            return ServiceTimeDistribution {
                mean_cycles: mean,
                cv: 0.0,
            };
        }
        let variance = samples
            .iter()
            .map(|s| {
                let d = *s as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / samples.len() as f64;
        ServiceTimeDistribution {
            mean_cycles: mean,
            cv: variance.sqrt() / mean,
        }
    }

    /// Whether the distribution carries no dispersion.
    pub fn is_degenerate(&self) -> bool {
        self.cv <= 0.0
    }
}

/// Calibrates the service-time distribution of `model` (at `batch`, on a
/// `mes`×`ves` allocation of `config`) by replaying it through a
/// [`CollocationSim`] against a collocated interferer and summarizing the
/// observed per-request latencies.
///
/// The interferer models the multi-tenant reality the paper measures: the
/// request-to-request latency spread comes from contention on shared engines
/// and HBM bandwidth, which a solo run (every request identical) cannot
/// produce. `interferer` defaults to [`ModelId::Ncf`] (a bandwidth-heavy
/// recommender) — or [`ModelId::Mnist`] when the model under calibration *is*
/// NCF — so the measurement is never a synchronized self-collocation.
///
/// The result is a pure function of the inputs, so it is memoized for the
/// life of the process: every serving run and partition that calibrates the
/// same shape shares one `CollocationSim` run.
pub fn calibrate_service_time(
    config: &NpuConfig,
    model: ModelId,
    mes: usize,
    ves: usize,
    batch: u64,
    interferer: Option<ModelId>,
    requests: usize,
) -> ServiceTimeDistribution {
    let key = CalibrationKey {
        board: config.cache_key(),
        model,
        mes: mes.max(1),
        ves: ves.max(1),
        batch: batch.max(1),
        interferer: interferer.unwrap_or(if model == ModelId::Ncf {
            ModelId::Mnist
        } else {
            ModelId::Ncf
        }),
        requests: requests.max(2),
    };
    *CALIBRATIONS.get_or_insert_with(key, || calibrate_uncached(config, key))
}

/// Everything a calibration depends on, with the defaults and clamps of
/// [`calibrate_service_time`] applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CalibrationKey {
    board: NpuConfigKey,
    model: ModelId,
    mes: usize,
    ves: usize,
    batch: u64,
    interferer: ModelId,
    requests: usize,
}

/// The process-wide calibration memo behind [`calibrate_service_time`].
static CALIBRATIONS: Memo<CalibrationKey, ServiceTimeDistribution> = Memo::new();

/// One calibration run: a `CollocationSim` of the target beside its
/// interferer on `config`.
fn calibrate_uncached(config: &NpuConfig, key: CalibrationKey) -> ServiceTimeDistribution {
    let CalibrationKey {
        model,
        mes,
        ves,
        batch,
        interferer: noisy,
        requests,
        ..
    } = key;
    let target = TenantSpec {
        vnpu: VnpuId(0),
        model,
        batch_size: batch,
        allocated_mes: mes,
        allocated_ves: ves,
        priority: 1,
        target_requests: requests,
    };
    let neighbor = TenantSpec {
        vnpu: VnpuId(1),
        model: noisy,
        batch_size: noisy.evaluation_batch_size(),
        allocated_mes: mes,
        allocated_ves: ves,
        priority: 1,
        target_requests: requests,
    };
    let mut options = SimOptions::new(SharingPolicy::Neu10);
    options.record_operator_durations = false;
    let result = CollocationSim::new(config, options, vec![target, neighbor]).run();
    // The run is closed-loop until *every* tenant reaches its target, so the
    // faster tenant records extra requests across both the contended and the
    // uncontended phases — exactly the spread the distribution should carry.
    let samples: Vec<u64> = result
        .tenant(VnpuId(0))
        .map(|t| t.request_latencies.clone())
        .unwrap_or_default();
    ServiceTimeDistribution::from_samples(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> NpuConfig {
        NpuConfig::single_core()
    }

    /// A synthetic workload: `ops` operators of (me, ve, bytes, me_par, ve_par).
    fn synthetic(model: ModelId, ops: &[(u64, u64, u64, usize, usize)]) -> TenantWorkload {
        TenantWorkload {
            model,
            batch_size: 1,
            isa: IsaKind::NeuIsa,
            operators: ops
                .iter()
                .enumerate()
                .map(|(index, &(me, ve, bytes, mp, vp))| OperatorWork {
                    index,
                    me_cycles: me,
                    ve_cycles: ve,
                    hbm_bytes: bytes,
                    me_parallelism: mp,
                    ve_parallelism: vp,
                })
                .collect(),
            hbm_footprint_bytes: 1 << 30,
        }
    }

    fn spec(id: u32, requests: usize) -> TenantSpec {
        TenantSpec {
            vnpu: VnpuId(id),
            model: ModelId::Mnist,
            batch_size: 1,
            allocated_mes: 2,
            allocated_ves: 2,
            priority: 1,
            target_requests: requests,
        }
    }

    /// An ME-hungry workload (wants all 4 MEs) and a VE-only workload.
    fn me_hungry() -> TenantWorkload {
        synthetic(ModelId::ResNet, &[(400_000, 10_000, 1 << 20, 4, 1); 4])
    }

    fn ve_only() -> TenantWorkload {
        synthetic(ModelId::Dlrm, &[(0, 200_000, 8 << 20, 0, 2); 4])
    }

    fn run_pair(
        policy: SharingPolicy,
        w1: TenantWorkload,
        w2: TenantWorkload,
    ) -> CollocationResult {
        let sim = CollocationSim::from_workloads(
            &config(),
            SimOptions::new(policy),
            vec![spec(0, 4), spec(1, 4)],
            vec![w1, w2],
        );
        sim.run()
    }

    #[test]
    fn solo_run_completes_and_is_deterministic() {
        let run = || {
            CollocationSim::from_workloads(
                &config(),
                SimOptions::new(SharingPolicy::Neu10),
                vec![spec(0, 3)],
                vec![me_hungry()],
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "simulation must be deterministic");
        assert_eq!(a.tenants[0].completed_requests, 3);
        assert_eq!(a.tenants[0].request_latencies.len(), 3);
        assert!(a.makespan > Cycles::ZERO);
        assert!(a.me_utilization > 0.0 && a.me_utilization <= 1.0);
        // All ME work was executed.
        assert_eq!(a.tenants[0].me_work_cycles, 3 * 4 * 400_000);
    }

    #[test]
    fn harvesting_speeds_up_the_hungry_tenant() {
        let harvest = run_pair(SharingPolicy::Neu10, me_hungry(), ve_only());
        let static_part = run_pair(SharingPolicy::Neu10NoHarvest, me_hungry(), ve_only());
        // The ME-hungry tenant can use the VE-only tenant's idle MEs.
        assert!(harvest.makespan < static_part.makespan);
        assert!(harvest.tenants[0].harvested_me_cycles > 0);
        assert_eq!(static_part.tenants[0].harvested_me_cycles, 0);
        assert!(harvest.me_utilization > static_part.me_utilization);
    }

    #[test]
    fn spatial_sharing_beats_whole_core_time_sharing() {
        let neu10 = run_pair(SharingPolicy::Neu10, me_hungry(), ve_only());
        let pmt = run_pair(SharingPolicy::Pmt, me_hungry(), ve_only());
        assert!(
            neu10.makespan < pmt.makespan,
            "Neu10 ({}) should finish before PMT ({})",
            neu10.makespan,
            pmt.makespan
        );
    }

    #[test]
    fn v10_serializes_competing_me_operators() {
        // Two ME-heavy tenants: V10 runs their ME operators one at a time, so
        // the makespan is no better than Neu10's spatial split.
        let neu10 = run_pair(SharingPolicy::Neu10, me_hungry(), me_hungry());
        let v10 = run_pair(SharingPolicy::V10, me_hungry(), me_hungry());
        assert!(v10.makespan >= neu10.makespan);
        // Under V10 one tenant's requests finish in bursts; its tail latency
        // is at least as bad as under Neu10.
        let v10_tail = v10.tenants[0].latency_summary().p95;
        let neu10_tail = neu10.tenants[0].latency_summary().p95;
        assert!(v10_tail >= neu10_tail);
    }

    #[test]
    fn harvest_overhead_is_small() {
        let result = run_pair(SharingPolicy::Neu10, me_hungry(), ve_only());
        for tenant in &result.tenants {
            let overhead = tenant.harvest_overhead_fraction(result.makespan);
            assert!(overhead < 0.2, "harvest overhead {overhead} too large");
        }
    }

    #[test]
    fn memory_bound_tenants_share_bandwidth() {
        let memory_heavy = synthetic(ModelId::Ncf, &[(0, 1_000, 512 << 20, 0, 1); 2]);
        let solo = CollocationSim::from_workloads(
            &config(),
            SimOptions::new(SharingPolicy::Neu10),
            vec![spec(0, 2)],
            vec![memory_heavy.clone()],
        )
        .run();
        let pair = CollocationSim::from_workloads(
            &config(),
            SimOptions::new(SharingPolicy::Neu10),
            vec![spec(0, 2), spec(1, 2)],
            vec![memory_heavy.clone(), memory_heavy],
        )
        .run();
        // Two tenants streaming together finish later than one alone (the
        // bandwidth is split) but much faster than strictly serialized.
        assert!(pair.makespan > solo.makespan);
        assert!(pair.makespan.get() < solo.makespan.get() * 3);
    }

    #[test]
    fn assignment_timeline_is_recorded_when_requested() {
        let mut options = SimOptions::new(SharingPolicy::Neu10);
        options.record_assignment_timeline = true;
        let sim = CollocationSim::from_workloads(
            &config(),
            options,
            vec![spec(0, 2), spec(1, 2)],
            vec![me_hungry(), ve_only()],
        );
        let result = sim.run();
        assert!(!result.assignment_timeline.is_empty());
        for sample in &result.assignment_timeline {
            assert_eq!(sample.mes.len(), 2);
            assert!(sample.mes.iter().sum::<usize>() <= 4);
        }
    }

    #[test]
    fn service_time_distribution_summarizes_samples() {
        let flat = ServiceTimeDistribution::from_samples(&[100, 100, 100, 100]);
        assert_eq!(flat.mean_cycles, 100.0);
        assert!(flat.is_degenerate());
        let spread = ServiceTimeDistribution::from_samples(&[50, 100, 150]);
        assert_eq!(spread.mean_cycles, 100.0);
        assert!(spread.cv > 0.0 && !spread.is_degenerate());
        assert_eq!(ServiceTimeDistribution::from_samples(&[]).mean_cycles, 0.0);
    }

    #[test]
    fn calibration_measures_collocation_dispersion() {
        let cfg = config();
        let calibrated = calibrate_service_time(&cfg, ModelId::Mnist, 2, 2, 32, None, 6);
        assert!(calibrated.mean_cycles > 0.0);
        assert!(
            calibrated.cv > 0.0,
            "collocated calibration must observe request-to-request spread (cv = {})",
            calibrated.cv
        );
        // Deterministic: same inputs, same distribution.
        let again = calibrate_service_time(&cfg, ModelId::Mnist, 2, 2, 32, None, 6);
        assert_eq!(calibrated, again);
    }

    #[test]
    fn calibration_is_memoized_and_value_transparent() {
        let cfg = config();
        let first = calibrate_service_time(&cfg, ModelId::Dlrm, 1, 3, 8, None, 5);
        let hits = CALIBRATIONS.hits();
        let second = calibrate_service_time(&cfg, ModelId::Dlrm, 1, 3, 8, None, 5);
        assert!(CALIBRATIONS.hits() > hits, "the second call is a memo hit");
        assert_eq!(first, second);
        // A fresh CollocationSim run of the same shape gives the same value.
        let fresh = calibrate_uncached(
            &cfg,
            CalibrationKey {
                board: cfg.cache_key(),
                model: ModelId::Dlrm,
                mes: 1,
                ves: 3,
                batch: 8,
                interferer: ModelId::Ncf,
                requests: 5,
            },
        );
        assert_eq!(second, fresh, "the memo must be value-transparent");
        // Every input is part of the key.
        let other = calibrate_service_time(&cfg, ModelId::Dlrm, 1, 3, 8, Some(ModelId::Mnist), 5);
        assert_ne!(other, second, "the interferer is part of the key");
    }

    #[test]
    fn model_compiled_smoke_run() {
        // End-to-end: compile MNIST + DLRM from the model generators and run
        // a short collocation under every policy.
        let cfg = config();
        for policy in SharingPolicy::all() {
            let sim = CollocationSim::new(
                &cfg,
                SimOptions::new(policy),
                vec![
                    TenantSpec::evaluation(0, ModelId::Mnist, 2),
                    TenantSpec::evaluation(1, ModelId::Dlrm, 2).with_batch_size(8),
                ],
            );
            let result = sim.run();
            assert_eq!(result.tenants.len(), 2);
            for tenant in &result.tenants {
                assert!(tenant.completed_requests >= 2, "{policy}: {tenant:?}");
            }
        }
    }
}
