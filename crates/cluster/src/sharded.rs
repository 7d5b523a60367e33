//! The run coordinator, the one driver of every serving run: a
//! conservative parallel-discrete-event coordinator over per-board-group
//! [`PartitionSim`]s. A sequential run is its one-partition case, stepped in
//! order on the calling thread: `partitions = 1` *is* the sequential run.
//!
//! # Partitioning model
//!
//! The fleet's boards are divided into `partitions` contiguous board-groups
//! in node-id order. Each partition owns its boards' replicas, event heap,
//! router and accumulators, and processes the arrivals a deterministic
//! [`ShardPlan`] assigns to it. The only cross-partition edges are:
//!
//! * **migration transfers** — a replica moving to a board another partition
//!   owns travels as a [`MigrationEnvelope`](crate::serving::MigrationEnvelope),
//!   priced source-side and delivered at a barrier;
//! * **telemetry, control and SLO alerts** — ticks are barriers: the control
//!   plane runs over the merged frame and the whole fleet, its actions apply
//!   in its order on the owning partitions, and the alert tick evaluates the
//!   partitions' summed burn-rate buckets once.
//!
//! # Rounds and barriers
//!
//! A round bound is a packed `(cycle, position)` event key: each partition
//! runs every event and arrival keyed below it. The bound is the earliest of
//! the next telemetry and alert tick (after its cycle's completions, resumes,
//! batch timeouts, copy rounds and scheduled migrations, before its faults
//! and arrivals: [`tick_bound`]), the cycle after the next scheduled
//! migration (so the triggering event runs before the barrier that delivers
//! its envelope), and — whenever a cross-partition transfer is pending — the
//! last barrier plus the lookahead, the interconnect setup latency from
//! [`npu_sim::interconnect`](npu_sim::InterconnectConfig): no cross-edge
//! effect can land sooner than one link setup. When none of these bound the
//! future, the final round drains every partition, trailing faults included.
//! Ticks re-arm only while some partition has work left, and each counts as
//! one processed event.
//!
//! # Determinism
//!
//! Same seed, trace and partition count ⇒ bit-identical merged
//! [`ServingReport`] at **every** thread count: partitions are stepped by an
//! ownership-transfer worker pool ([`crate::par`]) whose results are
//! re-sorted by partition index, barriers merge in partition-index order,
//! and no decision anywhere reads the wall clock.

use std::collections::BTreeMap;

use neu10::DeadlineStats;
use workloads::{ClusterTrace, ModelId, RequestArrival};

use crate::cluster::NpuCluster;
use crate::fault::FaultSchedule;
use crate::obs::{AlertLog, AlertTransition, NoopSink, ObsSink};
use crate::par::{in_tag_order, with_pool};
use crate::serving::{
    arrival_key, cycle_bound, tick_bound, ClusterServingSim, PartitionOutcome, PartitionSim,
    ServingOptions, ServingReport, ShardContext, UNBOUNDED,
};
use crate::telemetry::{ControlAction, ControlPlane, NoopControl, TelemetryFrame};
use crate::NodeId;
use npu_sim::Cycles;

/// How a sharded run is laid out: board-group partitions and worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// Board-group partitions. Clamped to `[1, node_count]`. The partition
    /// count — not the thread count — is what changes the merged report:
    /// each count is its own deterministic schedule.
    pub partitions: usize,
    /// Worker threads driving the partitions. Clamped to `[1, partitions]`.
    /// Threads never change the report, only the wall-clock.
    pub threads: usize,
}

impl ShardOptions {
    /// `partitions` board-groups, one worker thread per partition.
    pub fn new(partitions: usize) -> Self {
        ShardOptions {
            partitions: partitions.max(1),
            threads: partitions.max(1),
        }
    }

    /// Overrides the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// The deterministic arrival-ownership plan: which partition admits which
/// arrival.
///
/// Per model, each partition is weighted by its dispatchable replica count
/// (live and not draining — the sequential router's candidate set); arrival
/// `sequence` belongs to the partition holding the `sequence % total`-th
/// replica. A model with no replica anywhere falls back to
/// `sequence % partitions`, so its rejections are spread (and counted)
/// deterministically. Rebuilt at every barrier of a partitioned run, the
/// plan tracks migrations,
/// scale-ups and failovers with one barrier of lag — load balance drifts,
/// correctness never does: ownership only decides *which* partition's router
/// admits or rejects an arrival against its local candidates.
///
/// The weights are compiled at the barrier into one residue table per model
/// (indexed by `ModelId as usize`): entry `k` is the partition holding the
/// `k`-th replica, so [`owner`](ShardPlan::owner) is one modulo and one
/// load. Each partition steps its arrival cursor over the arrivals it does
/// not own with [`skip_unowned`](ShardPlan::skip_unowned) instead of pulling
/// them through the event loop.
#[derive(Debug, Clone)]
pub(crate) struct ShardPlan {
    partitions: usize,
    /// Per model, the owning partition of each residue `sequence % total`;
    /// empty when the model has no dispatchable replica.
    residues: Vec<Vec<u32>>,
}

impl ShardPlan {
    /// A plan with no replica weights (everything falls back to
    /// `sequence % partitions`).
    pub(crate) fn empty(partitions: usize) -> Self {
        Self::new(partitions, &BTreeMap::new())
    }

    /// Compiles accumulated per-model, per-partition replica counts into
    /// residue tables.
    pub(crate) fn new(partitions: usize, weights: &BTreeMap<ModelId, Vec<u64>>) -> Self {
        let mut residues = vec![Vec::new(); ModelId::all().len()];
        for (&model, counts) in weights {
            residues[model as usize] = counts
                .iter()
                .enumerate()
                .flat_map(|(partition, &count)| {
                    std::iter::repeat_n(partition as u32, count as usize)
                })
                .collect();
        }
        ShardPlan {
            partitions: partitions.max(1),
            residues,
        }
    }

    /// The partition that admits arrival `sequence` of `model`.
    pub(crate) fn owner(&self, model: ModelId, sequence: u64) -> usize {
        match self.residues.get(model as usize) {
            Some(table) if !table.is_empty() => {
                table[(sequence % table.len() as u64) as usize] as usize
            }
            _ => (sequence % self.partitions as u64) as usize,
        }
    }

    /// Advances `partition`'s arrival cursor to the first arrival that
    /// `partition` owns or that is keyed at or past the round `bound`.
    /// Arrivals at or past the bound stay unclassified, because the barrier
    /// at the bound may rebuild the plan that decides their owner.
    pub(crate) fn skip_unowned(
        &self,
        partition: usize,
        arrivals: &[RequestArrival],
        cursor: &mut usize,
        bound: u128,
    ) {
        // A lone partition owns every arrival: the cursor has nothing to
        // skip, and the owner lookup would cost the sequential run's hot
        // path one residue load per arrival.
        if self.partitions == 1 {
            return;
        }
        while let Some(arrival) = arrivals.get(*cursor) {
            if arrival_key(arrival.at.get()) >= bound
                || self.owner(arrival.model, arrival.sequence) == partition
            {
                return;
            }
            *cursor += 1;
        }
    }
}

/// One round's unit of work: a partition with everything it mutates, moved
/// into a worker and moved back at the barrier — no shared state, nothing
/// for thread scheduling to race on.
pub(crate) struct ShardJob<'t, 's, S: ?Sized> {
    sim: PartitionSim<'t>,
    cluster: NpuCluster,
    sink: &'s mut S,
    bound: u128,
}

/// One round's jobs, tagged with their partition index.
type Jobs<'t, 's, S> = Vec<(usize, ShardJob<'t, 's, S>)>;

impl<S: ObsSink + ?Sized> ShardJob<'_, '_, S> {
    /// Runs the partition's events and arrivals keyed below the round bound.
    pub(crate) fn step(&mut self) {
        self.sim
            .step_until(self.bound, &mut self.cluster, self.sink);
    }
}

/// The sequential run behind every `run*` entry point: the coordinator over
/// one partition, stepped in order on the calling thread.
pub(crate) fn drive_sequential<S: ObsSink + ?Sized>(
    sim: &ClusterServingSim,
    cluster: &mut NpuCluster,
    trace: &ClusterTrace,
    controller: &mut dyn ControlPlane,
    sink: &mut S,
) -> ServingReport {
    let mut execute = |jobs| in_tag_order(ShardJob::step, jobs);
    Coordinator::drive(sim, cluster, trace, vec![sink], controller, &mut execute)
}

impl ClusterServingSim {
    /// [`ClusterServingSim::run`] over board-group partitions, optionally in
    /// parallel. Same seed and partition count ⇒ bit-identical report at any
    /// thread count; `partitions = 1` is the sequential run.
    ///
    /// # Example
    ///
    /// ```
    /// use cluster::{ClusterServingSim, DeploySpec, DispatchPolicy, NodeId,
    ///               NpuCluster, ServingOptions, ShardOptions};
    /// use npu_sim::NpuConfig;
    /// use workloads::{ClusterTrace, ModelId};
    ///
    /// let npu = NpuConfig::single_core();
    /// let trace = ClusterTrace::poisson(&[(ModelId::Mnist, 20_000)], 48, 11);
    /// let run = |threads: usize| {
    ///     let mut fleet = NpuCluster::homogeneous(4, &npu);
    ///     for node in 0..4 {
    ///         fleet
    ///             .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(node))
    ///             .expect("board capacity");
    ///     }
    ///     ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded))
    ///         .run_sharded(&mut fleet, &trace, ShardOptions::new(2).with_threads(threads))
    /// };
    /// // The thread count never changes the merged report.
    /// let single = run(1);
    /// assert_eq!(single, run(2));
    /// assert_eq!(single.stats.completed, 48);
    /// ```
    pub fn run_sharded(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        shard: ShardOptions,
    ) -> ServingReport {
        let mut sinks: Vec<NoopSink> = Vec::new();
        drive_sharded(self, cluster, trace, shard, &mut NoopControl, &mut sinks)
    }

    /// [`ClusterServingSim::run_sharded`] with per-partition observability.
    ///
    /// `sinks` is cleared and refilled with one default-constructed sink per
    /// effective partition; each partition's events land in its own sink, and
    /// the caller merges them afterwards (e.g.
    /// [`TraceRecorder::merge`](crate::obs::TraceRecorder::merge)). The
    /// simulation result is unaffected by observation.
    pub fn run_sharded_observed<S: ObsSink + Send + Default>(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        shard: ShardOptions,
        sinks: &mut Vec<S>,
    ) -> ServingReport {
        drive_sharded(self, cluster, trace, shard, &mut NoopControl, sinks)
    }

    /// [`ClusterServingSim::run_with_controller`] over board-group
    /// partitions: the control plane runs fleet-wide at every barrier tick,
    /// over the partitions' merged telemetry frame.
    ///
    /// # Panics
    ///
    /// Panics unless [`ServingOptions::with_telemetry`] was configured, for
    /// the same reason as [`ClusterServingSim::run_with_controller`].
    pub fn run_sharded_with_controller(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        shard: ShardOptions,
        controller: &mut dyn ControlPlane,
    ) -> ServingReport {
        assert!(
            self.options().telemetry_interval.is_some(),
            "run_sharded_with_controller requires ServingOptions::with_telemetry: \
             without a sampling interval the controller is never invoked"
        );
        let mut sinks: Vec<NoopSink> = Vec::new();
        drive_sharded(self, cluster, trace, shard, controller, &mut sinks)
    }

    /// [`ClusterServingSim::run_sharded_with_controller`] with per-partition
    /// observability (see [`ClusterServingSim::run_sharded_observed`]).
    ///
    /// # Panics
    ///
    /// Panics unless [`ServingOptions::with_telemetry`] was configured.
    pub fn run_sharded_observed_with_controller<S: ObsSink + Send + Default>(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        shard: ShardOptions,
        controller: &mut dyn ControlPlane,
        sinks: &mut Vec<S>,
    ) -> ServingReport {
        assert!(
            self.options().telemetry_interval.is_some(),
            "run_sharded_observed_with_controller requires ServingOptions::with_telemetry: \
             without a sampling interval the controller is never invoked"
        );
        drive_sharded(self, cluster, trace, shard, controller, sinks)
    }
}

/// The run behind every `run_sharded*` entry point: clamps the layout, gives
/// each partition a default sink, and runs the coordinator on a pool of
/// worker threads.
fn drive_sharded<S: ObsSink + Send + Default>(
    sim: &ClusterServingSim,
    cluster: &mut NpuCluster,
    trace: &ClusterTrace,
    shard: ShardOptions,
    controller: &mut dyn ControlPlane,
    sinks: &mut Vec<S>,
) -> ServingReport {
    let partitions = shard.partitions.clamp(1, cluster.node_count().max(1));
    sinks.clear();
    sinks.resize_with(partitions, S::default);
    let step = |job: &mut ShardJob<S>| job.step();
    with_pool(shard.threads.clamp(1, partitions), &step, |execute| {
        Coordinator::drive(
            sim,
            cluster,
            trace,
            sinks.iter_mut().collect(),
            controller,
            execute,
        )
    })
}

/// The coordinator of one run: its partitions (one per sink) with their
/// clusters and sinks, the barrier schedule, and the tick state that is
/// fleet-wide rather than per partition.
pub(crate) struct Coordinator<'t, 's, S: ?Sized> {
    sims: Vec<PartitionSim<'t>>,
    clusters: Vec<NpuCluster>,
    sinks: Vec<&'s mut S>,
    /// Round scratch, reused so a round allocates nothing.
    jobs: Jobs<'t, 's, S>,
    owners: BTreeMap<NodeId, usize>,
    lookahead: u64,
    /// Cycles of the scheduled migrations, sorted and deduplicated.
    migration_times: Vec<u64>,
    telemetry_interval: Option<u64>,
    alert_interval: Option<u64>,
    next_tick: Option<u64>,
    next_alert: Option<u64>,
    /// The merged frame, reused across ticks.
    frame: TelemetryFrame,
    /// Alert-edge scratch, reused across alert ticks.
    alerts: Vec<AlertTransition>,
    /// Every alert edge of the run, in evaluation order.
    log: AlertLog,
    /// The cycle of the last barrier.
    now: u64,
    /// Telemetry ticks run.
    samples: usize,
    /// Telemetry and alert ticks run: one processed event each.
    ticks: u64,
}

impl<'t, 's, S: ObsSink + ?Sized> Coordinator<'t, 's, S> {
    /// Runs `trace` on `cluster` over one partition per sink, stepping each
    /// round through `execute`, and merges the partitions' outcomes: the one
    /// driver of every `run*` and `run_sharded*` entry point.
    fn drive(
        sim: &ClusterServingSim,
        cluster: &mut NpuCluster,
        trace: &'t ClusterTrace,
        sinks: Vec<&'s mut S>,
        controller: &mut dyn ControlPlane,
        execute: &mut dyn FnMut(Jobs<'t, 's, S>) -> Jobs<'t, 's, S>,
    ) -> ServingReport {
        let mut coordinator = Coordinator::new(sim.options(), cluster, trace.arrivals(), sinks);
        coordinator.run(controller, execute);
        coordinator.finish(cluster)
    }

    /// Splits `cluster` into one contiguous board-group per sink and builds
    /// each group's partition, with the scheduled migrations and faults of
    /// the boards it owns.
    pub(crate) fn new(
        options: &ServingOptions,
        cluster: &mut NpuCluster,
        arrivals: &'t [RequestArrival],
        sinks: Vec<&'s mut S>,
    ) -> Self {
        let partitions = sinks.len();
        // Contiguous board-groups in node-id order: group boundaries (and
        // with them the whole schedule) depend only on the fleet and the
        // partition count.
        let mut node_ids: Vec<NodeId> = cluster.nodes().iter().map(|node| node.id()).collect();
        node_ids.sort_unstable();
        let group = node_ids.len().div_ceil(partitions);
        let owners: BTreeMap<NodeId, usize> = node_ids
            .iter()
            .enumerate()
            .map(|(i, &node)| (node, (i / group).min(partitions - 1)))
            .collect();
        // A board of no group belongs to partition 0, as in `split`.
        let owner = |node: NodeId| owners.get(&node).copied().unwrap_or(0);

        let mut migration_times: Vec<u64> = options
            .migrations
            .iter()
            .map(|migration| migration.at.get())
            .collect();
        migration_times.sort_unstable();
        migration_times.dedup();

        let mut clusters = cluster.take().split(&owners, partitions);
        // The seed is shared: every replica draws from its own stream, so no
        // partition index reaches a draw.
        let sims = clusters
            .iter_mut()
            .enumerate()
            .map(|(index, part_cluster)| {
                let mut opts = options.clone();
                opts.migrations
                    .retain(|migration| owner(migration.handle.node) == index);
                opts.faults = options.faults.as_ref().map(|schedule| {
                    schedule
                        .events()
                        .iter()
                        .filter(|event| owner(event.kind.node()) == index)
                        .fold(FaultSchedule::new(), |acc, event| {
                            acc.with_fault(event.at, event.kind)
                        })
                });
                let context = ShardContext {
                    index,
                    owners: owners.clone(),
                    plan: ShardPlan::empty(partitions),
                    exports: Vec::new(),
                };
                PartitionSim::new(opts, part_cluster, arrivals, context)
            })
            .collect();
        let alert_interval = options.slo.as_ref().map(|slo| slo.tick.max(1));
        let mut coordinator = Coordinator {
            sims,
            clusters,
            sinks,
            jobs: Vec::with_capacity(partitions),
            owners,
            lookahead: options.cost_model.interconnect.setup_cycles.max(1),
            migration_times,
            telemetry_interval: options.telemetry_interval,
            alert_interval,
            next_tick: options.telemetry_interval,
            next_alert: alert_interval,
            frame: TelemetryFrame {
                at: Cycles::ZERO,
                replicas: Vec::new(),
                deadlines: BTreeMap::new(),
            },
            alerts: Vec::new(),
            log: AlertLog::default(),
            now: 0,
            samples: 0,
            ticks: 0,
        };
        coordinator.rebuild_plan();
        coordinator
    }

    /// Drives bounded rounds through `execute`, reconciling at every
    /// barrier, until the unbounded final round has drained every partition.
    pub(crate) fn run(
        &mut self,
        controller: &mut dyn ControlPlane,
        execute: &mut dyn FnMut(Jobs<'t, 's, S>) -> Jobs<'t, 's, S>,
    ) {
        loop {
            let bound = self.bound();
            self.round(bound, execute);
            if bound == UNBOUNDED {
                debug_assert!(
                    self.sims.iter().all(|sim| !sim.pending_remote()),
                    "an unbounded round exports nothing"
                );
                return;
            }
            self.now = (bound >> 64) as u64;
            self.deliver();
            if self.next_tick.map(tick_bound) == Some(bound) {
                self.tick(controller);
            }
            if self.next_alert.map(tick_bound) == Some(bound) {
                self.alert(controller);
            }
            self.rebuild_plan();
        }
    }

    /// The next round's bound: the earliest due tick, the cycle after the
    /// next scheduled migration and, while a cross-partition transfer is
    /// pending, one lookahead past the last barrier.
    fn bound(&self) -> u128 {
        let ticks = [self.next_tick, self.next_alert].into_iter().flatten();
        let migration = self.migration_times.iter().find(|&&at| at >= self.now);
        // A lone partition has no remote board to wait for, so its replica
        // table is not scanned for one at every round.
        let remote = self.sims.len() > 1 && self.sims.iter().any(PartitionSim::pending_remote);
        ticks
            .map(tick_bound)
            .chain(migration.map(|&at| cycle_bound(at.saturating_add(1))))
            .chain(remote.then(|| cycle_bound(self.now.saturating_add(self.lookahead))))
            .min()
            .unwrap_or(UNBOUNDED)
    }

    /// One round: every partition advances to `bound`, in parallel when
    /// `execute` runs a worker pool.
    fn round(&mut self, bound: u128, execute: &mut dyn FnMut(Jobs<'t, 's, S>) -> Jobs<'t, 's, S>) {
        let parts = self.sims.drain(..).zip(self.clusters.drain(..));
        self.jobs.extend(
            parts
                .zip(self.sinks.drain(..))
                .map(|((sim, cluster), sink)| ShardJob {
                    sim,
                    cluster,
                    sink,
                    bound,
                })
                .enumerate(),
        );
        self.jobs = execute(std::mem::take(&mut self.jobs));
        for (_, job) in self.jobs.drain(..) {
            self.sims.push(job.sim);
            self.clusters.push(job.cluster);
            self.sinks.push(job.sink);
        }
    }

    /// The partition owning `node`.
    fn owner(&self, node: NodeId) -> usize {
        self.owners.get(&node).copied().unwrap_or(0)
    }

    /// Delivers the migrations exported since the last barrier, in
    /// partition-index order then export order. A refused import is counted
    /// and bounces home once; a refused bounce abandons the replica with
    /// every queued request attributed.
    fn deliver(&mut self) {
        let now = self.now;
        for index in 0..self.sims.len() {
            for mut envelope in self.sims[index].take_exports() {
                loop {
                    let to = self.owner(envelope.to_node);
                    let (sim, sink) = (&mut self.sims[to], &mut *self.sinks[to]);
                    let Err(refused) =
                        sim.import_replica(&mut self.clusters[to], envelope, now, sink)
                    else {
                        break;
                    };
                    envelope = *refused;
                    if envelope.bounced {
                        sim.abandon_envelope(envelope, now, sink);
                        break;
                    }
                    sim.reject_migration(now, envelope.from_slot, sink);
                    envelope.bounced = true;
                    envelope.to_node = envelope.from_node;
                }
            }
        }
    }

    /// The telemetry tick: each partition's failover sweep and samples into
    /// the one merged frame, every sink's tick, then the controller over the
    /// frame and the whole fleet. Its actions apply in its order: a scale-up
    /// is placed on the fleet and adopted by the partition owning the board
    /// it landed on (a refusal counts on partition 0), a scale-down or
    /// migration goes to the partition owning the replica's board.
    fn tick(&mut self, controller: &mut dyn ControlPlane) {
        let now = self.now;
        self.samples += 1;
        self.ticks += 1;
        let frame = &mut self.frame;
        frame.at = Cycles(now);
        frame.replicas.clear();
        for tally in frame.deadlines.values_mut() {
            *tally = DeadlineStats::default();
        }
        let parts = self.sims.iter_mut().zip(&mut self.clusters);
        for ((sim, cluster), sink) in parts.zip(&mut self.sinks) {
            sim.telemetry_tick(cluster, now, frame, *sink);
        }
        let parts = self.sims.iter().zip(&self.clusters);
        for ((sim, cluster), sink) in parts.zip(&mut self.sinks) {
            sim.report_tick(cluster, now, frame, *sink);
        }

        // A lone partition's cluster is the whole fleet; more partitions'
        // are absorbed into one for the controller and split back after.
        let mut fleet = match self.clusters.as_mut_slice() {
            [only] => only.take(),
            _ => NpuCluster::absorb(std::mem::take(&mut self.clusters)),
        };
        for action in controller.control(&self.frame, &fleet) {
            match action {
                ControlAction::ScaleUp { spec, placement } => {
                    let deployed = fleet.deploy(spec, placement).ok();
                    let index = deployed.map_or(0, |handle| self.owner(handle.node));
                    self.sinks[index].on_control(now, &action);
                    self.sims[index].scale_up(&fleet, deployed, now);
                }
                ControlAction::ScaleDown { handle } | ControlAction::Migrate { handle, .. } => {
                    let index = self.owner(handle.node);
                    self.sims[index].apply_action(&mut fleet, action, now, self.sinks[index]);
                }
            }
        }
        match self.clusters.as_mut_slice() {
            [only] => *only = fleet,
            _ => self.clusters = fleet.split(&self.owners, self.sims.len()),
        }
        self.next_tick = self.rearm(self.telemetry_interval);
    }

    /// The SLO alert tick: every partition's burn-rate buckets summed into
    /// partition 0's engine, evaluated once; each edge is logged and
    /// delivered to partition 0's sink and to the controller.
    fn alert(&mut self, controller: &mut dyn ControlPlane) {
        let now = self.now;
        self.ticks += 1;
        self.alerts.clear();
        if let [first, rest @ ..] = self.sims.as_mut_slice() {
            if let Some(engine) = first.slo() {
                for theirs in rest.iter_mut().filter_map(PartitionSim::slo) {
                    engine.absorb(theirs);
                }
                engine.evaluate(now, &mut self.alerts);
            }
        }
        for alert in &self.alerts {
            self.log.push(*alert);
            self.sinks[0].on_alert(now, alert);
            controller.on_alert(Cycles(now), alert);
        }
        self.next_alert = self.rearm(self.alert_interval);
    }

    /// The next tick one `interval` on, while some partition has work left:
    /// a periodic observer must not keep a finished run alive.
    fn rearm(&self, interval: Option<u64>) -> Option<u64> {
        let work_left = self.sims.iter().any(PartitionSim::work_left);
        interval.filter(|_| work_left).map(|width| self.now + width)
    }

    /// Rebuilds the arrival-ownership plan from every partition's current
    /// dispatchable replicas and installs it everywhere. A lone partition
    /// owns every arrival under any plan, so it keeps its empty one instead
    /// of scanning its replica table at every barrier.
    fn rebuild_plan(&mut self) {
        let partitions = self.sims.len();
        if partitions == 1 {
            return;
        }
        let mut weights: BTreeMap<ModelId, Vec<u64>> = BTreeMap::new();
        for partition in &self.sims {
            partition.accumulate_weights(&mut weights, partitions);
        }
        let plan = ShardPlan::new(partitions, &weights);
        for partition in &mut self.sims {
            partition.set_plan(plan.clone());
        }
    }

    /// The partitions, for tests that read a run's replica tables.
    #[cfg(test)]
    pub(crate) fn partitions(&self) -> &[PartitionSim<'t>] {
        &self.sims
    }

    /// Ends the run: merges the partitions' outcomes in index order, counts
    /// the ticks, and hands the fleet back to `cluster`.
    pub(crate) fn finish(self, cluster: &mut NpuCluster) -> ServingReport {
        let mut outcomes = self
            .sims
            .into_iter()
            .zip(self.sinks)
            .map(|(partition, sink)| partition.finish(sink));
        let mut merged: PartitionOutcome = outcomes.next().expect("at least one partition"); // simlint::allow(P1, reason = "every run has at least one sink, so at least one partition")
        for outcome in outcomes {
            merged.merge(outcome);
        }
        merged.control.samples += self.samples;
        merged.perf.events += self.ticks;
        *cluster = NpuCluster::absorb(self.clusters);
        merged.into_report(self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The weight walk the residue tables compile away, kept as their
    /// reference: sum the model's weights, then walk them to the partition
    /// holding the `sequence % total`-th replica.
    fn walk_owner(
        weights: &BTreeMap<ModelId, Vec<u64>>,
        partitions: usize,
        model: ModelId,
        sequence: u64,
    ) -> usize {
        let fallback = (sequence % partitions as u64) as usize;
        let Some(weights) = weights.get(&model) else {
            return fallback;
        };
        let total: u64 = weights.iter().sum();
        if total == 0 {
            return fallback;
        }
        let mut k = sequence % total;
        for (partition, &count) in weights.iter().enumerate() {
            if k < count {
                return partition;
            }
            k -= count;
        }
        partitions - 1
    }

    #[test]
    fn compiled_plan_matches_the_weight_walk() {
        let mut rng = StdRng::seed_from_u64(15);
        let (mut missing, mut all_zero, mut zero_partitions) = (0, 0, 0);
        for _ in 0..300 {
            let partitions = rng.gen_range(1..=9usize);
            let mut weights: BTreeMap<ModelId, Vec<u64>> = BTreeMap::new();
            for model in ModelId::all() {
                match rng.gen_range(0..4u32) {
                    0 => missing += 1,
                    1 => {
                        all_zero += 1;
                        weights.insert(model, vec![0; partitions]);
                    }
                    _ => {
                        let counts: Vec<u64> = (0..partitions)
                            .map(|_| {
                                if rng.gen_bool(0.3) {
                                    0
                                } else {
                                    rng.gen_range(1..=12u64)
                                }
                            })
                            .collect();
                        zero_partitions += counts.iter().filter(|&&count| count == 0).count();
                        weights.insert(model, counts);
                    }
                }
            }
            let plan = ShardPlan::new(partitions, &weights);
            let empty = ShardPlan::empty(partitions);
            for model in ModelId::all() {
                let sequences = (0..96).chain([u64::MAX - 1, u64::MAX, rng.next_u64()]);
                for sequence in sequences {
                    assert_eq!(
                        plan.owner(model, sequence),
                        walk_owner(&weights, partitions, model, sequence),
                        "{model:?} sequence {sequence} over {:?}",
                        weights.get(&model)
                    );
                    assert_eq!(
                        empty.owner(model, sequence),
                        walk_owner(&BTreeMap::new(), partitions, model, sequence)
                    );
                }
            }
        }
        assert!(
            missing > 0 && all_zero > 0 && zero_partitions > 0,
            "every fallback and zero-weight shape is exercised"
        );
    }

    #[test]
    fn the_cursor_stops_at_owned_arrivals_and_at_the_bound() {
        // Mnist alternates between partitions 0 and 1; Ncf lives on 1 only.
        let weights = BTreeMap::from([(ModelId::Mnist, vec![1, 1]), (ModelId::Ncf, vec![0, 2])]);
        let plan = ShardPlan::new(2, &weights);
        let arrivals: Vec<RequestArrival> = [
            (10, ModelId::Ncf),
            (20, ModelId::Ncf),
            (30, ModelId::Mnist),
            (40, ModelId::Mnist),
            (50, ModelId::Ncf),
        ]
        .iter()
        .enumerate()
        .map(|(sequence, &(at, model))| {
            let mut arrival = RequestArrival::new(Cycles(at), model);
            arrival.sequence = sequence as u64;
            arrival
        })
        .collect();
        let skip = |partition: usize, from: usize, bound: u128| {
            let mut cursor = from;
            plan.skip_unowned(partition, &arrivals, &mut cursor, bound);
            cursor
        };
        // Partition 0 owns only Mnist sequence 2 (odd sequences go to 1).
        assert_eq!(skip(0, 0, UNBOUNDED), 2);
        assert_eq!(skip(0, 3, UNBOUNDED), 5);
        // An unowned arrival at or past the bound stays for the next plan,
        // also at a tick of its own cycle: arrivals follow the tick.
        assert_eq!(skip(0, 3, cycle_bound(50)), 4);
        assert_eq!(skip(0, 3, tick_bound(50)), 4);
        assert_eq!(skip(0, 3, cycle_bound(40)), 3);
        // Partition 1 owns its first arrival: the cursor does not move.
        assert_eq!(skip(1, 0, UNBOUNDED), 0);
        // A lone partition owns everything and never skips.
        let mut cursor = 0;
        ShardPlan::empty(1).skip_unowned(0, &arrivals, &mut cursor, UNBOUNDED);
        assert_eq!(cursor, 0);
    }
}
