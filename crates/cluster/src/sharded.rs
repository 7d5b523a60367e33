//! The sharded serving runner: a conservative parallel-discrete-event
//! coordinator over per-board-group [`PartitionSim`]s.
//!
//! # Partitioning model
//!
//! The fleet's boards are divided into `partitions` contiguous board-groups
//! in node-id order. Each partition owns its boards' replicas, event heap,
//! router and accumulators, and processes the arrivals a deterministic
//! [`ShardPlan`] assigns to it. The only cross-partition edges are:
//!
//! * **migration transfers** — a replica moving to a board another partition
//!   owns travels as a [`MigrationEnvelope`], priced source-side and
//!   delivered at a barrier;
//! * **telemetry / control** — the control plane runs fleet-wide at barrier
//!   ticks over the merged frame, and its actions are routed back to the
//!   owning partition.
//!
//! # Lookahead and rounds
//!
//! Partitions advance in bounded-window rounds. The window bound is the
//! minimum of: the next telemetry tick, the next scheduled migration (plus
//! one cycle, so the triggering event itself runs), and — whenever any
//! cross-partition transfer is pending — `now + lookahead`, where the
//! lookahead is the interconnect setup latency from
//! [`npu_sim::interconnect`](npu_sim::InterconnectConfig): no cross-edge
//! effect can land sooner than one link setup. When none of these bound the
//! future, the final round runs unbounded to completion.
//!
//! # Determinism
//!
//! Same seed, trace and partition count ⇒ bit-identical merged
//! [`ServingReport`] at **every** thread count: partitions are stepped by an
//! ownership-transfer worker pool ([`crate::par`]) whose results are
//! re-sorted by partition index, barriers merge in partition-index order,
//! and no decision anywhere reads the wall clock. `partitions = 1` delegates
//! to the sequential loop, so single-partition sharded runs are bit-identical
//! to [`ClusterServingSim::run`] by construction.

use std::collections::BTreeMap;

use workloads::{ClusterTrace, ModelId, RequestArrival};

use crate::cluster::{NpuCluster, VnpuHandle};
use crate::fault::FaultSchedule;
use crate::obs::{NoopSink, ObsSink};
use crate::par::with_pool;
use crate::serving::{
    ClusterServingSim, MigrationEnvelope, PartitionOutcome, PartitionSim, ServingOptions,
    ServingReport, ShardContext,
};
use crate::telemetry::{ControlAction, ControlPlane, ModelSample, NoopControl, TelemetryFrame};
use crate::NodeId;
use npu_sim::Cycles;

/// How a sharded run is laid out: board-group partitions and worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// Board-group partitions. Clamped to `[1, node_count]`; clamped to 1
    /// when an SLO engine is configured (alert evaluation is fleet-global).
    /// The partition count — not the thread count — is what changes the
    /// merged report: each count is its own deterministic schedule.
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
/// deterministically. Rebuilt at every barrier, the plan tracks migrations,
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
    /// `partition` owns or that is at or past `bound`. Arrivals at or past
    /// the round bound stay unclassified, because the barrier at the bound
    /// may rebuild the plan that decides their owner.
    pub(crate) fn skip_unowned(
        &self,
        partition: usize,
        arrivals: &[RequestArrival],
        cursor: &mut usize,
        bound: u64,
    ) {
        while let Some(arrival) = arrivals.get(*cursor) {
            if arrival.at.get() >= bound || self.owner(arrival.model, arrival.sequence) == partition
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
struct ShardJob<'a, S> {
    sim: PartitionSim<'a>,
    cluster: NpuCluster,
    sink: S,
    bound: u64,
}

impl ClusterServingSim {
    /// [`ClusterServingSim::run`] over board-group partitions, optionally in
    /// parallel. Same seed and partition count ⇒ bit-identical report at any
    /// thread count; `partitions = 1` is bit-identical to the sequential run.
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
        drive(self, cluster, trace, shard, &mut NoopControl, &mut sinks)
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
        drive(self, cluster, trace, shard, &mut NoopControl, sinks)
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
        drive(self, cluster, trace, shard, controller, &mut sinks)
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
        drive(self, cluster, trace, shard, controller, sinks)
    }
}

/// The coordinator: clamps the layout, splits the fleet, drives bounded
/// rounds through the worker pool, reconciles at barriers, and merges the
/// per-partition outcomes in index order.
fn drive<S: ObsSink + Send + Default>(
    sim: &ClusterServingSim,
    cluster: &mut NpuCluster,
    trace: &ClusterTrace,
    shard: ShardOptions,
    controller: &mut dyn ControlPlane,
    sinks: &mut Vec<S>,
) -> ServingReport {
    let options = sim.options();
    let mut partitions = shard.partitions.clamp(1, cluster.node_count().max(1));
    // SLO burn-rate evaluation is fleet-global state inside the event loop;
    // partitioning it would change alert edges. Such runs stay sequential.
    if options.slo.is_some() {
        partitions = 1;
    }
    if partitions <= 1 {
        sinks.clear();
        sinks.resize_with(1, S::default);
        return sim.run_loop(cluster, trace, controller, &mut sinks[0]);
    }
    let threads = shard.threads.clamp(1, partitions);

    // Contiguous board-groups in node-id order: group boundaries (and with
    // them the whole schedule) depend only on the fleet and the partition
    // count.
    let mut node_ids: Vec<NodeId> = cluster.nodes().iter().map(|node| node.id()).collect();
    node_ids.sort_unstable();
    let group = node_ids.len().div_ceil(partitions);
    let owners: BTreeMap<NodeId, usize> = node_ids
        .iter()
        .enumerate()
        .map(|(i, &node)| (node, (i / group).min(partitions - 1)))
        .collect();
    let owner = |node: NodeId| owners.get(&node).copied().unwrap_or(0);

    // Lookahead: no cross-partition effect lands sooner than one
    // interconnect setup.
    let lookahead = options.cost_model.interconnect.setup_cycles.max(1);
    let interval = options.telemetry_interval;

    // Scheduled cross- or intra-partition migrations bound the window so the
    // triggering event always runs before the barrier that would deliver its
    // envelope.
    let mut migration_times: Vec<u64> = options
        .migrations
        .iter()
        .map(|migration| migration.at.get())
        .collect();
    migration_times.sort_unstable();
    migration_times.dedup();

    // Per-partition options: each partition keeps the scheduled migrations
    // and faults of the boards it owns. The seed is shared: every replica
    // draws from its own stream, so no partition index reaches a draw.
    let per_partition_options: Vec<ServingOptions> = (0..partitions)
        .map(|index| {
            let mut opts = options.clone();
            opts.migrations = options
                .migrations
                .iter()
                .filter(|migration| owners.get(&migration.handle.node) == Some(&index))
                .copied()
                .collect();
            opts.faults = options.faults.as_ref().map(|schedule| {
                schedule
                    .events()
                    .iter()
                    .filter(|event| owners.get(&event.kind.node()) == Some(&index))
                    .fold(FaultSchedule::new(), |acc, event| {
                        acc.with_fault(event.at, event.kind)
                    })
            });
            opts
        })
        .collect();

    let mut clusters: Vec<NpuCluster> = cluster.take().split(&owners, partitions);
    sinks.clear();
    sinks.resize_with(partitions, S::default);
    let arrivals = trace.arrivals();
    let mut sims: Vec<PartitionSim> = per_partition_options
        .into_iter()
        .zip(clusters.iter_mut())
        .enumerate()
        .map(|(index, (opts, part_cluster))| {
            let context = ShardContext {
                index,
                owners: owners.clone(),
                plan: ShardPlan::empty(partitions),
                exports: Vec::new(),
            };
            PartitionSim::new(opts, part_cluster, arrivals, Some(context))
        })
        .collect();
    rebuild_plan(&mut sims, partitions);

    let mut now: u64 = 0;
    let mut next_tick = interval;

    let run = |job: &mut ShardJob<S>| {
        // Workers never invoke the control plane: telemetry events are not
        // armed partition-side, so the controller only runs at barriers, on
        // the coordinator thread.
        job.sim
            .step_until(job.bound, &mut job.cluster, &mut NoopControl, &mut job.sink);
    };
    with_pool(threads, &run, |execute| {
        while sims.iter().any(PartitionSim::busy) {
            let pending_remote = sims.iter().any(PartitionSim::pending_remote);
            let mut bound = u64::MAX;
            if let Some(tick) = next_tick {
                bound = bound.min(tick);
            }
            if pending_remote {
                bound = bound.min(now.saturating_add(lookahead));
            }
            if let Some(&at) = migration_times.iter().find(|&&at| at >= now) {
                bound = bound.min(at.saturating_add(1));
            }

            // The round: every partition advances to the bound, in parallel.
            let jobs: Vec<(usize, ShardJob<S>)> = sims
                .drain(..)
                .zip(clusters.drain(..))
                .zip(sinks.drain(..))
                .enumerate()
                .map(|(index, ((sim, part_cluster), sink))| {
                    (
                        index,
                        ShardJob {
                            sim,
                            cluster: part_cluster,
                            sink,
                            bound,
                        },
                    )
                })
                .collect();
            for (_, job) in execute(jobs) {
                sims.push(job.sim);
                clusters.push(job.cluster);
                sinks.push(job.sink);
            }

            if bound == u64::MAX {
                // Final unbounded round: nothing bounded the future, so no
                // new cross-partition work can have appeared (scheduled
                // migrations are all in the past and no controller tick is
                // pending). The busy() re-check ends the loop.
                continue;
            }
            now = bound;

            // Barrier, phase 1: deliver cross-partition migrations, in
            // partition-index order then export order. A refused import
            // bounces home once; a second refusal abandons the replica with
            // every queued request attributed.
            for index in 0..partitions {
                let envelopes = sims[index].take_exports();
                for envelope in envelopes {
                    deliver(&mut sims, &mut clusters, sinks, owner, envelope, now);
                }
            }

            // Barrier, phase 2: the telemetry tick — failover sweeps and
            // frame sampling per partition, then the control plane over the
            // merged fleet view, its actions routed back to the owners.
            if next_tick == Some(now) {
                if let Some(width) = interval {
                    next_tick = Some(now + width);
                }
                for index in 0..partitions {
                    sims[index].telemetry_tick(&mut clusters[index], now, &mut sinks[index]);
                }
                sims[0].count_sample();
                let frame = merge_frames(&sims, now);
                // The control plane sees the whole fleet, so the partitions'
                // clusters are absorbed back into one; scale-ups place
                // against fleet-wide capacity, then everything re-splits.
                // Placed scale-ups reach their owners first, then refusals
                // (counted on partition 0), then the routed actions.
                let mut fleet = NpuCluster::absorb(std::mem::take(&mut clusters));
                let mut placed: Vec<(usize, ControlAction, Option<VnpuHandle>)> = Vec::new();
                let mut refused = Vec::new();
                let mut routed: Vec<(usize, ControlAction)> = Vec::new();
                for action in controller.control(&frame, &fleet) {
                    match action {
                        ControlAction::ScaleUp { spec, placement } => {
                            match fleet.deploy(spec, placement) {
                                Ok(handle) => {
                                    placed.push((owner(handle.node), action, Some(handle)))
                                }
                                Err(_) => refused.push((0, action, None)),
                            }
                        }
                        ControlAction::ScaleDown { handle }
                        | ControlAction::Migrate { handle, .. } => {
                            routed.push((owner(handle.node), action))
                        }
                    }
                }
                clusters = fleet.split(&owners, partitions);
                for (index, action, deployed) in placed.into_iter().chain(refused) {
                    sinks[index].on_control(now, &action);
                    sims[index].scale_up(&clusters[index], deployed, now);
                }
                for (index, action) in routed {
                    sims[index].apply_action(&mut clusters[index], action, now, &mut sinks[index]);
                }
            }

            // Barrier, phase 3: refresh the arrival-ownership plan from the
            // post-reconciliation replica placement.
            rebuild_plan(&mut sims, partitions);
        }
    });

    let mut outcomes = sims
        .into_iter()
        .zip(sinks.iter_mut())
        .map(|(partition, sink)| partition.finish(sink));
    let mut merged: PartitionOutcome = outcomes.next().expect("at least one partition"); // simlint::allow(P1, reason = "partitions is clamped to at least 1 above")
    for outcome in outcomes {
        merged.merge(outcome);
    }
    *cluster = NpuCluster::absorb(clusters);
    merged.into_report()
}

/// Delivers one envelope to the partition owning its destination board,
/// bouncing it back to its source partition on a refused import and
/// abandoning it (with full loss attribution) if the bounce is refused too.
fn deliver<S: ObsSink>(
    sims: &mut [PartitionSim],
    clusters: &mut [NpuCluster],
    sinks: &mut [S],
    owner: impl Fn(NodeId) -> usize,
    envelope: MigrationEnvelope,
    now: u64,
) {
    let target = owner(envelope.to_node);
    let Err(mut envelope) =
        sims[target].import_replica(&mut clusters[target], envelope, now, &mut sinks[target])
    else {
        return;
    };
    sims[target].reject_migration(now, envelope.from_slot, &mut sinks[target]);
    let source = owner(envelope.from_node);
    if envelope.bounced {
        sims[source].abandon_envelope(*envelope, now, &mut sinks[source]);
        return;
    }
    envelope.bounced = true;
    envelope.to_node = envelope.from_node;
    if let Err(envelope) =
        sims[source].import_replica(&mut clusters[source], *envelope, now, &mut sinks[source])
    {
        sims[source].abandon_envelope(*envelope, now, &mut sinks[source]);
    }
}

/// Rebuilds the arrival-ownership plan from every partition's current
/// dispatchable replicas and installs it everywhere.
fn rebuild_plan(sims: &mut [PartitionSim], partitions: usize) {
    let mut weights: BTreeMap<ModelId, Vec<u64>> = BTreeMap::new();
    for partition in sims.iter() {
        partition.accumulate_weights(&mut weights, partitions);
    }
    let plan = ShardPlan::new(partitions, &weights);
    for partition in sims.iter_mut() {
        partition.set_plan(plan.clone());
    }
}

/// Merges the partitions' telemetry frames into one fleet view for the
/// control plane, in partition-index order. Every model field is a count
/// (replicas, queue depths, deadline tallies), so the merge is an exact sum.
fn merge_frames(sims: &[PartitionSim], now: u64) -> TelemetryFrame {
    let mut frame = TelemetryFrame {
        at: Cycles(now),
        replicas: Vec::new(),
        models: BTreeMap::new(),
    };
    for partition in sims {
        let part = partition.frame();
        frame.replicas.extend(part.replicas.iter().copied());
        for (model, sample) in &part.models {
            let entry = frame
                .models
                .entry(*model)
                .or_insert_with(|| ModelSample::empty(*model));
            entry.replicas += sample.replicas;
            entry.queued += sample.queued;
            entry.in_flight += sample.in_flight;
            entry.deadline.merge(&sample.deadline);
        }
    }
    frame
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
        let skip = |partition: usize, from: usize, bound: u64| {
            let mut cursor = from;
            plan.skip_unowned(partition, &arrivals, &mut cursor, bound);
            cursor
        };
        // Partition 0 owns only Mnist sequence 2 (odd sequences go to 1).
        assert_eq!(skip(0, 0, u64::MAX), 2);
        assert_eq!(skip(0, 3, u64::MAX), 5);
        // An unowned arrival at or past the bound stays for the next plan.
        assert_eq!(skip(0, 3, 50), 4);
        assert_eq!(skip(0, 3, 40), 3);
        // Partition 1 owns its first arrival: the cursor does not move.
        assert_eq!(skip(1, 0, u64::MAX), 0);
    }
}
