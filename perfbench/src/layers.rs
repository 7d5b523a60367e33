//! Layer attribution from outside the library.
//!
//! The serving loop is clock-free; these wrappers sit on the public
//! [`ObsSink`] and [`ControlPlane`] seams and read the host clock around the
//! calls they forward. Every hook and `active()` is forwarded unchanged, so a
//! wrapped run simulates exactly what the unwrapped run does.

use std::time::Duration;

use cluster::{
    AlertTransition, ControlAction, ControlPlane, FaultEvent, FleetCounters, MigrationRecord,
    NodeId, NpuCluster, ObsSink, RejectReason, TelemetryFrame, TraceRecorder,
};
use npu_sim::Cycles;
use workloads::{ModelId, PriorityClass};

/// The benchmark's only wall clock.
// simlint::allow(D2, reason = "the benchmark times library calls from outside; the library stays clock-free")
pub type Clock = std::time::Instant;

/// Hook kinds of [`ObsSink`], counted in declaration order: arrival,
/// dispatch, reject, service request, service batch, complete, expire, copy
/// round, stop-and-copy, migration rejected, control, tick, alert, fault,
/// failover, replica restored, lost.
const HOOK_KINDS: usize = 17;
const ARRIVAL: usize = 0;
const DISPATCH: usize = 1;
const REJECT: usize = 2;

/// A forwarding sink that counts every hook, times the wrapped recorder's
/// hooks (the obs layer) and times each arrival from `on_arrival` to its
/// `on_dispatch`/`on_reject` (the router layer, recorder time excluded).
#[derive(Default)]
pub struct LayerSink {
    recorder: Option<TraceRecorder>,
    /// Calls per hook kind, in declaration order.
    pub hooks: [u64; HOOK_KINDS],
    /// Host time inside the wrapped recorder's hooks.
    pub obs: Duration,
    /// Host time from arrival to dispatch decision, summed over arrivals.
    pub router: Duration,
    /// Per-arrival router time, in nanoseconds.
    pub router_ns: Vec<u32>,
    pending: Option<Clock>,
}

impl LayerSink {
    /// A sink forwarding to `recorder`.
    pub fn wrapping(recorder: TraceRecorder) -> Self {
        LayerSink {
            recorder: Some(recorder),
            ..LayerSink::default()
        }
    }

    /// The wrapped recorder, if any.
    pub fn recorder(&self) -> Option<&TraceRecorder> {
        self.recorder.as_ref()
    }

    /// Hook calls of every kind.
    pub fn hook_calls(&self) -> u64 {
        self.hooks.iter().sum()
    }

    /// Arrivals this sink saw (a partition's owned arrivals).
    pub fn arrivals(&self) -> u64 {
        self.hooks[ARRIVAL]
    }

    /// Arrivals the router dispatched.
    pub fn dispatched(&self) -> u64 {
        self.hooks[DISPATCH]
    }

    /// Arrivals the router turned away.
    pub fn rejected(&self) -> u64 {
        self.hooks[REJECT]
    }

    fn forward(&mut self, kind: usize, call: impl FnOnce(&mut TraceRecorder)) {
        self.hooks[kind] += 1;
        if let Some(recorder) = &mut self.recorder {
            let start = Clock::now();
            call(recorder);
            self.obs += start.elapsed();
        }
    }

    fn end_arrival(&mut self) {
        if let Some(start) = self.pending.take() {
            let spent = start.elapsed();
            self.router += spent;
            self.router_ns
                .push(u32::try_from(spent.as_nanos()).unwrap_or(u32::MAX));
        }
    }
}

impl ObsSink for LayerSink {
    fn active(&self) -> bool {
        self.recorder.as_ref().is_some_and(|r| r.active())
    }

    fn on_arrival(&mut self, now: u64, sequence: u64, model: ModelId) {
        self.forward(ARRIVAL, |r| r.on_arrival(now, sequence, model));
        self.pending = Some(Clock::now());
    }

    fn on_dispatch(&mut self, now: u64, sequence: u64, model: ModelId, node: NodeId, slot: usize) {
        self.end_arrival();
        self.forward(DISPATCH, |r| {
            r.on_dispatch(now, sequence, model, node, slot)
        });
    }

    fn on_reject(&mut self, now: u64, sequence: u64, model: ModelId, reason: RejectReason) {
        self.end_arrival();
        self.forward(REJECT, |r| r.on_reject(now, sequence, model, reason));
    }

    fn on_service_request(
        &mut self,
        start: u64,
        sequence: u64,
        model: ModelId,
        arrived: u64,
        node: NodeId,
        slot: usize,
    ) {
        self.forward(3, |r| {
            r.on_service_request(start, sequence, model, arrived, node, slot)
        });
    }

    fn on_service_batch(
        &mut self,
        start: u64,
        finish: u64,
        model: ModelId,
        node: NodeId,
        slot: usize,
        batch: usize,
    ) {
        self.forward(4, |r| {
            r.on_service_batch(start, finish, model, node, slot, batch)
        });
    }

    fn on_complete(
        &mut self,
        now: u64,
        sequence: u64,
        model: ModelId,
        priority: PriorityClass,
        arrived: u64,
        node: NodeId,
        slot: usize,
        deadline_met: Option<bool>,
    ) {
        self.forward(5, |r| {
            r.on_complete(
                now,
                sequence,
                model,
                priority,
                arrived,
                node,
                slot,
                deadline_met,
            )
        });
    }

    fn on_expire(
        &mut self,
        now: u64,
        sequence: u64,
        model: ModelId,
        arrived: u64,
        node: NodeId,
        slot: usize,
    ) {
        self.forward(6, |r| {
            r.on_expire(now, sequence, model, arrived, node, slot)
        });
    }

    fn on_copy_round(
        &mut self,
        start: u64,
        finish: u64,
        from: NodeId,
        to: NodeId,
        slot: usize,
        round: u32,
        bytes: u64,
    ) {
        self.forward(7, |r| {
            r.on_copy_round(start, finish, from, to, slot, round, bytes)
        });
    }

    fn on_stop_copy(&mut self, start: u64, finish: u64, slot: usize, record: &MigrationRecord) {
        self.forward(8, |r| r.on_stop_copy(start, finish, slot, record));
    }

    fn on_migration_rejected(&mut self, now: u64, slot: usize) {
        self.forward(9, |r| r.on_migration_rejected(now, slot));
    }

    fn on_control(&mut self, now: u64, action: &ControlAction) {
        self.forward(10, |r| r.on_control(now, action));
    }

    fn on_tick(&mut self, now: u64, frame: &TelemetryFrame, counters: &FleetCounters) {
        self.forward(11, |r| r.on_tick(now, frame, counters));
    }

    fn on_alert(&mut self, now: u64, alert: &AlertTransition) {
        self.forward(12, |r| r.on_alert(now, alert));
    }

    fn on_fault(&mut self, now: u64, fault: &FaultEvent) {
        self.forward(13, |r| r.on_fault(now, fault));
    }

    fn on_failover(
        &mut self,
        now: u64,
        node: NodeId,
        replicas_failed: u64,
        redispatched: u64,
        detect_cycles: u64,
    ) {
        self.forward(14, |r| {
            r.on_failover(now, node, replicas_failed, redispatched, detect_cycles)
        });
    }

    fn on_replica_restored(&mut self, now: u64, node: NodeId, slot: usize, restore_cycles: u64) {
        self.forward(15, |r| {
            r.on_replica_restored(now, node, slot, restore_cycles)
        });
    }

    fn on_lost(&mut self, now: u64, sequence: u64, model: ModelId, node: NodeId) {
        self.forward(16, |r| r.on_lost(now, sequence, model, node));
    }
}

/// A forwarding control plane that times `control` (the autopilot layer)
/// and counts its ticks and actions.
pub struct TimedControl<'a> {
    inner: &'a mut dyn ControlPlane,
    /// Host time inside the wrapped `control`.
    pub spent: Duration,
    /// `control` calls.
    pub ticks: u64,
    /// Actions returned.
    pub actions: u64,
}

impl<'a> TimedControl<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn ControlPlane) -> Self {
        TimedControl {
            inner,
            spent: Duration::ZERO,
            ticks: 0,
            actions: 0,
        }
    }
}

impl ControlPlane for TimedControl<'_> {
    fn control(&mut self, frame: &TelemetryFrame, cluster: &NpuCluster) -> Vec<ControlAction> {
        let start = Clock::now();
        let actions = self.inner.control(frame, cluster);
        self.spent += start.elapsed();
        self.ticks += 1;
        self.actions += actions.len() as u64;
        actions
    }

    fn on_alert(&mut self, now: Cycles, alert: &AlertTransition) {
        self.inner.on_alert(now, alert);
    }
}

/// The nearest-rank `q`-quantile of `samples` (reordered in place); 0 when
/// empty.
pub fn quantile(samples: &mut [u32], q: f64) -> u32 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(rank).1
}
