//! SLO burn-rate alerting: declarative latency objectives evaluated by a
//! multi-window, multi-burn-rate alert engine at the serving run's alert
//! ticks.
//!
//! A [`SloSpec`] states the contract of one model (optionally narrowed to one
//! [`PriorityClass`]): requests should complete within `latency_target`
//! cycles, and the fraction that does should stay at or above `objective`.
//! The complement `1 − objective` is the **error budget**; the **burn rate**
//! of a window is how many times faster than budget the window is spending:
//!
//! ```text
//! burn(window) = bad_fraction(window) / (1 − objective)
//! ```
//!
//! A [`BurnRatePolicy`] pairs a *fast* and a *slow* window (the standard
//! multi-window construction from SRE practice): the alert fires only when
//! **both** windows burn above the threshold — the slow window proves the
//! problem is sustained, the fast window proves it is still happening — and
//! resolves as soon as the fast window recovers, so a long-dead incident
//! cannot keep paging off stale slow-window history. Policies carry a
//! severity: [`AlertSeverity::Page`] for fast, steep burns that exhaust the
//! budget in hours, [`AlertSeverity::Ticket`] for slow leaks.
//!
//! The [`SloEngine`] buckets good/bad counts into fixed-width cycle-aligned
//! ticks held in a bounded ring (memory is O(specs × ring), independent of
//! arrival count). Each partition of a run feeds its own engine, and every
//! alert tick sums the partitions' buckets into one engine and evaluates it
//! once, at any partition count. Every fire/resolve transition is recorded
//! into the run's [`AlertLog`] and delivered through
//! [`ObsSink::on_alert`](crate::obs::ObsSink::on_alert) and
//! [`ControlPlane::on_alert`](crate::telemetry::ControlPlane::on_alert) —
//! the hook the autopilot uses for alert-driven scaling. Everything is
//! integer-count based and deterministic: the same seed produces a
//! byte-identical [`AlertLog::render_text`].

use std::fmt::Write as _;

use npu_sim::Cycles;
use workloads::{ModelId, PriorityClass};

/// How loudly a burn-rate breach should be surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertSeverity {
    /// Wake a human: the error budget is burning fast enough to exhaust in
    /// hours.
    Page,
    /// File a ticket: a slow leak that will exhaust the budget in days.
    Ticket,
}

impl AlertSeverity {
    /// Short stable label used in rendered logs and exports.
    pub fn label(self) -> &'static str {
        match self {
            AlertSeverity::Page => "page",
            AlertSeverity::Ticket => "ticket",
        }
    }
}

/// A fire or resolve edge of one (spec, policy) alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Both windows crossed the burn threshold; the alert became active.
    Fired,
    /// The fast window recovered; the alert became inactive.
    Resolved,
}

impl AlertKind {
    /// Short stable label used in rendered logs and exports.
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::Fired => "fire",
            AlertKind::Resolved => "resolve",
        }
    }
}

/// The latency contract of one model (optionally one priority class).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// The model the objective governs.
    pub model: ModelId,
    /// Narrow the objective to one priority class; `None` covers every
    /// request of the model.
    pub priority: Option<PriorityClass>,
    /// A request is *good* iff it completes within this many cycles of its
    /// arrival. Requests dropped on deadline expiry are always *bad*.
    pub latency_target: Cycles,
    /// The required good fraction over the rolling horizon, in `[0, 1)` —
    /// e.g. `0.99` leaves a 1% error budget.
    pub objective: f64,
}

impl SloSpec {
    /// An objective over every request of `model`.
    pub fn new(model: ModelId, latency_target: Cycles, objective: f64) -> Self {
        SloSpec {
            model,
            priority: None,
            latency_target,
            objective: if objective.is_finite() {
                objective.clamp(0.0, 0.999_999)
            } else {
                0.0
            },
        }
    }

    /// Narrows the objective to one priority class.
    pub fn with_priority(mut self, priority: PriorityClass) -> Self {
        self.priority = Some(priority);
        self
    }

    /// The error budget `1 − objective` (never zero: the objective is
    /// clamped below 1).
    pub fn error_budget(&self) -> f64 {
        (1.0 - self.objective).max(1e-9)
    }

    /// Whether a completion of (`model`, `priority`) falls under this spec.
    fn covers(&self, model: ModelId, priority: PriorityClass) -> bool {
        self.model == model && self.priority.is_none_or(|p| p == priority)
    }
}

/// One multi-window burn-rate alert rule.
///
/// Fires when **both** the fast and the slow window burn above `threshold`;
/// resolves when the fast window alone drops back to the threshold or below.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRatePolicy {
    /// Stable policy name, carried on every transition.
    pub name: &'static str,
    /// How loudly a breach surfaces.
    pub severity: AlertSeverity,
    /// The short "is it still happening" window, in cycles (rounded up to
    /// whole engine ticks).
    pub fast_window: u64,
    /// The long "is it sustained" window, in cycles (rounded up to whole
    /// engine ticks).
    pub slow_window: u64,
    /// Fire when both windows burn error budget at more than this multiple
    /// of the sustainable rate.
    pub threshold: f64,
}

impl BurnRatePolicy {
    /// A named policy; `slow_window` is clamped to at least `fast_window`.
    pub fn new(
        name: &'static str,
        severity: AlertSeverity,
        fast_window: u64,
        slow_window: u64,
        threshold: f64,
    ) -> Self {
        BurnRatePolicy {
            name,
            severity,
            fast_window: fast_window.max(1),
            slow_window: slow_window.max(fast_window.max(1)),
            threshold: if threshold.is_finite() {
                threshold.max(0.0)
            } else {
                0.0
            },
        }
    }

    /// A paging policy: steep burn over a short pair of windows.
    pub fn page(fast_window: u64, slow_window: u64, threshold: f64) -> Self {
        BurnRatePolicy::new(
            "page",
            AlertSeverity::Page,
            fast_window,
            slow_window,
            threshold,
        )
    }

    /// A ticketing policy: shallow burn over a long pair of windows.
    pub fn ticket(fast_window: u64, slow_window: u64, threshold: f64) -> Self {
        BurnRatePolicy::new(
            "ticket",
            AlertSeverity::Ticket,
            fast_window,
            slow_window,
            threshold,
        )
    }
}

/// The SLO-alerting configuration of one serving run: the evaluation tick,
/// the objectives and the burn-rate rules applied to each of them.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Bucket width and evaluation cadence, in cycles.
    pub tick: u64,
    /// The objectives under watch.
    pub specs: Vec<SloSpec>,
    /// The burn-rate rules evaluated against every spec.
    pub policies: Vec<BurnRatePolicy>,
    /// Whether a resolve edge requires the fast window to have seen traffic
    /// (see [`SloConfig::with_resolve_requires_evidence`]). Off by default:
    /// the golden scenarios predate the rule.
    pub resolve_requires_evidence: bool,
}

impl SloConfig {
    /// A configuration evaluating every `tick` cycles, with no specs or
    /// policies yet.
    pub fn new(tick: u64) -> Self {
        SloConfig {
            tick: tick.max(1),
            specs: Vec::new(),
            policies: Vec::new(),
            resolve_requires_evidence: false,
        }
    }

    /// Requires *evidence* of recovery before resolving: an active alert
    /// holds (instead of resolving) while the fast window sees no traffic
    /// at all — a telemetry dropout or a fenced fleet proves nothing about
    /// the objective, and a resolve/re-fire flap on missing frames would
    /// page twice for one incident. Opt-in because the golden alert-log
    /// scenarios predate the rule.
    pub fn with_resolve_requires_evidence(mut self) -> Self {
        self.resolve_requires_evidence = true;
        self
    }

    /// Adds one objective.
    pub fn with_spec(mut self, spec: SloSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds one burn-rate rule.
    pub fn with_policy(mut self, policy: BurnRatePolicy) -> Self {
        self.policies.push(policy);
        self
    }

    /// Adds the standard two-rule ladder scaled to the tick: a `page` at
    /// 10× burn over (4, 24) ticks and a `ticket` at 2× burn over
    /// (24, 96) ticks — the classic fast/slow multi-window pairing.
    pub fn with_default_policies(self) -> Self {
        let tick = self.tick;
        self.with_policy(BurnRatePolicy::page(4 * tick, 24 * tick, 10.0))
            .with_policy(BurnRatePolicy::ticket(24 * tick, 96 * tick, 2.0))
    }
}

/// One fire/resolve edge, as recorded in the [`AlertLog`] and delivered to
/// the observability and control-plane hooks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertTransition {
    /// The evaluation tick that produced the edge.
    pub at: Cycles,
    /// The model of the breached (or recovered) objective.
    pub model: ModelId,
    /// The objective's priority narrowing, if any.
    pub priority: Option<PriorityClass>,
    /// The firing policy's severity.
    pub severity: AlertSeverity,
    /// The firing policy's name.
    pub policy: &'static str,
    /// Fire or resolve.
    pub kind: AlertKind,
    /// Burn rate of the fast window at the evaluation.
    pub burn_fast: f64,
    /// Burn rate of the slow window at the evaluation.
    pub burn_slow: f64,
}

/// The deterministic, time-ordered record of every alert edge of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlertLog {
    transitions: Vec<AlertTransition>,
}

impl AlertLog {
    /// Appends one edge (the serving loop calls this in evaluation order).
    pub(crate) fn push(&mut self, transition: AlertTransition) {
        self.transitions.push(transition);
    }

    /// Every recorded edge, in evaluation order.
    pub fn transitions(&self) -> &[AlertTransition] {
        &self.transitions
    }

    /// Edges recorded.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Whether no alert ever fired or resolved.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Fire edges recorded.
    pub fn fired(&self) -> usize {
        self.transitions
            .iter()
            .filter(|t| t.kind == AlertKind::Fired)
            .count()
    }

    /// Resolve edges recorded.
    pub fn resolved(&self) -> usize {
        self.transitions
            .iter()
            .filter(|t| t.kind == AlertKind::Resolved)
            .count()
    }

    /// The first fire at or after `at`, if any — the detection event a
    /// ground-truth breach is scored against.
    pub fn first_fire_after(&self, at: Cycles) -> Option<&AlertTransition> {
        self.transitions
            .iter()
            .find(|t| t.kind == AlertKind::Fired && t.at >= at)
    }

    /// Renders the log as one line per edge, deterministic byte for byte:
    ///
    /// ```text
    /// fire t=24576 model=MNIST priority=interactive policy=page severity=page burn_fast=14.500 burn_slow=11.250
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for t in &self.transitions {
            let _ = write!(
                out,
                "{} t={} model={} priority={} policy={} severity={} ",
                t.kind.label(),
                t.at.get(),
                t.model.name(),
                t.priority.map_or("any", PriorityClass::label),
                t.policy,
                t.severity.label(),
            );
            let _ = writeln!(
                out,
                "burn_fast={:.3} burn_slow={:.3}",
                finite(t.burn_fast),
                finite(t.burn_slow)
            );
        }
        out
    }
}

/// Degrades non-finite burns to 0 so the rendered log stays parseable.
fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// One tick-wide good/bad bucket of one spec's ring.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Tick index (`at / tick`); `u64::MAX` marks a never-written cell.
    index: u64,
    good: u64,
    bad: u64,
}

const EMPTY_BUCKET: Bucket = Bucket {
    index: u64::MAX,
    good: 0,
    bad: 0,
};

/// The burn-rate alert engine: per-spec bucket rings plus per-(spec, policy)
/// active flags.
///
/// Built by the serving loop from [`SloConfig`]
/// (see [`ServingOptions::with_slo`](crate::ServingOptions::with_slo));
/// drive it directly only in tests and offline analysis.
#[derive(Debug, Clone)]
pub struct SloEngine {
    tick: u64,
    specs: Vec<SloSpec>,
    policies: Vec<BurnRatePolicy>,
    /// Window lengths in ticks, per policy: `(fast, slow)`.
    window_ticks: Vec<(u64, u64)>,
    /// One bucket ring per spec, each `ring_len` cells.
    rings: Vec<Vec<Bucket>>,
    ring_len: u64,
    /// The longest window of any policy, in ticks: how far back an
    /// evaluation walks each ring.
    deepest: u64,
    /// Evaluation scratch: `sums[k]` holds one spec's good and bad counts
    /// over its `k` newest complete buckets.
    sums: Vec<(u64, u64)>,
    /// Active flags, indexed `spec * policies.len() + policy`.
    active: Vec<bool>,
    /// Whether resolve edges require the fast window to have seen traffic.
    resolve_requires_evidence: bool,
    evaluations: u64,
}

impl SloEngine {
    /// An engine over `config`'s specs and policies with empty history.
    pub fn new(config: &SloConfig) -> Self {
        let tick = config.tick.max(1);
        let window_ticks: Vec<(u64, u64)> = config
            .policies
            .iter()
            .map(|p| {
                (
                    p.fast_window.div_ceil(tick).max(1),
                    p.slow_window.div_ceil(tick).max(1),
                )
            })
            .collect();
        // The ring must hold the longest slow window; +1 because the bucket
        // currently filling is not yet part of any evaluated window.
        let ring_len = window_ticks
            .iter()
            .map(|(_, slow)| *slow)
            .max()
            .unwrap_or(1)
            + 1;
        let deepest = window_ticks
            .iter()
            .map(|&(fast, slow)| fast.max(slow))
            .max()
            .unwrap_or(0);
        SloEngine {
            tick,
            specs: config.specs.clone(),
            policies: config.policies.clone(),
            window_ticks,
            rings: vec![vec![EMPTY_BUCKET; ring_len as usize]; config.specs.len()],
            ring_len,
            deepest,
            sums: Vec::with_capacity(deepest as usize + 1),
            active: vec![false; config.specs.len() * config.policies.len()],
            resolve_requires_evidence: config.resolve_requires_evidence,
            evaluations: 0,
        }
    }

    /// Bucket width and evaluation cadence, in cycles.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Whether any (spec, policy) alert is currently active.
    pub fn any_active(&self) -> bool {
        self.active.iter().any(|a| *a)
    }

    /// Records one completion: *good* for every covering spec whose latency
    /// target it met, *bad* for the rest.
    pub fn observe_latency(
        &mut self,
        at: u64,
        model: ModelId,
        priority: PriorityClass,
        latency: u64,
    ) {
        let bucket = at / self.tick;
        for (spec_index, spec) in self.specs.iter().enumerate() {
            if spec.covers(model, priority) {
                let good = latency <= spec.latency_target.get();
                bump(&mut self.rings[spec_index], self.ring_len, bucket, good);
            }
        }
    }

    /// Records one request that will never complete, dropped past its
    /// deadline or lost: *bad* for every covering spec (a request that never
    /// completed can meet no latency target).
    pub fn observe_expired(&mut self, at: u64, model: ModelId, priority: PriorityClass) {
        let bucket = at / self.tick;
        for (spec_index, spec) in self.specs.iter().enumerate() {
            if spec.covers(model, priority) {
                bump(&mut self.rings[spec_index], self.ring_len, bucket, false);
            }
        }
    }

    /// Moves `other`'s bucket counts into this engine, leaving `other`'s
    /// rings empty: the alert tick sums every partition's buckets into the
    /// engine it evaluates. Both engines come from one [`SloConfig`]. Counts
    /// of the same bucket add up; a newer bucket replaces an older one in
    /// its ring cell, as [`observe_latency`](Self::observe_latency) would.
    /// A replaced bucket is at least a ring older than the newest, so it
    /// lies outside every window still to be evaluated, and the sum over
    /// each evaluated window is exact.
    pub(crate) fn absorb(&mut self, other: &mut SloEngine) {
        for (ring, theirs) in self.rings.iter_mut().zip(&mut other.rings) {
            for (cell, their) in ring.iter_mut().zip(theirs.iter_mut()) {
                let their = std::mem::replace(their, EMPTY_BUCKET);
                if their.index == EMPTY_BUCKET.index {
                    continue;
                }
                if cell.index == their.index {
                    cell.good += their.good;
                    cell.bad += their.bad;
                } else if cell.index == EMPTY_BUCKET.index || cell.index < their.index {
                    *cell = their;
                }
            }
        }
    }

    /// Evaluates every (spec, policy) pair at tick boundary `now`, appending
    /// fire/resolve edges to `out` in (spec, policy) declaration order.
    ///
    /// One pass per spec: the walk starts at the newest complete bucket and
    /// runs back to the deepest window, keeping running good and bad sums,
    /// and each policy reads its fast and slow windows off those sums. The
    /// sums are the integers a separate walk per window would add up, so
    /// every burn rate is exactly that walk's.
    pub fn evaluate(&mut self, now: u64, out: &mut Vec<AlertTransition>) {
        self.evaluations += 1;
        // The evaluated history ends at the last *complete* bucket: the
        // bucket containing `now` is still filling. No window reaches back
        // past bucket 0.
        let next_bucket = now / self.tick;
        let depth = next_bucket.min(self.deepest);
        for (spec_index, spec) in self.specs.iter().enumerate() {
            running_sums(&self.rings[spec_index], next_bucket, depth, &mut self.sums);
            for (policy_index, policy) in self.policies.iter().enumerate() {
                let (fast_ticks, slow_ticks) = self.window_ticks[policy_index];
                let (burn_fast, fast_total) = burn(self.sums[fast_ticks.min(depth) as usize], spec);
                let (burn_slow, _) = burn(self.sums[slow_ticks.min(depth) as usize], spec);
                let flag = &mut self.active[spec_index * self.policies.len() + policy_index];
                let breached = burn_fast > policy.threshold && burn_slow > policy.threshold;
                // With `resolve_requires_evidence`, resolving demands proof
                // of recovery: a fast window that saw no traffic at all
                // (telemetry dropout, fenced fleet) proves nothing, so an
                // active alert holds rather than false-resolving on missing
                // frames.
                let resolvable = fast_total > 0 || !self.resolve_requires_evidence;
                let kind = if !*flag && breached {
                    *flag = true;
                    AlertKind::Fired
                } else if *flag && resolvable && burn_fast <= policy.threshold {
                    *flag = false;
                    AlertKind::Resolved
                } else {
                    continue;
                };
                out.push(AlertTransition {
                    at: Cycles(now),
                    model: spec.model,
                    priority: spec.priority,
                    severity: policy.severity,
                    policy: policy.name,
                    kind,
                    burn_fast,
                    burn_slow,
                });
            }
        }
    }
}

/// Adds one observation to the bucket `index` of `ring`, evicting whatever
/// older bucket occupied the slot.
fn bump(ring: &mut [Bucket], ring_len: u64, index: u64, good: bool) {
    let cell = &mut ring[(index % ring_len) as usize];
    if cell.index != index {
        *cell = Bucket {
            index,
            good: 0,
            bad: 0,
        };
    }
    if good {
        cell.good += 1;
    } else {
        cell.bad += 1;
    }
}

/// Fills `sums` so that `sums[k]` holds the good and bad counts of the `k`
/// complete buckets just before `next_bucket`, for every `k` up to `depth`.
/// The cell steps back one place per bucket, wrapping at the ring's start,
/// and a cell counts only while it still holds the bucket the step expects,
/// so a never-written or overwritten cell adds nothing.
fn running_sums(ring: &[Bucket], next_bucket: u64, depth: u64, sums: &mut Vec<(u64, u64)>) {
    sums.clear();
    sums.push((0, 0));
    let (mut good, mut bad) = (0, 0);
    let mut cell = (next_bucket.saturating_sub(1) % ring.len() as u64) as usize;
    for index in (next_bucket - depth..next_bucket).rev() {
        let bucket = &ring[cell];
        if bucket.index == index {
            good += bucket.good;
            bad += bucket.bad;
        }
        sums.push((good, bad));
        cell = cell.checked_sub(1).unwrap_or(ring.len() - 1);
    }
}

/// The burn rate of a window's `(good, bad)` counts, plus the observation
/// count it was computed over: `(bad_fraction / error_budget, total)`,
/// `(0.0, 0)` when the window saw no traffic — the caller must treat an
/// empty window as *absence of evidence*, not as a zero burn rate.
fn burn((good, bad): (u64, u64), spec: &SloSpec) -> (f64, u64) {
    let total = good + bad;
    if total == 0 {
        return (0.0, 0);
    }
    ((bad as f64 / total as f64) / spec.error_budget(), total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const TICK: u64 = 1_000;

    fn config(threshold: f64) -> SloConfig {
        SloConfig::new(TICK)
            .with_spec(SloSpec::new(ModelId::Mnist, Cycles(500), 0.9))
            .with_policy(BurnRatePolicy::page(2 * TICK, 6 * TICK, threshold))
    }

    fn drive(engine: &mut SloEngine, tick_index: u64, good: u64, bad: u64) -> Vec<AlertTransition> {
        let at = tick_index * TICK + TICK / 2;
        for _ in 0..good {
            engine.observe_latency(at, ModelId::Mnist, PriorityClass::Standard, 100);
        }
        for _ in 0..bad {
            engine.observe_latency(at, ModelId::Mnist, PriorityClass::Standard, 10_000);
        }
        let mut out = Vec::new();
        engine.evaluate((tick_index + 1) * TICK, &mut out);
        out
    }

    #[test]
    fn guaranteed_breach_fires_within_the_fast_window() {
        // 100% bad traffic burns at 1/0.1 = 10× budget; threshold 5 must
        // fire as soon as the fast window (2 ticks) is fully breached —
        // a false negative here is an engine bug, not a tuning problem.
        let mut engine = SloEngine::new(&config(5.0));
        let mut fired_at_tick = None;
        for tick_index in 0..10 {
            let out = drive(&mut engine, tick_index, 0, 50);
            if let Some(first) = out.first() {
                assert_eq!(first.kind, AlertKind::Fired);
                fired_at_tick = Some(tick_index);
                break;
            }
        }
        let fired = fired_at_tick.expect("a guaranteed breach must fire");
        assert!(
            fired < 2,
            "fired only after tick {fired}, beyond the 2-tick fast window"
        );
    }

    #[test]
    fn healthy_traffic_never_fires() {
        // 1% bad against a 10% budget burns at 0.1×: far under threshold.
        let mut engine = SloEngine::new(&config(1.0));
        for tick_index in 0..50 {
            let out = drive(&mut engine, tick_index, 99, 1);
            assert!(out.is_empty(), "healthy tick {tick_index} fired {out:?}");
        }
        assert!(!engine.any_active());
        assert_eq!(engine.evaluations(), 50);
    }

    #[test]
    fn fires_once_then_resolves_when_the_fast_window_recovers() {
        let mut engine = SloEngine::new(&config(5.0));
        // Breach for 4 ticks: exactly one fire edge.
        let mut fires = 0;
        for tick_index in 0..4 {
            fires += drive(&mut engine, tick_index, 0, 50).len();
        }
        assert_eq!(fires, 1, "an active alert must not re-fire every tick");
        assert!(engine.any_active());
        // Recover: once the fast window is clean the alert resolves, even
        // though the slow (6-tick) window still remembers the breach.
        let mut resolved = None;
        for tick_index in 4..10 {
            let out = drive(&mut engine, tick_index, 50, 0);
            if let Some(first) = out.first() {
                assert_eq!(first.kind, AlertKind::Resolved);
                resolved = Some(tick_index);
                break;
            }
        }
        let resolved = resolved.expect("recovered traffic must resolve");
        assert!(resolved <= 6, "resolve lagged the fast window: {resolved}");
        assert!(!engine.any_active());
    }

    #[test]
    fn slow_window_suppresses_transient_blips() {
        // One bad tick inside an otherwise healthy run: the fast window
        // breaches but the 6-tick slow window dilutes it below threshold.
        let mut engine = SloEngine::new(&config(5.0));
        for tick_index in 0..4 {
            assert!(drive(&mut engine, tick_index, 99, 1).is_empty());
        }
        let out = drive(&mut engine, 4, 0, 30);
        assert!(
            out.is_empty(),
            "one bad tick against clean slow history must not page: {out:?}"
        );
    }

    #[test]
    fn specs_narrow_by_model_and_priority() {
        let config = SloConfig::new(TICK)
            .with_spec(
                SloSpec::new(ModelId::Mnist, Cycles(500), 0.9)
                    .with_priority(PriorityClass::Interactive),
            )
            .with_policy(BurnRatePolicy::page(TICK, 2 * TICK, 2.0));
        let mut engine = SloEngine::new(&config);
        // Bad traffic on the wrong model and the wrong priority: no data
        // reaches the spec, so nothing can fire.
        for tick_index in 0..4u64 {
            let at = tick_index * TICK;
            engine.observe_latency(at, ModelId::Bert, PriorityClass::Interactive, 10_000);
            engine.observe_latency(at, ModelId::Mnist, PriorityClass::Batch, 10_000);
            engine.observe_expired(at, ModelId::Bert, PriorityClass::Interactive);
            let mut out = Vec::new();
            engine.evaluate((tick_index + 1) * TICK, &mut out);
            assert!(out.is_empty());
        }
        // Matching traffic fires; expiries count as bad.
        for tick_index in 4..8u64 {
            engine.observe_expired(
                tick_index * TICK,
                ModelId::Mnist,
                PriorityClass::Interactive,
            );
            let mut out = Vec::new();
            engine.evaluate((tick_index + 1) * TICK, &mut out);
            if !out.is_empty() {
                assert_eq!(out[0].kind, AlertKind::Fired);
                return;
            }
        }
        panic!("matching expiries never fired the narrowed spec");
    }

    #[test]
    fn render_text_is_deterministic_and_stable() {
        let mut log = AlertLog::default();
        log.push(AlertTransition {
            at: Cycles(24_576),
            model: ModelId::Mnist,
            priority: Some(PriorityClass::Interactive),
            severity: AlertSeverity::Page,
            policy: "page",
            kind: AlertKind::Fired,
            burn_fast: 14.5,
            burn_slow: 11.25,
        });
        log.push(AlertTransition {
            at: Cycles(40_960),
            model: ModelId::Mnist,
            priority: None,
            severity: AlertSeverity::Ticket,
            policy: "ticket",
            kind: AlertKind::Resolved,
            burn_fast: 0.5,
            burn_slow: f64::NAN,
        });
        let text = log.render_text();
        assert_eq!(text, log.render_text(), "rendering must be deterministic");
        assert_eq!(
            text,
            "fire t=24576 model=MNIST priority=interactive policy=page severity=page \
             burn_fast=14.500 burn_slow=11.250\n\
             resolve t=40960 model=MNIST priority=any policy=ticket severity=ticket \
             burn_fast=0.500 burn_slow=0.000\n"
        );
        assert_eq!(log.fired(), 1);
        assert_eq!(log.resolved(), 1);
        assert!(log.first_fire_after(Cycles(0)).is_some());
        assert!(log.first_fire_after(Cycles(30_000)).is_none());
    }

    /// Splitting the observations between engines and absorbing them before
    /// each evaluation reproduces the single engine's edges and burns
    /// exactly, also when one engine's cells go a ring and more without
    /// traffic.
    #[test]
    fn absorbed_buckets_evaluate_like_one_engine() {
        let config = config(5.0);
        let mut single = SloEngine::new(&config);
        let mut first = SloEngine::new(&config);
        let mut second = SloEngine::new(&config);
        let (mut expected, mut got) = (Vec::new(), Vec::new());
        for tick_index in 0..40u64 {
            let at = tick_index * TICK + TICK / 2;
            // The engines split the traffic, except for 9 ticks (longer
            // than the 7-cell ring) in which only the second sees any, so
            // its buckets replace the first's stale cells.
            let (good, bad) = if (10..25).contains(&tick_index) {
                (1, 9)
            } else {
                (9, 1)
            };
            for n in 0..good + bad {
                let latency = if n < good { 100 } else { 10_000 };
                single.observe_latency(at, ModelId::Mnist, PriorityClass::Standard, latency);
                let target = if n % 3 == 0 || (20..29).contains(&tick_index) {
                    &mut second
                } else {
                    &mut first
                };
                target.observe_latency(at, ModelId::Mnist, PriorityClass::Standard, latency);
            }
            let now = (tick_index + 1) * TICK;
            single.evaluate(now, &mut expected);
            first.absorb(&mut second);
            first.evaluate(now, &mut got);
        }
        assert!(expected.iter().any(|t| t.kind == AlertKind::Fired));
        assert!(expected.iter().any(|t| t.kind == AlertKind::Resolved));
        assert_eq!(got, expected);
        assert!(second.rings[0].iter().all(|cell| cell.index == u64::MAX));
    }

    /// The burn rate of one window, walked on its own: the reference for
    /// the running sums `evaluate` reads every window off. The window is the
    /// `window_ticks` complete buckets just before `next_bucket`.
    fn burn_over(
        ring: &[Bucket],
        ring_len: u64,
        next_bucket: u64,
        window_ticks: u64,
        spec: &SloSpec,
    ) -> (f64, u64) {
        let first = next_bucket.saturating_sub(window_ticks);
        let (mut good, mut bad) = (0, 0);
        for index in first..next_bucket {
            let cell = &ring[(index % ring_len) as usize];
            if cell.index == index {
                good += cell.good;
                bad += cell.bad;
            }
        }
        burn((good, bad), spec)
    }

    /// The reference evaluation: two `burn_over` walks per (spec, policy),
    /// then `evaluate`'s own fire/resolve rule.
    fn evaluate_reference(engine: &mut SloEngine, now: u64, out: &mut Vec<AlertTransition>) {
        engine.evaluations += 1;
        let next_bucket = now / engine.tick;
        for (spec_index, spec) in engine.specs.iter().enumerate() {
            let ring = &engine.rings[spec_index];
            for (policy_index, policy) in engine.policies.iter().enumerate() {
                let (fast_ticks, slow_ticks) = engine.window_ticks[policy_index];
                let (burn_fast, fast_total) =
                    burn_over(ring, engine.ring_len, next_bucket, fast_ticks, spec);
                let (burn_slow, _) =
                    burn_over(ring, engine.ring_len, next_bucket, slow_ticks, spec);
                let flag = &mut engine.active[spec_index * engine.policies.len() + policy_index];
                let breached = burn_fast > policy.threshold && burn_slow > policy.threshold;
                let resolvable = fast_total > 0 || !engine.resolve_requires_evidence;
                let kind = if !*flag && breached {
                    *flag = true;
                    AlertKind::Fired
                } else if *flag && resolvable && burn_fast <= policy.threshold {
                    *flag = false;
                    AlertKind::Resolved
                } else {
                    continue;
                };
                out.push(AlertTransition {
                    at: Cycles(now),
                    model: spec.model,
                    priority: spec.priority,
                    severity: policy.severity,
                    policy: policy.name,
                    kind,
                    burn_fast,
                    burn_slow,
                });
            }
        }
    }

    /// A random configuration: up to four specs over two models, with and
    /// without a priority narrowing, and `policies` rules whose windows need not be
    /// whole ticks; some are built field by field with a fast window longer
    /// than the slow one, which `BurnRatePolicy::new` would clamp.
    fn random_config(rng: &mut StdRng, policies: usize) -> SloConfig {
        let tick = rng.gen_range(1..=40u64);
        let mut config = SloConfig::new(tick);
        if rng.gen_bool(0.5) {
            config = config.with_resolve_requires_evidence();
        }
        for _ in 0..rng.gen_range(1..=4) {
            let model = [ModelId::Mnist, ModelId::Bert][rng.gen_range(0..2usize)];
            let mut spec = SloSpec::new(model, Cycles(100), rng.gen_range(0.5..0.99));
            if rng.gen_bool(0.5) {
                spec = spec.with_priority(PriorityClass::Interactive);
            }
            config = config.with_spec(spec);
        }
        for _ in 0..policies {
            let fast = rng.gen_range(1..=6 * tick);
            let slow = rng.gen_range(1..=20 * tick);
            let threshold = rng.gen_range(0.0..4.0);
            config = config.with_policy(if rng.gen_bool(0.8) {
                BurnRatePolicy::page(fast, slow, threshold)
            } else {
                BurnRatePolicy {
                    name: "raw",
                    severity: AlertSeverity::Ticket,
                    fast_window: fast,
                    slow_window: slow,
                    threshold,
                }
            });
        }
        config
    }

    /// Random bucket histories, split over one to three engines merged by
    /// `absorb` before each evaluation: every window's running sum gives the
    /// per-window walk's burn rate bit for bit, and `evaluate` gives the
    /// reference evaluation's edges, burns and active flags. Histories skip
    /// buckets (never-written and overwritten cells), run many rings long,
    /// evaluate before the longest window has elapsed and between tick
    /// boundaries, and feed the still-filling bucket.
    #[test]
    fn one_pass_windows_match_the_per_window_walk() {
        let mut rng = StdRng::seed_from_u64(29);
        let (mut edges, mut early, mut wrapped, mut filling) = (0, 0, 0, 0);
        for case in 0..80 {
            // The first case has no policies at all.
            let policies = if case == 0 { 0 } else { rng.gen_range(1..=3) };
            let config = random_config(&mut rng, policies);
            let tick = config.tick;
            let mut engines = vec![SloEngine::new(&config); rng.gen_range(1..=3)];
            let ring_len = engines[0].ring_len;
            let mut now = 0;
            for _ in 0..rng.gen_range(10..90) {
                let mut next = now + rng.gen_range(0..=3 * tick);
                if rng.gen_bool(0.08) {
                    next += ring_len * tick * rng.gen_range(1..=2u64);
                }
                for _ in 0..rng.gen_range(0..16) {
                    let at = if rng.gen_bool(0.2) {
                        next
                    } else {
                        rng.gen_range(now..=next)
                    };
                    let engine = rng.gen_range(0..engines.len());
                    let engine = &mut engines[engine];
                    let model = [ModelId::Mnist, ModelId::Bert][rng.gen_range(0..2usize)];
                    let priority = [PriorityClass::Interactive, PriorityClass::Batch]
                        [rng.gen_range(0..2usize)];
                    if rng.gen_bool(0.1) {
                        engine.observe_expired(at, model, priority);
                    } else {
                        engine.observe_latency(at, model, priority, rng.gen_range(0..=200));
                    }
                }
                now = next;
                let (engine, rest) = engines.split_first_mut().expect("at least one engine");
                for other in rest {
                    engine.absorb(other);
                }

                let next_bucket = now / tick;
                let depth = next_bucket.min(ring_len + 2);
                for (spec, ring) in engine.specs.iter().zip(&engine.rings) {
                    let mut sums = Vec::new();
                    running_sums(ring, next_bucket, depth, &mut sums);
                    for window in 0..=ring_len + 2 {
                        let (got, got_total) = burn(sums[window.min(depth) as usize], spec);
                        let (want, want_total) =
                            burn_over(ring, ring_len, next_bucket, window, spec);
                        assert_eq!(
                            (got.to_bits(), got_total),
                            (want.to_bits(), want_total),
                            "case {case}: window {window} at bucket {next_bucket}"
                        );
                    }
                    filling += usize::from(ring.iter().any(|cell| cell.index == next_bucket));
                }
                early += usize::from(next_bucket < engine.deepest);
                wrapped += usize::from(next_bucket > 2 * ring_len);

                let mut reference = engine.clone();
                let (mut got, mut expected) = (Vec::new(), Vec::new());
                engine.evaluate(now, &mut got);
                evaluate_reference(&mut reference, now, &mut expected);
                let bits = |edges: &[AlertTransition]| -> Vec<(u64, u64)> {
                    let burns = edges
                        .iter()
                        .map(|t| (t.burn_fast.to_bits(), t.burn_slow.to_bits()));
                    burns.collect()
                };
                assert_eq!(got, expected, "case {case} at cycle {now}");
                assert_eq!(bits(&got), bits(&expected));
                assert_eq!(engine.active, reference.active);
                edges += got.len();
            }
        }
        assert!(
            edges > 100 && early > 100 && wrapped > 100 && filling > 100,
            "every history shape is exercised: {edges} edges, {early} early, \
             {wrapped} wrapped, {filling} with a filling bucket"
        );
    }

    #[test]
    fn ring_memory_is_bounded_by_the_slow_window() {
        let config = config(5.0);
        let mut engine = SloEngine::new(&config);
        // Feed a million ticks: the ring holds slow+1 buckets regardless.
        for tick_index in 0..1_000u64 {
            engine.observe_latency(
                tick_index * TICK * 1_000,
                ModelId::Mnist,
                PriorityClass::Standard,
                100,
            );
        }
        assert_eq!(engine.rings[0].len(), 7, "6 slow ticks + the filling one");
    }
}
