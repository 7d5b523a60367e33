//! Inference-request arrival generation.
//!
//! The paper's steady-state experiments run requests back to back (closed
//! loop) until every collocated workload has completed a target number of
//! requests. Open-loop Poisson arrivals are also provided for experiments
//! that need bursty, cloud-like traffic.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use npu_sim::Cycles;

use crate::suite::ModelId;

/// How inference requests arrive at a vNPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Closed loop: a fixed number of outstanding requests; a new request is
    /// issued as soon as one completes. `concurrency` is the number of
    /// requests in flight (1 reproduces the paper's setup).
    ClosedLoop {
        /// Number of requests kept in flight.
        concurrency: usize,
    },
    /// Open loop: requests arrive with exponentially distributed gaps.
    Poisson {
        /// Mean inter-arrival gap in cycles.
        mean_interarrival: Cycles,
        /// RNG seed (experiments stay deterministic for a fixed seed).
        seed: u64,
    },
}

impl Default for ArrivalProcess {
    fn default() -> Self {
        ArrivalProcess::ClosedLoop { concurrency: 1 }
    }
}

/// A generator of request arrival times.
#[derive(Debug, Clone)]
pub struct RequestStream {
    process: ArrivalProcess,
}

impl RequestStream {
    /// Creates a stream for the given arrival process.
    pub fn new(process: ArrivalProcess) -> Self {
        RequestStream { process }
    }

    /// The arrival process of this stream.
    pub fn process(&self) -> ArrivalProcess {
        self.process
    }

    /// Number of requests that should be outstanding at simulation start.
    pub fn initial_outstanding(&self) -> usize {
        match self.process {
            ArrivalProcess::ClosedLoop { concurrency } => concurrency.max(1),
            ArrivalProcess::Poisson { .. } => 0,
        }
    }

    /// Whether a completed request immediately re-issues a new one.
    pub fn reissue_on_completion(&self) -> bool {
        matches!(self.process, ArrivalProcess::ClosedLoop { .. })
    }

    /// Generates the absolute arrival times of the first `count` open-loop
    /// requests. Closed-loop streams return all-zero arrivals (the backlog is
    /// available immediately).
    pub fn arrival_times(&self, count: usize) -> Vec<Cycles> {
        match self.process {
            ArrivalProcess::ClosedLoop { .. } => vec![Cycles::ZERO; count],
            ArrivalProcess::Poisson {
                mean_interarrival,
                seed,
            } => poisson_times(mean_interarrival, seed, count).collect(),
        }
    }
}

/// The first `count` arrival times of a seeded Poisson stream.
fn poisson_times(
    mean_interarrival: Cycles,
    seed: u64,
    count: usize,
) -> impl Iterator<Item = Cycles> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mean = mean_interarrival.get().max(1) as f64;
    let mut now = 0.0f64;
    (0..count).map(move |_| {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        now += -mean * u.ln(); // simlint::allow(D4, reason = "one exponential gap per generated arrival")
        Cycles(now as u64)
    })
}

impl Default for RequestStream {
    fn default() -> Self {
        RequestStream::new(ArrivalProcess::default())
    }
}

/// Derives an independent per-stream seed from a trace-wide seed and a
/// stream index via a splitmix64-style hash: a linear combination like
/// `(seed + index) * C` would make adjacent seeds share component streams,
/// correlating seed-sweep experiments.
pub(crate) fn stream_seed(seed: u64, index: u64) -> u64 {
    let mut stream_seed = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    stream_seed = (stream_seed ^ (stream_seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    stream_seed = (stream_seed ^ (stream_seed >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    stream_seed ^ (stream_seed >> 31)
}

/// The arrival times of a trace's streams, drawn one stream after another
/// into one buffer; each stream's times are non-decreasing and end where
/// its entry in `streams` says.
///
/// One buffer rather than one per stream is a workaround, not a format the
/// merge needs: the cluster crate's serving calls free their working memory
/// at every call's end, and glibc's malloc keeps freed memory only below
/// thresholds it raises to the largest mapped block a process frees. With
/// only stream-sized blocks freed in set-up, every later serving call
/// faulted its working memory in again.
#[derive(Debug, Default)]
pub(crate) struct StreamTimes {
    /// Each stream's model and the end of its times in `times`.
    pub(crate) streams: Vec<(ModelId, usize)>,
    /// Every stream's arrival times, in stream order.
    pub(crate) times: Vec<Cycles>,
}

impl StreamTimes {
    /// Ends the stream whose times were pushed since the last one ended.
    pub(crate) fn end_stream(&mut self, model: ModelId) {
        self.streams.push((model, self.times.len()));
    }

    /// Each stream's model and arrival times, in stream order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ModelId, &[Cycles])> {
        let mut start = 0;
        self.streams.iter().map(move |&(model, end)| {
            let times = &self.times[start..end];
            start = end;
            (model, times)
        })
    }
}

/// The arrival times of [`ClusterTrace::poisson`]'s streams.
pub(crate) fn poisson_streams(
    streams: &[(ModelId, u64)],
    per_model: usize,
    seed: u64,
) -> StreamTimes {
    let mut drawn = StreamTimes {
        streams: Vec::with_capacity(streams.len()),
        times: Vec::with_capacity(streams.len() * per_model),
    };
    for (index, &(model, mean)) in streams.iter().enumerate() {
        let seed = stream_seed(seed, index as u64);
        drawn
            .times
            .extend(poisson_times(Cycles(mean.max(1)), seed, per_model));
        drawn.end_stream(model);
    }
    drawn
}

/// The scheduling class of a request: lower variants are more urgent.
///
/// The derived `Ord` sorts `Interactive < Standard < Batch`, so ordering a
/// queue by `(priority, deadline)` serves latency-sensitive traffic first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PriorityClass {
    /// Latency-sensitive, user-facing traffic.
    Interactive,
    /// Ordinary serving traffic (the default).
    #[default]
    Standard,
    /// Throughput-oriented background work; always served last.
    Batch,
}

impl PriorityClass {
    /// A short stable label for tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Standard => "standard",
            PriorityClass::Batch => "batch",
        }
    }
}

/// Per-model quality-of-service terms applied to generated arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QosSpec {
    /// Completion deadline, as slack added to the arrival time; `None` leaves
    /// the request best-effort.
    pub deadline_slack: Option<Cycles>,
    /// The scheduling class of the requests.
    pub priority: PriorityClass,
}

impl QosSpec {
    /// A deadline `slack` cycles after arrival, at the given priority.
    pub fn new(deadline_slack: Option<Cycles>, priority: PriorityClass) -> Self {
        QosSpec {
            deadline_slack,
            priority,
        }
    }

    /// Applies these terms to one arrival: the deadline becomes
    /// arrival + slack and the priority class is overwritten.
    fn apply(&self, arrival: &mut RequestArrival) {
        arrival.deadline = self
            .deadline_slack
            .map(|s| Cycles(arrival.at.get().saturating_add(s.get())));
        arrival.priority = self.priority;
    }
}

/// One inference-request arrival in a cluster-level trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestArrival {
    /// Absolute arrival time in cycles.
    pub at: Cycles,
    /// The model the request targets.
    pub model: ModelId,
    /// Trace-wide sequence number (stable across re-sorts).
    pub sequence: u64,
    /// Absolute completion deadline; `None` means best-effort.
    pub deadline: Option<Cycles>,
    /// The scheduling class of the request.
    pub priority: PriorityClass,
}

impl RequestArrival {
    /// A best-effort, standard-priority arrival.
    pub fn new(at: Cycles, model: ModelId) -> Self {
        RequestArrival {
            at,
            model,
            sequence: 0,
            deadline: None,
            priority: PriorityClass::default(),
        }
    }

    /// Sets an absolute completion deadline.
    pub fn with_deadline(mut self, deadline: Cycles) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the scheduling class.
    pub fn with_priority(mut self, priority: PriorityClass) -> Self {
        self.priority = priority;
        self
    }

    /// Cycles between arrival and deadline; `None` for best-effort requests.
    pub fn slack(&self) -> Option<Cycles> {
        self.deadline
            .map(|d| Cycles(d.get().saturating_sub(self.at.get())))
    }
}

/// A merged, time-ordered, multi-model arrival trace — the open-loop input of
/// the cluster request router.
///
/// A trace can be generated (independent Poisson streams per model, the
/// standard open-loop serving assumption) or replayed from recorded arrivals,
/// which makes the router testable against hand-crafted worst cases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTrace {
    arrivals: Vec<RequestArrival>,
}

impl ClusterTrace {
    /// Builds a trace by superposing one Poisson stream per `(model,
    /// mean_interarrival_cycles)` entry, each contributing `per_model`
    /// requests. Deterministic for a fixed `seed`. Arrivals are ordered by
    /// time, then by stream index, then by position in the stream.
    ///
    /// # Example
    ///
    /// ```
    /// use workloads::{ClusterTrace, ModelId};
    ///
    /// let streams = [(ModelId::Mnist, 10_000), (ModelId::Bert, 40_000)];
    /// let trace = ClusterTrace::poisson(&streams, 100, 42);
    /// // `per_model` requests per stream, merged into arrival order.
    /// assert_eq!(trace.arrivals().len(), 200);
    /// assert!(trace.arrivals().windows(2).all(|w| w[0].at <= w[1].at));
    /// // Same seed ⇒ the identical trace, arrival for arrival.
    /// assert_eq!(trace, ClusterTrace::poisson(&streams, 100, 42));
    /// ```
    pub fn poisson(streams: &[(ModelId, u64)], per_model: usize, seed: u64) -> Self {
        ClusterTrace::merge(poisson_streams(streams, per_model, seed))
    }

    /// Builds a trace from explicit arrivals (sorted by time; sequence
    /// numbers are re-assigned in time order).
    pub fn from_arrivals(mut arrivals: Vec<RequestArrival>) -> Self {
        arrivals.sort_by_key(|a| a.at);
        for (sequence, arrival) in arrivals.iter_mut().enumerate() {
            arrival.sequence = sequence as u64;
        }
        ClusterTrace { arrivals }
    }

    /// Merges per-stream arrival times into a trace allocated once at its
    /// exact length. The least `(time, stream index)` head goes next, so
    /// arrivals are ordered by time, then stream index, then position in
    /// the stream: the order [`ClusterTrace::from_arrivals`] gives the
    /// streams' concatenation. Sequence numbers are assigned as arrivals are
    /// written.
    pub(crate) fn merge(drawn: StreamTimes) -> Self {
        let mut arrivals = Vec::with_capacity(drawn.times.len());
        let mut streams: Vec<(ModelId, &[Cycles])> = drawn.iter().collect();
        let mut heads: BinaryHeap<Reverse<(Cycles, usize)>> = streams
            .iter()
            .enumerate()
            .filter_map(|(index, (_, times))| Some(Reverse((*times.first()?, index))))
            .collect();
        while let Some(mut head) = heads.peek_mut() {
            let Reverse((at, index)) = *head;
            let (model, rest) = &mut streams[index];
            let mut arrival = RequestArrival::new(at, *model);
            arrival.sequence = arrivals.len() as u64;
            arrivals.push(arrival);
            *rest = &rest[1..];
            match rest.first() {
                Some(&at) => *head = Reverse((at, index)),
                None => {
                    PeekMut::pop(head);
                }
            }
        }
        ClusterTrace { arrivals }
    }

    /// Applies `qos` to every arrival of `model`: the deadline becomes
    /// arrival + slack and the priority class is overwritten.
    pub fn with_model_qos(mut self, model: ModelId, qos: QosSpec) -> Self {
        for arrival in self.arrivals.iter_mut().filter(|a| a.model == model) {
            qos.apply(arrival);
        }
        self
    }

    /// Applies `qos` to every arrival in the trace.
    pub fn with_uniform_qos(mut self, qos: QosSpec) -> Self {
        for arrival in self.arrivals.iter_mut() {
            qos.apply(arrival);
        }
        self
    }

    /// The time-ordered arrivals.
    pub fn arrivals(&self) -> &[RequestArrival] {
        &self.arrivals
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Arrival time of the last request (the offered-load horizon).
    pub fn horizon(&self) -> Cycles {
        self.arrivals.last().map(|a| a.at).unwrap_or(Cycles::ZERO)
    }

    /// The distinct models appearing in the trace, in first-arrival order.
    pub fn models(&self) -> Vec<ModelId> {
        let mut models = Vec::new();
        for arrival in &self.arrivals {
            if !models.contains(&arrival.model) {
                models.push(arrival.model);
            }
        }
        models
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_keeps_requests_outstanding() {
        let stream = RequestStream::new(ArrivalProcess::ClosedLoop { concurrency: 2 });
        assert_eq!(stream.initial_outstanding(), 2);
        assert!(stream.reissue_on_completion());
        assert!(stream.arrival_times(4).iter().all(|t| t.is_zero()));
    }

    #[test]
    fn poisson_arrivals_are_monotonic_and_deterministic() {
        let stream = RequestStream::new(ArrivalProcess::Poisson {
            mean_interarrival: Cycles(10_000),
            seed: 7,
        });
        let a = stream.arrival_times(100);
        let b = stream.arrival_times(100);
        assert_eq!(a, b, "same seed must reproduce the same arrivals");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(!stream.reissue_on_completion());
        assert_eq!(stream.initial_outstanding(), 0);
    }

    #[test]
    fn poisson_mean_is_roughly_respected() {
        let mean = 50_000u64;
        let stream = RequestStream::new(ArrivalProcess::Poisson {
            mean_interarrival: Cycles(mean),
            seed: 42,
        });
        let times = stream.arrival_times(2_000);
        let last = times.last().unwrap().get() as f64;
        let empirical_mean = last / 2_000.0;
        assert!(
            (empirical_mean / mean as f64 - 1.0).abs() < 0.15,
            "empirical mean {empirical_mean} too far from {mean}"
        );
    }

    #[test]
    fn default_is_single_closed_loop() {
        let stream = RequestStream::default();
        assert_eq!(stream.initial_outstanding(), 1);
    }

    #[test]
    fn cluster_trace_merges_streams_in_time_order() {
        let trace =
            ClusterTrace::poisson(&[(ModelId::Mnist, 10_000), (ModelId::Bert, 25_000)], 50, 7);
        assert_eq!(trace.len(), 100);
        assert!(trace
            .arrivals()
            .windows(2)
            .all(|w| w[0].at <= w[1].at && w[0].sequence < w[1].sequence));
        assert_eq!(trace.models().len(), 2);
        assert!(trace.horizon() > Cycles::ZERO);
        // Determinism for a fixed seed.
        let again =
            ClusterTrace::poisson(&[(ModelId::Mnist, 10_000), (ModelId::Bert, 25_000)], 50, 7);
        assert_eq!(trace, again);
    }

    #[test]
    fn replayed_traces_reassign_sequences() {
        let mut late = RequestArrival::new(Cycles(500), ModelId::Mnist);
        late.sequence = 99;
        let mut early = RequestArrival::new(Cycles(100), ModelId::Bert);
        early.sequence = 99;
        let trace = ClusterTrace::from_arrivals(vec![late, early]);
        assert_eq!(trace.arrivals()[0].model, ModelId::Bert);
        assert_eq!(trace.arrivals()[0].sequence, 0);
        assert_eq!(trace.arrivals()[1].sequence, 1);
    }

    #[test]
    fn default_arrivals_are_best_effort() {
        let arrival = RequestArrival::new(Cycles(10), ModelId::Mnist);
        assert_eq!(arrival.deadline, None);
        assert_eq!(arrival.priority, PriorityClass::Standard);
        assert_eq!(arrival.slack(), None);
        let bound = arrival
            .with_deadline(Cycles(25))
            .with_priority(PriorityClass::Interactive);
        assert_eq!(bound.slack(), Some(Cycles(15)));
        assert_eq!(bound.priority, PriorityClass::Interactive);
    }

    #[test]
    fn priority_classes_order_urgent_first() {
        assert!(PriorityClass::Interactive < PriorityClass::Standard);
        assert!(PriorityClass::Standard < PriorityClass::Batch);
    }

    #[test]
    fn qos_applies_per_model_deadlines() {
        let trace =
            ClusterTrace::poisson(&[(ModelId::Mnist, 10_000), (ModelId::Bert, 10_000)], 20, 3)
                .with_model_qos(
                    ModelId::Mnist,
                    QosSpec::new(Some(Cycles(50_000)), PriorityClass::Interactive),
                );
        for arrival in trace.arrivals() {
            match arrival.model {
                ModelId::Mnist => {
                    assert_eq!(
                        arrival.deadline,
                        Some(Cycles(arrival.at.get() + 50_000)),
                        "deadline is arrival + slack"
                    );
                    assert_eq!(arrival.priority, PriorityClass::Interactive);
                }
                _ => {
                    assert_eq!(arrival.deadline, None);
                    assert_eq!(arrival.priority, PriorityClass::Standard);
                }
            }
        }
        let uniform = trace.with_uniform_qos(QosSpec::new(None, PriorityClass::Batch));
        assert!(uniform
            .arrivals()
            .iter()
            .all(|a| a.deadline.is_none() && a.priority == PriorityClass::Batch));
    }
}
