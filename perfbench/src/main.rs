//! Host-side benchmark of the Neu10 simulators, one process per call.
//!
//! ```text
//! perfbench setup   --workload NAME --seed N              cold set-up only
//! perfbench measure --workload NAME --seed N --seconds S  untraced runs
//! perfbench trace   --workload NAME --seed N --seconds S  traced layer pass
//! ```
//!
//! Each call prints one JSON record on its last line; `run.py` starts the
//! calls, checks the records and reports the metrics. The workloads are
//! `fleet-open`, `fleet-sharded`, `fleet-closed` and `colloc`.

mod colloc;
mod fleet;
mod layers;
mod record;

use std::collections::BTreeMap;
use std::process::ExitCode;

use colloc::Colloc;
use fleet::{Call, Fleet, Shape};
use layers::Clock;
use record::Record;

/// Runs in every measured or traced loop, however short `--seconds` is.
const MIN_RUNS: usize = 3;

/// The outcome of one run call.
pub struct Run {
    /// Host seconds of the call.
    pub wall: f64,
    /// Simulated requests the call processed.
    pub requests: u64,
    /// Digest of the call's full report.
    pub digest: u64,
    /// Broken checks.
    pub failures: Vec<String>,
    /// Simulated outcomes printed beside the metrics, not gated.
    pub fidelity: Record,
}

/// Seconds since `start`.
pub fn secs(start: Clock) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Per-layer values by name (`run.py` turns the first `_` into a `.`).
pub type Layers = BTreeMap<&'static str, f64>;

enum Workload {
    Fleet(Box<Fleet>),
    Colloc(Colloc),
}

impl Workload {
    fn setup(name: &str, seed: u64, layers: Option<&mut Layers>) -> Result<Self, String> {
        let shape = match name {
            "fleet-open" => Shape::Open,
            "fleet-sharded" => Shape::Sharded,
            "fleet-closed" => Shape::Closed,
            "colloc" => return Colloc::setup(seed, layers).map(Workload::Colloc),
            _ => return Err(format!("unknown workload {name:?}")),
        };
        Fleet::setup(shape, seed, layers).map(|fleet| Workload::Fleet(Box::new(fleet)))
    }

    fn input_digest(&self) -> u64 {
        match self {
            Workload::Fleet(fleet) => fleet.input_digest(),
            Workload::Colloc(colloc) => colloc.input_digest(),
        }
    }

    /// The run call the end-to-end metrics time.
    fn run(&self) -> Result<Run, String> {
        match self {
            Workload::Fleet(fleet) => fleet.run(fleet.measured_call()).map(|(run, _)| run),
            Workload::Colloc(colloc) => colloc.run(None).map(|(run, _)| run),
        }
    }

    /// The warm-up call. The sharded fleet warms up on one thread, so every
    /// measured run also checks that threads never change its report.
    fn warm_up(&self) -> Result<Run, String> {
        match self {
            Workload::Fleet(fleet) if fleet.measured_call() != Call::Sequential => {
                fleet.run(Call::Sharded(1)).map(|(run, _)| run)
            }
            _ => self.run(),
        }
    }
}

/// Checks and failure messages gathered over a process's runs.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    fn record(&mut self, run: &Run, reference: u64, what: &str) {
        self.attempted += 1;
        let mut failures = run.failures.clone();
        if run.digest != reference {
            failures.push(format!(
                "{what}: report digest {:016x} differs from {reference:016x}",
                run.digest
            ));
        }
        if !failures.is_empty() {
            self.failed += 1;
        }
        for failure in failures {
            if !self.messages.contains(&failure) {
                self.messages.push(failure);
            }
        }
    }

    fn write(&self, record: &mut Record) {
        record
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .texts("failures", &self.messages);
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 where unknown.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mode = args.next().ok_or("missing mode")?;
    let (mut workload, mut seed, mut seconds) = (None, None, 0.0);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
    })
}

/// `setup`: one cold set-up in a process whose memos are empty.
fn setup(args: &Args) -> Result<Record, String> {
    let start = Clock::now();
    let workload = Workload::setup(&args.workload, args.seed, None)?;
    let setup_s = secs(start);
    let mut record = Record::default();
    record
        .num("setup_s", setup_s)
        .text("input_digest", &format!("{:016x}", workload.input_digest()));
    Ok(record)
}

/// `measure`: cold set-up, one warm-up call, then untraced calls for
/// `--seconds` (at least [`MIN_RUNS`]).
fn measure(args: &Args) -> Result<Record, String> {
    let start = Clock::now();
    let workload = Workload::setup(&args.workload, args.seed, None)?;
    let setup_s = secs(start);
    let warm = workload.warm_up()?;
    let mut checks = Checks::default();
    checks.record(&warm, warm.digest, "warm-up");
    let mut walls = Vec::new();
    let mut last = warm;
    let mut peak_rss = 0;
    let began = Clock::now();
    while walls.len() < MIN_RUNS || secs(began) < args.seconds {
        let run = workload.run()?;
        checks.record(&run, last.digest, "rerun");
        walls.push(run.wall);
        last = run;
        // Sampled after a fixed number of calls: how many calls fit in the
        // window depends on the host's speed, and allocator fragmentation
        // creeps up with the count.
        if walls.len() == MIN_RUNS {
            peak_rss = peak_rss_kib();
        }
    }
    let mut record = Record::default();
    record
        .num("setup_s", setup_s)
        .text("input_digest", &format!("{:016x}", workload.input_digest()))
        .text("digest", &format!("{:016x}", last.digest))
        .int("requests", last.requests)
        .nums("walls", &walls)
        .int("peak_rss_kib", peak_rss)
        .object("fidelity", &last.fidelity);
    checks.write(&mut record);
    Ok(record)
}

/// `trace`: cold set-up with its layers timed, one warm-up call, then
/// rounds of an untraced and a traced call for `--seconds` (at least
/// [`MIN_RUNS`]). Layer values are medians over the traced calls.
fn trace(args: &Args) -> Result<Record, String> {
    let mut setup_layers = Layers::default();
    let start = Clock::now();
    let workload = Workload::setup(&args.workload, args.seed, Some(&mut setup_layers))?;
    let setup_s = secs(start);
    let warm = workload.run()?;
    let reference = warm.digest;
    let mut checks = Checks::default();
    checks.record(&warm, reference, "warm-up");

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut rounds: Vec<Layers> = Vec::new();
    let mut counts: Option<Vec<u64>> = None;
    // fleet-sharded only: one-thread and sequential walls, and both p99s.
    let (mut one_thread, mut sequential, mut p99s) = (Vec::new(), Vec::new(), (0u64, 0u64));
    let began = Clock::now();
    while traced.len() < MIN_RUNS || secs(began) < args.seconds {
        let mut layers = Layers::default();
        let (run, round_counts) = match &workload {
            Workload::Fleet(fleet) => {
                let (run, _) = fleet.run(fleet.measured_call())?;
                checks.record(&run, reference, "untraced rerun");
                untraced.push(run.wall);
                if fleet.measured_call() != Call::Sequential {
                    let (one, sharded) = fleet.run(Call::Sharded(1))?;
                    checks.record(&one, reference, "one-thread rerun");
                    one_thread.push(one.wall);
                    let (seq, report) = fleet.run(Call::Sequential)?;
                    let seq_reference = *sequential.first().map_or(&seq.digest, |(_, d)| d);
                    checks.record(&seq, seq_reference, "sequential rerun");
                    sequential.push((seq.wall, seq.digest));
                    p99s = (sharded.latency.p99, report.latency.p99);
                }
                fleet.run_traced(&mut layers)?
            }
            Workload::Colloc(colloc) => {
                let (run, _) = colloc.run(None)?;
                checks.record(&run, reference, "untraced rerun");
                untraced.push(run.wall);
                let mut per_policy = [0.0; 4];
                let (run, results) = colloc.run(Some(&mut per_policy))?;
                for (key, spent) in [
                    "runtime_pmt_s",
                    "runtime_v10_s",
                    "runtime_neu10nh_s",
                    "runtime_neu10_s",
                ]
                .into_iter()
                .zip(per_policy)
                {
                    layers.insert(key, spent);
                }
                let counts = colloc::runtime_layers(&results, &mut layers);
                (run, counts)
            }
        };
        checks.record(&run, reference, "traced run");
        if counts.get_or_insert_with(|| round_counts.clone()) != &round_counts {
            checks.failed += 1;
            checks
                .messages
                .push("a per-layer count differs between traced runs".to_string());
        }
        traced.push(run.wall);
        rounds.push(layers);
    }

    let mut layers = setup_layers;
    if let Some(first) = rounds.first() {
        for &key in first.keys() {
            let values: Vec<f64> = rounds
                .iter()
                .map(|round| round.get(key).copied().unwrap_or(0.0))
                .collect();
            layers.insert(key, median(&values));
        }
    }
    // The traced sharded call runs on one thread: compare it with the
    // untraced one-thread calls.
    let baseline = if one_thread.is_empty() {
        median(&untraced)
    } else {
        median(&one_thread)
    };
    layers.insert(
        "trace_overhead_pct",
        (median(&traced) - baseline) / baseline * 100.0,
    );
    if !one_thread.is_empty() {
        let seq: Vec<f64> = sequential.iter().map(|(wall, _)| *wall).collect();
        layers.insert(
            "sharded_thread_speedup",
            median(&one_thread) / median(&untraced),
        );
        layers.insert(
            "sharded_structural_speedup",
            median(&seq) / median(&one_thread),
        );
        layers.insert("sharded_p99_ratio", p99s.0 as f64 / p99s.1.max(1) as f64);
    }
    if layers.get("serving_self_s").is_some_and(|s| *s < 0.0) {
        checks.failed += 1;
        checks
            .messages
            .push("serving.self_s is negative".to_string());
    }

    let mut values = Record::default();
    for (key, value) in &layers {
        values.num(key, *value);
    }
    let mut record = Record::default();
    record
        .num("setup_s", setup_s)
        .text("input_digest", &format!("{:016x}", workload.input_digest()))
        .text("digest", &format!("{reference:016x}"))
        .nums("untraced_walls", &untraced)
        .nums("traced_walls", &traced)
        .text(
            "counts",
            &format!("{:016x}", record::fnv1a(&format!("{counts:?}"))),
        )
        .object("layers", &values);
    checks.write(&mut record);
    Ok(record)
}

fn main() -> ExitCode {
    let result = parse(std::env::args().skip(1)).and_then(|args| match args.mode.as_str() {
        "setup" => setup(&args),
        "measure" => measure(&args),
        "trace" => trace(&args),
        mode => Err(format!("unknown mode {mode:?}")),
    });
    match result {
        Ok(record) => {
            println!("{record}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}
