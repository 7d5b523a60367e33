//! Dispatch hot-path microbenchmark: indexed dispatch (per-model load trees)
//! measured through the full serving loop on a replica-dense fleet.
//!
//! The bench also runs under a counting allocator and verifies two
//! allocation budgets on top of the timing numbers:
//!
//! * the telemetry sampling path is allocation-free at steady state: a run
//!   with dense sampling must not allocate once per tick on top of the
//!   identical telemetry-off run (the regression `telemetry::sample()` used
//!   to have — fresh frame vectors and model maps every tick);
//! * the observability instrumentation is free when disabled: a run through
//!   the `&mut dyn ObsSink` entry point with a [`NoopSink`] must allocate
//!   **exactly** as many times as the plain `run` path — the hooks left in
//!   the dispatch hot path add zero allocations without a live recorder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cluster::{
    estimated_batch_service_cycles, ClusterServingSim, DeploySpec, DispatchPolicy, NoopSink,
    NpuCluster, PlacementPolicy, ServingOptions,
};
use npu_sim::NpuConfig;
use workloads::{ClusterTrace, ModelId};

/// The system allocator behind a heap-allocation counter, so the bench can
/// assert allocation budgets instead of eyeballing profiles.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic
// with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BOARDS: usize = 8;
const REPLICAS: usize = 64;
const MAX_BATCH: usize = 8;
const ARRIVALS_PER_MODEL: usize = 4_000;

fn models() -> [ModelId; 4] {
    [ModelId::Mnist, ModelId::Ncf, ModelId::Dlrm, ModelId::ResNet]
}

fn fleet() -> NpuCluster {
    let npu = NpuConfig::tpu_v4_like();
    let mut fleet = NpuCluster::homogeneous(BOARDS, &npu);
    let models = models();
    for index in 0..REPLICAS {
        fleet
            .deploy(
                DeploySpec::replica(models[index % models.len()], 2, 2)
                    .with_memory(32 << 20, 1 << 30),
                PlacementPolicy::WorstFit,
            )
            .expect("bench fleet capacity");
    }
    fleet
}

fn trace() -> ClusterTrace {
    let npu = NpuConfig::tpu_v4_like();
    let replicas_per_model = REPLICAS / models().len();
    let streams: Vec<(ModelId, u64)> = models()
        .iter()
        .map(|model| {
            let batch = estimated_batch_service_cycles(*model, MAX_BATCH, 2, 2, &npu) as f64;
            let gap = batch / (replicas_per_model as f64 * MAX_BATCH as f64 * 0.7);
            (*model, gap.max(1.0) as u64)
        })
        .collect();
    ClusterTrace::poisson(&streams, ARRIVALS_PER_MODEL, 11)
}

/// Asserts the telemetry sampling path allocates nothing per tick at steady
/// state: the allocation delta between a densely-sampled run and the
/// identical telemetry-off run must stay far below one allocation per tick.
fn verify_telemetry_sampling_is_allocation_free() {
    let trace = trace();
    let npu = NpuConfig::tpu_v4_like();
    let interval =
        (estimated_batch_service_cycles(ModelId::Mnist, MAX_BATCH, 2, 2, &npu) * 4).max(1);
    let run = |telemetry: bool| {
        let mut fleet = fleet();
        let mut options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_batching(MAX_BATCH);
        if telemetry {
            options = options.with_telemetry(interval);
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        (allocations, report)
    };
    let (base_allocations, base) = run(false);
    let (sampled_allocations, sampled) = run(true);
    let ticks = sampled.control.samples as u64;
    assert!(ticks > 100, "the scenario must sample densely ({ticks})");
    assert_eq!(base.stats.completed, sampled.stats.completed);
    let delta = sampled_allocations.saturating_sub(base_allocations);
    // Warm-up allocates the frame scratch, the per-model windows and their
    // sample buffers — a small constant. Per-tick steady state must be free:
    // anything growing with the tick count is the old regression.
    assert!(
        delta < ticks / 2,
        "telemetry sampling must not allocate per tick: \
         {delta} extra allocations over {ticks} ticks"
    );
    println!(
        "telemetry-alloc: {delta} extra allocations over {ticks} ticks (allocation-free steady state)"
    );
}

/// Asserts the observability hooks are free when no recorder is attached:
/// `run` (statically monomorphized over `NoopSink`) and `run_observed` with
/// an explicit `&mut NoopSink` (the dynamic-dispatch entry point) must
/// allocate exactly the same number of times — obs-disabled adds 0
/// allocations to the dispatch path.
fn verify_obs_disabled_adds_zero_allocations() {
    let trace = trace();
    let run = |observed: bool| {
        let mut fleet = fleet();
        let sim = ClusterServingSim::new(
            ServingOptions::new(DispatchPolicy::LeastLoaded).with_batching(MAX_BATCH),
        );
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = if observed {
            sim.run_observed(&mut fleet, &trace, &mut NoopSink)
        } else {
            sim.run(&mut fleet, &trace)
        };
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        (allocations, report)
    };
    let (base_allocations, base) = run(false);
    let (noop_allocations, noop) = run(true);
    assert_eq!(base, noop, "a no-op sink must not change the simulation");
    assert_eq!(
        base_allocations, noop_allocations,
        "obs-disabled must add 0 allocations on the dispatch path: \
         plain run {base_allocations}, noop-sink run {noop_allocations}"
    );
    println!(
        "obs-alloc: noop-sink run allocates exactly the plain run's {base_allocations} \
         allocations (obs-disabled adds 0)"
    );
}

fn bench_dispatch(c: &mut Criterion) {
    verify_telemetry_sampling_is_allocation_free();
    verify_obs_disabled_adds_zero_allocations();
    let trace = trace();
    let mut group = c.benchmark_group("dispatch");
    group.sample_size(10);
    group.bench_function("indexed", |b| {
        b.iter(|| {
            let mut fleet = fleet();
            let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_batching(MAX_BATCH);
            black_box(ClusterServingSim::new(options).run(&mut fleet, &trace))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
