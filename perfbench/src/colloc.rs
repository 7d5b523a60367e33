//! `colloc`: the paper's §V sweep (Figs. 19-22) — every collocation pair
//! under every sharing policy through `CollocationSim` on one core.

use std::fmt::Write;

use neu10::{CollocationResult, CollocationSim, SharingPolicy, SimOptions, TenantSpec, VnpuId};
use npu_sim::NpuConfig;
use workloads::{collocation_pairs, ModelId};

use crate::layers::Clock;
use crate::record::{fnv1a, Record};
use crate::{secs, Layers, Run};

/// Requests each tenant completes at least (the figure harnesses' default).
const REQUESTS: usize = 5;

/// The sweep's inputs: one tenant pair per collocation pair, in seeded
/// tenant order.
pub struct Colloc {
    npu: NpuConfig,
    pairs: Vec<(ModelId, ModelId)>,
}

impl Colloc {
    /// Builds the sweep and compiles every tenant once (cold). The seed picks
    /// which model of each pair is tenant 0. With `layers`, compilation and
    /// input generation are timed apart.
    pub fn setup(seed: u64, layers: Option<&mut Layers>) -> Result<Self, String> {
        let npu = NpuConfig::single_core();
        let start = Clock::now();
        let pairs: Vec<(ModelId, ModelId)> = collocation_pairs()
            .into_iter()
            .enumerate()
            .map(|(i, pair)| {
                if (seed >> (i % 64)) & 1 == 1 {
                    (pair.second, pair.first)
                } else {
                    (pair.first, pair.second)
                }
            })
            .collect();
        let generated = secs(start);
        let colloc = Colloc { npu, pairs };
        let start = Clock::now();
        let sims = colloc.sims();
        if let Some(layers) = layers {
            layers.insert("neuisa_compile_s", secs(start));
            layers.insert("neuisa_compile_keys", colloc.compile_keys() as f64);
            layers.insert("workloads_trace_s", generated);
            layers.insert("workloads_arrivals", (sims.len() * 2 * REQUESTS) as f64);
        }
        Ok(colloc)
    }

    /// Distinct compilations the sweep needs: one per (model, ISA).
    fn compile_keys(&self) -> u64 {
        let mut models: Vec<ModelId> = self.pairs.iter().flat_map(|p| [p.0, p.1]).collect();
        models.sort();
        models.dedup();
        models.len() as u64 * 2
    }

    /// One simulator per (pair, policy), compiled through the shared memo.
    fn sims(&self) -> Vec<(SharingPolicy, CollocationSim)> {
        let mut sims = Vec::new();
        for &(first, second) in &self.pairs {
            for policy in SharingPolicy::all() {
                let tenants = vec![
                    TenantSpec::evaluation(0, first, REQUESTS),
                    TenantSpec::evaluation(1, second, REQUESTS),
                ];
                sims.push((
                    policy,
                    CollocationSim::new(&self.npu, SimOptions::new(policy), tenants),
                ));
            }
        }
        sims
    }

    /// A fingerprint of the generated inputs.
    pub fn input_digest(&self) -> u64 {
        fnv1a(&format!("{:?}|{REQUESTS}", self.pairs))
    }

    /// One sweep. With `per_policy`, each simulator's run is timed into the
    /// slot of its policy (in `SharingPolicy::all()` order).
    pub fn run(
        &self,
        per_policy: Option<&mut [f64; 4]>,
    ) -> Result<(Run, Vec<CollocationResult>), String> {
        let sims = self.sims();
        let mut results = Vec::with_capacity(sims.len());
        let start = Clock::now();
        match per_policy {
            None => results.extend(sims.into_iter().map(|(_, sim)| sim.run())),
            Some(slots) => {
                for (policy, sim) in sims {
                    let one = Clock::now();
                    results.push(sim.run());
                    let slot = SharingPolicy::all()
                        .iter()
                        .position(|p| *p == policy)
                        .unwrap_or(0);
                    slots[slot] += secs(one);
                }
            }
        }
        let wall = secs(start);
        Ok((self.outcome(wall, &results), results))
    }

    fn outcome(&self, wall: f64, results: &[CollocationResult]) -> Run {
        let mut failures = Vec::new();
        let mut requests = 0u64;
        let mut summary = String::new();
        for result in results {
            let _ = write!(
                summary,
                "{:?}|{}|{}|{}",
                result.policy,
                result.makespan.get(),
                result.me_utilization.to_bits(),
                result.ve_utilization.to_bits()
            );
            for tenant in &result.tenants {
                requests += tenant.completed_requests as u64;
                if tenant.completed_requests < REQUESTS {
                    failures.push(format!(
                        "{:?} under {}: {} of {REQUESTS} requests completed",
                        tenant.model,
                        result.policy.label(),
                        tenant.completed_requests
                    ));
                }
                let _ = write!(
                    summary,
                    "|{}|{:?}|{}|{}|{}|{}|{}|{}",
                    tenant.completed_requests,
                    tenant.latency_summary(),
                    tenant.me_work_cycles,
                    tenant.ve_work_cycles,
                    tenant.hbm_bytes_moved,
                    tenant.blocked_by_harvest_cycles,
                    tenant.harvested_me_cycles,
                    tenant.harvested_ve_cycles
                );
            }
            summary.push('\n');
        }
        Run {
            wall,
            requests,
            digest: fnv1a(&summary),
            failures,
            fidelity: self.fidelity(results),
        }
    }

    /// The best-pair Neu10-over-PMT ratios the paper reports as "up to
    /// 1.4x throughput, 4.6x p99, 1.2x ME utilization".
    fn fidelity(&self, results: &[CollocationResult]) -> Record {
        let (mut throughput, mut p99, mut me_util) = (0.0f64, 0.0f64, 0.0f64);
        for sweep in results.chunks(SharingPolicy::all().len()) {
            let of = |policy| sweep.iter().find(|r| r.policy == policy);
            let (Some(neu10), Some(pmt)) = (of(SharingPolicy::Neu10), of(SharingPolicy::Pmt))
            else {
                continue;
            };
            for vnpu in [VnpuId(0), VnpuId(1)] {
                let base = pmt.throughput_rps(vnpu, &self.npu);
                if base > 0.0 {
                    throughput = throughput.max(neu10.throughput_rps(vnpu, &self.npu) / base);
                }
                if let (Some(n), Some(p)) = (neu10.tenant(vnpu), pmt.tenant(vnpu)) {
                    let ours = n.latency_summary().p99;
                    if ours > 0 {
                        p99 = p99.max(p.latency_summary().p99 as f64 / ours as f64);
                    }
                }
            }
            if pmt.me_utilization > 0.0 {
                me_util = me_util.max(neu10.me_utilization / pmt.me_utilization);
            }
        }
        let mut record = Record::default();
        record
            .num("best_throughput_x", throughput)
            .num("best_p99_x", p99)
            .num("best_me_util_x", me_util);
        record
    }
}

/// Sets the `runtime` layer's counts of one traced sweep and returns them.
pub fn runtime_layers(results: &[CollocationResult], layers: &mut Layers) -> Vec<u64> {
    let neu10 = results.iter().filter(|r| r.policy == SharingPolicy::Neu10);
    let (mut harvested, mut work, mut stall) = (0u64, 0u64, 0u64);
    for tenant in neu10.flat_map(|r| r.tenants.iter()) {
        harvested += tenant.harvested_me_cycles;
        work += tenant.me_work_cycles;
        stall += tenant.blocked_by_harvest_cycles;
    }
    let requests: u64 = results
        .iter()
        .flat_map(|r| r.tenants.iter())
        .map(|t| t.completed_requests as u64)
        .sum();
    layers.insert("runtime_requests", requests as f64);
    layers.insert(
        "runtime_harvest_share",
        harvested as f64 / work.max(1) as f64,
    );
    layers.insert("runtime_harvest_stall_cycles", stall as f64);
    vec![requests, harvested, work, stall]
}
