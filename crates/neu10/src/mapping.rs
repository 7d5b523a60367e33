//! vNPU-to-pNPU mapping (§III-C).
//!
//! Two mapping modes are supported:
//!
//! * **hardware-isolated** (spatial): a vNPU is pinned to dedicated MEs, VEs
//!   and memory segments of one physical core, and collocation is admitted
//!   only while the total committed resources fit the core;
//! * **software-isolated** (temporal): vNPUs may oversubscribe the engines of
//!   a core; the mapper load-balances by assigning new vNPUs to the core with
//!   the least committed resources.
//!
//! In both modes the mapper tries to keep the committed EU fraction and the
//! committed memory fraction of a core balanced, so that cores do not end up
//! with all their EUs allocated but most of their memory idle (or vice
//! versa).

use std::collections::BTreeMap;

use npu_sim::{CoreId, NpuConfig};

use crate::error::Neu10Error;
use crate::vnpu::{Vnpu, VnpuId};

/// How a vNPU shares a physical core with its neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingMode {
    /// Dedicated engines and memory segments (spatial isolation).
    HardwareIsolated,
    /// Temporally shared engines with possible oversubscription.
    SoftwareIsolated,
}

/// The placement of one (single-core) vNPU on a physical core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VnpuPlacement {
    /// The placed vNPU.
    pub vnpu: VnpuId,
    /// The physical core hosting it.
    pub core: CoreId,
    /// Matrix engines committed to the vNPU.
    pub mes: usize,
    /// Vector engines committed to the vNPU.
    pub ves: usize,
    /// SRAM segments committed to the vNPU.
    pub sram_segments: u32,
    /// HBM segments committed to the vNPU.
    pub hbm_segments: u32,
    /// The isolation mode of the placement.
    pub mode: MappingMode,
}

/// The resources currently committed on one physical core.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreLoad {
    /// Committed matrix engines (may exceed the physical count under
    /// software isolation).
    pub mes: usize,
    /// Committed vector engines.
    pub ves: usize,
    /// Committed SRAM segments.
    pub sram_segments: u32,
    /// Committed HBM segments.
    pub hbm_segments: u32,
    /// The vNPUs mapped onto the core.
    pub vnpus: Vec<VnpuId>,
}

/// The vNPU-to-pNPU mapper: tracks per-core commitments and places vNPUs.
#[derive(Debug, Clone)]
pub struct PnpuMapper {
    npu: NpuConfig,
    cores: BTreeMap<CoreId, CoreLoad>,
    placements: BTreeMap<VnpuId, VnpuPlacement>,
}

impl PnpuMapper {
    /// Creates a mapper for a board described by `npu`.
    pub fn new(npu: &NpuConfig) -> Self {
        let mut cores = BTreeMap::new();
        for chip in 0..npu.chips {
            for core in 0..npu.cores_per_chip {
                cores.insert(CoreId::new(chip as u16, core as u16), CoreLoad::default());
            }
        }
        PnpuMapper {
            npu: npu.clone(),
            cores,
            placements: BTreeMap::new(),
        }
    }

    /// The placement of `vnpu`, if mapped.
    pub fn placement(&self, vnpu: VnpuId) -> Option<&VnpuPlacement> {
        self.placements.get(&vnpu)
    }

    /// All current placements.
    pub fn placements(&self) -> impl Iterator<Item = &VnpuPlacement> {
        self.placements.values()
    }

    /// Maps a (single-core) vNPU onto a physical core.
    ///
    /// # Errors
    ///
    /// Returns [`Neu10Error::InvalidState`] if the vNPU is already mapped,
    /// [`Neu10Error::InvalidConfig`] for multi-core vNPUs (map each core
    /// separately via multiple vNPU instances, §III-A) and
    /// [`Neu10Error::InsufficientResources`] when no core can host it.
    pub fn map(&mut self, vnpu: &Vnpu, mode: MappingMode) -> Result<VnpuPlacement, Neu10Error> {
        if self.placements.contains_key(&vnpu.id()) {
            return Err(Neu10Error::InvalidState {
                vnpu: vnpu.id(),
                reason: "vNPU is already mapped".to_string(),
            });
        }
        let config = vnpu.config();
        config.validate_against(&self.npu)?;
        if config.total_cores() != 1 {
            return Err(Neu10Error::InvalidConfig(
                "the mapper places one vNPU core at a time; allocate one vNPU per core".to_string(),
            ));
        }
        let sram_segments = config
            .sram_size_per_core
            .div_ceil(self.npu.sram_segment_bytes)
            .max(1) as u32;
        let hbm_segments = config
            .mem_size_per_core
            .div_ceil(self.npu.hbm_segment_bytes)
            .max(1) as u32;

        let core = self
            .select_core(config.num_mes_per_core, config.num_ves_per_core, sram_segments, hbm_segments, mode)
            .ok_or_else(|| Neu10Error::InsufficientResources {
                reason: format!(
                    "no physical core can host {} MEs, {} VEs, {} SRAM segments and {} HBM segments",
                    config.num_mes_per_core, config.num_ves_per_core, sram_segments, hbm_segments
                ),
            })?;

        let load = self.cores.get_mut(&core).expect("core selected from map"); // simlint::allow(P1, reason = "key produced by the min-scan over this same map above")
        load.mes += config.num_mes_per_core;
        load.ves += config.num_ves_per_core;
        load.sram_segments += sram_segments;
        load.hbm_segments += hbm_segments;
        load.vnpus.push(vnpu.id());

        let placement = VnpuPlacement {
            vnpu: vnpu.id(),
            core,
            mes: config.num_mes_per_core,
            ves: config.num_ves_per_core,
            sram_segments,
            hbm_segments,
            mode,
        };
        self.placements.insert(vnpu.id(), placement);
        Ok(placement)
    }

    /// Removes the placement of `vnpu`, releasing its committed resources.
    ///
    /// # Errors
    ///
    /// Returns [`Neu10Error::UnknownVnpu`] if the vNPU is not mapped.
    pub fn unmap(&mut self, vnpu: VnpuId) -> Result<(), Neu10Error> {
        let placement = self
            .placements
            .remove(&vnpu)
            .ok_or(Neu10Error::UnknownVnpu(vnpu))?;
        if let Some(load) = self.cores.get_mut(&placement.core) {
            load.mes = load.mes.saturating_sub(placement.mes);
            load.ves = load.ves.saturating_sub(placement.ves);
            load.sram_segments = load.sram_segments.saturating_sub(placement.sram_segments);
            load.hbm_segments = load.hbm_segments.saturating_sub(placement.hbm_segments);
            load.vnpus.retain(|id| *id != vnpu);
        }
        Ok(())
    }

    /// Chooses the core to host a new vNPU.
    ///
    /// Hardware isolation admits only cores with enough free engines and
    /// memory, preferring the core whose EU-vs-memory commitment stays most
    /// balanced after placement. Software isolation requires only memory
    /// capacity and prefers the least-loaded core.
    fn select_core(
        &self,
        mes: usize,
        ves: usize,
        sram_segments: u32,
        hbm_segments: u32,
        mode: MappingMode,
    ) -> Option<CoreId> {
        let max_sram = self.npu.sram_segments_per_core();
        let max_hbm = self.npu.hbm_segments_per_core();
        let mut best: Option<(CoreId, f64)> = None;
        for (core, load) in &self.cores {
            let fits_memory = load.sram_segments + sram_segments <= max_sram
                && load.hbm_segments + hbm_segments <= max_hbm;
            if !fits_memory {
                continue;
            }
            let score = match mode {
                MappingMode::HardwareIsolated => {
                    let fits_engines = load.mes + mes <= self.npu.mes_per_core
                        && load.ves + ves <= self.npu.ves_per_core;
                    if !fits_engines {
                        continue;
                    }
                    let eu_frac =
                        (load.mes + load.ves + mes + ves) as f64 / self.npu.eus_per_core() as f64;
                    let mem_frac = (load.hbm_segments + hbm_segments) as f64 / max_hbm as f64;
                    (eu_frac - mem_frac).abs()
                }
                MappingMode::SoftwareIsolated => {
                    // Least committed engines first (oversubscription allowed).
                    (load.mes + load.ves) as f64 + (load.hbm_segments as f64 / max_hbm as f64)
                }
            };
            match best {
                Some((_, best_score)) if score >= best_score => {}
                _ => best = Some((*core, score)),
            }
        }
        best.map(|(core, _)| core)
    }

    /// The board's four free totals — MEs, VEs, SRAM segments and HBM
    /// segments, each as its `free_*` method sums it — from one pass over
    /// the cores: what a placement scan reads of every board.
    pub fn free_totals(&self) -> (usize, usize, u32, u32) {
        let npu = &self.npu;
        let (max_sram, max_hbm) = (npu.sram_segments_per_core(), npu.hbm_segments_per_core());
        self.cores
            .values()
            .fold((0, 0, 0, 0), |(mes, ves, sram, hbm), l| {
                (
                    mes + npu.mes_per_core.saturating_sub(l.mes),
                    ves + npu.ves_per_core.saturating_sub(l.ves),
                    sram + max_sram.saturating_sub(l.sram_segments),
                    hbm + max_hbm.saturating_sub(l.hbm_segments),
                )
            })
    }

    /// Total free MEs across the board under hardware isolation.
    pub fn free_mes(&self) -> usize {
        self.cores
            .values()
            .map(|l| self.npu.mes_per_core.saturating_sub(l.mes))
            .sum()
    }

    /// Total free VEs across the board under hardware isolation.
    pub fn free_ves(&self) -> usize {
        self.cores
            .values()
            .map(|l| self.npu.ves_per_core.saturating_sub(l.ves))
            .sum()
    }

    /// Total free SRAM segments across the board.
    pub fn free_sram_segments(&self) -> u32 {
        let max = self.npu.sram_segments_per_core();
        self.cores
            .values()
            .map(|l| max.saturating_sub(l.sram_segments))
            .sum()
    }

    /// Total free HBM segments across the board.
    pub fn free_hbm_segments(&self) -> u32 {
        let max = self.npu.hbm_segments_per_core();
        self.cores
            .values()
            .map(|l| max.saturating_sub(l.hbm_segments))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vnpu::VnpuConfig;

    fn vnpu(id: u32, mes: usize, ves: usize, hbm_gib: u64) -> Vnpu {
        Vnpu::new(
            VnpuId(id),
            VnpuConfig::single_core(mes, ves, 4 << 20, hbm_gib << 30),
        )
    }

    #[test]
    fn hardware_isolated_vnpus_pack_within_core_limits() {
        let npu = NpuConfig::single_core();
        let mut mapper = PnpuMapper::new(&npu);
        let a = mapper
            .map(&vnpu(1, 2, 2, 8), MappingMode::HardwareIsolated)
            .unwrap();
        let b = mapper
            .map(&vnpu(2, 2, 2, 8), MappingMode::HardwareIsolated)
            .unwrap();
        assert_eq!(a.core, b.core, "both halves fit on the single core");
        // A third hardware-isolated vNPU cannot fit.
        assert!(mapper
            .map(&vnpu(3, 1, 1, 1), MappingMode::HardwareIsolated)
            .is_err());
        assert_eq!(mapper.free_mes(), 0);
        // Software isolation still admits it (oversubscription).
        mapper
            .map(&vnpu(3, 1, 1, 1), MappingMode::SoftwareIsolated)
            .unwrap();
    }

    #[test]
    fn unmap_releases_resources() {
        let npu = NpuConfig::single_core();
        let mut mapper = PnpuMapper::new(&npu);
        mapper
            .map(&vnpu(1, 4, 4, 8), MappingMode::HardwareIsolated)
            .unwrap();
        assert_eq!(mapper.free_mes(), 0);
        mapper.unmap(VnpuId(1)).unwrap();
        assert_eq!(mapper.free_mes(), 4);
        assert_eq!(mapper.free_ves(), 4);
        assert!(mapper.unmap(VnpuId(1)).is_err());
    }

    #[test]
    fn balanced_placement_pairs_big_eu_with_big_memory() {
        // Two cores; one already hosts an EU-heavy/memory-light vNPU. A new
        // memory-heavy vNPU should land on that same core to balance it.
        let npu = NpuConfig {
            chips: 1,
            cores_per_chip: 2,
            ..NpuConfig::tpu_v4_like()
        };
        let mut mapper = PnpuMapper::new(&npu);
        let eu_heavy = vnpu(1, 3, 3, 2);
        let first = mapper
            .map(&eu_heavy, MappingMode::HardwareIsolated)
            .unwrap();
        let memory_heavy = vnpu(2, 1, 1, 48);
        let second = mapper
            .map(&memory_heavy, MappingMode::HardwareIsolated)
            .unwrap();
        assert_eq!(first.core, second.core);
    }

    #[test]
    fn software_isolation_load_balances_across_cores() {
        let npu = NpuConfig {
            chips: 1,
            cores_per_chip: 2,
            ..NpuConfig::tpu_v4_like()
        };
        let mut mapper = PnpuMapper::new(&npu);
        let a = mapper
            .map(&vnpu(1, 4, 4, 4), MappingMode::SoftwareIsolated)
            .unwrap();
        let b = mapper
            .map(&vnpu(2, 4, 4, 4), MappingMode::SoftwareIsolated)
            .unwrap();
        assert_ne!(a.core, b.core, "second vNPU goes to the emptier core");
    }

    #[test]
    fn double_mapping_is_rejected() {
        let npu = NpuConfig::single_core();
        let mut mapper = PnpuMapper::new(&npu);
        let v = vnpu(1, 1, 1, 1);
        mapper.map(&v, MappingMode::HardwareIsolated).unwrap();
        assert!(matches!(
            mapper.map(&v, MappingMode::HardwareIsolated),
            Err(Neu10Error::InvalidState { .. })
        ));
    }

    #[test]
    fn memory_capacity_is_enforced_even_with_oversubscription() {
        let npu = NpuConfig::single_core();
        let mut mapper = PnpuMapper::new(&npu);
        mapper
            .map(&vnpu(1, 1, 1, 60), MappingMode::SoftwareIsolated)
            .unwrap();
        // Only 4 GiB of HBM segments remain; a 16 GiB vNPU cannot map.
        assert!(mapper
            .map(&vnpu(2, 1, 1, 16), MappingMode::SoftwareIsolated)
            .is_err());
    }
}
