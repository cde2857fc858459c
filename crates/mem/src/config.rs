//! Memory-hierarchy configuration.

use crate::cache::CacheConfig;
use crate::dram::DramConfig;
use crate::tlb::TlbConfig;

/// Configuration of the full memory hierarchy of a simulated chip
/// multiprocessor: per-core L1 instruction/data caches and TLBs, an optional
/// shared L2, the coherence interconnect and the DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Number of cores sharing the hierarchy.
    pub num_cores: usize,
    /// Per-core L1 instruction cache.
    pub l1i: CacheConfig,
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Per-core instruction TLB.
    pub itlb: TlbConfig,
    /// Per-core data TLB.
    pub dtlb: TlbConfig,
    /// Shared L2 cache; `None` removes the L2 entirely (Figure 8 quad-core
    /// 3D-stacked configuration).
    pub l2: Option<CacheConfig>,
    /// DRAM channel.
    pub dram: DramConfig,
    /// Latency of a cache-to-cache transfer over the coherence bus
    /// (supplier's L1 lookup + bus transfer).
    pub cache_to_cache_latency: u64,
    /// Latency of an invalidation/upgrade bus transaction.
    pub upgrade_latency: u64,

    /// Treat every L1 I-cache access as a hit (Figure 4 component isolation).
    pub perfect_l1i: bool,
    /// Treat every I-TLB access as a hit.
    pub perfect_itlb: bool,
    /// Treat every L1 D-cache access as a hit.
    pub perfect_l1d: bool,
    /// Treat every D-TLB access as a hit.
    pub perfect_dtlb: bool,
    /// Treat every L2 access as a hit (no DRAM, no coherence misses).
    pub perfect_l2: bool,
}

impl MemoryConfig {
    /// The paper's Table 1 baseline for `num_cores` cores: 32 KB 4-way L1s,
    /// 4 MB 8-way shared L2 with 12-cycle latency, MOESI coherence, 150-cycle
    /// DRAM behind 10.6 GB/s of off-chip bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    #[must_use]
    pub fn hpca2010_baseline(num_cores: usize) -> Self {
        assert!(num_cores > 0, "a system needs at least one core");
        MemoryConfig {
            num_cores,
            l1i: CacheConfig::l1_32k(),
            l1d: CacheConfig::l1_32k(),
            itlb: TlbConfig::default_itlb(),
            dtlb: TlbConfig::default_dtlb(),
            l2: Some(CacheConfig::l2_4m()),
            dram: DramConfig::hpca2010_baseline(),
            cache_to_cache_latency: 25,
            upgrade_latency: 10,
            perfect_l1i: false,
            perfect_itlb: false,
            perfect_l1d: false,
            perfect_dtlb: false,
            perfect_l2: false,
        }
    }

    /// Figure 8, first configuration: dual-core with a 4 MB L2 and external
    /// DRAM behind a 16-byte memory bus (150-cycle access).
    #[must_use]
    pub fn fig8_dual_core_l2() -> Self {
        let mut c = Self::hpca2010_baseline(2);
        c.dram = DramConfig::external_16b();
        c
    }

    /// Figure 8, second configuration: quad-core without an L2, with
    /// 3D-stacked DRAM behind a 128-byte memory bus (125-cycle access).
    #[must_use]
    pub fn fig8_quad_core_3d() -> Self {
        let mut c = Self::hpca2010_baseline(4);
        c.l2 = None;
        c.dram = DramConfig::stacked_3d();
        c
    }

    /// Marks the instruction side (L1I + I-TLB) perfect.
    #[must_use]
    pub fn with_perfect_instruction_side(mut self) -> Self {
        self.perfect_l1i = true;
        self.perfect_itlb = true;
        self
    }

    /// Marks the data side (L1D + D-TLB + L2) perfect.
    #[must_use]
    pub fn with_perfect_data_side(mut self) -> Self {
        self.perfect_l1d = true;
        self.perfect_dtlb = true;
        self.perfect_l2 = true;
        self
    }

    /// Marks the L2 (and anything below it) perfect while keeping the L1 data
    /// cache real — the Figure 4(a) "effective dispatch rate" setup.
    #[must_use]
    pub fn with_perfect_l2(mut self) -> Self {
        self.perfect_l2 = true;
        self
    }

    /// Validates every component configuration.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure encountered.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cores == 0 {
            return Err("num_cores must be non-zero".to_string());
        }
        self.l1i.validate()?;
        self.l1d.validate()?;
        self.itlb.validate()?;
        self.dtlb.validate()?;
        if let Some(l2) = &self.l2 {
            l2.validate()?;
            if l2.line_bytes != self.l1d.line_bytes {
                return Err("L1 and L2 line sizes must match".to_string());
            }
        }
        self.dram.validate()?;
        if self.cache_to_cache_latency == 0 {
            return Err("cache_to_cache_latency must be non-zero".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = MemoryConfig::hpca2010_baseline(4);
        c.validate().unwrap();
        assert_eq!(c.l1i.size_bytes, 32 * 1024);
        assert_eq!(c.l1d.ways, 4);
        let l2 = c.l2.unwrap();
        assert_eq!(l2.size_bytes, 4 * 1024 * 1024);
        assert_eq!(l2.ways, 8);
        assert_eq!(l2.latency, 12);
        assert_eq!(c.dram.access_latency, 150);
    }

    #[test]
    fn fig8_configurations_differ_as_described() {
        let dual = MemoryConfig::fig8_dual_core_l2();
        let quad = MemoryConfig::fig8_quad_core_3d();
        dual.validate().unwrap();
        quad.validate().unwrap();
        assert_eq!(dual.num_cores, 2);
        assert!(dual.l2.is_some());
        assert_eq!(quad.num_cores, 4);
        assert!(quad.l2.is_none());
        assert!(quad.dram.access_latency < dual.dram.access_latency);
        assert!(quad.dram.bus_bytes_per_cycle > dual.dram.bus_bytes_per_cycle);
    }

    #[test]
    fn perfect_helpers_set_flags() {
        let c = MemoryConfig::hpca2010_baseline(1)
            .with_perfect_instruction_side()
            .with_perfect_l2();
        assert!(c.perfect_l1i && c.perfect_itlb && c.perfect_l2);
        assert!(!c.perfect_l1d);
        let d = MemoryConfig::hpca2010_baseline(1).with_perfect_data_side();
        assert!(d.perfect_l1d && d.perfect_dtlb && d.perfect_l2);
    }

    #[test]
    fn mismatched_line_sizes_rejected() {
        let mut c = MemoryConfig::hpca2010_baseline(1);
        if let Some(l2) = &mut c.l2 {
            l2.line_bytes = 128;
        }
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = MemoryConfig::hpca2010_baseline(0);
    }
}
