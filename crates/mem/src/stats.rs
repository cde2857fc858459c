//! Memory-hierarchy statistics.

/// Per-core cache and TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreMemoryStats {
    /// L1 instruction cache hits.
    pub l1i_hits: u64,
    /// L1 instruction cache misses.
    pub l1i_misses: u64,
    /// Instruction TLB misses.
    pub itlb_misses: u64,
    /// L1 data cache hits.
    pub l1d_hits: u64,
    /// L1 data cache misses.
    pub l1d_misses: u64,
    /// Data TLB misses.
    pub dtlb_misses: u64,
    /// Accesses satisfied by the shared L2.
    pub l2_hits: u64,
    /// Accesses that missed in the L2 (and went to memory).
    pub l2_misses: u64,
    /// Misses satisfied by another core's cache (coherence misses).
    pub coherence_misses: u64,
    /// Invalidations sent to other cores on stores (upgrades).
    pub upgrades: u64,
    /// Reads that reached DRAM.
    pub dram_reads: u64,
    /// Dirty lines written back towards memory.
    pub writebacks: u64,
    /// Total *contention-free* extra latency cycles the hierarchy handed
    /// out for this core's accesses (instruction + data, beyond the
    /// pipelined L1 hit; DRAM read queueing is excluded). This is the
    /// per-unit memory-pressure signal sampled simulation regresses CPI
    /// against: with queueing excluded it is driven purely by access
    /// addresses and order, so functional warming (whose nominal clock
    /// would fabricate queueing) and the timing models account it
    /// identically.
    pub latency_cycles: u64,
}

impl CoreMemoryStats {
    /// L1 data misses per kilo-instruction.
    #[must_use]
    pub fn l1d_mpki(&self, instructions: u64) -> f64 {
        per_kilo(self.l1d_misses, instructions)
    }

    /// L2 (last-level) misses per kilo-instruction.
    #[must_use]
    pub fn l2_mpki(&self, instructions: u64) -> f64 {
        per_kilo(self.l2_misses, instructions)
    }

    /// Accumulates another core's counters into this one (for aggregation).
    pub fn accumulate(&mut self, other: &CoreMemoryStats) {
        self.l1i_hits += other.l1i_hits;
        self.l1i_misses += other.l1i_misses;
        self.itlb_misses += other.itlb_misses;
        self.l1d_hits += other.l1d_hits;
        self.l1d_misses += other.l1d_misses;
        self.dtlb_misses += other.dtlb_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.coherence_misses += other.coherence_misses;
        self.upgrades += other.upgrades;
        self.dram_reads += other.dram_reads;
        self.writebacks += other.writebacks;
        self.latency_cycles += other.latency_cycles;
    }
}

fn per_kilo(count: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        count as f64 * 1000.0 / instructions as f64
    }
}

/// Hierarchy-wide statistics: per-core counters plus shared-resource totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryStats {
    /// One entry per core.
    pub per_core: Vec<CoreMemoryStats>,
    /// Total DRAM transactions (reads + write-backs).
    pub dram_transactions: u64,
    /// Total cycles spent queueing for the DRAM channel.
    pub dram_queue_cycles: u64,
    /// Average DRAM read latency observed.
    pub dram_average_latency: f64,
}

impl MemoryStats {
    /// Sum of all per-core counters.
    #[must_use]
    pub fn totals(&self) -> CoreMemoryStats {
        let mut t = CoreMemoryStats::default();
        for c in &self.per_core {
            t.accumulate(c);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpki_handles_zero_instructions() {
        let s = CoreMemoryStats {
            l1d_misses: 5,
            ..Default::default()
        };
        assert_eq!(s.l1d_mpki(0), 0.0);
        assert!((s.l1d_mpki(1000) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn accumulate_and_totals() {
        let a = CoreMemoryStats {
            l1d_misses: 3,
            l2_hits: 2,
            ..Default::default()
        };
        let b = CoreMemoryStats {
            l1d_misses: 7,
            dram_reads: 1,
            ..Default::default()
        };
        let stats = MemoryStats {
            per_core: vec![a, b],
            ..Default::default()
        };
        let t = stats.totals();
        assert_eq!(t.l1d_misses, 10);
        assert_eq!(t.l2_hits, 2);
        assert_eq!(t.dram_reads, 1);
    }
}
