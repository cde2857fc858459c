//! Statistics of the detailed core models.

/// Statistics accumulated by one detailed (or one-IPC) core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetailedCoreStats {
    /// Instructions committed.
    pub instructions: u64,
    /// Cycles until this core committed its last instruction.
    pub cycles: u64,
    /// Cycles in which no instruction was committed.
    pub commit_stall_cycles: u64,
    /// Cycles fetch was stalled (I-cache miss, misprediction redirect, fetch
    /// queue full).
    pub fetch_stall_cycles: u64,
    /// Cycles dispatch was stalled (ROB/IQ/LSQ full, serialization, or
    /// synchronization).
    pub dispatch_stall_cycles: u64,
    /// Cycles the core was blocked on synchronization.
    pub sync_blocked_cycles: u64,
    /// Branch mispredictions observed at fetch.
    pub branch_mispredictions: u64,
    /// Cycles in which a serializing instruction waited at dispatch for the
    /// window to drain.
    pub serializations: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
}

impl DetailedCoreStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_interval::CoreResult;

    #[test]
    fn ipc_is_instructions_over_cycles() {
        let s = DetailedCoreStats {
            instructions: 300,
            cycles: 100,
            ..Default::default()
        };
        assert!((s.ipc() - 3.0).abs() < 1e-12);
        let r = CoreResult {
            core: 0,
            instructions: 300,
            cycles: 100,
            stats: s,
        };
        assert!((r.ipc() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_zero_ipc() {
        assert_eq!(DetailedCoreStats::default().ipc(), 0.0);
    }
}
