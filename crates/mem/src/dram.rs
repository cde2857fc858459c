//! Main-memory model with off-chip bandwidth contention.
//!
//! Table 1 of the paper specifies a 150-cycle DRAM access time and a
//! 10.6 GB/s peak off-chip bandwidth shared by all cores. The model here is a
//! single memory channel: each line transfer occupies the channel for
//! `line_bytes / bus_bytes_per_cycle` cycles, requests queue behind each
//! other, and the observed latency is the queueing delay plus the fixed
//! access time plus the transfer time. This is exactly the kind of shared
//! resource whose conflict behaviour the multi-core evaluation (Figures 6-8)
//! depends on.

use std::collections::BTreeMap;

/// DRAM timing and bandwidth parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Fixed access latency in cycles (row activation + column access).
    pub access_latency: u64,
    /// Off-chip bus width in bytes transferred per core cycle. The paper's
    /// 10.6 GB/s at a ~2 GHz core clock is roughly 5.3 bytes per cycle.
    pub bus_bytes_per_cycle: f64,
    /// Cache line size in bytes (transfer granularity).
    pub line_bytes: u64,
}

impl DramConfig {
    /// The paper's baseline: 150-cycle access, 10.6 GB/s peak bandwidth
    /// (~5.3 B per 2 GHz cycle), 64 B lines.
    #[must_use]
    pub fn hpca2010_baseline() -> Self {
        DramConfig {
            access_latency: 150,
            bus_bytes_per_cycle: 5.3,
            line_bytes: 64,
        }
    }

    /// The 3D-stacked DRAM of the Figure 8 case study: 125-cycle access
    /// behind a 128-byte wide bus.
    #[must_use]
    pub fn stacked_3d() -> Self {
        DramConfig {
            access_latency: 125,
            bus_bytes_per_cycle: 128.0,
            line_bytes: 64,
        }
    }

    /// External DRAM behind a 16-byte bus (Figure 8, dual-core configuration).
    #[must_use]
    pub fn external_16b() -> Self {
        DramConfig {
            access_latency: 150,
            bus_bytes_per_cycle: 16.0,
            line_bytes: 64,
        }
    }

    /// Cycles one line transfer occupies the channel.
    #[must_use]
    pub fn transfer_cycles(&self) -> u64 {
        (self.line_bytes as f64 / self.bus_bytes_per_cycle)
            .ceil()
            .max(1.0) as u64
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem for non-positive parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.access_latency == 0 {
            return Err("DRAM access latency must be non-zero".to_string());
        }
        if self.bus_bytes_per_cycle <= 0.0 {
            return Err("bus bandwidth must be positive".to_string());
        }
        if self.line_bytes == 0 {
            return Err("line size must be non-zero".to_string());
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::hpca2010_baseline()
    }
}

/// Single-channel DRAM modeling bandwidth contention with a free-gap
/// reservation schedule.
///
/// Requests do not necessarily arrive in time order: the interval model's
/// overlap scan issues chained loads at their dependence-ready time, which
/// can lie hundreds of cycles past the current multi-core cycle, while other
/// cores keep issuing at the present. A single busy-until pointer would let
/// such a future reservation delay every present-time request behind it, so
/// the channel instead keeps the busy time it has reserved and places each
/// request into the earliest free slot at or after its own arrival time.
///
/// Busy time is kept as maximal busy runs, not one interval per transfer.
/// Every request occupies the channel for the same `transfer` cycles, so
/// its start is the earliest `s >= arrival` with `[s, s + transfer)` free:
/// a function of the union of busy time alone, which merging a reservation
/// into the runs it touches leaves as it is. A free gap shorter than
/// `transfer` between two runs can hold no request, so it is absorbed into
/// the runs as well. Consecutive runs are then at least `transfer` cycles
/// apart, and placing a request takes at most two lookups however long the
/// backlog. The per-transfer schedule survives only as the oracle of this
/// module's tests.
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    /// Channel cycles of one line transfer ([`DramConfig::transfer_cycles`]).
    transfer: u64,
    /// Busy runs, keyed by start cycle, mapped to their end: sorted,
    /// disjoint and separated by free gaps of at least `transfer` cycles.
    busy: BTreeMap<u64, u64>,
    /// The latest end of any run reserved so far: no run starts at or
    /// after it.
    tail: u64,
    /// Largest arrival time observed (drives pruning of stale runs).
    horizon: u64,
    accesses: u64,
    total_queue_cycles: u64,
    /// Queueing cycles incurred by reads alone (the component of a
    /// requester-visible latency that depends on channel contention, i.e.
    /// on timing rather than on access addresses and order).
    read_queue_cycles: u64,
    total_latency: u64,
}

/// Runs ending this many cycles before the newest arrival can no longer
/// conflict with any request (chain-deferred arrivals lag the present by
/// far less) and are pruned.
const PRUNE_LAG: u64 = 1 << 20;

impl DramModel {
    /// Creates an idle DRAM channel.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DramConfig::validate`].
    #[must_use]
    pub fn new(config: &DramConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid DRAM configuration: {e}"));
        DramModel {
            config: *config,
            transfer: config.transfer_cycles(),
            busy: BTreeMap::new(),
            tail: 0,
            horizon: 0,
            accesses: 0,
            total_queue_cycles: 0,
            read_queue_cycles: 0,
            total_latency: 0,
        }
    }

    /// The configuration of this channel.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Reserves one transfer in the earliest free slot starting at or after
    /// `arrival`; returns the start of the reservation.
    fn reserve(&mut self, arrival: u64) -> u64 {
        let t = self.transfer;
        // Runs are disjoint, so the latest-starting run that begins before
        // `arrival + t` is the only possible conflict. If it ends after
        // `arrival`, the slot at its end is free: the next run starts at
        // least `t` cycles later.
        let before = self
            .busy
            .range(..arrival + t)
            .next_back()
            .map(|(&s, &e)| (s, e));
        let start = match before {
            Some((_, end)) if end > arrival => end,
            _ => arrival,
        };
        // Merge the reservation with a neighbouring run less than `t` cycles
        // away: a gap that short can hold no transfer. No run starts at or
        // after `tail`, so a reservation at the end of the schedule (any
        // request that finds no later reservation) skips the second lookup.
        let mut run = (start, start + t);
        if let Some((s, _)) = before.filter(|&(_, e)| start - e < t) {
            run.0 = s;
        }
        if run.1 < self.tail {
            if let Some((&s, &e)) = self.busy.range(run.1..run.1 + t).next() {
                self.busy.remove(&s);
                run.1 = e;
            }
        }
        self.busy.insert(run.0, run.1);
        self.tail = self.tail.max(run.1);
        self.horizon = self.horizon.max(arrival);
        if self.accesses.is_multiple_of(1024) {
            let cutoff = self.horizon.saturating_sub(PRUNE_LAG);
            self.busy.retain(|_, end| *end >= cutoff);
        }
        start
    }

    /// Performs one line access without competing for the channel: the
    /// requester is charged the contention-free latency and no busy
    /// interval is reserved. Functional warming takes this path — its
    /// compressed clock (one nominal cycle per instruction) would saturate
    /// the reservation schedule with fictitious queueing, and any channel
    /// backlog would have drained during the fast-forwarded gap anyway.
    pub fn access_unqueued(&mut self) -> u64 {
        let latency = self.config.access_latency + self.transfer;
        self.accesses += 1;
        self.total_latency += latency;
        latency
    }

    /// [`DramModel::writeback`] without channel competition (see
    /// [`DramModel::access_unqueued`]).
    pub fn writeback_unqueued(&mut self) {
        self.accesses += 1;
    }

    /// Performs one line access starting at cycle `now`; returns the total
    /// latency observed by the requester (queueing + access + transfer).
    pub fn access(&mut self, now: u64) -> u64 {
        let start = self.reserve(now);
        let queue = start - now;
        let latency = queue + self.config.access_latency + self.transfer;
        self.accesses += 1;
        self.total_queue_cycles += queue;
        self.read_queue_cycles += queue;
        self.total_latency += latency;
        latency
    }

    /// Performs a write-back: occupies the channel but the requester does not
    /// wait for it. Returns the queueing delay absorbed by the channel.
    pub fn writeback(&mut self, now: u64) -> u64 {
        let start = self.reserve(now);
        let queue = start - now;
        self.accesses += 1;
        self.total_queue_cycles += queue;
        queue
    }

    /// Queueing cycles incurred by read accesses so far (see the field
    /// docs).
    #[must_use]
    pub fn read_queue_cycles(&self) -> u64 {
        self.read_queue_cycles
    }

    /// Number of channel transactions so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Average observed read latency.
    #[must_use]
    pub fn average_latency(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.accesses as f64
        }
    }

    /// Total cycles requests spent queueing for the channel.
    #[must_use]
    pub fn total_queue_cycles(&self) -> u64 {
        self.total_queue_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latency_is_access_plus_transfer() {
        let cfg = DramConfig::hpca2010_baseline();
        let mut d = DramModel::new(&cfg);
        let lat = d.access(0);
        assert_eq!(lat, 150 + cfg.transfer_cycles());
    }

    #[test]
    fn baseline_transfer_is_about_12_cycles() {
        // 64 B / 5.3 B-per-cycle = 12.07... -> 13 with ceil; the paper's
        // 10.6 GB/s budget corresponds to roughly a dozen cycles per line.
        let t = DramConfig::hpca2010_baseline().transfer_cycles();
        assert!((12..=13).contains(&t), "transfer cycles {t}");
    }

    #[test]
    fn back_to_back_accesses_queue() {
        let cfg = DramConfig::external_16b();
        let mut d = DramModel::new(&cfg);
        let l1 = d.access(0);
        let l2 = d.access(0);
        assert!(l2 > l1, "the second access must see queueing delay");
        assert_eq!(l2 - l1, cfg.transfer_cycles());
        assert!(d.total_queue_cycles() > 0);
    }

    #[test]
    fn wide_bus_reduces_contention() {
        let mut narrow = DramModel::new(&DramConfig::external_16b());
        let mut wide = DramModel::new(&DramConfig::stacked_3d());
        let mut narrow_total = 0;
        let mut wide_total = 0;
        for _ in 0..16 {
            narrow_total += narrow.access(0);
            wide_total += wide.access(0);
        }
        assert!(
            wide_total < narrow_total,
            "128-byte bus ({wide_total}) must outperform 16-byte bus ({narrow_total}) under load"
        );
    }

    #[test]
    fn idle_gaps_do_not_queue() {
        let cfg = DramConfig::hpca2010_baseline();
        let mut d = DramModel::new(&cfg);
        let l1 = d.access(0);
        let l2 = d.access(10_000);
        assert_eq!(l1, l2);
        assert_eq!(d.total_queue_cycles(), 0);
    }

    #[test]
    fn writeback_occupies_channel_but_is_async() {
        let cfg = DramConfig::external_16b();
        let mut d = DramModel::new(&cfg);
        d.writeback(0);
        let lat = d.access(0);
        assert_eq!(lat, cfg.access_latency + 2 * cfg.transfer_cycles());
    }

    #[test]
    fn average_latency_accumulates() {
        let mut d = DramModel::new(&DramConfig::hpca2010_baseline());
        assert_eq!(d.average_latency(), 0.0);
        d.access(0);
        assert!(d.average_latency() > 0.0);
        assert_eq!(d.accesses(), 1);
    }

    /// The per-transfer schedule the busy runs replace: one interval per
    /// transfer, found by walking the backlog interval by interval, pruned
    /// on the same cadence (every 1024th channel transaction).
    struct PerTransfer {
        config: DramConfig,
        busy: BTreeMap<u64, u64>,
        horizon: u64,
        accesses: u64,
        total_queue_cycles: u64,
        read_queue_cycles: u64,
    }

    impl PerTransfer {
        fn new(config: &DramConfig) -> Self {
            PerTransfer {
                config: *config,
                busy: BTreeMap::new(),
                horizon: 0,
                accesses: 0,
                total_queue_cycles: 0,
                read_queue_cycles: 0,
            }
        }

        /// Reserves one transfer; returns its queueing delay.
        fn queue(&mut self, arrival: u64) -> u64 {
            let dur = self.config.transfer_cycles();
            let mut start = arrival;
            while let Some(end) = self
                .busy
                .range(..start + dur)
                .next_back()
                .map(|(_, &end)| end)
                .filter(|&end| end > start)
            {
                start = end;
            }
            self.busy.insert(start, start + dur);
            self.horizon = self.horizon.max(arrival);
            if self.accesses.is_multiple_of(1024) {
                let cutoff = self.horizon.saturating_sub(PRUNE_LAG);
                self.busy.retain(|_, end| *end >= cutoff);
            }
            self.accesses += 1;
            self.total_queue_cycles += start - arrival;
            start - arrival
        }

        fn access(&mut self, now: u64) -> u64 {
            let queue = self.queue(now);
            self.read_queue_cycles += queue;
            queue + self.config.access_latency + self.config.transfer_cycles()
        }
    }

    /// Asserts that the busy runs are sorted, disjoint, separated by at
    /// least one transfer time of free cycles and end by `tail`.
    fn assert_runs_coalesced(d: &DramModel) {
        let mut prev_end: Option<u64> = None;
        for (&s, &e) in &d.busy {
            assert!(s < e, "empty run [{s}, {e})");
            assert!(e <= d.tail, "run [{s}, {e}) ends past tail {}", d.tail);
            if let Some(p) = prev_end {
                assert!(p + d.transfer <= s, "run ending {p} too close to {s}");
            }
            prev_end = Some(e);
        }
    }

    /// The busy runs place every request where the per-transfer schedule
    /// does, on all three presets: seeded streams of accesses, write-backs
    /// and unqueued transactions, at the present or chain-deferred up to
    /// 3000 cycles ahead, in saturating bursts and with idle jumps that
    /// carry the horizon well past `PRUNE_LAG`.
    #[test]
    fn busy_runs_match_the_per_transfer_schedule() {
        for config in [
            DramConfig::hpca2010_baseline(),
            DramConfig::external_16b(),
            DramConfig::stacked_3d(),
        ] {
            let t = config.transfer_cycles();
            let mut d = DramModel::new(&config);
            let mut oracle = PerTransfer::new(&config);
            let mut rng = 0x9E37_79B9_7F4A_7C15_u64 ^ t;
            let mut backlog = 0;
            let mut now = 0u64;
            for step in 0..12_000 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                now += match rng % 64 {
                    0 => 50_000 + rng % 200_000,
                    1..=40 => rng % t,
                    _ => rng % (4 * t),
                };
                let arrival = now
                    + if rng.is_multiple_of(5) {
                        (rng >> 8) % 3_000
                    } else {
                        0
                    };
                match (rng >> 32) % 8 {
                    0 => {
                        d.access_unqueued();
                        oracle.accesses += 1;
                    }
                    1 | 2 => assert_eq!(
                        d.writeback(arrival),
                        oracle.queue(arrival),
                        "step {step}: write-back at {arrival}"
                    ),
                    _ => assert_eq!(
                        d.access(arrival),
                        oracle.access(arrival),
                        "step {step}: access at {arrival}"
                    ),
                }
                assert_eq!(d.total_queue_cycles(), oracle.total_queue_cycles);
                assert_eq!(d.read_queue_cycles(), oracle.read_queue_cycles);
                assert_runs_coalesced(&d);
                backlog = backlog.max(oracle.busy.len());
            }
            assert_eq!(d.accesses(), oracle.accesses);
            assert!(now > 4 * PRUNE_LAG, "horizon {now} stayed short of pruning");
            assert!(
                backlog > 100,
                "backlog of {backlog} transfers at most (T = {t})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid DRAM configuration")]
    fn zero_bandwidth_panics() {
        let _ = DramModel::new(&DramConfig {
            access_latency: 100,
            bus_bytes_per_cycle: 0.0,
            line_bytes: 64,
        });
    }
}
