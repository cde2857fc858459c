//! Set-associative cache with LRU replacement and MOESI line states.
//!
//! The same structure is used for the private L1 instruction and data caches
//! and the shared L2. Coherence *protocol* decisions live in
//! [`crate::hierarchy`]; this module only stores and updates per-line state.

/// MOESI coherence state of a cache line.
///
/// The L1 instruction caches and the L2 only use a subset of the states
/// (instruction lines are never written), but sharing one enum keeps the
/// machinery uniform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Modified: exclusive and dirty.
    Modified,
    /// Owned: shared and dirty; this cache is responsible for supplying data.
    Owned,
    /// Exclusive: only copy, clean.
    Exclusive,
    /// Shared: possibly one of several copies, clean.
    Shared,
    /// Invalid (not present); never stored, only returned by queries.
    Invalid,
}

impl LineState {
    /// Whether a line in this state holds dirty data that must be written
    /// back on eviction.
    #[must_use]
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::Modified | LineState::Owned)
    }

    /// Whether a line in this state may be read without a bus transaction.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self != LineState::Invalid
    }

    /// Whether a line in this state may be written without a bus transaction.
    #[must_use]
    pub fn is_writable(self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }
}

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Access latency in cycles (added on a hit in this level).
    pub latency: u64,
}

impl CacheConfig {
    /// 32 KB, 4-way, 64 B lines — the paper's L1 caches.
    #[must_use]
    pub fn l1_32k() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 4,
            line_bytes: 64,
            latency: 0,
        }
    }

    /// 4 MB, 8-way, 64 B lines, 12-cycle access — the paper's shared L2.
    #[must_use]
    pub fn l2_4m() -> Self {
        CacheConfig {
            size_bytes: 4 * 1024 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 12,
        }
    }

    /// Number of sets implied by the geometry.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        (self.size_bytes / (self.line_bytes * self.ways as u64)) as usize
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when sizes are zero, not powers of
    /// two, or inconsistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.size_bytes == 0 || self.line_bytes == 0 || self.ways == 0 {
            return Err("cache size, line size and ways must be non-zero".to_string());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".to_string());
        }
        if !self
            .size_bytes
            .is_multiple_of(self.line_bytes * self.ways as u64)
        {
            return Err("cache size must be divisible by ways * line size".to_string());
        }
        let sets = self.num_sets();
        if sets == 0 || !sets.is_power_of_two() {
            return Err(format!(
                "number of sets ({sets}) must be a non-zero power of two"
            ));
        }
        Ok(())
    }
}

/// A line eviction produced by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line-aligned address of the victim.
    pub addr: u64,
    /// State the victim was in (dirty states require a write-back).
    pub state: LineState,
}

/// One way of a set, packed into 16 bytes: the tag, and one word holding
/// the [`LineState`] in its top byte and the last-touch stamp in its low
/// 56 bits (`STAMP_BITS`). Every simulation builds a hierarchy, and the
/// packing keeps the 4 MB L2's 65,536 lines at 1 MB rather than the
/// 1.5 MB that a separate state field (padded to 8 bytes) would take.
///
/// The stamp comes from the cache-wide monotone clock, which stays below
/// 2^56 (7×10^16 accesses; asserted in debug builds). The line with the
/// smallest stamp in a set is the LRU victim — same victim as an ordered
/// LRU list, but a hit is a single store instead of a loop over the ways,
/// which matters on a path taken once per simulated access.
#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    state_stamp: u64,
}

/// Width of the stamp field of `Line::state_stamp`.
const STAMP_BITS: u32 = 56;
const STAMP_MASK: u64 = (1 << STAMP_BITS) - 1;

impl Line {
    fn new(tag: u64, state: LineState, stamp: u64) -> Line {
        Line {
            tag,
            state_stamp: ((state as u64) << STAMP_BITS) | stamp,
        }
    }

    /// Decodes `state as u64`, i.e. `LineState`'s declaration order.
    fn state(self) -> LineState {
        match self.state_stamp >> STAMP_BITS {
            0 => LineState::Modified,
            1 => LineState::Owned,
            2 => LineState::Exclusive,
            3 => LineState::Shared,
            _ => LineState::Invalid,
        }
    }

    fn stamp(self) -> u64 {
        self.state_stamp & STAMP_MASK
    }

    fn set_state(&mut self, state: LineState) {
        *self = Line::new(self.tag, state, self.stamp());
    }

    /// Re-stamps the line, keeping its state.
    fn touch(&mut self, stamp: u64) {
        self.state_stamp = (self.state_stamp & !STAMP_MASK) | stamp;
    }
}

/// Tag stored in an empty way. Real tags are `addr >> line_shift`, so the
/// all-ones pattern can never collide with one (it would require a line at
/// the very top of the address space crossing the u64 boundary). Using a
/// sentinel keeps the hit loop a single tag compare with no validity check.
const INVALID_TAG: u64 = u64::MAX;

/// Set-associative, LRU-replacement cache holding MOESI line states.
///
/// The tag store is one contiguous `num_sets * ways` array (set-major), not a
/// vector of per-set vectors: a whole set's ways land in one or two host
/// cache lines and batched lookups ([`Cache::access_batch`]) walk a flat
/// allocation. Empty ways carry the private `INVALID_TAG` sentinel. Which way a line occupies is
/// unobservable — hits match by tag, and the LRU victim is the unique
/// minimum of strictly increasing stamps — so the layout change cannot
/// affect simulation results.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    set_mask: u64,
    line_shift: u32,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`].
    #[must_use]
    pub fn new(config: &CacheConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cache configuration: {e}"));
        let num_sets = config.num_sets();
        let empty = Line::new(INVALID_TAG, LineState::Invalid, 0);
        Cache {
            config: *config,
            lines: vec![empty; num_sets * config.ways],
            set_mask: num_sets as u64 - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The geometry this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Line-aligns an address.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    /// Total line capacity (warmth denominator).
    #[must_use]
    pub fn capacity_lines(&self) -> usize {
        self.config.num_sets() * self.config.ways
    }

    /// Fraction of the cache holding valid lines, in `0.0..=1.0`.
    #[must_use]
    pub fn warmth(&self) -> f64 {
        self.resident_lines() as f64 / self.capacity_lines().max(1) as f64
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    /// The ways of the set `addr` maps to, as one contiguous slice.
    fn set(&self, addr: u64) -> &[Line] {
        let base = self.set_index(addr) * self.config.ways;
        &self.lines[base..base + self.config.ways]
    }

    fn set_mut(&mut self, addr: u64) -> &mut [Line] {
        let base = self.set_index(addr) * self.config.ways;
        &mut self.lines[base..base + self.config.ways]
    }

    fn tag(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Advances the cache-wide clock and returns the new stamp.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        debug_assert!(self.clock <= STAMP_MASK, "LRU clock overflowed 56 bits");
        self.clock
    }

    /// Looks up `addr`, updating LRU and hit/miss counters. Returns the line
    /// state ([`LineState::Invalid`] on a miss).
    pub fn access(&mut self, addr: u64) -> LineState {
        let tag = self.tag(addr);
        let clock = self.tick();
        let hit = self
            .set_mut(addr)
            .iter_mut()
            .find(|l| l.tag == tag)
            .map(|line| {
                line.touch(clock);
                line.state()
            });
        match hit {
            Some(state) => {
                self.hits += 1;
                state
            }
            None => {
                self.misses += 1;
                LineState::Invalid
            }
        }
    }

    /// Looks up a whole address column, appending each access's line state
    /// to `states` (cleared first).
    ///
    /// Exactly equivalent to calling [`access`](Self::access) once per
    /// address — same clock advance, LRU stamps and hit/miss counters.
    /// Callers that interleave lookups with [`insert`](Self::insert) (the
    /// hierarchy's miss handling) must cut the batch at the insert; inside
    /// one batch the tag arrays are only read and re-stamped, which is what
    /// lets this loop run contiguously.
    pub fn access_batch(&mut self, addrs: &[u64], states: &mut Vec<LineState>) {
        states.clear();
        states.reserve(addrs.len());
        for &addr in addrs {
            let s = self.access(addr);
            states.push(s);
        }
    }

    /// Looks up `addr` without updating LRU or counters (snoop probe).
    #[must_use]
    pub fn probe(&self, addr: u64) -> LineState {
        let tag = self.tag(addr);
        self.set(addr)
            .iter()
            .find(|l| l.tag == tag)
            .map_or(LineState::Invalid, |l| l.state())
    }

    /// Changes the state of a resident line; does nothing when the line is
    /// not present. Setting [`LineState::Invalid`] removes the line.
    pub fn set_state(&mut self, addr: u64, state: LineState) {
        let tag = self.tag(addr);
        let set = self.set_mut(addr);
        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            if state == LineState::Invalid {
                line.tag = INVALID_TAG;
            }
            line.set_state(state);
        }
    }

    /// Inserts `addr` in `state`, evicting the LRU line of the set if needed.
    /// Returns the eviction, if any. Inserting an already-present line just
    /// updates its state.
    pub fn insert(&mut self, addr: u64, state: LineState) -> Option<Eviction> {
        debug_assert!(state.is_valid(), "cannot insert an invalid line");
        let tag = self.tag(addr);
        let line_shift = self.line_shift;
        let clock = self.tick();
        let set = self.set_mut(addr);
        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.set_state(state);
            return None;
        }
        if let Some(slot) = set.iter_mut().find(|l| l.tag == INVALID_TAG) {
            *slot = Line::new(tag, state, clock);
            None
        } else {
            #[expect(
                clippy::expect_used,
                reason = "victim selection over a set proven non-empty by construction (ways >= 1)"
            )]
            let victim_pos = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.stamp())
                .map(|(i, _)| i)
                .expect("set is non-empty");
            let victim = set[victim_pos];
            set[victim_pos] = Line::new(tag, state, clock);
            Some(Eviction {
                addr: victim.tag << line_shift,
                state: victim.state(),
            })
        }
    }

    /// `(hits, misses)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.tag != INVALID_TAG).count()
    }

    /// Iterates over all resident line addresses and their states.
    pub fn resident(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        let shift = self.line_shift;
        self.lines
            .iter()
            .filter(|l| l.tag != INVALID_TAG)
            .map(move |l| (l.tag << shift, l.state()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(&CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn paper_geometries_validate() {
        CacheConfig::l1_32k().validate().unwrap();
        CacheConfig::l2_4m().validate().unwrap();
        assert_eq!(CacheConfig::l1_32k().num_sets(), 128);
        assert_eq!(CacheConfig::l2_4m().num_sets(), 8192);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0x1000), LineState::Invalid);
        c.insert(0x1000, LineState::Exclusive);
        assert_eq!(c.access(0x1000), LineState::Exclusive);
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn same_line_different_offset_hits() {
        let mut c = tiny();
        c.insert(0x1000, LineState::Shared);
        assert_eq!(c.access(0x103f), LineState::Shared);
        assert_eq!(
            c.access(0x1040),
            LineState::Invalid,
            "next line is distinct"
        );
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three addresses mapping to the same set (stride = sets * line = 256).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.insert(a, LineState::Exclusive);
        c.insert(b, LineState::Exclusive);
        c.access(a); // a is now MRU
        let ev = c
            .insert(d, LineState::Exclusive)
            .expect("eviction expected");
        assert_eq!(ev.addr, b, "the LRU victim must be b");
        assert_eq!(c.probe(a), LineState::Exclusive);
        assert_eq!(c.probe(b), LineState::Invalid);
    }

    #[test]
    fn dirty_eviction_reports_state() {
        let mut c = tiny();
        c.insert(0x0000, LineState::Modified);
        c.insert(0x0100, LineState::Shared);
        let ev = c.insert(0x0200, LineState::Exclusive).unwrap();
        assert_eq!(ev.addr, 0x0000);
        assert!(ev.state.is_dirty());
    }

    #[test]
    fn set_state_and_invalidate() {
        let mut c = tiny();
        c.insert(0x40, LineState::Exclusive);
        c.set_state(0x40, LineState::Shared);
        assert_eq!(c.probe(0x40), LineState::Shared);
        c.set_state(0x40, LineState::Invalid);
        assert_eq!(c.probe(0x40), LineState::Invalid);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn probe_does_not_change_stats_or_lru() {
        let mut c = tiny();
        c.insert(0x0000, LineState::Exclusive);
        c.insert(0x0100, LineState::Exclusive);
        let before = c.stats();
        assert_eq!(c.probe(0x0000), LineState::Exclusive);
        assert_eq!(c.stats(), before);
        // 0x0000 was NOT touched by the probe, so it is still LRU and gets
        // evicted next.
        let ev = c.insert(0x0200, LineState::Exclusive).unwrap();
        assert_eq!(ev.addr, 0x0000);
    }

    #[test]
    fn insert_existing_line_updates_state_without_eviction() {
        let mut c = tiny();
        c.insert(0x80, LineState::Shared);
        assert!(c.insert(0x80, LineState::Modified).is_none());
        assert_eq!(c.probe(0x80), LineState::Modified);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        let mut c = Cache::new(&CacheConfig::l1_32k());
        // Touch 64 KB twice: the second pass still misses a lot (capacity).
        for pass in 0..2 {
            for i in 0..1024u64 {
                c.access(i * 64);
                if pass == 0 {
                    c.insert(i * 64, LineState::Exclusive);
                }
            }
        }
        let (_hits, misses) = c.stats();
        assert!(
            misses >= 1024,
            "second pass over a 2x working set must still miss, got {misses}"
        );
    }

    #[test]
    fn batch_access_matches_scalar_loop() {
        let addrs: Vec<u64> = (0..96u64)
            .map(|i| (i % 11) * 64 + (i % 3) * 0x100)
            .collect();
        let mut scalar = tiny();
        let mut batched = tiny();
        for &a in &addrs[..8] {
            scalar.insert(a, LineState::Exclusive);
            batched.insert(a, LineState::Exclusive);
        }
        let expected: Vec<LineState> = addrs.iter().map(|&a| scalar.access(a)).collect();
        let mut got = Vec::new();
        batched.access_batch(&addrs, &mut got);
        assert_eq!(got, expected);
        assert_eq!(batched.stats(), scalar.stats());
        // LRU stamps evolved identically: the next insert picks the same
        // victim in both.
        let ev_s = scalar.insert(0x0300, LineState::Exclusive);
        let ev_b = batched.insert(0x0300, LineState::Exclusive);
        assert_eq!(ev_s, ev_b);
    }

    #[test]
    fn packed_line_keeps_state_and_stamp_apart() {
        let states = [
            LineState::Modified,
            LineState::Owned,
            LineState::Exclusive,
            LineState::Shared,
            LineState::Invalid,
        ];
        assert_eq!(std::mem::size_of::<Line>(), 16);
        for state in states {
            for stamp in [0, 1, STAMP_MASK] {
                let mut line = Line::new(7, state, stamp);
                assert_eq!((line.tag, line.state(), line.stamp()), (7, state, stamp));
                // Re-stamping keeps the state.
                line.touch(STAMP_MASK - stamp);
                assert_eq!((line.state(), line.stamp()), (state, STAMP_MASK - stamp));
                // Changing the state keeps the stamp.
                for other in states {
                    let mut changed = line;
                    changed.set_state(other);
                    assert_eq!(
                        (changed.state(), changed.stamp()),
                        (other, STAMP_MASK - stamp)
                    );
                }
            }
        }
    }

    #[test]
    fn lru_victim_ignores_the_state_bits() {
        // The older line is Shared (state code 3), the newer Modified (code
        // 0): comparing whole packed words would evict the newer line.
        let mut c = tiny();
        c.insert(0x0000, LineState::Shared);
        c.insert(0x0100, LineState::Modified);
        let ev = c.insert(0x0200, LineState::Exclusive);
        assert_eq!(
            ev,
            Some(Eviction {
                addr: 0x0000,
                state: LineState::Shared
            })
        );
    }

    #[test]
    fn line_state_predicates() {
        assert!(LineState::Modified.is_dirty() && LineState::Owned.is_dirty());
        assert!(!LineState::Shared.is_dirty() && !LineState::Exclusive.is_dirty());
        assert!(LineState::Modified.is_writable() && LineState::Exclusive.is_writable());
        assert!(!LineState::Shared.is_writable() && !LineState::Owned.is_writable());
        assert!(!LineState::Invalid.is_valid());
    }

    #[test]
    #[should_panic(expected = "invalid cache configuration")]
    fn bad_geometry_panics() {
        let _ = Cache::new(&CacheConfig {
            size_bytes: 1000,
            ways: 3,
            line_bytes: 60,
            latency: 1,
        });
    }
}
