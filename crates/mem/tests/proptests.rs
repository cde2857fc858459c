//! Property-based tests for the memory hierarchy: cache structure, TLB, DRAM
//! and the MOESI coherence invariant under arbitrary access interleavings.

use std::collections::VecDeque;

use proptest::prelude::*;

use iss_mem::cache::{Cache, CacheConfig, LineState};
use iss_mem::dram::{DramConfig, DramModel};
use iss_mem::tlb::{Tlb, TlbConfig};
use iss_mem::{MemoryConfig, MemoryHierarchy};

fn tiny_cache() -> Cache {
    Cache::new(&CacheConfig {
        size_bytes: 1024,
        ways: 2,
        line_bytes: 64,
        latency: 1,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A cache never holds more lines than its capacity, and an address
    /// inserted last is always still resident immediately afterwards.
    #[test]
    fn cache_capacity_and_recency(addrs in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut c = tiny_cache();
        for &a in &addrs {
            c.insert(a, LineState::Exclusive);
            prop_assert!(c.probe(a).is_valid(), "the just-inserted line must be resident");
            prop_assert!(c.resident_lines() <= 16, "capacity is 16 lines");
        }
    }

    /// Accessing an address after inserting it is always a hit, regardless of
    /// the other traffic in between, as long as fewer than `ways` other lines
    /// mapped to the same set.
    #[test]
    fn cache_hit_after_insert_without_conflict(addr in 0u64..100_000) {
        let mut c = tiny_cache();
        let line = c.line_addr(addr);
        c.insert(line, LineState::Shared);
        // Touch addresses guaranteed to map to different sets (different
        // index bits within one way's reach).
        for i in 1..8u64 {
            c.insert(line ^ (i << 6), LineState::Shared);
        }
        prop_assert!(c.access(addr).is_valid());
    }

    /// The TLB never reports more resident pages than entries and always hits
    /// on the page touched most recently.
    #[test]
    fn tlb_recency_and_capacity(addrs in proptest::collection::vec(0u64..10_000_000, 1..100)) {
        let cfg = TlbConfig { entries: 8, page_bytes: 4096, miss_latency: 20 };
        let mut t = Tlb::new(&cfg);
        for &a in &addrs {
            let lat = t.access(a);
            prop_assert!(lat == 0 || lat == 20);
            prop_assert!(t.contains(a));
        }
        let (hits, misses) = t.stats();
        prop_assert_eq!(hits + misses, addrs.len() as u64);
    }

    /// DRAM latency is never below the unloaded latency and the channel never
    /// goes back in time (queueing only adds delay).
    #[test]
    fn dram_latency_is_monotone(gaps in proptest::collection::vec(0u64..50, 1..50)) {
        let cfg = DramConfig::hpca2010_baseline();
        let unloaded = cfg.access_latency + cfg.transfer_cycles();
        let mut d = DramModel::new(&cfg);
        let mut now = 0;
        for &g in &gaps {
            now += g;
            let lat = d.access(now);
            prop_assert!(lat >= unloaded, "latency {lat} below unloaded {unloaded}");
        }
    }

    /// The MOESI single-writer / single-owner invariant holds for every line
    /// after an arbitrary interleaving of loads and stores from multiple
    /// cores.
    #[test]
    fn moesi_invariant_under_random_sharing(
        ops in proptest::collection::vec((0usize..4, 0u64..8, any::<bool>()), 1..300),
    ) {
        let mut cfg = MemoryConfig::hpca2010_baseline(4);
        cfg.l1d = CacheConfig { size_bytes: 2048, ways: 2, line_bytes: 64, latency: 0 };
        cfg.l1i = cfg.l1d;
        let mut m = MemoryHierarchy::new(&cfg);
        // Eight shared lines, touched by four cores in arbitrary order.
        for (step, &(core, line, is_store)) in ops.iter().enumerate() {
            let addr = 0x5000_0000 + line * 64;
            m.access_data(core, addr, is_store, step as u64);
            for l in 0..8u64 {
                prop_assert!(
                    m.coherence_invariant_holds(0x5000_0000 + l * 64),
                    "MOESI invariant violated for line {l} after step {step}"
                );
            }
        }
    }

    /// After a store by one core, no other core still holds a valid copy of
    /// the line, regardless of the preceding access pattern.
    #[test]
    fn stores_invalidate_all_other_copies(
        readers in proptest::collection::vec(0usize..4, 1..8),
        writer in 0usize..4,
    ) {
        let cfg = MemoryConfig::hpca2010_baseline(4);
        let mut m = MemoryHierarchy::new(&cfg);
        let addr = 0x9000_0000;
        for (i, &r) in readers.iter().enumerate() {
            m.access_data(r, addr, false, i as u64);
        }
        m.access_data(writer, addr, true, 100);
        for c in 0..4 {
            if c != writer {
                prop_assert_eq!(m.l1d_state(c, addr), LineState::Invalid);
            }
        }
        prop_assert_eq!(m.l1d_state(writer, addr), LineState::Modified);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Tlb::access_batch` — including its same-page run-length batching —
    /// leaves identical latencies, counters, residency and per-page
    /// `contains` answers as the scalar `access` loop, for arbitrary
    /// address sequences cut into arbitrary batch sizes. Addresses are drawn
    /// from a small page range so long same-page runs, revisits and
    /// capacity evictions all occur.
    #[test]
    fn tlb_batch_is_bit_identical_to_scalar(
        pages in proptest::collection::vec(0u64..12, 1..300),
        cut in 1usize..70,
    ) {
        let cfg = TlbConfig { entries: 4, page_bytes: 4096, miss_latency: 30 };
        let addrs: Vec<u64> = pages
            .iter()
            .enumerate()
            .map(|(i, &p)| p * 4096 + (i as u64 * 37) % 4096)
            .collect();
        let mut scalar = Tlb::new(&cfg);
        let expected: Vec<u64> = addrs.iter().map(|&a| scalar.access(a)).collect();
        let mut batched = Tlb::new(&cfg);
        let mut got = Vec::new();
        let mut lat = Vec::new();
        for chunk in addrs.chunks(cut) {
            batched.access_batch(chunk, &mut lat);
            got.extend_from_slice(&lat);
        }
        prop_assert_eq!(got, expected);
        prop_assert_eq!(batched.stats(), scalar.stats());
        prop_assert_eq!(batched.resident_entries(), scalar.resident_entries());
        for &a in &addrs {
            prop_assert_eq!(batched.contains(a), scalar.contains(a));
        }
    }

    /// At the I-TLB and D-TLB default sizes (48 and 64 entries) both the
    /// scalar `access` loop and `access_batch` are exact LRU, checked
    /// against a move-to-front recency list: per-access latency, hit/miss
    /// counts, and residency of every page in the universe after each
    /// batch. Pages come from a universe twice the capacity, so scan hits
    /// far past the first slots and full-capacity evictions both occur;
    /// each page repeats for a short run so the batch path folds same-page
    /// runs too.
    #[test]
    fn tlb_is_lru_at_default_sizes(
        draws in proptest::collection::vec((0u64..1 << 20, 1usize..4), 1..400),
        d_tlb in any::<bool>(),
        cut in 8usize..70,
    ) {
        let entries = if d_tlb { 64 } else { 48 };
        let universe = 2 * entries as u64;
        let cfg = TlbConfig { entries, page_bytes: 4096, miss_latency: 30 };
        let pages: Vec<u64> = draws
            .iter()
            .flat_map(|&(p, run)| std::iter::repeat_n(p % universe, run))
            .collect();

        let mut scalar = Tlb::new(&cfg);
        let mut batched = Tlb::new(&cfg);
        // Oracle: most recent page at the front.
        let mut recency: VecDeque<u64> = VecDeque::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut expected = Vec::new();
        let mut lat = Vec::new();
        for (c, chunk) in pages.chunks(cut).enumerate() {
            expected.clear();
            for &p in chunk {
                if let Some(i) = recency.iter().position(|&q| q == p) {
                    recency.remove(i);
                    hits += 1;
                    expected.push(0);
                } else {
                    if recency.len() == entries {
                        recency.pop_back();
                    }
                    misses += 1;
                    expected.push(cfg.miss_latency);
                }
                recency.push_front(p);
            }
            let addrs: Vec<u64> = chunk
                .iter()
                .enumerate()
                .map(|(i, &p)| p * 4096 + ((c * cut + i) as u64 * 37) % 4096)
                .collect();
            let scalar_lat: Vec<u64> = addrs.iter().map(|&a| scalar.access(a)).collect();
            batched.access_batch(&addrs, &mut lat);
            prop_assert_eq!(&scalar_lat, &expected);
            prop_assert_eq!(&lat, &expected);
            prop_assert_eq!(scalar.stats(), (hits, misses));
            prop_assert_eq!(batched.stats(), (hits, misses));
            for p in 0..universe {
                let resident = recency.contains(&p);
                prop_assert_eq!(scalar.contains(p * 4096), resident, "page {}", p);
                prop_assert_eq!(batched.contains(p * 4096), resident, "page {}", p);
            }
        }
    }

    /// The TLB's residency scan finds a page in whichever slot it holds:
    /// with up to 100 distinct pages resident and no eviction, `contains`
    /// and a hit on `access` agree with `position` over the fill-order
    /// list, for needles present or not, at every slot index.
    #[test]
    fn find_eq_is_position(
        draws in proptest::collection::vec(0u64..200, 0..100),
        needle in 0u64..210,
    ) {
        let cfg = TlbConfig { entries: 100, page_bytes: 4096, miss_latency: 30 };
        let mut tlb = Tlb::new(&cfg);
        let mut slots: Vec<u64> = Vec::new();
        for &p in &draws {
            let expected = if slots.contains(&p) {
                0
            } else {
                slots.push(p);
                cfg.miss_latency
            };
            prop_assert_eq!(tlb.access(p * 4096), expected);
        }
        prop_assert_eq!(tlb.resident_entries(), slots.len());
        let at = slots.iter().position(|&q| q == needle);
        prop_assert_eq!(tlb.contains(needle * 4096 + 5), at.is_some());
        let latency = if at.is_some() { 0 } else { cfg.miss_latency };
        prop_assert_eq!(tlb.access(needle * 4096 + 5), latency);
    }

    /// When several ways tie as candidates — free ways, all stamped zero or
    /// freed by invalidation — an insert fills the lowest-index one; a full
    /// set evicts its least-recently-used way. Checked way by way against
    /// a slot oracle through the order `resident` reports lines in.
    #[test]
    fn extrema_resolve_ties_to_lowest_index(
        ways in 1usize..12,
        ops in proptest::collection::vec((0u64..24, 0u8..3), 1..200),
    ) {
        let mut cache = Cache::new(&CacheConfig {
            size_bytes: 64 * ways as u64,
            ways,
            line_bytes: 64,
            latency: 1,
        });
        // Oracle: per way, the resident line and its last-use clock.
        let mut slots: Vec<Option<(u64, u64)>> = vec![None; ways];
        let mut clock = 0u64;
        for &(line, op) in &ops {
            let addr = line * 64;
            let at = slots.iter().position(|s| s.is_some_and(|(l, _)| l == line));
            match op {
                0 => {
                    clock += 1;
                    let evicted = cache.insert(addr, LineState::Exclusive).map(|e| e.addr);
                    let expected = if at.is_some() {
                        None
                    } else if let Some(free) = slots.iter().position(Option::is_none) {
                        slots[free] = Some((line, clock));
                        None
                    } else {
                        let (lru, _) = slots
                            .iter()
                            .enumerate()
                            .min_by_key(|&(_, s)| s.map(|(_, stamp)| stamp))
                            .expect("ways >= 1");
                        let victim = slots[lru].map(|(l, _)| l * 64);
                        slots[lru] = Some((line, clock));
                        victim
                    };
                    prop_assert_eq!(evicted, expected);
                }
                1 => {
                    clock += 1;
                    let state = cache.access(addr);
                    prop_assert_eq!(state.is_valid(), at.is_some());
                    if let Some(i) = at {
                        slots[i] = Some((line, clock));
                    }
                }
                _ => {
                    cache.set_state(addr, LineState::Invalid);
                    if let Some(i) = at {
                        slots[i] = None;
                    }
                }
            }
            let resident: Vec<u64> = cache.resident().map(|(a, _)| a).collect();
            let expected: Vec<u64> = slots.iter().flatten().map(|&(l, _)| l * 64).collect();
            prop_assert_eq!(resident, expected);
        }
    }
}
