//! The workspace's single wall-clock portal.
//!
//! Simulated timing must never depend on the host's clock: records are
//! required to be bit-identical at any worker count, and a stray
//! `Instant::now()` inside model code is exactly the kind of
//! nondeterminism that survives code review unnoticed. The rule this
//! repo enforces (statically, via clippy's `disallowed-types` in
//! `clippy.toml`) is that **only this module** may read the wall clock;
//! everything else — simulators accumulating `host_seconds`, the perf
//! harness, the sampled runner's phase breakdown — measures elapsed host
//! time through [`HostTimer`], which is observable in reports but never
//! feeds back into simulated state.
//!
//! The type is deliberately minimal: start a timer, read elapsed seconds.
//! There is no way to obtain an absolute timestamp, compare timers, or
//! branch on the clock — an elapsed reading is a reporting quantity, not
//! an input. Next to it sits [`host_kernel_mops`], the one host-speed
//! kernel that elapsed readings are normalized by.
//!
//! ```
//! use iss_trace::host_time::HostTimer;
//!
//! let timer = HostTimer::start();
//! let elapsed = timer.elapsed_seconds();
//! assert!(elapsed >= 0.0);
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "the HostTimer portal itself; elapsed host seconds never feed back into simulated state"
)]

use std::time::Instant;

/// A monotonic elapsed-host-seconds stopwatch — the only sanctioned way
/// to observe wall-clock time anywhere in the workspace.
#[derive(Debug, Clone, Copy)]
pub struct HostTimer {
    start: Instant,
}

impl HostTimer {
    /// Starts a timer at the current host instant.
    #[must_use]
    pub fn start() -> Self {
        HostTimer {
            start: Instant::now(),
        }
    }

    /// Seconds of host wall-clock time elapsed since [`HostTimer::start`].
    #[must_use]
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Sets and ways of the host kernel's cache: 1 MiB of tags and 512 KiB of
/// stamps, about the size of the simulator's own hot tables.
const KERNEL_SETS: usize = 1 << 14;
const KERNEL_WAYS: usize = 8;

/// Throughput of a fixed single-threaded cache-lookup kernel, million
/// lookups per second, median of three runs of `iters` lookups: the host
/// speed that host-normalized throughput figures are divided by.
///
/// The kernel runs no simulator code, so a change to the simulator cannot
/// move it, but it does what the simulator's hot loops do: data-dependent
/// branches and loads over a table larger than a core's private caches.
/// On a shared host that matters: when neighbours slow the machine down, a
/// tight ALU chain barely notices, while this kernel and the simulator
/// slow down together.
#[must_use]
pub fn host_kernel_mops(iters: u64) -> f64 {
    let mut tags = vec![u64::MAX; KERNEL_SETS * KERNEL_WAYS];
    let mut stamps = vec![0u32; KERNEL_SETS * KERNEL_WAYS];
    let mut times = [0.0f64; 3];
    for time in &mut times {
        let timer = HostTimer::start();
        std::hint::black_box(cache_lookup_hits(&mut tags, &mut stamps, iters));
        *time = timer.elapsed_seconds();
    }
    times.sort_by(f64::total_cmp);
    iters as f64 / times[1] / 1e6
}

/// One run of [`host_kernel_mops`]: `iters` lookups into an 8-way LRU tag
/// table (`tags`, with `stamps` for recency), mostly the next line and one
/// access in eight a pseudo-random jump. Returns the hit count, which pins
/// the kernel's work.
fn cache_lookup_hits(tags: &mut [u64], stamps: &mut [u32], iters: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut line = 0u64;
    let mut hits = 0u64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        line = if x.is_multiple_of(8) {
            (x >> 20) % (1 << 22)
        } else {
            line + 1
        };
        let base = (line as usize % KERNEL_SETS) * KERNEL_WAYS;
        let tag = line / KERNEL_SETS as u64;
        let set = &mut tags[base..base + KERNEL_WAYS];
        let stamp = &mut stamps[base..base + KERNEL_WAYS];
        let way = match set.iter().position(|&t| t == tag) {
            Some(way) => {
                hits += 1;
                way
            }
            None => {
                let lru =
                    (1..KERNEL_WAYS).fold(0, |lru, w| if stamp[w] < stamp[lru] { w } else { lru });
                set[lru] = tag;
                lru
            }
        };
        stamp[way] = i as u32;
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_kernel_work_is_pinned() {
        // The hit count fixes what the kernel does (2^18 lookups overflow
        // the table, so LRU eviction is covered too). If a rewrite changes
        // it, every host-normalized floor rescales: re-baseline on purpose.
        let mut tags = vec![u64::MAX; KERNEL_SETS * KERNEL_WAYS];
        let mut stamps = vec![0u32; KERNEL_SETS * KERNEL_WAYS];
        assert_eq!(cache_lookup_hits(&mut tags, &mut stamps, 1 << 18), 5763);
        let mops = host_kernel_mops(1 << 12);
        assert!(mops.is_finite() && mops > 0.0, "got {mops}");
    }

    #[test]
    fn elapsed_is_monotonic_and_nonnegative() {
        let t = HostTimer::start();
        let a = t.elapsed_seconds();
        let b = t.elapsed_seconds();
        assert!(a >= 0.0);
        assert!(b >= a, "elapsed readings must not go backwards");
    }

    #[test]
    fn timers_are_independent() {
        let outer = HostTimer::start();
        std::hint::black_box((0..1000).sum::<u64>());
        let inner = HostTimer::start();
        // Sample the inner (shorter-lived) timer first: the outer reading
        // then covers a strict superset of the inner interval, so the
        // comparison cannot be raced by the gap between the two samples.
        let inner_elapsed = inner.elapsed_seconds();
        assert!(outer.elapsed_seconds() >= inner_elapsed);
    }
}
