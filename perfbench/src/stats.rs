//! Order statistics over timing samples, and the host-speed references.

use std::time::Instant;

/// Host-kernel speed that host-normalized figures are scaled to: about the
/// kernel's speed on the 2-core x86-64 VM the benchmark was defined on, in
/// its fast phases.
pub const REFERENCE_HOST_MOPS: f64 = 100.0;

/// Sets and ways of the host kernel's cache: 1 MiB of tags and 512 KiB of
/// stamps, about the size of the simulator's own hot tables.
const KERNEL_SETS: usize = 1 << 14;
const KERNEL_WAYS: usize = 8;

/// Throughput of a fixed cache-lookup kernel on each of `threads` threads
/// at once, million lookups per second per thread, median of three runs of
/// `iters` lookups: the host speed every host-time figure is normalized by.
///
/// The kernel runs no simulator code, so a change to the simulator cannot
/// move it, but it does what the simulator's hot loops do: data-dependent
/// branches and loads over a table larger than a core's private caches.
/// On a shared host that matters. When neighbours slow this VM down, a
/// tight ALU chain such as [`reference_kernel_mops`] barely notices, while
/// this kernel and the simulator slow down together. It runs on as many
/// threads as the timed work that follows, so it also shares the cores and
/// caches the way that work does.
pub fn host_kernel_mops(iters: u64, threads: usize) -> f64 {
    let rates: Vec<f64> = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..threads.max(1))
            .map(|_| scope.spawn(|| cache_lookups_mops(iters)))
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("the host kernel does not panic"))
            .collect()
    });
    rates.iter().sum::<f64>() / rates.len() as f64
}

/// One thread of [`host_kernel_mops`].
fn cache_lookups_mops(iters: u64) -> f64 {
    let mut tags = vec![u64::MAX; KERNEL_SETS * KERNEL_WAYS];
    let mut stamps = vec![0u32; KERNEL_SETS * KERNEL_WAYS];
    let mut times = Vec::with_capacity(3);
    for _ in 0..3 {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut line = 0u64;
        let mut hits = 0u64;
        for i in 0..iters {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mostly the next line, one access in eight a jump.
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
                    let lru = (1..KERNEL_WAYS)
                        .fold(0, |lru, w| if stamp[w] < stamp[lru] { w } else { lru });
                    set[lru] = tag;
                    lru
                }
            };
            stamp[way] = i as u32;
        }
        std::hint::black_box(hits);
        times.push(t.elapsed().as_secs_f64());
    }
    iters as f64 / median(&times) / 1e6
}

/// Throughput of `perf`'s fixed reference kernel (an xorshift chain that
/// runs no simulator code), million operations per second, best of three
/// runs of `iters` steps: the host-speed context the traced run reports.
pub fn reference_kernel_mops(iters: u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..iters {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        best = best.min(t.elapsed().as_secs_f64());
    }
    iters as f64 / best / 1e6
}

/// Median of `values` (mean of the middle pair for an even count); `0` for
/// no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Tail percentiles a latency may be reported at, highest first. The tail
/// metric is named after the first; a smaller sample falls back down the
/// list.
const TAIL_PERCENTILES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported: fewer
/// and one scheduler stall decides the figure.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples, with the number
/// of samples strictly beyond its rank.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// The highest of [`TAIL_PERCENTILES`] with at least [`MIN_BEYOND`] samples
/// beyond it, as `(percentile, value, samples beyond)`. With too few
/// samples for even the median, the median is returned anyway (the caller
/// reports the count).
pub fn tail_percentile(values: &[f64]) -> (f64, f64, usize) {
    if values.is_empty() {
        return (50.0, 0.0, 0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p| {
        let (value, beyond) = nearest_rank(&sorted, p);
        (p, value, beyond)
    };
    TAIL_PERCENTILES
        .into_iter()
        .map(at)
        .find(|&(_, _, beyond)| beyond >= MIN_BEYOND)
        .unwrap_or_else(|| at(50.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: selection must not rely on input order.
        (0..n).rev().map(|i| i as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1010 samples: rank 1000 leaves exactly ten beyond.
        assert_eq!(tail_percentile(&ramp(1010)), (99.0, 1000.0, 10));
        // 1000 samples: rank 990 leaves ten beyond, still p99.
        assert_eq!(tail_percentile(&ramp(1000)), (99.0, 990.0, 10));
        // 999 samples: rank 990 leaves nine, so fall back to p95.
        assert_eq!(tail_percentile(&ramp(999)).0, 95.0);
    }

    #[test]
    fn small_samples_fall_back_down_the_list() {
        assert_eq!(tail_percentile(&ramp(200)), (95.0, 190.0, 10));
        assert_eq!(tail_percentile(&ramp(100)), (90.0, 90.0, 10));
        assert_eq!(tail_percentile(&ramp(40)), (75.0, 30.0, 10));
        assert_eq!(tail_percentile(&ramp(20)), (50.0, 10.0, 10));
        assert_eq!(tail_percentile(&ramp(5)), (50.0, 3.0, 2));
    }
}
