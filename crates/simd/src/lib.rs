//! Portable branchless lane kernels for the batched hot loops.
//!
//! The simulator's warming and interval hot paths are structure-of-arrays
//! column passes (PR 9); this crate supplies the lane layer those passes
//! vectorize through. Everything here is written so stable rustc/LLVM
//! reliably autovectorizes it **without** `std::arch` or `unsafe`:
//!
//! * fixed-width lane types ([`U64x8`], [`F64x8`], [`Mask8`]) whose
//!   select/compare/mask/reduce ops are straight-line array arithmetic with
//!   no data-dependent branches in the lane body, and
//! * slice kernels ([`find_eq`], [`min_index`], [`max_index`],
//!   [`count_gt_f64`]) built on `chunks_exact` main loops plus scalar
//!   tails, so any slice length (including empty and shorter-than-a-lane)
//!   is handled and the per-lane work stays branch-free.
//!
//! The kernel bodies use the idioms that measured fastest on the default
//! (baseline `x86-64`, SSE2) target, where 64-bit integer vector compares
//! do not exist: equality scans OR-fold a whole lane into one "any match?"
//! bit and only then locate the lane (one well-predicted branch per
//! [`LANE_WIDTH`] elements), and extremum scans use a conditional-move
//! fold. There is no `std::arch` backend: a runtime-detected AVX-512 one
//! was measured against this portable layer and did not speed up the
//! end-to-end warming path, so it was removed.
//!
//! Every kernel is *exact*: its result is defined by the scalar reference
//! loop it replaces (first match, first minimum, …), never by "whatever the
//! vector order produced". The model crates (caches, TLBs, the BTB, the
//! synthetic-stream threshold scan) call these kernels on paths where
//! bit-identical behaviour is pinned by differential tests, so the scalar
//! equivalence documented on each function is a hard contract, property
//! tested in `tests/proptests.rs`.
//!
//! The lane width is a compile-time constant ([`LANE_WIDTH`] = 8): 8×u64
//! fills one AVX-512 register, two AVX2 registers or four NEON registers,
//! and the `chunks_exact` structure lets LLVM pick whatever width the
//! target actually has. There is deliberately no runtime override knob —
//! results never depend on the lane width, so there is nothing a knob
//! could change except making the tails longer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Number of 64-bit lanes the slice kernels process per main-loop step.
pub const LANE_WIDTH: usize = 8;

/// Eight 64-bit unsigned lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct U64x8(pub [u64; LANE_WIDTH]);

/// Eight 64-bit float lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64x8(pub [f64; LANE_WIDTH]);

/// Per-lane boolean mask produced by the lane comparisons.
///
/// Stored as `bool` lanes (LLVM's `i1` vectors) rather than integer
/// sentinels: select and reduce lower to native blend/movemask sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mask8(pub [bool; LANE_WIDTH]);

impl U64x8 {
    /// All lanes set to `v`.
    #[inline]
    #[must_use]
    pub fn splat(v: u64) -> Self {
        U64x8([v; LANE_WIDTH])
    }

    /// Loads the first [`LANE_WIDTH`] elements of `xs`.
    ///
    /// # Panics
    ///
    /// Panics when `xs` is shorter than one lane.
    #[inline]
    #[must_use]
    pub fn from_slice(xs: &[u64]) -> Self {
        let mut lanes = [0u64; LANE_WIDTH];
        lanes.copy_from_slice(&xs[..LANE_WIDTH]);
        U64x8(lanes)
    }

    /// The consecutive indices `base..base + LANE_WIDTH`, as lanes.
    #[inline]
    #[must_use]
    pub fn indices(base: u64) -> Self {
        let mut lanes = [0u64; LANE_WIDTH];
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = base + j as u64;
        }
        U64x8(lanes)
    }

    /// Lane-wise equality mask.
    #[inline]
    #[must_use]
    pub fn eq(self, other: Self) -> Mask8 {
        Mask8(core::array::from_fn(|j| self.0[j] == other.0[j]))
    }

    /// Lane-wise strict less-than mask (`self < other`).
    #[inline]
    #[must_use]
    pub fn lt(self, other: Self) -> Mask8 {
        Mask8(core::array::from_fn(|j| self.0[j] < other.0[j]))
    }

    /// Lane-wise wrapping sum with `other`.
    #[inline]
    #[must_use]
    pub fn wrapping_add(self, other: Self) -> Self {
        U64x8(core::array::from_fn(|j| self.0[j].wrapping_add(other.0[j])))
    }

    /// Horizontal minimum over the lanes.
    #[inline]
    #[must_use]
    pub fn reduce_min(self) -> u64 {
        let mut m = self.0[0];
        for j in 1..LANE_WIDTH {
            m = m.min(self.0[j]);
        }
        m
    }

    /// Horizontal wrapping sum over the lanes.
    #[inline]
    #[must_use]
    pub fn reduce_sum(self) -> u64 {
        let mut s = 0u64;
        for j in 0..LANE_WIDTH {
            s = s.wrapping_add(self.0[j]);
        }
        s
    }
}

impl F64x8 {
    /// All lanes set to `v`.
    #[inline]
    #[must_use]
    pub fn splat(v: f64) -> Self {
        F64x8([v; LANE_WIDTH])
    }

    /// Loads the first [`LANE_WIDTH`] elements of `xs`.
    ///
    /// # Panics
    ///
    /// Panics when `xs` is shorter than one lane.
    #[inline]
    #[must_use]
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut lanes = [0f64; LANE_WIDTH];
        lanes.copy_from_slice(&xs[..LANE_WIDTH]);
        F64x8(lanes)
    }

    /// Lane-wise strict greater-than mask (`self > other`), IEEE semantics
    /// (`NaN` compares false in every lane).
    #[inline]
    #[must_use]
    pub fn gt(self, other: Self) -> Mask8 {
        Mask8(core::array::from_fn(|j| self.0[j] > other.0[j]))
    }
}

impl Mask8 {
    /// Per-lane select: `if_true`'s lane where the mask is set, else
    /// `if_false`'s.
    #[inline]
    #[must_use]
    pub fn select(self, if_true: U64x8, if_false: U64x8) -> U64x8 {
        U64x8(core::array::from_fn(|j| {
            if self.0[j] {
                if_true.0[j]
            } else {
                if_false.0[j]
            }
        }))
    }

    /// Whether any lane is set.
    #[inline]
    #[must_use]
    pub fn any(self) -> bool {
        self.0.iter().any(|&b| b)
    }

    /// Number of set lanes.
    #[inline]
    #[must_use]
    pub fn count(self) -> usize {
        let mut n = 0usize;
        for j in 0..LANE_WIDTH {
            n += usize::from(self.0[j]);
        }
        n
    }

    /// The mask as a bit pattern: bit `j` is lane `j`.
    #[inline]
    #[must_use]
    pub fn bits(self) -> u32 {
        let mut b = 0u32;
        for j in 0..LANE_WIDTH {
            b |= u32::from(self.0[j]) << j;
        }
        b
    }

    /// Index of the lowest set lane, if any.
    #[inline]
    #[must_use]
    pub fn first_set(self) -> Option<usize> {
        let b = self.bits();
        (b != 0).then(|| b.trailing_zeros() as usize)
    }
}

/// Index of the **first** element equal to `needle`, exactly as
/// `xs.iter().position(|&x| x == needle)` would return it.
///
/// Two length regimes, each the measured winner on its inputs:
///
/// * **One lane or less** (a cache set's tag column): plain scalar
///   early-exit scan. The simulator's probes overwhelmingly hit the
///   first ways — fills start at way 0 and hot lines are re-probed at
///   the way they already occupy — so the data-dependent exit is
///   well-predicted and beats any fold that must always touch all eight
///   lanes (measured ~3× on the all-hit L2 probe row).
/// * **Longer slices** (TLB page columns): the main loop OR-folds a whole
///   lane of equality tests into one "any match?" bit and only branches on
///   that aggregate, then rescans the hit chunk back-to-front with
///   conditional moves so the *first* matching lane wins.
#[inline]
#[must_use]
pub fn find_eq(xs: &[u64], needle: u64) -> Option<usize> {
    if xs.len() <= LANE_WIDTH {
        return xs.iter().position(|&x| x == needle);
    }
    let mut chunks = xs.chunks_exact(LANE_WIDTH);
    let mut base = 0usize;
    for c in chunks.by_ref() {
        let mut any = 0u64;
        for &x in c {
            any |= u64::from(x == needle);
        }
        if any != 0 {
            let mut hit = 0usize;
            for (j, &x) in c.iter().enumerate().rev() {
                if x == needle {
                    hit = j;
                }
            }
            return Some(base + hit);
        }
        base += LANE_WIDTH;
    }
    chunks
        .remainder()
        .iter()
        .position(|&x| x == needle)
        .map(|j| base + j)
}

/// Index of the **first** minimum of `xs`, exactly as
/// `xs.iter().enumerate().min_by_key(|(_, &x)| x).map(|(i, _)| i)` would
/// return it (ties resolve to the lowest index). `None` on an empty slice.
///
/// Short slices (a cache set's stamp column) use a strict-compare
/// conditional-move fold; longer ones run two passes — a branchless
/// per-lane-column reduction to the extremal *value*, then [`find_eq`] to
/// its first occurrence, which is by definition the first minimum.
#[inline]
#[must_use]
pub fn min_index(xs: &[u64]) -> Option<usize> {
    select_index(xs, false)
}

/// Index of the **first** maximum of `xs` (ties resolve to the lowest
/// index; note `Iterator::max_by_key` resolves ties to the *highest* index,
/// so callers relying on tie order must hold unique values). `None` on an
/// empty slice.
#[inline]
#[must_use]
pub fn max_index(xs: &[u64]) -> Option<usize> {
    select_index(xs, true)
}

/// Shared first-extremum scan: `maximize` flips the comparison.
#[inline]
fn select_index(xs: &[u64], maximize: bool) -> Option<usize> {
    let (&first, rest) = xs.split_first()?;
    if xs.len() <= LANE_WIDTH {
        // Strict compare keeps the earliest index; compiles to cmov.
        let mut best_v = first;
        let mut best_i = 0usize;
        for (j, &x) in rest.iter().enumerate() {
            let better = if maximize { x > best_v } else { x < best_v };
            if better {
                best_v = x;
                best_i = j + 1;
            }
        }
        return Some(best_i);
    }
    // Two passes: reduce per lane column to the extremal value (no index
    // bookkeeping in the hot loop), then locate its first occurrence.
    let mut acc = [first; LANE_WIDTH];
    let mut chunks = xs.chunks_exact(LANE_WIDTH);
    for c in chunks.by_ref() {
        for (a, &x) in acc.iter_mut().zip(c) {
            *a = if maximize { (*a).max(x) } else { (*a).min(x) };
        }
    }
    let mut best = first;
    for &a in &acc {
        best = if maximize { best.max(a) } else { best.min(a) };
    }
    for &x in chunks.remainder() {
        best = if maximize { best.max(x) } else { best.min(x) };
    }
    find_eq(xs, best)
}

/// Number of elements strictly greater than `pivot`, exactly as
/// `xs.iter().filter(|&&x| pivot < x).count()` (IEEE comparisons: `NaN`
/// elements never count, a `NaN` pivot counts nothing).
///
/// This is the branchless counting scan behind the *head* of the geometric
/// threshold-table classify: on a descending table the count of thresholds
/// above the draw *is* the `partition_point`, with no data-dependent
/// branches for the branch predictor to miss on random draws. Measured
/// caveat (recorded so nobody re-learns it): counting the **full** 64-entry
/// table loses to `partition_point`, whose cmov binary search is already
/// branch-free — the win only appears when the scan covers a short head
/// holding most of the probability mass (see `iss_trace::geo_classify`).
#[inline]
#[must_use]
pub fn count_gt_f64(xs: &[f64], pivot: f64) -> usize {
    let mut chunks = xs.chunks_exact(LANE_WIDTH);
    let mut n = 0usize;
    for c in chunks.by_ref() {
        let mut k = 0usize;
        for &x in c {
            k += usize::from(x > pivot);
        }
        n += k;
    }
    for &x in chunks.remainder() {
        n += usize::from(x > pivot);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_compare_select_reduce_roundtrip() {
        let a = U64x8([5, 1, 9, 9, 0, 7, 3, 2]);
        let b = U64x8::splat(4);
        let lt = a.lt(b);
        assert_eq!(lt.0, [false, true, false, false, true, false, true, true]);
        assert_eq!(lt.count(), 4);
        assert_eq!(lt.bits(), 0b1101_0010);
        assert_eq!(lt.first_set(), Some(1));
        let sel = lt.select(U64x8::splat(1), U64x8::splat(0));
        assert_eq!(sel.reduce_sum(), 4);
        assert_eq!(a.reduce_min(), 0);
        assert_eq!(a.eq(U64x8::splat(9)).bits(), 0b0000_1100);
        assert_eq!(U64x8::indices(10).0, [10, 11, 12, 13, 14, 15, 16, 17]);
        assert_eq!(a.wrapping_add(U64x8::splat(1)).0[0], 6);
    }

    #[test]
    fn find_eq_matches_position_across_lengths() {
        for len in 0..40usize {
            let xs: Vec<u64> = (0..len as u64).map(|i| i % 11).collect();
            for needle in 0..12u64 {
                assert_eq!(
                    find_eq(&xs, needle),
                    xs.iter().position(|&x| x == needle),
                    "len {len} needle {needle}"
                );
            }
        }
    }

    #[test]
    fn min_max_index_match_scalar_fold_with_ties() {
        // Duplicated extremes on both sides of a lane boundary.
        let xs = [7u64, 3, 9, 3, 9, 5, 3, 8, 9, 3, 1, 1];
        assert_eq!(min_index(&xs), Some(10));
        assert_eq!(max_index(&xs), Some(2));
        assert_eq!(min_index(&[]), None);
        assert_eq!(min_index(&[42]), Some(0));
        assert_eq!(max_index(&[42]), Some(0));
        // All-equal: first index wins for both.
        let eq = [6u64; 19];
        assert_eq!(min_index(&eq), Some(0));
        assert_eq!(max_index(&eq), Some(0));
    }

    #[test]
    fn count_gt_counts_strictly_above_pivot() {
        let xs: Vec<f64> = (0..67).map(|i| f64::from(i) / 10.0).collect();
        assert_eq!(count_gt_f64(&xs, 3.05), 36);
        assert_eq!(count_gt_f64(&xs, -1.0), 67);
        assert_eq!(count_gt_f64(&xs, 100.0), 0);
        assert_eq!(count_gt_f64(&[], 0.0), 0);
        assert_eq!(count_gt_f64(&xs, f64::NAN), 0);
        assert_eq!(count_gt_f64(&[f64::NAN, 1.0], 0.5), 1);
    }
}
