//! Differential property tests for the lane layer: every lane op and every
//! slice kernel against the scalar reference loop that defines it.
//!
//! The kernels' documented contract is *exact* scalar equivalence — first
//! match, first minimum, strict counts — across every length regime the
//! dispatch logic distinguishes (scalar early-exit at one lane or less, and
//! the portable chunked fold). Lengths here are drawn from `0..100`, which
//! straddles both regimes plus the empty slice and every
//! non-multiple-of-`LANE_WIDTH` tail; values are drawn from a narrow range
//! so duplicates (and therefore tie-breaking) occur constantly.

use iss_simd::{count_gt_f64, find_eq, max_index, min_index, F64x8, Mask8, U64x8, LANE_WIDTH};
use proptest::prelude::*;

/// First-minimum reference: lowest index among the minima.
fn ref_min_index(xs: &[u64]) -> Option<usize> {
    let min = *xs.iter().min()?;
    xs.iter().position(|&x| x == min)
}

/// First-maximum reference: lowest index among the maxima.
fn ref_max_index(xs: &[u64]) -> Option<usize> {
    let max = *xs.iter().max()?;
    xs.iter().position(|&x| x == max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `find_eq` is `position` on every length and needle, present or not.
    #[test]
    fn find_eq_is_position(
        xs in proptest::collection::vec(0u64..20, 0..100),
        needle in 0u64..22,
    ) {
        prop_assert_eq!(find_eq(&xs, needle), xs.iter().position(|&x| x == needle));
    }

    /// `min_index`/`max_index` pick the first extremum under heavy ties.
    #[test]
    fn extrema_resolve_ties_to_lowest_index(
        xs in proptest::collection::vec(0u64..6, 0..100),
    ) {
        prop_assert_eq!(min_index(&xs), ref_min_index(&xs));
        prop_assert_eq!(max_index(&xs), ref_max_index(&xs));
    }

    /// `count_gt_f64` counts strictly-greater elements exactly, across
    /// whole-lane bodies and scalar tails.
    #[test]
    fn count_gt_is_filter_count(
        raw in proptest::collection::vec(0u32..2_000, 0..100),
        pivot_raw in 0u32..2_000,
    ) {
        let xs: Vec<f64> = raw.iter().map(|&v| f64::from(v) / 1e3).collect();
        let pivot = f64::from(pivot_raw) / 1e3;
        prop_assert_eq!(
            count_gt_f64(&xs, pivot),
            xs.iter().filter(|&&x| pivot < x).count()
        );
    }

    /// The `U64x8` compare/select/reduce ops agree with per-lane scalar
    /// arithmetic, and the mask accessors agree with each other.
    #[test]
    fn lane_ops_match_scalar_per_lane(
        a in proptest::collection::vec(0u64..50, LANE_WIDTH..9),
        b in proptest::collection::vec(0u64..50, LANE_WIDTH..9),
    ) {
        let va = U64x8::from_slice(&a);
        let vb = U64x8::from_slice(&b);

        let eq = va.eq(vb);
        let lt = va.lt(vb);
        for j in 0..LANE_WIDTH {
            prop_assert_eq!(eq.0[j], a[j] == b[j]);
            prop_assert_eq!(lt.0[j], a[j] < b[j]);
        }

        let sum = va.wrapping_add(vb);
        for j in 0..LANE_WIDTH {
            prop_assert_eq!(sum.0[j], a[j].wrapping_add(b[j]));
        }
        prop_assert_eq!(
            va.reduce_sum(),
            a.iter().fold(0u64, |s, &x| s.wrapping_add(x))
        );
        prop_assert_eq!(va.reduce_min(), *a.iter().min().expect("eight lanes"));

        let sel = lt.select(va, vb);
        for j in 0..LANE_WIDTH {
            prop_assert_eq!(sel.0[j], if a[j] < b[j] { a[j] } else { b[j] });
        }

        let set: Vec<usize> = (0..LANE_WIDTH).filter(|&j| lt.0[j]).collect();
        prop_assert_eq!(lt.any(), !set.is_empty());
        prop_assert_eq!(lt.count(), set.len());
        prop_assert_eq!(lt.first_set(), set.first().copied());
        let mut bits = 0u32;
        for &j in &set {
            bits |= 1 << j;
        }
        prop_assert_eq!(lt.bits(), bits);
    }

    /// `F64x8::gt` follows IEEE comparison semantics lane by lane.
    #[test]
    fn float_gt_matches_scalar_per_lane(
        raw in proptest::collection::vec(0u32..100, LANE_WIDTH..9),
        pivot_raw in 0u32..100,
    ) {
        let lanes: Vec<f64> = raw.iter().map(|&v| f64::from(v) / 10.0).collect();
        let va = F64x8::from_slice(&lanes);
        let vp = F64x8::splat(f64::from(pivot_raw) / 10.0);
        let gt = va.gt(vp);
        for (&g, &lane) in gt.0.iter().zip(lanes.iter()) {
            prop_assert_eq!(g, lane > f64::from(pivot_raw) / 10.0);
        }
    }

    /// `indices` + `splat` + masks round-trip: selecting lane indices below
    /// a bound equals the scalar enumeration.
    #[test]
    fn indices_splat_mask_roundtrip(base in 0u64..1_000, bound in 0u64..12) {
        let idx = U64x8::indices(base);
        let mask = idx.lt(U64x8::splat(base + bound));
        let expect: [bool; LANE_WIDTH] = core::array::from_fn(|j| (j as u64) < bound);
        prop_assert_eq!(Mask8(expect), mask);
    }
}
