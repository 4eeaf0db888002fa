//! Integer constraint solving for SWORD's strided-interval overlap checks.
//!
//! The offline analyzer summarizes consecutive memory accesses into strided
//! intervals. Two intervals whose `[begin, end]` ranges overlap need not
//! share an address (Fig. 4 of the paper: interleaved 4-byte accesses with
//! stride 8), so SWORD checks satisfiability of the constraint system from
//! §III-B:
//!
//! ```text
//! Δ0·x0 + b0 + s0 = Δ1·x1 + b1 + s1
//! 0 ≤ x0 ≤ n0        0 ≤ s0 < sz0
//! 0 ≤ x1 ≤ n1        0 ≤ s1 < sz1
//! ```
//!
//! The paper feeds this to GNU GLPK. That system is a two-variable linear
//! Diophantine equation per byte-offset difference, so this crate decides
//! it exactly and without allocating: [`solve_tiered`] is the one decision,
//! returning the canonical witness and the [`Tier`] that decided. Its
//! references — a unit-step witness scan and a branch-and-bound ILP over
//! exact rationals that takes the paper's formulation verbatim — are
//! compiled only into this crate's tests, which hold every tier to them.
//!
//! # Example — the paper's Figure 4
//!
//! ```
//! use sword_solver::{solve_tiered, StridedInterval, Tier};
//!
//! // T0: 4-byte accesses at 10, 18, 26, 34, 42; T1: at 14, 22, 30, 38, 46.
//! let t0 = StridedInterval::new(10, 8, 4, 4);
//! let t1 = StridedInterval::new(14, 8, 4, 4);
//!
//! // Their [begin, end) ranges overlap…
//! assert!(t0.range_overlaps(&t1));
//! // …but no byte is shared: the interleaved strides never meet, and the
//! // gcd congruence proves it without a search.
//! assert_eq!(solve_tiered(&t0, &t1, true), (None, Tier::GcdReject));
//!
//! // Shift T1 one byte left and the constraint becomes satisfiable, with
//! // a concrete witness for the race report: byte 45 is byte 3 of T0's
//! // last access (x0 = 4) and byte 0 of T1's (x1 = 4).
//! let t1_shifted = StridedInterval::new(13, 8, 4, 4);
//! let (witness, tier) = solve_tiered(&t0, &t1_shifted, true);
//! let w = witness.unwrap();
//! assert_eq!((w.addr, w.x0, w.s0, w.x1, w.s1), (45, 4, 3, 4, 0));
//! assert_eq!(tier, Tier::Diophantine);
//! ```

#![forbid(unsafe_code)]

pub mod diophantine;
pub mod funnel;
#[cfg(test)]
pub mod ilp;
#[cfg(test)]
pub mod rational;
#[cfg(test)]
mod reference;

pub use diophantine::{holey_witness, solve_linear2, Linear2Solution};
pub use funnel::{congruence_admissible, solve_tiered, Fingerprint, Tier};

/// A strided access interval: addresses `{ base + stride*k + j : 0 <= k <=
/// count, 0 <= j < size }`.
///
/// `count` is the number of *additional* elements beyond the first (matching
/// the paper's `(e - b) / Δ` upper bound for `x`), so an interval with
/// `count == 0` is a single access of `size` bytes. `stride == 0` is
/// normalized to a single access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StridedInterval {
    /// First byte address of the first access.
    pub base: u64,
    /// Distance in bytes between consecutive access starts.
    pub stride: u64,
    /// Number of accesses after the first (`x` ranges over `0..=count`).
    pub count: u64,
    /// Size in bytes of each access (1, 2, 4, 8 for scalar loads/stores).
    pub size: u64,
}

impl StridedInterval {
    /// Creates an interval; `size` must be non-zero. A zero `stride` with
    /// non-zero `count` collapses to a single access, since every repeat
    /// touches the same bytes.
    pub fn new(base: u64, stride: u64, count: u64, size: u64) -> Self {
        assert!(size > 0, "access size must be non-zero");
        let (stride, count) = if stride == 0 { (0, 0) } else { (stride, count) };
        StridedInterval { base, stride, count, size }
    }

    /// A single access of `size` bytes at `base`.
    pub fn single(base: u64, size: u64) -> Self {
        Self::new(base, 0, 0, size)
    }

    /// First byte covered.
    #[inline]
    pub fn begin(&self) -> u64 {
        self.base
    }

    /// One past the last byte covered.
    #[inline]
    pub fn end(&self) -> u64 {
        self.base + self.stride * self.count + self.size
    }

    /// Number of distinct accesses in the interval.
    #[inline]
    pub fn len(&self) -> u64 {
        self.count + 1
    }

    /// Always false; an interval covers at least one access.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` when the interval is *dense*: consecutive accesses touch
    /// adjacent or overlapping bytes, so the byte range has no holes.
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.count == 0 || self.stride <= self.size
    }

    /// `true` when `addr` is one of the bytes touched by this interval.
    pub fn contains(&self, addr: u64) -> bool {
        if addr < self.base || addr >= self.end() {
            return false;
        }
        if self.is_dense() {
            return true;
        }
        let off = addr - self.base;
        off % self.stride < self.size && off / self.stride <= self.count
    }

    /// Coarse `[begin, end)` range overlap — the necessary condition the
    /// interval tree uses to find *candidate* racing pairs before the exact
    /// check.
    #[inline]
    pub fn range_overlaps(&self, other: &StridedInterval) -> bool {
        self.begin() < other.end() && other.begin() < self.end()
    }

    /// Solves `addr = base + stride*x + s` for a contained address,
    /// returning the access index `x` (`0 <= x <= count`) and the byte
    /// offset `s` within that access (`0 <= s < size`). A dense interval
    /// may cover `addr` through several accesses; the smallest covering
    /// index is returned. `None` when `addr` is not covered.
    pub fn locate(&self, addr: u64) -> Option<(u64, u64)> {
        if !self.contains(addr) {
            return None;
        }
        let off = addr - self.base;
        if self.stride == 0 {
            return Some((0, off));
        }
        let x = (off / self.stride).min(self.count);
        Some((x, off - x * self.stride))
    }
}

/// The solver's concrete model of one satisfiable overlap constraint
/// (§III-B): the shared byte address plus the per-interval access index
/// and byte offset reaching it, i.e.
/// `addr = a.base + a.stride*x0 + s0 = b.base + b.stride*x1 + s1`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct OverlapWitness {
    /// The shared byte address.
    pub addr: u64,
    /// Access index into the first interval (`0 <= x0 <= a.count`).
    pub x0: u64,
    /// Byte offset within that access (`0 <= s0 < a.size`).
    pub s0: u64,
    /// Access index into the second interval.
    pub x1: u64,
    /// Byte offset within that access.
    pub s1: u64,
}

/// `dense` covers a contiguous byte range; finds a byte of `strided`
/// inside it, if any.
pub(crate) fn dense_vs_strided(dense: &StridedInterval, strided: &StridedInterval) -> Option<u64> {
    debug_assert!(dense.is_dense() && !strided.is_dense());
    let lo = dense.begin();
    let hi = dense.end(); // exclusive
                          // Access k of `strided` covers [base + k*stride, base + k*stride + size).
                          // It intersects [lo, hi) iff base + k*stride < hi  and  base + k*stride
                          // + size > lo. Solve for k.
    let stride = strided.stride as i128;
    let base = strided.base as i128;
    let size = strided.size as i128;
    // k > (lo - size - base)/stride  and  k < (hi - base)/stride
    let k_min = div_ceil_i128(lo as i128 - size - base + 1, stride);
    let k_max = div_floor_i128(hi as i128 - base - 1, stride);
    let k_lo = k_min.max(0);
    let k_hi = k_max.min(strided.count as i128);
    if k_lo > k_hi {
        return None;
    }
    let access_start = base + k_lo * stride;
    Some(access_start.max(lo as i128) as u64)
}

pub(crate) fn div_floor_i128(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    let q = a / b;
    if a % b != 0 && a < 0 {
        q - 1
    } else {
        q
    }
}

pub(crate) fn div_ceil_i128(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    let q = a / b;
    if a % b != 0 && a > 0 {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::strided_overlap_witness;

    /// The verdict alone.
    pub(super) fn overlaps(a: &StridedInterval, b: &StridedInterval) -> bool {
        solve_tiered(a, b, true).0.is_some()
    }

    #[test]
    fn paper_figure4_disjoint_interleaved() {
        // T0: 8·x + 10 + s, x ∈ [0,4], s ∈ [0,4) — accesses at 10,18,26,34,42
        // T1: 8·x + 14 + s — accesses at 14,22,30,38,46. Ranges overlap but
        // no byte is shared.
        let t0 = StridedInterval::new(10, 8, 4, 4);
        let t1 = StridedInterval::new(14, 8, 4, 4);
        assert!(t0.range_overlaps(&t1), "coarse ranges do overlap");
        assert!(!overlaps(&t0, &t1), "no address in common");
    }

    #[test]
    fn shifted_by_one_byte_overlaps() {
        let t0 = StridedInterval::new(10, 8, 4, 4);
        let t1 = StridedInterval::new(13, 8, 4, 4); // 13..17 meets 10..14
        assert!(overlaps(&t0, &t1));
    }

    #[test]
    fn identical_intervals_overlap() {
        let t = StridedInterval::new(100, 16, 10, 8);
        assert!(overlaps(&t, &t.clone()));
    }

    #[test]
    fn single_accesses() {
        let a = StridedInterval::single(100, 4);
        let b = StridedInterval::single(103, 4);
        let c = StridedInterval::single(104, 4);
        assert!(overlaps(&a, &b));
        assert!(!overlaps(&a, &c));
        assert!(overlaps(&b, &c));
    }

    #[test]
    fn dense_vs_strided_cases() {
        // Dense [0, 40); strided hits 100,.. misses; strided at 36 hits.
        let dense = StridedInterval::new(0, 1, 39, 1);
        assert!(dense.is_dense());
        let far = StridedInterval::new(100, 8, 4, 4);
        assert!(!overlaps(&dense, &far));
        let touching = StridedInterval::new(36, 64, 3, 4);
        assert!(overlaps(&dense, &touching));
        // Strided whose first access starts below but reaches into range.
        let reach = StridedInterval::new(38, 64, 0, 4);
        assert!(overlaps(&dense, &reach));
    }

    #[test]
    fn strided_reaching_below_dense_from_left() {
        // Access covering [28,36) against dense [30,40): overlaps.
        let dense = StridedInterval::new(30, 1, 9, 1);
        let s = StridedInterval::new(4, 24, 1, 8); // accesses [4,12), [28,36)
        assert!(overlaps(&dense, &s));
        let s2 = StridedInterval::new(4, 18, 1, 8); // [4,12), [22,30): just misses
        assert!(!overlaps(&dense, &s2));
    }

    #[test]
    fn different_strides_coprime() {
        // stride 3 from 0 (sz 1), stride 5 from 1 (sz 1): 3x = 5y + 1 →
        // x=2,y=1 gives 6=6. Counts must reach it.
        let a = StridedInterval::new(0, 3, 10, 1);
        let b = StridedInterval::new(1, 5, 10, 1);
        assert!(overlaps(&a, &b));
        // Tight counts that cannot reach the first meeting point (6):
        let a2 = StridedInterval::new(0, 3, 1, 1); // {0,3}
        let b2 = StridedInterval::new(1, 5, 1, 1); // {1,6}
        assert!(!overlaps(&a2, &b2));
    }

    #[test]
    fn same_stride_different_phase() {
        // Both stride 8 size 4; phases 0 and 4: bytes 0..4, 8..12 vs 4..8,
        // 12..16 — never meet.
        let a = StridedInterval::new(0, 8, 100, 4);
        let b = StridedInterval::new(4, 8, 100, 4);
        assert!(!overlaps(&a, &b));
        // Phase 3: access [3,7) meets [0,4) at byte 3.
        let c = StridedInterval::new(3, 8, 100, 4);
        assert!(overlaps(&a, &c));
    }

    #[test]
    fn contains_matches_definition() {
        let t = StridedInterval::new(10, 8, 4, 4);
        let member: Vec<u64> = (10..47).filter(|&a| t.contains(a)).collect();
        let expect: Vec<u64> =
            (0..=4u64).flat_map(|k| (0..4u64).map(move |j| 10 + 8 * k + j)).collect();
        assert_eq!(member, expect);
        assert!(!t.contains(9));
        assert!(!t.contains(46));
    }

    #[test]
    fn zero_stride_normalizes() {
        let t = StridedInterval::new(10, 0, 99, 4);
        assert_eq!(t.count, 0);
        assert_eq!(t.end(), 14);
    }

    #[test]
    fn overlap_is_symmetric_on_examples() {
        let cases = [
            (StridedInterval::new(10, 8, 4, 4), StridedInterval::new(14, 8, 4, 4)),
            (StridedInterval::new(0, 3, 10, 1), StridedInterval::new(1, 5, 10, 1)),
            (StridedInterval::new(0, 1, 39, 1), StridedInterval::new(36, 64, 3, 4)),
        ];
        for (a, b) in cases {
            assert_eq!(overlaps(&a, &b), overlaps(&b, &a));
        }
    }

    #[test]
    fn witness_is_member_of_both() {
        let cases = [
            (StridedInterval::new(10, 8, 4, 4), StridedInterval::new(13, 8, 4, 4)),
            (StridedInterval::new(0, 3, 10, 1), StridedInterval::new(1, 5, 10, 1)),
            (StridedInterval::new(0, 1, 39, 1), StridedInterval::new(36, 64, 3, 4)),
            (StridedInterval::new(100, 16, 10, 8), StridedInterval::new(100, 16, 10, 8)),
            (StridedInterval::new(30, 1, 9, 1), StridedInterval::new(4, 24, 1, 8)),
        ];
        for (a, b) in cases {
            let w = strided_overlap_witness(&a, &b).expect("overlaps");
            assert!(a.contains(w), "witness {w} not in a={a:?}");
            assert!(b.contains(w), "witness {w} not in b={b:?}");
        }
    }

    #[test]
    fn locate_solves_the_access_equation() {
        let t = StridedInterval::new(10, 8, 4, 4);
        assert_eq!(t.locate(10), Some((0, 0)));
        assert_eq!(t.locate(13), Some((0, 3)));
        assert_eq!(t.locate(26), Some((2, 0)));
        assert_eq!(t.locate(45), Some((4, 3)));
        assert_eq!(t.locate(14), None, "hole between accesses");
        assert_eq!(t.locate(9), None);
        // Dense with stride < size: the smallest covering index wins.
        let d = StridedInterval::new(0, 2, 3, 4);
        assert_eq!(d.locate(3), Some((1, 1)));
        // Single access.
        let s = StridedInterval::single(100, 8);
        assert_eq!(s.locate(105), Some((0, 5)));
    }

    #[test]
    fn full_witness_assigns_all_four_variables() {
        let a = StridedInterval::new(10, 8, 4, 4);
        let b = StridedInterval::new(13, 8, 4, 4);
        let w = solve_tiered(&a, &b, true).0.expect("overlaps");
        assert_eq!(w.addr, a.base + a.stride * w.x0 + w.s0);
        assert_eq!(w.addr, b.base + b.stride * w.x1 + w.s1);
        assert!(w.x0 <= a.count && w.s0 < a.size);
        assert!(w.x1 <= b.count && w.s1 < b.size);
        // Disjoint interleavings yield no witness at all.
        let c = StridedInterval::new(14, 8, 4, 4);
        assert!(solve_tiered(&a, &c, true).0.is_none());
    }

    /// Every pair of intervals in a small box, both ways round: both gcd
    /// settings of the one decision return the located reference witness,
    /// and its verdict is the paper's ILP verdict and the brute-force one.
    /// Bases reach past the largest extent, so disjoint, touching and
    /// nested pairs all occur; strides 1–5 against sizes 1–3 give dense
    /// intervals and holey ones with coprime and shared-factor strides.
    #[test]
    fn exhaustive_small_box_matches_reference_and_ilp() {
        use crate::ilp::IlpStatus;
        use crate::reference::{located, overlap_ilp};
        let mut box_: Vec<StridedInterval> = Vec::new();
        for base in 0..5u64 {
            for stride in 0..6u64 {
                for count in 0..3u64 {
                    for size in 1..4u64 {
                        let iv = StridedInterval::new(base, stride, count, size);
                        if !box_.contains(&iv) {
                            box_.push(iv);
                        }
                    }
                }
            }
        }
        // Each interval's bytes as a bit mask (every address is below 64).
        let mask = |t: &StridedInterval| -> u64 {
            (0..=t.count)
                .flat_map(|k| (0..t.size).map(move |j| t.base + t.stride * k + j))
                .fold(0, |m, byte| m | 1 << byte)
        };
        let (mut pairs, mut overlapping) = (0u64, 0u64);
        for (i, a) in box_.iter().enumerate() {
            for b in &box_[i..] {
                // The ILP and the byte sets are symmetric; the witness is not.
                let feasible = overlap_ilp(a, b).solve() == IlpStatus::Feasible;
                assert_eq!(mask(a) & mask(b) != 0, feasible, "brute force a={a:?} b={b:?}");
                for (x, y) in [(a, b), (b, a)] {
                    let reference = located(x, y);
                    assert_eq!(reference.is_some(), feasible, "ILP a={x:?} b={y:?}");
                    for gcd_screen in [true, false] {
                        let (w, tier) = solve_tiered(x, y, gcd_screen);
                        assert_eq!(w, reference, "gcd={gcd_screen} {tier:?} a={x:?} b={y:?}");
                    }
                }
                pairs += 1;
                overlapping += u64::from(feasible);
            }
        }
        // Both verdicts occur in bulk, not in a corner of the box.
        assert_eq!(box_.len(), 240);
        assert!(overlapping > pairs / 4 && overlapping < pairs * 3 / 4, "{overlapping}/{pairs}");
    }

    #[test]
    fn div_helpers() {
        assert_eq!(div_floor_i128(7, 2), 3);
        assert_eq!(div_floor_i128(-7, 2), -4);
        assert_eq!(div_ceil_i128(7, 2), 4);
        assert_eq!(div_ceil_i128(-7, 2), -3);
        assert_eq!(div_floor_i128(8, 2), 4);
        assert_eq!(div_ceil_i128(-8, 2), -4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ilp::IlpStatus;
    use crate::reference::{overlap_ilp, strided_overlap_witness};
    use crate::tests::overlaps;
    use proptest::prelude::*;

    fn arb_interval() -> impl Strategy<Value = StridedInterval> {
        (0u64..2000, 0u64..40, 0u64..30, 1u64..9)
            .prop_map(|(b, st, c, sz)| StridedInterval::new(b, st, c, sz))
    }

    /// Brute-force membership oracle.
    fn bytes_of(t: &StridedInterval) -> std::collections::BTreeSet<u64> {
        let mut s = std::collections::BTreeSet::new();
        for k in 0..=t.count {
            for j in 0..t.size {
                s.insert(t.base + t.stride * k + j);
            }
        }
        s
    }

    proptest! {
        #[test]
        fn overlap_matches_bruteforce(a in arb_interval(), b in arb_interval()) {
            let expect = !bytes_of(&a).is_disjoint(&bytes_of(&b));
            prop_assert_eq!(overlaps(&a, &b), expect, "a={:?} b={:?}", a, b);
            if let Some(w) = strided_overlap_witness(&a, &b) {
                prop_assert!(a.contains(w) && b.contains(w), "witness {} a={:?} b={:?}", w, a, b);
            }
        }

        #[test]
        fn overlap_symmetric(a in arb_interval(), b in arb_interval()) {
            prop_assert_eq!(overlaps(&a, &b), overlaps(&b, &a));
        }

        #[test]
        fn contains_matches_bruteforce(a in arb_interval(), addr in 0u64..2500) {
            prop_assert_eq!(a.contains(addr), bytes_of(&a).contains(&addr));
        }

        #[test]
        fn self_overlap(a in arb_interval()) {
            prop_assert!(overlaps(&a, &a.clone()));
        }

        #[test]
        fn locate_roundtrips_every_member(a in arb_interval()) {
            for k in 0..=a.count {
                for j in 0..a.size {
                    let addr = a.base + a.stride * k + j;
                    let (x, s) = a.locate(addr).expect("member address");
                    prop_assert_eq!(a.base + a.stride * x + s, addr);
                    prop_assert!(x <= a.count && s < a.size);
                }
            }
        }

        #[test]
        fn full_witness_satisfies_constraints(a in arb_interval(), b in arb_interval()) {
            if let Some(w) = solve_tiered(&a, &b, true).0 {
                prop_assert_eq!(w.addr, a.base + a.stride * w.x0 + w.s0);
                prop_assert_eq!(w.addr, b.base + b.stride * w.x1 + w.s1);
                prop_assert!(w.x0 <= a.count && w.s0 < a.size);
                prop_assert!(w.x1 <= b.count && w.s1 < b.size);
            } else {
                prop_assert!(!overlaps(&a, &b));
            }
        }

        #[test]
        fn ilp_agrees_with_diophantine(a in arb_interval(), b in arb_interval()) {
            let fast = overlaps(&a, &b);
            let general = overlap_ilp(&a, &b).solve() == IlpStatus::Feasible;
            prop_assert_eq!(fast, general, "a={:?} b={:?}", a, b);
        }

        /// The reference witness: legacy unit-step scan + locate. Every
        /// funnel configuration must reproduce it byte-for-byte.
        #[test]
        fn every_tier_matches_oracle_and_reference_witness(
            a in arb_interval(), b in arb_interval()
        ) {
            let oracle = !bytes_of(&a).is_disjoint(&bytes_of(&b));
            let reference = strided_overlap_witness(&a, &b).map(|addr| {
                let (x0, s0) = a.locate(addr).unwrap();
                let (x1, s1) = b.locate(addr).unwrap();
                OverlapWitness { addr, x0, s0, x1, s1 }
            });
            prop_assert_eq!(reference.is_some(), oracle, "reference vs oracle a={:?} b={:?}", a, b);
            for gcd_screen in [true, false] {
                let (dio, dio_tier) = solve_tiered(&a, &b, gcd_screen);
                prop_assert_eq!(dio, reference,
                    "solve_tiered(gcd={}) tier={:?} a={:?} b={:?}", gcd_screen, dio_tier, a, b);
            }
            let ilp = overlap_ilp(&a, &b).solve() == IlpStatus::Feasible;
            prop_assert_eq!(ilp, reference.is_some(), "overlap_ilp a={:?} b={:?}", a, b);
        }

        /// The walk-level fingerprint screen may only reject pairs the
        /// oracle also rejects (it is a pure pre-filter).
        #[test]
        fn congruence_screen_never_rejects_an_overlap(
            a in arb_interval(), b in arb_interval()
        ) {
            let admissible = congruence_admissible(
                &a, Fingerprint::of(&a), &b, Fingerprint::of(&b));
            if !admissible {
                prop_assert!(bytes_of(&a).is_disjoint(&bytes_of(&b)),
                    "screen rejected an overlapping pair a={:?} b={:?}", a, b);
            }
        }

        /// The direct Diophantine constructor equals the reference on the
        /// holey×holey residue, gcd stepping on or off.
        #[test]
        fn holey_witness_is_canonical(a in arb_interval(), b in arb_interval()) {
            if !a.is_dense() && !b.is_dense() && a.range_overlaps(&b) {
                let reference = strided_overlap_witness(&a, &b).map(|addr| {
                    let (x0, s0) = a.locate(addr).unwrap();
                    let (x1, s1) = b.locate(addr).unwrap();
                    OverlapWitness { addr, x0, s0, x1, s1 }
                });
                prop_assert_eq!(holey_witness(&a, &b, true), reference, "gcd step a={:?} b={:?}", a, b);
                prop_assert_eq!(holey_witness(&a, &b, false), reference, "unit step a={:?} b={:?}", a, b);
            }
        }
    }
}
