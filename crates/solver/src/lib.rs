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
//! Diophantine equation per byte-offset difference, so this crate provides
//! an exact, allocation-free number-theoretic solve ([`strided_overlap`]) as
//! the production path, plus a small exact-rational branch-and-bound ILP
//! ([`ilp`]) that accepts the paper's formulation verbatim and is the
//! reference the proptests and the solver ablation bench compare against.
//!
//! # Example — the paper's Figure 4
//!
//! ```
//! use sword_solver::{strided_overlap, strided_overlap_witness, StridedInterval};
//!
//! // T0: 4-byte accesses at 10, 18, 26, 34, 42; T1: at 14, 22, 30, 38, 46.
//! let t0 = StridedInterval::new(10, 8, 4, 4);
//! let t1 = StridedInterval::new(14, 8, 4, 4);
//!
//! // Their [begin, end) ranges overlap…
//! assert!(t0.range_overlaps(&t1));
//! // …but no byte is shared: the interleaved strides never meet.
//! assert!(!strided_overlap(&t0, &t1));
//!
//! // Shift T1 one byte left and the constraint becomes satisfiable,
//! // with a concrete witness address for the race report.
//! let t1_shifted = StridedInterval::new(13, 8, 4, 4);
//! let witness = strided_overlap_witness(&t0, &t1_shifted).unwrap();
//! assert!(t0.contains(witness) && t1_shifted.contains(witness));
//! ```

#![forbid(unsafe_code)]

pub mod diophantine;
pub mod funnel;
pub mod ilp;
pub mod rational;

pub use diophantine::{holey_witness, solve_linear2, Linear2Solution};
pub use funnel::{congruence_admissible, solve_tiered, Fingerprint, Tier};
pub use ilp::{IlpProblem, IlpStatus, Relation};

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

/// Exact check: do two strided intervals share at least one byte address?
///
/// This decides satisfiability of the paper's §III-B constraint system. It
/// first applies the cheap `[begin, end)` range test, then dense/dense fast
/// paths, and finally solves one bounded linear Diophantine equation per
/// byte-offset difference `d = s1 - s0 ∈ (-sz0, sz1)` — at most
/// `sz0 + sz1 - 1 ≤ 15` solves for scalar accesses.
pub fn strided_overlap(a: &StridedInterval, b: &StridedInterval) -> bool {
    solve_tiered(a, b, true).0.is_some()
}

/// Like [`strided_overlap`], but returns a concrete shared byte address —
/// the witness SWORD's race reports print alongside the two source lines.
///
/// This is the *reference implementation* that defines the canonical
/// witness: ascending unit-step scan over byte-offset differences, first
/// satisfiable equation wins. The production path
/// ([`strided_overlap_witness_full`] → [`funnel::solve_tiered`]) is
/// proptested to reproduce it byte-for-byte through every tier.
pub fn strided_overlap_witness(a: &StridedInterval, b: &StridedInterval) -> Option<u64> {
    if !a.range_overlaps(b) {
        return None;
    }
    // Dense intervals cover their whole range: range overlap is exact, and
    // the witness is the first byte of the ranges' intersection.
    if a.is_dense() && b.is_dense() {
        return Some(a.begin().max(b.begin()));
    }
    // One dense, one strided: find a strided access landing in the dense
    // range.
    if a.is_dense() {
        return dense_vs_strided(a, b);
    }
    if b.is_dense() {
        return dense_vs_strided(b, a);
    }

    // Both strided with holes: Δ0·x0 + b0 + s0 = Δ1·x1 + b1 + s1
    // ⇔ Δ0·x0 − Δ1·x1 = (b1 − b0) + d with d = s1 − s0.
    let d_lo = -(a.size as i128) + 1;
    let d_hi = b.size as i128 - 1;
    let rhs_base = b.base as i128 - a.base as i128;
    for d in d_lo..=d_hi {
        if let Some(sol) = solve_linear2(
            a.stride as i128,
            -(b.stride as i128),
            rhs_base + d,
            0,
            a.count as i128,
            0,
            b.count as i128,
        ) {
            // Recover byte offsets: s1 - s0 = d with both in range.
            let s0 = (-d).max(0);
            let addr = a.base as i128 + a.stride as i128 * sol.x + s0;
            return Some(addr as u64);
        }
    }
    None
}

/// Like [`strided_overlap_witness`], but resolves the witness address
/// back into both intervals' index spaces, producing the full variable
/// assignment `(x0, s0, x1, s1)` of the §III-B constraint system — what a
/// race report needs to show *which* loop iterations collide, not just
/// which byte. Dispatches through the screening funnel
/// ([`funnel::solve_tiered`]); the result is byte-identical to locating
/// the reference witness.
pub fn strided_overlap_witness_full(
    a: &StridedInterval,
    b: &StridedInterval,
) -> Option<OverlapWitness> {
    solve_tiered(a, b, true).0
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

/// Builds the paper's §III-B ILP feasibility problem for two intervals, for
/// use with [`ilp::IlpProblem`]. Variables are `x0, s0, x1, s1` in that
/// order. Used by tests and the ablation bench to cross-check
/// [`strided_overlap`] against a general solver, mirroring the paper's GLPK
/// formulation.
pub fn overlap_ilp(a: &StridedInterval, b: &StridedInterval) -> IlpProblem {
    let mut p = IlpProblem::feasibility(4);
    // Δ0·x0 + s0 − Δ1·x1 − s1 = b1 − b0
    p.add_constraint(
        vec![a.stride as i128, 1, -(b.stride as i128), -1],
        Relation::Eq,
        b.base as i128 - a.base as i128,
    );
    p.set_bounds(0, 0, a.count as i128);
    p.set_bounds(1, 0, a.size as i128 - 1);
    p.set_bounds(2, 0, b.count as i128);
    p.set_bounds(3, 0, b.size as i128 - 1);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure4_disjoint_interleaved() {
        // T0: 8·x + 10 + s, x ∈ [0,4], s ∈ [0,4) — accesses at 10,18,26,34,42
        // T1: 8·x + 14 + s — accesses at 14,22,30,38,46. Ranges overlap but
        // no byte is shared.
        let t0 = StridedInterval::new(10, 8, 4, 4);
        let t1 = StridedInterval::new(14, 8, 4, 4);
        assert!(t0.range_overlaps(&t1), "coarse ranges do overlap");
        assert!(!strided_overlap(&t0, &t1), "no address in common");
    }

    #[test]
    fn shifted_by_one_byte_overlaps() {
        let t0 = StridedInterval::new(10, 8, 4, 4);
        let t1 = StridedInterval::new(13, 8, 4, 4); // 13..17 meets 10..14
        assert!(strided_overlap(&t0, &t1));
    }

    #[test]
    fn identical_intervals_overlap() {
        let t = StridedInterval::new(100, 16, 10, 8);
        assert!(strided_overlap(&t, &t.clone()));
    }

    #[test]
    fn single_accesses() {
        let a = StridedInterval::single(100, 4);
        let b = StridedInterval::single(103, 4);
        let c = StridedInterval::single(104, 4);
        assert!(strided_overlap(&a, &b));
        assert!(!strided_overlap(&a, &c));
        assert!(strided_overlap(&b, &c));
    }

    #[test]
    fn dense_vs_strided_cases() {
        // Dense [0, 40); strided hits 100,.. misses; strided at 36 hits.
        let dense = StridedInterval::new(0, 1, 39, 1);
        assert!(dense.is_dense());
        let far = StridedInterval::new(100, 8, 4, 4);
        assert!(!strided_overlap(&dense, &far));
        let touching = StridedInterval::new(36, 64, 3, 4);
        assert!(strided_overlap(&dense, &touching));
        // Strided whose first access starts below but reaches into range.
        let reach = StridedInterval::new(38, 64, 0, 4);
        assert!(strided_overlap(&dense, &reach));
    }

    #[test]
    fn strided_reaching_below_dense_from_left() {
        // Access covering [28,36) against dense [30,40): overlaps.
        let dense = StridedInterval::new(30, 1, 9, 1);
        let s = StridedInterval::new(4, 24, 1, 8); // accesses [4,12), [28,36)
        assert!(strided_overlap(&dense, &s));
        let s2 = StridedInterval::new(4, 18, 1, 8); // [4,12), [22,30): just misses
        assert!(!strided_overlap(&dense, &s2));
    }

    #[test]
    fn different_strides_coprime() {
        // stride 3 from 0 (sz 1), stride 5 from 1 (sz 1): 3x = 5y + 1 →
        // x=2,y=1 gives 6=6. Counts must reach it.
        let a = StridedInterval::new(0, 3, 10, 1);
        let b = StridedInterval::new(1, 5, 10, 1);
        assert!(strided_overlap(&a, &b));
        // Tight counts that cannot reach the first meeting point (6):
        let a2 = StridedInterval::new(0, 3, 1, 1); // {0,3}
        let b2 = StridedInterval::new(1, 5, 1, 1); // {1,6}
        assert!(!strided_overlap(&a2, &b2));
    }

    #[test]
    fn same_stride_different_phase() {
        // Both stride 8 size 4; phases 0 and 4: bytes 0..4, 8..12 vs 4..8,
        // 12..16 — never meet.
        let a = StridedInterval::new(0, 8, 100, 4);
        let b = StridedInterval::new(4, 8, 100, 4);
        assert!(!strided_overlap(&a, &b));
        // Phase 3: access [3,7) meets [0,4) at byte 3.
        let c = StridedInterval::new(3, 8, 100, 4);
        assert!(strided_overlap(&a, &c));
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
            assert_eq!(strided_overlap(&a, &b), strided_overlap(&b, &a));
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
        let w = strided_overlap_witness_full(&a, &b).expect("overlaps");
        assert_eq!(w.addr, a.base + a.stride * w.x0 + w.s0);
        assert_eq!(w.addr, b.base + b.stride * w.x1 + w.s1);
        assert!(w.x0 <= a.count && w.s0 < a.size);
        assert!(w.x1 <= b.count && w.s1 < b.size);
        // Disjoint interleavings yield no witness at all.
        let c = StridedInterval::new(14, 8, 4, 4);
        assert!(strided_overlap_witness_full(&a, &c).is_none());
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
            prop_assert_eq!(strided_overlap(&a, &b), expect, "a={:?} b={:?}", a, b);
            if let Some(w) = strided_overlap_witness(&a, &b) {
                prop_assert!(a.contains(w) && b.contains(w), "witness {} a={:?} b={:?}", w, a, b);
            }
        }

        #[test]
        fn overlap_symmetric(a in arb_interval(), b in arb_interval()) {
            prop_assert_eq!(strided_overlap(&a, &b), strided_overlap(&b, &a));
        }

        #[test]
        fn contains_matches_bruteforce(a in arb_interval(), addr in 0u64..2500) {
            prop_assert_eq!(a.contains(addr), bytes_of(&a).contains(&addr));
        }

        #[test]
        fn self_overlap(a in arb_interval()) {
            prop_assert!(strided_overlap(&a, &a.clone()));
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
            if let Some(w) = strided_overlap_witness_full(&a, &b) {
                prop_assert_eq!(w.addr, a.base + a.stride * w.x0 + w.s0);
                prop_assert_eq!(w.addr, b.base + b.stride * w.x1 + w.s1);
                prop_assert!(w.x0 <= a.count && w.s0 < a.size);
                prop_assert!(w.x1 <= b.count && w.s1 < b.size);
            } else {
                prop_assert!(!strided_overlap(&a, &b));
            }
        }

        #[test]
        fn ilp_agrees_with_diophantine(a in arb_interval(), b in arb_interval()) {
            let fast = strided_overlap(&a, &b);
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
