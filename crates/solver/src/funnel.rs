//! The layered screening funnel for strided-interval overlap decisions.
//!
//! Most candidate pairs the analyzer produces are decidable by closed-form
//! algebra; the bounded Diophantine search should only ever see the residue
//! of genuinely hard pairs. This module layers the decision path into
//! *tiers*, cheapest first:
//!
//! 1. **RangeDisjoint** — the coarse `[begin, end)` ranges do not intersect.
//! 2. **DenseDense** — both intervals are dense, so range overlap is exact
//!    and the witness is the first byte of the ranges' intersection.
//! 3. **DenseLocate** — one side is dense: a single division locates the
//!    first strided access landing inside the dense range.
//! 4. **GcdReject** — both sides have holes: the overlap congruence
//!    `s1 − s0 ≡ base0 − base1 (mod gcd(Δ0, Δ1))` has no solution with
//!    `s0 < sz0`, `s1 < sz1`, so no byte can be shared (the classic
//!    GCD/Banerjee-style dependence screen).
//! 5. **Diophantine** — the bounded two-variable extended-Euclid search
//!    ([`diophantine::holey_witness`][crate::diophantine::holey_witness]),
//!    stepping only over congruence-admissible byte-offset differences.
//!
//! **Witness-canonicalization invariant:** every tier reproduces the exact
//! `OverlapWitness` the reference path (an ascending unit-step scan over
//! byte-offset differences, followed by `locate`) produces — same verdict,
//! same bytes. Screens may only *reject* pairs the reference also rejects;
//! tiers that accept must construct the identical minimal witness. This
//! keeps race evidence byte-identical whichever tier decides (held in this
//! crate's tests to the reference scan and to the paper's formulation
//! solved by a branch-and-bound ILP, exhaustively over a small box and by
//! proptest beyond it).

use crate::diophantine::holey_witness;
use crate::{dense_vs_strided, OverlapWitness, StridedInterval};

/// Which layer of the screening funnel decided a pair. `Prescreen` is
/// recorded by the analyzer's walk-level fingerprint screen (same algebra as
/// `GcdReject`, applied before the pair is queued for a solve); the solver
/// itself never returns it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Rejected during the candidate walk by the stride-class fingerprint
    /// screen, before reaching the solver.
    Prescreen,
    /// Coarse `[begin, end)` ranges disjoint.
    RangeDisjoint,
    /// Both dense: range intersection is the witness.
    DenseDense,
    /// One dense: `locate` of the first strided access in the dense range.
    DenseLocate,
    /// Both holey, overlap congruence unsatisfiable mod `gcd(Δ0, Δ1)`.
    GcdReject,
    /// Bounded extended-Euclid Diophantine search decided the residue.
    Diophantine,
}

impl Tier {
    /// All tiers, in funnel order.
    pub const ALL: [Tier; 6] = [
        Tier::Prescreen,
        Tier::RangeDisjoint,
        Tier::DenseDense,
        Tier::DenseLocate,
        Tier::GcdReject,
        Tier::Diophantine,
    ];

    /// Stable label used in metrics (`sword_solver_tier{tier=…}`) and bench
    /// tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Prescreen => "prescreen",
            Tier::RangeDisjoint => "range_disjoint",
            Tier::DenseDense => "dense_dense",
            Tier::DenseLocate => "dense_locate",
            Tier::GcdReject => "gcd_reject",
            Tier::Diophantine => "diophantine",
        }
    }

    /// Dense index into a per-tier counter array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Stride-class fingerprint of an interval, cached on interval-tree nodes so
/// the candidate walk can run the congruence screen without re-dividing.
/// `phase` is `base % stride` for holey intervals (0 for dense, unused).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// `base % stride` when `holey`, else 0.
    pub phase: u64,
    /// `true` when the interval has holes (`count > 0 && stride > size`).
    pub holey: bool,
}

impl Fingerprint {
    /// Computes the fingerprint of an interval (one division for holey
    /// intervals, none for dense).
    #[inline]
    pub fn of(iv: &StridedInterval) -> Fingerprint {
        if iv.is_dense() {
            Fingerprint { phase: 0, holey: false }
        } else {
            Fingerprint { phase: iv.base % iv.stride, holey: true }
        }
    }

    /// Sentinel marking a holey phase too large for the packed form.
    const PACK_OVERFLOW: u32 = u32::MAX;

    /// Packs the fingerprint into 32 bits so tree nodes can cache it inside
    /// existing struct padding instead of growing (a 16-byte field per node
    /// measurably slows the candidate walk on big trees). `holey` is not
    /// stored — it is derivable from the interval — and phases are tiny in
    /// practice (`phase < stride`, and collector strides are page-bounded).
    #[inline]
    pub fn pack(&self) -> u32 {
        if !self.holey || self.phase >= u64::from(Self::PACK_OVERFLOW) {
            if self.holey {
                Self::PACK_OVERFLOW
            } else {
                0
            }
        } else {
            self.phase as u32
        }
    }

    /// Reverses [`Fingerprint::pack`] given the interval the packed value
    /// was computed from. Divides only in the overflow case.
    #[inline]
    pub fn unpack(packed: u32, iv: &StridedInterval) -> Fingerprint {
        if iv.is_dense() {
            Fingerprint { phase: 0, holey: false }
        } else if packed < Self::PACK_OVERFLOW {
            Fingerprint { phase: u64::from(packed), holey: true }
        } else {
            Fingerprint::of(iv)
        }
    }
}

#[inline]
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// The GCD congruence screen: `true` when the pair *may* share a byte,
/// `false` when the overlap congruence proves it cannot. Only holey×holey
/// pairs can be rejected — any pair with a dense side passes (the dense
/// tiers decide those exactly, and a dense side always makes the congruence
/// satisfiable since `gcd ≤ stride ≤ size` there).
///
/// Derivation: a shared byte needs `a.base + Δ0·x0 + s0 = b.base + Δ1·x1 +
/// s1`. Mod `g = gcd(Δ0, Δ1)` this forces `d = s1 − s0 ≡ a.base − b.base ≡ m
/// (mod g)` with `d ∈ [1−sz0, sz1−1]`; such a `d` exists iff `m ≤ sz1−1` or
/// `g − m ≤ sz0−1`. Rejection is exact: the Diophantine search would scan
/// the same window and find every `d` indivisible.
#[inline]
pub fn congruence_admissible(
    a: &StridedInterval,
    fa: Fingerprint,
    b: &StridedInterval,
    fb: Fingerprint,
) -> bool {
    if !fa.holey || !fb.holey {
        return true;
    }
    let g = gcd_u64(a.stride, b.stride);
    debug_assert!(g > 0, "holey intervals have non-zero stride");
    // m = (a.base − b.base) mod g, computed from the cached phases: g
    // divides each stride, so base ≡ phase (mod g).
    let m = (fa.phase % g + g - fb.phase % g) % g;
    m < b.size || g - m < a.size
}

/// Resolves a witness address into both intervals' index spaces — the same
/// canonicalization the reference applies.
#[inline]
fn locate_witness(a: &StridedInterval, b: &StridedInterval, addr: u64) -> OverlapWitness {
    let (x0, s0) = a.locate(addr).expect("witness address is a member of a");
    let (x1, s1) = b.locate(addr).expect("witness address is a member of b");
    OverlapWitness { addr, x0, s0, x1, s1 }
}

/// The production decision path: screens through tiers 1–4, then the
/// bounded Diophantine search on the residue (both holey, congruence
/// admissible or screen disabled). Returns the canonical witness
/// (byte-identical to the reference path) and the tier that decided.
///
/// `gcd_screen: false` disables tier 4 *and* the gcd stepping inside the
/// search (for ablation measurement); the verdict and witness are identical
/// either way.
pub fn solve_tiered(
    a: &StridedInterval,
    b: &StridedInterval,
    gcd_screen: bool,
) -> (Option<OverlapWitness>, Tier) {
    if !a.range_overlaps(b) {
        return (None, Tier::RangeDisjoint);
    }
    let a_dense = a.is_dense();
    let b_dense = b.is_dense();
    if a_dense && b_dense {
        let addr = a.begin().max(b.begin());
        return (Some(locate_witness(a, b, addr)), Tier::DenseDense);
    }
    if a_dense || b_dense {
        let addr = if a_dense { dense_vs_strided(a, b) } else { dense_vs_strided(b, a) };
        return (addr.map(|addr| locate_witness(a, b, addr)), Tier::DenseLocate);
    }
    if gcd_screen && !congruence_admissible(a, Fingerprint::of(a), b, Fingerprint::of(b)) {
        return (None, Tier::GcdReject);
    }
    (holey_witness(a, b, gcd_screen), Tier::Diophantine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::located;

    #[test]
    fn tiers_decide_the_expected_pairs() {
        let cases = [
            // Disjoint ranges.
            (StridedInterval::single(0, 4), StridedInterval::single(100, 4), Tier::RangeDisjoint),
            // Two dense ranges.
            (
                StridedInterval::new(0, 1, 39, 1),
                StridedInterval::new(20, 4, 9, 4),
                Tier::DenseDense,
            ),
            // Dense vs strided-with-holes.
            (
                StridedInterval::new(0, 1, 39, 1),
                StridedInterval::new(36, 64, 3, 4),
                Tier::DenseLocate,
            ),
            // Figure 4: same stride, phase-disjoint — congruence reject.
            (StridedInterval::new(10, 8, 4, 4), StridedInterval::new(14, 8, 4, 4), Tier::GcdReject),
            // Same stride, phases meet — residue for the search.
            (
                StridedInterval::new(10, 8, 4, 4),
                StridedInterval::new(13, 8, 4, 4),
                Tier::Diophantine,
            ),
        ];
        for (a, b, want) in cases {
            let (w, tier) = solve_tiered(&a, &b, true);
            assert_eq!(tier, want, "a={a:?} b={b:?}");
            assert_eq!(w, located(&a, &b), "witness identity a={a:?} b={b:?}");
        }
    }

    #[test]
    fn gcd_screen_off_reaches_the_search_with_identical_results() {
        let a = StridedInterval::new(10, 8, 4, 4);
        let b = StridedInterval::new(14, 8, 4, 4);
        let (w, tier) = solve_tiered(&a, &b, false);
        assert_eq!(tier, Tier::Diophantine);
        assert_eq!(w, None);
        assert_eq!(solve_tiered(&a, &b, true).0, w);
    }

    #[test]
    fn fingerprint_identifies_holey_intervals() {
        assert!(!Fingerprint::of(&StridedInterval::single(10, 4)).holey);
        assert!(!Fingerprint::of(&StridedInterval::new(0, 4, 9, 4)).holey);
        let f = Fingerprint::of(&StridedInterval::new(13, 8, 4, 4));
        assert!(f.holey);
        assert_eq!(f.phase, 5);
    }

    #[test]
    fn congruence_screen_is_symmetric() {
        let cases = [
            (StridedInterval::new(10, 8, 4, 4), StridedInterval::new(14, 8, 4, 4)),
            (StridedInterval::new(10, 8, 4, 4), StridedInterval::new(13, 8, 4, 4)),
            (StridedInterval::new(0, 16, 50, 8), StridedInterval::new(8, 16, 50, 8)),
            (StridedInterval::new(0, 12, 9, 2), StridedInterval::new(7, 18, 9, 3)),
        ];
        for (a, b) in cases {
            let (fa, fb) = (Fingerprint::of(&a), Fingerprint::of(&b));
            assert_eq!(
                congruence_admissible(&a, fa, &b, fb),
                congruence_admissible(&b, fb, &a, fa),
                "a={a:?} b={b:?}"
            );
        }
    }
}
