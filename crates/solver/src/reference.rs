//! The references [`solve_tiered`][crate::solve_tiered] is held to, compiled
//! only into this crate's tests.
//!
//! [`strided_overlap_witness`] defines the canonical witness: an ascending
//! unit-step scan over byte-offset differences in which the first
//! satisfiable equation wins. [`located`] resolves it into both
//! intervals' index spaces, which is what every tier must return byte for
//! byte. [`overlap_ilp`] states the paper's §III-B system verbatim for the
//! branch-and-bound solver in [`crate::ilp`], the stand-in for GLPK.

use crate::ilp::{IlpProblem, Relation};
use crate::{dense_vs_strided, solve_linear2, OverlapWitness, StridedInterval};

/// A concrete shared byte address of `a` and `b`, or `None`: the reference
/// scan that defines the canonical witness.
pub(crate) fn strided_overlap_witness(a: &StridedInterval, b: &StridedInterval) -> Option<u64> {
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

/// The reference witness resolved into both intervals' index spaces: the
/// full `(x0, s0, x1, s1)` assignment every tier must reproduce.
pub(crate) fn located(a: &StridedInterval, b: &StridedInterval) -> Option<OverlapWitness> {
    let addr = strided_overlap_witness(a, b)?;
    let (x0, s0) = a.locate(addr).unwrap();
    let (x1, s1) = b.locate(addr).unwrap();
    Some(OverlapWitness { addr, x0, s0, x1, s1 })
}

/// The paper's §III-B ILP feasibility problem for two intervals.
/// Variables are `x0, s0, x1, s1` in that order, mirroring the paper's
/// GLPK formulation.
pub(crate) fn overlap_ilp(a: &StridedInterval, b: &StridedInterval) -> IlpProblem {
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
