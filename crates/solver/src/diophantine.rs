//! Bounded two-variable linear Diophantine equations.
//!
//! Solves `a·x + b·y = c` with box bounds `x ∈ [x_lo, x_hi]`,
//! `y ∈ [y_lo, y_hi]` exactly via the extended Euclidean algorithm: if
//! `g = gcd(a, b)` divides `c`, the solutions form the one-parameter family
//! `x = x₀ + t·(b/g)`, `y = y₀ − t·(a/g)`; intersecting the two box bounds
//! yields a `t`-range that is non-empty iff the system is satisfiable.

use crate::funnel::gcd_u64;
use crate::{div_ceil_i128, div_floor_i128, OverlapWitness, StridedInterval};

/// A solution to a bounded 2-variable linear Diophantine equation, plus the
/// parametrization of the full solution family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Linear2Solution {
    /// A witness solution inside the bounds.
    pub x: i128,
    /// A witness solution inside the bounds.
    pub y: i128,
    /// Inclusive range of the family parameter `t` keeping both in bounds.
    pub t_range: (i128, i128),
    /// Step of `x` per unit `t` (`b / gcd`).
    pub x_step: i128,
    /// Step of `y` per unit `t` (`-a / gcd`).
    pub y_step: i128,
}

impl Linear2Solution {
    /// Number of integer solutions inside the bounds.
    pub fn solution_count(&self) -> u128 {
        (self.t_range.1 - self.t_range.0 + 1) as u128
    }
}

/// Extended Euclidean algorithm: returns `(g, s, t)` with
/// `g = gcd(a, b) ≥ 0` and `a·s + b·t = g`.
pub fn ext_gcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        if a < 0 {
            (-a, -1, 0)
        } else if a == 0 {
            (0, 0, 0)
        } else {
            (a, 1, 0)
        }
    } else {
        let (g, s, t) = ext_gcd(b, a.rem_euclid(b));
        // a = q*b + r with r = a.rem_euclid(b), q = (a - r)/b
        let q = (a - a.rem_euclid(b)) / b;
        (g, t, s - q * t)
    }
}

/// Non-negative gcd of two integers.
pub fn gcd(a: i128, b: i128) -> i128 {
    ext_gcd(a, b).0
}

/// Solves `a·x + b·y = c`, `x_lo ≤ x ≤ x_hi`, `y_lo ≤ y ≤ y_hi` over the
/// integers. Returns a witness (and the whole solution family) or `None`
/// when unsatisfiable. Degenerate coefficients (`a == 0` and/or `b == 0`)
/// are handled exactly.
pub fn solve_linear2(
    a: i128,
    b: i128,
    c: i128,
    x_lo: i128,
    x_hi: i128,
    y_lo: i128,
    y_hi: i128,
) -> Option<Linear2Solution> {
    if x_lo > x_hi || y_lo > y_hi {
        return None;
    }
    match (a == 0, b == 0) {
        (true, true) => {
            // 0 = c: any point in the box works iff c == 0.
            (c == 0).then_some(Linear2Solution {
                x: x_lo,
                y: y_lo,
                t_range: (0, 0),
                x_step: 0,
                y_step: 0,
            })
        }
        (true, false) => {
            // b·y = c: y fixed if divisible and in bounds; x free.
            if c % b != 0 {
                return None;
            }
            let y = c / b;
            (y_lo <= y && y <= y_hi).then_some(Linear2Solution {
                x: x_lo,
                y,
                t_range: (0, x_hi - x_lo),
                x_step: 1,
                y_step: 0,
            })
        }
        (false, true) => {
            if c % a != 0 {
                return None;
            }
            let x = c / a;
            (x_lo <= x && x <= x_hi).then_some(Linear2Solution {
                x,
                y: y_lo,
                t_range: (0, y_hi - y_lo),
                x_step: 0,
                y_step: 1,
            })
        }
        (false, false) => {
            let (g, s, _t) = ext_gcd(a, b);
            if c % g != 0 {
                return None;
            }
            // Particular solution of a·x + b·y = c.
            let scale = c / g;
            let x0 = s * scale;
            // y0 derived from the equation to avoid overflowing t·scale.
            let y0 = (c - a * x0) / b;
            let x_step = b / g;
            let y_step = -a / g;
            // x = x0 + t·x_step ∈ [x_lo, x_hi]
            let (tx_lo, tx_hi) = param_range(x0, x_step, x_lo, x_hi)?;
            let (ty_lo, ty_hi) = param_range(y0, y_step, y_lo, y_hi)?;
            let t_lo = tx_lo.max(ty_lo);
            let t_hi = tx_hi.min(ty_hi);
            if t_lo > t_hi {
                return None;
            }
            Some(Linear2Solution {
                x: x0 + t_lo * x_step,
                y: y0 + t_lo * y_step,
                t_range: (t_lo, t_hi),
                x_step,
                y_step,
            })
        }
    }
}

/// The canonical minimal witness for a holey×holey overlap, constructed
/// directly from the extended-Euclid solution — no `locate` round-trip.
///
/// Scans byte-offset differences `d = s1 − s0` over the window
/// `[1−a.size, b.size−1]` in ascending order and solves one bounded
/// Diophantine equation per admissible `d`; the first solution yields the
/// witness `(addr, x0 = x, s0 = max(−d, 0), x1 = y, s1 = max(d, 0))`.
/// Because holey intervals have `size < stride`, these offsets are exactly
/// what `locate(addr)` would recover, so the result is byte-identical to
/// the reference scan's located witness.
///
/// With `step_gcd` the scan steps only over `d ≡ b.base − a.base (mod
/// gcd(Δ0, Δ1))` — every skipped `d` fails the solver's divisibility test,
/// so the first hit (and thus the witness) is unchanged; `step_gcd: false`
/// reproduces the naive unit-step scan for ablation measurement.
pub fn holey_witness(
    a: &StridedInterval,
    b: &StridedInterval,
    step_gcd: bool,
) -> Option<OverlapWitness> {
    debug_assert!(!a.is_dense() && !b.is_dense(), "dense pairs are decided by earlier tiers");
    let d_lo = -(a.size as i128) + 1;
    let d_hi = b.size as i128 - 1;
    let rhs_base = b.base as i128 - a.base as i128;
    let (mut d, step) = if step_gcd {
        // Smallest d ≥ d_lo with (rhs_base + d) ≡ 0 (mod g).
        let g = gcd_u64(a.stride, b.stride) as i128;
        (d_lo + (-(rhs_base + d_lo)).rem_euclid(g), g)
    } else {
        (d_lo, 1)
    };
    while d <= d_hi {
        if let Some(sol) = solve_linear2(
            a.stride as i128,
            -(b.stride as i128),
            rhs_base + d,
            0,
            a.count as i128,
            0,
            b.count as i128,
        ) {
            let s0 = (-d).max(0) as u64;
            let s1 = d.max(0) as u64;
            let x0 = sol.x as u64;
            let x1 = sol.y as u64;
            let addr = a.base + a.stride * x0 + s0;
            debug_assert_eq!(addr, b.base + b.stride * x1 + s1);
            debug_assert_eq!(a.locate(addr), Some((x0, s0)));
            debug_assert_eq!(b.locate(addr), Some((x1, s1)));
            return Some(OverlapWitness { addr, x0, s0, x1, s1 });
        }
        d += step;
    }
    None
}

/// Range of `t` with `lo ≤ v0 + t·step ≤ hi`. `step` may be negative but
/// not zero. Returns `None` for an empty range.
fn param_range(v0: i128, step: i128, lo: i128, hi: i128) -> Option<(i128, i128)> {
    debug_assert!(step != 0);
    // lo ≤ v0 + t·step ≤ hi; dividing by a negative step flips the bounds.
    let (t_lo, t_hi) = if step > 0 {
        (div_ceil_i128(lo - v0, step), div_floor_i128(hi - v0, step))
    } else {
        (div_ceil_i128(v0 - hi, -step), div_floor_i128(v0 - lo, -step))
    };
    (t_lo <= t_hi).then_some((t_lo, t_hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_gcd_identity() {
        for (a, b) in [(12, 18), (-12, 18), (12, -18), (0, 5), (5, 0), (7, 13), (-7, -13)] {
            let (g, s, t) = ext_gcd(a, b);
            assert_eq!(a * s + b * t, g, "bezout for ({a},{b})");
            assert!(g >= 0);
            if a != 0 || b != 0 {
                assert_eq!(g, num_gcd(a.unsigned_abs(), b.unsigned_abs()) as i128);
            }
        }
    }

    fn num_gcd(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            let r = a % b;
            a = b;
            b = r;
        }
        a
    }

    #[test]
    fn simple_solvable() {
        // 3x - 5y = 1, x,y in [0,10]: x=2,y=1 works.
        let sol = solve_linear2(3, -5, 1, 0, 10, 0, 10).expect("solvable");
        assert_eq!(3 * sol.x - 5 * sol.y, 1);
        assert!((0..=10).contains(&sol.x) && (0..=10).contains(&sol.y));
    }

    #[test]
    fn gcd_indivisible_is_unsat() {
        // 4x + 6y = 3: gcd 2 does not divide 3.
        assert!(solve_linear2(4, 6, 3, -100, 100, -100, 100).is_none());
    }

    #[test]
    fn bounds_exclude_solutions() {
        // 3x - 5y = 1 needs x≡2 (mod 5); x in [0,1] has none.
        assert!(solve_linear2(3, -5, 1, 0, 1, 0, 100).is_none());
    }

    #[test]
    fn degenerate_both_zero() {
        assert!(solve_linear2(0, 0, 0, 0, 5, 0, 5).is_some());
        assert!(solve_linear2(0, 0, 1, 0, 5, 0, 5).is_none());
    }

    #[test]
    fn degenerate_one_zero() {
        let s = solve_linear2(0, 4, 8, 0, 3, 0, 10).expect("y=2");
        assert_eq!(s.y, 2);
        assert!(solve_linear2(0, 4, 9, 0, 3, 0, 10).is_none());
        assert!(solve_linear2(0, 4, 8, 0, 3, 0, 1).is_none(), "y=2 out of [0,1]");
        let s = solve_linear2(5, 0, -10, -5, 5, 0, 0).expect("x=-2");
        assert_eq!(s.x, -2);
    }

    #[test]
    fn empty_boxes() {
        assert!(solve_linear2(1, 1, 0, 5, 0, 0, 5).is_none());
    }

    #[test]
    fn family_enumeration_is_exact() {
        // 2x + 3y = 12, 0<=x<=6, 0<=y<=4: solutions (0,4),(3,2),(6,0).
        let s = solve_linear2(2, 3, 12, 0, 6, 0, 4).unwrap();
        assert_eq!(s.solution_count(), 3);
        let mut pts = vec![];
        for t in s.t_range.0..=s.t_range.1 {
            let x = s.x + (t - s.t_range.0) * s.x_step;
            let y = s.y + (t - s.t_range.0) * s.y_step;
            assert_eq!(2 * x + 3 * y, 12);
            pts.push((x, y));
        }
        pts.sort();
        assert_eq!(pts, vec![(0, 4), (3, 2), (6, 0)]);
    }

    #[test]
    fn negative_coefficients_and_bounds() {
        // -7x + 2y = 5 with x in [-10,-1], y in [-20, 0]:
        // x=-1 → 2y=-2 → y=-1 ✓
        let s = solve_linear2(-7, 2, 5, -10, -1, -20, 0).unwrap();
        assert_eq!(-7 * s.x + 2 * s.y, 5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn matches_bruteforce(
            a in -12i128..13, b in -12i128..13, c in -40i128..41,
            x_lo in -8i128..9, x_w in 0i128..12,
            y_lo in -8i128..9, y_w in 0i128..12,
        ) {
            let x_hi = x_lo + x_w;
            let y_hi = y_lo + y_w;
            let brute = (x_lo..=x_hi).flat_map(|x| (y_lo..=y_hi).map(move |y| (x, y)))
                .find(|&(x, y)| a * x + b * y == c);
            let got = solve_linear2(a, b, c, x_lo, x_hi, y_lo, y_hi);
            prop_assert_eq!(got.is_some(), brute.is_some(),
                "a={} b={} c={} x=[{},{}] y=[{},{}] got={:?}",
                a, b, c, x_lo, x_hi, y_lo, y_hi, got);
            if let Some(s) = got {
                prop_assert_eq!(a * s.x + b * s.y, c);
                prop_assert!(x_lo <= s.x && s.x <= x_hi);
                prop_assert!(y_lo <= s.y && s.y <= y_hi);
            }
        }

        #[test]
        fn witness_family_valid(
            a in -20i128..21, b in -20i128..21, c in -100i128..101,
        ) {
            if let Some(s) = solve_linear2(a, b, c, -50, 50, -50, 50) {
                // every t in range yields a valid in-bounds solution
                let t0 = s.t_range.0;
                for t in s.t_range.0..=s.t_range.1.min(s.t_range.0 + 20) {
                    let x = s.x + (t - t0) * s.x_step;
                    let y = s.y + (t - t0) * s.y_step;
                    prop_assert_eq!(a * x + b * y, c);
                    prop_assert!((-50..=50).contains(&x));
                    prop_assert!((-50..=50).contains(&y));
                }
            }
        }
    }
}
