//! A small exact branch-and-bound integer linear program solver.
//!
//! The paper solves its strided-overlap constraints with GNU GLPK. This
//! module is the stand-in: a dense two-phase simplex over exact rationals
//! for the LP relaxation, with branch-and-bound on fractional variables for
//! integrality. It is written for the *shape* of SWORD's systems — a
//! handful of variables with box bounds and one or two equalities — not for
//! industrial LPs; the race check uses the specialized Diophantine solve in
//! [`crate::diophantine`], and this solver, compiled only into this crate's
//! tests, cross-checks it (the `ilp_agrees_with_diophantine` property test
//! and the exhaustive small-box test).

use crate::rational::Rational;

/// Relation of a linear constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// `coeffs · x ≤ rhs`
    Le,
    /// `coeffs · x ≥ rhs`
    Ge,
    /// `coeffs · x = rhs`
    Eq,
}

#[derive(Clone, Debug)]
struct Constraint {
    coeffs: Vec<i128>,
    rel: Relation,
    rhs: i128,
}

/// Outcome of an ILP solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IlpStatus {
    /// An integer point satisfying all constraints and bounds exists.
    Feasible,
    /// No integer point exists.
    Infeasible,
    /// The branch-and-bound node budget was exhausted (never observed for
    /// SWORD-shaped systems; reported rather than guessed).
    NodeLimit,
}

/// An integer linear feasibility/optimization problem with box-bounded
/// variables.
#[derive(Clone, Debug)]
pub struct IlpProblem {
    num_vars: usize,
    bounds: Vec<(i128, i128)>,
    constraints: Vec<Constraint>,
    node_limit: usize,
}

impl IlpProblem {
    /// A feasibility problem over `num_vars` integer variables, initially
    /// bounded to `[0, 0]` each — call [`IlpProblem::set_bounds`].
    pub fn feasibility(num_vars: usize) -> Self {
        IlpProblem {
            num_vars,
            bounds: vec![(0, 0); num_vars],
            constraints: Vec::new(),
            node_limit: 10_000,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Sets inclusive bounds for variable `var`.
    pub fn set_bounds(&mut self, var: usize, lo: i128, hi: i128) {
        self.bounds[var] = (lo, hi);
    }

    /// Adds `coeffs · x REL rhs`. `coeffs.len()` must equal `num_vars`.
    pub fn add_constraint(&mut self, coeffs: Vec<i128>, rel: Relation, rhs: i128) {
        assert_eq!(coeffs.len(), self.num_vars, "constraint arity mismatch");
        self.constraints.push(Constraint { coeffs, rel, rhs });
    }

    /// Caps the number of branch-and-bound nodes explored.
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit;
    }

    /// Decides integer feasibility.
    pub fn solve(&self) -> IlpStatus {
        self.solve_witness().0
    }

    /// Decides integer feasibility and returns a witness point if feasible.
    pub fn solve_witness(&self) -> (IlpStatus, Option<Vec<i128>>) {
        // Quick reject: any empty box.
        if self.bounds.iter().any(|&(lo, hi)| lo > hi) {
            return (IlpStatus::Infeasible, None);
        }
        let mut nodes = 0usize;
        let mut stack = vec![self.bounds.clone()];
        while let Some(bounds) = stack.pop() {
            nodes += 1;
            if nodes > self.node_limit {
                return (IlpStatus::NodeLimit, None);
            }
            match self.lp_relaxation(&bounds) {
                None => continue, // LP infeasible: prune
                Some(point) => {
                    if let Some(frac_var) = point.iter().position(|v| !v.is_integer()) {
                        // Branch on the fractional variable.
                        let v = point[frac_var];
                        let (lo, hi) = bounds[frac_var];
                        let fl = v.floor();
                        let ce = v.ceil();
                        if fl >= lo {
                            let mut left = bounds.clone();
                            left[frac_var].1 = fl;
                            stack.push(left);
                        }
                        if ce <= hi {
                            let mut right = bounds.clone();
                            right[frac_var].0 = ce;
                            stack.push(right);
                        }
                    } else {
                        let witness: Vec<i128> = point.iter().map(|v| v.num()).collect();
                        debug_assert!(self.check_integer_point(&witness));
                        return (IlpStatus::Feasible, Some(witness));
                    }
                }
            }
        }
        (IlpStatus::Infeasible, None)
    }

    /// `true` when an integer point satisfies every bound and constraint.
    pub fn check_integer_point(&self, point: &[i128]) -> bool {
        if point.len() != self.num_vars {
            return false;
        }
        for (v, &(lo, hi)) in point.iter().zip(&self.bounds) {
            if *v < lo || *v > hi {
                return false;
            }
        }
        self.constraints.iter().all(|c| {
            let lhs: i128 = c.coeffs.iter().zip(point).map(|(a, x)| a * x).sum();
            match c.rel {
                Relation::Le => lhs <= c.rhs,
                Relation::Ge => lhs >= c.rhs,
                Relation::Eq => lhs == c.rhs,
            }
        })
    }

    /// Solves the LP relaxation restricted to `bounds` via phase-1 simplex;
    /// returns any feasible (vertex) point or `None` when infeasible.
    fn lp_relaxation(&self, bounds: &[(i128, i128)]) -> Option<Vec<Rational>> {
        // Shift variables so x' = x - lo ≥ 0, then solve in standard form
        // with rows for every constraint and for every finite upper bound.
        let n = self.num_vars;
        let mut rows: Vec<(Vec<Rational>, Rational)> = Vec::new(); // a·x' ≤ b
        for (i, &(lo, hi)) in bounds.iter().enumerate() {
            if lo > hi {
                return None;
            }
            let width = hi - lo;
            let mut coeffs = vec![Rational::ZERO; n];
            coeffs[i] = Rational::ONE;
            rows.push((coeffs, Rational::int(width)));
        }
        for c in &self.constraints {
            // Σ a_i (x'_i + lo_i) REL rhs  ⇒  Σ a_i x'_i REL rhs - Σ a_i lo_i
            let shift: i128 = c.coeffs.iter().zip(bounds).map(|(a, &(lo, _))| a * lo).sum();
            let rhs = Rational::int(c.rhs - shift);
            let coeffs: Vec<Rational> = c.coeffs.iter().map(|&a| Rational::int(a)).collect();
            match c.rel {
                Relation::Le => rows.push((coeffs, rhs)),
                Relation::Ge => {
                    rows.push((coeffs.iter().map(|&a| -a).collect(), -rhs));
                }
                Relation::Eq => {
                    rows.push((coeffs.clone(), rhs));
                    rows.push((coeffs.iter().map(|&a| -a).collect(), -rhs));
                }
            }
        }
        let sol = phase1_simplex(n, &rows)?;
        // Undo the shift.
        Some(sol.iter().zip(bounds).map(|(v, &(lo, _))| *v + Rational::int(lo)).collect())
    }
}

/// Phase-1 simplex: finds `x ≥ 0` with `A x ≤ b` (rows), or `None`.
///
/// Adds one artificial variable `z` with `A x − z·1 ≤ b`, `z ≥ 0` on the
/// rows with negative `b`, minimizes `z`; feasible iff min is 0. Dense
/// tableau with Bland's rule (no cycling).
fn phase1_simplex(n: usize, rows: &[(Vec<Rational>, Rational)]) -> Option<Vec<Rational>> {
    let m = rows.len();
    if m == 0 {
        return Some(vec![Rational::ZERO; n]);
    }
    // If b ≥ 0 everywhere, x = 0 is feasible.
    if rows.iter().all(|(_, b)| *b >= Rational::ZERO) {
        return Some(vec![Rational::ZERO; n]);
    }
    // Tableau columns: x(0..n), artificial z (n), slacks (n+1..n+1+m), rhs.
    let cols = n + 1 + m;
    let mut t: Vec<Vec<Rational>> = Vec::with_capacity(m + 1);
    for (i, (a, b)) in rows.iter().enumerate() {
        let mut row = vec![Rational::ZERO; cols + 1];
        row[..n].copy_from_slice(a);
        row[n] = -Rational::ONE; // artificial
        row[n + 1 + i] = Rational::ONE; // slack
        row[cols] = *b;
        t.push(row);
    }
    // Objective: minimize z ⇒ maximize -z. Objective row holds -(coeffs of
    // maximize), classic tableau: z_row = c for max problem negated.
    let mut obj = vec![Rational::ZERO; cols + 1];
    obj[n] = Rational::ONE; // minimize z: objective row coefficient
    t.push(obj);

    let mut basis: Vec<usize> = (0..m).map(|i| n + 1 + i).collect();

    // Initial pivot: bring z into the basis on the most negative rhs row to
    // restore feasibility.
    let pivot_row = (0..m).min_by(|&i, &j| t[i][cols].cmp(&t[j][cols])).expect("nonempty tableau");
    pivot(&mut t, pivot_row, n, &mut basis);

    // Simplex iterations (Bland's rule) minimizing z.
    loop {
        // Reduced costs live in the objective row after pivoting.
        let obj_row = m; // index of objective row
        let entering = (0..cols).find(|&j| t[obj_row][j] < Rational::ZERO);
        let Some(e) = entering else { break };
        // Ratio test.
        let mut best: Option<(usize, Rational)> = None;
        for i in 0..m {
            if t[i][e] > Rational::ZERO {
                let ratio = t[i][cols] / t[i][e];
                match &best {
                    None => best = Some((i, ratio)),
                    Some((bi, br)) => {
                        if ratio < *br || (ratio == *br && basis[i] < basis[*bi]) {
                            best = Some((i, ratio));
                        }
                    }
                }
            }
        }
        let Some((r, _)) = best else {
            // Unbounded below ⇒ z can reach 0 ⇒ feasible; but minimizing z ≥
            // 0 can never be unbounded. Defensive: treat as infeasible.
            return None;
        };
        pivot(&mut t, r, e, &mut basis);
    }

    // Feasible iff objective value (min z) is 0. With the convention used,
    // the objective row rhs is -(current objective value) for maximize; we
    // minimized z directly, value = -t[m][cols]? Track via basis instead:
    let z_value =
        basis.iter().position(|&b| b == n).map(|row| t[row][cols]).unwrap_or(Rational::ZERO);
    if !z_value.is_zero() {
        return None;
    }
    // Read off x.
    let mut x = vec![Rational::ZERO; n];
    for (row, &b) in basis.iter().enumerate() {
        if b < n {
            x[b] = t[row][cols];
        }
    }
    Some(x)
}

fn pivot(t: &mut [Vec<Rational>], row: usize, col: usize, basis: &mut [usize]) {
    let cols = t[0].len();
    let inv = t[row][col].recip();
    for v in t[row].iter_mut() {
        *v = *v * inv;
    }
    let pivot_row = t[row].clone();
    for (i, r) in t.iter_mut().enumerate() {
        if i == row {
            continue;
        }
        let factor = r[col];
        if factor.is_zero() {
            continue;
        }
        for j in 0..cols {
            r[j] = r[j] - factor * pivot_row[j];
        }
    }
    if row < basis.len() {
        basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_feasible() {
        let mut p = IlpProblem::feasibility(2);
        p.set_bounds(0, 0, 10);
        p.set_bounds(1, 0, 10);
        p.add_constraint(vec![1, 1], Relation::Le, 5);
        assert_eq!(p.solve(), IlpStatus::Feasible);
    }

    #[test]
    fn trivial_infeasible() {
        let mut p = IlpProblem::feasibility(1);
        p.set_bounds(0, 0, 10);
        p.add_constraint(vec![1], Relation::Ge, 11);
        assert_eq!(p.solve(), IlpStatus::Infeasible);
    }

    #[test]
    fn equality_requires_integrality() {
        // 2x = 3 has rational solution 1.5 but no integer one.
        let mut p = IlpProblem::feasibility(1);
        p.set_bounds(0, 0, 10);
        p.add_constraint(vec![2], Relation::Eq, 3);
        assert_eq!(p.solve(), IlpStatus::Infeasible);
    }

    #[test]
    fn diophantine_style_equality() {
        // 3x - 5y = 1, x,y in [0,10] — feasible at (2,1).
        let mut p = IlpProblem::feasibility(2);
        p.set_bounds(0, 0, 10);
        p.set_bounds(1, 0, 10);
        p.add_constraint(vec![3, -5], Relation::Eq, 1);
        let (st, w) = p.solve_witness();
        assert_eq!(st, IlpStatus::Feasible);
        let w = w.unwrap();
        assert_eq!(3 * w[0] - 5 * w[1], 1);
    }

    #[test]
    fn paper_figure4_infeasible() {
        // T0: 8·x0 + 10 + s0 = a; T1: 8·x1 + 14 + s1 = a.
        // Combined: 8·x0 + s0 - 8·x1 - s1 = 4; s ∈ [0,4), x ∈ [0,4].
        let mut p = IlpProblem::feasibility(4);
        p.add_constraint(vec![8, 1, -8, -1], Relation::Eq, 4);
        p.set_bounds(0, 0, 4);
        p.set_bounds(1, 0, 3);
        p.set_bounds(2, 0, 4);
        p.set_bounds(3, 0, 3);
        // s0 - s1 = 4 - 8(x0 - x1): with |s0 - s1| ≤ 3, need 4 ≡ 0 mod 8
        // within reach — infeasible.
        assert_eq!(p.solve(), IlpStatus::Infeasible);
    }

    #[test]
    fn negative_bounds() {
        let mut p = IlpProblem::feasibility(2);
        p.set_bounds(0, -10, -1);
        p.set_bounds(1, -20, 0);
        p.add_constraint(vec![-7, 2], Relation::Eq, 5);
        let (st, w) = p.solve_witness();
        assert_eq!(st, IlpStatus::Feasible);
        let w = w.unwrap();
        assert_eq!(-7 * w[0] + 2 * w[1], 5);
        assert!((-10..=-1).contains(&w[0]));
    }

    #[test]
    fn empty_box_infeasible() {
        let mut p = IlpProblem::feasibility(1);
        p.set_bounds(0, 3, 2);
        assert_eq!(p.solve(), IlpStatus::Infeasible);
    }

    #[test]
    fn multiple_constraints() {
        // x + y ≥ 6, x - y ≤ 1, x,y ∈ [0,4]: e.g. (3,3) works.
        let mut p = IlpProblem::feasibility(2);
        p.set_bounds(0, 0, 4);
        p.set_bounds(1, 0, 4);
        p.add_constraint(vec![1, 1], Relation::Ge, 6);
        p.add_constraint(vec![1, -1], Relation::Le, 1);
        let (st, w) = p.solve_witness();
        assert_eq!(st, IlpStatus::Feasible);
        assert!(p.check_integer_point(&w.unwrap()));
    }

    #[test]
    fn witness_always_checks() {
        let mut p = IlpProblem::feasibility(3);
        for i in 0..3 {
            p.set_bounds(i, 0, 7);
        }
        p.add_constraint(vec![2, 3, 5], Relation::Eq, 23);
        let (st, w) = p.solve_witness();
        assert_eq!(st, IlpStatus::Feasible);
        assert!(p.check_integer_point(&w.unwrap()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn agrees_with_bruteforce_2var(
            a in -6i128..7, b in -6i128..7, c in -20i128..21,
            lo0 in -4i128..5, w0 in 0i128..6,
            lo1 in -4i128..5, w1 in 0i128..6,
        ) {
            let mut p = IlpProblem::feasibility(2);
            p.set_bounds(0, lo0, lo0 + w0);
            p.set_bounds(1, lo1, lo1 + w1);
            p.add_constraint(vec![a, b], Relation::Eq, c);
            let brute = (lo0..=lo0 + w0).any(|x| (lo1..=lo1 + w1).any(|y| a * x + b * y == c));
            let (st, w) = p.solve_witness();
            prop_assert_eq!(st == IlpStatus::Feasible, brute,
                "a={} b={} c={} x=[{},{}] y=[{},{}]", a, b, c, lo0, lo0+w0, lo1, lo1+w1);
            if let Some(w) = w {
                prop_assert!(p.check_integer_point(&w));
            }
        }

        #[test]
        fn agrees_with_bruteforce_inequalities(
            a in -5i128..6, b in -5i128..6, c in -15i128..16,
            d in -5i128..6, e in -5i128..6, f in -15i128..16,
            hi0 in 0i128..6, hi1 in 0i128..6,
        ) {
            let mut p = IlpProblem::feasibility(2);
            p.set_bounds(0, 0, hi0);
            p.set_bounds(1, 0, hi1);
            p.add_constraint(vec![a, b], Relation::Le, c);
            p.add_constraint(vec![d, e], Relation::Ge, f);
            let brute = (0..=hi0).any(|x| (0..=hi1).any(|y| a * x + b * y <= c && d * x + e * y >= f));
            let (st, w) = p.solve_witness();
            prop_assert_eq!(st == IlpStatus::Feasible, brute);
            if let Some(w) = w {
                prop_assert!(p.check_integer_point(&w));
            }
        }
    }
}
