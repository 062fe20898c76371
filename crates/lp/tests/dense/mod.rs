//! The retained two-phase **dense** simplex — the reference solver.
//!
//! This is the original tableau implementation the sparse revised
//! simplex in `marauder_lp::simplex` replaced on the hot path. It is
//! kept verbatim as an independent oracle, outside the library: the
//! simplex's own unit tests, the differential property suite and the
//! brute-force cross-check pin the sparse solver's outcomes (status,
//! objective and values, bit for bit on the cold path) against this
//! module, so any divergence in the rewrite shows up as a test failure
//! rather than a silent behavioral drift. The `lp/cold_solve` bench
//! times it beside the sparse simplex and the flow.
//!
//! Each includer compiles its own copy (`mod dense;`, or `#[path]`
//! from the library's unit tests and the bench crate), so the paths
//! below name the library as `marauder_lp`.
//!
//! The implementation is textbook: constraints are normalized to
//! non-negative right-hand sides, slack variables are added for `≤`,
//! surplus plus artificial variables for `≥`, and artificial variables
//! for `=`. Phase 1 minimizes the sum of artificials (infeasible when
//! positive at optimum); phase 2 optimizes the real objective. Pivoting
//! uses Dantzig's rule with a fallback to Bland's rule after a stall
//! threshold, which guarantees termination on degenerate problems.
//!
//! Unlike `Problem::solve`, this entry point records no metrics: it is
//! a pure function, safe to call from tests and benches without
//! polluting the `lp.*` counters.

use marauder_lp::{Outcome, Problem, Relation, Solution};

/// The sparse simplex's pivoting tolerance: the bit-for-bit contract
/// holds only while both solvers share it.
const TOL: f64 = 1e-9;

/// Solves a [`Problem`] with the dense two-phase simplex method.
pub fn solve(problem: &Problem) -> Outcome {
    solve_counted(problem).0
}

/// The solver body, returning the outcome plus the pivot count so the
/// differential suite can also pin pivot-for-pivot equality with the
/// sparse cold path.
pub fn solve_counted(problem: &Problem) -> (Outcome, u64) {
    let n = problem.num_vars();
    let m = problem.num_constraints();

    // Normalize constraints to dense rows with non-negative RHS.
    struct Row {
        coeffs: Vec<f64>,
        relation: Relation,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(m);
    for c in problem.constraints() {
        let mut coeffs = vec![0.0; n];
        for &(i, v) in &c.coeffs {
            coeffs[i] += v;
        }
        let (coeffs, relation, rhs) = if c.rhs < 0.0 {
            let flipped = match c.relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
            (coeffs.iter().map(|v| -v).collect(), flipped, -c.rhs)
        } else {
            (coeffs, c.relation, c.rhs)
        };
        rows.push(Row {
            coeffs,
            relation,
            rhs,
        });
    }

    let num_slack = rows
        .iter()
        .filter(|r| matches!(r.relation, Relation::Le | Relation::Ge))
        .count();
    let num_artificial = rows
        .iter()
        .filter(|r| matches!(r.relation, Relation::Ge | Relation::Eq))
        .count();
    let cols = n + num_slack + num_artificial + 1; // + RHS

    let mut a = vec![vec![0.0; cols]; m];
    let mut basis = vec![usize::MAX; m];
    let mut slack_idx = n;
    let mut art_idx = n + num_slack;
    let mut artificials: Vec<usize> = Vec::with_capacity(num_artificial);

    for (r, row) in rows.iter().enumerate() {
        a[r][..n].copy_from_slice(&row.coeffs);
        a[r][cols - 1] = row.rhs;
        match row.relation {
            Relation::Le => {
                a[r][slack_idx] = 1.0;
                basis[r] = slack_idx;
                slack_idx += 1;
            }
            Relation::Ge => {
                a[r][slack_idx] = -1.0; // surplus
                slack_idx += 1;
                a[r][art_idx] = 1.0;
                basis[r] = art_idx;
                artificials.push(art_idx);
                art_idx += 1;
            }
            Relation::Eq => {
                a[r][art_idx] = 1.0;
                basis[r] = art_idx;
                artificials.push(art_idx);
                art_idx += 1;
            }
        }
    }

    let mut t = Tableau {
        a,
        z: vec![0.0; cols],
        basis,
        cols,
        pivots: 0,
    };

    // Phase 1: minimize sum of artificials == maximize -(sum).
    if !artificials.is_empty() {
        for &c in &artificials {
            t.z[c] = 1.0;
        }
        // Make the objective row consistent with the basis (artificials
        // are basic): subtract their rows.
        for r in 0..m {
            if artificials.contains(&t.basis[r]) {
                let row = t.a[r].clone();
                for (v, rv) in t.z.iter_mut().zip(&row) {
                    *v -= rv;
                }
            }
        }
        let bounded = t.optimize(cols - 1);
        debug_assert!(bounded, "phase 1 is always bounded below by 0");
        let phase1_obj = -t.z[cols - 1];
        if phase1_obj > 1e-7 {
            return (Outcome::Infeasible, t.pivots);
        }
        // Drive any remaining basic artificials out (degenerate rows).
        for r in 0..m {
            if artificials.contains(&t.basis[r]) {
                if let Some(c) = (0..n + num_slack).find(|&c| t.a[r][c].abs() > TOL) {
                    t.pivot(r, c);
                }
                // If no pivot column exists the row is all-zero
                // (redundant constraint) and can stay as-is.
            }
        }
        // Erase artificial columns so phase 2 never re-enters them.
        for &c in &artificials {
            for r in 0..m {
                t.a[r][c] = 0.0;
            }
        }
    }

    // Phase 2: the real objective. Simplex maximizes; minimization
    // negates the costs.
    let sign = if problem.is_maximize() { 1.0 } else { -1.0 };
    t.z = vec![0.0; cols];
    for (i, &c) in problem.objective().iter().enumerate() {
        t.z[i] = -sign * c;
    }
    // Make the objective row consistent with the current basis.
    for r in 0..m {
        let b = t.basis[r];
        if b < cols - 1 && t.z[b].abs() > TOL {
            let factor = t.z[b];
            let row = t.a[r].clone();
            for (v, rv) in t.z.iter_mut().zip(&row) {
                *v -= factor * rv;
            }
            t.z[b] = 0.0;
        }
    }
    if !t.optimize(n + num_slack) {
        return (Outcome::Unbounded, t.pivots);
    }

    let mut values = vec![0.0; n];
    for (r, &b) in t.basis.iter().enumerate() {
        if b < n {
            values[b] = t.a[r][cols - 1];
        }
    }
    let objective: f64 = problem
        .objective()
        .iter()
        .zip(&values)
        .map(|(c, v)| c * v)
        .sum();
    (Outcome::Optimal(Solution { values, objective }), t.pivots)
}

struct Tableau {
    /// `rows × cols` coefficient matrix; the last column is the RHS.
    a: Vec<Vec<f64>>,
    /// Objective row (cost coefficients, last entry = objective value
    /// negated by simplex convention).
    z: Vec<f64>,
    /// Basis: for each row, the index of its basic variable.
    basis: Vec<usize>,
    cols: usize,
    /// Pivot operations performed, across both phases.
    pivots: u64,
}

impl Tableau {
    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let piv = self.a[row][col];
        debug_assert!(piv.abs() > TOL, "pivot too small: {piv}");
        let inv = 1.0 / piv;
        for v in &mut self.a[row] {
            *v *= inv;
        }
        let pivot_row = self.a[row].clone();
        for (r, a_row) in self.a.iter_mut().enumerate() {
            if r == row {
                continue;
            }
            let factor = a_row[col];
            if factor.abs() > TOL {
                for (v, pv) in a_row.iter_mut().zip(&pivot_row) {
                    *v -= factor * pv;
                }
                a_row[col] = 0.0; // exact zero against drift
            }
        }
        let factor = self.z[col];
        if factor.abs() > TOL {
            for (v, pv) in self.z.iter_mut().zip(&pivot_row) {
                *v -= factor * pv;
            }
            self.z[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// Runs simplex iterations (maximization of the `z` row in the form
    /// where reduced costs appear negated). Returns `false` when the
    /// problem is unbounded. `active_cols` limits the entering columns.
    fn optimize(&mut self, active_cols: usize) -> bool {
        let mut stalled = 0usize;
        let stall_threshold = 64 + 4 * self.a.len();
        loop {
            // Entering column: Dantzig (most negative) or Bland when
            // degenerate pivoting threatens to cycle.
            let entering = if stalled < stall_threshold {
                let mut best: Option<(usize, f64)> = None;
                for c in 0..active_cols {
                    let v = self.z[c];
                    if v < -TOL && best.is_none_or(|(_, bv)| v < bv) {
                        best = Some((c, v));
                    }
                }
                best.map(|(c, _)| c)
            } else {
                (0..active_cols).find(|&c| self.z[c] < -TOL)
            };
            let Some(col) = entering else {
                return true; // optimal
            };
            // Leaving row: minimum ratio test (Bland ties by basis index).
            let mut leave: Option<(usize, f64)> = None;
            for r in 0..self.a.len() {
                let coef = self.a[r][col];
                if coef > TOL {
                    let ratio = self.a[r][self.cols - 1] / coef;
                    let better = match leave {
                        None => true,
                        Some((lr, lratio)) => {
                            ratio < lratio - TOL
                                || (ratio < lratio + TOL && self.basis[r] < self.basis[lr])
                        }
                    };
                    if better {
                        leave = Some((r, ratio));
                    }
                }
            }
            let Some((row, ratio)) = leave else {
                return false; // unbounded
            };
            if ratio.abs() < TOL {
                stalled += 1;
            } else {
                stalled = 0;
            }
            self.pivot(row, col);
        }
    }
}
