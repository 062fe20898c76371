//! Property-based tests for the simplex solver.
//!
//! Strategy: generate LPs with a known feasible point, then check that
//! the solver (a) reports feasibility, (b) returns a feasible solution,
//! and (c) returns an objective at least as good as the known point.
//!
//! The differential properties at the bottom pin the sparse solver
//! against the retained dense reference (`tests/dense`):
//! bit-for-bit on the cold path (status, objective, values — modulo
//! zero signs, which neither path defines), and optimum-equivalent on
//! warm-started solves (which may legitimately stop at a different
//! vertex of the same optimal face).

mod dense;

use marauder_lp::{solve_with_basis, BasisHint, Outcome, Problem, Relation, WarmStart};
use proptest::prelude::*;

/// A generated LP whose constraints are all of the form `aᵀx ≤ b` with
/// `b = aᵀx₀ + slack` for a known point `x₀ ≥ 0`, guaranteeing
/// feasibility, plus per-variable caps that guarantee boundedness.
#[derive(Debug, Clone)]
struct FeasibleLp {
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
    caps: Vec<f64>,
    x0: Vec<f64>,
}

fn arb_feasible_lp() -> impl Strategy<Value = FeasibleLp> {
    (2usize..6).prop_flat_map(|n| {
        let objective = prop::collection::vec(-5.0..5.0f64, n);
        let x0 = prop::collection::vec(0.0..3.0f64, n);
        let rows =
            prop::collection::vec((prop::collection::vec(-2.0..2.0f64, n), 0.01..4.0f64), 1..8);
        let caps = prop::collection::vec(0.5..10.0f64, n);
        (objective, x0, rows, caps).prop_map(|(objective, x0, raw_rows, caps)| {
            // Clamp x0 under the caps so it stays feasible.
            let x0: Vec<f64> = x0.iter().zip(&caps).map(|(v, c)| v.min(*c)).collect();
            let rows = raw_rows
                .into_iter()
                .map(|(a, slack)| {
                    let b: f64 = a.iter().zip(&x0).map(|(ai, xi)| ai * xi).sum::<f64>() + slack;
                    (a, b)
                })
                .collect();
            FeasibleLp {
                objective,
                rows,
                caps,
                x0,
            }
        })
    })
}

fn build(lp: &FeasibleLp) -> Problem {
    let mut p = Problem::maximize(&lp.objective);
    for (a, b) in &lp.rows {
        let coeffs: Vec<(usize, f64)> = a.iter().copied().enumerate().collect();
        p.add_constraint(&coeffs, Relation::Le, *b);
    }
    for (i, &cap) in lp.caps.iter().enumerate() {
        p.add_upper_bound(i, cap);
    }
    p
}

/// A generated LP with arbitrary relations — feasibility NOT
/// guaranteed (infeasible and unbounded programs are the point).
#[derive(Debug, Clone)]
struct MixedLp {
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, u8, f64)>,
}

fn arb_mixed_lp() -> impl Strategy<Value = MixedLp> {
    (2usize..5).prop_flat_map(|n| {
        let objective = prop::collection::vec(-5.0..5.0f64, n);
        let rows = prop::collection::vec(
            (prop::collection::vec(-3.0..3.0f64, n), 0u8..3, -6.0..6.0f64),
            1..7,
        );
        (objective, rows).prop_map(|(objective, rows)| MixedLp { objective, rows })
    })
}

fn build_mixed(lp: &MixedLp) -> Problem {
    let mut p = Problem::maximize(&lp.objective);
    for (a, rel, b) in &lp.rows {
        let coeffs: Vec<(usize, f64)> = a.iter().copied().enumerate().collect();
        let relation = match rel {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        p.add_constraint(&coeffs, relation, *b);
    }
    p
}

/// Asserts two outcomes are identical bit for bit, treating `-0.0` and
/// `+0.0` as the same value (`x + 0.0` canonicalizes the zero sign,
/// which neither solver pins down).
fn assert_bit_identical(sparse: &Outcome, dense: &Outcome) -> Result<(), TestCaseError> {
    match (sparse, dense) {
        (Outcome::Optimal(s), Outcome::Optimal(d)) => {
            prop_assert_eq!(
                (s.objective + 0.0).to_bits(),
                (d.objective + 0.0).to_bits(),
                "objective bits diverged: {} vs {}",
                s.objective,
                d.objective
            );
            prop_assert_eq!(s.values.len(), d.values.len());
            for (i, (sv, dv)) in s.values.iter().zip(&d.values).enumerate() {
                prop_assert_eq!(
                    (sv + 0.0).to_bits(),
                    (dv + 0.0).to_bits(),
                    "value {} diverged: {} vs {}",
                    i,
                    sv,
                    dv
                );
            }
            Ok(())
        }
        (a, b) => {
            prop_assert_eq!(a, b, "outcome kind diverged");
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_finds_feasible_optimum(lp in arb_feasible_lp()) {
        let p = build(&lp);
        let outcome = p.solve();
        let sol = match outcome {
            Outcome::Optimal(s) => s,
            other => return Err(TestCaseError::fail(format!("expected optimal, got {other:?}"))),
        };
        // (b) solution is feasible.
        for (a, b) in &lp.rows {
            let lhs: f64 = a.iter().zip(&sol.values).map(|(ai, xi)| ai * xi).sum();
            prop_assert!(lhs <= b + 1e-6, "violated: {lhs} > {b}");
        }
        for (i, &cap) in lp.caps.iter().enumerate() {
            prop_assert!(sol.values[i] <= cap + 1e-6);
            prop_assert!(sol.values[i] >= -1e-9);
        }
        // (c) at least as good as the known feasible point.
        let x0_obj: f64 = lp.objective.iter().zip(&lp.x0).map(|(c, x)| c * x).sum();
        prop_assert!(sol.objective >= x0_obj - 1e-6,
            "optimum {} worse than feasible point {}", sol.objective, x0_obj);
        // Objective is consistent with values.
        let recomputed: f64 = lp.objective.iter().zip(&sol.values).map(|(c, x)| c * x).sum();
        prop_assert!((recomputed - sol.objective).abs() < 1e-6);
    }

    #[test]
    fn min_and_max_bracket_each_other(lp in arb_feasible_lp()) {
        let pmax = build(&lp);
        let mut pmin = Problem::minimize(&lp.objective);
        for (a, b) in &lp.rows {
            let coeffs: Vec<(usize, f64)> = a.iter().copied().enumerate().collect();
            pmin.add_constraint(&coeffs, Relation::Le, *b);
        }
        for (i, &cap) in lp.caps.iter().enumerate() {
            pmin.add_upper_bound(i, cap);
        }
        let smax = pmax.solve().into_optimal().expect("bounded");
        let smin = pmin.solve().into_optimal().expect("bounded below: x >= 0, caps");
        prop_assert!(smin.objective <= smax.objective + 1e-6);
    }

    #[test]
    fn sparse_cold_path_matches_dense_reference_bit_for_bit(lp in arb_feasible_lp()) {
        let p = build(&lp);
        assert_bit_identical(&p.solve(), &dense::solve(&p))?;
    }

    #[test]
    fn sparse_matches_dense_on_mixed_relations(lp in arb_mixed_lp()) {
        // Degenerate, infeasible and unbounded programs included: the
        // two solvers must agree on the *kind* of outcome and, when
        // optimal, on every bit of the solution.
        let p = build_mixed(&lp);
        assert_bit_identical(&p.solve(), &dense::solve(&p))?;
    }

    #[test]
    fn warm_start_reaches_the_dense_optimum(lp in arb_feasible_lp()) {
        let p = build(&lp);
        let cold = solve_with_basis(&p, None);
        let warm = solve_with_basis(&p, Some(&WarmStart { rows: cold.basis.clone() }));
        // A negative generated RHS normalizes the row to `≥`, which
        // needs artificials and correctly declines the warm attempt.
        let pure_le = lp.rows.iter().all(|(_, b)| *b >= 0.0);
        if pure_le {
            prop_assert!(warm.warm_start_used, "own optimal basis must be a warm hit");
            // Usually 0; rounding in the rebuilt reduced costs can
            // allow a couple of degenerate same-vertex pivots, but the
            // warm solve must never do more optimizing work than cold.
            prop_assert!(warm.pivots - warm.setup_pivots <= cold.pivots,
                "warm optimizing pivots {} exceed cold {}",
                warm.pivots - warm.setup_pivots, cold.pivots);
        }
        let d = dense::solve(&p).into_optimal().expect("feasible by construction");
        let w = warm.outcome.into_optimal().expect("warm solve must stay optimal");
        prop_assert!((w.objective - d.objective).abs() < 1e-6 * (1.0 + d.objective.abs()),
            "warm objective {} vs dense {}", w.objective, d.objective);
        // The warm vertex may differ from the dense one, but it must be
        // feasible for the original program.
        for (a, b) in &lp.rows {
            let lhs: f64 = a.iter().zip(&w.values).map(|(ai, xi)| ai * xi).sum();
            prop_assert!(lhs <= b + 1e-6, "warm solution violates a row: {lhs} > {b}");
        }
        for (i, &cap) in lp.caps.iter().enumerate() {
            prop_assert!(w.values[i] <= cap + 1e-6);
            prop_assert!(w.values[i] >= -1e-9);
        }
    }

    #[test]
    fn arbitrary_warm_hints_never_change_the_optimum(lp in arb_feasible_lp(), salt in 0usize..7) {
        // Garbage hints (wrong variables, duplicates, out-of-range
        // indices) may hit or miss, but must never change the optimum.
        let p = build(&lp);
        let n = lp.objective.len();
        let hints: Vec<BasisHint> = (0..p.num_constraints())
            .map(|r| match (r + salt) % 3 {
                0 => BasisHint::Slack,
                1 => BasisHint::Decision((r + salt) % n),
                _ => BasisHint::Decision(n + r), // out of range on purpose
            })
            .collect();
        let warm = solve_with_basis(&p, Some(&WarmStart { rows: hints }));
        let d = dense::solve(&p).into_optimal().expect("feasible by construction");
        let w = warm.outcome.into_optimal().expect("hints must not break optimality");
        prop_assert!((w.objective - d.objective).abs() < 1e-6 * (1.0 + d.objective.abs()),
            "hinted objective {} vs dense {}", w.objective, d.objective);
    }

    #[test]
    fn scaling_objective_scales_optimum(lp in arb_feasible_lp(), k in 0.1..5.0f64) {
        let base = build(&lp).solve().into_optimal().expect("bounded");
        let scaled_obj: Vec<f64> = lp.objective.iter().map(|c| c * k).collect();
        let scaled_lp = FeasibleLp { objective: scaled_obj, ..lp.clone() };
        let scaled = build(&scaled_lp).solve().into_optimal().expect("bounded");
        prop_assert!((scaled.objective - k * base.objective).abs() < 1e-5 * (1.0 + base.objective.abs()),
            "k={k}: {} vs {}", scaled.objective, k * base.objective);
    }
}
