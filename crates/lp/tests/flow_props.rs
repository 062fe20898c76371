//! Differential properties of the min-cost-flow pair-program solver
//! against the simplex.
//!
//! Random pair programs (0 to 40 variables, caps, `≤` and `≥` rows)
//! come in three kinds: built around a hidden feasible point, made
//! infeasible by construction (a `≥` row beyond its two caps, or one
//! against a chain of `≤` rows), and unconstrained draws whose verdict
//! nobody knows in advance. On every one, [`PairProgram::solve`] and
//! [`Problem::solve`](marauder_lp::Problem::solve) must return the
//! same verdict, optimal objectives must agree within 1e-9 relative,
//! and the flow's values must meet every row within 1e-9 times the
//! largest right-hand side.

use marauder_lp::flow::PairProgram;
use marauder_lp::{Outcome, Relation};
use proptest::prelude::*;

/// SplitMix64: the cases derive every number from one drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Two distinct indices below `n` (`n ≥ 2`).
    fn pair(&mut self, n: usize) -> (usize, usize) {
        let i = self.below(n);
        let j = (i + 1 + self.below(n - 1)) % n;
        (i, j)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// Rows built around a hidden feasible point.
    Feasible,
    /// A `≥` row larger than its two caps.
    OverCaps,
    /// A `≥` row against a chain of `≤` rows.
    AgainstChain,
    /// Random right-hand sides; either verdict.
    Free,
}

fn program(n: usize, seed: u64, kind: Kind) -> PairProgram {
    let mut rng = Rng(seed);
    let caps: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 100.0)).collect();
    let x0: Vec<f64> = caps.iter().map(|&c| c * rng.unit()).collect();
    let mut p = PairProgram::new(&caps);
    if n < 2 {
        return p;
    }
    let rows = rng.below(3 * n + 1);
    for _ in 0..rows {
        let (i, j) = rng.pair(n);
        let le = rng.below(3) != 0;
        let rhs = match kind {
            Kind::Free if le => rng.uniform(0.0, 150.0),
            Kind::Free => rng.uniform(0.0, 60.0),
            _ if le => x0[i] + x0[j] + rng.uniform(0.0, 20.0),
            _ => (x0[i] + x0[j] - rng.uniform(0.0, 20.0)).max(0.0),
        };
        let relation = if le { Relation::Le } else { Relation::Ge };
        p.add_row(i, j, relation, rhs);
    }
    match kind {
        Kind::OverCaps => {
            let (i, j) = rng.pair(n);
            p.add_row(
                i,
                j,
                Relation::Ge,
                caps[i] + caps[j] + rng.uniform(0.01, 10.0),
            );
        }
        Kind::AgainstChain if n >= 4 => {
            // Distinct v0..v3: s_v1 ≤ c1 (via v0) and s_v2 ≤ c2 (via
            // v3), so s_v1 + s_v2 ≥ c1 + c2 + margin has no solution.
            let mut v: Vec<usize> = (0..n).collect();
            for k in 0..4 {
                let pick = k + rng.below(n - k);
                v.swap(k, pick);
            }
            let (c1, c2) = (rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0));
            p.add_row(v[0], v[1], Relation::Le, c1);
            p.add_row(v[3], v[2], Relation::Le, c2);
            p.add_row(v[1], v[2], Relation::Ge, c1 + c2 + rng.uniform(0.01, 10.0));
        }
        _ => {}
    }
    p
}

fn kind_of(k: u8) -> Kind {
    match k {
        0 => Kind::Feasible,
        1 => Kind::OverCaps,
        2 => Kind::AgainstChain,
        _ => Kind::Free,
    }
}

/// The checks every case runs; returns the verdict for tallies.
fn check(p: &PairProgram, kind: Kind) -> Result<bool, TestCaseError> {
    let n = p.num_vars();
    let surely_infeasible = match kind {
        Kind::OverCaps => n >= 2,
        Kind::AgainstChain => n >= 4,
        Kind::Feasible | Kind::Free => false,
    };
    let flow = p.solve();
    let simplex = p.to_problem().solve();
    match (&flow, &simplex) {
        (Outcome::Optimal(f), Outcome::Optimal(s)) => {
            prop_assert!(
                (f.objective - s.objective).abs() <= 1e-9 * s.objective.abs().max(1.0),
                "objectives differ: flow {} simplex {}",
                f.objective,
                s.objective
            );
            let largest = p
                .rows()
                .iter()
                .map(|r| r.rhs.abs())
                .chain(p.caps().iter().map(|c| c.abs()))
                .fold(1.0f64, f64::max);
            let tol = 1e-9 * largest;
            let v = &f.values;
            for (i, (&x, &cap)) in v.iter().zip(p.caps()).enumerate() {
                prop_assert!(x >= -tol && x <= cap + tol, "s{i} = {x} outside [0, {cap}]");
            }
            for r in p.rows() {
                let lhs = v[r.i] + v[r.j];
                let ok = match r.relation {
                    Relation::Le => lhs <= r.rhs + tol,
                    Relation::Ge => lhs >= r.rhs - tol,
                    Relation::Eq => (lhs - r.rhs).abs() <= tol,
                };
                prop_assert!(ok, "row {r:?} violated: lhs {lhs}");
            }
            prop_assert!(!surely_infeasible, "an infeasible-by-construction program");
            Ok(true)
        }
        (Outcome::Infeasible, Outcome::Infeasible) => {
            prop_assert!(kind != Kind::Feasible, "a feasible-by-construction program");
            Ok(false)
        }
        _ => Err(TestCaseError::fail(format!(
            "verdicts differ: flow {flow:?} simplex {simplex:?}"
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flow_matches_the_simplex(n in 0usize..=40, seed in any::<u64>(), k in 0u8..4) {
        let kind = kind_of(k);
        check(&program(n, seed, kind), kind)?;
    }
}

/// A deterministic sweep over every size and kind, so that both
/// verdicts are certainly exercised at every `n`.
#[test]
fn every_size_and_kind_agrees() {
    let (mut optimal, mut infeasible) = (0, 0);
    for n in 0..=40 {
        for k in 0..4 {
            for seed in 0..3u64 {
                let kind = kind_of(k);
                let p = program(n, seed * 1000 + n as u64, kind);
                match check(&p, kind) {
                    Ok(true) => optimal += 1,
                    Ok(false) => infeasible += 1,
                    Err(e) => panic!("n={n} kind={kind:?} seed={seed}: {e}"),
                }
            }
        }
    }
    assert!(
        optimal > 100 && infeasible > 100,
        "{optimal} optimal, {infeasible} infeasible"
    );
}
