//! Cross-validation of the simplex solver against brute-force vertex
//! enumeration.
//!
//! For a bounded feasible LP, an optimum lies at a vertex of the
//! feasible polytope — i.e. at an intersection of `n` constraint
//! hyperplanes (including the axes). For small `n` we can enumerate all
//! candidate vertices, keep the feasible ones, and take the best: an
//! independent oracle for the simplex implementation.

mod dense;

use marauder_lp::{Outcome, Problem, Relation};

/// A dense `≤` system: rows of `(coeffs, rhs)` plus implicit `x ≥ 0`
/// and per-variable caps.
struct DenseLp {
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
    caps: Vec<f64>,
}

impl DenseLp {
    fn to_problem(&self) -> Problem {
        let mut p = Problem::maximize(&self.objective);
        for (a, b) in &self.rows {
            let coeffs: Vec<(usize, f64)> = a.iter().copied().enumerate().collect();
            p.add_constraint(&coeffs, Relation::Le, *b);
        }
        for (i, &c) in self.caps.iter().enumerate() {
            p.add_upper_bound(i, c);
        }
        p
    }

    /// All constraint hyperplanes as `a·x = b` rows (constraints, caps,
    /// axes).
    fn hyperplanes(&self) -> Vec<(Vec<f64>, f64)> {
        let n = self.objective.len();
        let mut out: Vec<(Vec<f64>, f64)> = self.rows.clone();
        for i in 0..n {
            let mut axis = vec![0.0; n];
            axis[i] = 1.0;
            out.push((axis.clone(), self.caps[i])); // x_i = cap
            out.push((axis, 0.0)); // x_i = 0
        }
        out
    }

    fn feasible(&self, x: &[f64]) -> bool {
        let tol = 1e-7;
        for (a, b) in &self.rows {
            let lhs: f64 = a.iter().zip(x).map(|(ai, xi)| ai * xi).sum();
            if lhs > b + tol {
                return false;
            }
        }
        x.iter()
            .zip(&self.caps)
            .all(|(xi, c)| *xi >= -tol && *xi <= c + tol)
    }

    /// Brute-force optimum over all vertices (n = 2 or 3 only).
    fn brute_force_optimum(&self) -> Option<f64> {
        let n = self.objective.len();
        assert!(n == 2 || n == 3, "vertex enumeration only for tiny n");
        let planes = self.hyperplanes();
        let mut best: Option<f64> = None;
        let idx: Vec<usize> = (0..planes.len()).collect();
        let mut consider = |x: &[f64]| {
            if self.feasible(x) {
                let v: f64 = self.objective.iter().zip(x).map(|(c, xi)| c * xi).sum();
                best = Some(best.map_or(v, |b: f64| b.max(v)));
            }
        };
        if n == 2 {
            for i in &idx {
                for j in &idx {
                    if i >= j {
                        continue;
                    }
                    if let Some(x) = solve2(&planes[*i], &planes[*j]) {
                        consider(&x);
                    }
                }
            }
        } else {
            for i in &idx {
                for j in &idx {
                    for k in &idx {
                        if !(i < j && j < k) {
                            continue;
                        }
                        if let Some(x) = solve3(&planes[*i], &planes[*j], &planes[*k]) {
                            consider(&x);
                        }
                    }
                }
            }
        }
        best
    }
}

fn solve2(a: &(Vec<f64>, f64), b: &(Vec<f64>, f64)) -> Option<[f64; 2]> {
    let det = a.0[0] * b.0[1] - a.0[1] * b.0[0];
    if det.abs() < 1e-10 {
        return None;
    }
    Some([
        (a.1 * b.0[1] - a.0[1] * b.1) / det,
        (a.0[0] * b.1 - a.1 * b.0[0]) / det,
    ])
}

fn solve3(a: &(Vec<f64>, f64), b: &(Vec<f64>, f64), c: &(Vec<f64>, f64)) -> Option<[f64; 3]> {
    // Cramer's rule on the 3x3 system.
    let m = [&a.0, &b.0, &c.0];
    let rhs = [a.1, b.1, c.1];
    let det3 = |m: [[f64; 3]; 3]| {
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    };
    let base = [
        [m[0][0], m[0][1], m[0][2]],
        [m[1][0], m[1][1], m[1][2]],
        [m[2][0], m[2][1], m[2][2]],
    ];
    let d = det3(base);
    if d.abs() < 1e-10 {
        return None;
    }
    let mut x = [0.0; 3];
    for (col, xi) in x.iter_mut().enumerate() {
        let mut mm = base;
        for row in 0..3 {
            mm[row][col] = rhs[row];
        }
        *xi = det3(mm) / d;
    }
    Some(x)
}

/// Deterministic pseudo-random LP generator.
fn random_lp(seed: u64, n: usize) -> DenseLp {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let objective: Vec<f64> = (0..n).map(|_| next() * 10.0 - 3.0).collect();
    let caps: Vec<f64> = (0..n).map(|_| 1.0 + next() * 9.0).collect();
    let rows: Vec<(Vec<f64>, f64)> = (0..(2 + (seed % 4) as usize))
        .map(|_| {
            let a: Vec<f64> = (0..n).map(|_| next() * 4.0 - 1.0).collect();
            // rhs chosen so the origin is feasible (b >= 0).
            let b = next() * 8.0;
            (a, b)
        })
        .collect();
    DenseLp {
        objective,
        rows,
        caps,
    }
}

/// Runs one seed through the sparse solver, the dense reference, and
/// the vertex oracle; all three must land on the same optimum (and
/// sparse must match dense bit for bit).
fn check_seed(seed: u64, lp: &DenseLp) {
    let brute = lp.brute_force_optimum().expect("origin is feasible");
    let sparse = lp.to_problem().solve();
    let dense = dense::solve(&lp.to_problem());
    match (&sparse, &dense) {
        (Outcome::Optimal(sol), Outcome::Optimal(dsol)) => {
            assert!(
                (sol.objective - brute).abs() < 1e-5 * (1.0 + brute.abs()),
                "seed {seed}: simplex {} vs brute force {brute}",
                sol.objective
            );
            assert!(
                (dsol.objective - brute).abs() < 1e-5 * (1.0 + brute.abs()),
                "seed {seed}: dense reference {} vs brute force {brute}",
                dsol.objective
            );
            assert_eq!(
                (sol.objective + 0.0).to_bits(),
                (dsol.objective + 0.0).to_bits(),
                "seed {seed}: sparse and dense objective bits diverged"
            );
            for (i, (sv, dv)) in sol.values.iter().zip(&dsol.values).enumerate() {
                assert_eq!(
                    (sv + 0.0).to_bits(),
                    (dv + 0.0).to_bits(),
                    "seed {seed}: value {i} diverged: {sv} vs {dv}"
                );
            }
        }
        other => panic!("seed {seed}: expected optimal from both, got {other:?}"),
    }
}

#[test]
fn simplex_matches_vertex_enumeration_2d() {
    for seed in 0..60u64 {
        check_seed(seed, &random_lp(seed, 2));
    }
}

#[test]
fn simplex_matches_vertex_enumeration_3d() {
    for seed in 0..40u64 {
        let s = seed.wrapping_add(1000);
        check_seed(s, &random_lp(s, 3));
    }
}
