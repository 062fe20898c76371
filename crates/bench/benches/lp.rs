//! LP-layer microbenches: the min-cost-flow pair-program solver and
//! the sparse revised simplex against the retained dense reference,
//! and warm re-solves against cold ones on incrementally grown
//! programs.
//!
//! Run with `CRITERION_JSON_OUT=results/BENCH_lp.json` to record the
//! machine-readable baseline committed in `results/`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use marauder_geo::montecarlo::SplitMix64;
use marauder_lp::{solve_with_basis, BasisHint, PairProgram, Problem, Relation, WarmStart};

/// The dense reference tableau, kept in the LP crate's test tree.
#[path = "../../lp/tests/dense/mod.rs"]
mod dense;

/// An AP-Rad-shaped program over `n` jittered grid sites: per-variable
/// caps plus pairwise `r_i + r_j ≤ d` budgets for near pairs. Pure-`≤`
/// (the shape the streaming engine re-solves incrementally, and the
/// only shape the warm path accepts).
fn city_lp(n: usize, seed: u64) -> Problem {
    city_pairs(n, seed).to_problem()
}

/// [`city_lp`] as a pair program: the same caps and rows in the same
/// order.
fn city_pairs(n: usize, seed: u64) -> PairProgram {
    let mut rng = SplitMix64::new(seed);
    let side = (n as f64).sqrt().ceil() as usize;
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            (
                (i % side) as f64 * 80.0 + rng.uniform(-10.0, 10.0),
                (i / side) as f64 * 80.0 + rng.uniform(-10.0, 10.0),
            )
        })
        .collect();
    let dist = |i: usize, j: usize| {
        let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
        (dx * dx + dy * dy).sqrt()
    };
    let mut p = PairProgram::new(&vec![400.0; n]);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = dist(i, j);
            if d < 250.0 {
                p.add_row(i, j, Relation::Le, d - 1e-3);
            }
        }
    }
    p
}

/// Cold solves of growing programs: the min-cost flow on the doubled
/// graph, the sparse revised simplex, and the dense two-phase tableau
/// the simplex replaced. Dense cost scales with the full `rows ×
/// columns` tableau; the sparse tableau only touches the 1–2 nonzeros
/// per row; the flow never pivots at all, it runs shortest paths over
/// `2n + 3` nodes.
fn bench_sparse_vs_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp/cold_solve");
    group.sample_size(10);
    for n in [16usize, 64, 144] {
        let p = city_lp(n, 7);
        group.bench_with_input(BenchmarkId::new("sparse", n), &p, |b, p| {
            b.iter(|| black_box(p.solve()))
        });
        group.bench_with_input(BenchmarkId::new("dense", n), &p, |b, p| {
            b.iter(|| black_box(dense::solve(p)))
        });
        let pairs = city_pairs(n, 7);
        group.bench_with_input(BenchmarkId::new("flow", n), &pairs, |b, p| {
            b.iter(|| black_box(p.solve()))
        });
    }
    group.finish();
}

/// Re-solving a grown program, warm vs cold — the streaming engine's
/// per-window pattern: a new observation adds a constraint row that
/// does not cut off the previous optimum (binding rows that do cut it
/// off decline the warm start and fall back to cold, so they cost a
/// cold solve plus the setup eliminations — the miss path the stream
/// counters track). The warm start replays the previous basis with
/// elimination-only pivots (no entering scans, no ratio tests) and
/// phase 2 confirms optimality without pivoting.
fn bench_warm_vs_cold_resolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp/resolve_after_row");
    group.sample_size(10);
    for n in [16usize, 64, 144] {
        let base = city_lp(n, 7);
        let report = solve_with_basis(&base, None);
        assert!(
            matches!(report.outcome, marauder_lp::Outcome::Optimal(_)),
            "base program must solve"
        );
        let mut hint = WarmStart {
            rows: report.basis.clone(),
        };
        // One more budget row between the first and last site, looser
        // than their caps combined: the old vertex stays feasible and
        // the warm path needs zero optimizing pivots.
        let mut grown = city_lp(n, 7);
        grown.add_constraint(&[(0, 1.0), (n - 1, 1.0)], Relation::Le, 900.0);
        hint.rows.push(BasisHint::Slack);
        {
            // The grown program must actually warm-start, or the
            // numbers below silently compare cold against cold.
            let warm = solve_with_basis(&grown, Some(&hint));
            assert!(warm.warm_start_used, "warm start declined for n={n}");
            assert_eq!(warm.pivots, warm.setup_pivots, "expected a pure replay");
        }
        group.bench_with_input(BenchmarkId::new("cold", n), &grown, |b, p| {
            b.iter(|| black_box(solve_with_basis(p, None)))
        });
        group.bench_with_input(
            BenchmarkId::new("warm", n),
            &(&grown, &hint),
            |b, (p, hint)| b.iter(|| black_box(solve_with_basis(p, Some(hint)))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sparse_vs_dense, bench_warm_vs_cold_resolve);
criterion_main!(benches);
