//! Two-phase simplex over a **sparse row representation**, with
//! optional warm starts.
//!
//! AP-Rad programs are extremely sparse: every constraint touches one
//! or two variables (a per-AP cap or a pair row), so a dense `m × n`
//! tableau is almost entirely zeros and every pivot pays for all of
//! them. This module stores each row as a sorted `(column, value)`
//! support list and pays only for actual nonzeros (plus fill-in, which
//! stays tiny for pair-structured programs).
//!
//! # Bit-exactness contract
//!
//! The cold path reproduces the retained dense reference
//! (`tests/dense`) **bit for bit**: pivot selection (Dantzig with a
//! Bland fallback after the stall threshold), the minimum-ratio test
//! with its basis-index tie break, and the per-entry update arithmetic
//! (`v - factor · pv`, pivot-row scaling by `1/piv`) are all replicated
//! operation for operation. A stored explicit `0.0` in the dense
//! tableau and an absent sparse entry are interchangeable: every
//! comparison is tolerance-gated and every update of a zero entry
//! yields a zero contribution, so dropping exact zeros changes no
//! pivot decision and no extracted value. (Signs of zeros may differ
//! internally; they are unobservable through the tolerance gates and
//! the `values`/`objective` extraction.) The differential suite in
//! `tests/properties.rs` pins this equivalence, including pivot
//! counts.
//!
//! # Warm starts
//!
//! [`solve_with_basis`] accepts the optimal basis of a *related*
//! previously-solved program (as per-row [`BasisHint`]s) and tries to
//! re-solve from it: the standardized tableau is eliminated to the
//! hinted basis with plain pivots (no entering scans, no ratio tests),
//! and if the resulting right-hand side is non-negative — the hinted
//! basis is primal feasible for the *new* program — phase 2 starts
//! there instead of from the all-slack basis. When the hinted basis is
//! infeasible (or the program needs artificials at all), the solver
//! falls back to a cold start from scratch, so a stale hint can cost
//! time but never correctness. Warm-started solves terminate at a true
//! optimum, but where alternate optima exist it may be a *different
//! vertex* than the cold path's — callers that pin bit-exact outputs
//! must use the cold path (see `ApRadSolver`'s canonical/live split).
//!
//! Dantzig pricing is kept for speed and Bland's rule for termination:
//! both are deterministic (first-wins tie breaks over a fixed column
//! order), which the workspace's reproducibility contract requires —
//! a steepest-edge or random pricing rule would be faster on paper but
//! would make pivot sequences (and the `lp.pivots` counters) depend on
//! floating-point noise amplification rather than on the input alone.

use crate::problem::{Problem, Relation};

/// Numerical tolerance for pivoting and feasibility decisions.
pub(crate) const TOL: f64 = 1e-9;

/// Minimum pivot magnitude accepted while eliminating to a warm-start
/// basis. Stricter than [`TOL`]: a warm elimination is free to skip a
/// numerically dubious pivot (the variable just stays nonbasic and
/// phase 2 brings it back in if it matters), so there is no reason to
/// accept near-singular pivots that amplify error.
const WARM_PIVOT_TOL: f64 = 1e-7;

/// An optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal variable assignment.
    pub values: Vec<f64>,
    /// Objective value at the optimum (in the problem's own sense:
    /// maximum for maximization problems, minimum for minimizations).
    pub objective: f64,
}

/// Result of solving a linear program.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A finite optimum was found.
    Optimal(Solution),
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

impl Outcome {
    /// Extracts the solution, discarding the failure cases.
    pub fn into_optimal(self) -> Option<Solution> {
        match self {
            Outcome::Optimal(s) => Some(s),
            _ => None,
        }
    }

    /// `true` for [`Outcome::Infeasible`].
    pub fn is_infeasible(&self) -> bool {
        matches!(self, Outcome::Infeasible)
    }
}

/// What was basic in one constraint row at an optimum — the unit of
/// warm-start state callers carry between related solves.
///
/// Hints are structural, not positional: `Decision(j)` names problem
/// variable `j`, so a caller re-solving a grown program translates
/// hints through its own stable variable identities (the AP-Rad solver
/// maps them through BSSIDs) and row identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisHint {
    /// The row's own slack (or an artificial / unknown) was basic —
    /// the row needs no elimination to start from.
    Slack,
    /// Decision variable `j` was basic in this row.
    Decision(usize),
    /// The slack of constraint row `q` was basic in this row. Slacks
    /// migrate between rows over a long solve (a row's own slack
    /// leaves the basis, then re-enters in a different row);
    /// reconstructing the optimum requires replaying those migrations,
    /// not just the decision pivots.
    SlackOf(usize),
}

/// A warm-start suggestion: for each constraint row of the new problem
/// (in declaration order), what to make basic before optimizing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WarmStart {
    /// One hint per constraint, aligned with
    /// [`Problem::constraints`]. A length mismatch disables the warm
    /// attempt (counted as a miss).
    pub rows: Vec<BasisHint>,
}

/// Everything [`solve_with_basis`] learned: the outcome plus the
/// warm-start bookkeeping callers and metrics need.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// The solve result.
    pub outcome: Outcome,
    /// The final basis, one hint per constraint row — feed this back
    /// as the next related solve's [`WarmStart`].
    pub basis: Vec<BasisHint>,
    /// Total pivot operations, including warm-basis elimination.
    pub pivots: u64,
    /// Pivots spent eliminating to the hinted basis (0 on cold
    /// solves). `pivots - setup_pivots` is the optimizing work — the
    /// quantity warm starting actually shrinks, since elimination
    /// pivots skip the entering scan and ratio test entirely.
    pub setup_pivots: u64,
    /// `true` when the hinted basis was primal feasible and phase 2
    /// started from it; `false` on cold solves and fallbacks.
    pub warm_start_used: bool,
}

/// Solves a [`Problem`] with the two-phase sparse simplex (cold start).
///
/// Flushes the `lp.solves` / `lp.pivots` / `lp.pivots.cold` counters
/// and records an `lp.solve` span.
pub fn solve(problem: &Problem) -> Outcome {
    let reg = marauder_obs::global();
    let _span = reg.span("lp.solve", marauder_obs::global_clock());
    let report = run(problem, None);
    reg.counter_add("lp.solves", 1);
    reg.counter_add("lp.pivots", report.pivots);
    reg.counter_add("lp.pivots.cold", report.pivots);
    report.outcome
}

/// Solves a [`Problem`], optionally warm-starting from a previous
/// optimal basis, and reports the final basis for the next solve.
///
/// Metrics: `lp.solves`, `lp.pivots` always; on a warm hit
/// `lp.warm_start.hit`, `lp.pivots.warm` (optimizing pivots) and
/// `lp.pivots.warm_setup` (elimination pivots); on a declined or
/// failed warm attempt `lp.warm_start.miss` plus the cold counters.
pub fn solve_with_basis(problem: &Problem, warm: Option<&WarmStart>) -> SolveReport {
    let reg = marauder_obs::global();
    let _span = reg.span("lp.solve", marauder_obs::global_clock());
    let report = run(problem, warm);
    reg.counter_add("lp.solves", 1);
    reg.counter_add("lp.pivots", report.pivots);
    if report.warm_start_used {
        reg.counter_add("lp.warm_start.hit", 1);
        reg.counter_add("lp.pivots.warm", report.pivots - report.setup_pivots);
        reg.counter_add("lp.pivots.warm_setup", report.setup_pivots);
    } else {
        if warm.is_some() {
            reg.counter_add("lp.warm_start.miss", 1);
        }
        reg.counter_add("lp.pivots.cold", report.pivots);
    }
    report
}

/// The solver body: standardize, try the warm basis if one was hinted,
/// otherwise (or on fallback) run the cold two-phase method.
fn run(problem: &Problem, warm: Option<&WarmStart>) -> SolveReport {
    // Warm attempt: only meaningful when the standardized program is
    // pure-`≤` (all-slack basis exists, no artificials) and the hint
    // covers every row.
    if let Some(w) = warm {
        let mut s = Standardized::build(problem);
        if s.artificials.is_empty() && w.rows.len() == s.t.num_rows() {
            let n = s.n;
            let mut used = vec![false; n];
            // Install the hinted basis by pivoting each row onto its
            // hinted column. A single pass in row order is not enough:
            // a hinted variable's coefficient in its host row is often
            // zero until fill-in from *other* hinted pivots introduces
            // it, and a migrated slack's column stays unit (zero in
            // every foreign row) until its home row is re-pivoted. So
            // iterate to a fixpoint, each pass installing whatever
            // became pivotable; an unresolvable residue (singular or
            // order-unreachable hint sets) simply stalls and the
            // feasibility check below decides.
            loop {
                let mut progressed = false;
                for (r, hint) in w.rows.iter().enumerate() {
                    let target = match *hint {
                        BasisHint::Decision(j) if j < n && !used[j] => j,
                        BasisHint::SlackOf(q) => match s.row_slack.get(q).copied().flatten() {
                            Some(col) => col,
                            None => continue,
                        },
                        _ => continue,
                    };
                    if s.t.basis[r] == target {
                        continue;
                    }
                    let coef = s.t.get(r, target);
                    if coef.abs() > WARM_PIVOT_TOL {
                        s.t.pivot(r, target);
                        if target < n {
                            used[target] = true;
                        }
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            // The hinted (row, column) pairing can stall: install-only
            // pivots reach some bases only through intermediate pivots
            // the hints don't describe. The basic *solution* depends
            // only on the basis set, though — so finish by bringing
            // each still-missing hinted column into any row whose
            // current basic column the target basis does not contain
            // (extract_basis reports the true pairing afterwards).
            let basis_cols = s.n + s.num_slack;
            let mut want = vec![false; basis_cols];
            let mut coherent = true;
            for (r, hint) in w.rows.iter().enumerate() {
                let target = match *hint {
                    BasisHint::Decision(j) if j < n => Some(j),
                    BasisHint::SlackOf(q) => s.row_slack.get(q).copied().flatten(),
                    // Own slack — also the fallback for out-of-range
                    // decision hints, matching the install loop above.
                    _ => s.row_slack[r],
                };
                let Some(t) = target else { continue };
                if want[t] {
                    // Two rows claim one column: garbage hints. Leave
                    // the repair to the feasibility check.
                    coherent = false;
                    break;
                }
                want[t] = true;
            }
            loop {
                if !coherent {
                    break;
                }
                let mut basic_now = vec![false; basis_cols];
                for &b in &s.t.basis {
                    if b < basis_cols {
                        basic_now[b] = true;
                    }
                }
                let mut progressed = false;
                for r in 0..s.t.num_rows() {
                    let cur = s.t.basis[r];
                    if cur < basis_cols && want[cur] {
                        continue;
                    }
                    let hit = s.t.rows_c[r]
                        .iter()
                        .zip(&s.t.rows_v[r])
                        .find(|(c, v)| {
                            let c = **c as usize;
                            c < basis_cols && want[c] && !basic_now[c] && v.abs() > WARM_PIVOT_TOL
                        })
                        .map(|(c, _)| *c as usize);
                    if let Some(c) = hit {
                        s.t.pivot(r, c);
                        basic_now[c] = true;
                        if cur < basis_cols {
                            basic_now[cur] = false;
                        }
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            let setup_pivots = s.t.pivots;
            if s.t.rhs.iter().all(|&b| b >= -TOL) {
                // Re-eliminating a basis whose coefficients came from
                // square roots leaves ±1e-16-scale residues on rhs
                // entries that are exactly zero in exact arithmetic
                // (degenerate rows). A strict `>= 0.0` here would
                // reject the program's own optimal basis; instead
                // accept within TOL and clamp the residues so phase 2
                // sees the invariant it assumes (all-nonnegative rhs).
                for b in s.t.rhs.iter_mut() {
                    if *b < 0.0 {
                        *b = 0.0;
                    }
                }
                // The hinted basis is primal feasible for the new
                // program: phase 2 from here.
                let (outcome, basis) = phase2(problem, &mut s);
                return SolveReport {
                    outcome,
                    basis,
                    pivots: s.t.pivots,
                    setup_pivots,
                    warm_start_used: true,
                };
            }
            // Hinted basis infeasible: fall through to a cold start on
            // a fresh tableau (the eliminated one is poisoned).
        }
    }

    let mut s = Standardized::build(problem);
    // Phase 1: minimize sum of artificials == maximize -(sum).
    if !s.artificials.is_empty() {
        let m = s.t.num_rows();
        let cols = s.t.cols;
        for &c in &s.artificials {
            s.t.z[c] = 1.0;
        }
        // Make the objective row consistent with the basis (artificials
        // are basic): subtract their rows.
        let art_base = s.n + s.num_slack;
        for r in 0..m {
            if s.t.basis[r] >= art_base {
                for i in 0..s.t.rows_c[r].len() {
                    let c = s.t.rows_c[r][i] as usize;
                    s.t.z[c] -= s.t.rows_v[r][i];
                }
                s.t.z[cols - 1] -= s.t.rhs[r];
            }
        }
        let bounded = s.t.optimize(cols - 1);
        debug_assert!(bounded, "phase 1 is always bounded below by 0");
        let phase1_obj = -s.t.z[cols - 1];
        if phase1_obj > 1e-7 {
            return SolveReport {
                outcome: Outcome::Infeasible,
                basis: extract_basis(&s),
                pivots: s.t.pivots,
                setup_pivots: 0,
                warm_start_used: false,
            };
        }
        // Drive any remaining basic artificials out (degenerate rows).
        for r in 0..m {
            if s.t.basis[r] >= art_base {
                let pivot_col = s.t.rows_c[r]
                    .iter()
                    .zip(&s.t.rows_v[r])
                    .take_while(|(c, _)| (**c as usize) < art_base)
                    .find(|(_, v)| v.abs() > TOL)
                    .map(|(c, _)| *c as usize);
                if let Some(c) = pivot_col {
                    s.t.pivot(r, c);
                }
                // If no pivot column exists the row is all-zero
                // (redundant constraint) and can stay as-is.
            }
        }
        // Erase artificial columns so phase 2 never re-enters them.
        // Artificial columns occupy [art_base, cols-1) and supports are
        // sorted, so a truncate removes them all.
        for r in 0..m {
            let keep = s.t.rows_c[r].partition_point(|&c| (c as usize) < art_base);
            s.t.rows_c[r].truncate(keep);
            s.t.rows_v[r].truncate(keep);
        }
    }

    let (outcome, basis) = phase2(problem, &mut s);
    SolveReport {
        outcome,
        basis,
        pivots: s.t.pivots,
        setup_pivots: 0,
        warm_start_used: false,
    }
}

/// Phase 2 from the tableau's current (primal feasible) basis: install
/// the real objective, re-establish reduced-cost consistency, optimize
/// and extract.
fn phase2(problem: &Problem, s: &mut Standardized) -> (Outcome, Vec<BasisHint>) {
    let cols = s.t.cols;
    let m = s.t.num_rows();
    // Simplex maximizes; minimization negates the costs.
    let sign = if problem.is_maximize() { 1.0 } else { -1.0 };
    s.t.z.clear();
    s.t.z.resize(cols, 0.0);
    for (i, &c) in problem.objective().iter().enumerate() {
        s.t.z[i] = -sign * c;
    }
    // Make the objective row consistent with the current basis.
    for r in 0..m {
        let b = s.t.basis[r];
        if b < cols - 1 && s.t.z[b].abs() > TOL {
            let factor = s.t.z[b];
            for i in 0..s.t.rows_c[r].len() {
                let c = s.t.rows_c[r][i] as usize;
                s.t.z[c] -= factor * s.t.rows_v[r][i];
            }
            s.t.z[cols - 1] -= factor * s.t.rhs[r];
            s.t.z[b] = 0.0;
        }
    }
    if !s.t.optimize(s.n + s.num_slack) {
        return (Outcome::Unbounded, extract_basis(s));
    }

    let mut values = vec![0.0; s.n];
    for (r, &b) in s.t.basis.iter().enumerate() {
        if b < s.n {
            values[b] = s.t.rhs[r];
        }
    }
    let objective: f64 = problem
        .objective()
        .iter()
        .zip(&values)
        .map(|(c, v)| c * v)
        .sum();
    (
        Outcome::Optimal(Solution { values, objective }),
        extract_basis(s),
    )
}

fn extract_basis(s: &Standardized) -> Vec<BasisHint> {
    s.t.basis
        .iter()
        .enumerate()
        .map(|(r, &b)| {
            if b < s.n {
                BasisHint::Decision(b)
            } else if b < s.n + s.num_slack {
                let home = s.slack_home[b - s.n];
                if home == r {
                    BasisHint::Slack
                } else {
                    BasisHint::SlackOf(home)
                }
            } else {
                // Artificial basic (degenerate all-zero row): nothing
                // a future solve can replay.
                BasisHint::Slack
            }
        })
        .collect()
}

/// The standardized program: normalized rows in a sparse tableau, with
/// slack/surplus/artificial columns assigned exactly as the dense
/// reference assigns them.
struct Standardized {
    n: usize,
    num_slack: usize,
    /// Artificial column ids (ascending).
    artificials: Vec<usize>,
    /// Per row, the slack/surplus column it introduced (`None` for
    /// `=` rows).
    row_slack: Vec<Option<usize>>,
    /// Per slack ordinal (`col - n`), the row that introduced it —
    /// the inverse of `row_slack`, used to name migrated slacks in
    /// [`BasisHint::SlackOf`] terms.
    slack_home: Vec<usize>,
    t: SparseTableau,
}

impl Standardized {
    fn build(problem: &Problem) -> Self {
        let n = problem.num_vars();
        let m = problem.num_constraints();

        // Normalize each constraint: gather coefficients per column in
        // declaration order (duplicates sum in order, matching the
        // dense `coeffs[i] += v` accumulation), then flip rows with a
        // negative RHS.
        struct Row {
            support: Vec<(u32, f64)>,
            relation: Relation,
            rhs: f64,
        }
        let mut rows: Vec<Row> = Vec::with_capacity(m);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for c in problem.constraints() {
            scratch.clear();
            scratch.extend(c.coeffs.iter().map(|&(i, v)| (i as u32, v)));
            // Stable sort keeps duplicate-column contributions in
            // declaration order, so run-summing them reproduces the
            // dense accumulation bit for bit.
            scratch.sort_by_key(|&(i, _)| i);
            let mut support: Vec<(u32, f64)> = Vec::with_capacity(scratch.len());
            for &(i, v) in scratch.iter() {
                match support.last_mut() {
                    Some((li, lv)) if *li == i => *lv += v,
                    _ => support.push((i, v)),
                }
            }
            // Entries summing to an exact zero are what the dense
            // tableau stores as 0.0 — equivalent to absent.
            support.retain(|&(_, v)| v != 0.0);
            let (support, relation, rhs) = if c.rhs < 0.0 {
                let flipped = match c.relation {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
                (
                    support.iter().map(|&(i, v)| (i, -v)).collect(),
                    flipped,
                    -c.rhs,
                )
            } else {
                (support, c.relation, c.rhs)
            };
            rows.push(Row {
                support,
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

        let mut rows_c: Vec<Vec<u32>> = Vec::with_capacity(m);
        let mut rows_v: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut rhs: Vec<f64> = Vec::with_capacity(m);
        let mut basis = vec![usize::MAX; m];
        let mut slack_idx = n;
        let mut art_idx = n + num_slack;
        let mut artificials: Vec<usize> = Vec::with_capacity(num_artificial);
        let mut row_slack: Vec<Option<usize>> = vec![None; m];
        let mut slack_home: Vec<usize> = Vec::with_capacity(num_slack);

        for (r, row) in rows.iter().enumerate() {
            let mut cs: Vec<u32> = row.support.iter().map(|&(i, _)| i).collect();
            let mut vs: Vec<f64> = row.support.iter().map(|&(_, v)| v).collect();
            // Slack/surplus and artificial columns come after the
            // decision columns, so pushing keeps the support sorted.
            match row.relation {
                Relation::Le => {
                    cs.push(slack_idx as u32);
                    vs.push(1.0);
                    basis[r] = slack_idx;
                    row_slack[r] = Some(slack_idx);
                    slack_home.push(r);
                    slack_idx += 1;
                }
                Relation::Ge => {
                    cs.push(slack_idx as u32);
                    vs.push(-1.0); // surplus
                    row_slack[r] = Some(slack_idx);
                    slack_home.push(r);
                    slack_idx += 1;
                    cs.push(art_idx as u32);
                    vs.push(1.0);
                    basis[r] = art_idx;
                    artificials.push(art_idx);
                    art_idx += 1;
                }
                Relation::Eq => {
                    cs.push(art_idx as u32);
                    vs.push(1.0);
                    basis[r] = art_idx;
                    artificials.push(art_idx);
                    art_idx += 1;
                }
            }
            rows_c.push(cs);
            rows_v.push(vs);
            rhs.push(row.rhs);
        }

        Standardized {
            n,
            num_slack,
            artificials,
            row_slack,
            slack_home,
            t: SparseTableau {
                rows_c,
                rows_v,
                rhs,
                z: vec![0.0; cols],
                basis,
                cols,
                pivots: 0,
                scratch_c: Vec::new(),
                scratch_v: Vec::new(),
            },
        }
    }
}

/// The sparse tableau: per-row sorted supports over the standardized
/// columns, a dense objective row, and a dense RHS column.
struct SparseTableau {
    /// Per row, the ascending column ids of the nonzero entries
    /// (decision, slack and artificial columns; never the RHS).
    rows_c: Vec<Vec<u32>>,
    /// Values parallel to `rows_c`. An exact `0.0` is never stored —
    /// entries cancelling to zero are dropped, mirroring the dense
    /// tableau's explicit zeroing.
    rows_v: Vec<Vec<f64>>,
    /// Right-hand side per row (the dense tableau's last column).
    rhs: Vec<f64>,
    /// Objective row, dense (cost slots plus the objective value slot
    /// at `cols - 1`).
    z: Vec<f64>,
    /// Basis: for each row, the index of its basic variable.
    basis: Vec<usize>,
    cols: usize,
    /// Pivot operations performed; reported as the `lp.pivots` metric
    /// (deterministic: pivoting order is a pure function of the
    /// problem and the warm hint).
    pivots: u64,
    /// Merge buffers reused across pivots.
    scratch_c: Vec<u32>,
    scratch_v: Vec<f64>,
}

impl SparseTableau {
    fn num_rows(&self) -> usize {
        self.rhs.len()
    }

    /// The entry at `(row, col)` (0.0 when absent from the support).
    fn get(&self, row: usize, col: usize) -> f64 {
        match self.rows_c[row].binary_search(&(col as u32)) {
            Ok(i) => self.rows_v[row][i],
            Err(_) => 0.0,
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let piv = self.get(row, col);
        debug_assert!(piv.abs() > TOL, "pivot too small: {piv}");
        let inv = 1.0 / piv;
        for v in &mut self.rows_v[row] {
            *v *= inv;
        }
        self.rhs[row] *= inv;
        // Take the pivot row out so it can be read while other rows
        // are rewritten (put back below).
        let pc = std::mem::take(&mut self.rows_c[row]);
        let pv = std::mem::take(&mut self.rows_v[row]);
        let prhs = self.rhs[row];
        let mut out_c = std::mem::take(&mut self.scratch_c);
        let mut out_v = std::mem::take(&mut self.scratch_v);
        for r in 0..self.rhs.len() {
            if r == row {
                continue;
            }
            let factor = match self.rows_c[r].binary_search(&(col as u32)) {
                Ok(i) => self.rows_v[r][i],
                Err(_) => continue,
            };
            if factor.abs() > TOL {
                merge_sub(
                    &self.rows_c[r],
                    &self.rows_v[r],
                    factor,
                    &pc,
                    &pv,
                    col as u32,
                    &mut out_c,
                    &mut out_v,
                );
                std::mem::swap(&mut self.rows_c[r], &mut out_c);
                std::mem::swap(&mut self.rows_v[r], &mut out_v);
                self.rhs[r] -= factor * prhs;
            }
        }
        let zf = self.z[col];
        if zf.abs() > TOL {
            for (c, v) in pc.iter().zip(&pv) {
                self.z[*c as usize] -= zf * v;
            }
            self.z[self.cols - 1] -= zf * prhs;
            self.z[col] = 0.0;
        }
        self.rows_c[row] = pc;
        self.rows_v[row] = pv;
        self.scratch_c = out_c;
        self.scratch_v = out_v;
        self.basis[row] = col;
    }

    /// Runs simplex iterations (maximization of the `z` row in the form
    /// where reduced costs appear negated). Returns `false` when the
    /// problem is unbounded. `active_cols` limits the entering columns.
    fn optimize(&mut self, active_cols: usize) -> bool {
        let mut stalled = 0usize;
        let stall_threshold = 64 + 4 * self.num_rows();
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
            for r in 0..self.num_rows() {
                let coef = self.get(r, col);
                if coef > TOL {
                    let ratio = self.rhs[r] / coef;
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

/// `target := target - factor · pivot_row`, merged over sorted
/// supports into `out_c`/`out_v`. The pivot column is dropped (the
/// dense path forces it to exact zero) and entries cancelling to an
/// exact zero are dropped (the dense path stores the zero; the two are
/// equivalent under the tolerance gates).
#[allow(clippy::too_many_arguments)]
fn merge_sub(
    tc: &[u32],
    tv: &[f64],
    factor: f64,
    pc: &[u32],
    pv: &[f64],
    skip: u32,
    out_c: &mut Vec<u32>,
    out_v: &mut Vec<f64>,
) {
    out_c.clear();
    out_v.clear();
    out_c.reserve(tc.len() + pc.len());
    out_v.reserve(tc.len() + pc.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < tc.len() || j < pc.len() {
        let tcol = if i < tc.len() { tc[i] } else { u32::MAX };
        let pcol = if j < pc.len() { pc[j] } else { u32::MAX };
        if tcol < pcol {
            if tcol != skip {
                out_c.push(tcol);
                out_v.push(tv[i]);
            }
            i += 1;
        } else if pcol < tcol {
            // Fill-in: the dense path computes `0.0 - factor · pv`.
            let nv = 0.0 - factor * pv[j];
            if pcol != skip && nv != 0.0 {
                out_c.push(pcol);
                out_v.push(nv);
            }
            j += 1;
        } else {
            let nv = tv[i] - factor * pv[j];
            if tcol != skip && nv != 0.0 {
                out_c.push(tcol);
                out_v.push(nv);
            }
            i += 1;
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x+5y st x<=4, 2y<=12, 3x+2y<=18 -> x=2,y=6,obj=36.
        let mut p = Problem::maximize(&[3.0, 5.0]);
        p.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        p.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let s = p.solve().into_optimal().unwrap();
        assert_close(s.objective, 36.0);
        assert_close(s.values[0], 2.0);
        assert_close(s.values[1], 6.0);
    }

    #[test]
    fn minimization_with_ge() {
        // min 2x+3y st x+y>=10, x>=3 -> x=10,y=0? obj 20 (x cheapest).
        let mut p = Problem::minimize(&[2.0, 3.0]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 10.0);
        p.add_constraint(&[(0, 1.0)], Relation::Ge, 3.0);
        let s = p.solve().into_optimal().unwrap();
        assert_close(s.objective, 20.0);
        assert_close(s.values[0], 10.0);
    }

    #[test]
    fn equality_constraints() {
        // max x+y st x+y=5, x<=2 -> obj 5, x=2,y=3 (or any on segment).
        let mut p = Problem::maximize(&[1.0, 1.0]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 5.0);
        p.add_constraint(&[(0, 1.0)], Relation::Le, 2.0);
        let s = p.solve().into_optimal().unwrap();
        assert_close(s.objective, 5.0);
        assert!(s.values[0] <= 2.0 + 1e-9);
        assert_close(s.values[0] + s.values[1], 5.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::maximize(&[1.0]);
        p.add_constraint(&[(0, 1.0)], Relation::Ge, 5.0);
        p.add_constraint(&[(0, 1.0)], Relation::Le, 3.0);
        assert!(p.solve().is_infeasible());
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::maximize(&[1.0, 1.0]);
        p.add_constraint(&[(0, 1.0)], Relation::Le, 3.0); // y unbounded
        assert_eq!(p.solve(), Outcome::Unbounded);
    }

    #[test]
    fn negative_rhs_normalization() {
        // max -x st -x >= -4 (i.e. x <= 4); optimum x=0, obj 0.
        let mut p = Problem::maximize(&[-1.0]);
        p.add_constraint(&[(0, -1.0)], Relation::Ge, -4.0);
        let s = p.solve().into_optimal().unwrap();
        assert_close(s.objective, 0.0);
        // min -x with same constraint -> x=4, obj -4.
        let mut p = Problem::minimize(&[-1.0]);
        p.add_constraint(&[(0, -1.0)], Relation::Ge, -4.0);
        let s = p.solve().into_optimal().unwrap();
        assert_close(s.objective, -4.0);
        assert_close(s.values[0], 4.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate LP (multiple constraints tight at origin).
        let mut p = Problem::maximize(&[0.75, -150.0, 0.02, -6.0]);
        p.add_constraint(
            &[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            &[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(&[(2, 1.0)], Relation::Le, 1.0);
        let s = p
            .solve()
            .into_optimal()
            .expect("Beale's example is bounded");
        assert_close(s.objective, 0.05);
    }

    #[test]
    fn redundant_equalities() {
        let mut p = Problem::maximize(&[1.0]);
        p.add_constraint(&[(0, 1.0)], Relation::Eq, 2.0);
        p.add_constraint(&[(0, 2.0)], Relation::Eq, 4.0); // same constraint
        let s = p.solve().into_optimal().unwrap();
        assert_close(s.values[0], 2.0);
    }

    #[test]
    fn aprad_shaped_problem() {
        // Three APs on a line at 0, 10, 25. Pairs (0,1) co-observed
        // (r0+r1 >= 10); (1,2) and (0,2) not (r1+r2 <= 15-eps,
        // r0+r2 <= 25-eps). Maximize sum with caps at 20.
        let eps = 1e-3;
        let mut p = Problem::maximize(&[1.0, 1.0, 1.0]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 10.0);
        p.add_constraint(&[(1, 1.0), (2, 1.0)], Relation::Le, 15.0 - eps);
        p.add_constraint(&[(0, 1.0), (2, 1.0)], Relation::Le, 25.0 - eps);
        for i in 0..3 {
            p.add_upper_bound(i, 20.0);
        }
        let s = p.solve().into_optimal().unwrap();
        // Feasibility of the reported solution.
        let r = &s.values;
        assert!(r[0] + r[1] >= 10.0 - 1e-6);
        assert!(r[1] + r[2] <= 15.0 - eps + 1e-6);
        assert!(r[0] + r[2] <= 25.0 - eps + 1e-6);
        for &v in r {
            assert!((0.0..=20.0 + 1e-6).contains(&v));
        }
        // Optimal: r0=20 (cap), then r0+r2<=25-eps -> r2 = 5-eps; r1+r2<=15-eps
        // -> r1 = 10. Sum = 35 - 2eps... check optimum ≈ 35.
        assert!((s.objective - 35.0).abs() < 0.1, "obj {}", s.objective);
    }

    #[test]
    fn no_constraints_bounded_only_if_costs_nonpositive() {
        let p = Problem::maximize(&[-1.0, -2.0]);
        let s = p.solve().into_optimal().unwrap();
        assert_close(s.objective, 0.0);
        let p = Problem::maximize(&[1.0]);
        assert_eq!(p.solve(), Outcome::Unbounded);
    }

    #[test]
    fn larger_random_feasible_problem() {
        // Diagonally dominant system with known feasible interior point.
        let n = 25;
        let c: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut p = Problem::maximize(&c);
        for i in 0..n {
            // x_i + 0.1 x_{i+1} <= 2
            p.add_constraint(&[(i, 1.0), ((i + 1) % n, 0.1)], Relation::Le, 2.0);
        }
        let s = p.solve().into_optimal().unwrap();
        // Solution must satisfy all constraints.
        for i in 0..n {
            assert!(s.values[i] + 0.1 * s.values[(i + 1) % n] <= 2.0 + 1e-6);
            assert!(s.values[i] >= -1e-9);
        }
        // Symmetric problem: every x_i = 2/1.1.
        for i in 0..n {
            assert!((s.values[i] - 2.0 / 1.1).abs() < 1e-6);
        }
    }

    #[test]
    fn duplicate_coefficients_accumulate() {
        // 2x (as 1x + 1x) <= 4 -> x <= 2.
        let mut p = Problem::maximize(&[1.0]);
        p.add_constraint(&[(0, 1.0), (0, 1.0)], Relation::Le, 4.0);
        let s = p.solve().into_optimal().unwrap();
        assert_close(s.values[0], 2.0);
    }

    #[test]
    fn cold_path_matches_dense_reference_bit_for_bit() {
        // The headline contract of the rewrite: same pivots, same bits.
        let problems = test_problem_zoo();
        for (name, p) in &problems {
            let report = run(p, None);
            let (dense_outcome, dense_pivots) = crate::dense::solve_counted(p);
            assert_eq!(
                report.pivots, dense_pivots,
                "{name}: pivot count diverged from dense reference"
            );
            match (&report.outcome, &dense_outcome) {
                (Outcome::Optimal(s), Outcome::Optimal(d)) => {
                    // `+ 0.0` canonicalizes -0.0 so the bit compare
                    // ignores zero signs (unobservable either way).
                    assert_eq!(
                        (s.objective + 0.0).to_bits(),
                        (d.objective + 0.0).to_bits(),
                        "{name}: objective bits diverged"
                    );
                    for (i, (sv, dv)) in s.values.iter().zip(&d.values).enumerate() {
                        assert_eq!(
                            (sv + 0.0).to_bits(),
                            (dv + 0.0).to_bits(),
                            "{name}: value {i} diverged: {sv} vs {dv}"
                        );
                    }
                }
                (a, b) => assert_eq!(a, b, "{name}: outcome kind diverged"),
            }
        }
    }

    #[test]
    fn warm_start_with_own_basis_takes_zero_optimizing_pivots() {
        let (_, p) = &test_problem_zoo()[0];
        let cold = solve_with_basis(p, None);
        assert!(!cold.warm_start_used);
        assert!(cold.pivots > 0);
        let warm = solve_with_basis(
            p,
            Some(&WarmStart {
                rows: cold.basis.clone(),
            }),
        );
        assert!(warm.warm_start_used, "optimal basis must be feasible");
        assert_eq!(
            warm.pivots - warm.setup_pivots,
            0,
            "re-solving from the optimal basis must need no optimizing pivots"
        );
        let co = cold.outcome.into_optimal().unwrap();
        let wo = warm.outcome.into_optimal().unwrap();
        assert!((co.objective - wo.objective).abs() < 1e-9);
    }

    #[test]
    fn warm_start_infeasible_basis_falls_back_cold() {
        // max x+y st x+y <= 4, x <= 2. Basis {x in row 0} puts x = 4,
        // which drives row 1's slack to 2 - 4 < 0: primal infeasible,
        // so the warm attempt must fall back and still find the
        // optimum.
        let mut p = Problem::maximize(&[1.0, 1.0]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(0, 1.0)], Relation::Le, 2.0);
        let warm = WarmStart {
            rows: vec![BasisHint::Decision(0), BasisHint::Slack],
        };
        let report = solve_with_basis(&p, Some(&warm));
        assert!(!report.warm_start_used, "infeasible hint must miss");
        let s = report.outcome.into_optimal().unwrap();
        assert_close(s.objective, 4.0);
    }

    #[test]
    fn warm_start_declined_for_ge_programs() {
        let mut p = Problem::minimize(&[2.0, 3.0]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 10.0);
        let warm = WarmStart {
            rows: vec![BasisHint::Decision(0)],
        };
        let report = solve_with_basis(&p, Some(&warm));
        assert!(!report.warm_start_used);
        let s = report.outcome.into_optimal().unwrap();
        assert_close(s.objective, 20.0);
    }

    #[test]
    fn warm_start_after_added_row_saves_pivots() {
        // An AP-Rad-shaped program solved cold, then re-solved with one
        // extra (loose) pair row: the old basis stays feasible and the
        // warm solve should need far fewer optimizing pivots.
        let n = 30;
        let build = |extra: bool| {
            let mut p = Problem::maximize(&vec![1.0; n]);
            for i in 0..n {
                p.add_upper_bound(i, 100.0);
            }
            for i in 0..n - 1 {
                p.add_constraint(&[(i, 1.0), (i + 1, 1.0)], Relation::Le, 150.0);
            }
            if extra {
                p.add_constraint(&[(0, 1.0), (n - 1, 1.0)], Relation::Le, 190.0);
            }
            p
        };
        let cold = solve_with_basis(&build(false), None);
        let mut rows = cold.basis.clone();
        rows.push(BasisHint::Slack); // the new row starts slack-basic
        let grown = build(true);
        let warm = solve_with_basis(&grown, Some(&WarmStart { rows }));
        assert!(warm.warm_start_used);
        let cold_grown = solve_with_basis(&grown, None);
        let warm_opt = warm.pivots - warm.setup_pivots;
        assert!(
            warm_opt * 4 < cold_grown.pivots.max(1),
            "warm optimizing pivots {warm_opt} not < 25% of cold {}",
            cold_grown.pivots
        );
        let wo = warm.outcome.into_optimal().unwrap();
        let co = cold_grown.outcome.into_optimal().unwrap();
        assert!((wo.objective - co.objective).abs() < 1e-6);
    }

    /// A small zoo of structurally varied programs shared by the
    /// equivalence tests.
    fn test_problem_zoo() -> Vec<(&'static str, Problem)> {
        let mut zoo = Vec::new();

        let mut p = Problem::maximize(&[3.0, 5.0]);
        p.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        p.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        zoo.push(("textbook", p));

        let mut p = Problem::minimize(&[2.0, 3.0]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 10.0);
        p.add_constraint(&[(0, 1.0)], Relation::Ge, 3.0);
        zoo.push(("min_ge", p));

        let mut p = Problem::maximize(&[1.0, 1.0]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 5.0);
        p.add_constraint(&[(0, 1.0)], Relation::Le, 2.0);
        zoo.push(("equality", p));

        let mut p = Problem::maximize(&[1.0]);
        p.add_constraint(&[(0, 1.0)], Relation::Ge, 5.0);
        p.add_constraint(&[(0, 1.0)], Relation::Le, 3.0);
        zoo.push(("infeasible", p));

        let mut p = Problem::maximize(&[0.75, -150.0, 0.02, -6.0]);
        p.add_constraint(
            &[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            &[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(&[(2, 1.0)], Relation::Le, 1.0);
        zoo.push(("beale", p));

        let eps = 1e-3;
        let mut p = Problem::maximize(&[1.0, 1.0, 1.0]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 10.0);
        p.add_constraint(&[(1, 1.0), (2, 1.0)], Relation::Le, 15.0 - eps);
        p.add_constraint(&[(0, 1.0), (2, 1.0)], Relation::Le, 25.0 - eps);
        for i in 0..3 {
            p.add_upper_bound(i, 20.0);
        }
        zoo.push(("aprad_shaped", p));

        let n = 25;
        let c: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut p = Problem::maximize(&c);
        for i in 0..n {
            p.add_constraint(&[(i, 1.0), ((i + 1) % n, 0.1)], Relation::Le, 2.0);
        }
        zoo.push(("ring", p));

        let mut p = Problem::maximize(&[-1.0]);
        p.add_constraint(&[(0, -1.0)], Relation::Ge, -4.0);
        zoo.push(("neg_rhs", p));

        zoo
    }
}
