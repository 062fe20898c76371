//! Pair programs solved as a min-cost flow.
//!
//! A **pair program** is
//!
//! ```text
//! maximize Σ s_i   subject to   0 ≤ s_i ≤ u_i,
//!                               s_i + s_j ≤ c   (Le rows),
//!                               s_i + s_j ≥ f   (Ge rows)
//! ```
//!
//! — every row has two variables with unit coefficients, which is
//! exactly the shape of AP-Rad's radius program. Such a program needs
//! no simplex. Write `a_i = s_i` and `b_i = −s_i` beside a zero node
//! `z`: every row becomes two *difference* constraints `π(v) − π(u) ≤
//! w`, one per orientation (the monotone doubling of Hochbaum, Megiddo,
//! Naor & Tamir, Math. Programming 62, 1993):
//!
//! | row | arcs `u → v` (cost `w`) |
//! |---|---|
//! | `s_i ≤ u_i` | `z → a_i` and `b_i → z`, cost `u_i` |
//! | `s_i ≥ 0` | `a_i → z` and `z → b_i`, cost 0 |
//! | `s_i + s_j ≤ c` | `b_j → a_i` and `b_i → a_j`, cost `c` |
//! | `s_i + s_j ≥ f` | `a_j → b_i` and `a_i → b_j`, cost `−f` |
//!
//! The objective `Σ (π(a_i) − π(b_i))` is twice the pair objective,
//! and the LP dual of "maximize it over potentials obeying every arc"
//! is a min-cost flow on the `2n + 1` nodes in which each `b_i`
//! supplies one unit and each `a_i` takes one. Its optimal node
//! potentials give the radii back as `s_i = (π(a_i) − π(b_i)) / 2`:
//! averaging the doubled solution with its mirror image `a ↔ −b`
//! satisfies every original row, so the doubling loses nothing. A
//! negative cycle makes the flow unbounded, which is the same as the
//! potentials — and the pair program — being infeasible.
//!
//! # Algorithm
//!
//! Bellman–Ford (queue-based, from a virtual source at distance 0 to
//! every node) sets the first potentials; the `≥` rows are the only
//! negative arcs. Every `|V|` relaxations it looks for a cycle in the
//! predecessor graph, and any such cycle is a negative one: that is the
//! infeasibility verdict, found in time proportional to the work done
//! rather than after `|V|` full passes. Then successive shortest paths
//! in the primal–dual form: each phase runs one Dijkstra over reduced
//! costs from a super-source to a super-sink, then a blocking flow
//! with current-arc pointers over the arcs whose reduced cost is zero,
//! restricted to the Dijkstra settle order so that zero-cost cycles
//! cannot trap the search, and searched backward from the super-sink so
//! that it visits only nodes on shortest paths. Every augmenting path
//! carries one unit, so flows are exact integers; only potentials are
//! floating point.
//!
//! Arithmetic ties are broken by node index and arcs are scanned in
//! insertion order, so a solve is a pure function of its program: the
//! same input gives the same bits on any thread and any run.
//!
//! # Tolerance
//!
//! A relaxation must improve a distance by more than
//! `1e-12 · max(1, max |w|)`. The program is reported infeasible
//! exactly when the arc costs raised by that amount still contain a
//! negative cycle; rows violated by less than the tolerance count as
//! met, as they do within the simplex's own tolerances.

use crate::problem::{Problem, Relation};
use crate::simplex::{Outcome, Solution};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// One two-variable row `s_i + s_j {≤, ≥, =} rhs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairRow {
    /// First variable.
    pub i: usize,
    /// Second variable (may equal `i`: the row is then `2·s_i`).
    pub j: usize,
    /// Row direction.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A pair program: `maximize Σ s_i` over `0 ≤ s_i ≤ caps[i]` and
/// unit-coefficient two-variable rows. See the [module docs](self).
///
/// ```
/// use marauder_lp::flow::PairProgram;
/// use marauder_lp::Relation;
///
/// // maximize s0 + s1  s.t.  s0, s1 ≤ 5,  s0 + s1 ≤ 3
/// let mut p = PairProgram::new(&[5.0, 5.0]);
/// p.add_row(0, 1, Relation::Le, 3.0);
/// let sol = p.solve().into_optimal().expect("feasible");
/// assert!((sol.objective - 3.0).abs() < 1e-12);
///
/// // s0 + s1 ≥ 11 cannot be met under caps of 5.
/// p.add_row(0, 1, Relation::Ge, 11.0);
/// assert!(p.solve().is_infeasible());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PairProgram {
    caps: Vec<f64>,
    rows: Vec<PairRow>,
}

/// What one flow solve did. The counts are deterministic functions of
/// the program.
#[derive(Debug)]
struct FlowReport {
    /// The solve result ([`Outcome::Unbounded`] never occurs: every
    /// variable is capped).
    outcome: Outcome,
    /// Distance improvements made by the Bellman–Ford start.
    relaxations: u64,
    /// Dijkstra + blocking-flow phases.
    phases: u64,
    /// Unit augmenting paths (the number of variables when optimal).
    augments: u64,
}

impl PairProgram {
    /// A program over `caps.len()` variables, `s_i ≤ caps[i]`.
    ///
    /// # Panics
    ///
    /// Panics when a cap is not finite.
    pub fn new(caps: &[f64]) -> Self {
        for &c in caps {
            assert!(c.is_finite(), "cap must be finite, got {c}");
        }
        PairProgram {
            caps: caps.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.caps.len()
    }

    /// The per-variable caps.
    pub fn caps(&self) -> &[f64] {
        &self.caps
    }

    /// The rows added so far.
    pub fn rows(&self) -> &[PairRow] {
        &self.rows
    }

    /// Adds the row `s_i + s_j relation rhs`.
    ///
    /// # Panics
    ///
    /// Panics when a variable index is out of range or `rhs` is not
    /// finite.
    pub fn add_row(&mut self, i: usize, j: usize, relation: Relation, rhs: f64) {
        let n = self.num_vars();
        assert!(
            i < n && j < n,
            "variable index out of range: ({i}, {j}) with {n} variables"
        );
        assert!(rhs.is_finite(), "row rhs must be finite, got {rhs}");
        self.rows.push(PairRow {
            i,
            j,
            relation,
            rhs,
        });
    }

    /// The same program as a general [`Problem`] — caps first, then the
    /// rows in the order they were added — for the simplex.
    pub fn to_problem(&self) -> Problem {
        let mut p = Problem::maximize(&vec![1.0; self.num_vars()]);
        for (i, &cap) in self.caps.iter().enumerate() {
            p.add_upper_bound(i, cap);
        }
        for r in &self.rows {
            p.add_constraint(&[(r.i, 1.0), (r.j, 1.0)], r.relation, r.rhs);
        }
        p
    }

    /// Solves the program as a min-cost flow.
    ///
    /// Records an `lp.solve` span and counts `lp.solves`, like the
    /// simplex, plus the flow's own `lp.flow.solves`,
    /// `lp.flow.relaxations`, `lp.flow.phases`, `lp.flow.augments` and
    /// `lp.flow.infeasible`. The `lp.pivots*` counters stay
    /// simplex-only.
    pub fn solve(&self) -> Outcome {
        let reg = marauder_obs::global();
        let _span = reg.span("lp.solve", marauder_obs::global_clock());
        let report = self.solve_report();
        reg.counter_add("lp.solves", 1);
        reg.counter_add("lp.flow.solves", 1);
        reg.counter_add("lp.flow.relaxations", report.relaxations);
        reg.counter_add("lp.flow.phases", report.phases);
        reg.counter_add("lp.flow.augments", report.augments);
        if report.outcome.is_infeasible() {
            reg.counter_add("lp.flow.infeasible", 1);
        }
        report.outcome
    }

    /// The solver body: the outcome plus work counts, without touching
    /// the metrics registry.
    fn solve_report(&self) -> FlowReport {
        let mut net = Network::build(self);
        let mut report = FlowReport {
            outcome: Outcome::Infeasible,
            relaxations: 0,
            phases: 0,
            augments: 0,
        };
        if !net.bellman_ford(&mut report.relaxations) {
            return report;
        }
        if !net.successive_shortest_paths(self.num_vars(), &mut report) {
            return report;
        }
        let values: Vec<f64> = self
            .caps
            .iter()
            .enumerate()
            .map(|(i, &cap)| {
                let s = (net.pi[a_node(i)] - net.pi[b_node(i)]) / 2.0;
                s.max(0.0).min(cap)
            })
            .collect();
        let objective = values.iter().sum();
        report.outcome = Outcome::Optimal(Solution { values, objective });
        report
    }
}

/// Node ids: `z` is 0, `a_i` and `b_i` follow pairwise, then the
/// super-source `S` (feeding every `b_i`) and super-sink `T` (fed by
/// every `a_i`).
const Z: usize = 0;

fn a_node(i: usize) -> usize {
    1 + 2 * i
}

fn b_node(i: usize) -> usize {
    2 + 2 * i
}

/// "Not set" for predecessor and settle-order slots.
const NONE: u32 = u32::MAX;

/// Residual capacity of an arc of the doubled program: never the
/// bottleneck, since at most `n` units ever cross one arc.
const UNBOUNDED: u32 = u32::MAX;

/// One residual arc, stored in its tail's adjacency run.
#[derive(Debug, Clone, Copy)]
struct Arc {
    to: u32,
    cap: u32,
    cost: f64,
}

/// The residual network in compressed adjacency form: node `u` owns
/// arcs `start[u]..start[u + 1]`, and `rev[k]` is arc `k`'s residual
/// twin.
struct Network {
    source: usize,
    sink: usize,
    start: Vec<usize>,
    arcs: Vec<Arc>,
    rev: Vec<u32>,
    /// Node potentials: reduced costs `cost + π(u) − π(v)` stay ≥ 0
    /// (within the tolerance) on every arc with residual capacity.
    pi: Vec<f64>,
    /// Minimum improvement of a relaxation, and the slack allowed when
    /// deciding that an arc is tight.
    eps: f64,
}

impl Network {
    fn build(p: &PairProgram) -> Network {
        let n = p.num_vars();
        let (source, sink) = (2 * n + 1, 2 * n + 2);
        let nodes = 2 * n + 3;
        let mut arcs: Vec<(usize, usize, f64, u32)> = Vec::with_capacity(6 * n + 4 * p.rows.len());
        for (i, &u) in p.caps.iter().enumerate() {
            let (a, b) = (a_node(i), b_node(i));
            arcs.push((Z, a, u, UNBOUNDED));
            arcs.push((b, Z, u, UNBOUNDED));
            arcs.push((a, Z, 0.0, UNBOUNDED));
            arcs.push((Z, b, 0.0, UNBOUNDED));
            arcs.push((source, b, 0.0, 1));
            arcs.push((a, sink, 0.0, 1));
        }
        for r in &p.rows {
            let (ai, bi, aj, bj) = (a_node(r.i), b_node(r.i), a_node(r.j), b_node(r.j));
            if matches!(r.relation, Relation::Le | Relation::Eq) {
                arcs.push((bj, ai, r.rhs, UNBOUNDED));
                arcs.push((bi, aj, r.rhs, UNBOUNDED));
            }
            if matches!(r.relation, Relation::Ge | Relation::Eq) {
                arcs.push((aj, bi, -r.rhs, UNBOUNDED));
                arcs.push((ai, bj, -r.rhs, UNBOUNDED));
            }
        }
        let scale = arcs.iter().fold(1.0f64, |m, a| m.max(a.2.abs()));

        // Counting sort into per-node runs; within a node, arcs keep
        // their insertion order (forward and residual twins interleaved
        // as they were added).
        let mut start = vec![0usize; nodes + 1];
        for &(t, h, _, _) in &arcs {
            start[t + 1] += 1;
            start[h + 1] += 1;
        }
        for v in 0..nodes {
            start[v + 1] += start[v];
        }
        let total = start[nodes];
        let mut fill = start.clone();
        let unused = Arc {
            to: 0,
            cap: 0,
            cost: 0.0,
        };
        let mut residual = vec![unused; total];
        let mut rev = vec![0u32; total];
        for &(t, h, w, c) in &arcs {
            let (f, r) = (fill[t], fill[h]);
            fill[t] += 1;
            fill[h] += 1;
            residual[f] = Arc {
                to: h as u32,
                cap: c,
                cost: w,
            };
            residual[r] = Arc {
                to: t as u32,
                cap: 0,
                cost: -w,
            };
            rev[f] = r as u32;
            rev[r] = f as u32;
        }
        Network {
            source,
            sink,
            start,
            arcs: residual,
            rev,
            pi: vec![0.0; nodes],
            eps: 1e-12 * scale,
        }
    }

    fn nodes(&self) -> usize {
        self.pi.len()
    }

    /// First potentials: shortest distances from a virtual source at
    /// distance 0 to every node, over arcs with capacity. Returns
    /// `false` on a negative cycle (the program is infeasible).
    fn bellman_ford(&mut self, relaxations: &mut u64) -> bool {
        let nodes = self.nodes();
        let mut pred = vec![NONE; nodes];
        let mut queued = vec![true; nodes];
        let mut queue: VecDeque<usize> = (0..nodes).collect();
        let mut mark = vec![NONE; nodes];
        let mut next_check = nodes as u64;
        while let Some(u) = queue.pop_front() {
            queued[u] = false;
            for k in self.start[u]..self.start[u + 1] {
                let arc = self.arcs[k];
                if arc.cap == 0 {
                    continue;
                }
                let v = arc.to as usize;
                let d = self.pi[u] + arc.cost;
                if d < self.pi[v] - self.eps {
                    self.pi[v] = d;
                    pred[v] = u as u32;
                    *relaxations += 1;
                    if !queued[v] {
                        queued[v] = true;
                        queue.push_back(v);
                    }
                    if *relaxations >= next_check {
                        next_check += nodes as u64;
                        if has_cycle(&pred, &mut mark) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Routes one unit from every `b_i` to some `a_j` at minimum cost,
    /// keeping the potentials optimal for the flow so far. Returns
    /// `false` only if the sink stops being reachable, which the
    /// always-present `b_i → z → a_j` paths rule out.
    fn successive_shortest_paths(&mut self, units: usize, report: &mut FlowReport) -> bool {
        let nodes = self.nodes();
        let (s, t) = (self.source, self.sink);
        let mut dist = vec![f64::INFINITY; nodes];
        let mut order = vec![NONE; nodes];
        let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
        let mut cur = vec![0usize; nodes];
        let mut path: Vec<usize> = Vec::new();
        let mut remaining = units;
        while remaining > 0 {
            report.phases += 1;

            // Dijkstra over reduced costs, stopped once the sink
            // settles. Rounding can leave a reduced cost a hair below
            // zero; it counts as zero.
            dist.fill(f64::INFINITY);
            order.fill(NONE);
            heap.clear();
            dist[s] = 0.0;
            heap.push(Entry {
                d: 0.0,
                v: s as u32,
            });
            let mut settled = 0u32;
            while let Some(Entry { d, v }) = heap.pop() {
                let u = v as usize;
                if order[u] != NONE {
                    continue;
                }
                order[u] = settled;
                settled += 1;
                if u == t {
                    break;
                }
                for k in self.start[u]..self.start[u + 1] {
                    let arc = self.arcs[k];
                    let v = arc.to as usize;
                    if arc.cap == 0 || order[v] != NONE {
                        continue;
                    }
                    let nd = d + (arc.cost + self.pi[u] - self.pi[v]).max(0.0);
                    if nd < dist[v] {
                        dist[v] = nd;
                        heap.push(Entry { d: nd, v: v as u32 });
                    }
                }
            }
            let dt = dist[t];
            if order[t] == NONE {
                debug_assert!(false, "sink unreachable with {remaining} units left");
                return false;
            }

            // Blocking flow over the tight arcs between settled nodes,
            // forward in settle order, with current-arc pointers: a
            // node whose pointer runs off its arc list is dead for the
            // rest of the phase. The search runs backward from the
            // sink, so it visits only nodes on shortest paths rather
            // than everything the source reaches at distance zero. Arc
            // `k` in node `v`'s run is the residual twin of the
            // candidate `u → v`.
            cur.copy_from_slice(&self.start[..nodes]);
            let tight = |net: &Network, u: usize, v: usize, k: usize| {
                let arc = net.arcs[k];
                arc.cap > 0
                    && order[u] != NONE
                    && order[u] < order[v]
                    && dist[u] + (arc.cost + net.pi[u] - net.pi[v]).max(0.0) - dist[v] <= net.eps
            };
            path.clear();
            let mut v = t;
            loop {
                if v == s {
                    for &k in &path {
                        self.arcs[k].cap -= 1;
                        let r = self.rev[k] as usize;
                        self.arcs[r].cap += 1;
                    }
                    report.augments += 1;
                    remaining -= 1;
                    path.clear();
                    v = t;
                    continue;
                }
                let end = self.start[v + 1];
                while cur[v] < end {
                    let u = self.arcs[cur[v]].to as usize;
                    if tight(self, u, v, self.rev[cur[v]] as usize) {
                        break;
                    }
                    cur[v] += 1;
                }
                if cur[v] < end {
                    path.push(self.rev[cur[v]] as usize);
                    v = self.arcs[cur[v]].to as usize;
                } else if let Some(k) = path.pop() {
                    v = self.arcs[k].to as usize;
                    cur[v] += 1;
                } else {
                    break;
                }
            }

            // New potentials: nodes beyond the sink's distance move by
            // exactly that distance, which keeps every residual reduced
            // cost non-negative.
            for (p, &d) in self.pi.iter_mut().zip(&dist) {
                *p += d.min(dt);
            }
        }
        true
    }
}

/// Whether the predecessor graph holds a cycle. `mark` is scratch
/// space of one slot per node.
fn has_cycle(pred: &[u32], mark: &mut [u32]) -> bool {
    mark.fill(NONE);
    for s in 0..pred.len() {
        let mut v = s;
        while mark[v] == NONE {
            mark[v] = s as u32;
            match pred[v] {
                NONE => break,
                p => v = p as usize,
            }
        }
        if mark[v] == s as u32 && pred[v] != NONE {
            return true;
        }
    }
    false
}

/// A Dijkstra heap entry: smallest distance first, then smallest node.
#[derive(Debug, Clone, Copy)]
struct Entry {
    d: f64,
    v: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap.
        other
            .d
            .total_cmp(&self.d)
            .then_with(|| other.v.cmp(&self.v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optimum(p: &PairProgram) -> Solution {
        p.solve_report()
            .outcome
            .into_optimal()
            .expect("program is feasible")
    }

    #[test]
    fn empty_program_is_optimal_at_zero() {
        let sol = optimum(&PairProgram::new(&[]));
        assert!(sol.values.is_empty());
        assert!(sol.objective.abs() < 1e-15);
    }

    #[test]
    fn caps_alone_bind() {
        let sol = optimum(&PairProgram::new(&[5.0, 0.0, 2.5]));
        assert_eq!(sol.values, vec![5.0, 0.0, 2.5]);
    }

    #[test]
    fn a_chain_of_budgets_matches_the_simplex() {
        // s0 + s1 ≤ 3, s1 + s2 ≤ 4, s2 + s3 ≤ 10, s1 + s3 ≥ 6, caps 5.
        let mut p = PairProgram::new(&[5.0; 4]);
        p.add_row(0, 1, Relation::Le, 3.0);
        p.add_row(1, 2, Relation::Le, 4.0);
        p.add_row(2, 3, Relation::Le, 10.0);
        p.add_row(1, 3, Relation::Ge, 6.0);
        let flow = optimum(&p);
        let simplex = p.to_problem().solve().into_optimal().expect("feasible");
        assert!((flow.objective - simplex.objective).abs() < 1e-12);
        let s = &flow.values;
        assert!(s[0] + s[1] <= 3.0 + 1e-12 && s[1] + s[2] <= 4.0 + 1e-12);
        assert!(s[1] + s[3] >= 6.0 - 1e-12);
    }

    #[test]
    fn equality_rows_hold_both_ways() {
        let mut p = PairProgram::new(&[4.0, 4.0]);
        p.add_row(0, 1, Relation::Eq, 5.0);
        let sol = optimum(&p);
        assert!((sol.values[0] + sol.values[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn a_row_on_one_variable_doubles_it() {
        let mut p = PairProgram::new(&[9.0]);
        p.add_row(0, 0, Relation::Le, 7.0);
        assert!((optimum(&p).values[0] - 3.5).abs() < 1e-12);
    }

    #[test]
    fn negative_cycles_are_infeasible() {
        // A ≥ row beyond its two caps.
        let mut p = PairProgram::new(&[1.0, 1.0]);
        p.add_row(0, 1, Relation::Ge, 5.0);
        assert!(p.solve_report().outcome.is_infeasible());
        // A ≥ row against a chain of ≤ rows: the ≤ rows force s1 ≤ 1
        // and s2 ≤ 1, so s1 + s2 ≥ 5 fails although the caps allow it.
        let mut p = PairProgram::new(&[10.0; 4]);
        p.add_row(0, 1, Relation::Le, 1.0);
        p.add_row(1, 2, Relation::Ge, 5.0);
        p.add_row(2, 3, Relation::Le, 1.0);
        assert!(p.to_problem().solve().is_infeasible());
        assert!(p.solve_report().outcome.is_infeasible());
        // A negative cap or a negative ≤ budget contradicts s ≥ 0.
        assert!(PairProgram::new(&[-1.0])
            .solve_report()
            .outcome
            .is_infeasible());
        let mut p = PairProgram::new(&[1.0, 1.0]);
        p.add_row(0, 1, Relation::Le, -0.5);
        assert!(p.solve_report().outcome.is_infeasible());
    }

    #[test]
    fn solve_counts_into_the_registry() {
        let reg = marauder_obs::global();
        let before = reg.counter("lp.flow.solves");
        let mut p = PairProgram::new(&[1.0, 2.0]);
        p.add_row(0, 1, Relation::Le, 2.0);
        let sol = p.solve().into_optimal().expect("feasible");
        assert!((sol.objective - 2.0).abs() < 1e-12);
        assert!(reg.counter("lp.flow.solves") > before);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        PairProgram::new(&[1.0]).add_row(0, 1, Relation::Le, 1.0);
    }
}
