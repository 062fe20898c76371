//! AP-Rad: estimate AP maximum transmission distances by linear
//! programming, then localize with M-Loc (paper Section III-C2 and the
//! "AP-Rad" pseudocode).
//!
//! Constraint generation follows the paper exactly:
//!
//! * if two APs were observed communicating with the same mobile in the
//!   same observation window, `rᵢ + rⱼ ≥ dᵢⱼ`,
//! * if two APs were *never* co-observed over the capture,
//!   `rᵢ + rⱼ < dᵢⱼ` (encoded as `≤ dᵢⱼ − ε`),
//! * objective: maximize `Σ rⱼ` (overestimates are safer than
//!   underestimates, Theorem 3).
//!
//! Real captures can make this system infeasible (two never-co-observed
//! APs may simply never have had a mobile in their overlap). When that
//! happens the negative constraints are dropped, tightest first, until
//! the system becomes feasible — the paper's "highly likely" hedge made
//! operational.
//!
//! Every row has two variables with unit coefficients, so each LP round
//! is a pair program that [`marauder_lp::flow`] solves as a min-cost
//! flow ([`LpMethod::Flow`], the default). The simplex stays selectable
//! as the reference solver ([`LpMethod::Simplex`]) and always serves
//! the warm-started live path.

use super::{CoverageDisc, Estimate, MLoc};
use marauder_geo::{GridIndex, Point};
use marauder_lp::{solve_with_basis, BasisHint, Outcome, PairProgram, Relation, WarmStart};
use marauder_wifi::mac::MacAddr;
use std::collections::{BTreeMap, BTreeSet};

/// A reusable spatial index over an AP `locations` map.
///
/// The grid query only ever *over*-approximates the candidate pairs
/// (every hit is re-checked by the exact admission gate), so the index
/// can be built once over the **full** location knowledge and reused
/// across windows even as the observed subset grows — rebuilding a
/// per-solve grid was a dominant constant factor of the incremental
/// path. Payloads are indices into the ascending BSSID order, mapped
/// to the current solve's variable indices with one array lookup.
#[derive(Debug, Clone)]
pub struct LocationsGrid {
    cell: f64,
    macs: Vec<MacAddr>,
    grid: GridIndex<u32>,
}

impl LocationsGrid {
    /// Builds the index for programs capped at `max_radius`.
    pub fn new(locations: &BTreeMap<MacAddr, Point>, max_radius: f64) -> Self {
        let cell = (2.0 * max_radius).max(1e-6);
        let mut grid = GridIndex::new(cell);
        let mut macs = Vec::with_capacity(locations.len());
        for (li, (m, p)) in locations.iter().enumerate() {
            grid.insert(*p, li as u32);
            macs.push(*m);
        }
        LocationsGrid { cell, macs, grid }
    }

    /// Whether this index is still valid for the given parameters.
    fn matches(&self, max_radius: f64, num_locations: usize) -> bool {
        let want_cell = (2.0 * max_radius).max(1e-6);
        self.cell.to_bits() == want_cell.to_bits() && self.macs.len() == num_locations
    }
}

/// Row identity in BSSID terms — stable across solves even as the
/// variable set grows, which is what lets a warm basis survive the
/// re-indexing between windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum RowKey {
    /// The `r_i ≤ max_radius` cap row for one AP.
    Bound(MacAddr),
    /// A never-co-observed `r_i + r_j ≤ d − ε` row (canonical order).
    Neg(MacAddr, MacAddr),
    /// A forced co-observation `r_i + r_j ≥ d` row (canonical order).
    Forced(MacAddr, MacAddr),
}

/// A basis hint in BSSID terms (see [`RowKey`]).
#[derive(Debug, Clone, Copy)]
enum MacHint {
    Slack,
    Decision(MacAddr),
    /// The slack of the row keyed by `RowKey` was basic in this row —
    /// slack migrations must be remembered in row-identity terms so
    /// they survive re-indexing between windows.
    SlackOf(RowKey),
}

/// The previous solve's optimal basis, keyed by row identity.
#[derive(Debug, Clone, Default)]
struct WarmMemory {
    rows: BTreeMap<RowKey, MacHint>,
}

/// Whether a solve may warm-start from (and update) a basis memory.
enum SolveMode<'a> {
    /// Canonical: plain cold solves, bit-identical across call sites.
    Cold,
    /// Live: re-solve from the remembered basis when feasible. The
    /// result is a genuine optimum but may sit on a different vertex
    /// of the optimal face than the cold path's.
    Warm(&'a mut WarmMemory),
}

/// How candidate never-co-observed pairs are enumerated.
///
/// Both strategies produce *identical* constraint sets (and therefore
/// identical radii): the grid query with radius `2·max_radius` is a
/// superset of the pairs the distance gate admits, and the collected
/// partner lists are re-sorted into the full scan's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PairPruning {
    /// Check all `O(n²)` AP pairs.
    FullScan,
    /// Query a uniform spatial grid for partners within `2·max_radius`
    /// of each AP — expected `O(n · neighbours)` on sparse campuses —
    /// and fan the per-AP queries out across worker threads.
    #[default]
    Grid,
}

/// Which solver runs the cold LP rounds.
///
/// Both reach the same optimum, but where the optimal face holds more
/// than one point they may report different ones, so radii can differ
/// between the two. Either choice is a pure function of its input. The
/// warm-started live path ([`ApRadSolver::set_warm_start`]) always uses
/// the simplex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LpMethod {
    /// Min-cost flow on the doubled difference-constraint graph
    /// ([`marauder_lp::flow`]).
    #[default]
    Flow,
    /// The sparse two-phase simplex: the reference solver.
    Simplex,
}

/// Order-independent sufficient statistics of a set of observation
/// windows — everything the AP-Rad linear program reads.
///
/// The LP's constraint set is a pure function of three aggregates: the
/// set of observed-and-located APs (the variables), the set of
/// co-observed pairs (`≥` candidates), and each AP's seen-count
/// *compared against* `min_observations_for_negative` (the
/// negative-evidence gate). Folding windows in any order yields the
/// same aggregates, which is what lets the streaming engine ingest
/// windows one at a time and still reproduce the batch radii bit for
/// bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObservationStats {
    observed: BTreeSet<MacAddr>,
    co: BTreeSet<(MacAddr, MacAddr)>,
    seen: BTreeMap<MacAddr, usize>,
    windows: usize,
}

impl ObservationStats {
    /// Empty statistics (no windows folded yet).
    pub fn new() -> Self {
        ObservationStats::default()
    }

    /// Folds one observation window (`Γ_k`) into the statistics.
    ///
    /// Only APs present in `locations` are counted — exactly the
    /// filtering [`ApRad::estimate_radii_with_bounds`] applies.
    /// `threshold` is the solver's `min_observations_for_negative`.
    ///
    /// Returns `true` when the update can change the LP's constraint
    /// set — a first-ever AP, a first-ever co-observation pair, or a
    /// seen-count crossing `threshold` — i.e. when any cached radii are
    /// stale. Returns `false` when the fold provably leaves the LP
    /// unchanged, so incremental consumers can skip the re-solve.
    pub fn ingest(
        &mut self,
        gamma: &BTreeSet<MacAddr>,
        locations: &BTreeMap<MacAddr, Point>,
        threshold: usize,
    ) -> bool {
        self.windows += 1;
        let mut dirty = false;
        let located: Vec<MacAddr> = gamma
            .iter()
            .copied()
            .filter(|m| locations.contains_key(m))
            .collect();
        for &m in &located {
            if self.observed.insert(m) {
                dirty = true; // new LP variable
            }
            let count = self.seen.entry(m).or_insert(0);
            *count += 1;
            if *count == threshold {
                dirty = true; // negative-evidence gate flips for m
            }
        }
        // `located` is ascending (gamma is a BTreeSet), so (a, b) is
        // already in canonical (min, max) order.
        for (i, &a) in located.iter().enumerate() {
            for &b in &located[i + 1..] {
                if self.co.insert((a, b)) {
                    dirty = true; // new co-observation constraint
                }
            }
        }
        dirty
    }

    /// APs observed at least once (with a known location).
    pub fn observed(&self) -> &BTreeSet<MacAddr> {
        &self.observed
    }

    /// Canonically ordered `(min, max)` co-observed AP pairs.
    pub fn co_pairs(&self) -> &BTreeSet<(MacAddr, MacAddr)> {
        &self.co
    }

    /// Per-AP window counts (how many windows each AP appeared in).
    pub fn seen_counts(&self) -> &BTreeMap<MacAddr, usize> {
        &self.seen
    }

    /// Total number of windows folded in.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Reassembles statistics from their parts — the snapshot-restore
    /// path. Counterpart of the accessors above.
    pub fn from_parts(
        observed: BTreeSet<MacAddr>,
        co: BTreeSet<(MacAddr, MacAddr)>,
        seen: BTreeMap<MacAddr, usize>,
        windows: usize,
    ) -> Self {
        ObservationStats {
            observed,
            co,
            seen,
            windows,
        }
    }
}

/// The AP-Rad localizer.
#[derive(Debug, Clone, PartialEq)]
pub struct ApRad {
    /// Theoretical upper bound on any AP's radius, meters (caps the LP).
    pub max_radius: f64,
    /// Margin subtracted from strict `<` constraints, meters.
    pub epsilon: f64,
    /// Per AP, how many nearest never-co-observed neighbours contribute
    /// `<` constraints. Bounds the LP size on dense campuses; looser
    /// constraints on the same variables essentially never bind.
    pub max_negative_per_ap: usize,
    /// The paper's "over a sufficient amount of time" gate: a
    /// never-co-observed pair only yields a `<` constraint when *both*
    /// APs were seen in at least this many observation sets — otherwise
    /// the absence of co-observation is sampling noise, not evidence.
    pub min_observations_for_negative: usize,
    /// Candidate-pair enumeration strategy.
    pub pruning: PairPruning,
    /// Solver of the cold LP rounds.
    pub lp: LpMethod,
    /// The M-Loc instance used after radii are estimated.
    pub mloc: MLoc,
}

impl Default for ApRad {
    fn default() -> Self {
        ApRad {
            max_radius: 1000.0,
            epsilon: 1e-3,
            max_negative_per_ap: 12,
            min_observations_for_negative: 3,
            pruning: PairPruning::default(),
            lp: LpMethod::default(),
            mloc: MLoc::default(),
        }
    }
}

impl ApRad {
    /// Estimates a radius for every AP that appears in at least one
    /// observation set and has a known location.
    ///
    /// `locations` maps BSSIDs to positions (the external knowledge);
    /// `observations` are per-mobile-per-window communicable-AP sets
    /// (`Γ_k` in the paper). APs in observations without a known
    /// location are ignored.
    pub fn estimate_radii(
        &self,
        locations: &BTreeMap<MacAddr, Point>,
        observations: &[BTreeSet<MacAddr>],
    ) -> BTreeMap<MacAddr, f64> {
        self.estimate_radii_with_bounds(locations, observations, &BTreeMap::new())
    }

    /// Like [`estimate_radii`](Self::estimate_radii), with additional
    /// per-AP lower bounds `r_i ≥ min_radii[i]`.
    ///
    /// AP-Loc supplies these from its training tuples: an AP heard from
    /// a training location must reach at least that far, which keeps the
    /// LP from collapsing radii when trained AP positions distort the
    /// pairwise distances.
    pub fn estimate_radii_with_bounds(
        &self,
        locations: &BTreeMap<MacAddr, Point>,
        observations: &[BTreeSet<MacAddr>],
        min_radii: &BTreeMap<MacAddr, f64>,
    ) -> BTreeMap<MacAddr, f64> {
        let mut stats = ObservationStats::new();
        for obs in observations {
            stats.ingest(obs, locations, self.min_observations_for_negative);
        }
        self.solve_from_stats(locations, &stats, min_radii)
    }

    /// Solves the AP-Rad linear program from pre-aggregated
    /// [`ObservationStats`] instead of raw observation windows.
    ///
    /// This is the batch path's actual solver —
    /// [`estimate_radii_with_bounds`](Self::estimate_radii_with_bounds)
    /// is a thin wrapper that folds its windows into stats first — and
    /// the streaming engine's re-solve entry point. `stats` must have
    /// been built against the same `locations` map (its `ingest` filter
    /// is what keeps unlocated APs out of the program).
    pub fn solve_from_stats(
        &self,
        locations: &BTreeMap<MacAddr, Point>,
        stats: &ObservationStats,
        min_radii: &BTreeMap<MacAddr, f64>,
    ) -> BTreeMap<MacAddr, f64> {
        self.solve_impl(locations, stats, min_radii, None, SolveMode::Cold)
    }

    /// The shared solver body behind the cold and warm entry points.
    ///
    /// `grid` optionally supplies a prebuilt [`LocationsGrid`] (the
    /// incremental solver reuses one across windows); when absent or
    /// stale, a fresh one is built per call. `mode` selects plain cold
    /// solves (by [`ApRad::lp`]) or simplex warm starts from a basis
    /// memory — the *constraint set* is identical either way, only the
    /// solver (and therefore possibly which optimal point is reported)
    /// differs.
    fn solve_impl(
        &self,
        locations: &BTreeMap<MacAddr, Point>,
        stats: &ObservationStats,
        min_radii: &BTreeMap<MacAddr, f64>,
        grid: Option<&LocationsGrid>,
        mut mode: SolveMode<'_>,
    ) -> BTreeMap<MacAddr, f64> {
        // Variables: APs that are both observed and located, ascending.
        let vars: Vec<MacAddr> = stats.observed.iter().copied().collect();
        if vars.is_empty() {
            return BTreeMap::new();
        }
        let index: BTreeMap<MacAddr, usize> =
            vars.iter().enumerate().map(|(i, m)| (*m, i)).collect();

        // Co-observed pairs, as index pairs, in a sorted flat vector:
        // the admission gate probes membership for nearly every
        // candidate pair, and a binary search over a contiguous array
        // beats a `BTreeSet` tree walk there. The MAC pairs are already
        // canonical (min, max) and `index` is monotone over MACs, so
        // the index pairs come out canonical — and therefore sorted —
        // too.
        let co: Vec<(u32, u32)> = stats
            .co
            .iter()
            .map(|(a, b)| (index[a] as u32, index[b] as u32))
            .collect();
        debug_assert!(co.windows(2).all(|w| w[0] < w[1]));

        // Intern positions once: the pair enumeration and LP verification
        // below hit distances millions of times on a dense campus, and a
        // slice index beats a tree walk per lookup. The coordinates are
        // also split into parallel x/y arrays: the enumeration's inner
        // loop only ever needs the two coordinates, and the flat layout
        // keeps them in cache.
        let pts: Vec<Point> = vars.iter().map(|m| locations[m]).collect();
        let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
        // Bit-identical to `Point::distance`: same subtraction order,
        // same `sqrt(dx² + dy²)`.
        let dist_sq = |i: usize, j: usize| {
            let dx = xs[i] - xs[j];
            let dy = ys[i] - ys[j];
            dx * dx + dy * dy
        };
        let dist = |i: usize, j: usize| dist_sq(i, j).sqrt();

        // Per-variable lower bounds (0 without training data), and the
        // substitution r_i = lo_i + s_i, s_i >= 0 that turns them into
        // plain non-negativity — the LP then needs no >= rows at all for
        // the bounds.
        let lo: Vec<f64> = vars
            .iter()
            .map(|m| {
                min_radii
                    .get(m)
                    .copied()
                    .unwrap_or(0.0)
                    .clamp(0.0, self.max_radius)
            })
            .collect();

        // Negative (never-co-observed) pairs, tightest first. Two
        // prunings keep the LP small on dense campuses:
        // * a pair farther apart than 2·max_radius constrains nothing,
        // * per AP only the `max_negative_per_ap` nearest negative
        //   neighbours are kept — looser constraints on the same
        //   variables essentially never bind under the maximize-sum
        //   objective.
        // A negative constraint contradicting the training lower bounds
        // is certainly wrong (the estimated pair distance is too small)
        // and is discarded.
        // How often each AP was seen at all — the negative-evidence gate.
        let seen_count: Vec<usize> = vars
            .iter()
            .map(|m| stats.seen.get(m).copied().unwrap_or(0))
            .collect();

        // Every gate is symmetric in (i, j), so both enumeration
        // strategies can share it. The checks run cheapest-reject
        // first: the seen-count gate is two array reads, the squared
        // distance needs no square root and no membership probe, and
        // the co-pair binary search — the most expensive test — runs
        // only for pairs that survive the geometry. The early-out
        // threshold carries a 1e-9 relative guard band so that pairs
        // within square-root rounding of the exact `d ≥ 2·max_radius`
        // boundary always fall through to the exact gate below —
        // reordering the checks must not change a single admission.
        let reject_sq = {
            let t = 2.0 * self.max_radius * (1.0 + 1e-9);
            t * t
        };
        let admit = |i: usize, j: usize| -> Option<f64> {
            if seen_count[i] < self.min_observations_for_negative
                || seen_count[j] < self.min_observations_for_negative
            {
                return None; // not enough evidence that they never meet
            }
            if dist_sq(i, j) > reject_sq {
                return None; // clearly out of range: skip the sqrt
            }
            let d = dist(i, j);
            if d >= 2.0 * self.max_radius || lo[i] + lo[j] > d - self.epsilon {
                return None;
            }
            let key = (i.min(j) as u32, i.max(j) as u32);
            if co.binary_search(&key).is_ok() {
                return None;
            }
            Some(d)
        };

        let mut neighbour_lists: Vec<Vec<(usize, f64)>> = match self.pruning {
            PairPruning::FullScan => {
                let mut lists: Vec<Vec<(usize, f64)>> = vec![Vec::new(); vars.len()];
                for i in 0..vars.len() {
                    for j in (i + 1)..vars.len() {
                        if let Some(d) = admit(i, j) {
                            lists[i].push((j, d));
                            lists[j].push((i, d));
                        }
                    }
                }
                lists
            }
            PairPruning::Grid => {
                // Reuse the caller's prebuilt index when it still
                // matches; otherwise build one for this call. The grid
                // holds *all* located APs (a superset of the observed
                // variables), so growth of the observed set never
                // invalidates it — unmapped hits fall out at the
                // `loc_to_var` lookup.
                let local;
                let lg = match grid {
                    Some(g) if g.matches(self.max_radius, locations.len()) => g,
                    _ => {
                        local = LocationsGrid::new(locations, self.max_radius);
                        &local
                    }
                };
                let mut loc_to_var = vec![u32::MAX; lg.macs.len()];
                {
                    let mut vi = 0usize;
                    for (li, m) in lg.macs.iter().enumerate() {
                        if vi < vars.len() && vars[vi] == *m {
                            loc_to_var[li] = vi as u32;
                            vi += 1;
                        }
                    }
                    debug_assert_eq!(vi, vars.len(), "vars must be a subset of locations");
                }
                marauder_par::par_map_range(vars.len(), |i| {
                    let mut list: Vec<(usize, f64)> = lg
                        .grid
                        .within(pts[i], 2.0 * self.max_radius)
                        .filter_map(|&(_, li)| {
                            let j = loc_to_var[li as usize] as usize;
                            if j == u32::MAX as usize || j == i {
                                return None;
                            }
                            admit(i, j).map(|d| (j, d))
                        })
                        .collect();
                    // The full scan appends partners in ascending index
                    // order; restoring that order here (the by-distance
                    // sort below is stable) makes the two strategies
                    // produce byte-identical constraint sets.
                    list.sort_unstable_by_key(|&(j, _)| j);
                    list
                })
            }
        };
        let mut keep: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (i, list) in neighbour_lists.iter_mut().enumerate() {
            list.sort_by(|a, b| a.1.total_cmp(&b.1));
            for &(j, _) in list.iter().take(self.max_negative_per_ap) {
                keep.insert((i.min(j), i.max(j)));
            }
        }
        let mut negative: Vec<(usize, usize, f64)> =
            keep.into_iter().map(|(i, j)| (i, j, dist(i, j))).collect();
        negative.sort_by(|a, b| a.2.total_cmp(&b.2));

        // Key structural insight: under `maximize Σ r`, the co-observation
        // constraints `r_i + r_j >= d_ij` can never lower the optimum —
        // they are either satisfied by the unconstrained maximum or make
        // the program infeasible. So solve WITHOUT them first, then
        // verify and only materialize the violated ones. This keeps the
        // program small on real campuses where co-pairs vastly outnumber
        // binding constraints. Forcing every co-pair from the first round
        // instead changes the radii wherever the round cap below binds
        // (see DESIGN.md, "Why the lazy loop stays").
        let mut forced: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut active_from = 0usize; // negative[..active_from] dropped
        let mut best: Option<Vec<f64>> = None;
        let warm_capable = matches!(mode, SolveMode::Warm(_));
        let caps: Vec<f64> = lo.iter().map(|l| self.max_radius - l).collect();
        for _round in 0..12 {
            let mut p = PairProgram::new(&caps);
            // Row identities in BSSID terms, parallel to the rows added
            // below — only materialized on the warm path, where they key
            // the basis memory across solves.
            let mut keys: Vec<RowKey> = Vec::new();
            if warm_capable {
                keys.extend(vars.iter().map(|m| RowKey::Bound(*m)));
            }
            for &(i, j, d) in &negative[active_from..] {
                p.add_row(i, j, Relation::Le, d - self.epsilon - lo[i] - lo[j]);
                if warm_capable {
                    keys.push(RowKey::Neg(vars[i], vars[j]));
                }
            }
            for &(i, j) in &forced {
                let rhs = dist(i, j) - lo[i] - lo[j];
                if rhs > 0.0 {
                    p.add_row(i, j, Relation::Ge, rhs);
                    if warm_capable {
                        keys.push(RowKey::Forced(vars[i], vars[j]));
                    }
                }
            }
            let outcome = match &mut mode {
                SolveMode::Cold => match self.lp {
                    LpMethod::Flow => p.solve(),
                    LpMethod::Simplex => p.to_problem().solve(),
                },
                SolveMode::Warm(memory) => {
                    let p = p.to_problem();
                    // Translate the remembered basis into this solve's
                    // row/variable indices. Rows with no memory (newly
                    // appeared constraints) default to their slack —
                    // exactly what a fresh tableau would hold for them.
                    // Forced `≥` rows need artificials, which the LP
                    // layer declines to warm anyway; skip the work.
                    let hints = (!memory.rows.is_empty() && forced.is_empty()).then(|| {
                        let row_of: BTreeMap<RowKey, usize> =
                            keys.iter().enumerate().map(|(i, k)| (*k, i)).collect();
                        WarmStart {
                            rows: keys
                                .iter()
                                .map(|k| match memory.rows.get(k) {
                                    Some(MacHint::Decision(m)) => index
                                        .get(m)
                                        .map_or(BasisHint::Slack, |&v| BasisHint::Decision(v)),
                                    Some(MacHint::SlackOf(qk)) => row_of
                                        .get(qk)
                                        .map_or(BasisHint::Slack, |&q| BasisHint::SlackOf(q)),
                                    _ => BasisHint::Slack,
                                })
                                .collect(),
                        }
                    });
                    let report = solve_with_basis(&p, hints.as_ref());
                    memory.rows = keys
                        .iter()
                        .zip(&report.basis)
                        .map(|(k, h)| {
                            let hint = match h {
                                BasisHint::Decision(v) if *v < vars.len() => {
                                    MacHint::Decision(vars[*v])
                                }
                                BasisHint::SlackOf(q) => keys
                                    .get(*q)
                                    .map_or(MacHint::Slack, |qk| MacHint::SlackOf(*qk)),
                                _ => MacHint::Slack,
                            };
                            (*k, hint)
                        })
                        .collect();
                    report.outcome
                }
            };
            match outcome {
                Outcome::Optimal(sol) => {
                    let r: Vec<f64> = sol
                        .values
                        .iter()
                        .zip(&lo)
                        .map(|(s, l)| (s.max(0.0) + l).min(self.max_radius))
                        .collect();
                    // Verify every co-observation constraint.
                    let mut new_violation = false;
                    for &(i, j) in &co {
                        let (i, j) = (i as usize, j as usize);
                        if r[i] + r[j] < dist(i, j) - 1e-6 && forced.insert((i, j)) {
                            new_violation = true;
                        }
                    }
                    best = Some(r);
                    if !new_violation {
                        break;
                    }
                }
                Outcome::Infeasible => {
                    // Forced >= rows conflict with kept <= rows: drop the
                    // tightest remaining negative rows (the paper's
                    // "highly likely" constraints are the suspect ones).
                    if active_from >= negative.len() {
                        break; // only forced rows left; repair below
                    }
                    let step = ((negative.len() - active_from) / 10).max(1);
                    active_from += step;
                }
                Outcome::Unbounded => {
                    unreachable!("all variables are capped at max_radius")
                }
            }
        }
        // Final repair: whatever co-pairs remain violated (iteration cap
        // or irreparable conflicts) are fixed by raising both radii to
        // half the pair distance — a guaranteed-feasible overestimate.
        let mut r = best.unwrap_or_else(|| lo.clone());
        for &(i, j) in &co {
            let (i, j) = (i as usize, j as usize);
            let d = dist(i, j);
            if r[i] + r[j] < d - 1e-6 {
                r[i] = r[i].max((d / 2.0).min(self.max_radius));
                r[j] = r[j].max((d / 2.0).min(self.max_radius));
            }
        }
        vars.iter().zip(r).map(|(m, v)| (*m, v)).collect()
    }

    /// Full AP-Rad: estimate radii from `observations`, then locate the
    /// mobile whose communicable set is `gamma`.
    ///
    /// Returns `None` when no AP in `gamma` has both a location and an
    /// estimated radius.
    pub fn locate(
        &self,
        locations: &BTreeMap<MacAddr, Point>,
        observations: &[BTreeSet<MacAddr>],
        gamma: &BTreeSet<MacAddr>,
    ) -> Option<Estimate> {
        let radii = self.estimate_radii(locations, observations);
        let discs: Vec<CoverageDisc> = gamma
            .iter()
            .filter_map(|mac| {
                let loc = locations.get(mac)?;
                let r = radii.get(mac)?;
                Some(CoverageDisc::new(*loc, *r))
            })
            .collect();
        self.mloc.locate(&discs)
    }
}

/// Incremental AP-Rad: fold observation windows in one at a time,
/// re-solving the linear program only when the fold actually changed
/// the constraint set.
///
/// The dirty test is exact, not heuristic: the LP reads the
/// observation history *only* through [`ObservationStats`]'s three
/// aggregates, and [`ObservationStats::ingest`] reports precisely when
/// one of them changed in a way the program can see. When `observe`
/// returns `false`, the cached radii are still bit-identical to what a
/// fresh batch solve over the full history would produce — the
/// streaming engine's incremental-update guarantee rests on this.
#[derive(Debug, Clone)]
pub struct ApRadSolver {
    aprad: ApRad,
    locations: BTreeMap<MacAddr, Point>,
    min_radii: BTreeMap<MacAddr, f64>,
    stats: ObservationStats,
    /// `Some` iff the cached solution matches `stats`.
    cached: Option<BTreeMap<MacAddr, f64>>,
    /// Spatial index over `locations`, built lazily and reused across
    /// solves (see [`LocationsGrid`]).
    grid: Option<LocationsGrid>,
    /// Warm-start state for the live estimate path, `Some` iff enabled.
    warm: Option<WarmState>,
}

/// Live-path warm-start state: the remembered basis plus a separate
/// result cache (warm results may sit on a different optimal vertex
/// than the canonical cold cache, so the two must never mix).
#[derive(Debug, Clone, Default)]
struct WarmState {
    memory: WarmMemory,
    cached: Option<BTreeMap<MacAddr, f64>>,
}

impl ApRadSolver {
    /// A solver over fixed AP knowledge. `min_radii` are the
    /// training-implied lower bounds (empty outside the no-knowledge
    /// level).
    pub fn new(
        aprad: ApRad,
        locations: BTreeMap<MacAddr, Point>,
        min_radii: BTreeMap<MacAddr, f64>,
    ) -> Self {
        ApRadSolver {
            aprad,
            locations,
            min_radii,
            stats: ObservationStats::new(),
            cached: None,
            grid: None,
            warm: None,
        }
    }

    /// Enables or disables warm-started live solves (off by default).
    ///
    /// Warm starts only affect [`live_radii`](Self::live_radii):
    /// [`radii`](Self::radii) stays a plain cold solve either way, so
    /// every bit-exactness guarantee on the canonical path is
    /// unaffected. Disabling drops the remembered basis.
    pub fn set_warm_start(&mut self, on: bool) {
        if on {
            if self.warm.is_none() {
                self.warm = Some(WarmState::default());
            }
        } else {
            self.warm = None;
        }
    }

    /// Folds one closed observation window into the solver's history.
    ///
    /// Returns `true` when the window dirtied the LP (cached radii
    /// invalidated), `false` when the cached solution provably still
    /// holds.
    pub fn observe(&mut self, gamma: &BTreeSet<MacAddr>) -> bool {
        let dirty = self.stats.ingest(
            gamma,
            &self.locations,
            self.aprad.min_observations_for_negative,
        );
        if dirty {
            self.cached = None;
            if let Some(w) = self.warm.as_mut() {
                w.cached = None;
            }
        }
        dirty
    }

    /// `true` when the next [`radii`](Self::radii) call must re-solve.
    pub fn is_dirty(&self) -> bool {
        self.cached.is_none()
    }

    /// `true` when the next [`live_radii`](Self::live_radii) call must
    /// re-solve. With warm starts disabled this is
    /// [`is_dirty`](Self::is_dirty); with them enabled it tracks the
    /// warm cache instead (the two caches fill independently).
    pub fn is_live_dirty(&self) -> bool {
        match &self.warm {
            Some(w) => w.cached.is_none(),
            None => self.cached.is_none(),
        }
    }

    /// Rebuilds the locations grid if missing or stale. Only the Grid
    /// pruning strategy reads it.
    fn ensure_grid(&mut self) {
        if self.aprad.pruning != PairPruning::Grid {
            return;
        }
        let stale = !matches!(
            &self.grid,
            Some(g) if g.matches(self.aprad.max_radius, self.locations.len())
        );
        if stale {
            self.grid = Some(LocationsGrid::new(&self.locations, self.aprad.max_radius));
        }
    }

    /// The current radii estimate, re-solving the LP if any window
    /// since the last solve dirtied the constraint set.
    ///
    /// Bit-identical to
    /// [`ApRad::estimate_radii_with_bounds`] over the same window
    /// history, regardless of how the observes and solves interleaved.
    pub fn radii(&mut self) -> &BTreeMap<MacAddr, f64> {
        if self.cached.is_none() {
            self.ensure_grid();
            self.cached = Some(self.aprad.solve_impl(
                &self.locations,
                &self.stats,
                &self.min_radii,
                self.grid.as_ref(),
                SolveMode::Cold,
            ));
        }
        // The branch above guarantees `cached` is filled, so the
        // closure never runs; this keeps the accessor panic-free.
        self.cached.get_or_insert_with(BTreeMap::new)
    }

    /// The current radii estimate for *live* consumers, re-solving from
    /// the previous solve's optimal basis when warm starts are enabled.
    ///
    /// Warm results are genuine optima of the same program but may
    /// differ in the last bits from [`radii`](Self::radii) when the
    /// optimal face has several vertices — callers that must be
    /// bit-reproducible (batch fixes, snapshots, figures) use `radii`;
    /// per-window live estimates use this.
    pub fn live_radii(&mut self) -> &BTreeMap<MacAddr, f64> {
        if self.warm.is_none() {
            return self.radii();
        }
        self.ensure_grid();
        // Disjoint-field reborrow: `warm` mutably, everything else
        // shared.
        let ApRadSolver {
            aprad,
            locations,
            min_radii,
            stats,
            grid,
            warm,
            ..
        } = self;
        // `warm` is known `Some` (early return above), so the closure
        // never runs; this keeps the accessor panic-free.
        let w = warm.get_or_insert_with(WarmState::default);
        if w.cached.is_none() {
            w.cached = Some(aprad.solve_impl(
                locations,
                stats,
                min_radii,
                grid.as_ref(),
                SolveMode::Warm(&mut w.memory),
            ));
        }
        // Filled just above; the closure never runs (panic-free).
        w.cached.get_or_insert_with(BTreeMap::new)
    }

    /// The accumulated observation statistics.
    pub fn stats(&self) -> &ObservationStats {
        &self.stats
    }

    /// The cached solution, if the solver is currently clean.
    pub fn cached_radii(&self) -> Option<&BTreeMap<MacAddr, f64>> {
        self.cached.as_ref()
    }

    /// Replaces the solver's history and cache — the snapshot-restore
    /// path. `cached` must be the solution for `stats` (or `None` to
    /// force a re-solve on the next [`radii`](Self::radii) call).
    ///
    /// Warm-start state is *not* part of a snapshot: the basis memory
    /// and live cache reset, so the first live solve after a restore is
    /// cold — correct (just not accelerated) by construction.
    pub fn restore(&mut self, stats: ObservationStats, cached: Option<BTreeMap<MacAddr, f64>>) {
        self.stats = stats;
        self.cached = cached;
        if let Some(w) = self.warm.as_mut() {
            *w = WarmState::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(i: u64) -> MacAddr {
        MacAddr::from_index(i)
    }

    fn set(macs: &[u64]) -> BTreeSet<MacAddr> {
        macs.iter().map(|&i| mac(i)).collect()
    }

    /// A simple world: APs on a grid with true radius `r`; observations
    /// generated from mobiles at given positions.
    struct World {
        locations: BTreeMap<MacAddr, Point>,
        r: f64,
    }

    impl World {
        fn grid(n: usize, pitch: f64, r: f64) -> World {
            let mut locations = BTreeMap::new();
            for i in 0..n {
                for j in 0..n {
                    locations.insert(
                        mac((i * n + j) as u64),
                        Point::new(i as f64 * pitch, j as f64 * pitch),
                    );
                }
            }
            World { locations, r }
        }

        fn observe(&self, at: Point) -> BTreeSet<MacAddr> {
            self.locations
                .iter()
                .filter(|(_, p)| p.distance(at) <= self.r)
                .map(|(m, _)| *m)
                .collect()
        }
    }

    #[test]
    fn empty_inputs() {
        let aprad = ApRad::default();
        assert!(aprad.estimate_radii(&BTreeMap::new(), &[]).is_empty());
        assert!(aprad
            .locate(&BTreeMap::new(), &[], &BTreeSet::new())
            .is_none());
    }

    #[test]
    fn radii_respect_constraints() {
        let world = World::grid(4, 60.0, 80.0);
        // Sample observations over the grid.
        let mut observations = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                let p = Point::new(i as f64 * 25.0, j as f64 * 25.0);
                let obs = world.observe(p);
                if !obs.is_empty() {
                    observations.push(obs);
                }
            }
        }
        let aprad = ApRad {
            max_radius: 300.0,
            ..ApRad::default()
        };
        let radii = aprad.estimate_radii(&world.locations, &observations);
        assert!(!radii.is_empty());
        // Every co-observed constraint holds.
        for obs in &observations {
            let present: Vec<&MacAddr> = obs.iter().collect();
            for (a, &i) in present.iter().enumerate() {
                for &j in &present[a + 1..] {
                    if let (Some(ri), Some(rj)) = (radii.get(i), radii.get(j)) {
                        let d = world.locations[i].distance(world.locations[j]);
                        assert!(
                            ri + rj >= d - 1e-6,
                            "co-observed pair violates: {ri} + {rj} < {d}"
                        );
                    }
                }
            }
        }
        // Estimates never exceed the cap.
        for r in radii.values() {
            assert!(*r <= 300.0 + 1e-6);
        }
    }

    #[test]
    fn radii_are_overestimates_of_truth_on_dense_data() {
        // With dense sampling, the LP's maximize-sum objective pushes
        // every radius to the largest value consistent with the negative
        // constraints — at or above the truth for most APs.
        let world = World::grid(4, 70.0, 75.0);
        let mut observations = Vec::new();
        for i in 0..18 {
            for j in 0..18 {
                let p = Point::new(i as f64 * 13.0 - 10.0, j as f64 * 13.0 - 10.0);
                let obs = world.observe(p);
                if !obs.is_empty() {
                    observations.push(obs);
                }
            }
        }
        let aprad = ApRad {
            max_radius: 400.0,
            ..ApRad::default()
        };
        let radii = aprad.estimate_radii(&world.locations, &observations);
        let over = radii.values().filter(|r| **r >= world.r * 0.8).count();
        assert!(
            over * 10 >= radii.len() * 7,
            "only {over}/{} radii near or above truth",
            radii.len()
        );
    }

    #[test]
    fn unlocated_aps_are_ignored() {
        let mut locations = BTreeMap::new();
        locations.insert(mac(1), Point::new(0.0, 0.0));
        locations.insert(mac(2), Point::new(50.0, 0.0));
        // mac(3) appears in observations but has no location.
        let observations = vec![set(&[1, 2, 3])];
        let radii = ApRad::default().estimate_radii(&locations, &observations);
        assert_eq!(radii.len(), 2);
        assert!(!radii.contains_key(&mac(3)));
    }

    #[test]
    fn locate_reconstructs_position() {
        let world = World::grid(5, 50.0, 70.0);
        let mut observations = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                let p = Point::new(i as f64 * 18.0, j as f64 * 18.0);
                let obs = world.observe(p);
                if obs.len() >= 2 {
                    observations.push(obs);
                }
            }
        }
        let victim_pos = Point::new(105.0, 95.0);
        let gamma = world.observe(victim_pos);
        assert!(gamma.len() >= 3);
        let aprad = ApRad {
            max_radius: 250.0,
            ..ApRad::default()
        };
        let est = aprad
            .locate(&world.locations, &observations, &gamma)
            .expect("locatable");
        let err = est.position.distance(victim_pos);
        assert!(err < 60.0, "error {err} too large");
    }

    #[test]
    fn infeasible_constraints_are_dropped() {
        // Construct a contradiction: A and B co-observed at distance 200
        // (r_a + r_b >= 200), but A-C and B-C never co-observed with C
        // close to both (r_a + r_c <= 10, r_b + r_c <= 10 would force
        // r_a + r_b <= 20 < 200 after accounting r_c >= 0).
        let mut locations = BTreeMap::new();
        locations.insert(mac(1), Point::new(0.0, 0.0));
        locations.insert(mac(2), Point::new(200.0, 0.0));
        locations.insert(mac(3), Point::new(100.0, 1.0));
        let observations = vec![set(&[1, 2]), set(&[3])];
        let radii = ApRad::default().estimate_radii(&locations, &observations);
        // Must return something sensible despite the contradiction.
        assert_eq!(radii.len(), 3);
        let (ra, rb) = (radii[&mac(1)], radii[&mac(2)]);
        assert!(ra + rb >= 200.0 - 1e-6, "kept constraint violated");
    }

    #[test]
    fn grid_pruning_matches_full_scan_exactly() {
        // The grid enumeration must reproduce the full scan's constraint
        // set — and therefore its radii — to the bit, for a max_radius
        // small enough that the grid actually prunes (several cells span
        // the world) and for one so large that every pair is in range.
        let world = World::grid(6, 45.0, 60.0);
        let mut observations = Vec::new();
        for i in 0..14 {
            for j in 0..14 {
                let p = Point::new(i as f64 * 17.0, j as f64 * 17.0);
                let obs = world.observe(p);
                if !obs.is_empty() {
                    observations.push(obs);
                }
            }
        }
        for max_radius in [90.0, 5000.0] {
            let full = ApRad {
                max_radius,
                pruning: PairPruning::FullScan,
                ..ApRad::default()
            };
            let grid = ApRad {
                max_radius,
                pruning: PairPruning::Grid,
                ..ApRad::default()
            };
            let r_full = full.estimate_radii(&world.locations, &observations);
            let r_grid = grid.estimate_radii(&world.locations, &observations);
            assert_eq!(r_full.len(), r_grid.len());
            for (mac, rf) in &r_full {
                let rg = r_grid[mac];
                assert_eq!(
                    rf.to_bits(),
                    rg.to_bits(),
                    "radius diverged for {mac} at max_radius {max_radius}: {rf} vs {rg}"
                );
            }
        }
    }

    #[test]
    fn incremental_solver_matches_batch_bit_for_bit() {
        let world = World::grid(4, 60.0, 80.0);
        let mut observations = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let p = Point::new(i as f64 * 22.0, j as f64 * 22.0);
                let obs = world.observe(p);
                if !obs.is_empty() {
                    observations.push(obs);
                }
            }
        }
        let aprad = ApRad {
            max_radius: 300.0,
            ..ApRad::default()
        };
        let batch = aprad.estimate_radii(&world.locations, &observations);
        // Fold the windows in one at a time, solving at arbitrary
        // points along the way; the final answer must equal the batch.
        let mut solver = ApRadSolver::new(aprad, world.locations.clone(), BTreeMap::new());
        for (k, obs) in observations.iter().enumerate() {
            solver.observe(obs);
            if k % 7 == 0 {
                let _ = solver.radii(); // interleaved solves must not perturb the result
            }
        }
        let live = solver.radii().clone();
        assert_eq!(live.len(), batch.len());
        for (mac, rb) in &batch {
            assert_eq!(
                rb.to_bits(),
                live[mac].to_bits(),
                "incremental radius diverged for {mac}"
            );
        }
        assert_eq!(solver.stats().windows(), observations.len());
    }

    #[test]
    fn clean_observes_skip_the_resolve() {
        let world = World::grid(3, 60.0, 80.0);
        let gamma = world.observe(Point::new(60.0, 60.0));
        assert!(gamma.len() >= 2);
        let aprad = ApRad {
            max_radius: 300.0,
            min_observations_for_negative: 3,
            ..ApRad::default()
        };
        let threshold = aprad.min_observations_for_negative;
        let mut solver = ApRadSolver::new(aprad, world.locations.clone(), BTreeMap::new());
        // First fold: new APs + new co-pairs → dirty.
        assert!(solver.observe(&gamma));
        let _ = solver.radii();
        assert!(!solver.is_dirty());
        // Second fold of the identical window only bumps seen-counts
        // (1 → 2, below the threshold of 3) → provably clean.
        assert!(!solver.observe(&gamma));
        assert!(!solver.is_dirty(), "clean observe must keep the cache");
        // Third fold crosses the negative-evidence threshold → dirty.
        assert!(solver.observe(&gamma));
        assert!(solver.is_dirty());
        // Fourth fold: counts 3 → 4 change nothing the LP can see.
        let _ = solver.radii();
        assert!(!solver.observe(&gamma));
        // And the cached result still matches a batch solve over the
        // same four windows exactly.
        let windows = vec![gamma.clone(); 4];
        let batch = ApRad {
            max_radius: 300.0,
            min_observations_for_negative: threshold,
            ..ApRad::default()
        }
        .estimate_radii(&world.locations, &windows);
        for (mac, rb) in &batch {
            assert_eq!(rb.to_bits(), solver.radii()[mac].to_bits());
        }
    }

    #[test]
    fn solver_restore_round_trips() {
        let world = World::grid(3, 60.0, 80.0);
        let g1 = world.observe(Point::new(30.0, 30.0));
        let g2 = world.observe(Point::new(90.0, 60.0));
        let aprad = ApRad {
            max_radius: 300.0,
            ..ApRad::default()
        };
        let mut solver = ApRadSolver::new(aprad.clone(), world.locations.clone(), BTreeMap::new());
        solver.observe(&g1);
        solver.observe(&g2);
        let radii = solver.radii().clone();
        // Tear the state apart through the accessors and rebuild — the
        // snapshot path — then continue with more windows on both.
        let stats = ObservationStats::from_parts(
            solver.stats().observed().clone(),
            solver.stats().co_pairs().clone(),
            solver.stats().seen_counts().clone(),
            solver.stats().windows(),
        );
        let mut restored = ApRadSolver::new(aprad, world.locations.clone(), BTreeMap::new());
        restored.restore(stats, Some(radii));
        assert!(!restored.is_dirty());
        let g3 = world.observe(Point::new(120.0, 120.0));
        solver.observe(&g3);
        restored.observe(&g3);
        for (mac, r) in solver.radii().clone() {
            assert_eq!(r.to_bits(), restored.radii()[&mac].to_bits());
        }
    }

    #[test]
    fn warm_live_radii_reach_the_cold_optimum() {
        // The warm path may stop at a different vertex of the optimal
        // face, but it must solve the *same* program: same objective
        // value (Σ r), same constraint satisfaction, and the canonical
        // `radii()` cache must stay bit-identical to a batch solve.
        let world = World::grid(4, 60.0, 80.0);
        let mut observations = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let p = Point::new(i as f64 * 22.0, j as f64 * 22.0);
                let obs = world.observe(p);
                if !obs.is_empty() {
                    observations.push(obs);
                }
            }
        }
        let aprad = ApRad {
            max_radius: 300.0,
            ..ApRad::default()
        };
        let batch = aprad.estimate_radii(&world.locations, &observations);
        let mut solver = ApRadSolver::new(aprad, world.locations.clone(), BTreeMap::new());
        solver.set_warm_start(true);
        for obs in &observations {
            solver.observe(obs);
            let _ = solver.live_radii(); // per-window live solve, warm after the first
        }
        let live = solver.live_radii().clone();
        assert_eq!(live.len(), batch.len());
        let live_sum: f64 = live.values().sum();
        let batch_sum: f64 = batch.values().sum();
        assert!(
            (live_sum - batch_sum).abs() < 1e-6 * (1.0 + batch_sum.abs()),
            "warm objective {live_sum} diverged from cold {batch_sum}"
        );
        // Warm result satisfies every co-observation constraint.
        for (a, b) in solver.stats().co_pairs() {
            let d = world.locations[a].distance(world.locations[b]);
            assert!(live[a] + live[b] >= d - 1e-6);
        }
        for r in live.values() {
            assert!(*r <= 300.0 + 1e-6 && *r >= -1e-9);
        }
        // The canonical cache is untouched by warm solves.
        for (mac, rb) in &batch {
            assert_eq!(rb.to_bits(), solver.radii()[mac].to_bits());
        }
    }

    #[test]
    fn far_apart_negative_pairs_do_not_bloat_the_lp() {
        // APs further apart than 2*max_radius yield no constraint; the
        // solver should happily give everyone the cap.
        let mut locations = BTreeMap::new();
        locations.insert(mac(1), Point::new(0.0, 0.0));
        locations.insert(mac(2), Point::new(1e6, 0.0));
        let observations = vec![set(&[1]), set(&[2])];
        let aprad = ApRad {
            max_radius: 100.0,
            ..ApRad::default()
        };
        let radii = aprad.estimate_radii(&locations, &observations);
        assert!((radii[&mac(1)] - 100.0).abs() < 1e-6);
        assert!((radii[&mac(2)] - 100.0).abs() < 1e-6);
    }
}
