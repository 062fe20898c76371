//! A small, dependency-free linear-programming solver.
//!
//! The paper's AP-Rad algorithm estimates every access point's maximum
//! transmission distance by solving a linear program: maximize `Σ rⱼ`
//! subject to `rᵢ + rⱼ ≥ dᵢⱼ` for co-observed AP pairs and
//! `rᵢ + rⱼ < dᵢⱼ` for pairs never observed together (Section III-C2).
//! No LP solver exists in the allowed dependency set, so this crate
//! implements two:
//!
//! * [`flow`] solves **pair programs** — every row has two variables
//!   with unit coefficients, AP-Rad's exact shape — as a min-cost flow
//!   on the doubled difference-constraint graph. It is the solver of
//!   every cold AP-Rad round.
//! * [`simplex`] is a general two-phase simplex with Bland's
//!   anti-cycling rule over a **sparse row representation**, with
//!   **warm starts** from a previous optimal basis. It serves the
//!   warm-started live path and is the flow solver's reference oracle.
//!   The original dense tableau, the simplex's own bit-exact reference,
//!   lives in the crate's test tree (`tests/dense`).
//!
//! The general model is: maximize (or minimize) `cᵀx` subject to
//! linear constraints `aᵀx {≤,≥,=} b` and `x ≥ 0`. Upper bounds are
//! expressed as ordinary `≤` constraints.
//!
//! # Example
//!
//! ```
//! use marauder_lp::{Problem, Relation};
//!
//! // maximize 3x + 2y  s.t.  x + y ≤ 4,  x ≤ 2,  x,y ≥ 0
//! let mut p = Problem::maximize(&[3.0, 2.0]);
//! p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
//! p.add_constraint(&[(0, 1.0)], Relation::Le, 2.0);
//! let sol = p.solve().into_optimal().expect("bounded and feasible");
//! assert!((sol.objective - 10.0).abs() < 1e-9); // x=2, y=2
//! ```

#![forbid(unsafe_code)]

pub mod flow;
pub mod problem;
pub mod simplex;

pub use flow::PairProgram;
pub use problem::{Constraint, Problem, Relation};
pub use simplex::{solve_with_basis, BasisHint, Outcome, Solution, SolveReport, WarmStart};

// The unit tests reach the test tree's dense reference under the name
// every other includer uses.
#[cfg(test)]
extern crate self as marauder_lp;
#[cfg(test)]
#[allow(dead_code)] // the unit tests call only `solve_counted`
#[path = "../tests/dense/mod.rs"]
mod dense;
