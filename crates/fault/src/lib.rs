//! Deterministic fault injection and the graceful-degradation harness.
//!
//! A real Marauder's Map rig lives in a hostile world: sniffer cards
//! drop frames in bursts, cheap clocks skew and jitter, RF corruption
//! flips MAC bits, APs reboot mid-capture, and logs get truncated when
//! a disk fills. The paper evaluates the attack on clean captures; this
//! crate measures how it *fails* — and how far the degradation ladder
//! in `marauder-core` bends before it breaks.
//!
//! Three pieces:
//!
//! * [`plan`] — a composable, parseable fault plan
//!   (`"drop:0.2,reorder:5"`) covering twelve fault classes,
//! * [`inject`] — [`FaultInjector`], a pure function of
//!   `(seed, plan, frames)`: identical inputs yield byte-identical
//!   corrupted streams on any machine at any thread count,
//! * [`harness`] — [`ChaosScenario`] runs the full attack pipeline
//!   over a fault matrix and emits a [`DegradationReport`] accounting
//!   for 100% of windows and devices (fixed + degraded + lost = total),
//!   with typed loss reasons and per-rung fix provenance.
//!
//! The chaos invariants (`tests/chaos.rs`): no panic anywhere in the
//! matrix; bit-identical reports for identical seeds at any thread
//! count; and losses only ever for the one unrecoverable reason
//! (no observed AP known to the attacker).
//!
//! A fourth piece, [`crash`], attacks durability instead of the
//! radio path: [`crash_sweep`] kills ingestion at every frame
//! boundary (`crash:N`), tears final journal records mid-append
//! (`tornwrite:K`), and requires recovery + resume to reproduce the
//! clean run's fixes byte for byte.

#![forbid(unsafe_code)]

pub mod client;
pub mod crash;
pub mod harness;
pub mod inject;
pub mod plan;

pub use client::{client_schedule, ClientFaultKind, ClientSchedule, Expectation, BASE_REQUEST};
pub use crash::{
    crash_sweep, lose_newest_checkpoint, render_fixes, tear_last_record, tear_segment_header,
    CrashCell, CrashReport, CrashSweepConfig, LostCheckpointOutcome, TornOutcome,
};
pub use harness::{
    default_matrix, reason_key, CellOutcome, ChaosScenario, DegradationReport, ERROR_THRESHOLDS_M,
};
pub use inject::{CorruptedStream, FaultCounts, FaultInjector};
pub use plan::{Fault, FaultPlan, PlanParseError};
