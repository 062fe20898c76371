//! Live tracking engine: streaming frame ingestion with incremental
//! map updates and batch-equivalent output.
//!
//! The paper presents the Marauder's Map as a *live* system — the
//! sniffer watches probe traffic continuously and the map tracks any
//! mobile it saw — but the batch pipeline in `marauder-core` needs the
//! whole capture database up front. This crate closes that gap: a
//! [`StreamEngine`] consumes [`CapturedFrame`]s one at a time (from a
//! capture-log replay or straight out of the simulation engine),
//! assembles per-mobile observation windows in bounded memory, and
//! emits a [`ClosedWindow`] event the moment each window can no longer
//! grow.
//!
//! # Architecture
//!
//! ```text
//! frames ──▶ window table ──▶ close rule ──▶ ApRadSolver ──▶ locate ──▶ events
//!            (w, mobile)      watermark        (scoped          │
//!             → Γ set          − lag          re-solve)     MaraudersMap
//! ```
//!
//! * **Windowing** shares [`marauder_wifi::sniffer::window_index`]
//!   with the batch path — the half-open `[k·w, (k+1)·w)` convention
//!   is pinned in one place.
//! * **Closing** is watermark-driven: window `k` closes once the
//!   largest timestamp seen passes `(k+1)·w + allowed_lag_s`. The lag
//!   absorbs the bounded timestamp inversions real capture rigs (and
//!   the simulator) produce; frames arriving for already-closed
//!   windows are counted as late and dropped.
//! * **Knowledge updates** are incremental: each closed window's Γ set
//!   folds into an [`ApRadSolver`](marauder_core::ApRadSolver), which
//!   re-solves the AP-Rad linear program only when the fold actually
//!   changed the constraint set (new AP, new co-observation pair, or a
//!   negative-evidence threshold crossing) — not on every window.
//! * **Bounded memory**: at most `max_open_windows` distinct window
//!   indices stay open; beyond that the oldest are force-closed
//!   (eviction), preserving the no-reopen invariant.
//!
//! # Batch equivalence
//!
//! Replaying a capture through [`replay_database`] yields fixes
//! **byte-identical** to [`MaraudersMap::track_all`] over the same
//! database (given a lag large enough that nothing is dropped). The
//! argument: window grouping is the same pure function on both paths;
//! the AP-Rad program reads the window history only through
//! order-independent statistics, so the final radii match the batch
//! solve bit for bit; and the final localization funnels through the
//! same `MaraudersMap::localize_windows` on both sides.
//!
//! Engine state can be snapshotted mid-stream ([`StreamEngine::snapshot`]),
//! carried across a process restart, restored
//! ([`StreamEngine::restore`]) and resumed — with output identical to
//! the uninterrupted run. Every persisted state is one CRC-sealed
//! binary document ([`persist`]).
//!
//! # Durability
//!
//! Snapshots are cooperative — someone has to ask for one. The
//! [`FrameJournal`] makes ingestion durable against *kills*: every
//! frame is appended to a checksummed write-ahead log before it is
//! pushed, so [`FrameJournal::recover`] can rebuild the engine (newest
//! checkpoint + journal-tail replay, torn tails truncated) with state
//! byte-identical to the uninterrupted run. Its closed-window log and
//! checkpoints are a [`DurableDir`], which the fleet aggregator's
//! checkpoints share. [`JournaledEngine`] is the one write-ahead loop
//! over a journal and an engine: it resumes a killed run, refusing a
//! capture that differs from the frames the journal holds. See
//! DESIGN.md "Durability & crash recovery".

#![forbid(unsafe_code)]

mod durable;
mod engine;
mod journal;
pub mod persist;
mod publish;
mod replay;
mod snapshot;

pub use durable::{
    list_checkpoints, list_numbered, DurableDir, Restored, Written, CLOSED_LOG, CLOSED_LOG_MAGIC,
    MAX_RECORD_LEN, RETAINED_CHECKPOINTS,
};
pub use engine::{ClosedWindow, StreamConfig, StreamEngine, StreamStats};
pub use journal::{
    record_crc, FlushPolicy, FrameJournal, JournalConfig, JournalError, JournaledEngine, Recovery,
    RecoveryReport, SEGMENT_MAGIC,
};
pub use persist::PersistError;
pub use publish::SnapshotSink;
pub use replay::{
    pacing_gap, replay_database, replay_frames, replay_log, ErrorBudget, Pacer, PollBackoff,
    MAX_PACING_GAP_S,
};

// Re-exported for downstream convenience (CLI, benches).
pub use marauder_core::pipeline::{MaraudersMap, TrackFix};
pub use marauder_wifi::sniffer::CapturedFrame;
