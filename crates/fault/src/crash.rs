//! Kill-at-every-boundary crash sweep.
//!
//! The durability subsystem's headline invariant (DESIGN.md
//! "Durability & crash recovery") is *crash equivalence*: killing
//! ingestion at **any** frame boundary, recovering from the
//! write-ahead journal, and resuming must produce fix output
//! byte-identical to the uninterrupted run. This module proves it by
//! brute force: [`crash_sweep`] simulates the kill at every boundary
//! of a [`ChaosScenario`] capture (optionally every `stride`-th), runs
//! crash → [`FrameJournal::recover`] → resume for each, and compares
//! the final fixes against the clean run byte for byte.
//!
//! Two deterministic fault classes drive the sweep:
//!
//! * `crash:N` — the process dies after exactly `N` frames. Simulated
//!   by journaling and ingesting exactly `N` frames, then dropping
//!   everything that was not on disk.
//! * `tornwrite:K` — the process dies *mid-append*, leaving `K` bytes
//!   of the final record on disk. Simulated by physically truncating
//!   the last journal segment `K` bytes into its final record, after
//!   deleting any checkpoint that covers that record: a checkpoint
//!   syncs the segment first, so no kill tears a covered record.
//!
//! A third companion run tears the *segment header* instead: the kill
//! lands inside `rotate()`, after the new segment file is created but
//! before its 16-byte header is durable. Recovery must discard the
//! headerless file, and a second recovery after the resumed run must
//! still see every acknowledged append.
//!
//! A fourth companion loses a *checkpoint*: the kill lands after a
//! checkpoint synced the closed-window log but before it renamed its
//! document into place. It deletes the newest checkpoint and tears the
//! log's final record, so recovery must fall back to an older
//! checkpoint and cut the log back to it; the resumed run checkpoints
//! over the cut log, and a second recovery must match too.
//!
//! Every run goes through [`JournaledEngine`], the write-ahead loop
//! `marauder replay --journal` runs: the pre-crash run is fed the first
//! `N` frames and dropped, and every resumed run takes the whole
//! capture, so every cell also exercises the resume check over the
//! journaled prefix. Resumed runs checkpoint on the same cadence as the
//! pre-crash run and seal the journal, so every cell also tests
//! checkpoints written after a recovery. The torn-header companion is
//! the exception: its resumed run neither checkpoints nor seals, so its
//! second recovery must read the resumed appends from the segments
//! rather than skip them under a newer checkpoint.
//!
//! Everything is a pure function of `(scenario seed, sweep config)`:
//! no RNG, no clocks, and the per-boundary cells are
//! order-independent, so reports are bit-identical at any thread
//! count.

use crate::harness::ChaosScenario;
use marauder_obs::json::{Json, Layout};
use marauder_stream::persist::DocKind;
use marauder_stream::{
    list_checkpoints, list_numbered, replay_frames, FlushPolicy, FrameJournal, JournalConfig,
    JournalError, JournaledEngine, RecoveryReport, StreamConfig, TrackFix, CLOSED_LOG,
    CLOSED_LOG_MAGIC,
};
use marauder_wifi::sniffer::CapturedFrame;
use std::fmt::Write as _;
use std::path::Path;

/// Sweep knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSweepConfig {
    /// Test every `stride`-th frame boundary (1 = all of them; the
    /// final boundary is always included).
    pub stride: usize,
    /// Write a journal checkpoint every this many frames (0 = journal
    /// only, every recovery replays from scratch).
    pub checkpoint_every: usize,
    /// Additionally tear the final record at each crash point
    /// (`tornwrite` at this many bytes into the record; 0 = off) and
    /// require clean torn-tail recovery plus equivalence. The
    /// lost-checkpoint companion tears the closed-window log's final
    /// record by the same amount.
    pub torn_write_bytes: usize,
    /// Additionally simulate a kill *inside segment rotation* at each
    /// crash point: a `segment-<n>.wal` file exists holding only this
    /// many bytes of its 16-byte header (0 = off; clamped to 15).
    /// Recovery must discard the headerless file, and — crucially — a
    /// SECOND recovery after the resumed run must still see every
    /// acknowledged append (this is where reopening a headerless
    /// segment for append silently loses fsync'd records).
    pub torn_header_bytes: usize,
}

impl Default for CrashSweepConfig {
    fn default() -> Self {
        CrashSweepConfig {
            stride: 1,
            checkpoint_every: 64,
            torn_write_bytes: 3,
            torn_header_bytes: 5,
        }
    }
}

/// One crash boundary's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashCell {
    /// Frames ingested before the kill.
    pub crash_after: usize,
    /// Whether crash → recover → resume matched the clean run byte
    /// for byte.
    pub matched: bool,
    /// Sequence the recovery's checkpoint covered (`None`: replayed
    /// from scratch).
    pub checkpoint_seq: Option<u64>,
    /// Journal records the recovery replayed.
    pub records_replayed: u64,
    /// The torn-write companion run, when enabled.
    pub torn: Option<TornOutcome>,
    /// The torn-header (kill-inside-rotation) companion run, when
    /// enabled.
    pub torn_header: Option<TornOutcome>,
    /// The lost-checkpoint companion run, when checkpoints are on.
    pub lost_checkpoint: Option<LostCheckpointOutcome>,
}

/// Outcome of the torn-write companion run at one boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornOutcome {
    /// Bytes of the final record left on disk.
    pub bytes: usize,
    /// Bytes of torn tail the recovery truncated (0 when the tear
    /// landed on a record boundary).
    pub torn_tail_bytes: u64,
    /// Whether tear → recover → resume matched the clean run.
    pub matched: bool,
}

/// Outcome of the lost-checkpoint companion run at one boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LostCheckpointOutcome {
    /// Whether the closed-window log had a final record to tear.
    pub log_torn: bool,
    /// Sequence the first recovery's checkpoint covered (`None`:
    /// replayed from scratch).
    pub checkpoint_seq: Option<u64>,
    /// Whether recover → resume and a second recovery after it both
    /// matched the clean run.
    pub matched: bool,
}

/// The sweep report: one [`CrashCell`] per tested boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashReport {
    /// Scenario name.
    pub scenario: String,
    /// Seed of the simulated campus.
    pub sim_seed: u64,
    /// Frames in the clean capture (= the number of boundaries + 1).
    pub frames: usize,
    /// The sweep configuration used.
    pub stride: usize,
    /// Checkpoint cadence in frames (0 = none).
    pub checkpoint_every: usize,
    /// Torn-write tear size in bytes (0 = off).
    pub torn_write_bytes: usize,
    /// Torn-header size in bytes (0 = off).
    pub torn_header_bytes: usize,
    /// Per-boundary outcomes, ascending by `crash_after`.
    pub cells: Vec<CrashCell>,
}

impl CrashReport {
    /// Whether every cell (and every companion) matched.
    pub fn all_matched(&self) -> bool {
        self.mismatches().is_empty()
    }

    /// Boundaries that failed equivalence.
    pub fn mismatches(&self) -> Vec<usize> {
        self.cells
            .iter()
            .filter(|c| {
                !c.matched
                    || c.torn.as_ref().map(|t| !t.matched).unwrap_or(false)
                    || c.torn_header.as_ref().map(|t| !t.matched).unwrap_or(false)
                    || c.lost_checkpoint
                        .as_ref()
                        .map(|t| !t.matched)
                        .unwrap_or(false)
            })
            .map(|c| c.crash_after)
            .collect()
    }

    /// Renders the report as JSON.
    pub fn to_json(&self) -> String {
        let torn_json = |t: &TornOutcome| {
            let members = [
                ("bytes", t.bytes.into()),
                ("torn_tail_bytes", t.torn_tail_bytes.into()),
                ("matched", t.matched.into()),
            ];
            Json::obj(Layout::Inline, members)
        };
        let cells = self.cells.iter().map(|c| {
            let lost = c.lost_checkpoint.as_ref().map(|l| {
                let members = [
                    ("log_torn", l.log_torn.into()),
                    ("checkpoint_seq", l.checkpoint_seq.into()),
                    ("matched", l.matched.into()),
                ];
                Json::obj(Layout::Inline, members)
            });
            let members = [
                ("crash_after", c.crash_after.into()),
                ("matched", c.matched.into()),
                ("checkpoint_seq", c.checkpoint_seq.into()),
                ("records_replayed", c.records_replayed.into()),
                ("torn", c.torn.as_ref().map(torn_json).into()),
                ("torn_header", c.torn_header.as_ref().map(torn_json).into()),
                ("lost_checkpoint", lost.into()),
            ];
            Json::obj(Layout::Inline, members)
        });
        let doc = Json::obj(
            Layout::Block,
            [
                ("scenario", self.scenario.as_str().into()),
                ("sim_seed", self.sim_seed.into()),
                ("frames", self.frames.into()),
                ("stride", self.stride.into()),
                ("checkpoint_every", self.checkpoint_every.into()),
                ("torn_write_bytes", self.torn_write_bytes.into()),
                ("torn_header_bytes", self.torn_header_bytes.into()),
                ("all_matched", self.all_matched().into()),
                ("cells", Json::arr(Layout::Block, cells)),
            ],
        );
        doc.render()
    }
}

/// Canonical byte rendering of a fix list — the one fix identity every
/// equivalence check compares: time, mobile, position, area, `k`,
/// provenance and Γ, every float as its IEEE-754 bits, so
/// "byte-identical" means exactly that.
pub fn render_fixes(fixes: &[TrackFix]) -> String {
    let mut out = String::new();
    for f in fixes {
        let gamma: Vec<String> = f.gamma.iter().map(|m| m.to_string()).collect();
        let _ = writeln!(
            out,
            "{:016x} {} {:016x} {:016x} {:016x} {} {} {}",
            f.time_s.to_bits(),
            f.mobile,
            f.estimate.position.x.to_bits(),
            f.estimate.position.y.to_bits(),
            f.estimate.area().to_bits(),
            f.estimate.k,
            f.provenance.as_str(),
            gamma.join(",")
        );
    }
    out
}

/// The engine configuration every sweep run uses: batch-equivalent
/// output only, so live localization stays off.
fn sweep_config() -> StreamConfig {
    StreamConfig {
        live_localization: false,
        warm_start: false,
        ..StreamConfig::default()
    }
}

/// The journal configuration for sweep cells. Rotation is kept small
/// so multi-segment recovery is exercised constantly; syncing is left
/// to rotation because the sweep kills by *dropping state*, not by
/// killing a process — everything written is on disk either way.
fn sweep_journal_config() -> JournalConfig {
    JournalConfig {
        segment_frames: 256,
        flush: FlushPolicy::OnRotate,
    }
}

/// Opens `dir` as a sweep run's journaled engine and feeds it
/// `frames`. Dropping what it returns is the kill: recovery may only
/// use the directory.
fn feed(
    scenario: &ChaosScenario,
    frames: &[CapturedFrame],
    dir: &Path,
    checkpoint_every: usize,
) -> Result<JournaledEngine, JournalError> {
    let mut journaled = JournaledEngine::open(
        dir,
        scenario.name(),
        scenario.fresh_map(),
        sweep_config(),
        sweep_journal_config(),
        checkpoint_every,
    )?;
    for f in frames {
        journaled.push(f)?;
    }
    Ok(journaled)
}

/// Recovers `dir` and resumes with the whole capture — its journaled
/// prefix checked and skipped, the rest checkpointed every
/// `checkpoint_every` resumed frames, as the pre-crash run did — then
/// renders the final fixes. Returns the rendering plus the recovery
/// accounting (empty when `dir` held nothing to recover).
fn recover_and_resume(
    scenario: &ChaosScenario,
    frames: &[CapturedFrame],
    dir: &Path,
    checkpoint_every: usize,
) -> Result<(String, RecoveryReport), JournalError> {
    let journaled = feed(scenario, frames, dir, checkpoint_every)?;
    let report = journaled.recovery().cloned().unwrap_or_default();
    let (mut engine, mut closed) = journaled.finish()?;
    closed.extend(engine.finish());
    Ok((render_fixes(&engine.batch_fixes(closed)), report))
}

/// Truncates the final journal segment in `dir` to `bytes` bytes into
/// its last record — the on-disk signature of dying mid-append.
/// Returns `false` when there is nothing to tear (no segments, no
/// records, or the record is shorter than `bytes`).
pub fn tear_last_record(dir: &Path, bytes: usize) -> Result<bool, JournalError> {
    match list_numbered(dir, "segment-", ".wal")
        .map_err(JournalError::io(format!("scan {}", dir.display())))?
        .last()
    {
        // 16-byte segment header, then length-prefixed records.
        Some((_, name)) => tear_final_record(&dir.join(name), 16, bytes),
        None => Ok(false),
    }
}

/// Simulates a kill after a checkpoint synced the closed-window log but
/// before its document was renamed into place: deletes the newest
/// `kind` checkpoint in `dir`, then tears the log's final record
/// `bytes` bytes in (0 = no tear). Returns whether a log record was
/// torn.
///
/// # Errors
///
/// [`JournalError::Io`] when the directory cannot be read or changed.
pub fn lose_newest_checkpoint(
    dir: &Path,
    kind: DocKind,
    bytes: usize,
) -> Result<bool, JournalError> {
    let checkpoints =
        list_checkpoints(dir, kind).map_err(JournalError::io(format!("scan {}", dir.display())))?;
    if let Some((_, name)) = checkpoints.last() {
        let newest = dir.join(name);
        std::fs::remove_file(&newest)
            .map_err(JournalError::io(format!("remove {}", newest.display())))?;
    }
    let log = dir.join(CLOSED_LOG);
    if bytes == 0 || !log.exists() {
        return Ok(false);
    }
    tear_final_record(&log, CLOSED_LOG_MAGIC.len(), bytes)
}

/// Truncates the file at `path` — a `header_len`-byte header, then
/// length-prefixed records — to `bytes` bytes into its last record.
/// Returns `false` when there is nothing to tear.
fn tear_final_record(path: &Path, header_len: usize, bytes: usize) -> Result<bool, JournalError> {
    let io = |op: &str| JournalError::io(format!("{op} {}", path.display()));
    let data = std::fs::read(path).map_err(io("read"))?;
    // Walk the records to find where the last one starts.
    let mut pos = header_len;
    let mut last_start = None;
    while pos + 8 <= data.len() {
        let len = u32::from_be_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
        let next = pos + 8 + len as usize;
        if next > data.len() {
            break;
        }
        last_start = Some(pos);
        pos = next;
    }
    let Some(start) = last_start else {
        return Ok(false);
    };
    let keep = start + bytes;
    if keep >= data.len() {
        return Ok(false); // the tear would not actually shorten it
    }
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(io("reopen"))?;
    file.set_len(keep as u64).map_err(io("tear"))?;
    Ok(true)
}

/// Simulates a kill *between segment-file creation and its header
/// write* (inside `rotate()`): creates `segment-<first_seq>.wal`
/// holding only the first `bytes` bytes of the 16-byte header (0 = an
/// empty file; clamped to 15 so the result is never a valid header).
/// `first_seq` must be the number of frames journaled so far — the
/// sequence the torn rotation would have been named after.
pub fn tear_segment_header(dir: &Path, first_seq: u64, bytes: usize) -> Result<(), JournalError> {
    let mut header = Vec::with_capacity(16);
    header.extend_from_slice(&marauder_stream::SEGMENT_MAGIC);
    header.extend_from_slice(&first_seq.to_be_bytes());
    header.truncate(bytes.min(15));
    let path = dir.join(format!("segment-{first_seq:020}.wal"));
    std::fs::write(&path, &header).map_err(JournalError::io(format!(
        "tear segment header {}",
        path.display()
    )))
}

/// Runs the crash-equivalence sweep for `scenario` under `dir` (one
/// scratch subdirectory per boundary, removed as each cell finishes).
///
/// # Errors
///
/// [`JournalError`] if a journal write, recovery or resume check
/// fails outright — equivalence *misses* are not errors; they land in
/// the report's `matched` flags.
pub fn crash_sweep(
    scenario: &ChaosScenario,
    dir: &Path,
    config: &CrashSweepConfig,
) -> Result<CrashReport, JournalError> {
    let frames: Vec<CapturedFrame> = scenario.captures().iter().cloned().collect();
    let reference = render_fixes(&replay_frames(scenario.fresh_map(), sweep_config(), &frames).0);
    let stride = config.stride.max(1);
    let mut boundaries: Vec<usize> = (0..=frames.len()).step_by(stride).collect();
    if boundaries.last() != Some(&frames.len()) {
        boundaries.push(frames.len());
    }

    let cells: Vec<Result<CrashCell, JournalError>> =
        marauder_par::par_map_range(boundaries.len(), |i| {
            let n = boundaries[i];
            let cell_dir = dir.join(format!("crash-{n:08}"));
            // Fresh pre-crash state: `n` frames journaled, then the kill.
            let crash = || {
                let _ = std::fs::remove_dir_all(&cell_dir);
                feed(scenario, &frames[..n], &cell_dir, config.checkpoint_every).map(drop)
            };
            let resume = |every| recover_and_resume(scenario, &frames, &cell_dir, every);
            crash()?;
            let (rendered, report) = resume(config.checkpoint_every)?;
            let matched = rendered == reference;

            let torn = if config.torn_write_bytes > 0 {
                // Tear the final record, after deleting the checkpoints
                // that cover it.
                crash()?;
                let checkpoints = list_checkpoints(&cell_dir, DocKind::JournalCheckpoint)
                    .map_err(JournalError::io(format!("scan {}", cell_dir.display())))?;
                for (_, name) in checkpoints.iter().filter(|(key, _)| *key >= n as u64) {
                    let path = cell_dir.join(name);
                    std::fs::remove_file(&path)
                        .map_err(JournalError::io(format!("remove {}", path.display())))?;
                }
                if tear_last_record(&cell_dir, config.torn_write_bytes)? {
                    let (rendered, report) = resume(config.checkpoint_every)?;
                    Some(TornOutcome {
                        bytes: config.torn_write_bytes,
                        torn_tail_bytes: report.torn_tail_bytes,
                        matched: rendered == reference,
                    })
                } else {
                    None
                }
            } else {
                None
            };

            let torn_header = if config.torn_header_bytes > 0 {
                // Die mid-rotation: the next segment file exists,
                // headerless.
                crash()?;
                tear_segment_header(&cell_dir, n as u64, config.torn_header_bytes)?;
                // The resumed run neither checkpoints nor seals: a
                // resumed checkpoint past the headerless segment would
                // let the second recovery skip that segment as covered,
                // hiding the appends this companion exists to find.
                let (rendered, report) = resume(0)?;
                // The resumed run journaled the remaining frames; a
                // second recovery must see every one of them. This is
                // the check that catches resumed appends landing in a
                // reopened headerless segment and being discarded as
                // a torn tail on the next recovery.
                let rec2 = FrameJournal::recover(&cell_dir, scenario.fresh_map(), sweep_config())?;
                Some(TornOutcome {
                    bytes: config.torn_header_bytes,
                    torn_tail_bytes: report.torn_tail_bytes,
                    matched: rendered == reference && rec2.next_seq as usize == frames.len(),
                })
            } else {
                None
            };

            let lost_checkpoint = if config.checkpoint_every > 0 {
                // Die between the log sync and the rename of the newest
                // checkpoint.
                crash()?;
                let log_torn = lose_newest_checkpoint(
                    &cell_dir,
                    DocKind::JournalCheckpoint,
                    config.torn_write_bytes,
                )?;
                let (rendered, report) = resume(config.checkpoint_every)?;
                // The resumed run journaled the remaining frames and
                // checkpointed over the cut log; a second recovery must
                // read it all back.
                let (again, _) = resume(config.checkpoint_every)?;
                Some(LostCheckpointOutcome {
                    log_torn,
                    checkpoint_seq: report.checkpoint_seq,
                    matched: rendered == reference && again == reference,
                })
            } else {
                None
            };

            let _ = std::fs::remove_dir_all(&cell_dir);
            marauder_obs::global().counter_add("crash_sweep.cells", 1);
            Ok(CrashCell {
                crash_after: n,
                matched,
                checkpoint_seq: report.checkpoint_seq,
                records_replayed: report.records_replayed,
                torn,
                torn_header,
                lost_checkpoint,
            })
        });

    let mut out = Vec::with_capacity(cells.len());
    for cell in cells {
        out.push(cell?);
    }
    Ok(CrashReport {
        scenario: scenario.name().to_string(),
        sim_seed: scenario.sim_seed(),
        frames: frames.len(),
        stride,
        checkpoint_every: config.checkpoint_every,
        torn_write_bytes: config.torn_write_bytes,
        torn_header_bytes: config.torn_header_bytes,
        cells: out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "marauder-crash-sweep-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fixes_differing_only_in_area_or_provenance_render_differently() {
        use marauder_core::pipeline::FixProvenance;
        let scenario = ChaosScenario::quick(7);
        let fixes = scenario.fresh_map().track_all(scenario.captures());
        let fix = &fixes[0];
        let wider = fixes
            .iter()
            .find(|f| f.estimate.area().to_bits() != fix.estimate.area().to_bits())
            .expect("the campus yields fixes of two areas");
        let mut area = fix.clone();
        area.estimate.region = wider.estimate.region.clone();
        let mut provenance = fix.clone();
        provenance.provenance = match fix.provenance {
            FixProvenance::MLoc => FixProvenance::Inflated,
            _ => FixProvenance::MLoc,
        };
        let rendered = render_fixes(std::slice::from_ref(fix));
        assert_ne!(render_fixes(&[area]), rendered, "area must count");
        assert_ne!(
            render_fixes(&[provenance]),
            rendered,
            "provenance must count"
        );
    }

    #[test]
    fn coarse_sweep_is_crash_equivalent() {
        let scenario = ChaosScenario::quick(7);
        let frames = scenario.captures().len();
        assert!(frames > 0);
        let dir = scratch("coarse");
        let config = CrashSweepConfig {
            stride: (frames / 7).max(1),
            checkpoint_every: 50,
            torn_write_bytes: 3,
            torn_header_bytes: 5,
        };
        let report = crash_sweep(&scenario, &dir, &config).unwrap();
        assert!(
            report.all_matched(),
            "mismatched boundaries: {:?}",
            report.mismatches()
        );
        assert_eq!(report.cells.first().map(|c| c.crash_after), Some(0));
        assert_eq!(report.cells.last().map(|c| c.crash_after), Some(frames));
        // Some mid-sweep cells must have restored a checkpoint and
        // some must have torn-tail outcomes, or the sweep is not
        // exercising what it claims to.
        assert!(report.cells.iter().any(|c| c.checkpoint_seq.is_some()));
        // Every cell ran the torn-header companion and the headerless
        // segment was detected as a (partial-header-sized) torn tail.
        assert!(report.cells.iter().all(|c| c
            .torn_header
            .as_ref()
            .map(|t| t.matched)
            .unwrap_or(false)));
        assert!(report.cells.iter().any(|c| c
            .torn_header
            .as_ref()
            .map(|t| t.torn_tail_bytes == 5)
            == Some(true)));
        assert!(report.cells.iter().any(|c| c
            .torn
            .as_ref()
            .map(|t| t.torn_tail_bytes > 0)
            .unwrap_or(false)));
        // Every cell lost its newest checkpoint and still matched; some
        // had a log record to tear, and some had to fall back to an
        // older checkpoint rather than replay from scratch.
        let lost: Vec<&LostCheckpointOutcome> = report
            .cells
            .iter()
            .map(|c| c.lost_checkpoint.as_ref().expect("checkpoints are on"))
            .collect();
        assert!(lost.iter().all(|l| l.matched));
        assert!(lost.iter().any(|l| l.log_torn));
        assert!(lost.iter().any(|l| l.checkpoint_seq.is_some()));
        let json = report.to_json();
        assert!(json.contains("\"all_matched\": true"), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_report_is_thread_invariant() {
        let scenario = ChaosScenario::quick(3);
        let frames = scenario.captures().len();
        let config = CrashSweepConfig {
            stride: (frames / 3).max(1),
            checkpoint_every: 64,
            torn_write_bytes: 2,
            torn_header_bytes: 3,
        };
        let dir1 = scratch("threads-1");
        marauder_par::set_threads(1);
        let a = crash_sweep(&scenario, &dir1, &config).unwrap();
        let dir7 = scratch("threads-7");
        marauder_par::set_threads(7);
        let b = crash_sweep(&scenario, &dir7, &config).unwrap();
        marauder_par::set_threads(0);
        assert_eq!(a, b, "sweep must be thread-count-invariant");
        assert_eq!(a.to_json(), b.to_json());
        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir7);
    }

    #[test]
    fn crash_report_renders_its_golden_text() {
        let torn = |bytes: usize, matched: bool| TornOutcome {
            bytes,
            torn_tail_bytes: bytes as u64 / 2,
            matched,
        };
        let report = CrashReport {
            scenario: "quick".into(),
            sim_seed: 7,
            frames: 900,
            stride: 300,
            checkpoint_every: 64,
            torn_write_bytes: 3,
            torn_header_bytes: 5,
            cells: vec![
                CrashCell {
                    crash_after: 0,
                    matched: true,
                    checkpoint_seq: None,
                    records_replayed: 0,
                    torn: None,
                    torn_header: None,
                    lost_checkpoint: None,
                },
                CrashCell {
                    crash_after: 300,
                    matched: true,
                    checkpoint_seq: Some(256),
                    records_replayed: 44,
                    torn: Some(torn(3, true)),
                    torn_header: Some(torn(5, false)),
                    lost_checkpoint: Some(LostCheckpointOutcome {
                        log_torn: true,
                        checkpoint_seq: Some(192),
                        matched: true,
                    }),
                },
                CrashCell {
                    crash_after: 600,
                    matched: false,
                    checkpoint_seq: Some(576),
                    records_replayed: 24,
                    torn: Some(torn(3, true)),
                    torn_header: None,
                    lost_checkpoint: Some(LostCheckpointOutcome {
                        log_torn: false,
                        checkpoint_seq: None,
                        matched: false,
                    }),
                },
            ],
        };
        assert_eq!(
            report.to_json(),
            include_str!("../../obs/tests/golden/crash.json")
        );
    }
}
