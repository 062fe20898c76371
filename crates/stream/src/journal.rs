//! Write-ahead frame journal: crash-safe durability for the stream
//! engine.
//!
//! A long surveillance campaign must survive the sniffer process
//! dying. The journal makes ingestion durable with the classic WAL
//! discipline: every frame is appended to an on-disk log *before* it
//! is pushed into the [`StreamEngine`], so after a kill the engine can
//! be rebuilt exactly — restore the newest checkpoint, then replay the
//! journal tail.
//!
//! A journal directory is a [`DurableDir`] — the closed-window log and
//! `checkpoint-<seq>.ckpt` documents keyed by the frames they cover,
//! with the engine as their state — plus the frame segments,
//! `segment-<first_seq>.wal`, rotated every
//! [`JournalConfig::segment_frames`] records:
//!
//! ```text
//! segment := "MRDRWAL\x01" first_seq:u64be record*
//! record  := len:u32be crc:u32be payload[len]      (CRC-32 of payload)
//! payload := seq:u64be time_bits:u64be card:u32be frame-bytes
//! ```
//!
//! `time_bits` is the frame timestamp's IEEE-754 bits, so replay is
//! bit-exact. The segments are the source of truth and are never
//! pruned, so a checkpoint that does not restore only costs replay
//! time.
//!
//! **Torn tails are not errors.** A crash mid-append leaves a partial
//! final record; recovery detects it (short header, short payload, or
//! CRC mismatch in the *final* segment), truncates the file back to
//! the last intact record, and resumes from there. The frame inside
//! the torn record was never acknowledged as ingested, so the producer
//! re-feeds it and the resumed run stays byte-identical to an
//! uninterrupted one. The same damage in a *non-final* segment cannot
//! be a crash artifact and is reported as [`JournalError::Corrupt`].
//!
//! The invariant pinned by `crates/fault`'s kill-at-every-boundary
//! sweep: for any crash point, crash → recover → resume produces fixes
//! byte-identical to the clean run.

use crate::durable::{list_numbered, push_record, sync_dir, DurableDir, Records};
use crate::engine::{ClosedWindow, StreamConfig, StreamEngine};
use crate::persist::{crc32, DocKind};
use marauder_core::pipeline::MaraudersMap;
use marauder_wifi::frame::Frame;
use marauder_wifi::sniffer::CapturedFrame;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file; the trailing byte is the
/// binary format version.
pub const SEGMENT_MAGIC: [u8; 8] = *b"MRDRWAL\x01";

/// Bytes of segment header preceding the first record.
const SEGMENT_HEADER_LEN: u64 = 16;

/// Fixed payload bytes before the encoded frame (seq + time + card).
const PAYLOAD_PREFIX_LEN: usize = 20;

/// When appended records are pushed to the OS.
///
/// Durability is what the crash-equivalence invariant rides on. Under
/// [`EveryRecord`](FlushPolicy::EveryRecord) an acknowledged append has
/// been written and synced, so it survives a process kill and a power
/// loss. Under [`OnRotate`](FlushPolicy::OnRotate) an acknowledged
/// append has been written but not synced: it survives a process kill,
/// and only a power loss can take back the records appended since the
/// last rotation or checkpoint, which recovery then reports as a
/// (clean) torn tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Sync after every record (default; required for exact crash
    /// equivalence at arbitrary power-loss points).
    EveryRecord,
    /// Sync only when a segment rotates (and on checkpoint).
    OnRotate,
}

/// Journal behaviour knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalConfig {
    /// Records per segment before rotating to a fresh file.
    pub segment_frames: usize,
    /// When appended records become durable.
    pub flush: FlushPolicy,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            segment_frames: 4096,
            flush: FlushPolicy::EveryRecord,
        }
    }
}

/// The durable layer's one error: writing, recovering or resuming a
/// journal, and writing or restoring fleet checkpoints, which share
/// its [`DurableDir`].
#[derive(Debug)]
pub enum JournalError {
    /// An I/O failure, with the operation that failed.
    Io {
        /// What the journal was doing.
        op: String,
        /// The underlying failure.
        source: std::io::Error,
    },
    /// [`FrameJournal::create`] or [`DurableDir::create`] found durable
    /// state already in the directory: it must be restored, never
    /// blindly overwritten.
    NotEmpty {
        /// The offending directory.
        dir: PathBuf,
    },
    /// A checkpoint was handed fewer closed windows than the
    /// closed-window log already holds: the caller lost windows that
    /// were already durable.
    ClosedWindowsLost {
        /// Windows already durable in the closed-window log.
        persisted: usize,
        /// Windows the caller handed in.
        given: usize,
    },
    /// A segment holds a damaged or missing record where no crash can
    /// leave one. A torn tail can only live at the physical end of the
    /// log, so this is real corruption, not a crash artifact.
    Corrupt {
        /// The offending segment file name.
        segment: String,
        /// Byte offset of the first bad record.
        offset: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// A fleet checkpoint directory holds checkpoint files and none of
    /// them restores. Starting fresh there would silently drop every
    /// window they carried, so the operator must move the directory
    /// aside to do that.
    NoUsableCheckpoint {
        /// The checkpoint directory.
        dir: PathBuf,
        /// Checkpoint files found, every one skipped.
        skipped: usize,
    },
    /// A resumed capture's frame differs from the record the journal
    /// holds for its sequence number: it is not the capture the
    /// interrupted run journaled.
    FrameMismatch {
        /// The capture's name, as the caller gave it.
        capture: String,
        /// The frame's sequence number.
        seq: u64,
    },
    /// A resumed capture ended before the frames the journal holds.
    CaptureShort {
        /// The capture's name, as the caller gave it.
        capture: String,
        /// Frames the capture held.
        frames: u64,
        /// Frames the journal holds.
        journaled: u64,
    },
}

impl JournalError {
    /// Wraps an I/O failure of the operation `op`, for `map_err`.
    pub fn io(op: impl Into<String>) -> impl FnOnce(std::io::Error) -> JournalError {
        let op = op.into();
        move |source| JournalError::Io { op, source }
    }

    /// [`io`](Self::io) for recovery's step `op` on `path`.
    pub(crate) fn recovery(op: &str, path: &Path) -> impl FnOnce(std::io::Error) -> JournalError {
        JournalError::io(format!("recovery {op} {}", path.display()))
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { op, source } => write!(f, "journal {op}: {source}"),
            JournalError::NotEmpty { dir } => write!(
                f,
                "{} already holds durable state; recover it instead of creating over it",
                dir.display()
            ),
            JournalError::ClosedWindowsLost { persisted, given } => write!(
                f,
                "checkpoint was handed {given} closed windows, but {persisted} are already \
                 durable"
            ),
            JournalError::Corrupt {
                segment,
                offset,
                reason,
            } => write!(
                f,
                "journal segment {segment} corrupt at byte {offset}: {reason}"
            ),
            JournalError::NoUsableCheckpoint { dir, skipped } => write!(
                f,
                "none of the {skipped} fleet checkpoint file(s) in {} restores (damaged, or \
                 written by another format version); move the whole directory aside, closed.wal \
                 included, to start a fresh campaign",
                dir.display()
            ),
            JournalError::FrameMismatch { capture, seq } => write!(
                f,
                "frame {seq} of {capture} does not match the journal's record — this is not the \
                 capture log the interrupted run journaled"
            ),
            JournalError::CaptureShort {
                capture,
                frames,
                journaled,
            } => write!(
                f,
                "{capture} holds only {frames} valid frames but the journal says {journaled} were \
                 already ingested — wrong capture log for this journal?"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            JournalError::NotEmpty { .. }
            | JournalError::ClosedWindowsLost { .. }
            | JournalError::Corrupt { .. }
            | JournalError::NoUsableCheckpoint { .. }
            | JournalError::FrameMismatch { .. }
            | JournalError::CaptureShort { .. } => None,
        }
    }
}

/// Appends one record payload to `out`: sequence, timestamp bits, card
/// index, then the frame's wire bytes.
fn put_payload(out: &mut Vec<u8>, seq: u64, frame: &CapturedFrame) {
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&frame.time_s.to_bits().to_be_bytes());
    out.extend_from_slice(&(frame.card as u32).to_be_bytes());
    frame.frame.encode_into(out);
}

/// CRC-32 of the record payload `(seq, frame)` journals as — the same
/// value stored in the record header by [`FrameJournal::append`]. A
/// [`JournaledEngine`] compares it with the stored CRC of every frame
/// it skips, to refuse a capture that diverges from what the
/// interrupted run journaled.
pub fn record_crc(seq: u64, frame: &CapturedFrame) -> u32 {
    let mut payload = Vec::with_capacity(PAYLOAD_PREFIX_LEN + 64);
    put_payload(&mut payload, seq, frame);
    crc32(&payload)
}

fn segment_name(first_seq: u64) -> String {
    format!("segment-{first_seq:020}.wal")
}

/// What [`FrameJournal::recover`] found and rebuilt.
#[derive(Debug)]
pub struct Recovery {
    /// The journal, positioned to append record `next_seq` (a torn
    /// tail, if any, has been physically truncated away).
    pub journal: FrameJournal,
    /// The rebuilt engine, byte-identical to the pre-crash engine
    /// state after `next_seq` frames.
    pub engine: StreamEngine,
    /// Every window the pre-crash run had closed, in emission order —
    /// checkpoint-carried windows first, then the tail replay's. Each
    /// outcome is `Err(DeferredLocalization)`: the closed-window log
    /// stores none, and the tail is replayed as a catch-up (see
    /// [`FrameJournal::recover`]). [`StreamEngine::batch_fixes`]
    /// localizes them.
    pub closed: Vec<ClosedWindow>,
    /// Sequence number of the next frame to ingest (= frames durably
    /// journaled).
    pub next_seq: u64,
    /// Payload CRC-32 of every replayed record, in sequence order:
    /// `tail_crcs[i]` covers sequence `checkpoint_seq + i` (0 when no
    /// checkpoint was restored). A [`JournaledEngine`] compares these,
    /// and the stored CRCs of the records the checkpoint covers,
    /// against [`record_crc`] of the frames it skips.
    pub tail_crcs: Vec<u32>,
    /// How the recovery went, for operators and the sweep harness.
    pub report: RecoveryReport,
}

/// Accounting for one recovery pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence the restored checkpoint covered (`None`: recovered
    /// from scratch).
    pub checkpoint_seq: Option<u64>,
    /// Checkpoint files that failed to open and were skipped.
    pub checkpoints_skipped: usize,
    /// Segment files scanned.
    pub segments_scanned: usize,
    /// Journal records replayed through the engine.
    pub records_replayed: u64,
    /// Bytes of torn tail truncated from the final segment (0: clean
    /// shutdown).
    pub torn_tail_bytes: u64,
}

/// An append-only write-ahead log of captured frames.
///
/// DESIGN.md ("Write-ahead frame journal") gives the format and the
/// recovery contract.
#[derive(Debug)]
pub struct FrameJournal {
    config: JournalConfig,
    /// The open segment, if any (`None` until the first append after
    /// creation or a rotation boundary).
    segment: Option<File>,
    /// Records already in the open segment.
    segment_records: usize,
    /// Sequence number the next append receives.
    next_seq: u64,
    /// Whether appends have been written since the last sync.
    unsynced: bool,
    /// The record an append encodes in place and writes, kept so an
    /// append allocates nothing.
    record: Vec<u8>,
    /// The closed-window log and the checkpoints.
    durable: DurableDir,
}

impl FrameJournal {
    /// Creates a fresh journal in `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// [`JournalError::NotEmpty`] when `dir` already holds segments,
    /// checkpoints or a closed-window log (recover those instead), or
    /// [`JournalError::Io`].
    pub fn create(dir: &Path, config: JournalConfig) -> Result<FrameJournal, JournalError> {
        let durable = DurableDir::create(dir, DocKind::JournalCheckpoint)?;
        let segments = list_numbered(dir, "segment-", ".wal")
            .map_err(JournalError::io(format!("scan {}", dir.display())))?;
        if !segments.is_empty() {
            return Err(JournalError::NotEmpty {
                dir: dir.to_path_buf(),
            });
        }
        Ok(FrameJournal {
            config,
            segment: None,
            segment_records: 0,
            next_seq: 0,
            unsynced: false,
            record: Vec::new(),
            durable,
        })
    }

    /// Sequence number the next append will receive (= frames durably
    /// journaled so far).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one frame, returning its sequence number. Call this
    /// *before* pushing the frame into the engine — write-ahead is the
    /// whole durability argument.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on any filesystem failure; the journal's
    /// logical position is unchanged on error.
    pub fn append(&mut self, frame: &CapturedFrame) -> Result<u64, JournalError> {
        if self.segment.is_none() || self.segment_records >= self.config.segment_frames {
            self.rotate()?;
        }
        let seq = self.next_seq;
        self.record.clear();
        push_record(&mut self.record, |out| put_payload(out, seq, frame));
        let file = self.segment.as_mut().ok_or_else(|| JournalError::Io {
            op: "open segment".into(),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "no open segment"),
        })?;
        file.write_all(&self.record)
            .map_err(JournalError::io("append record"))?;
        self.next_seq += 1;
        self.segment_records += 1;
        self.unsynced = true;
        if self.config.flush == FlushPolicy::EveryRecord {
            self.sync()?;
        }
        let reg = marauder_obs::global();
        reg.counter_add("journal.appends", 1);
        reg.counter_add("journal.bytes", self.record.len() as u64);
        Ok(seq)
    }

    /// Pushes buffered appends to durable storage.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`].
    pub fn sync(&mut self) -> Result<(), JournalError> {
        if let Some(file) = self.segment.as_mut() {
            file.sync_data().map_err(JournalError::io("sync segment"))?;
        }
        if self.unsynced {
            marauder_obs::global().counter_add("journal.flushes", 1);
        }
        self.unsynced = false;
        Ok(())
    }

    /// Closes the open segment (after a final sync) and starts the
    /// next one, named after the first sequence it will hold.
    fn rotate(&mut self) -> Result<(), JournalError> {
        self.sync()?;
        self.segment = None;
        self.segment_records = 0;
        let dir = self.durable.dir();
        let path = dir.join(segment_name(self.next_seq));
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)
            .map_err(JournalError::io(format!("create {}", path.display())))?;
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
        header.extend_from_slice(&SEGMENT_MAGIC);
        header.extend_from_slice(&self.next_seq.to_be_bytes());
        file.write_all(&header)
            .map_err(JournalError::io("write segment header"))?;
        sync_dir(dir).map_err(JournalError::io(format!("sync {}", dir.display())))?;
        self.segment = Some(file);
        marauder_obs::global().counter_add("journal.segments", 1);
        Ok(())
    }

    /// Writes a checkpoint covering everything ingested so far: the
    /// segment is synced, so a checkpoint never claims frames that are
    /// not yet durable, then [`DurableDir::checkpoint`] appends the new
    /// windows of `closed` to the closed-window log and writes
    /// `checkpoint-<next_seq>.ckpt` with the engine state.
    ///
    /// `closed` is every window closed so far, in emission order — the
    /// list [`Recovery::closed`] starts, extended by each push.
    ///
    /// # Errors
    ///
    /// [`JournalError::ClosedWindowsLost`] when `closed` is shorter
    /// than the windows already persisted, or [`JournalError::Io`].
    pub fn checkpoint(
        &mut self,
        engine: &StreamEngine,
        closed: &[ClosedWindow],
    ) -> Result<(), JournalError> {
        self.sync()?;
        let written = self
            .durable
            .checkpoint(self.next_seq, closed, |out| engine.encode_state(out))?;
        let reg = marauder_obs::global();
        reg.counter_add("journal.checkpoints", 1);
        reg.counter_add("journal.checkpoint_bytes", written.bytes);
        if written.pruned > 0 {
            reg.counter_add("journal.checkpoints_pruned", written.pruned);
        }
        Ok(())
    }

    /// Rebuilds engine state from the journal in `dir`: restores the
    /// newest usable checkpoint (skipping, not failing on, the others —
    /// the journal itself is authoritative) and replays the journal
    /// tail through the engine. A partial final record — the signature
    /// of a crash mid-append — is truncated away and reported, not an
    /// error.
    ///
    /// `config`'s `live_localization`/`warm_start` are applied to the
    /// rebuilt engine (they are process configuration, never
    /// serialized); its windowing knobs are used only when recovering
    /// from scratch — a restored checkpoint carries its own.
    ///
    /// The tail replays as a *catch-up*: each window close folds its Γ
    /// into the AP-Rad statistics and nothing else — no live solve, no
    /// M-Loc — and the end of the tail makes the one live solve the
    /// skipped re-solves add up to. The cold LP is a pure function of
    /// the order-independent statistics, and a clean fold leaves its
    /// solution bit-identical, so in cold live mode (the default) the
    /// rebuilt engine equals the uninterrupted run's, its
    /// [`StreamStats::lp_solves`](crate::StreamStats::lp_solves)
    /// included. With `warm_start` the live radii are
    /// optimum-equivalent, as across any restore.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failures and
    /// [`JournalError::Corrupt`] for a damaged record anywhere but
    /// the journal's physical tail, or for records that end below the
    /// restored checkpoint.
    pub fn recover(
        dir: &Path,
        map: MaraudersMap,
        config: StreamConfig,
    ) -> Result<Recovery, JournalError> {
        let segments =
            list_numbered(dir, "segment-", ".wal").map_err(JournalError::recovery("scan", dir))?;
        let restored = DurableDir::restore(
            dir,
            DocKind::JournalCheckpoint,
            map.config().window_s,
            |r| StreamEngine::decode_state(map.clone(), r),
        )?;
        let mut report = RecoveryReport {
            checkpoint_seq: restored.checkpoint.as_ref().map(|c| c.0),
            checkpoints_skipped: restored.skipped,
            ..RecoveryReport::default()
        };
        let (start_seq, mut engine) = restored
            .checkpoint
            .unwrap_or_else(|| (0, StreamEngine::new(map, config.clone())));
        engine.set_mode(config.live_localization, config.warm_start);
        let mut closed = restored.closed;

        // Replay the tail as a catch-up: walk segments in order,
        // skipping any whose entire range the checkpoint already covers.
        let mut next_seq = start_seq;
        let mut on_disk = 0u64; // one past the last record on disk
        let mut tail_torn = 0u64;
        let mut tail_crcs: Vec<u32> = Vec::new();
        let mut final_removed = false;
        engine.catch_up(|engine| {
            for (idx, (first_seq, name)) in segments.iter().enumerate() {
                let covered_by_next = segments
                    .get(idx + 1)
                    .map(|(next_first, _)| *next_first <= start_seq)
                    .unwrap_or(false);
                if covered_by_next {
                    continue;
                }
                let is_final = idx + 1 == segments.len();
                let path = dir.join(name);
                let scan = scan_segment(&path, name, *first_seq, is_final)?;
                report.segments_scanned += 1;
                on_disk = *first_seq;
                for (seq, crc, frame) in scan.frames {
                    on_disk = seq + 1;
                    if seq != next_seq && seq >= start_seq {
                        let reason = format!("record sequence {seq} where {next_seq} was expected");
                        return Err(corrupt(name, 0, reason));
                    }
                    if seq < start_seq {
                        continue;
                    }
                    closed.extend(engine.push(&frame));
                    tail_crcs.push(crc);
                    next_seq += 1;
                    report.records_replayed += 1;
                }
                if is_final {
                    tail_torn = scan.torn_bytes;
                    if scan.valid_len < SEGMENT_HEADER_LEN {
                        // The crash hit rotation itself: the segment file
                        // was created but its header never became durable.
                        // Reopening it for append would bury every
                        // subsequent acknowledged record in a headerless
                        // file, which the *next* recovery would discard
                        // wholesale as a torn tail — silent loss of
                        // fsync'd appends. Delete the file instead; the
                        // first post-recovery append rotates into a
                        // fresh, properly headered segment.
                        std::fs::remove_file(&path)
                            .map_err(JournalError::recovery("remove", &path))?;
                        final_removed = true;
                    } else if scan.torn_bytes > 0 {
                        // Physically truncate the torn tail so the journal
                        // can be appended to from a clean record boundary.
                        let file = OpenOptions::new()
                            .write(true)
                            .open(&path)
                            .map_err(JournalError::recovery("reopen", &path))?;
                        file.set_len(scan.valid_len)
                            .map_err(JournalError::recovery("truncate", &path))?;
                    }
                }
            }
            Ok(())
        })?;
        // A checkpoint syncs the segment first, so no kill leaves the
        // log short of it, and appending at the checkpoint would leave
        // a gap.
        if on_disk < start_seq {
            return Err(missing_under(on_disk, start_seq));
        }
        report.torn_tail_bytes = tail_torn;

        // Reopen the final segment for append (if any). A final
        // segment whose header was torn no longer exists — leave the
        // journal with no open segment so the next append rotates.
        let (segment, segment_records) = match segments.last() {
            Some(_) if final_removed => (None, 0),
            Some((first_seq, name)) => {
                let path = dir.join(name);
                let mut file = OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(JournalError::recovery("reopen", &path))?;
                file.seek(SeekFrom::End(0))
                    .map_err(JournalError::io("recovery seek to end"))?;
                (Some(file), (next_seq - first_seq) as usize)
            }
            None => (None, 0),
        };

        let reg = marauder_obs::global();
        reg.counter_add("recovery.runs", 1);
        reg.counter_add("recovery.records_replayed", report.records_replayed);
        reg.counter_add("recovery.segments_scanned", report.segments_scanned as u64);
        reg.counter_add(
            "recovery.checkpoints_skipped",
            report.checkpoints_skipped as u64,
        );
        reg.counter_add("recovery.torn_tail_bytes", report.torn_tail_bytes);
        if report.torn_tail_bytes > 0 {
            reg.counter_add("recovery.torn_tails", 1);
        }

        Ok(Recovery {
            journal: FrameJournal {
                config: JournalConfig::default(),
                segment,
                segment_records,
                next_seq,
                unsynced: false,
                record: Vec::new(),
                durable: restored.durable,
            },
            engine,
            closed,
            next_seq,
            tail_crcs,
            report,
        })
    }

    /// Replaces the journal's rotation/flush configuration (used after
    /// [`recover`](Self::recover), which resumes with the defaults).
    pub fn set_config(&mut self, config: JournalConfig) {
        self.config = config;
    }
}

/// A [`StreamEngine`] behind a [`FrameJournal`]: the one write-ahead
/// loop, with the resume rule. DESIGN.md ("The journaled engine and the
/// resume rule") gives the contract. Dropping it without
/// [`finish`](Self::finish) is a kill: recovery may use only the
/// directory.
#[derive(Debug)]
pub struct JournaledEngine {
    /// The capture's name, for refusals.
    capture: String,
    journal: FrameJournal,
    engine: StreamEngine,
    closed: Vec<ClosedWindow>,
    /// The stored record CRC of each frame the journal held at open.
    journaled: Vec<u32>,
    /// Frames taken from the capture, skipped ones included.
    taken: u64,
    checkpoint_every: u64,
    recovery: Option<RecoveryReport>,
}

impl JournaledEngine {
    /// Creates the journal in `dir` when it holds no durable state, and
    /// otherwise recovers it ([`FrameJournal::recover`] with `config`)
    /// and reads the stored CRCs of the records its checkpoint covers.
    /// `journal_config` applies either way; a checkpoint is written
    /// every `checkpoint_every` frames counted from now (0: none).
    /// `capture` names the capture in refusals (the CLI passes the
    /// log's path).
    ///
    /// # Errors
    ///
    /// Any [`JournalError`] from creating or recovering the journal, or
    /// [`JournalError::Corrupt`] for damage among the covered records.
    pub fn open(
        dir: &Path,
        capture: impl Into<String>,
        map: MaraudersMap,
        config: StreamConfig,
        journal_config: JournalConfig,
        checkpoint_every: usize,
    ) -> Result<JournaledEngine, JournalError> {
        let mut journaled = Vec::new();
        let (journal, engine, closed, recovery) =
            match FrameJournal::create(dir, journal_config.clone()) {
                Err(JournalError::NotEmpty { .. }) => {
                    let mut rec = FrameJournal::recover(dir, map, config)?;
                    rec.journal.set_config(journal_config);
                    let covered = rec.report.checkpoint_seq.unwrap_or(0);
                    journaled = prefix_crcs(dir, covered)?;
                    journaled.extend(rec.tail_crcs);
                    (rec.journal, rec.engine, rec.closed, Some(rec.report))
                }
                journal => (journal?, StreamEngine::new(map, config), Vec::new(), None),
            };
        Ok(JournaledEngine {
            capture: capture.into(),
            journal,
            engine,
            closed,
            journaled,
            taken: 0,
            checkpoint_every: checkpoint_every as u64,
            recovery,
        })
    }

    /// How the recovery at open went; `None` for a fresh journal.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Frames the journal held at open.
    pub fn journaled(&self) -> u64 {
        self.journaled.len() as u64
    }

    /// Every window closed so far, the recovered ones first.
    pub fn closed(&self) -> &[ClosedWindow] {
        &self.closed
    }

    /// Takes the capture's next frame. A frame the journal held is
    /// checked against its record and skipped (`None`); any other is
    /// journaled, then pushed, and the windows it closed come back.
    ///
    /// # Errors
    ///
    /// [`JournalError::FrameMismatch`] when a held frame differs from
    /// its record, or a write error.
    pub fn push(&mut self, frame: &CapturedFrame) -> Result<Option<&[ClosedWindow]>, JournalError> {
        let seq = self.taken;
        if let Some(&stored) = self.journaled.get(seq as usize) {
            if stored != record_crc(seq, frame) {
                let capture = self.capture.clone();
                return Err(JournalError::FrameMismatch { capture, seq });
            }
            self.taken += 1;
            return Ok(None);
        }
        self.journal.append(frame)?;
        self.taken += 1;
        let from = self.closed.len();
        self.closed.extend(self.engine.push(frame));
        let fresh = self.taken - self.journaled();
        if self.checkpoint_every > 0 && fresh.is_multiple_of(self.checkpoint_every) {
            self.journal.checkpoint(&self.engine, &self.closed)?;
        }
        Ok(Some(&self.closed[from..]))
    }

    /// Ends the capture: refuses one shorter than the journal, seals
    /// the journal with a checkpoint (unless `checkpoint_every` is 0)
    /// and syncs it. Hands back every closed window and the engine,
    /// still open: its `finish` is not journaled, as recovery replays
    /// the log and finishes again.
    ///
    /// # Errors
    ///
    /// [`JournalError::CaptureShort`], or a write error.
    pub fn finish(mut self) -> Result<(StreamEngine, Vec<ClosedWindow>), JournalError> {
        if self.taken < self.journaled() {
            return Err(JournalError::CaptureShort {
                journaled: self.journaled(),
                capture: self.capture,
                frames: self.taken,
            });
        }
        if self.checkpoint_every > 0 {
            self.journal.checkpoint(&self.engine, &self.closed)?;
        }
        self.journal.sync()?;
        Ok((self.engine, self.closed))
    }
}

/// One scanned segment: the intact records (sequence, payload CRC,
/// frame) and where validity ended.
struct SegmentScan {
    frames: Vec<(u64, u32, CapturedFrame)>,
    /// Bytes of the file that held intact records (incl. header).
    valid_len: u64,
    /// Bytes past `valid_len` (0 when the file ends exactly on a
    /// record boundary).
    torn_bytes: u64,
}

/// Reads every record of one segment. In the final segment damage is a
/// torn tail (scan stops, remainder reported); anywhere else it is
/// [`JournalError::Corrupt`].
fn scan_segment(
    path: &Path,
    name: &str,
    expect_first_seq: u64,
    is_final: bool,
) -> Result<SegmentScan, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(JournalError::recovery("read", path))?;
    // The header: even this can be torn if the crash hit during
    // rotation — a short or mismatched header on the *final* segment
    // is an empty torn tail, not corruption.
    let header_ok = bytes.len() as u64 >= SEGMENT_HEADER_LEN
        && bytes[..8] == SEGMENT_MAGIC
        && u64::from_be_bytes([
            bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
        ]) == expect_first_seq;
    if !header_ok {
        if is_final {
            return Ok(SegmentScan {
                frames: Vec::new(),
                valid_len: 0,
                torn_bytes: bytes.len() as u64,
            });
        }
        return Err(corrupt(name, 0, "bad segment header".into()));
    }

    let mut frames = Vec::new();
    let mut records = Records::new(&bytes, SEGMENT_HEADER_LEN as usize, PAYLOAD_PREFIX_LEN);
    for (offset, crc, payload) in records.by_ref() {
        let seq = u64::from_be_bytes([
            payload[0], payload[1], payload[2], payload[3], payload[4], payload[5], payload[6],
            payload[7],
        ]);
        let time_s = f64::from_bits(u64::from_be_bytes([
            payload[8],
            payload[9],
            payload[10],
            payload[11],
            payload[12],
            payload[13],
            payload[14],
            payload[15],
        ]));
        let card =
            u32::from_be_bytes([payload[16], payload[17], payload[18], payload[19]]) as usize;
        let frame = match Frame::decode(&payload[PAYLOAD_PREFIX_LEN..]) {
            Ok(f) => f,
            Err(e) => {
                // The CRC passed but the frame codec rejects the bytes:
                // that is structural corruption, not a torn write.
                return Err(corrupt(name, offset, format!("undecodable frame: {e:?}")));
            }
        };
        frames.push((
            seq,
            crc,
            CapturedFrame {
                time_s,
                card,
                frame,
            },
        ));
    }
    if let (Some(reason), false) = (records.damage, is_final) {
        return Err(corrupt(name, records.pos, reason));
    }
    Ok(SegmentScan {
        frames,
        valid_len: records.pos as u64,
        torn_bytes: (bytes.len() - records.pos) as u64,
    })
}

/// The stored CRC of each record `0..below`, by sequence: the records a
/// restored checkpoint covers, which [`FrameJournal::recover`] skips.
/// Segments are never pruned, so each is on disk; damage, a gap or a
/// missing record is [`JournalError::Corrupt`].
fn prefix_crcs(dir: &Path, below: u64) -> Result<Vec<u32>, JournalError> {
    let mut crcs = Vec::new();
    let segments = list_numbered(dir, "segment-", ".wal")
        .map_err(JournalError::io(format!("resume scan {}", dir.display())))?;
    for (first_seq, name) in segments.iter().take_while(|(first, _)| *first < below) {
        for (seq, crc, _) in scan_segment(&dir.join(name), name, *first_seq, false)?.frames {
            match seq {
                seq if seq >= below => break,
                seq if seq == crcs.len() as u64 => crcs.push(crc),
                seq => {
                    let want = crcs.len();
                    let reason = format!("record sequence {seq} where {want} was expected");
                    return Err(corrupt(name, 0, reason));
                }
            }
        }
    }
    if (crcs.len() as u64) < below {
        return Err(missing_under(crcs.len() as u64, below));
    }
    Ok(crcs)
}

/// [`JournalError::Corrupt`] for record `seq`, missing although the
/// checkpoint at `below` covers it.
fn missing_under(seq: u64, below: u64) -> JournalError {
    let reason = format!("record {seq} is missing under the checkpoint at {below}");
    corrupt(&segment_name(seq), 0, reason)
}

/// [`JournalError::Corrupt`] at byte `offset` of segment `name`.
fn corrupt(name: &str, offset: usize, reason: String) -> JournalError {
    JournalError::Corrupt {
        segment: name.to_string(),
        offset: offset as u64,
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{
        list_checkpoints, open_checkpoint, seal_checkpoint, CLOSED_LOG, CLOSED_LOG_MAGIC,
        RETAINED_CHECKPOINTS,
    };
    use crate::engine::StreamConfig;
    use crate::persist::encode_closed;
    use marauder_core::apdb::{ApDatabase, ApRecord};
    use marauder_core::pipeline::{AttackConfig, KnowledgeLevel};
    use marauder_geo::Point;
    use marauder_wifi::channel::Channel;
    use marauder_wifi::frame::Frame;
    use marauder_wifi::mac::MacAddr;
    use marauder_wifi::ssid::Ssid;

    fn mac(i: u64) -> MacAddr {
        MacAddr::from_index(i)
    }

    fn map() -> MaraudersMap {
        let db: ApDatabase = [
            (100u64, Point::new(0.0, 0.0)),
            (101, Point::new(100.0, 0.0)),
            (102, Point::new(50.0, 80.0)),
        ]
        .into_iter()
        .map(|(i, p)| ApRecord {
            bssid: mac(i),
            ssid: None,
            location: p,
            radius: Some(120.0),
        })
        .collect();
        MaraudersMap::new(db, KnowledgeLevel::Full, AttackConfig::default())
    }

    fn response(t: f64, ap: u64, mobile: u64) -> CapturedFrame {
        CapturedFrame {
            time_s: t,
            card: 0,
            frame: Frame::probe_response(
                mac(ap),
                mac(mobile),
                Ssid::new("x").unwrap(),
                Channel::bg(6).unwrap(),
            ),
        }
    }

    fn frames(n: usize) -> Vec<CapturedFrame> {
        (0..n)
            .map(|k| response(k as f64 * 7.0, 100 + (k % 3) as u64, 1 + (k % 2) as u64))
            .collect()
    }

    fn checkpoint_name(seq: u64) -> String {
        format!("checkpoint-{seq:020}.ckpt")
    }

    fn segments(dir: &Path) -> Vec<(u64, String)> {
        list_numbered(dir, "segment-", ".wal").unwrap()
    }

    fn lazy() -> StreamConfig {
        StreamConfig {
            live_localization: false,
            warm_start: false,
            ..StreamConfig::default()
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "marauder-journal-test-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Canonical byte rendering of a fix list, for equality asserts.
    fn render(fixes: &[crate::TrackFix]) -> String {
        fixes
            .iter()
            .map(|f| {
                format!(
                    "{:016x} {} {:016x} {:016x} {}\n",
                    f.time_s.to_bits(),
                    f.mobile,
                    f.estimate.position.x.to_bits(),
                    f.estimate.position.y.to_bits(),
                    f.gamma.len()
                )
            })
            .collect()
    }

    fn clean_fixes(n: usize) -> String {
        let mut engine = StreamEngine::new(map(), lazy());
        let mut closed = Vec::new();
        for f in frames(n) {
            closed.extend(engine.push(&f));
        }
        closed.extend(engine.finish());
        render(&engine.batch_fixes(closed))
    }

    #[test]
    fn journal_rotates_and_recovers_everything() {
        let dir = scratch("rotate");
        let all = frames(50);
        let mut journal = FrameJournal::create(
            &dir,
            JournalConfig {
                segment_frames: 8,
                flush: FlushPolicy::EveryRecord,
            },
        )
        .unwrap();
        let mut engine = StreamEngine::new(map(), lazy());
        let mut closed = Vec::new();
        for (k, f) in all.iter().enumerate() {
            assert_eq!(journal.append(f).unwrap(), k as u64);
            closed.extend(engine.push(f));
            if k == 20 {
                journal.checkpoint(&engine, &closed).unwrap();
            }
        }
        drop(journal); // crash after frame 50

        let rec = FrameJournal::recover(&dir, map(), lazy()).unwrap();
        assert_eq!(rec.next_seq, 50);
        assert_eq!(rec.report.checkpoint_seq, Some(21));
        assert_eq!(rec.report.records_replayed, 50 - 21);
        assert_eq!(rec.report.torn_tail_bytes, 0);
        assert!(rec.report.segments_scanned >= 4);

        let mut recovered = rec.engine;
        let mut closed2 = rec.closed;
        closed2.extend(recovered.finish());
        closed.extend(engine.finish());
        assert_eq!(engine.stats(), recovered.stats());
        assert_eq!(
            render(&engine.batch_fixes(closed)),
            render(&recovered.batch_fixes(closed2))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_resumable() {
        let dir = scratch("torn");
        let all = frames(12);
        let mut journal = FrameJournal::create(&dir, JournalConfig::default()).unwrap();
        let mut engine = StreamEngine::new(map(), lazy());
        for f in &all {
            journal.append(f).unwrap();
            engine.push(f);
        }
        drop(journal);

        // Tear 3 bytes into the final record.
        let segments = segments(&dir);
        let (_, name) = segments.last().unwrap();
        let path = dir.join(name);
        let len = std::fs::metadata(&path).unwrap().len();
        // All frames encode identically here; records are equal
        // sized, so the last record's start is easy to find.
        let record_len = (len - SEGMENT_HEADER_LEN) / 12;
        let last_start = len - record_len;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(last_start + 3)
            .unwrap();

        let rec = FrameJournal::recover(&dir, map(), lazy()).unwrap();
        assert_eq!(rec.next_seq, 11, "the torn record is gone");
        assert_eq!(rec.report.torn_tail_bytes, 3);
        // The torn frame was never acknowledged; re-append and resume.
        let mut journal = rec.journal;
        let mut recovered = rec.engine;
        let mut closed = rec.closed;
        assert_eq!(journal.append(&all[11]).unwrap(), 11);
        closed.extend(recovered.push(&all[11]));
        closed.extend(recovered.finish());
        assert_eq!(render(&recovered.batch_fixes(closed)), clean_fixes(12));

        // The repaired journal recovers cleanly a second time.
        drop(journal);
        let rec2 = FrameJournal::recover(&dir, map(), lazy()).unwrap();
        assert_eq!(rec2.next_seq, 12);
        assert_eq!(rec2.report.torn_tail_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn headerless_final_segment_is_removed_and_resumed_appends_survive() {
        // A crash between segment-file creation and the header write
        // (inside rotate()) leaves a headerless final segment. Recovery
        // must delete it — reopening it for append would make every
        // subsequent acknowledged append invisible to the NEXT
        // recovery, silently dropping fsync'd records.
        let dir = scratch("headerless");
        let all = frames(12);
        let mut journal = FrameJournal::create(
            &dir,
            JournalConfig {
                segment_frames: 4,
                flush: FlushPolicy::EveryRecord,
            },
        )
        .unwrap();
        for f in &all[..8] {
            journal.append(f).unwrap();
        }
        drop(journal); // die...
                       // ...mid-rotation: the next segment file exists but holds only
                       // 5 bytes of its 16-byte header.
        std::fs::write(dir.join(segment_name(8)), &SEGMENT_MAGIC[..5]).unwrap();

        let rec = FrameJournal::recover(&dir, map(), lazy()).unwrap();
        assert_eq!(rec.next_seq, 8);
        assert_eq!(rec.report.torn_tail_bytes, 5);
        assert!(
            !dir.join(segment_name(8)).exists(),
            "the headerless segment must be deleted, not reopened"
        );

        // Resume: two more acknowledged (EveryRecord-flushed) appends.
        let mut journal = rec.journal;
        journal.set_config(JournalConfig {
            segment_frames: 4,
            flush: FlushPolicy::EveryRecord,
        });
        assert_eq!(journal.append(&all[8]).unwrap(), 8);
        assert_eq!(journal.append(&all[9]).unwrap(), 9);
        drop(journal); // crash again

        // The next recovery must see BOTH resumed appends (the bug:
        // they landed in a headerless file and were discarded as a
        // torn tail, next_seq = 8 instead of 10).
        let rec2 = FrameJournal::recover(&dir, map(), lazy()).unwrap();
        assert_eq!(rec2.next_seq, 10, "acknowledged appends were lost");
        assert_eq!(rec2.report.torn_tail_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_checkpoints_are_pruned_to_retention() {
        let dir = scratch("prune");
        let all = frames(40);
        let mut journal = FrameJournal::create(&dir, JournalConfig::default()).unwrap();
        let mut engine = StreamEngine::new(map(), lazy());
        let mut closed = Vec::new();
        for (k, f) in all.iter().enumerate() {
            journal.append(f).unwrap();
            closed.extend(engine.push(f));
            if (k + 1) % 4 == 0 {
                journal.checkpoint(&engine, &closed).unwrap();
            }
        }
        let checkpoints = list_checkpoints(&dir, DocKind::JournalCheckpoint).unwrap();
        assert_eq!(checkpoints.len(), RETAINED_CHECKPOINTS);
        // The survivors are the NEWEST ones, and recovery still works.
        assert_eq!(checkpoints.last().unwrap().0, 40);
        drop(journal);
        let rec = FrameJournal::recover(&dir, map(), lazy()).unwrap();
        assert_eq!(rec.next_seq, 40);
        assert_eq!(rec.report.checkpoint_seq, Some(40));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_crcs_match_record_crc_of_the_source_frames() {
        let dir = scratch("tailcrc");
        let all = frames(20);
        let mut journal = FrameJournal::create(&dir, JournalConfig::default()).unwrap();
        let mut engine = StreamEngine::new(map(), lazy());
        let mut closed = Vec::new();
        for (k, f) in all.iter().enumerate() {
            journal.append(f).unwrap();
            closed.extend(engine.push(f));
            if k == 7 {
                journal.checkpoint(&engine, &closed).unwrap();
            }
        }
        drop(journal);
        let rec = FrameJournal::recover(&dir, map(), lazy()).unwrap();
        assert_eq!(rec.report.checkpoint_seq, Some(8));
        assert_eq!(rec.tail_crcs.len(), 12);
        for (i, crc) in rec.tail_crcs.iter().enumerate() {
            let seq = 8 + i as u64;
            assert_eq!(*crc, record_crc(seq, &all[seq as usize]), "seq {seq}");
        }
        // A different frame (wrong capture log) does not match.
        assert_ne!(rec.tail_crcs[0], record_crc(8, &all[9]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_skipped_not_fatal() {
        let dir = scratch("badckpt");
        let all = frames(30);
        let mut journal = FrameJournal::create(&dir, JournalConfig::default()).unwrap();
        let mut engine = StreamEngine::new(map(), lazy());
        let mut closed = Vec::new();
        for (k, f) in all.iter().enumerate() {
            journal.append(f).unwrap();
            closed.extend(engine.push(f));
            if k == 10 || k == 20 {
                journal.checkpoint(&engine, &closed).unwrap();
            }
        }
        drop(journal);

        // Flip a byte in the newest checkpoint.
        let checkpoints = list_checkpoints(&dir, DocKind::JournalCheckpoint).unwrap();
        let newest = dir.join(&checkpoints.last().unwrap().1);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&newest, &bytes).unwrap();

        let rec = FrameJournal::recover(&dir, map(), lazy()).unwrap();
        assert!(rec.report.checkpoints_skipped >= 1);
        assert_eq!(rec.report.checkpoint_seq, Some(11));
        assert_eq!(rec.next_seq, 30);
        let mut recovered = rec.engine;
        let mut closed = rec.closed;
        closed.extend(recovered.finish());
        assert_eq!(render(&recovered.batch_fixes(closed)), clean_fixes(30));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_in_a_non_final_segment_is_a_typed_error() {
        let dir = scratch("midcorrupt");
        let mut journal = FrameJournal::create(
            &dir,
            JournalConfig {
                segment_frames: 4,
                flush: FlushPolicy::EveryRecord,
            },
        )
        .unwrap();
        for f in frames(12) {
            journal.append(&f).unwrap();
        }
        drop(journal);
        let segments = segments(&dir);
        assert!(segments.len() >= 3);
        let first = dir.join(&segments[0].1);
        let mut bytes = std::fs::read(&first).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0xFF;
        std::fs::write(&first, &bytes).unwrap();
        let err = FrameJournal::recover(&dir, map(), lazy()).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { .. }),
            "want Corrupt, got {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_a_non_empty_journal() {
        let dir = scratch("nonempty");
        let mut journal = FrameJournal::create(&dir, JournalConfig::default()).unwrap();
        journal.append(&response(0.0, 100, 1)).unwrap();
        drop(journal);
        let err = FrameJournal::create(&dir, JournalConfig::default()).unwrap_err();
        assert!(matches!(err, JournalError::NotEmpty { .. }), "{err}");
        // A closed-window log alone makes a journal too.
        for (_, name) in segments(&dir) {
            std::fs::remove_file(dir.join(name)).unwrap();
        }
        std::fs::write(dir.join(CLOSED_LOG), CLOSED_LOG_MAGIC).unwrap();
        let err = FrameJournal::create(&dir, JournalConfig::default()).unwrap_err();
        assert!(matches!(err, JournalError::NotEmpty { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_append_only_the_new_windows() {
        let dir = scratch("incremental");
        let all = frames(30);
        let mut journal = FrameJournal::create(&dir, JournalConfig::default()).unwrap();
        let mut engine = StreamEngine::new(map(), lazy());
        let mut closed = Vec::new();
        let mut log_lens = Vec::new();
        for (k, f) in all.iter().enumerate() {
            journal.append(f).unwrap();
            closed.extend(engine.push(f));
            if k == 14 || k == 29 {
                journal.checkpoint(&engine, &closed).unwrap();
                log_lens.push((
                    closed.len(),
                    std::fs::metadata(dir.join(CLOSED_LOG)).unwrap().len(),
                ));
            }
        }
        // The log holds each window once: its bytes are exactly the
        // records of every window closed so far.
        for (count, len) in &log_lens {
            let mut records = CLOSED_LOG_MAGIC.to_vec();
            for c in &closed[..*count] {
                push_record(&mut records, |out| out.extend_from_slice(&encode_closed(c)));
            }
            assert_eq!(*len, records.len() as u64);
        }
        assert!(log_lens[0].0 > 0 && log_lens[1].0 > log_lens[0].0);
        // The checkpoint document carries counts, not the windows.
        let doc = std::fs::read(dir.join(checkpoint_name(30))).unwrap();
        let kind = DocKind::JournalCheckpoint;
        let (covers, count, crc, _) =
            open_checkpoint(&doc, kind, |r| StreamEngine::decode_state(map(), r)).unwrap();
        assert_eq!((covers, count), (30, closed.len()));
        assert_eq!(
            doc,
            seal_checkpoint(kind, 30, count, crc, |out| engine.encode_state(out))
        );
        // Handing in fewer windows than are durable is a typed error.
        let err = journal.checkpoint(&engine, &closed[..1]).unwrap_err();
        assert!(
            matches!(err, JournalError::ClosedWindowsLost { persisted, given: 1 } if persisted == closed.len()),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lost_checkpoint_cuts_the_log_back_and_resumes() {
        // A kill after the closed-window log was synced but before the
        // checkpoint's rename: the log holds windows no checkpoint
        // covers.
        let dir = scratch("lostckpt");
        let all = frames(40);
        let mut journal = FrameJournal::create(&dir, JournalConfig::default()).unwrap();
        let mut engine = StreamEngine::new(map(), lazy());
        let mut closed = Vec::new();
        for (k, f) in all[..30].iter().enumerate() {
            journal.append(f).unwrap();
            closed.extend(engine.push(f));
            if k == 9 || k == 29 {
                journal.checkpoint(&engine, &closed).unwrap();
            }
        }
        drop(journal);
        std::fs::remove_file(dir.join(checkpoint_name(30))).unwrap();
        let logged = std::fs::metadata(dir.join(CLOSED_LOG)).unwrap().len();

        let rec = FrameJournal::recover(&dir, map(), lazy()).unwrap();
        assert_eq!(rec.report.checkpoint_seq, Some(10));
        assert_eq!(rec.next_seq, 30);
        // Resume with a checkpoint; the next recovery restores it.
        let mut journal = rec.journal;
        let mut recovered = rec.engine;
        let mut closed = rec.closed;
        for f in &all[30..] {
            journal.append(f).unwrap();
            closed.extend(recovered.push(f));
        }
        journal.checkpoint(&recovered, &closed).unwrap();
        drop(journal);
        // The checkpoint's append cut the log back to the restored
        // checkpoint first: it holds each window once.
        let mut records = CLOSED_LOG_MAGIC.to_vec();
        for c in &closed {
            push_record(&mut records, |out| out.extend_from_slice(&encode_closed(c)));
        }
        assert_eq!(std::fs::read(dir.join(CLOSED_LOG)).unwrap(), records);
        assert!(logged > 0);
        let rec2 = FrameJournal::recover(&dir, map(), lazy()).unwrap();
        assert_eq!(rec2.report.checkpoint_seq, Some(40));
        assert_eq!(rec2.report.records_replayed, 0);
        let mut recovered = rec2.engine;
        let mut closed = rec2.closed;
        closed.extend(recovered.finish());
        assert_eq!(render(&recovered.batch_fixes(closed)), clean_fixes(40));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn closed_log_from_another_journal_fails_the_running_crc() {
        // Every record of a foreign log is intact, so only the running
        // CRC can tell it is not the log the checkpoint was written
        // against.
        let dir = scratch("foreign");
        let other = scratch("foreign-other");
        for (d, mobile) in [(&dir, 1), (&other, 5)] {
            let mut journal = FrameJournal::create(d, JournalConfig::default()).unwrap();
            let mut engine = StreamEngine::new(map(), lazy());
            let mut closed = Vec::new();
            for k in 0..30 {
                let f = response(
                    k as f64 * 7.0,
                    100 + (k % 3) as u64,
                    mobile + (k % 2) as u64,
                );
                journal.append(&f).unwrap();
                closed.extend(engine.push(&f));
            }
            journal.checkpoint(&engine, &closed).unwrap();
        }
        let ours = std::fs::metadata(dir.join(CLOSED_LOG)).unwrap().len();
        std::fs::copy(other.join(CLOSED_LOG), dir.join(CLOSED_LOG)).unwrap();
        assert_eq!(std::fs::metadata(dir.join(CLOSED_LOG)).unwrap().len(), ours);

        let rec = FrameJournal::recover(&dir, map(), lazy()).unwrap();
        assert_eq!(rec.report.checkpoint_seq, None);
        assert_eq!(rec.report.checkpoints_skipped, 1);
        let mut recovered = rec.engine;
        let mut closed = rec.closed;
        closed.extend(recovered.finish());
        assert_eq!(render(&recovered.batch_fixes(closed)), clean_fixes(30));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&other);
    }

    #[test]
    fn text_checkpoint_from_an_older_build_is_skipped() {
        let dir = scratch("textckpt");
        let all = frames(20);
        let mut journal = FrameJournal::create(&dir, JournalConfig::default()).unwrap();
        for f in &all {
            journal.append(f).unwrap();
        }
        drop(journal);
        // The text layout an older build wrote fails the magic check.
        let doc = "# marauder journal checkpoint v2\ncovers 20\nclosed 0 00000000\n\
                   engine 1\n# marauder stream snapshot v1\nend 4\n";
        std::fs::write(dir.join(checkpoint_name(20)), doc).unwrap();
        let rec = FrameJournal::recover(&dir, map(), lazy()).unwrap();
        assert_eq!(rec.report.checkpoint_seq, None);
        assert_eq!(rec.report.checkpoints_skipped, 1);
        assert_eq!(rec.report.records_replayed, 20);
        let mut recovered = rec.engine;
        let mut closed = rec.closed;
        closed.extend(recovered.finish());
        assert_eq!(render(&recovered.batch_fixes(closed)), clean_fixes(20));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovering_an_empty_directory_yields_a_fresh_journal() {
        let dir = scratch("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let rec = FrameJournal::recover(&dir, map(), lazy()).unwrap();
        assert_eq!(rec.next_seq, 0);
        assert_eq!(rec.report, RecoveryReport::default());
        let mut journal = rec.journal;
        assert_eq!(journal.append(&response(0.0, 100, 1)).unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_policies_accept_appends() {
        for flush in [FlushPolicy::EveryRecord, FlushPolicy::OnRotate] {
            let dir = scratch(&format!("flush-{flush:?}"));
            let mut journal = FrameJournal::create(
                &dir,
                JournalConfig {
                    segment_frames: 6,
                    flush,
                },
            )
            .unwrap();
            for f in frames(20) {
                journal.append(&f).unwrap();
            }
            journal.sync().unwrap();
            drop(journal);
            let rec = FrameJournal::recover(&dir, map(), lazy()).unwrap();
            assert_eq!(rec.next_seq, 20);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn partial_closed_log_append_does_not_disable_later_checkpoints() {
        // A checkpoint's log append fails part-way, leaving 3 stray
        // bytes after the records of the checkpoint at frame 21. The
        // next append must overwrite them, or the log scan stops there
        // and every later checkpoint fails its running CRC.
        let dir = scratch("partial-append");
        let all = frames(64);
        let mut journal = FrameJournal::create(&dir, JournalConfig::default()).unwrap();
        let mut engine = StreamEngine::new(map(), lazy());
        let mut closed = Vec::new();
        for (k, f) in all.iter().enumerate() {
            journal.append(f).unwrap();
            closed.extend(engine.push(f));
            if k == 20 || k == 40 || k == 60 {
                journal.checkpoint(&engine, &closed).unwrap();
            }
            if k == 20 {
                let mut log = OpenOptions::new()
                    .append(true)
                    .open(dir.join(CLOSED_LOG))
                    .unwrap();
                log.write_all(&[0xAB; 3]).unwrap();
            }
        }
        drop(journal);
        let rec = FrameJournal::recover(&dir, map(), lazy()).unwrap();
        assert_eq!(rec.report.checkpoint_seq, Some(61));
        assert_eq!(rec.report.checkpoints_skipped, 0);
        assert_eq!(rec.report.records_replayed, 3);
        let mut recovered = rec.engine;
        let mut closed = rec.closed;
        closed.extend(recovered.finish());
        assert_eq!(render(&recovered.batch_fixes(closed)), clean_fixes(64));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
