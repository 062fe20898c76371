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
//! # On-disk layout
//!
//! A journal is one flat directory holding three kinds of files:
//!
//! * **Segments** (`segment-<first_seq>.wal`): append-only binary
//!   record logs, rotated every [`JournalConfig::segment_frames`]
//!   records. Each segment opens with a 16-byte header — an 8-byte
//!   magic (`MRDRWAL` + format version byte) and the big-endian `u64`
//!   sequence number of its first record. Records are length-prefixed
//!   and checksummed:
//!
//!   ```text
//!   record  := len:u32be  crc:u32be  payload[len]
//!   payload := seq:u64be  time_bits:u64be  card:u32be  frame-bytes
//!   ```
//!
//!   `crc` is CRC-32 (IEEE) over the payload; `time_bits` is the
//!   frame timestamp's IEEE-754 bits, so replay is bit-exact.
//!
//! * **The closed-window log** ([`CLOSED_LOG`]): every window the
//!   engine closed, in emission order, appended at checkpoints. It
//!   opens with its own 8-byte magic (`MRDRCLW` + format version byte)
//!   and uses the segment record framing with the payload of
//!   [`persist::encode_closed`]:
//!
//!   ```text
//!   payload := window:i64be  mobile:6 bytes  ap:6 bytes × |Γ|
//!   ```
//!
//!   Γ is written in `BTreeSet` order; a record with an empty Γ is
//!   rejected.
//!
//! * **Checkpoints** (`checkpoint-<seq>.ckpt`): small sealed
//!   [`DocKind::JournalCheckpoint`] documents (see [`persist`]) written
//!   atomically ([`write_atomic`]): the frames covered (`<seq>` —
//!   recovery replays journal records with `seq >= <seq>`), how many
//!   closed-window log records are covered (`K`) with the running
//!   CRC-32 of those records, and the engine state inline. A
//!   checkpoint's size follows the engine state, not the campaign's
//!   length.
//!
//! A checkpoint syncs the open segment, appends only the windows closed
//! since the previous checkpoint to the closed-window log and syncs it,
//! and only then writes the checkpoint document. Its cost is the engine
//! state plus the new windows, however long the campaign has run.
//!
//! # Recovery
//!
//! [`FrameJournal::recover`] reads the closed-window log up to its
//! first damaged record, then scans checkpoints newest-first and takes
//! the first one that opens, agrees with its file name, and whose `K`
//! log records are intact with a matching running CRC. Other
//! checkpoints are skipped and counted, never fatal: the segments are
//! the source of truth and are never pruned, so with zero valid
//! checkpoints recovery simply replays the whole journal from a fresh
//! engine. It then walks the segments, verifying each record's length
//! and CRC, pushing the tail through the engine — windows past `K`
//! close again during that replay — and finally cuts the log back to
//! exactly `K` records and reopens it for append.
//!
//! **Torn tails are not errors.** A crash mid-append leaves a partial
//! final record; recovery detects it (short header, short payload, or
//! CRC mismatch in the *final* segment), truncates the file back to
//! the last intact record, and resumes from there. The frame inside
//! the torn record was never acknowledged as ingested, so the producer
//! re-feeds it and the resumed run stays byte-identical to an
//! uninterrupted one. The same damage in a *non-final* segment cannot
//! be a crash artifact and is reported as [`RecoveryError::Corrupt`].
//! Damage to the closed-window log is never fatal: at worst it makes
//! recovery fall back to an older checkpoint.
//!
//! # Crash equivalence
//!
//! The invariant pinned by `crates/fault`'s kill-at-every-boundary
//! sweep: for any crash point, crash → recover → resume produces fixes
//! byte-identical to the clean run (with [`FlushPolicy::EveryRecord`],
//! which is the default).

use crate::engine::{ClosedWindow, StreamConfig, StreamEngine};
use crate::persist::{
    self, crc32, crc32_update, decode_closed, encode_closed, sync_dir, write_atomic, DocKind,
    Field, PersistError, MIN_CLOSED_LEN,
};
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

/// Bytes of record header (length prefix + CRC) preceding the payload.
const RECORD_HEADER_LEN: u64 = 8;

/// Fixed payload bytes before the encoded frame (seq + time + card).
const PAYLOAD_PREFIX_LEN: usize = 20;

/// Upper bound on a record payload. Real records are tens of bytes; a
/// length prefix beyond this is corruption, and capping it keeps a
/// flipped length byte from asking the reader to allocate gigabytes.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// File name of the closed-window log inside the journal directory.
pub const CLOSED_LOG: &str = "closed.wal";

/// Magic bytes opening the closed-window log (its whole header); the
/// trailing byte is the binary format version.
pub const CLOSED_LOG_MAGIC: [u8; 8] = *b"MRDRCLW\x01";

/// Checkpoint files retained after each new one is written; older ones
/// are pruned. Recovery only ever needs the newest valid checkpoint;
/// the older survivors are fallback against a torn or lost newest one.
/// Every checkpoint is about the size of the engine state, so this
/// bounds the directory's checkpoint bytes whatever the campaign's
/// length.
pub const RETAINED_CHECKPOINTS: usize = 4;

/// When appended records are pushed to the OS.
///
/// Durability is what the crash-equivalence invariant rides on: with
/// [`EveryRecord`](FlushPolicy::EveryRecord) every acknowledged append
/// survives a process kill, so recovery loses nothing. The batched
/// policies trade that completeness for fewer `write(2)` calls — after
/// a kill, at most the unflushed suffix is gone, which recovery
/// reports as a (clean) torn tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush after every record (default; required for exact crash
    /// equivalence at arbitrary kill points).
    EveryRecord,
    /// Flush after every `n` records and on rotation.
    EveryN(usize),
    /// Flush only when a segment rotates (and on checkpoint).
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

/// Error writing to (or creating) a journal.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O failure, with the operation that failed.
    Io {
        /// What the journal was doing.
        op: String,
        /// The underlying failure.
        source: std::io::Error,
    },
    /// [`FrameJournal::create`] found existing journal files: a
    /// non-empty journal must be opened through
    /// [`FrameJournal::recover`], never blindly overwritten.
    NotEmpty {
        /// The offending directory.
        dir: PathBuf,
    },
    /// [`FrameJournal::checkpoint`] was handed fewer closed windows
    /// than the closed-window log already holds: the caller lost
    /// windows the journal had made durable.
    ClosedWindowsLost {
        /// Windows already durable in the closed-window log.
        persisted: usize,
        /// Windows the caller handed in.
        given: usize,
    },
}

impl JournalError {
    fn io(op: impl Into<String>) -> impl FnOnce(std::io::Error) -> JournalError {
        let op = op.into();
        move |source| JournalError::Io { op, source }
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { op, source } => write!(f, "journal {op}: {source}"),
            JournalError::NotEmpty { dir } => write!(
                f,
                "journal directory {} already holds journal files; recover it instead of \
                 creating over it",
                dir.display()
            ),
            JournalError::ClosedWindowsLost { persisted, given } => write!(
                f,
                "journal checkpoint was handed {given} closed windows, but {persisted} are \
                 already durable"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            JournalError::NotEmpty { .. } | JournalError::ClosedWindowsLost { .. } => None,
        }
    }
}

/// Error recovering a journal directory.
#[derive(Debug)]
pub enum RecoveryError {
    /// An I/O failure, with the operation that failed.
    Io {
        /// What recovery was doing.
        op: String,
        /// The underlying failure.
        source: std::io::Error,
    },
    /// A segment that is not the journal's final one holds a damaged
    /// record. A torn tail can only live at the physical end of the
    /// log, so this is real corruption, not a crash artifact.
    Corrupt {
        /// The offending segment file name.
        segment: String,
        /// Byte offset of the first bad record.
        offset: u64,
        /// What was wrong with it.
        reason: String,
    },
}

impl RecoveryError {
    fn io(op: impl Into<String>) -> impl FnOnce(std::io::Error) -> RecoveryError {
        let op = op.into();
        move |source| RecoveryError::Io { op, source }
    }
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io { op, source } => write!(f, "journal recovery {op}: {source}"),
            RecoveryError::Corrupt {
                segment,
                offset,
                reason,
            } => write!(
                f,
                "journal segment {segment} corrupt at byte {offset}: {reason}"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Io { source, .. } => Some(source),
            RecoveryError::Corrupt { .. } => None,
        }
    }
}

/// Appends one `len crc payload` record to `out`.
fn push_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
}

/// Encodes one record payload: sequence, timestamp bits, card index,
/// then the frame's wire bytes.
fn encode_payload(seq: u64, frame: &CapturedFrame) -> Vec<u8> {
    let frame_bytes = frame.frame.encode();
    let mut payload = Vec::with_capacity(PAYLOAD_PREFIX_LEN + frame_bytes.len());
    payload.extend_from_slice(&seq.to_be_bytes());
    payload.extend_from_slice(&frame.time_s.to_bits().to_be_bytes());
    payload.extend_from_slice(&(frame.card as u32).to_be_bytes());
    payload.extend_from_slice(&frame_bytes);
    payload
}

/// CRC-32 of the record payload `(seq, frame)` journals as — the same
/// value stored in the record header by [`FrameJournal::append`]. A
/// resuming replay uses this with [`Recovery::tail_crcs`] to detect a
/// capture log that diverges from what the interrupted run journaled.
pub fn record_crc(seq: u64, frame: &CapturedFrame) -> u32 {
    crc32(&encode_payload(seq, frame))
}

fn segment_name(first_seq: u64) -> String {
    format!("segment-{first_seq:020}.wal")
}

fn checkpoint_name(seq: u64) -> String {
    format!("checkpoint-{seq:020}.ckpt")
}

/// Parses `prefix-<u64>.suffix` file names back to their number.
fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
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
    /// checkpoint-carried windows first, then the tail replay's.
    pub closed: Vec<ClosedWindow>,
    /// Sequence number of the next frame to ingest (= frames durably
    /// journaled).
    pub next_seq: u64,
    /// Payload CRC-32 of every replayed record, in sequence order:
    /// `tail_crcs[i]` covers sequence `checkpoint_seq + i` (0 when no
    /// checkpoint was restored). A resuming replay compares these
    /// against [`record_crc`] of the frames it skips, proving the
    /// capture log it resumes from is the one the interrupted run
    /// journaled.
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
/// See the [module docs](self) for the format and recovery contract.
#[derive(Debug)]
pub struct FrameJournal {
    dir: PathBuf,
    config: JournalConfig,
    /// The open segment, if any (`None` until the first append after
    /// creation or a rotation boundary).
    segment: Option<File>,
    /// Records already in the open segment.
    segment_records: usize,
    /// Sequence number the next append receives.
    next_seq: u64,
    /// Appends since the last flush, for [`FlushPolicy::EveryN`].
    unflushed: usize,
    /// Frames covered by the newest checkpoint written through this
    /// handle (or carried in at recovery).
    checkpointed_seq: u64,
    /// The closed-window log, opened for append (`None` until a
    /// checkpoint first has a window to persist).
    closed_log: Option<File>,
    /// Windows durable in the closed-window log.
    closed_persisted: usize,
    /// Running CRC-32 of the closed-window log's records.
    closed_crc: u32,
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
        std::fs::create_dir_all(dir)
            .map_err(JournalError::io(format!("create dir {}", dir.display())))?;
        let (segments, checkpoints) =
            list_journal_files(dir).map_err(JournalError::io(format!("scan {}", dir.display())))?;
        if !segments.is_empty() || !checkpoints.is_empty() || dir.join(CLOSED_LOG).exists() {
            return Err(JournalError::NotEmpty {
                dir: dir.to_path_buf(),
            });
        }
        Ok(FrameJournal {
            dir: dir.to_path_buf(),
            config,
            segment: None,
            segment_records: 0,
            next_seq: 0,
            unflushed: 0,
            checkpointed_seq: 0,
            closed_log: None,
            closed_persisted: 0,
            closed_crc: 0,
        })
    }

    /// The directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
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
        let payload = encode_payload(seq, frame);
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        push_record(&mut record, &payload);
        let file = self.segment.as_mut().ok_or_else(|| JournalError::Io {
            op: "open segment".into(),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "no open segment"),
        })?;
        file.write_all(&record)
            .map_err(JournalError::io("append record"))?;
        self.next_seq += 1;
        self.segment_records += 1;
        self.unflushed += 1;
        let flush_now = match self.config.flush {
            FlushPolicy::EveryRecord => true,
            FlushPolicy::EveryN(n) => self.unflushed >= n.max(1),
            FlushPolicy::OnRotate => false,
        };
        if flush_now {
            self.sync()?;
        }
        let reg = marauder_obs::global();
        reg.counter_add("journal.appends", 1);
        reg.counter_add("journal.bytes", record.len() as u64);
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
        if self.unflushed > 0 {
            marauder_obs::global().counter_add("journal.flushes", 1);
        }
        self.unflushed = 0;
        Ok(())
    }

    /// Closes the open segment (after a final sync) and starts the
    /// next one, named after the first sequence it will hold.
    fn rotate(&mut self) -> Result<(), JournalError> {
        self.sync()?;
        self.segment = None;
        self.segment_records = 0;
        let path = self.dir.join(segment_name(self.next_seq));
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
        sync_dir(&self.dir).map_err(JournalError::io(format!("sync {}", self.dir.display())))?;
        self.segment = Some(file);
        marauder_obs::global().counter_add("journal.segments", 1);
        Ok(())
    }

    /// Writes a checkpoint covering everything ingested so far. In
    /// order: the segment is synced, so a checkpoint never claims
    /// frames that are not yet durable; the windows of `closed` not
    /// yet in the closed-window log are appended to it and the log is
    /// synced; then the checkpoint document goes to
    /// `checkpoint-<next_seq>.ckpt` via the atomic temp-file + rename
    /// helper. After a successful write, checkpoints older than the
    /// newest [`RETAINED_CHECKPOINTS`] are pruned (best-effort: a
    /// failed unlink never fails the checkpoint that just succeeded).
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
        let fresh = closed
            .get(self.closed_persisted..)
            .ok_or(JournalError::ClosedWindowsLost {
                persisted: self.closed_persisted,
                given: closed.len(),
            })?;
        let mut log_bytes = 0;
        if !fresh.is_empty() {
            let mut records = Vec::new();
            for c in fresh {
                push_record(&mut records, &encode_closed(c));
            }
            log_bytes = self.append_closed(&records)?;
            self.closed_crc = crc32_update(self.closed_crc, &records);
            self.closed_persisted = closed.len();
        }
        let doc = checkpoint_document(
            engine,
            self.next_seq,
            self.closed_persisted,
            self.closed_crc,
        );
        let path = self.dir.join(checkpoint_name(self.next_seq));
        write_atomic(&path, &doc).map_err(JournalError::io(format!("write {}", path.display())))?;
        self.checkpointed_seq = self.next_seq;
        let reg = marauder_obs::global();
        reg.counter_add("journal.checkpoints", 1);
        reg.counter_add("journal.checkpoint_bytes", (log_bytes + doc.len()) as u64);
        if let Ok((_, checkpoints)) = list_journal_files(&self.dir) {
            let excess = checkpoints.len().saturating_sub(RETAINED_CHECKPOINTS);
            for (_, name) in &checkpoints[..excess] {
                if std::fs::remove_file(self.dir.join(name)).is_ok() {
                    reg.counter_add("journal.checkpoints_pruned", 1);
                }
            }
        }
        Ok(())
    }

    /// Appends encoded records to the closed-window log, creating it
    /// (header written, directory synced) on first use, and syncs it.
    /// Returns the bytes written.
    fn append_closed(&mut self, records: &[u8]) -> Result<usize, JournalError> {
        let mut written = records.len();
        let log = match self.closed_log.take() {
            Some(log) => log,
            None => {
                let path = self.dir.join(CLOSED_LOG);
                let mut log = OpenOptions::new()
                    .create_new(true)
                    .append(true)
                    .open(&path)
                    .map_err(JournalError::io(format!("create {}", path.display())))?;
                log.write_all(&CLOSED_LOG_MAGIC)
                    .map_err(JournalError::io("write closed-window log header"))?;
                sync_dir(&self.dir)
                    .map_err(JournalError::io(format!("sync {}", self.dir.display())))?;
                written += CLOSED_LOG_MAGIC.len();
                log
            }
        };
        let log = self.closed_log.insert(log);
        log.write_all(records)
            .map_err(JournalError::io("append closed-window log"))?;
        log.sync_data()
            .map_err(JournalError::io("sync closed-window log"))?;
        Ok(written)
    }

    /// Frames covered by the newest checkpoint this handle wrote.
    pub fn checkpointed_seq(&self) -> u64 {
        self.checkpointed_seq
    }

    /// Rebuilds engine state from the journal in `dir`: restores the
    /// newest checkpoint that opens and agrees with the closed-window
    /// log (skipping, not failing on, the others — the journal itself
    /// is authoritative) and replays the journal tail through the
    /// engine. A partial final record — the signature of a crash
    /// mid-append — is truncated away and reported, not an error. The
    /// closed-window log is cut back to the windows the restored
    /// checkpoint covers; the replay closes the rest again.
    ///
    /// `config`'s `live_localization`/`warm_start` are applied to the
    /// rebuilt engine (they are process configuration, never
    /// serialized); its windowing knobs are used only when recovering
    /// from scratch — a restored checkpoint carries its own.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Io`] on filesystem failures and
    /// [`RecoveryError::Corrupt`] for a damaged record anywhere but
    /// the journal's physical tail.
    pub fn recover(
        dir: &Path,
        map: MaraudersMap,
        config: StreamConfig,
    ) -> Result<Recovery, RecoveryError> {
        let (segments, mut checkpoints) = list_journal_files(dir)
            .map_err(RecoveryError::io(format!("scan {}", dir.display())))?;
        let mut report = RecoveryReport::default();
        let log = scan_closed_log(&dir.join(CLOSED_LOG), map.config().window_s)?;

        // Newest checkpoint that opens and whose closed-window records
        // are intact wins; the rest are skipped.
        let mut restored: Option<Checkpoint> = None;
        checkpoints.reverse();
        for (seq, name) in &checkpoints {
            let path = dir.join(name);
            let Ok(doc) = std::fs::read(&path) else {
                report.checkpoints_skipped += 1;
                continue;
            };
            match open_checkpoint(&doc, map.clone()) {
                // A checkpoint whose file name disagrees with its
                // `covers` field, or whose log records are damaged or
                // gone, is as untrustworthy as one that fails to open.
                Ok(ckpt)
                    if ckpt.covers == *seq
                        && log.prefix.get(ckpt.closed).map(|&(_, crc)| crc)
                            == Some(ckpt.closed_crc) =>
                {
                    report.checkpoint_seq = Some(ckpt.covers);
                    restored = Some(ckpt);
                    break;
                }
                Ok(_) | Err(_) => report.checkpoints_skipped += 1,
            }
        }
        let (mut engine, closed_persisted, closed_crc, start_seq) = match restored {
            Some(c) => (c.engine, c.closed, c.closed_crc, c.covers),
            None => (StreamEngine::new(map, config.clone()), 0, 0, 0),
        };
        engine.set_mode(config.live_localization, config.warm_start);
        let mut closed = log.windows;
        closed.truncate(closed_persisted);

        // Replay the tail: walk segments in order, skipping any whose
        // entire range the checkpoint already covers.
        let mut next_seq = start_seq;
        let mut tail_torn = 0u64;
        let mut tail_crcs: Vec<u32> = Vec::new();
        let mut final_removed = false;
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
            for (seq, crc, frame) in scan.frames {
                if seq != next_seq && seq >= start_seq {
                    return Err(RecoveryError::Corrupt {
                        segment: name.clone(),
                        offset: 0,
                        reason: format!("record sequence {seq} where {next_seq} was expected"),
                    });
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
                        .map_err(RecoveryError::io(format!("remove {}", path.display())))?;
                    final_removed = true;
                } else if scan.torn_bytes > 0 {
                    // Physically truncate the torn tail so the journal
                    // can be appended to from a clean record boundary.
                    let file = OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .map_err(RecoveryError::io(format!("reopen {}", path.display())))?;
                    file.set_len(scan.valid_len)
                        .map_err(RecoveryError::io(format!("truncate {}", path.display())))?;
                }
            }
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
                    .map_err(RecoveryError::io(format!("reopen {}", path.display())))?;
                file.seek(SeekFrom::End(0))
                    .map_err(RecoveryError::io("seek to end"))?;
                (Some(file), (next_seq - first_seq) as usize)
            }
            None => (None, 0),
        };

        // Cut the closed-window log back to exactly the restored
        // checkpoint's records: the tail replay closed the windows past
        // them again, and the next checkpoint appends them anew.
        let closed_log = match log.prefix.get(closed_persisted) {
            Some(&(len, _)) if log.intact => {
                let path = dir.join(CLOSED_LOG);
                let file = OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(RecoveryError::io(format!("reopen {}", path.display())))?;
                file.set_len(len)
                    .map_err(RecoveryError::io(format!("truncate {}", path.display())))?;
                Some(file)
            }
            _ => None,
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
                dir: dir.to_path_buf(),
                config: JournalConfig::default(),
                segment,
                segment_records,
                next_seq,
                unflushed: 0,
                checkpointed_seq: start_seq,
                closed_log,
                closed_persisted,
                closed_crc,
            },
            engine,
            closed,
            next_seq,
            tail_crcs,
            report,
        })
    }
}

impl FrameJournal {
    /// Replaces the journal's rotation/flush configuration (used after
    /// [`recover`](Self::recover), which resumes with the defaults).
    pub fn set_config(&mut self, config: JournalConfig) {
        self.config = config;
    }
}

/// `(number, file_name)` pairs, ascending by number: segments first,
/// checkpoints second.
type JournalFiles = (Vec<(u64, String)>, Vec<(u64, String)>);

/// Lists `(number, file_name)` for segments and checkpoints in `dir`,
/// each sorted ascending by number. Foreign files are ignored.
fn list_journal_files(dir: &Path) -> std::io::Result<JournalFiles> {
    let mut segments = Vec::new();
    let mut checkpoints = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = match entry.file_name().into_string() {
            Ok(n) => n,
            Err(_) => continue,
        };
        if let Some(seq) = parse_numbered(&name, "segment-", ".wal") {
            segments.push((seq, name));
        } else if let Some(seq) = parse_numbered(&name, "checkpoint-", ".ckpt") {
            checkpoints.push((seq, name));
        }
    }
    segments.sort();
    checkpoints.sort();
    Ok((segments, checkpoints))
}

/// Walks `len:u32be crc:u32be payload[len]` records — the framing of
/// segments and the closed-window log alike — yielding
/// `(offset, crc, payload)` for each intact one. The walk ends at the
/// end of the bytes or at the first record that is short, has an
/// implausible length, or fails its CRC; `pos` is then the offset just
/// past the last intact record and `damage` says what stopped it.
struct Records<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Smallest plausible payload length.
    min_len: usize,
    damage: Option<String>,
}

impl<'a> Records<'a> {
    fn new(bytes: &'a [u8], start: usize, min_len: usize) -> Self {
        Records {
            bytes,
            pos: start,
            min_len,
            damage: None,
        }
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = (usize, u32, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let rest = &self.bytes[self.pos..];
        if rest.is_empty() || self.damage.is_some() {
            return None; // clean end on a record boundary, or stopped
        }
        let Some((header, body)) = rest.split_first_chunk::<8>() else {
            self.damage = Some("short record header".into());
            return None;
        };
        let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
        if len > MAX_RECORD_LEN || (len as usize) < self.min_len {
            self.damage = Some(format!("implausible record length {len}"));
            return None;
        }
        let Some(payload) = body.get(..len as usize) else {
            self.damage = Some("record extends past end of file".into());
            return None;
        };
        if crc32(payload) != crc {
            self.damage = Some("checksum mismatch".into());
            return None;
        }
        let offset = self.pos;
        self.pos += RECORD_HEADER_LEN as usize + payload.len();
        Some((offset, crc, payload))
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
/// [`RecoveryError::Corrupt`].
fn scan_segment(
    path: &Path,
    name: &str,
    expect_first_seq: u64,
    is_final: bool,
) -> Result<SegmentScan, RecoveryError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(RecoveryError::io(format!("read {}", path.display())))?;
    let corrupt = |offset: u64, reason: String| RecoveryError::Corrupt {
        segment: name.to_string(),
        offset,
        reason,
    };
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
        return Err(corrupt(0, "bad segment header".into()));
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
                return Err(corrupt(offset as u64, format!("undecodable frame: {e:?}")));
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
        return Err(corrupt(records.pos as u64, reason));
    }
    Ok(SegmentScan {
        frames,
        valid_len: records.pos as u64,
        torn_bytes: (bytes.len() - records.pos) as u64,
    })
}

/// The intact prefix of the closed-window log.
struct ClosedLogScan {
    /// Whether a log with an intact header exists.
    intact: bool,
    /// Its intact records, decoded, in log order.
    windows: Vec<ClosedWindow>,
    /// `prefix[k]`: the byte length and running CRC-32 of the log's
    /// first `k` records (`prefix[0]` is the bare header).
    prefix: Vec<(u64, u32)>,
}

/// Reads the closed-window log up to its first damaged record. Damage
/// is never an error: a checkpoint that needs records past it is
/// skipped. A log whose header is torn holds nothing usable and is
/// deleted, as a headerless final segment is; the next checkpoint
/// creates a fresh one.
fn scan_closed_log(path: &Path, window_s: f64) -> Result<ClosedLogScan, RecoveryError> {
    let header_len = CLOSED_LOG_MAGIC.len();
    let mut scan = ClosedLogScan {
        intact: false,
        windows: Vec::new(),
        prefix: vec![(header_len as u64, 0)],
    };
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(scan),
        Err(e) => return Err(RecoveryError::io(format!("read {}", path.display()))(e)),
    };
    if !bytes.starts_with(&CLOSED_LOG_MAGIC) {
        std::fs::remove_file(path)
            .map_err(RecoveryError::io(format!("remove {}", path.display())))?;
        return Ok(scan);
    }
    scan.intact = true;
    let mut crc = 0;
    for (offset, _, payload) in Records::new(&bytes, header_len, MIN_CLOSED_LEN) {
        let Some(window) = decode_closed(payload, window_s) else {
            break;
        };
        let end = offset + RECORD_HEADER_LEN as usize + payload.len();
        crc = crc32_update(crc, &bytes[offset..end]);
        scan.windows.push(window);
        scan.prefix.push((end as u64, crc));
    }
    Ok(scan)
}

/// Seals the checkpoint document: `covers`, the closed-window log
/// records covered and their running CRC, then the engine state.
pub(crate) fn checkpoint_document(
    engine: &StreamEngine,
    covers: u64,
    closed: usize,
    crc: u32,
) -> Vec<u8> {
    persist::seal(DocKind::JournalCheckpoint, |out| {
        covers.put(out);
        closed.put(out);
        crc.put(out);
        engine.encode_state(out);
    })
}

/// An opened checkpoint document.
pub(crate) struct Checkpoint {
    engine: StreamEngine,
    /// Frames covered.
    covers: u64,
    /// Closed-window log records covered.
    closed: usize,
    /// Running CRC-32 of those records.
    closed_crc: u32,
}

/// Opens a checkpoint document, restoring its engine over `map`.
pub(crate) fn open_checkpoint(doc: &[u8], map: MaraudersMap) -> Result<Checkpoint, PersistError> {
    persist::open(doc, DocKind::JournalCheckpoint, |r| {
        Ok(Checkpoint {
            covers: r.get()?,
            closed: r.get()?,
            closed_crc: r.get()?,
            engine: StreamEngine::decode_state(map, r)?,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamConfig;
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
        let (segments, _) = list_journal_files(&dir).unwrap();
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
        let (_, checkpoints) = list_journal_files(&dir).unwrap();
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
        let (_, checkpoints) = list_journal_files(&dir).unwrap();
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
        let (segments, _) = list_journal_files(&dir).unwrap();
        assert!(segments.len() >= 3);
        let first = dir.join(&segments[0].1);
        let mut bytes = std::fs::read(&first).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0xFF;
        std::fs::write(&first, &bytes).unwrap();
        let err = FrameJournal::recover(&dir, map(), lazy()).unwrap_err();
        assert!(
            matches!(err, RecoveryError::Corrupt { .. }),
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
        let (segments, _) = list_journal_files(&dir).unwrap();
        for (_, name) in segments {
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
                push_record(&mut records, &encode_closed(c));
            }
            assert_eq!(*len, records.len() as u64);
        }
        assert!(log_lens[0].0 > 0 && log_lens[1].0 > log_lens[0].0);
        // The checkpoint document carries counts, not the windows.
        let doc = std::fs::read(dir.join(checkpoint_name(30))).unwrap();
        let ckpt = open_checkpoint(&doc, map()).unwrap();
        assert_eq!((ckpt.covers, ckpt.closed), (30, closed.len()));
        assert_eq!(
            doc,
            checkpoint_document(&engine, 30, closed.len(), ckpt.closed_crc)
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
        assert!(
            std::fs::metadata(dir.join(CLOSED_LOG)).unwrap().len() < logged,
            "the log must be cut back to the restored checkpoint"
        );
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
        for flush in [FlushPolicy::EveryN(4), FlushPolicy::OnRotate] {
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
}
