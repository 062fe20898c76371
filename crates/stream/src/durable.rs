//! One durable-state directory, shared by the frame journal and the
//! fleet aggregator: an append-only log holding every closed window
//! once, and small sealed checkpoints, each carrying the caller's
//! working state and how much of the log it covers. A checkpoint thus
//! costs the working state plus the windows closed since the previous
//! one, however long the campaign has run.
//!
//! ```text
//! closed.wal   := "MRDRCLW\x01" record*
//! record       := len:u32be crc:u32be payload[len]     (CRC-32 of payload)
//! payload      := window:i64be mobile:6B ap:6B × |Γ|   (Γ ascending)
//! <prefix><key:020>.ckpt := sealed document, body key:u64 K:u64 crc:u32 state
//! ```
//!
//! `K` is how many log records a checkpoint covers and `crc` the
//! running CRC-32 of their bytes. The document kind fixes the prefix:
//! `checkpoint-` for the journal, `fleet-` for the fleet. The write
//! order, retention and the restore rule are documented on
//! [`DurableDir`]'s methods; DESIGN.md ("Durable-state directory")
//! gives the rationale.

use crate::engine::ClosedWindow;
use crate::journal::JournalError;
use crate::persist::{
    self, crc32, crc32_update, decode_closed, encode_closed, DocKind, Field, PersistError, Reader,
    MIN_CLOSED_LEN,
};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// File name of the closed-window log inside a durable-state directory.
pub const CLOSED_LOG: &str = "closed.wal";

/// Magic bytes opening the closed-window log (its whole header); the
/// trailing byte is the binary format version.
pub const CLOSED_LOG_MAGIC: [u8; 8] = *b"MRDRCLW\x01";

/// Checkpoint files retained after each new one is written; older ones
/// are pruned. Restore only needs the newest valid checkpoint; the older
/// survivors are fallback against a torn or lost newest one.
pub const RETAINED_CHECKPOINTS: usize = 4;

/// Upper bound on a record payload. Real records are tens of bytes; a
/// length prefix beyond this is corruption, and capping it keeps a
/// flipped length byte from asking the reader to allocate gigabytes.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// Bytes of record header (length prefix + CRC) preceding the payload.
pub(crate) const RECORD_HEADER_LEN: usize = 8;

/// Filename suffix of checkpoint documents.
const CHECKPOINT_SUFFIX: &str = ".ckpt";

/// The file-name prefix of `kind`'s checkpoints.
fn checkpoint_prefix(kind: DocKind) -> &'static str {
    match kind {
        DocKind::FleetCheckpoint => "fleet-",
        _ => "checkpoint-",
    }
}

fn checkpoint_name(kind: DocKind, key: u64) -> String {
    format!("{}{key:020}{CHECKPOINT_SUFFIX}", checkpoint_prefix(kind))
}

/// Lists `(number, file_name)` for the files in `dir` named
/// `prefix<u64>suffix`, ascending by number; other files are ignored.
///
/// # Errors
///
/// Any I/O failure reading the directory.
pub fn list_numbered(
    dir: &Path,
    prefix: &str,
    suffix: &str,
) -> std::io::Result<Vec<(u64, String)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let Ok(name) = entry?.file_name().into_string() else {
            continue;
        };
        let number = name
            .strip_prefix(prefix)
            .and_then(|s| s.strip_suffix(suffix));
        if let Some(n) = number.and_then(|s| s.parse().ok()) {
            out.push((n, name));
        }
    }
    out.sort();
    Ok(out)
}

/// Lists `kind`'s checkpoint files in `dir` as [`list_numbered`] does.
pub fn list_checkpoints(dir: &Path, kind: DocKind) -> std::io::Result<Vec<(u64, String)>> {
    list_numbered(dir, checkpoint_prefix(kind), CHECKPOINT_SUFFIX)
}

/// Appends one `len crc payload` record to `out`: a header slot, the
/// payload `payload` writes in place after it, then the header.
pub(crate) fn push_record(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER_LEN]);
    payload(out);
    let (header, body) = out[start..].split_at_mut(RECORD_HEADER_LEN);
    header[..4].copy_from_slice(&(body.len() as u32).to_be_bytes());
    header[4..].copy_from_slice(&crc32(body).to_be_bytes());
}

/// Walks `len:u32be crc:u32be payload[len]` records — the framing of
/// journal segments and the closed-window log alike — yielding
/// `(offset, crc, payload)` for each intact one. The walk ends at the
/// end of the bytes or at the first record that is short, has an
/// implausible length, or fails its CRC; `pos` is then the offset just
/// past the last intact record and `damage` says what stopped it.
pub(crate) struct Records<'a> {
    bytes: &'a [u8],
    pub(crate) pos: usize,
    /// Smallest plausible payload length.
    min_len: usize,
    pub(crate) damage: Option<String>,
}

impl<'a> Records<'a> {
    pub(crate) fn new(bytes: &'a [u8], start: usize, min_len: usize) -> Self {
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
        self.pos += RECORD_HEADER_LEN + payload.len();
        Some((offset, crc, payload))
    }
}

/// What one [`DurableDir::checkpoint`] wrote, for the caller's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Written {
    /// Bytes written: the new log records (and the log header when the
    /// log was created) plus the document.
    pub bytes: u64,
    /// Older checkpoint files pruned afterwards.
    pub pruned: u64,
}

/// What [`DurableDir::restore`] found.
#[derive(Debug)]
pub struct Restored<T> {
    /// The directory, positioned after the restored checkpoint's `K`
    /// log records (after none when nothing restored).
    pub durable: DurableDir,
    /// The restored checkpoint's key and the caller's state (`None`:
    /// no checkpoint restored).
    pub checkpoint: Option<(u64, T)>,
    /// The first `K` windows of the log, in emission order.
    pub closed: Vec<ClosedWindow>,
    /// Checkpoint files that were skipped: unreadable, another kind or
    /// version, damaged, named for another key, or whose log records
    /// are damaged or gone.
    pub skipped: usize,
}

/// The closed-window log and checkpoints of one directory, open for
/// writing. DESIGN.md ("Durable-state directory") gives the layout.
#[derive(Debug)]
pub struct DurableDir {
    dir: PathBuf,
    kind: DocKind,
    /// The closed-window log, opened for append at the first append.
    log: Option<File>,
    /// Bytes of the log that are durable (0: no log yet).
    log_len: u64,
    /// Windows durable in the log.
    closed: usize,
    /// Running CRC-32 of the log's records.
    crc: u32,
}

impl DurableDir {
    /// Opens a fresh directory for `kind`'s checkpoints, creating it if
    /// missing.
    ///
    /// # Errors
    ///
    /// [`JournalError::NotEmpty`] when `dir` already holds `kind`'s
    /// checkpoints or a closed-window log (restore those instead), or
    /// [`JournalError::Io`].
    pub fn create(dir: &Path, kind: DocKind) -> Result<DurableDir, JournalError> {
        std::fs::create_dir_all(dir)
            .map_err(JournalError::io(format!("create dir {}", dir.display())))?;
        let checkpoints = list_checkpoints(dir, kind)
            .map_err(JournalError::io(format!("scan {}", dir.display())))?;
        if !checkpoints.is_empty() || dir.join(CLOSED_LOG).exists() {
            return Err(JournalError::NotEmpty {
                dir: dir.to_path_buf(),
            });
        }
        Ok(DurableDir::positioned(dir, kind, 0, 0, 0))
    }

    fn positioned(dir: &Path, kind: DocKind, log_len: u64, closed: usize, crc: u32) -> Self {
        DurableDir {
            dir: dir.to_path_buf(),
            kind,
            log: None,
            log_len,
            closed,
            crc,
        }
    }

    /// The directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes a checkpoint keyed `key`: appends the windows of `closed`
    /// not yet in the log, at its durable length, and syncs it, then
    /// writes
    /// `<prefix><key>.ckpt` atomically with `state`'s bytes as the
    /// caller's part of the body, then prunes all but the newest
    /// [`RETAINED_CHECKPOINTS`] checkpoints (best-effort: a failed
    /// unlink never fails the checkpoint that just succeeded).
    ///
    /// `closed` is every window closed so far, in emission order — the
    /// list [`Restored::closed`] starts, extended by the caller.
    ///
    /// # Errors
    ///
    /// [`JournalError::ClosedWindowsLost`] when `closed` is shorter than
    /// the windows already in the log, or [`JournalError::Io`].
    pub fn checkpoint(
        &mut self,
        key: u64,
        closed: &[ClosedWindow],
        state: impl FnOnce(&mut Vec<u8>),
    ) -> Result<Written, JournalError> {
        let fresh = closed
            .get(self.closed..)
            .ok_or(JournalError::ClosedWindowsLost {
                persisted: self.closed,
                given: closed.len(),
            })?;
        let mut bytes = 0;
        if !fresh.is_empty() {
            let mut records = Vec::new();
            for c in fresh {
                push_record(&mut records, |out| out.extend_from_slice(&encode_closed(c)));
            }
            bytes += self.append_log(&records)?;
            self.crc = crc32_update(self.crc, &records);
            self.closed = closed.len();
        }
        let doc = seal_checkpoint(self.kind, key, self.closed, self.crc, state);
        let name = checkpoint_name(self.kind, key);
        write_atomic(&self.dir, &name, &doc).map_err(JournalError::io(format!(
            "write {}",
            self.dir.join(&name).display()
        )))?;
        bytes += doc.len() as u64;
        let mut pruned = 0;
        if let Ok(checkpoints) = list_checkpoints(&self.dir, self.kind) {
            let excess = checkpoints.len().saturating_sub(RETAINED_CHECKPOINTS);
            for (_, name) in &checkpoints[..excess] {
                if std::fs::remove_file(self.dir.join(name)).is_ok() {
                    pruned += 1;
                }
            }
        }
        Ok(Written { bytes, pruned })
    }

    /// Writes `records` at the log's durable length — creating the log,
    /// header first, when there is none — and syncs it. Returns the
    /// bytes written.
    fn append_log(&mut self, records: &[u8]) -> Result<u64, JournalError> {
        let path = self.dir.join(CLOSED_LOG);
        let log = match self.log.take() {
            Some(log) => log,
            None => OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(JournalError::io(format!("open {}", path.display())))?,
        };
        let log = self.log.insert(log);
        // Cut whatever lies past the durable length: the bytes of a
        // failed append, or records no surviving checkpoint covers.
        log.set_len(self.log_len)
            .map_err(JournalError::io(format!("truncate {}", path.display())))?;
        let header: &[u8] = if self.log_len == 0 {
            &CLOSED_LOG_MAGIC
        } else {
            &[]
        };
        log.write_all(header)
            .and_then(|()| log.write_all(records))
            .and_then(|()| log.sync_data())
            .map_err(JournalError::io(format!("append {}", path.display())))?;
        if !header.is_empty() {
            sync_dir(&self.dir)
                .map_err(JournalError::io(format!("sync {}", self.dir.display())))?;
        }
        let written = (header.len() + records.len()) as u64;
        self.log_len += written;
        Ok(written)
    }

    /// Restores the newest `kind` checkpoint in `dir` that opens, whose
    /// file name matches its key, and whose `K` log records are intact
    /// with a matching running CRC, decoding the caller's part of its
    /// body with `state`; every other checkpoint is skipped and counted.
    /// What to do when nothing restores is the caller's rule.
    ///
    /// A closed-window log whose header is torn holds nothing usable and
    /// is deleted, as a headerless final journal segment is. Nothing
    /// else is written: log records past the restored `K` stay on disk
    /// until the next append cuts them.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the directory or the log cannot be
    /// read. Damage is never an error: a checkpoint it touches is
    /// skipped.
    pub fn restore<T>(
        dir: &Path,
        kind: DocKind,
        window_s: f64,
        mut state: impl FnMut(&mut Reader<'_>) -> Result<T, PersistError>,
    ) -> Result<Restored<T>, JournalError> {
        let checkpoints =
            list_checkpoints(dir, kind).map_err(JournalError::recovery("scan", dir))?;
        let log = scan_log(&dir.join(CLOSED_LOG), window_s)?;
        let mut skipped = 0;
        for (number, name) in checkpoints.iter().rev() {
            let opened = std::fs::read(dir.join(name))
                .ok()
                .and_then(|doc| open_checkpoint(&doc, kind, &mut state).ok());
            let Some((key, k, crc, value)) = opened else {
                skipped += 1;
                continue;
            };
            match log.prefix.get(k) {
                // A checkpoint whose file name disagrees with its key,
                // or whose log records are damaged or gone, is as
                // untrustworthy as one that fails to open.
                Some(&(log_len, running)) if key == *number && running == crc => {
                    let mut closed = log.windows;
                    closed.truncate(k);
                    return Ok(Restored {
                        durable: DurableDir::positioned(dir, kind, log_len, k, crc),
                        checkpoint: Some((key, value)),
                        closed,
                        skipped,
                    });
                }
                _ => skipped += 1,
            }
        }
        Ok(Restored {
            durable: DurableDir::positioned(dir, kind, log.prefix[0].0, 0, 0),
            checkpoint: None,
            closed: Vec::new(),
            skipped,
        })
    }
}

/// Seals a checkpoint document: `key`, the log records it covers and
/// their running CRC, then the caller's state.
pub(crate) fn seal_checkpoint(
    kind: DocKind,
    key: u64,
    closed: usize,
    crc: u32,
    state: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    persist::seal(kind, |out| {
        key.put(out);
        closed.put(out);
        crc.put(out);
        state(out);
    })
}

/// Opens what [`seal_checkpoint`] wrote, as `(key, K, crc, state)`.
pub(crate) fn open_checkpoint<T>(
    doc: &[u8],
    kind: DocKind,
    state: impl FnOnce(&mut Reader<'_>) -> Result<T, PersistError>,
) -> Result<(u64, usize, u32, T), PersistError> {
    persist::open(doc, kind, |r| Ok((r.get()?, r.get()?, r.get()?, state(r)?)))
}

/// The intact prefix of the closed-window log.
struct LogScan {
    /// Its intact records, decoded, in log order.
    windows: Vec<ClosedWindow>,
    /// `prefix[k]`: the byte length and running CRC-32 of the log's
    /// first `k` records; `prefix[0]` is the bare header, or 0 bytes
    /// when there is no log.
    prefix: Vec<(u64, u32)>,
}

/// Reads the closed-window log up to its first damaged record, deleting
/// a log whose header is torn.
fn scan_log(path: &Path, window_s: f64) -> Result<LogScan, JournalError> {
    let mut scan = LogScan {
        windows: Vec::new(),
        prefix: vec![(0, 0)],
    };
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(scan),
        Err(e) => return Err(JournalError::recovery("read", path)(e)),
    };
    if !bytes.starts_with(&CLOSED_LOG_MAGIC) {
        std::fs::remove_file(path).map_err(JournalError::recovery("remove", path))?;
        return Ok(scan);
    }
    let header_len = CLOSED_LOG_MAGIC.len();
    scan.prefix[0].0 = header_len as u64;
    let mut crc = 0;
    for (offset, _, payload) in Records::new(&bytes, header_len, MIN_CLOSED_LEN) {
        let Some(window) = decode_closed(payload, window_s) else {
            break;
        };
        let end = offset + RECORD_HEADER_LEN + payload.len();
        crc = crc32_update(crc, &bytes[offset..end]);
        scan.windows.push(window);
        scan.prefix.push((end as u64, crc));
    }
    Ok(scan)
}

/// Writes `contents` to `dir/name` atomically: the bytes go to a
/// temporary file in the same directory (`.{name}.tmp`), which is
/// synced and then renamed over the target, and the directory is synced
/// after the rename. A crash mid-write leaves either the old file or the
/// new one — never a torn hybrid — and a power loss cannot take the new
/// entry back.
fn write_atomic(dir: &Path, name: &str, contents: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!(".{name}.tmp"));
    let mut f = File::create(&tmp)?;
    f.write_all(contents)?;
    // The data must be durable before the rename publishes it.
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, dir.join(name))?;
    sync_dir(dir)
}

/// Syncs a directory, making the entries created or renamed in it
/// durable: fsync(2) on a file does not cover the directory entry that
/// names it.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use marauder_core::PipelineError;
    use marauder_wifi::mac::MacAddr;
    use marauder_wifi::sniffer::window_start;

    const KIND: DocKind = DocKind::FleetCheckpoint;

    fn window(k: i64) -> ClosedWindow {
        ClosedWindow {
            window: k,
            window_start_s: window_start(k, 30.0),
            mobile: MacAddr::from_index(k as u64 % 3),
            gamma: [7, 8 + k as u64 % 2].map(MacAddr::from_index).into(),
            outcome: Err(PipelineError::DeferredLocalization),
        }
    }

    fn windows(n: i64) -> Vec<ClosedWindow> {
        (0..n).map(window).collect()
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "marauder-durable-test-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Restores `dir` with a `u64` as the caller's state.
    fn restore(dir: &Path) -> Restored<u64> {
        DurableDir::restore(dir, KIND, 30.0, |r| r.get::<u64>()).unwrap()
    }

    fn keys(closed: &[ClosedWindow]) -> Vec<(i64, MacAddr)> {
        closed.iter().map(|c| (c.window, c.mobile)).collect()
    }

    fn log_records(closed: &[ClosedWindow]) -> Vec<u8> {
        let mut log = CLOSED_LOG_MAGIC.to_vec();
        for c in closed {
            push_record(&mut log, |out| out.extend_from_slice(&encode_closed(c)));
        }
        log
    }

    #[test]
    fn restore_hands_back_the_newest_state_and_a_positioned_directory() {
        let dir = scratch("positioned");
        let mut durable = DurableDir::create(&dir, KIND).unwrap();
        let state = |v: u64| move |out: &mut Vec<u8>| v.put(out);
        durable.checkpoint(0, &windows(1), state(10)).unwrap();
        let written = durable.checkpoint(1, &windows(3), state(11)).unwrap();
        drop(durable);
        let doc = std::fs::read(dir.join(checkpoint_name(KIND, 1))).unwrap();
        // The document plus the two new windows' records.
        let new_records = log_records(&windows(3)).len() - log_records(&windows(1)).len();
        assert_eq!(written.bytes, (doc.len() + new_records) as u64);
        assert_eq!(written.pruned, 0);

        let restored = restore(&dir);
        assert_eq!(restored.checkpoint, Some((1, 11)));
        assert_eq!(restored.skipped, 0);
        assert_eq!(keys(&restored.closed), keys(&windows(3)));
        let mut durable = restored.durable;
        durable.checkpoint(2, &windows(5), state(12)).unwrap();
        assert_eq!(
            std::fs::read(dir.join(CLOSED_LOG)).unwrap(),
            log_records(&windows(5))
        );
        let err = durable.checkpoint(3, &windows(4), state(13)).unwrap_err();
        assert!(
            matches!(
                err,
                JournalError::ClosedWindowsLost {
                    persisted: 5,
                    given: 4
                }
            ),
            "{err}"
        );
        assert_eq!(restore(&dir).checkpoint, Some((2, 12)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_next_append_overwrites_what_a_failed_append_left() {
        let dir = scratch("stray");
        let mut durable = DurableDir::create(&dir, KIND).unwrap();
        durable
            .checkpoint(0, &windows(2), |out| 1u64.put(out))
            .unwrap();
        let mut log = OpenOptions::new()
            .append(true)
            .open(dir.join(CLOSED_LOG))
            .unwrap();
        log.write_all(&[0xAB; 3]).unwrap();
        durable
            .checkpoint(1, &windows(4), |out| 2u64.put(out))
            .unwrap();
        assert_eq!(
            std::fs::read(dir.join(CLOSED_LOG)).unwrap(),
            log_records(&windows(4))
        );
        let restored = restore(&dir);
        assert_eq!((restored.checkpoint, restored.skipped), (Some((1, 2)), 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn another_kind_or_a_misnamed_checkpoint_is_skipped() {
        let dir = scratch("kinds");
        let mut durable = DurableDir::create(&dir, KIND).unwrap();
        durable
            .checkpoint(0, &windows(1), |out| 5u64.put(out))
            .unwrap();
        // A valid document under another key's name, and a journal
        // checkpoint under a fleet name.
        std::fs::copy(
            dir.join(checkpoint_name(KIND, 0)),
            dir.join(checkpoint_name(KIND, 6)),
        )
        .unwrap();
        let journal = seal_checkpoint(DocKind::JournalCheckpoint, 7, 0, 0, |out| 6u64.put(out));
        std::fs::write(dir.join(checkpoint_name(KIND, 7)), journal).unwrap();
        let restored = restore(&dir);
        assert_eq!((restored.checkpoint, restored.skipped), (Some((0, 5)), 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_a_directory_holding_durable_state() {
        let dir = scratch("nonempty");
        let mut durable = DurableDir::create(&dir, KIND).unwrap();
        durable
            .checkpoint(0, &windows(1), |out| 0u64.put(out))
            .unwrap();
        let err = DurableDir::create(&dir, KIND).unwrap_err();
        assert!(matches!(err, JournalError::NotEmpty { .. }), "{err}");
        // The closed-window log alone is durable state too.
        std::fs::remove_file(dir.join(checkpoint_name(KIND, 0))).unwrap();
        let err = DurableDir::create(&dir, KIND).unwrap_err();
        assert!(matches!(err, JournalError::NotEmpty { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
