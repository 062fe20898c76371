//! Periodic fleet checkpoints and supervised restart.
//!
//! A long campaign must survive an aggregator crash without losing a
//! single closed window. This module writes the aggregator's full
//! merge state — engine, per-node sequence cursors, release gate, and
//! every window closed so far — to an atomically-renamed checkpoint
//! file on a *stream-time* cadence, and restores the newest valid one
//! on restart. Rejoining nodes fast-forward through the aggregator's
//! `resume_seq`, replaying exactly the frames the checkpoint had not
//! yet absorbed, so the resumed run closes every window the interrupted
//! run would have.
//!
//! Cadence is keyed on [`Aggregator::fleet_watermark`] rather than the
//! wall clock: identical message sequences checkpoint at identical
//! points, which keeps crash-recovery tests bit-exact.

use crate::aggregator::{Aggregator, FleetConfig};
use marauder_core::MaraudersMap;
use marauder_stream::persist::{self, decode_closed, encode_closed, DocKind, Field, PersistError};
use marauder_stream::{write_atomic, ClosedWindow, RETAINED_CHECKPOINTS};
use std::fmt;
use std::path::{Path, PathBuf};

/// Filename extension of checkpoint files in a checkpoint directory.
const CHECKPOINT_SUFFIX: &str = ".ckpt";

/// Errors from writing or restoring fleet checkpoints.
///
/// Damage inside an individual checkpoint file is not an error while
/// an older file restores: [`restore_latest`] skips damaged files
/// newest-first.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the checkpointer was doing.
        op: &'static str,
        /// The OS error.
        source: std::io::Error,
    },
    /// The directory holds checkpoint files and none of them restores.
    /// Starting fresh here would silently drop every window they
    /// carried, so the operator must move them aside to do that.
    NoUsableCheckpoint {
        /// The checkpoint directory.
        dir: PathBuf,
        /// Checkpoint files found, every one skipped.
        skipped: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { op, source } => {
                write!(f, "fleet checkpoint {op}: {source}")
            }
            CheckpointError::NoUsableCheckpoint { dir, skipped } => write!(
                f,
                "none of the {skipped} fleet checkpoint file(s) in {} restores (damaged, or \
                 written by another format version); move them aside to start a fresh campaign",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            CheckpointError::NoUsableCheckpoint { .. } => None,
        }
    }
}

fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> CheckpointError {
    move |source| CheckpointError::Io { op, source }
}

/// Writes periodic checkpoints of an [`Aggregator`] plus the closed
/// windows accumulated so far.
///
/// Files are named `fleet-<n>.ckpt` with a zero-padded monotone
/// counter, so lexicographic order is write order; each is produced
/// with [`write_atomic`], so a crash mid-write leaves either the old
/// file set or the new one, never a torn checkpoint.
///
/// Every checkpoint is a *full-state* sealed document — the merge and
/// engine state plus the complete closed-window list — so its size
/// grows with campaign length. To keep a long campaign's directory (and
/// summed write cost) bounded, only the newest [`RETAINED_CHECKPOINTS`]
/// files are kept; older ones are pruned after each successful write.
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    every_s: f64,
    /// Fleet watermark at the last checkpoint; `-inf` before the first.
    last_mark: f64,
    next_index: u64,
}

impl Checkpointer {
    /// Opens (creating if needed) a checkpoint directory, continuing
    /// the file counter past any checkpoints already present.
    ///
    /// `every_s` is the minimum *stream-time* advance of the fleet
    /// watermark between checkpoints.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory cannot be created or
    /// listed.
    pub fn new(dir: &Path, every_s: f64) -> Result<Self, CheckpointError> {
        std::fs::create_dir_all(dir).map_err(io_err("create checkpoint dir"))?;
        let next_index = match list_checkpoints(dir)?.last() {
            Some((n, _)) => n + 1,
            None => 0,
        };
        Ok(Checkpointer {
            dir: dir.to_path_buf(),
            every_s,
            last_mark: f64::NEG_INFINITY,
            next_index,
        })
    }

    /// The directory checkpoints are written to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoints if the fleet watermark has advanced by at least the
    /// configured cadence since the last checkpoint (the first finite
    /// watermark always triggers one). Returns whether a checkpoint was
    /// written.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the checkpoint cannot be written.
    pub fn maybe_checkpoint(
        &mut self,
        aggregator: &Aggregator,
        closed: &[ClosedWindow],
    ) -> Result<bool, CheckpointError> {
        let wm = aggregator.fleet_watermark();
        if !checkpoint_due(self.last_mark, wm, self.every_s) {
            return Ok(false);
        }
        self.checkpoint_now(aggregator, closed)?;
        Ok(true)
    }

    /// Unconditionally writes a checkpoint capturing `aggregator` and
    /// the complete list of windows closed so far.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the checkpoint cannot be written.
    pub fn checkpoint_now(
        &mut self,
        aggregator: &Aggregator,
        closed: &[ClosedWindow],
    ) -> Result<(), CheckpointError> {
        let doc = checkpoint_document(aggregator, closed);
        let name = checkpoint_name(self.next_index);
        write_atomic(&self.dir.join(name), &doc).map_err(io_err("write checkpoint"))?;
        self.next_index += 1;
        // A NaN watermark must never be stored: with `last_mark = NaN`
        // both the `is_finite` and `< 0.0` cadence arms go false, which
        // would silently disable checkpointing for the rest of the
        // campaign. Keep the previous mark instead.
        let wm = aggregator.fleet_watermark();
        if !wm.is_nan() {
            self.last_mark = wm;
        }
        let reg = marauder_obs::global();
        reg.counter_add("fleet.checkpoints", 1);
        reg.counter_add("fleet.checkpoint_bytes", doc.len() as u64);
        self.prune();
        Ok(())
    }

    /// Removes checkpoint files older than the newest
    /// [`RETAINED_CHECKPOINTS`]. Best-effort: a failed unlink never
    /// fails the checkpoint that just succeeded.
    fn prune(&self) {
        let Ok(files) = list_checkpoints(&self.dir) else {
            return;
        };
        let excess = files.len().saturating_sub(RETAINED_CHECKPOINTS);
        for (_, path) in &files[..excess] {
            if std::fs::remove_file(path).is_ok() {
                marauder_obs::global().counter_add("fleet.checkpoints_pruned", 1);
            }
        }
    }
}

/// Whether the checkpoint cadence is due at fleet watermark `wm`.
///
/// `last_mark` is `-inf` before the first checkpoint, `+inf` once the
/// completion checkpoint is on disk, and finite otherwise. A
/// non-finite `wm` triggers nothing except the `+inf` completion case;
/// NaN in particular must neither trigger nor (see
/// [`Checkpointer::checkpoint_now`]) ever be stored as `last_mark`.
fn checkpoint_due(last_mark: f64, wm: f64, every_s: f64) -> bool {
    if wm.is_nan() || (wm.is_infinite() && wm.is_sign_negative()) {
        return false; // NaN or -inf: nothing meaningful to record
    }
    if last_mark.is_finite() {
        wm >= last_mark + every_s
    } else {
        // `-inf` (or a poisoned NaN, which cannot arise but must not
        // wedge the cadence) means never checkpointed: take the first
        // usable watermark. `+inf` means the completion checkpoint is
        // already on disk: nothing further to record.
        !(last_mark.is_infinite() && last_mark.is_sign_positive())
    }
}

/// What [`restore_latest`] recovered.
pub struct FleetRestore {
    /// The aggregator, rebuilt at checkpoint state; rejoining nodes
    /// fast-forward through its `resume_seq` handshake.
    pub aggregator: Aggregator,
    /// Every window the interrupted run had closed by checkpoint time.
    /// Feed these plus the resumed run's windows to
    /// [`Aggregator::batch_fixes`].
    pub closed: Vec<ClosedWindow>,
    /// The checkpoint file that was restored.
    pub file: PathBuf,
    /// Newer checkpoint files that were skipped as damaged.
    pub skipped: usize,
}

/// Restores the newest valid checkpoint in `dir`, skipping damaged
/// files (truncated, corrupted, or from a different format version)
/// newest-first. Returns `None` when the directory holds no checkpoint
/// file — the caller starts a fresh campaign.
///
/// # Errors
///
/// [`CheckpointError::Io`] when the directory itself cannot be listed,
/// and [`CheckpointError::NoUsableCheckpoint`] when it holds checkpoint
/// files but none restores.
pub fn restore_latest(
    dir: &Path,
    map: &MaraudersMap,
    config: &FleetConfig,
) -> Result<Option<FleetRestore>, CheckpointError> {
    let reg = marauder_obs::global();
    let mut skipped = 0usize;
    let files = list_checkpoints(dir)?;
    for (_, path) in files.iter().rev() {
        let Ok(doc) = std::fs::read(path) else {
            skipped += 1;
            continue;
        };
        match open_checkpoint(&doc, map.clone(), config.clone()) {
            Ok((aggregator, closed)) => {
                reg.counter_add("fleet.restores", 1);
                reg.counter_add("fleet.checkpoints_skipped", skipped as u64);
                return Ok(Some(FleetRestore {
                    aggregator,
                    closed,
                    file: path.clone(),
                    skipped,
                }));
            }
            Err(_) => skipped += 1,
        }
    }
    reg.counter_add("fleet.checkpoints_skipped", skipped as u64);
    if skipped > 0 {
        return Err(CheckpointError::NoUsableCheckpoint {
            dir: dir.to_path_buf(),
            skipped,
        });
    }
    Ok(None)
}

fn checkpoint_name(index: u64) -> String {
    format!("fleet-{index:020}{CHECKPOINT_SUFFIX}")
}

/// Numbered checkpoint files in `dir`, sorted ascending by index.
fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(io_err("list checkpoint dir"))?;
    for entry in entries {
        let entry = entry.map_err(io_err("list checkpoint dir"))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix("fleet-")
            .and_then(|s| s.strip_suffix(CHECKPOINT_SUFFIX))
        else {
            continue;
        };
        if let Ok(n) = stem.parse::<u64>() {
            out.push((n, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Seals the checkpoint document: every closed window in the
/// closed-window codec, then the merge state.
fn checkpoint_document(aggregator: &Aggregator, closed: &[ClosedWindow]) -> Vec<u8> {
    persist::seal(DocKind::FleetCheckpoint, |out| {
        closed
            .iter()
            .map(encode_closed)
            .collect::<Vec<_>>()
            .put(out);
        aggregator.encode_state(out);
    })
}

/// Opens a checkpoint document into an aggregator and its closed
/// windows.
fn open_checkpoint(
    doc: &[u8],
    map: MaraudersMap,
    config: FleetConfig,
) -> Result<(Aggregator, Vec<ClosedWindow>), PersistError> {
    let window_s = map.config().window_s;
    persist::open(doc, DocKind::FleetCheckpoint, |r| {
        let payloads: Vec<Vec<u8>> = r.get()?;
        let closed = payloads
            .iter()
            .map(|p| decode_closed(p, window_s).ok_or_else(|| r.malformed("bad closed window")))
            .collect::<Result<_, _>>()?;
        Ok((Aggregator::decode_state(map, config, r)?, closed))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Message, PROTOCOL_VERSION};
    use marauder_core::apdb::{ApDatabase, ApRecord};
    use marauder_core::pipeline::{AttackConfig, KnowledgeLevel};
    use marauder_geo::Point;
    use marauder_stream::StreamConfig;
    use marauder_wifi::channel::Channel;
    use marauder_wifi::sniffer::CapturedFrame;
    use marauder_wifi::ssid::Ssid;
    use marauder_wifi::{Frame, MacAddr};

    fn map() -> MaraudersMap {
        let db: ApDatabase = [
            (100u64, Point::new(0.0, 0.0)),
            (101, Point::new(100.0, 0.0)),
            (102, Point::new(50.0, 80.0)),
        ]
        .into_iter()
        .map(|(i, p)| ApRecord {
            bssid: MacAddr::from_index(i),
            ssid: None,
            location: p,
            radius: Some(120.0),
        })
        .collect();
        MaraudersMap::new(db, KnowledgeLevel::Full, AttackConfig::default())
    }

    fn config() -> FleetConfig {
        FleetConfig {
            stream: StreamConfig {
                live_localization: false,
                ..StreamConfig::default()
            },
            expected_nodes: 1,
            ..FleetConfig::default()
        }
    }

    fn hello(id: u32) -> Message {
        Message::Hello {
            node_id: id,
            clock_offset_s: 0.0,
            version: PROTOCOL_VERSION,
            wants_snapshot: false,
        }
    }

    fn response(t: f64, ap: u64, mobile: u64) -> CapturedFrame {
        CapturedFrame {
            time_s: t,
            card: 0,
            frame: Frame::probe_response(
                MacAddr::from_index(ap),
                MacAddr::from_index(mobile),
                Ssid::new("x").expect("valid ssid"),
                Channel::bg(6).expect("valid channel"),
            ),
        }
    }

    fn driven_aggregator(n_frames: usize) -> (Aggregator, Vec<ClosedWindow>) {
        let mut agg = Aggregator::new(map(), config());
        let mut closed = Vec::new();
        closed.extend(agg.on_message(&hello(1)).expect("hello").closed);
        let frames: Vec<CapturedFrame> = (0..n_frames)
            .map(|k| response(k as f64 * 7.0, 100 + (k as u64 % 3), 0x50 + (k as u64 % 2)))
            .collect();
        let last_t = (n_frames as f64 - 1.0) * 7.0;
        closed.extend(
            agg.on_message(&Message::FrameBatch {
                node_id: 1,
                seq: 0,
                frames,
            })
            .expect("batch")
            .closed,
        );
        closed.extend(
            agg.on_message(&Message::Heartbeat {
                node_id: 1,
                watermark_s: last_t,
            })
            .expect("heartbeat")
            .closed,
        );
        (agg, closed)
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("marauder-fleet-ckpt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn checkpoint_round_trips_closed_windows_and_state() {
        let dir = temp_dir("roundtrip");
        let (agg, closed) = driven_aggregator(40);
        assert!(!closed.is_empty(), "scenario closes windows");
        let mut cp = Checkpointer::new(&dir, 30.0).expect("checkpointer");
        cp.checkpoint_now(&agg, &closed).expect("checkpoint");

        let restored = restore_latest(&dir, &map(), &config())
            .expect("restore")
            .expect("a checkpoint exists");
        assert_eq!(restored.skipped, 0);
        assert_eq!(restored.closed.len(), closed.len());
        for (a, b) in restored.closed.iter().zip(&closed) {
            assert_eq!(a.window, b.window);
            assert_eq!(a.window_start_s.to_bits(), b.window_start_s.to_bits());
            assert_eq!(a.mobile, b.mobile);
            assert_eq!(a.gamma, b.gamma);
        }
        assert_eq!(restored.aggregator.snapshot(), agg.snapshot());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn damaged_newest_checkpoint_is_skipped() {
        let dir = temp_dir("skip");
        let (agg, closed) = driven_aggregator(40);
        let mut cp = Checkpointer::new(&dir, 30.0).expect("checkpointer");
        cp.checkpoint_now(&agg, &closed).expect("first checkpoint");
        cp.checkpoint_now(&agg, &closed).expect("second checkpoint");
        // Truncate the newest file mid-document.
        let newest = dir.join(checkpoint_name(1));
        let doc = std::fs::read(&newest).expect("read newest");
        std::fs::write(&newest, &doc[..doc.len() / 2]).expect("truncate");

        let restored = restore_latest(&dir, &map(), &config())
            .expect("restore")
            .expect("older checkpoint survives");
        assert_eq!(restored.skipped, 1);
        assert_eq!(restored.file, dir.join(checkpoint_name(0)));
        assert_eq!(restored.aggregator.snapshot(), agg.snapshot());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn empty_directory_restores_nothing() {
        let dir = temp_dir("empty");
        assert!(restore_latest(&dir, &map(), &config())
            .expect("restore")
            .is_none());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_directory_where_no_checkpoint_restores_is_a_typed_error() {
        let dir = temp_dir("unusable");
        let (agg, closed) = driven_aggregator(40);
        let mut damaged = checkpoint_document(&agg, &closed);
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x01;
        // A damaged file, or the text format an older build wrote.
        let text = b"# marauder fleet checkpoint v1\nfleet 0\nend 0\n".to_vec();
        for doc in [damaged, text] {
            std::fs::write(dir.join(checkpoint_name(0)), &doc).expect("write checkpoint");
            let err = restore_latest(&dir, &map(), &config())
                .err()
                .expect("a lone unusable checkpoint must not start a fresh campaign");
            assert!(
                matches!(&err, CheckpointError::NoUsableCheckpoint { dir: d, skipped: 1 } if *d == dir),
                "{err}"
            );
            assert!(err.to_string().contains("move them aside"), "{err}");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Every truncation and every single-bit flip of `doc` must be a
    /// typed error from `open_doc`: never `Ok`, never a panic.
    fn assert_every_damage_is_typed<T>(
        doc: &[u8],
        open_doc: impl Fn(&[u8]) -> Result<T, PersistError>,
    ) {
        assert!(open_doc(doc).is_ok(), "the undamaged document opens");
        for cut in 0..doc.len() {
            assert!(open_doc(&doc[..cut]).is_err(), "cut to {cut} bytes opened");
        }
        let mut damaged = doc.to_vec();
        for pos in 0..doc.len() {
            for bit in 0..8 {
                damaged[pos] ^= 1 << bit;
                assert!(
                    open_doc(&damaged).is_err(),
                    "byte {pos} bit {bit} flipped and the document opened"
                );
                damaged[pos] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_fleet_persist_document_is_a_typed_error() {
        let (agg, closed) = driven_aggregator(40);
        assert!(!closed.is_empty());
        assert_every_damage_is_typed(&agg.snapshot(), |d| Aggregator::restore(map(), config(), d));
        assert_every_damage_is_typed(&checkpoint_document(&agg, &closed), |d| {
            open_checkpoint(d, map(), config())
        });
    }

    #[test]
    fn cadence_ignores_nan_and_negative_infinity_watermarks() {
        // NaN must neither trigger a checkpoint (it would then be
        // stored as last_mark, wedging the cadence forever) nor arm it.
        assert!(!checkpoint_due(f64::NEG_INFINITY, f64::NAN, 30.0));
        assert!(!checkpoint_due(10.0, f64::NAN, 30.0));
        assert!(!checkpoint_due(f64::NEG_INFINITY, f64::NEG_INFINITY, 30.0));
        // First finite watermark always triggers.
        assert!(checkpoint_due(f64::NEG_INFINITY, 0.0, 30.0));
        // Finite cadence.
        assert!(!checkpoint_due(10.0, 39.0, 30.0));
        assert!(checkpoint_due(10.0, 40.0, 30.0));
        // +inf = stream complete: one final checkpoint, then quiet.
        assert!(checkpoint_due(10.0, f64::INFINITY, 30.0));
        assert!(!checkpoint_due(f64::INFINITY, f64::INFINITY, 30.0));
        // A poisoned NaN last_mark heals instead of wedging.
        assert!(checkpoint_due(f64::NAN, 10.0, 30.0));
    }

    #[test]
    fn nan_watermark_is_never_stored_as_last_mark() {
        let dir = temp_dir("nanmark");
        let (agg, closed) = driven_aggregator(40);
        let mut cp = Checkpointer::new(&dir, 30.0).expect("checkpointer");
        cp.last_mark = f64::NAN;
        // A finite watermark still checkpoints and repairs the mark.
        assert!(cp.maybe_checkpoint(&agg, &closed).expect("checkpoint"));
        assert!(cp.last_mark.is_finite());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn old_checkpoints_are_pruned_to_retention() {
        let dir = temp_dir("prune");
        let (agg, closed) = driven_aggregator(40);
        let mut cp = Checkpointer::new(&dir, 30.0).expect("checkpointer");
        for _ in 0..RETAINED_CHECKPOINTS + 3 {
            cp.checkpoint_now(&agg, &closed).expect("checkpoint");
        }
        let files = list_checkpoints(&dir).expect("list");
        assert_eq!(files.len(), RETAINED_CHECKPOINTS);
        // The newest survive, and restore still works.
        assert_eq!(files.last().unwrap().0, RETAINED_CHECKPOINTS as u64 + 2);
        let restored = restore_latest(&dir, &map(), &config())
            .expect("restore")
            .expect("a checkpoint exists");
        assert_eq!(restored.aggregator.snapshot(), agg.snapshot());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn checkpointer_continues_numbering_and_respects_cadence() {
        let dir = temp_dir("cadence");
        let (agg, closed) = driven_aggregator(40);
        let mut cp = Checkpointer::new(&dir, 1e9).expect("checkpointer");
        // First finite watermark always checkpoints; the huge cadence
        // then suppresses the second attempt.
        assert!(cp.maybe_checkpoint(&agg, &closed).expect("first"));
        assert!(!cp.maybe_checkpoint(&agg, &closed).expect("second"));

        // A new checkpointer over the same directory keeps counting.
        let mut cp2 = Checkpointer::new(&dir, 1e9).expect("reopen");
        cp2.checkpoint_now(&agg, &closed).expect("checkpoint");
        assert!(dir.join(checkpoint_name(1)).exists());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
