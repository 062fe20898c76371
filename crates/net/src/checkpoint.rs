//! Periodic fleet checkpoints and supervised restart.
//!
//! A long campaign must survive an aggregator crash without losing a
//! single closed window. The fleet's checkpoint directory is a
//! [`DurableDir`], the one the frame journal keeps its closed windows
//! and checkpoints in: each checkpoint appends the windows closed since
//! the previous one to the closed-window log and writes the
//! aggregator's merge state — engine, per-node sequence cursors,
//! release gate — to `fleet-<n>.ckpt`, on a *stream-time* cadence.
//! [`restore_latest`] restores the newest valid one on restart.
//! Rejoining nodes fast-forward through the aggregator's `resume_seq`,
//! replaying exactly the frames the checkpoint had not yet absorbed, so
//! the resumed run closes every window the interrupted run would have.
//!
//! Cadence is keyed on [`Aggregator::fleet_watermark`] rather than the
//! wall clock: identical message sequences checkpoint at identical
//! points, which keeps crash-recovery tests bit-exact.

use crate::aggregator::{Aggregator, FleetConfig};
use marauder_core::MaraudersMap;
use marauder_stream::persist::DocKind;
use marauder_stream::{ClosedWindow, DurableDir, JournalError, RecoveryError};
use std::fmt;
use std::path::{Path, PathBuf};

/// Errors from writing or restoring fleet checkpoints.
///
/// Damage inside an individual checkpoint file is not an error while
/// an older file restores: [`restore_latest`] skips damaged files
/// newest-first.
#[derive(Debug)]
pub enum CheckpointError {
    /// Creating the directory or writing a checkpoint failed, or
    /// [`Checkpointer::new`] found durable state already there.
    Write(JournalError),
    /// Reading the directory failed.
    Read(RecoveryError),
    /// The directory holds checkpoint files and none of them restores.
    /// Starting fresh here would silently drop every window they
    /// carried, so the operator must move the directory aside to do
    /// that.
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
            CheckpointError::Write(e) => write!(f, "fleet checkpoint: {e}"),
            CheckpointError::Read(e) => write!(f, "fleet restore: {e}"),
            CheckpointError::NoUsableCheckpoint { dir, skipped } => write!(
                f,
                "none of the {skipped} fleet checkpoint file(s) in {} restores (damaged, or \
                 written by another format version); move the whole directory aside, closed.wal \
                 included, to start a fresh campaign",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Write(e) => Some(e),
            CheckpointError::Read(e) => Some(e),
            CheckpointError::NoUsableCheckpoint { .. } => None,
        }
    }
}

/// Writes periodic checkpoints of an [`Aggregator`] plus the windows
/// closed since the previous checkpoint.
///
/// Checkpoint files are named `fleet-<n>.ckpt` with a zero-padded
/// monotone counter as their key; the directory keeps the newest
/// [`RETAINED_CHECKPOINTS`](marauder_stream::RETAINED_CHECKPOINTS).
#[derive(Debug)]
pub struct Checkpointer {
    durable: DurableDir,
    every_s: f64,
    /// Fleet watermark at the last checkpoint; `-inf` before the first.
    last_mark: f64,
    next_index: u64,
}

impl Checkpointer {
    /// Opens a fresh checkpoint directory, creating it if needed.
    ///
    /// `every_s` is the minimum *stream-time* advance of the fleet
    /// watermark between checkpoints.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Write`] when the directory cannot be created
    /// or already holds checkpoints or a closed-window log (open it
    /// with [`restore_latest`] instead).
    pub fn new(dir: &Path, every_s: f64) -> Result<Self, CheckpointError> {
        let durable =
            DurableDir::create(dir, DocKind::FleetCheckpoint).map_err(CheckpointError::Write)?;
        Ok(Checkpointer::resume(durable, every_s, 0))
    }

    fn resume(durable: DurableDir, every_s: f64, next_index: u64) -> Self {
        Checkpointer {
            durable,
            every_s,
            last_mark: f64::NEG_INFINITY,
            next_index,
        }
    }

    /// The directory checkpoints are written to.
    pub fn dir(&self) -> &Path {
        self.durable.dir()
    }

    /// Checkpoints if the fleet watermark has advanced by at least the
    /// configured cadence since the last checkpoint (the first finite
    /// watermark always triggers one). Returns whether a checkpoint was
    /// written.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Write`] when the checkpoint cannot be written.
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

    /// Unconditionally writes a checkpoint capturing `aggregator`;
    /// `closed` is the complete list of windows closed so far, of which
    /// only those not yet in the closed-window log are written.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Write`] when the checkpoint cannot be written.
    pub fn checkpoint_now(
        &mut self,
        aggregator: &Aggregator,
        closed: &[ClosedWindow],
    ) -> Result<(), CheckpointError> {
        let written = self
            .durable
            .checkpoint(self.next_index, closed, |out| aggregator.encode_state(out))
            .map_err(CheckpointError::Write)?;
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
        reg.counter_add("fleet.checkpoint_bytes", written.bytes);
        if written.pruned > 0 {
            reg.counter_add("fleet.checkpoints_pruned", written.pruned);
        }
        Ok(())
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
    /// The aggregator, rebuilt at checkpoint state (fresh when nothing
    /// restored); rejoining nodes fast-forward through its `resume_seq`
    /// handshake.
    pub aggregator: Aggregator,
    /// Every window the interrupted run had closed by checkpoint time.
    /// Feed these plus the resumed run's windows to
    /// [`Aggregator::batch_fixes`], and keep passing the whole list to
    /// `checkpointer`.
    pub closed: Vec<ClosedWindow>,
    /// A checkpointer positioned after the restored checkpoint.
    pub checkpointer: Checkpointer,
    /// The restored checkpoint's key; `None` when the directory held no
    /// checkpoint file and the campaign starts fresh.
    pub key: Option<u64>,
    /// Newer checkpoint files that were skipped as damaged.
    pub skipped: usize,
}

/// Opens the checkpoint directory `dir` (created if missing) for a
/// campaign checkpointed every `every_s` seconds of stream time:
/// restores the newest valid checkpoint, skipping damaged files
/// (truncated, corrupted, or from a different format version)
/// newest-first. A directory holding no checkpoint file starts a fresh
/// campaign; the first checkpoint then overwrites whatever log records
/// a checkpoint that never reached its rename left behind.
///
/// # Errors
///
/// [`CheckpointError::Write`] when the directory cannot be created,
/// [`CheckpointError::Read`] when it cannot be read, and
/// [`CheckpointError::NoUsableCheckpoint`] when it holds checkpoint
/// files but none restores.
pub fn restore_latest(
    dir: &Path,
    map: &MaraudersMap,
    config: &FleetConfig,
    every_s: f64,
) -> Result<FleetRestore, CheckpointError> {
    std::fs::create_dir_all(dir).map_err(|source| {
        CheckpointError::Write(JournalError::Io {
            op: format!("create dir {}", dir.display()),
            source,
        })
    })?;
    let restored = DurableDir::restore(dir, DocKind::FleetCheckpoint, map.config().window_s, |r| {
        Aggregator::decode_state(map.clone(), config.clone(), r)
    })
    .map_err(CheckpointError::Read)?;
    let reg = marauder_obs::global();
    reg.counter_add("fleet.checkpoints_skipped", restored.skipped as u64);
    let (key, aggregator) = match restored.checkpoint {
        Some((key, aggregator)) => {
            reg.counter_add("fleet.restores", 1);
            (Some(key), aggregator)
        }
        None if restored.skipped > 0 => {
            return Err(CheckpointError::NoUsableCheckpoint {
                dir: dir.to_path_buf(),
                skipped: restored.skipped,
            })
        }
        None => (None, Aggregator::new(map.clone(), config.clone())),
    };
    let next_index = key.map_or(0, |k| k + 1);
    Ok(FleetRestore {
        aggregator,
        closed: restored.closed,
        checkpointer: Checkpointer::resume(restored.durable, every_s, next_index),
        key,
        skipped: restored.skipped,
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
    use marauder_stream::{list_checkpoints, PersistError, RETAINED_CHECKPOINTS};
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

    fn checkpoint_name(index: u64) -> String {
        format!("fleet-{index:020}.ckpt")
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

        let restored = restore_latest(&dir, &map(), &config(), 30.0).expect("restore");
        assert_eq!((restored.key, restored.skipped), (Some(0), 0));
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

        let restored = restore_latest(&dir, &map(), &config(), 30.0).expect("restore");
        assert_eq!((restored.key, restored.skipped), (Some(0), 1));
        assert_eq!(restored.closed.len(), closed.len());
        assert_eq!(restored.aggregator.snapshot(), agg.snapshot());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn empty_directory_restores_nothing() {
        let dir = temp_dir("empty");
        std::fs::remove_dir_all(&dir).expect("remove");
        // A missing directory is created; it and an empty one start a
        // fresh campaign.
        for _ in 0..2 {
            let restored = restore_latest(&dir, &map(), &config(), 30.0).expect("restore");
            assert_eq!((restored.key, restored.skipped), (None, 0));
            assert!(restored.closed.is_empty());
            assert_eq!(
                restored.aggregator.snapshot(),
                Aggregator::new(map(), config()).snapshot()
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_log_without_a_checkpoint_starts_fresh_over_it() {
        // A kill between the first checkpoint's log append and its
        // document's rename leaves the log alone in the directory.
        let dir = temp_dir("lone-log");
        let (agg, closed) = driven_aggregator(40);
        Checkpointer::new(&dir, 30.0)
            .expect("checkpointer")
            .checkpoint_now(&agg, &closed)
            .expect("checkpoint");
        std::fs::remove_file(dir.join(checkpoint_name(0))).expect("lose the document");

        let mut restored = restore_latest(&dir, &map(), &config(), 30.0).expect("restore");
        assert_eq!((restored.key, restored.skipped), (None, 0));
        assert!(restored.closed.is_empty());
        let (agg, fewer) = driven_aggregator(20);
        assert!(!fewer.is_empty() && fewer.len() < closed.len());
        restored
            .checkpointer
            .checkpoint_now(&agg, &fewer)
            .expect("the fresh campaign checkpoints over the stale log");
        let again = restore_latest(&dir, &map(), &config(), 30.0).expect("restore again");
        assert_eq!((again.key, again.skipped), (Some(0), 0));
        assert_eq!(again.closed.len(), fewer.len());
        assert_eq!(again.aggregator.snapshot(), agg.snapshot());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_directory_where_no_checkpoint_restores_is_a_typed_error() {
        let dir = temp_dir("unusable");
        let (agg, closed) = driven_aggregator(40);
        Checkpointer::new(&dir, 30.0)
            .expect("checkpointer")
            .checkpoint_now(&agg, &closed)
            .expect("checkpoint");
        let mut damaged = std::fs::read(dir.join(checkpoint_name(0))).expect("read");
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x01;
        // A damaged file, or the text format an older build wrote.
        let text = b"# marauder fleet checkpoint v1\nfleet 0\nend 0\n".to_vec();
        for doc in [damaged, text] {
            std::fs::write(dir.join(checkpoint_name(0)), &doc).expect("write checkpoint");
            let err = restore_latest(&dir, &map(), &config(), 30.0)
                .err()
                .expect("a lone unusable checkpoint must not start a fresh campaign");
            assert!(
                matches!(&err, CheckpointError::NoUsableCheckpoint { dir: d, skipped: 1 } if *d == dir),
                "{err}"
            );
            assert!(
                err.to_string().contains("move the whole directory aside"),
                "{err}"
            );
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
        let files = list_checkpoints(&dir, DocKind::FleetCheckpoint).expect("list");
        assert_eq!(files.len(), RETAINED_CHECKPOINTS);
        // The newest survive, and restore still works.
        assert_eq!(files.last().unwrap().0, RETAINED_CHECKPOINTS as u64 + 2);
        let restored = restore_latest(&dir, &map(), &config(), 30.0).expect("restore");
        assert_eq!(restored.key, Some(RETAINED_CHECKPOINTS as u64 + 2));
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

        // A directory holding durable state is refused; the
        // checkpointer restore hands back keeps counting.
        let err = Checkpointer::new(&dir, 1e9).expect_err("directory is not empty");
        assert!(
            matches!(err, CheckpointError::Write(JournalError::NotEmpty { .. })),
            "{err}"
        );
        let mut restored = restore_latest(&dir, &map(), &config(), 1e9).expect("restore");
        assert_eq!(restored.key, Some(0));
        // It checkpoints at its first finite watermark, then keeps the
        // cadence it was restored with.
        let cp = &mut restored.checkpointer;
        assert!(cp.maybe_checkpoint(&agg, &closed).expect("first"));
        assert!(!cp.maybe_checkpoint(&agg, &closed).expect("second"));
        assert!(dir.join(checkpoint_name(1)).exists());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
