//! Property tests for fleet checkpoint damage tolerance. The template
//! directory holds two checkpoints of one aggregator run and the
//! closed-window log they share; the older covers fewer windows.
//!
//! * Any truncation or single-bit flip of the newer checkpoint file is
//!   skipped — checkpoints are CRC-sealed documents — and restore falls
//!   back to the intact older one, restoring exactly its state: the
//!   same aggregator snapshot bytes and the same closed windows.
//! * Any truncation or single-bit flip of the closed-window log either
//!   restores exactly the newer checkpoint's state (the log is intact),
//!   falls back to exactly the older one's (the damage lies past the
//!   older one's windows), or — when the older one's windows are
//!   damaged too — is the typed `NoUsableCheckpoint`. Which of the
//!   three is fixed by where the damage lies.
//!
//! A checkpoint directory written by an earlier build is refused with
//! `NoUsableCheckpoint`: one whose fleet checkpoints embedded every
//! closed window (document kind 4), and one whose fleet state counted
//! wire snapshots served (document kind 5).

use marauder_core::apdb::{ApDatabase, ApRecord};
use marauder_core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap};
use marauder_geo::Point;
use marauder_net::codec::{Message, PROTOCOL_VERSION};
use marauder_net::{restore_latest, Aggregator, CheckpointError, Checkpointer, FleetConfig};
use marauder_stream::persist::encode_closed;
use marauder_stream::{ClosedWindow, StreamConfig, CLOSED_LOG, CLOSED_LOG_MAGIC};
use marauder_wifi::channel::Channel;
use marauder_wifi::frame::Frame;
use marauder_wifi::mac::MacAddr;
use marauder_wifi::sniffer::CapturedFrame;
use marauder_wifi::ssid::Ssid;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

const OLDER: &str = "fleet-00000000000000000000.ckpt";
const NEWER: &str = "fleet-00000000000000000001.ckpt";

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

/// What a restore must reproduce: the aggregator's snapshot bytes and
/// the closed windows as `(window, start bits, mobile, Γ)`.
type Restored = (Vec<u8>, Vec<(i64, u64, MacAddr, Vec<MacAddr>)>);

fn restored(aggregator: &Aggregator, closed: &[ClosedWindow]) -> Restored {
    (
        aggregator.snapshot(),
        closed
            .iter()
            .map(|c| {
                (
                    c.window,
                    c.window_start_s.to_bits(),
                    c.mobile,
                    c.gamma.iter().copied().collect(),
                )
            })
            .collect(),
    )
}

/// The template directory's files, the older and newer checkpoints'
/// states, and the byte offset where each of the log's records ends.
struct Template {
    files: Vec<(String, Vec<u8>)>,
    older: Restored,
    newer: Restored,
    /// `record_ends[k]`: bytes of the log's first `k + 1` records,
    /// header included.
    record_ends: Vec<usize>,
    /// Log records the older checkpoint covers.
    older_windows: usize,
}

/// Feeds frames `range` through the aggregator, then a heartbeat at the
/// last frame's time, collecting the windows that close.
fn feed(
    agg: &mut Aggregator,
    seq: u64,
    range: std::ops::Range<u64>,
    closed: &mut Vec<ClosedWindow>,
) {
    let frames: Vec<CapturedFrame> = range
        .clone()
        .map(|k| CapturedFrame {
            time_s: k as f64 * 7.0,
            card: 0,
            frame: Frame::probe_response(
                MacAddr::from_index(100 + (k % 3)),
                MacAddr::from_index(0x50 + (k % 2)),
                Ssid::new("x").expect("short ssid"),
                Channel::bg(6).expect("bg channel"),
            ),
        })
        .collect();
    for msg in [
        Message::FrameBatch {
            node_id: 1,
            seq,
            frames,
        },
        Message::Heartbeat {
            node_id: 1,
            watermark_s: (range.end - 1) as f64 * 7.0,
        },
    ] {
        closed.extend(agg.on_message(&msg).expect("merge").closed);
    }
}

/// One real aggregator run checkpointed twice; cached for every case.
fn template() -> &'static Template {
    static T: OnceLock<Template> = OnceLock::new();
    T.get_or_init(|| {
        let dir = scratch();
        let mut cp = Checkpointer::new(&dir, 1.0).expect("checkpointer");
        let mut agg = Aggregator::new(map(), config());
        let mut closed = Vec::new();
        closed.extend(
            agg.on_message(&Message::Hello {
                node_id: 1,
                clock_offset_s: 0.0,
                version: PROTOCOL_VERSION,
            })
            .expect("hello")
            .closed,
        );
        feed(&mut agg, 0, 0..20, &mut closed);
        cp.checkpoint_now(&agg, &closed).expect("older checkpoint");
        let older = restored(&agg, &closed);
        let older_windows = closed.len();
        feed(&mut agg, 1, 20..40, &mut closed);
        cp.checkpoint_now(&agg, &closed).expect("newer checkpoint");
        let newer = restored(&agg, &closed);
        assert!(
            older_windows > 0 && closed.len() > older_windows,
            "both checkpoints must cover windows, the newer more"
        );
        let mut record_ends = Vec::new();
        let mut end = CLOSED_LOG_MAGIC.len();
        for c in &closed {
            end += 8 + encode_closed(c).len();
            record_ends.push(end);
        }
        let files: Vec<(String, Vec<u8>)> = [OLDER, NEWER, CLOSED_LOG]
            .iter()
            .map(|name| {
                let bytes = std::fs::read(dir.join(name)).expect("read template file");
                (name.to_string(), bytes)
            })
            .collect();
        assert_eq!(files[2].1.len(), end, "the log holds each window once");
        let _ = std::fs::remove_dir_all(&dir);
        Template {
            files,
            older,
            newer,
            record_ends,
            older_windows,
        }
    })
}

fn scratch() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "marauder-ckpt-props-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn file(name: &str) -> &'static [u8] {
    let files = &template().files;
    &files[files
        .iter()
        .position(|(n, _)| n == name)
        .expect("template file")]
    .1
}

/// What restoring one damaged directory must give.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Want {
    Newer,
    Older,
    Unusable,
}

/// Restores the template with file `name` replaced by `damaged` and
/// checks the outcome against `want`. Nothing may panic.
fn check_restore(name: &str, damaged: &[u8], want: Want) -> Result<(), TestCaseError> {
    let dir = scratch();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (n, bytes) in &template().files {
        let bytes = if n == name { damaged } else { bytes };
        std::fs::write(dir.join(n), bytes).expect("write file");
    }
    let result = restore_latest(&dir, &map(), &config(), 1.0);
    let _ = std::fs::remove_dir_all(&dir);
    let t = template();
    match (result, want) {
        (Ok(r), Want::Newer | Want::Older) => {
            let (state, key, skipped) = match want {
                Want::Newer => (&t.newer, 1, 0),
                _ => (&t.older, 0, 1),
            };
            prop_assert_eq!((r.key, r.skipped), (Some(key), skipped));
            prop_assert!(
                restored(&r.aggregator, &r.closed) == *state,
                "the restore differs from the {:?} checkpoint's state",
                want
            );
            Ok(())
        }
        (Err(CheckpointError::NoUsableCheckpoint { skipped: 2, .. }), Want::Unusable) => Ok(()),
        (Ok(r), want) => Err(TestCaseError::fail(format!(
            "restored {:?} with {} skipped, want {want:?}",
            r.key, r.skipped
        ))),
        (Err(e), want) => Err(TestCaseError::fail(format!("{e}, want {want:?}"))),
    }
}

/// The outcome of log damage that leaves the first `intact` bytes
/// untouched: the checkpoints whose records all lie inside them restore.
fn log_outcome(intact: usize) -> Want {
    let t = template();
    if intact >= *t.record_ends.last().expect("log records") {
        Want::Newer
    } else if intact >= t.record_ends[t.older_windows - 1] {
        Want::Older
    } else {
        Want::Unusable
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_checkpoint_truncation_is_skipped_never_fatal(cut in any::<usize>()) {
        let doc = file(NEWER);
        let cut = cut % (doc.len() + 1);
        let want = if cut == doc.len() { Want::Newer } else { Want::Older };
        check_restore(NEWER, &doc[..cut], want)?;
    }

    #[test]
    fn any_checkpoint_bit_flip_is_skipped_never_fatal(pos in any::<usize>(), bit in 0u8..8) {
        let mut doc = file(NEWER).to_vec();
        let pos = pos % doc.len();
        doc[pos] ^= 1 << bit;
        check_restore(NEWER, &doc, Want::Older)?;
    }

    #[test]
    fn any_log_truncation_falls_back_exactly(cut in any::<usize>()) {
        let log = file(CLOSED_LOG);
        let cut = cut % (log.len() + 1);
        check_restore(CLOSED_LOG, &log[..cut], log_outcome(cut))?;
    }

    #[test]
    fn any_log_bit_flip_falls_back_exactly(pos in any::<usize>(), bit in 0u8..8) {
        let mut log = file(CLOSED_LOG).to_vec();
        let pos = pos % log.len();
        log[pos] ^= 1 << bit;
        // The record holding `pos` is damaged, and so is everything
        // after it; a damaged header loses the whole log.
        let intact = std::iter::once(CLOSED_LOG_MAGIC.len())
            .chain(template().record_ends.iter().copied())
            .take_while(|&end| end <= pos)
            .last()
            .unwrap_or(0);
        check_restore(CLOSED_LOG, &log, log_outcome(intact))?;
    }
}

/// A fleet checkpoint written by an earlier build, alone in its
/// directory, is refused: kind 4 embedded every closed window, and
/// kind 5 (which covers no log records, so its state alone would
/// restore) holds a counter this build no longer keeps.
#[test]
fn earlier_fleet_checkpoint_kinds_are_refused() {
    for (fixture, kind) in [("fleet-kind4.ckpt", 4u8), ("fleet-kind5.ckpt", 5)] {
        let doc = std::fs::read(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("tests/fixtures")
                .join(fixture),
        )
        .expect("read fixture");
        assert_eq!(&doc[..8], b"MRDRDOC\x01", "{fixture}: a version-1 document");
        assert_eq!(doc[8], kind, "{fixture}");
        let dir = scratch();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        std::fs::write(dir.join(OLDER), &doc).expect("write fixture");
        let err = restore_latest(&dir, &map(), &config(), 1.0)
            .err()
            .unwrap_or_else(|| panic!("a kind-{kind} checkpoint must not restore"));
        assert!(
            matches!(&err, CheckpointError::NoUsableCheckpoint { skipped: 1, .. }),
            "{fixture}: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
