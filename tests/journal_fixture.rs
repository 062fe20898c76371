//! The frame journal's on-disk bytes, pinned. A small simulated campus
//! (`tests/fixtures/capture.log` and `aps.csv`) journaled with the calls
//! below must write exactly the committed `tests/fixtures/journal/`
//! directory — segments, checkpoints and the closed-window log — and
//! that directory must recover to the batch pipeline's fixes.
//!
//! Full knowledge keeps computed floats out of the engine state, so the
//! checkpoint bytes do not depend on the platform's libm.

use marauders_map::core::apdb::ApDatabase;
use marauders_map::core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap};
use marauders_map::stream::{
    record_crc, FlushPolicy, FrameJournal, JournalConfig, StreamConfig, StreamEngine, TrackFix,
};
use marauders_map::wifi::capture_log::parse_capture_log;
use marauders_map::wifi::sniffer::CaptureDatabase;
use std::path::{Path, PathBuf};

/// Records per segment: the fixture's 270 frames rotate four times.
const SEGMENT_FRAMES: usize = 64;

/// Frames between checkpoints; one more seals the end.
const CHECKPOINT_EVERY: usize = 100;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn captures() -> CaptureDatabase {
    let log = std::fs::read_to_string(fixture("capture.log")).unwrap();
    parse_capture_log(&log).unwrap()
}

fn map() -> MaraudersMap {
    let aps = std::fs::read_to_string(fixture("aps.csv")).unwrap();
    let db = ApDatabase::from_csv(&aps).unwrap();
    MaraudersMap::new(db, KnowledgeLevel::Full, AttackConfig::default())
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "marauder-journal-fixture-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Journals the fixture campus into `dir`: each frame appended before
/// it is pushed, a checkpoint every [`CHECKPOINT_EVERY`] frames and one
/// after the last.
fn journal_into(dir: &Path) {
    let config = JournalConfig {
        segment_frames: SEGMENT_FRAMES,
        flush: FlushPolicy::OnRotate,
    };
    let mut journal = FrameJournal::create(dir, config).unwrap();
    let mut engine = StreamEngine::new(map(), StreamConfig::default());
    let mut closed = Vec::new();
    for (k, frame) in captures().iter().enumerate() {
        journal.append(frame).unwrap();
        closed.extend(engine.push(frame));
        if (k + 1) % CHECKPOINT_EVERY == 0 {
            journal.checkpoint(&engine, &closed).unwrap();
        }
    }
    journal.checkpoint(&engine, &closed).unwrap();
    journal.sync().unwrap();
}

/// `(name, bytes)` of every file in `dir`, by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect();
    out.sort();
    out
}

/// Bitwise fix identity: mobile, timestamp, Γ, position and area.
fn keys(fixes: &[TrackFix]) -> Vec<(String, u64, usize, u64, u64, u64)> {
    fixes
        .iter()
        .map(|f| {
            (
                f.mobile.to_string(),
                f.time_s.to_bits(),
                f.gamma.len(),
                f.estimate.position.x.to_bits(),
                f.estimate.position.y.to_bits(),
                f.estimate.area().to_bits(),
            )
        })
        .collect()
}

#[test]
fn journaling_the_fixture_campus_writes_the_committed_bytes() {
    let expected = files(&fixture("journal"));
    let names: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "checkpoint-00000000000000000100.ckpt",
            "checkpoint-00000000000000000200.ckpt",
            "checkpoint-00000000000000000270.ckpt",
            "closed.wal",
            "segment-00000000000000000000.wal",
            "segment-00000000000000000064.wal",
            "segment-00000000000000000128.wal",
            "segment-00000000000000000192.wal",
            "segment-00000000000000000256.wal",
        ]
    );
    let dir = scratch("write");
    journal_into(&dir);
    let written = files(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(written.len(), expected.len());
    for ((name, bytes), (want_name, want)) in written.iter().zip(&expected) {
        assert_eq!(name, want_name);
        if let Some(at) = bytes.iter().zip(want).position(|(a, b)| a != b) {
            panic!("{name} differs from the fixture at byte {at}");
        }
        assert_eq!(bytes.len(), want.len(), "{name} length");
    }
}

#[test]
fn the_committed_journal_recovers_to_the_batch_fixes() {
    let captures = captures();
    let frames: Vec<_> = captures.iter().collect();
    let mut batch_map = map();
    batch_map.ingest(&captures);
    let batch = batch_map.track_all(&captures);
    assert!(!batch.is_empty(), "the fixture campus produces fixes");
    let config = StreamConfig {
        live_localization: false,
        warm_start: false,
        ..StreamConfig::default()
    };
    // Restore the newest checkpoint; then, with it lost, the one at 200
    // plus the last 70 records replayed from the segments.
    for (lost, restored) in [
        (None, 270),
        (Some("checkpoint-00000000000000000270.ckpt"), 200),
    ] {
        let dir = scratch("recover");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in files(&fixture("journal")) {
            if Some(name.as_str()) != lost {
                std::fs::write(dir.join(name), bytes).unwrap();
            }
        }
        let rec = FrameJournal::recover(&dir, map(), config.clone()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(rec.next_seq, frames.len() as u64);
        assert_eq!(rec.report.checkpoint_seq, Some(restored));
        assert_eq!(rec.report.torn_tail_bytes, 0);
        let replayed: Vec<u32> = (restored..rec.next_seq)
            .map(|seq| record_crc(seq, frames[seq as usize]))
            .collect();
        assert_eq!(rec.tail_crcs, replayed, "stored record CRCs");
        let mut engine = rec.engine;
        let mut closed = rec.closed;
        closed.extend(engine.finish());
        let recovered = engine.batch_fixes(closed);
        assert_eq!(keys(&recovered), keys(&batch), "restored at {restored}");
    }
}
