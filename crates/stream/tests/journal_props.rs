//! Property tests for the frame journal's damage tolerance, mirroring
//! the wire-codec fuzz suite: any truncation or single-byte corruption
//! of a segment, checkpoint or the closed-window log yields either a
//! clean torn-tail recovery or a typed [`JournalError`] — never a
//! panic, and never a recovery that claims more frames than were
//! written.
//!
//! Three invariants are pinned exactly:
//!
//! * damage to a *checkpoint* is never fatal and changes nothing: a
//!   checkpoint is a CRC-sealed document, so a damaged one is skipped,
//!   recovery falls back to an older checkpoint or the segments, and
//!   the fixes are byte-identical to the undamaged journal's,
//! * damage to the *final segment* is never fatal (it is
//!   indistinguishable from a crash mid-append, so it is a torn tail),
//! * damage to the *closed-window log* is never fatal and changes
//!   nothing: every record is CRC'd and bound to its checkpoint by a
//!   running CRC, so recovery falls back to an older checkpoint and
//!   the fixes are byte-identical to the undamaged journal's.

use marauder_core::apdb::{ApDatabase, ApRecord};
use marauder_core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap};
use marauder_geo::Point;
use marauder_stream::{
    FlushPolicy, FrameJournal, JournalConfig, JournalError, StreamConfig, StreamEngine, CLOSED_LOG,
};
use marauder_wifi::channel::Channel;
use marauder_wifi::frame::Frame;
use marauder_wifi::mac::MacAddr;
use marauder_wifi::sniffer::CapturedFrame;
use marauder_wifi::ssid::Ssid;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Frames in the template journal.
const FRAMES: usize = 32;

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

fn frames(n: usize) -> Vec<CapturedFrame> {
    (0..n)
        .map(|k| CapturedFrame {
            time_s: k as f64 * 7.0,
            card: 0,
            frame: Frame::probe_response(
                MacAddr::from_index(100 + (k % 3) as u64),
                MacAddr::from_index(1 + (k % 2) as u64),
                Ssid::new("x").expect("short ssid"),
                Channel::bg(6).expect("bg channel"),
            ),
        })
        .collect()
}

fn lazy() -> StreamConfig {
    StreamConfig {
        live_localization: false,
        warm_start: false,
        ..StreamConfig::default()
    }
}

/// The template journal, built once and replayed from memory for every
/// case: four 8-record segments, two mid-run checkpoints, and the
/// closed-window log they share.
fn template() -> &'static Vec<(String, Vec<u8>)> {
    static T: OnceLock<Vec<(String, Vec<u8>)>> = OnceLock::new();
    T.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!(
            "marauder-journal-props-template-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = FrameJournal::create(
            &dir,
            JournalConfig {
                segment_frames: 8,
                flush: FlushPolicy::OnRotate,
            },
        )
        .expect("create journal");
        let mut engine = StreamEngine::new(map(), lazy());
        let mut closed = Vec::new();
        for (k, f) in frames(FRAMES).iter().enumerate() {
            journal.append(f).expect("append");
            closed.extend(engine.push(f));
            if k == 10 || k == 17 {
                // Both checkpoints must cover closed windows, or log
                // damage would never reach a checkpoint.
                assert!(
                    !closed.is_empty(),
                    "checkpoint after frame {k} covers no window"
                );
                journal.checkpoint(&engine, &closed).expect("checkpoint");
            }
        }
        journal.sync().expect("sync");
        drop(journal);
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("list template")
            .map(|e| {
                let e = e.expect("entry");
                (
                    e.file_name().into_string().expect("utf-8 name"),
                    std::fs::read(e.path()).expect("read file"),
                )
            })
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        files.sort();
        assert!(files.len() >= 3, "template must rotate segments");
        // The newest checkpoint must leave a non-final segment for
        // recovery to scan, or no segment damage could reach the typed
        // corruption error: recovery skips every segment whose
        // successor starts at or below the checkpoint's `covers`.
        let numbers = |prefix: &str, suffix: &str| -> Vec<u64> {
            files
                .iter()
                .filter_map(|(n, _)| n.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok())
                .collect()
        };
        let newest_covers = numbers("checkpoint-", ".ckpt")
            .into_iter()
            .max()
            .expect("template has checkpoints");
        let final_start = numbers("segment-", ".wal")
            .into_iter()
            .max()
            .expect("template has segments");
        assert!(
            final_start > newest_covers,
            "newest checkpoint covers {newest_covers} frames, so recovery scans only \
             the final segment (first seq {final_start})"
        );
        files
    })
}

/// Canonical byte rendering of the batch fixes a recovered journal
/// holds.
fn recovered_fixes(dir: &std::path::Path) -> Result<String, JournalError> {
    let rec = FrameJournal::recover(dir, map(), lazy())?;
    let mut engine = rec.engine;
    let mut closed = rec.closed;
    closed.extend(engine.finish());
    Ok(engine
        .batch_fixes(closed)
        .iter()
        .map(|f| {
            let gamma: Vec<String> = f.gamma.iter().map(|m| m.to_string()).collect();
            format!(
                "{:016x} {} {:016x} {:016x} {}\n",
                f.time_s.to_bits(),
                f.mobile,
                f.estimate.position.x.to_bits(),
                f.estimate.position.y.to_bits(),
                gamma.join(",")
            )
        })
        .collect())
}

/// The undamaged template's fixes.
fn reference_fixes() -> &'static String {
    static R: OnceLock<String> = OnceLock::new();
    R.get_or_init(|| {
        let dir = materialize(template());
        let fixes = recovered_fixes(&dir).expect("undamaged template recovers");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!fixes.is_empty(), "template yields fixes");
        fixes
    })
}

/// Writes one damaged copy of the template to a fresh scratch dir.
fn materialize(files: &[(String, Vec<u8>)]) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "marauder-journal-props-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("write file");
    }
    dir
}

fn final_segment_name(files: &[(String, Vec<u8>)]) -> String {
    files
        .iter()
        .filter(|(n, _)| n.starts_with("segment-"))
        .map(|(n, _)| n.clone())
        .max()
        .expect("template has segments")
}

/// Shared verdict: recovery of a journal with one damaged file either
/// succeeds within bounds or fails with the typed corruption error —
/// the protected damage classes always succeed, and checkpoint or
/// closed-window log damage recovers exactly the undamaged journal's
/// fixes.
fn check_recovery(
    files: &[(String, Vec<u8>)],
    damaged: &str,
    final_segment: &str,
) -> Result<(), TestCaseError> {
    let is_final_segment = damaged == final_segment;
    let dir = materialize(files);
    if damaged == CLOSED_LOG || damaged.starts_with("checkpoint-") {
        let fixes = recovered_fixes(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        return match fixes {
            Ok(fixes) => {
                prop_assert_eq!(
                    &fixes,
                    reference_fixes(),
                    "{} damage changed the fixes",
                    damaged
                );
                Ok(())
            }
            Err(e) => Err(TestCaseError::fail(format!(
                "{damaged} damage must never fail recovery: {e}"
            ))),
        };
    }
    let result = FrameJournal::recover(&dir, map(), lazy());
    let verdict = match result {
        Ok(rec) => {
            prop_assert!(
                rec.next_seq <= FRAMES as u64,
                "recovered more frames than were written"
            );
            prop_assert_eq!(rec.next_seq, rec.journal.next_seq());
            Ok(())
        }
        Err(JournalError::Corrupt { .. }) => {
            prop_assert!(
                !is_final_segment,
                "final-segment damage is a torn tail, never fatal"
            );
            Ok(())
        }
        Err(e) => Err(TestCaseError::fail(format!("unexpected I/O error: {e}"))),
    };
    let _ = std::fs::remove_dir_all(&dir);
    verdict
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_truncation_recovers_or_fails_typed(
        file_sel in any::<usize>(),
        cut in any::<usize>(),
    ) {
        let mut files = template().clone();
        let final_segment = final_segment_name(&files);
        let fi = file_sel % files.len();
        let damaged = files[fi].0.clone();
        let cut = cut % (files[fi].1.len() + 1);
        files[fi].1.truncate(cut);
        check_recovery(&files, &damaged, &final_segment)?;
    }

    #[test]
    fn any_single_byte_corruption_recovers_or_fails_typed(
        file_sel in any::<usize>(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut files = template().clone();
        let final_segment = final_segment_name(&files);
        let fi = file_sel % files.len();
        let damaged = files[fi].0.clone();
        let pos = pos % files[fi].1.len();
        files[fi].1[pos] ^= 1 << bit;
        check_recovery(&files, &damaged, &final_segment)?;
    }
}

/// Every truncation and every single-bit flip of one file, exhaustively:
/// each must recover the undamaged journal's fixes exactly.
fn every_truncation_and_bit_flip_recovers_exactly(name: &str) {
    let files = template();
    let final_segment = final_segment_name(files);
    let fi = files
        .iter()
        .position(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("template has {name}"));
    let len = files[fi].1.len();
    let mut cases = 0;
    for cut in 0..len {
        let mut damaged = files.clone();
        damaged[fi].1.truncate(cut);
        check_recovery(&damaged, name, &final_segment)
            .unwrap_or_else(|e| panic!("{name} cut to {cut} bytes: {e}"));
        cases += 1;
    }
    for pos in 0..len {
        for bit in 0..8 {
            let mut damaged = files.clone();
            damaged[fi].1[pos] ^= 1 << bit;
            check_recovery(&damaged, name, &final_segment)
                .unwrap_or_else(|e| panic!("{name} byte {pos} bit {bit} flipped: {e}"));
            cases += 1;
        }
    }
    assert_eq!(cases, 9 * len);
}

/// The per-record CRC makes every damage to the closed-window log
/// detectable.
#[test]
fn every_closed_log_truncation_and_bit_flip_recovers_exactly() {
    every_truncation_and_bit_flip_recovers_exactly(CLOSED_LOG);
}

/// The document CRC makes every damage to the newest checkpoint
/// detectable: recovery falls back to the older one.
#[test]
fn every_newest_checkpoint_truncation_and_bit_flip_recovers_exactly() {
    let newest = template()
        .iter()
        .map(|(n, _)| n)
        .filter(|n| n.starts_with("checkpoint-"))
        .max()
        .expect("template has checkpoints");
    every_truncation_and_bit_flip_recovers_exactly(newest);
}
