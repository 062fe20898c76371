//! The journaled engine resumes a killed run onto exactly the capture
//! it journaled.
//!
//! Over seeded random campuses — built as `recovery_catch_up.rs` builds
//! them, at a random knowledge level, kill point, checkpoint cadence
//! and segment size — a run is journaled through [`JournaledEngine`] up
//! to the kill point and dropped. Then:
//!
//! * (a) a capture with one frame below the kill point edited is
//!   refused, and the refusal names that frame's sequence number;
//! * (b) a capture cut below the kill point is refused;
//! * (c) reopened and fed the whole capture, the engine finishes with
//!   the uninterrupted run's closed windows (window, mobile and Γ),
//!   `lp_solves` and batch fixes.
//!
//! The refusals write nothing, so (c) resumes the same journal. Two
//! fixed cases pin the records under the checkpoint, which recovery
//! skips: a gap among them is refused, and so is a log that ends below
//! the checkpoint, torn or not.

use marauder_core::apdb::ApDatabase;
use marauder_core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap, TrackFix};
use marauder_geo::Point;
use marauder_sim::mobility::CircuitWalk;
use marauder_sim::scenario::CampusScenario;
use marauder_stream::{
    ClosedWindow, FlushPolicy, JournalConfig, JournalError, JournaledEngine, StreamConfig,
    StreamEngine,
};
use marauder_wifi::device::{MobileStation, OsProfile};
use marauder_wifi::mac::MacAddr;
use marauder_wifi::sniffer::CapturedFrame;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One generated case. The kill point and the edited frame are drawn
/// per mille, so the printed inputs reproduce a failing case.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    seed: u64,
    aps: usize,
    mobiles: usize,
    duration_s: u32,
    locations_only: bool,
    kill_permille: usize,
    /// Frames between checkpoints; 0 writes none.
    checkpoint_every: usize,
    segment_frames: usize,
    edit_permille: usize,
}

/// Simulates the campus the way `marauder simulate` does: background
/// mobiles plus one victim walking a circuit around the rig.
fn campus(s: &Scenario) -> (ApDatabase, Vec<CapturedFrame>) {
    let victim = MobileStation::new(MacAddr::from_index(0xFACE), OsProfile::MacOs);
    let result = CampusScenario::builder()
        .seed(s.seed)
        .region_half_width(350.0)
        .num_aps(s.aps)
        .num_mobiles(s.mobiles)
        .duration_s(f64::from(s.duration_s))
        .mobile(
            victim,
            Box::new(CircuitWalk::new(Point::ORIGIN, 150.0, 1.4)),
        )
        .build()
        .run();
    let db = ApDatabase::from_access_points(&result.aps, result.environment_margin);
    (db, result.captures.iter().cloned().collect())
}

fn map(db: &ApDatabase, s: &Scenario) -> MaraudersMap {
    if s.locations_only {
        MaraudersMap::new(
            db.without_radii(),
            KnowledgeLevel::LocationsOnly,
            AttackConfig::default(),
        )
    } else {
        MaraudersMap::new(db.clone(), KnowledgeLevel::Full, AttackConfig::default())
    }
}

fn scratch() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "marauder-journaled-engine-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens `dir` as the case's journaled engine and feeds it `frames`.
fn feed(
    dir: &Path,
    db: &ApDatabase,
    s: &Scenario,
    frames: &[CapturedFrame],
) -> Result<JournaledEngine, JournalError> {
    let journal = JournalConfig {
        segment_frames: s.segment_frames,
        flush: FlushPolicy::OnRotate,
    };
    let mut engine = JournaledEngine::open(
        dir,
        "capture",
        map(db, s),
        StreamConfig::default(),
        journal,
        s.checkpoint_every,
    )?;
    for frame in frames {
        engine.push(frame)?;
    }
    Ok(engine)
}

/// A closed window's identity: window, mobile and Γ.
fn window_keys(closed: &[ClosedWindow]) -> Vec<String> {
    closed
        .iter()
        .map(|w| format!("{} {} {:?}", w.window, w.mobile, w.gamma))
        .collect()
}

/// A fix to the bit: time, mobile, Γ, x, y and area.
fn fix_keys(fixes: &[TrackFix]) -> Vec<String> {
    fixes
        .iter()
        .map(|f| {
            format!(
                "{:016x} {} {:?} {:016x} {:016x} {:016x}",
                f.time_s.to_bits(),
                f.mobile,
                f.gamma,
                f.estimate.position.x.to_bits(),
                f.estimate.position.y.to_bits(),
                f.estimate.area().to_bits()
            )
        })
        .collect()
}

fn check(s: &Scenario, dir: &Path) -> Result<(), TestCaseError> {
    let (db, frames) = campus(s);
    let kill = frames.len() * s.kill_permille / 1000;
    let fail = |what: &str, e: JournalError| TestCaseError::fail(format!("{what}: {e}"));
    drop(feed(dir, &db, s, &frames[..kill]).map_err(|e| fail("journal", e))?);

    if kill > 0 {
        // (a): one frame below the kill point, its timestamp moved.
        let edit = kill * s.edit_permille / 1000;
        let mut edited = frames.clone();
        edited[edit].time_s += 1e-6;
        match feed(dir, &db, s, &edited) {
            Err(err @ JournalError::FrameMismatch { seq, .. }) => {
                prop_assert_eq!(seq, edit as u64, "the refusal names another frame");
                let named = err
                    .to_string()
                    .starts_with(&format!("frame {edit} of capture "));
                prop_assert!(named, "the refusal reads {}", err);
            }
            other => prop_assert!(false, "frame {} edited, got {:?}", edit, other),
        }
        // (b): the capture cut below the kill point, at the edit.
        let cut = edit;
        let short = feed(dir, &db, s, &frames[..cut]).map_err(|e| fail("cut", e))?;
        prop_assert!(
            matches!(
                short.finish(),
                Err(JournalError::CaptureShort { frames, journaled, .. })
                    if frames == cut as u64 && journaled == kill as u64
            ),
            "a capture of {} frames over a journal of {}",
            cut,
            kill
        );
    }

    // (c): the whole capture.
    let resumed = feed(dir, &db, s, &frames).map_err(|e| fail("resume", e))?;
    prop_assert_eq!(resumed.journaled(), kill as u64);
    let (mut engine, mut closed) = resumed.finish().map_err(|e| fail("finish", e))?;
    closed.extend(engine.finish());
    let mut clean = StreamEngine::new(map(&db, s), StreamConfig::default());
    let mut reference: Vec<ClosedWindow> = frames.iter().flat_map(|f| clean.push(f)).collect();
    reference.extend(clean.finish());
    prop_assert_eq!(window_keys(&closed), window_keys(&reference));
    prop_assert_eq!(engine.stats().lp_solves, clean.stats().lp_solves);
    prop_assert_eq!(
        fix_keys(&engine.batch_fixes(closed)),
        fix_keys(&clean.batch_fixes(reference))
    );
    Ok(())
}

fn scenarios() -> impl Strategy<Value = Scenario> {
    (
        (any::<u64>(), 20usize..=40, 2usize..=4, 120u32..=300),
        (any::<bool>(), 0usize..=1000, 0usize..=200),
        (8usize..=128, 0usize..1000),
    )
        .prop_map(
            |(
                (seed, aps, mobiles, duration_s),
                (locations_only, kill_permille, every),
                (segment_frames, edit_permille),
            )| Scenario {
                seed,
                aps,
                mobiles,
                duration_s,
                locations_only,
                kill_permille,
                // A cadence below 16 checkpoints too often to stay fast.
                checkpoint_every: if every < 16 { 0 } else { every },
                segment_frames,
                edit_permille,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_resume_checks_the_journaled_prefix_and_equals_the_uninterrupted_run(s in scenarios()) {
        let dir = scratch();
        let result = check(&s, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        result?;
    }
}

#[test]
fn a_missing_segment_under_the_checkpoint_is_refused() {
    // Recovery skips the segments the checkpoint covers, so it restores
    // this journal; the resume check reads them and finds the gap.
    let s = Scenario {
        seed: 5,
        aps: 30,
        mobiles: 3,
        duration_s: 200,
        locations_only: false,
        kill_permille: 0,
        checkpoint_every: 16,
        segment_frames: 8,
        edit_permille: 0,
    };
    let (db, frames) = campus(&s);
    let dir = scratch();
    let sealed = feed(&dir, &db, &s, &frames[..40]).and_then(JournaledEngine::finish);
    assert!(sealed.is_ok(), "{:?}", sealed.err());
    std::fs::remove_file(dir.join(format!("segment-{:020}.wal", 8))).expect("remove a segment");
    let recovered =
        marauder_stream::FrameJournal::recover(&dir, map(&db, &s), StreamConfig::default());
    let reopened = feed(&dir, &db, &s, &[]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(recovered.expect("recovery skips the gap").next_seq, 40);
    assert!(
        matches!(&reopened, Err(JournalError::Corrupt { segment, .. }) if segment.ends_with("16.wal")),
        "{reopened:?}"
    );
}

#[test]
fn only_a_torn_final_record_under_the_checkpoint_goes_unchecked() {
    // A checkpoint at frame 32 covers every record. No kill can leave
    // the log short of it, as a checkpoint syncs the segment first, so
    // recovery refuses the log whether its last record is torn or gone.
    let s = Scenario {
        seed: 5,
        aps: 30,
        mobiles: 3,
        duration_s: 200,
        locations_only: false,
        kill_permille: 0,
        checkpoint_every: 16,
        segment_frames: 8,
        edit_permille: 0,
    };
    let (db, frames) = campus(&s);
    for keep in [3, 0] {
        let dir = scratch();
        drop(feed(&dir, &db, &s, &frames[..32]).expect("journal"));
        // Cut the final segment `keep` bytes into its last record.
        let last = dir.join(format!("segment-{:020}.wal", 24));
        let bytes = std::fs::read(&last).expect("read the final segment");
        let mut start = 16;
        while let Some(len) = bytes.get(start..start + 4) {
            let next = start + 8 + u32::from_be_bytes([len[0], len[1], len[2], len[3]]) as usize;
            if next >= bytes.len() {
                break;
            }
            start = next;
        }
        std::fs::write(&last, &bytes[..start + keep]).expect("cut the last record");
        let resumed = feed(&dir, &db, &s, &frames).map(|j| j.journaled());
        let _ = std::fs::remove_dir_all(&dir);
        let want = "record 31 is missing under the checkpoint at 32";
        assert!(
            matches!(&resumed, Err(JournalError::Corrupt { reason, .. }) if reason == want),
            "{keep} bytes kept: {resumed:?}"
        );
    }
}
