//! Journal recovery catches up: the engine it rebuilds equals the
//! uninterrupted live run's, bit for bit.
//!
//! [`FrameJournal::recover`] replays the journal tail as a catch-up:
//! each window close folds its Γ set into the AP-Rad statistics and
//! nothing else, and one live solve settles the tail. Over seeded
//! random campuses, at Full and LocationsOnly knowledge, with a random
//! kill point, checkpoint cadence and segment size, this suite pins:
//!
//! * (a) the recovered engine's snapshot equals the uninterrupted live
//!   engine's after the same frames;
//! * (b) `lp_solves` is equal;
//! * (c) the recovered closed windows equal the uninterrupted run's in
//!   window, mobile and Γ, and every one is `Err(DeferredLocalization)`;
//! * (d) resuming both engines to `finish` gives bit-identical live
//!   outcomes and equal final snapshots;
//! * (e) the recovered engine's batch fixes equal `track_all`.
//!
//! Three fixed cases pin the edges: a tail that closes no window, a
//! checkpoint written by a lazy engine (no cached radii) recovered
//! live, and recovery with warm starts on.

use marauder_core::apdb::{ApDatabase, ApRecord};
use marauder_core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap, TrackFix};
use marauder_core::PipelineError;
use marauder_geo::Point;
use marauder_sim::mobility::CircuitWalk;
use marauder_sim::scenario::CampusScenario;
use marauder_stream::{
    ClosedWindow, FlushPolicy, FrameJournal, JournalConfig, StreamConfig, StreamEngine,
};
use marauder_wifi::channel::Channel;
use marauder_wifi::device::{MobileStation, OsProfile};
use marauder_wifi::frame::Frame;
use marauder_wifi::mac::MacAddr;
use marauder_wifi::sniffer::{CaptureDatabase, CapturedFrame};
use marauder_wifi::ssid::Ssid;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One generated case. The kill point is drawn per mille of the
/// campus's frames, so the printed inputs reproduce a failing case.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    seed: u64,
    aps: usize,
    mobiles: usize,
    duration_s: u32,
    kill_permille: usize,
    /// Frames between checkpoints; `None` writes none.
    checkpoint_every: Option<usize>,
    segment_frames: usize,
}

/// A simulated campus: the AP knowledge and every captured frame.
struct Campus {
    db: ApDatabase,
    captures: CaptureDatabase,
    frames: Vec<CapturedFrame>,
}

/// Simulates the campus the way `marauder simulate` does: background
/// mobiles plus one victim walking a circuit around the rig.
fn campus(s: &Scenario) -> Campus {
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
    let frames = result.captures.iter().cloned().collect();
    Campus {
        db,
        captures: result.captures,
        frames,
    }
}

fn map(db: &ApDatabase, level: KnowledgeLevel) -> MaraudersMap {
    let db = match level {
        KnowledgeLevel::Full => db.clone(),
        _ => db.without_radii(),
    };
    MaraudersMap::new(db, level, AttackConfig::default())
}

fn lazy() -> StreamConfig {
    StreamConfig {
        live_localization: false,
        ..StreamConfig::default()
    }
}

fn scratch() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "marauder-recovery-catch-up-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Journals `frames` into `dir` as `marauder replay --journal` does —
/// each frame appended, then pushed into `engine` — with a checkpoint
/// every `checkpoint_every` frames, then drops the journal without
/// sealing it: the kill. Returns every window `engine` closed.
fn journal_until_kill(
    dir: &Path,
    engine: &mut StreamEngine,
    frames: &[CapturedFrame],
    checkpoint_every: Option<usize>,
    segment_frames: usize,
) -> Vec<ClosedWindow> {
    let config = JournalConfig {
        segment_frames,
        flush: FlushPolicy::OnRotate,
    };
    let mut journal = FrameJournal::create(dir, config).expect("fresh journal");
    let mut closed = Vec::new();
    for (k, frame) in frames.iter().enumerate() {
        journal.append(frame).expect("append");
        closed.extend(engine.push(frame));
        if checkpoint_every.is_some_and(|every| (k + 1) % every == 0) {
            journal.checkpoint(engine, &closed).expect("checkpoint");
        }
    }
    closed
}

/// Pushes `frames` and then finishes, returning every window closed.
fn run_to_end(engine: &mut StreamEngine, frames: &[CapturedFrame]) -> Vec<ClosedWindow> {
    let mut out: Vec<ClosedWindow> = frames.iter().flat_map(|f| engine.push(f)).collect();
    out.extend(engine.finish());
    out
}

/// A live outcome to the bit: window, mobile, Γ, then the estimate's
/// x, y and area bits with the provenance, or the error.
fn outcome_key(w: &ClosedWindow) -> String {
    let head = format!("{} {} {:?}", w.window, w.mobile, w.gamma);
    match &w.outcome {
        Ok((est, provenance)) => format!(
            "{head} {:016x} {:016x} {:016x} {provenance:?}",
            est.position.x.to_bits(),
            est.position.y.to_bits(),
            est.area().to_bits()
        ),
        Err(e) => format!("{head} {e:?}"),
    }
}

/// A fix to the bit: time, mobile, Γ, x, y and area.
fn fix_key(f: &TrackFix) -> String {
    format!(
        "{:016x} {} {:?} {:016x} {:016x} {:016x}",
        f.time_s.to_bits(),
        f.mobile,
        f.gamma,
        f.estimate.position.x.to_bits(),
        f.estimate.position.y.to_bits(),
        f.estimate.area().to_bits()
    )
}

fn fix_keys(fixes: &[TrackFix]) -> Vec<String> {
    fixes.iter().map(fix_key).collect()
}

/// Checks (a)–(e) for one campus at one knowledge level.
fn check(
    s: &Scenario,
    campus: &Campus,
    level: KnowledgeLevel,
    batch: &[String],
) -> Result<(), TestCaseError> {
    let frames = &campus.frames;
    let kill = frames.len() * s.kill_permille / 1000;
    let dir = scratch();
    let mut live = StreamEngine::new(map(&campus.db, level), StreamConfig::default());
    let closed = journal_until_kill(
        &dir,
        &mut live,
        &frames[..kill],
        s.checkpoint_every,
        s.segment_frames,
    );
    let rec = FrameJournal::recover(&dir, map(&campus.db, level), StreamConfig::default());
    let _ = std::fs::remove_dir_all(&dir);
    let rec = rec.map_err(|e| TestCaseError::fail(format!("{level:?}: recovery failed: {e}")))?;
    prop_assert_eq!(rec.next_seq, kill as u64, "{:?}: next_seq", level);

    // (b), then (a): the solve count, then the whole engine.
    prop_assert_eq!(
        rec.engine.stats().lp_solves,
        live.stats().lp_solves,
        "{:?}: lp_solves",
        level
    );
    prop_assert!(
        rec.engine.snapshot() == live.snapshot(),
        "{:?}: the recovered snapshot differs",
        level
    );

    // (c): the windows, each deferred.
    prop_assert_eq!(
        rec.closed.len(),
        closed.len(),
        "{:?}: closed windows",
        level
    );
    for (r, c) in rec.closed.iter().zip(&closed) {
        prop_assert_eq!(
            (r.window, r.mobile, &r.gamma),
            (c.window, c.mobile, &c.gamma),
            "{:?}: closed window",
            level
        );
        prop_assert!(
            matches!(r.outcome, Err(PipelineError::DeferredLocalization)),
            "{:?}: window {} of {} carries a live outcome",
            level,
            r.window,
            r.mobile
        );
    }

    // (d): both engines resume to the end alike.
    let mut recovered = rec.engine;
    let resumed = run_to_end(&mut recovered, &frames[kill..]);
    let reference = run_to_end(&mut live, &frames[kill..]);
    let (resumed_keys, reference_keys): (Vec<String>, Vec<String>) = (
        resumed.iter().map(outcome_key).collect(),
        reference.iter().map(outcome_key).collect(),
    );
    prop_assert_eq!(resumed_keys, reference_keys, "{:?}: live outcomes", level);
    prop_assert!(
        recovered.snapshot() == live.snapshot(),
        "{:?}: the final snapshots differ",
        level
    );

    // (e): the recovered run's batch fixes are the batch pipeline's.
    let mut all = rec.closed;
    all.extend(resumed);
    prop_assert_eq!(
        &fix_keys(&recovered.batch_fixes(all)),
        batch,
        "{:?}: batch fixes",
        level
    );
    Ok(())
}

/// `track_all` over the whole campus at `level`.
fn track_all(campus: &Campus, level: KnowledgeLevel) -> Vec<String> {
    let mut batch = map(&campus.db, level);
    batch.ingest(&campus.captures);
    fix_keys(&batch.track_all(&campus.captures))
}

fn scenarios() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        20usize..=60,
        2usize..=6,
        120u32..=400,
        0usize..=1000,
        prop::option::of(16usize..=256),
        8usize..=512,
    )
        .prop_map(
            |(seed, aps, mobiles, duration_s, kill_permille, checkpoint_every, segment_frames)| {
                Scenario {
                    seed,
                    aps,
                    mobiles,
                    duration_s,
                    kill_permille,
                    checkpoint_every,
                    segment_frames,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn recovery_equals_the_uninterrupted_live_run(s in scenarios()) {
        let campus = campus(&s);
        for level in [KnowledgeLevel::Full, KnowledgeLevel::LocationsOnly] {
            let batch = track_all(&campus, level);
            check(&s, &campus, level, &batch)?;
        }
    }
}

fn mac(i: u64) -> MacAddr {
    MacAddr::from_index(i)
}

/// Locations-only knowledge of four APs around the origin.
fn tiny_map() -> MaraudersMap {
    let db: ApDatabase = [
        (100u64, Point::new(0.0, 0.0)),
        (101, Point::new(100.0, 0.0)),
        (102, Point::new(50.0, 80.0)),
        (103, Point::new(150.0, 80.0)),
    ]
    .into_iter()
    .map(|(i, p)| ApRecord {
        bssid: mac(i),
        ssid: None,
        location: p,
        radius: None,
    })
    .collect();
    MaraudersMap::new(db, KnowledgeLevel::LocationsOnly, AttackConfig::default())
}

fn response(t: f64, ap: u64) -> CapturedFrame {
    CapturedFrame {
        time_s: t,
        card: 0,
        frame: Frame::probe_response(
            mac(ap),
            mac(1),
            Ssid::new("x").expect("short ssid"),
            Channel::bg(6).expect("bg channel"),
        ),
    }
}

/// Responses from `aps` to one mobile in each of windows `from..to`
/// (30 s each), two seconds into the window.
fn windows(from: u32, to: u32, aps: &[u64]) -> Vec<CapturedFrame> {
    (from..to)
        .flat_map(|w| {
            aps.iter()
                .map(move |&ap| response(f64::from(w) * 30.0 + 2.0, ap))
        })
        .collect()
}

#[test]
fn a_tail_that_closes_no_window_changes_nothing() {
    // A lazy engine's checkpoint carries no cached radii, so a settle
    // would show in the snapshot: the tail must close no window, count
    // no solve and leave the restored state as it is.
    let mut frames = windows(0, 5, &[100, 101]);
    // Frames 0..10 close windows 0..=3; the tail adds two APs to the
    // open window 4 and closes nothing.
    frames.extend([response(125.0, 102), response(126.0, 103)]);
    let dir = scratch();
    let mut engine = StreamEngine::new(tiny_map(), lazy());
    journal_until_kill(&dir, &mut engine, &frames, Some(10), 64);
    let rec = FrameJournal::recover(&dir, tiny_map(), StreamConfig::default()).expect("recover");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(rec.report.checkpoint_seq, Some(10));
    assert_eq!(rec.report.records_replayed, 2);
    assert_eq!(rec.closed.len(), engine.stats().windows_closed);
    assert_eq!(rec.engine.stats().lp_solves, 0);
    assert!(rec.engine.snapshot() == engine.snapshot());
}

#[test]
fn a_lazy_checkpoint_recovers_live() {
    // Windows 0..9 see the same two APs, so past the evidence gate a
    // fold is clean; the checkpoint, after windows 0..=4 closed, carries
    // no cached radii. The tail's first close (window 5) folds clean
    // and still owes the solve the uncached radii call for; window 9
    // brings a new AP and dirties the LP again.
    let mut frames = windows(0, 9, &[100, 101]);
    frames.extend(windows(9, 12, &[100, 101, 102]));
    let (checkpoint_at, kill) = (12, 23);
    let dir = scratch();
    let mut engine = StreamEngine::new(tiny_map(), lazy());
    journal_until_kill(&dir, &mut engine, &frames[..kill], Some(checkpoint_at), 64);
    let rec = FrameJournal::recover(&dir, tiny_map(), StreamConfig::default()).expect("recover");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(rec.report.checkpoint_seq, Some(12));
    assert!(rec
        .closed
        .iter()
        .all(|w| matches!(w.outcome, Err(PipelineError::DeferredLocalization))));

    // The reference replays the same tail live over the restored
    // checkpoint engine, one solve per close that calls for one.
    let mut checkpointed = StreamEngine::new(tiny_map(), lazy());
    for f in &frames[..checkpoint_at] {
        checkpointed.push(f);
    }
    let doc = checkpointed.snapshot();
    let mut reference = StreamEngine::restore(tiny_map(), &doc).expect("restore");
    for f in &frames[checkpoint_at..kill] {
        reference.push(f);
    }
    assert_eq!(reference.stats().lp_solves, 2, "the tail owes two solves");
    assert_eq!(rec.engine.stats(), reference.stats());
    assert!(rec.engine.snapshot() == reference.snapshot());

    let mut recovered = rec.engine;
    let resumed = run_to_end(&mut recovered, &frames[kill..]);
    let expected = run_to_end(&mut reference, &frames[kill..]);
    assert!(resumed.iter().any(|w| w.outcome.is_ok()));
    assert_eq!(
        resumed.iter().map(outcome_key).collect::<Vec<_>>(),
        expected.iter().map(outcome_key).collect::<Vec<_>>()
    );
    assert!(recovered.snapshot() == reference.snapshot());
}

#[test]
fn warm_started_recovery_keeps_the_batch_fixes() {
    // With warm starts the live radii are only optimum-equivalent
    // across a restore, so live outcomes are not pinned here; the batch
    // fixes, solved cold, are.
    let s = Scenario {
        seed: 17,
        aps: 40,
        mobiles: 3,
        duration_s: 300,
        kill_permille: 600,
        checkpoint_every: Some(128),
        segment_frames: 64,
    };
    let campus = campus(&s);
    let level = KnowledgeLevel::LocationsOnly;
    let warm = StreamConfig {
        warm_start: true,
        ..StreamConfig::default()
    };
    let kill = campus.frames.len() * s.kill_permille / 1000;
    let dir = scratch();
    let mut engine = StreamEngine::new(map(&campus.db, level), warm.clone());
    journal_until_kill(
        &dir,
        &mut engine,
        &campus.frames[..kill],
        s.checkpoint_every,
        s.segment_frames,
    );
    let rec = FrameJournal::recover(&dir, map(&campus.db, level), warm).expect("recover");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(rec.report.records_replayed > 0);
    let mut recovered = rec.engine;
    let mut closed = rec.closed;
    closed.extend(run_to_end(&mut recovered, &campus.frames[kill..]));
    let fixes = fix_keys(&recovered.batch_fixes(closed));
    assert!(!fixes.is_empty());
    assert_eq!(fixes, track_all(&campus, level));
}
