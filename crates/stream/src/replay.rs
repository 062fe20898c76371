//! Capture replay: drive the engine from stored frames and recover the
//! batch-equivalent fix list — plus the malformed-input budget every
//! capture-log ingest path shares, and the wall-clock helpers a *live*
//! replay needs (pacing, follow-mode polling).

use crate::engine::{ClosedWindow, StreamConfig, StreamEngine, StreamStats};
use marauder_core::pipeline::{MaraudersMap, TrackFix};
use marauder_core::PipelineError;
use marauder_wifi::capture_log::{capture_log_frames, ParseLogError};
use marauder_wifi::sniffer::{CaptureDatabase, CapturedFrame};
use std::time::{Duration, Instant};

/// Ceiling on a single replay's pacing span, seconds (~31 years).
///
/// Any legitimate capture fits with orders of magnitude to spare; a
/// frame that claims to be further than this into the replay carries a
/// corrupt timestamp (`1e300`, `+inf` survivors of an error budget),
/// not a schedule. [`pacing_gap`] treats such jumps as discontinuities
/// instead of feeding them to `Duration::from_secs_f64` — which panics
/// outside Duration's representable range.
pub const MAX_PACING_GAP_S: f64 = 1e9;

/// How long after the replay epoch the frame at `t` is due, given the
/// epoch frame time `t0` and a `speed`× real-time factor.
///
/// Returns `None` for a malformed schedule — a non-finite timestamp,
/// or a jump beyond [`MAX_PACING_GAP_S`] — which callers treat as a
/// log discontinuity: don't sleep, don't panic, keep replaying.
/// Frames earlier than the epoch are due immediately (`ZERO`), which
/// also covers the bounded timestamp inversions real rigs produce.
pub fn pacing_gap(t0: f64, t: f64, speed: f64) -> Option<Duration> {
    let gap = (t - t0) / speed;
    if !gap.is_finite() || gap > MAX_PACING_GAP_S {
        return None;
    }
    Some(Duration::from_secs_f64(gap.max(0.0)))
}

/// Paces a replay at `speed`× real time, keyed off frame timestamps.
/// Speed 0 disables pacing entirely. The clock starts at the first
/// frame, so leading silence in the log is skipped.
///
/// Malformed timestamps (NaN, `±inf`, absurd values like `1e300` that
/// survive a replay error budget) are treated as discontinuities — the
/// frame is released immediately and the pacing epoch is left alone —
/// rather than panicking inside `Duration::from_secs_f64` like the
/// original CLI-local implementation did.
#[derive(Debug)]
pub struct Pacer {
    speed: f64,
    start: Instant,
    first_t: Option<f64>,
}

impl Pacer {
    /// A pacer at `speed`× real time (0 disables pacing).
    pub fn new(speed: f64) -> Self {
        Self {
            speed,
            start: Instant::now(),
            first_t: None,
        }
    }

    /// Sleeps until the wall clock catches up with frame time `t`.
    pub fn wait_for(&mut self, t: f64) {
        if self.speed <= 0.0 {
            return;
        }
        // A non-finite first frame must not become the epoch: every
        // later gap against it would be NaN and pacing would silently
        // turn off for the rest of the replay.
        let t0 = match self.first_t {
            Some(t0) => t0,
            None if t.is_finite() => {
                self.first_t = Some(t);
                self.start = Instant::now();
                t
            }
            None => return,
        };
        let Some(target) = pacing_gap(t0, t, self.speed) else {
            return; // discontinuity: release immediately, keep the epoch
        };
        if let Some(wait) = target.checked_sub(self.start.elapsed()) {
            std::thread::sleep(wait);
        }
    }
}

/// Deterministic poll schedule for follow-mode (`tail -f`) readers.
///
/// A fixed sleep puts a constant latency floor under every frame — too
/// slow when the log is hot, pure waste when it is idle. This backoff
/// re-polls *immediately* after any poll that found data (a busy writer
/// gets drained at I/O speed) and decays exponentially toward `max`
/// while idle, so a quiet log costs one `stat` every 200 ms instead of
/// fifty.
///
/// The schedule is a pure function of the `found_data` history — no
/// clock reads — so it is unit-testable tick by tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PollBackoff {
    initial: Duration,
    max: Duration,
    next: Duration,
}

impl PollBackoff {
    /// A schedule starting at `initial` and doubling up to `max` while
    /// idle.
    pub fn new(initial: Duration, max: Duration) -> Self {
        PollBackoff {
            initial,
            max: max.max(initial),
            next: initial,
        }
    }

    /// The follow-mode default: 10 ms → 200 ms.
    pub fn follow_default() -> Self {
        PollBackoff::new(Duration::from_millis(10), Duration::from_millis(200))
    }

    /// How long to sleep before the next poll, given whether the one
    /// just completed found data. A hit resets the schedule and
    /// returns `ZERO` (re-poll immediately); a miss returns the
    /// current delay and doubles it, saturating at `max`.
    pub fn next_delay(&mut self, found_data: bool) -> Duration {
        if found_data {
            self.next = self.initial;
            return Duration::ZERO;
        }
        let delay = self.next;
        self.next = (self.next * 2).min(self.max);
        delay
    }
}

/// Streams `frames` through a fresh engine and returns the
/// batch-equivalent fixes plus the ingestion counters.
///
/// The fixes are byte-identical to [`MaraudersMap::track_all`] over
/// the same frames, provided the stream lost nothing (check
/// `stats.frames_late` and `stats.windows_evicted` — both stay zero
/// for any capture whose timestamp inversions fit inside
/// [`StreamConfig::allowed_lag_s`]).
///
/// Live localization is forced off regardless of `config`: every
/// per-window outcome is discarded here (only the batch re-pass below
/// is returned), so the per-window solve-and-locate would be pure
/// waste — skipping it is the bulk of replay's speed.
pub fn replay_frames<'a>(
    map: MaraudersMap,
    config: StreamConfig,
    frames: impl IntoIterator<Item = &'a CapturedFrame>,
) -> (Vec<TrackFix>, StreamStats) {
    let config = StreamConfig {
        live_localization: false,
        ..config
    };
    let mut engine = StreamEngine::new(map, config);
    let mut closed: Vec<ClosedWindow> = Vec::new();
    for frame in frames {
        closed.extend(engine.push(frame));
    }
    closed.extend(engine.finish());
    let fixes = engine.batch_fixes(closed);
    (fixes, engine.stats().clone())
}

/// [`replay_frames`] over a whole capture database, in stored order.
pub fn replay_database(
    map: MaraudersMap,
    config: StreamConfig,
    captures: &CaptureDatabase,
) -> (Vec<TrackFix>, StreamStats) {
    replay_frames(map, config, captures.iter())
}

/// The malformed-input rule every capture-log ingest path shares:
/// [`replay_log`], and the CLI's `replay` (with or without `--follow`)
/// and `serve`.
///
/// Real sniffer logs get corrupted — a process killed mid-write cuts
/// the final record, a flaky disk flips bytes. Aborting a whole
/// campaign over one bad line is worse than skipping it, but skipping
/// *silently* hides real corruption; the budget makes the trade
/// explicit. The first `budget` malformed body lines are skipped
/// deterministically and handed back for reporting; the next one is
/// fatal. A missing or wrong header line is never covered — the text is
/// not a capture log at all, and a budget rides out corruption *inside*
/// a log, it does not legitimize replaying a non-log.
#[derive(Debug, Clone)]
pub struct ErrorBudget {
    budget: usize,
    skipped: Vec<ParseLogError>,
}

impl ErrorBudget {
    /// A budget of `budget` malformed body lines.
    pub fn new(budget: usize) -> Self {
        ErrorBudget {
            budget,
            skipped: Vec::new(),
        }
    }

    /// Rules on one decode error: returns it again when the budget
    /// covers it, so the caller can report the skip.
    ///
    /// # Errors
    ///
    /// [`PipelineError::BadHeader`] for a header error (always line 1,
    /// whatever the budget), and [`PipelineError::BudgetExhausted`]
    /// naming the 1-based line that overflowed the budget.
    pub fn skip(&mut self, error: ParseLogError) -> Result<&ParseLogError, PipelineError> {
        if error.line() <= 1 {
            return Err(PipelineError::BadHeader);
        }
        if self.skipped.len() == self.budget {
            return Err(PipelineError::BudgetExhausted {
                line: error.line(),
                budget: self.budget,
            });
        }
        self.skipped.push(error);
        Ok(&self.skipped[self.skipped.len() - 1])
    }

    /// The errors skipped so far, in line order.
    pub fn skipped(&self) -> &[ParseLogError] {
        &self.skipped
    }
}

/// Streams a serialized capture log (the
/// [`marauder_wifi::capture_log`] text format) through a fresh engine,
/// tolerating up to `error_budget` malformed body lines under the
/// [`ErrorBudget`] rule, and returns the batch-equivalent fixes, the
/// ingestion counters and the skipped lines.
///
/// # Errors
///
/// [`PipelineError::BadHeader`] or [`PipelineError::BudgetExhausted`],
/// as [`ErrorBudget::skip`] rules.
pub fn replay_log(
    map: MaraudersMap,
    config: StreamConfig,
    text: &str,
    error_budget: usize,
) -> Result<(Vec<TrackFix>, StreamStats, Vec<ParseLogError>), PipelineError> {
    let mut engine = StreamEngine::new(map, config);
    let mut closed: Vec<ClosedWindow> = Vec::new();
    let mut budget = ErrorBudget::new(error_budget);
    for item in capture_log_frames(text) {
        match item {
            Ok(frame) => closed.extend(engine.push(&frame)),
            Err(e) => {
                budget.skip(e)?;
            }
        }
    }
    closed.extend(engine.finish());
    let fixes = engine.batch_fixes(closed);
    Ok((fixes, engine.stats().clone(), budget.skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn map(level: KnowledgeLevel) -> MaraudersMap {
        let db: ApDatabase = (0..6)
            .map(|i| ApRecord {
                bssid: mac(100 + i),
                ssid: None,
                location: Point::new((i % 3) as f64 * 90.0, (i / 3) as f64 * 90.0),
                radius: (level == KnowledgeLevel::Full).then_some(130.0),
            })
            .collect();
        MaraudersMap::new(db, level, AttackConfig::default())
    }

    fn synthetic_capture() -> CaptureDatabase {
        // Two mobiles wander for ten windows; responses arrive with
        // small timestamp inversions like a real rig produces.
        let mut db = CaptureDatabase::new();
        for k in 0..60u64 {
            let t = k as f64 * 5.0;
            let mobile = 1 + k % 2;
            for ap in [100 + k % 6, 100 + (k + 1) % 6] {
                db.push(CapturedFrame {
                    time_s: t + 0.01 * (ap - 99) as f64,
                    card: 0,
                    frame: Frame::probe_response(
                        mac(ap),
                        mac(mobile),
                        Ssid::new("n").unwrap(),
                        Channel::bg(6).unwrap(),
                    ),
                });
            }
        }
        db
    }

    #[test]
    fn replay_is_byte_identical_to_track_all() {
        for level in [KnowledgeLevel::Full, KnowledgeLevel::LocationsOnly] {
            let captures = synthetic_capture();
            let mut batch_map = map(level);
            batch_map.ingest(&captures);
            let batch = batch_map.track_all(&captures);
            assert!(!batch.is_empty(), "{level:?}: scenario must produce fixes");

            let (streamed, stats) = replay_database(map(level), StreamConfig::default(), &captures);
            assert_eq!(stats.frames_late, 0);
            assert_eq!(stats.windows_evicted, 0);
            assert_eq!(streamed.len(), batch.len(), "{level:?}: fix count");
            for (s, b) in streamed.iter().zip(&batch) {
                assert_eq!(s.time_s.to_bits(), b.time_s.to_bits());
                assert_eq!(s.mobile, b.mobile);
                assert_eq!(s.gamma, b.gamma);
                assert_eq!(
                    s.estimate.position.x.to_bits(),
                    b.estimate.position.x.to_bits()
                );
                assert_eq!(
                    s.estimate.position.y.to_bits(),
                    b.estimate.position.y.to_bits()
                );
                assert_eq!(s.estimate.k, b.estimate.k);
                assert_eq!(s.estimate.area().to_bits(), b.estimate.area().to_bits());
            }
        }
    }

    #[test]
    fn replay_log_enforces_the_error_budget() {
        use marauder_wifi::capture_log::write_capture_log;
        let captures = synthetic_capture();
        let clean = write_capture_log(&captures);
        let mut lines: Vec<String> = clean.lines().map(String::from).collect();
        lines[10] = "garbage line".into(); // 1-based line 11
        lines[25] = "1.0 0 zz".into(); // 1-based line 26
        let corrupted = lines.join("\n");
        let cfg = StreamConfig::default;

        // Budget 0: abort on the first malformed line, 1-based.
        let err = replay_log(map(KnowledgeLevel::Full), cfg(), &corrupted, 0).unwrap_err();
        assert_eq!(
            err,
            PipelineError::BudgetExhausted {
                line: 11,
                budget: 0
            }
        );
        // Budget 1: the first is skipped, the second aborts.
        let err = replay_log(map(KnowledgeLevel::Full), cfg(), &corrupted, 1).unwrap_err();
        assert_eq!(
            err,
            PipelineError::BudgetExhausted {
                line: 26,
                budget: 1
            }
        );

        // Budget 2: completes, reporting exactly the two skipped lines.
        let (fixes, stats, skipped) =
            replay_log(map(KnowledgeLevel::Full), cfg(), &corrupted, 2).unwrap();
        assert_eq!(skipped.len(), 2);
        assert_eq!(skipped[0].line(), 11);
        assert_eq!(skipped[1].line(), 26);

        // The result is byte-identical to replaying the surviving
        // frames directly — the skips are deterministic.
        let survivors: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 10 && *i != 25)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let (want, want_stats, none_skipped) =
            replay_log(map(KnowledgeLevel::Full), cfg(), &survivors, 0).unwrap();
        assert!(none_skipped.is_empty());
        assert_eq!(stats, want_stats);
        assert_eq!(fixes.len(), want.len());
        assert!(!fixes.is_empty());
        for (a, b) in fixes.iter().zip(&want) {
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
            assert_eq!(a.mobile, b.mobile);
            assert_eq!(
                a.estimate.position.x.to_bits(),
                b.estimate.position.x.to_bits()
            );
            assert_eq!(
                a.estimate.position.y.to_bits(),
                b.estimate.position.y.to_bits()
            );
        }

        // A missing header is not a body error: no budget covers it.
        let err = replay_log(map(KnowledgeLevel::Full), cfg(), "not a log", 10).unwrap_err();
        assert_eq!(err, PipelineError::BadHeader);
    }

    #[test]
    fn error_budget_hands_back_each_skip_then_refuses() {
        let errors: Vec<ParseLogError> = capture_log_frames("# marauder capture v1\nx\n\ny\nz\n")
            .filter_map(Result::err)
            .collect();
        let mut budget = ErrorBudget::new(2);
        assert_eq!(budget.skip(errors[0].clone()).unwrap().line(), 2);
        assert_eq!(budget.skip(errors[1].clone()).unwrap().line(), 4);
        assert_eq!(
            budget.skip(errors[2].clone()).unwrap_err(),
            PipelineError::BudgetExhausted { line: 5, budget: 2 }
        );
        assert_eq!(budget.skipped(), &errors[..2]);
        let header = capture_log_frames("x\n").next().unwrap().unwrap_err();
        assert_eq!(
            ErrorBudget::new(9).skip(header).unwrap_err(),
            PipelineError::BadHeader
        );
    }

    #[test]
    fn corrupted_header_is_bad_header_even_with_generous_budget() {
        // Regression for the `e.line() > 1` guard: a corrupted line 1
        // used to surface as BudgetExhausted { line: 1 } regardless of
        // how generous the budget was, which reads as "you ran out of
        // budget" when the real problem is "this is not a capture
        // log". The header is typed as its own, budget-independent
        // failure.
        use marauder_wifi::capture_log::write_capture_log;
        let clean = write_capture_log(&synthetic_capture());
        let mut lines: Vec<String> = clean.lines().map(String::from).collect();
        lines[0] = "corrupted header".into();
        let corrupted = lines.join("\n");
        for budget in [0, 1, 1000] {
            let err = replay_log(
                map(KnowledgeLevel::Full),
                StreamConfig::default(),
                &corrupted,
                budget,
            )
            .unwrap_err();
            assert_eq!(err, PipelineError::BadHeader, "budget {budget}");
        }
    }

    #[test]
    fn budget_boundary_is_exact() {
        // Exactly N malformed body lines pass with budget N and abort
        // with budget N-1 on the (N)th malformation — the boundary is
        // exact, not off by one.
        use marauder_wifi::capture_log::write_capture_log;
        let clean = write_capture_log(&synthetic_capture());
        let mut lines: Vec<String> = clean.lines().map(String::from).collect();
        let n = 5;
        let corrupt_at: Vec<usize> = (0..n).map(|i| 3 + 4 * i).collect(); // 0-based
        for &i in &corrupt_at {
            lines[i] = format!("corrupt body {i}");
        }
        let corrupted = lines.join("\n");

        // Budget == N: completes, reporting exactly the N skips.
        let (_, _, skipped) = replay_log(
            map(KnowledgeLevel::Full),
            StreamConfig::default(),
            &corrupted,
            n,
        )
        .unwrap();
        assert_eq!(skipped.len(), n);
        let skipped_lines: Vec<usize> = skipped.iter().map(|e| e.line()).collect();
        let expected: Vec<usize> = corrupt_at.iter().map(|i| i + 1).collect();
        assert_eq!(skipped_lines, expected);

        // Budget == N-1: the N-th malformed line exhausts it.
        let err = replay_log(
            map(KnowledgeLevel::Full),
            StreamConfig::default(),
            &corrupted,
            n - 1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            PipelineError::BudgetExhausted {
                line: corrupt_at[n - 1] + 1,
                budget: n - 1
            }
        );
    }

    #[test]
    fn pacing_gap_rejects_malformed_schedules_without_panicking() {
        // The regression this module exists for: 1e300 fed to
        // Duration::from_secs_f64 panics ("can not convert float
        // seconds to Duration"). pacing_gap types it as a
        // discontinuity instead.
        assert_eq!(pacing_gap(0.0, 1e300, 1.0), None);
        assert_eq!(pacing_gap(0.0, f64::INFINITY, 1.0), None);
        assert_eq!(pacing_gap(0.0, f64::NAN, 1.0), None);
        assert_eq!(pacing_gap(f64::NAN, 5.0, 1.0), None);
        assert_eq!(pacing_gap(0.0, MAX_PACING_GAP_S * 1.01, 1.0), None);
        // Speed divides the gap, so an absurd timestamp is absurd at
        // any speed — and a huge gap at high speed becomes sane again.
        assert_eq!(pacing_gap(0.0, 1e300, 1e6), None);
        assert_eq!(
            pacing_gap(0.0, 2e9, 4.0),
            Some(Duration::from_secs_f64(5e8))
        );

        // Sane schedules pace exactly; inversions release immediately.
        assert_eq!(pacing_gap(10.0, 70.0, 2.0), Some(Duration::from_secs(30)));
        assert_eq!(pacing_gap(10.0, 4.0, 2.0), Some(Duration::ZERO));
    }

    #[test]
    fn pacer_survives_malformed_timestamps() {
        // Pure-logic end of the CLI regression test: the old
        // CLI-local Pacer panicked here. No assertion on wall time —
        // the discontinuity rule means none of these sleeps.
        let mut pacer = Pacer::new(1_000_000.0);
        pacer.wait_for(0.0);
        pacer.wait_for(1e300); // absurd: skipped, epoch kept
        pacer.wait_for(f64::NAN);
        pacer.wait_for(0.5); // paced normally off the 0.0 epoch
        let mut nan_first = Pacer::new(10.0);
        nan_first.wait_for(f64::NAN); // must not poison the epoch
        nan_first.wait_for(3.0);
        assert_eq!(nan_first.first_t, Some(3.0));
    }

    #[test]
    fn poll_backoff_schedule_is_exact() {
        let mut poll = PollBackoff::follow_default();
        let ms = Duration::from_millis;
        // Idle decay: 10, 20, 40, 80, 160, then clamped at 200.
        let idle: Vec<Duration> = (0..7).map(|_| poll.next_delay(false)).collect();
        assert_eq!(
            idle,
            vec![ms(10), ms(20), ms(40), ms(80), ms(160), ms(200), ms(200)]
        );
        // A hit re-polls immediately and resets the decay.
        assert_eq!(poll.next_delay(true), Duration::ZERO);
        assert_eq!(poll.next_delay(true), Duration::ZERO);
        assert_eq!(poll.next_delay(false), ms(10));
        assert_eq!(poll.next_delay(false), ms(20));
        // max < initial is clamped, not a panic.
        let mut tight = PollBackoff::new(ms(50), ms(10));
        assert_eq!(tight.next_delay(false), ms(50));
        assert_eq!(tight.next_delay(false), ms(50));
    }

    #[test]
    fn incremental_solver_skips_most_windows() {
        let captures = synthetic_capture();
        let (_, stats) = replay_database(
            map(KnowledgeLevel::LocationsOnly),
            StreamConfig::default(),
            &captures,
        );
        assert!(stats.windows_closed > 10);
        assert!(
            stats.lp_solves < stats.windows_closed,
            "dirty tracking never skipped a solve: {} solves for {} windows",
            stats.lp_solves,
            stats.windows_closed
        );
    }
}
