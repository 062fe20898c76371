//! The online tracking engine.

use marauder_core::pipeline::{FixProvenance, KnowledgeLevel, MaraudersMap, TrackFix};
use marauder_core::{ApRadSolver, Estimate, PipelineError};
use marauder_wifi::frame::FrameBody;
use marauder_wifi::mac::MacAddr;
use marauder_wifi::sniffer::{window_index, window_start, CapturedFrame, ObservationSet};
use std::collections::{BTreeMap, BTreeSet};

/// Streaming-specific knobs (the windowing itself comes from the map's
/// [`AttackConfig`](marauder_core::pipeline::AttackConfig)).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// How far behind the watermark (the largest timestamp seen) a
    /// frame may arrive and still be windowed, seconds. Window `k`
    /// closes once the watermark passes `(k+1)·window_s + allowed_lag_s`;
    /// frames older than that are counted late and dropped. Capture
    /// rigs reorder within tens of milliseconds (card clock offsets,
    /// response turnaround), so the 1 s default is generous.
    pub allowed_lag_s: f64,
    /// Bounded-memory guarantee: at most this many *distinct window
    /// indices* stay open; beyond it the oldest windows are
    /// force-closed (evicted) even though stragglers could still
    /// arrive. `0` disables eviction.
    pub max_open_windows: usize,
    /// Whether each closed window is localized *live* at close time
    /// (the default). Replay paths that only consume
    /// [`batch_fixes`](StreamEngine::batch_fixes) disable this: every
    /// per-window estimate would be discarded anyway, and skipping the
    /// per-window solve-and-locate is the bulk of replay's cost. With
    /// it off, [`ClosedWindow::outcome`] is
    /// `Err(PipelineError::DeferredLocalization)`.
    pub live_localization: bool,
    /// Whether live re-solves warm-start from the previous window's
    /// optimal basis (see
    /// [`ApRadSolver::set_warm_start`]). Affects only the live
    /// estimates — [`batch_fixes`](StreamEngine::batch_fixes) always
    /// re-solves cold, so batch output is byte-identical either way.
    ///
    /// Off by default: a warm solve is a genuine optimum but may sit on
    /// a different vertex of the optimal face than the cold solve, and
    /// the warm basis memory is deliberately not serialized into
    /// snapshots — so with warm starts on, live estimates are
    /// optimum-equivalent (not bit-pinned) across a snapshot/restore.
    /// Opt in where live latency matters more than that pin.
    pub warm_start: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            allowed_lag_s: 1.0,
            max_open_windows: 64,
            live_localization: true,
            warm_start: false,
        }
    }
}

/// Ingestion counters — the engine's observability surface.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames pushed, of any kind.
    pub frames_total: usize,
    /// Probe-response frames that landed in a window.
    pub frames_relevant: usize,
    /// Probe-response frames dropped because their window had already
    /// closed (arrived more than `allowed_lag_s` behind the watermark,
    /// or after an eviction).
    pub frames_late: usize,
    /// Frames rejected before windowing because their timestamp was
    /// NaN or infinite — a malformed timestamp must never poison the
    /// watermark (a single `+∞` would instantly close every future
    /// window).
    pub frames_malformed: usize,
    /// Windows closed (emitted), including evicted ones.
    pub windows_closed: usize,
    /// Windows force-closed by the `max_open_windows` bound.
    pub windows_evicted: usize,
    /// AP-Rad LP solves the window sequence called for: one per live
    /// close whose fold left the live radii stale, plus the canonical
    /// solve [`batch_fixes`](StreamEngine::batch_fixes) makes when the
    /// statistics moved since. A close counts whether its solve ran
    /// there or was settled at the end of journal recovery's catch-up
    /// (see [`FrameJournal::recover`](crate::FrameJournal::recover)).
    /// The incremental solver skips the re-solve for every closed
    /// window that provably left the constraint set unchanged, so this
    /// is typically much smaller than `windows_closed`.
    pub lp_solves: usize,
}

/// One observation window the engine has finished assembling.
///
/// `estimate` is the *live* localization at close time — computed with
/// whatever radii the solver had converged to by then (`None` when the
/// discs don't intersect usefully yet). Batch-equivalent output
/// re-localizes all windows with the final radii via
/// [`StreamEngine::batch_fixes`]; at the Full knowledge level radii
/// never change, so live estimates already equal the batch ones. With
/// [`StreamConfig::live_localization`] off the outcome is always
/// `Err(DeferredLocalization)` — replay consumers drop it unread.
#[derive(Debug, Clone)]
pub struct ClosedWindow {
    /// The window index (`time_s / window_s`, floored — half-open).
    pub window: i64,
    /// Window start time, seconds: `window · window_s`.
    pub window_start_s: f64,
    /// The mobile the window belongs to.
    pub mobile: MacAddr,
    /// BSSIDs observed responding to the mobile within the window.
    pub gamma: BTreeSet<MacAddr>,
    /// Live localization at close time, with the ladder rung that
    /// produced it ([`Err`] holds the typed reason the window was not
    /// locatable live). `Err(DeferredLocalization)` when it was not
    /// localized live: in lazy mode, and for every window closed while
    /// journal recovery catches up (see
    /// [`FrameJournal::recover`](crate::FrameJournal::recover)).
    pub outcome: Result<(Estimate, FixProvenance), PipelineError>,
}

impl ClosedWindow {
    /// Live localization at close time (`None` when the window was not
    /// locatable live).
    pub fn estimate(&self) -> Option<&Estimate> {
        self.outcome.as_ref().ok().map(|(est, _)| est)
    }

    /// Converts the event into a [`TrackFix`], or `None` when the
    /// window was not locatable live.
    pub fn into_fix(self) -> Option<TrackFix> {
        let (estimate, provenance) = self.outcome.ok()?;
        Some(TrackFix {
            time_s: self.window_start_s,
            mobile: self.mobile,
            gamma: self.gamma,
            estimate,
            provenance,
        })
    }
}

/// The live tracking engine: push frames in, get [`ClosedWindow`]
/// events out. See the [crate docs](crate) for the architecture.
#[derive(Debug, Clone)]
pub struct StreamEngine {
    pub(crate) map: MaraudersMap,
    pub(crate) solver: Option<ApRadSolver>,
    pub(crate) config: StreamConfig,
    pub(crate) window_s: f64,
    /// Open windows, keyed window-first so the oldest drain first.
    pub(crate) open: BTreeMap<(i64, MacAddr), BTreeSet<MacAddr>>,
    /// All windows `< closed_before` are closed and will never reopen;
    /// `None` until the first close.
    pub(crate) closed_before: Option<i64>,
    /// Largest timestamp seen; `None` before the first frame.
    pub(crate) watermark: Option<f64>,
    pub(crate) stats: StreamStats,
    /// Local watermark-lag histogram buckets (bounds
    /// [`WATERMARK_LAG_BOUNDS_S`] plus overflow): the per-frame path
    /// accumulates here and [`finish`](Self::finish) merges into the
    /// global registry once, so ingest never takes the registry lock
    /// per frame. Process-local — deliberately not serialized into
    /// snapshots.
    lag_counts: [u64; WATERMARK_LAG_BOUNDS_S.len() + 1],
    /// High-water mark of simultaneously open `(window, mobile)`
    /// entries.
    open_peak: usize,
    /// Guards the one-shot metrics flush in `finish`.
    metrics_flushed: bool,
    /// `Some` only inside [`catch_up`](Self::catch_up), holding whether
    /// a live re-solve is owed to its settle. Never serialized.
    catching_up: Option<bool>,
}

/// Bucket bounds (inclusive upper edges, seconds) for the
/// `stream.watermark_lag_s` histogram: how far behind the watermark
/// each relevant frame arrived. The spread is tuned around the default
/// [`StreamConfig::allowed_lag_s`] of 1 s — buckets below it show
/// benign jitter, buckets above it show frames at risk of being late.
pub const WATERMARK_LAG_BOUNDS_S: [f64; 7] = [0.05, 0.1, 0.25, 0.5, 1.0, 5.0, 30.0];

impl StreamEngine {
    /// Wraps a [`MaraudersMap`] into a streaming engine.
    ///
    /// The engine owns the map's knowledge updates from here on: at the
    /// non-Full levels it creates a fresh incremental
    /// [`ApRadSolver`] and re-estimates radii as windows close,
    /// overwriting whatever a previous batch `ingest` installed.
    ///
    /// # Panics
    ///
    /// Panics on a negative `allowed_lag_s` (the map's positive
    /// `window_s` is enforced by the map itself).
    pub fn new(map: MaraudersMap, config: StreamConfig) -> Self {
        assert!(
            config.allowed_lag_s >= 0.0,
            "allowed lag must be non-negative, got {}",
            config.allowed_lag_s
        );
        let window_s = map.config().window_s;
        assert!(window_s > 0.0, "window must be positive, got {window_s}");
        let mut solver = map.radius_solver();
        if let Some(s) = solver.as_mut() {
            s.set_warm_start(config.warm_start);
        }
        StreamEngine {
            map,
            solver,
            config,
            window_s,
            open: BTreeMap::new(),
            closed_before: None,
            watermark: None,
            stats: StreamStats::default(),
            lag_counts: [0; WATERMARK_LAG_BOUNDS_S.len() + 1],
            open_peak: 0,
            metrics_flushed: false,
            catching_up: None,
        }
    }

    /// Runs `tail` in catch-up mode, then settles — journal recovery
    /// replays its tail this way. A window that closes inside `tail`
    /// folds its Γ into the AP-Rad statistics and does nothing else:
    /// its outcome is `Err(DeferredLocalization)`, but a live re-solve
    /// the close would have made still counts in
    /// [`StreamStats::lp_solves`]. If any was skipped, the settle makes
    /// the one solve they add up to. A cold solve reads only the
    /// order-independent statistics, and a clean fold leaves it
    /// bit-identical, so that one solve installs exactly the radii the
    /// last dirtying close would have.
    pub(crate) fn catch_up<T>(&mut self, tail: impl FnOnce(&mut StreamEngine) -> T) -> T {
        self.catching_up = Some(false);
        let out = tail(self);
        if self.catching_up.take() == Some(true) {
            if let Some(solver) = self.solver.as_mut() {
                let radii = solver.live_radii().clone();
                self.map.apply_radii(radii);
            }
        }
        out
    }

    /// Overrides the process-configuration mode flags —
    /// [`StreamConfig::live_localization`] and
    /// [`StreamConfig::warm_start`] — on an existing engine. These are
    /// deliberately not serialized into snapshots (see
    /// [`restore`](Self::restore)), so callers resuming from a
    /// checkpoint use this to reapply their own mode.
    pub fn set_mode(&mut self, live_localization: bool, warm_start: bool) {
        self.config.live_localization = live_localization;
        self.config.warm_start = warm_start;
        if let Some(s) = self.solver.as_mut() {
            s.set_warm_start(warm_start);
        }
    }

    /// Feeds one captured frame; returns the windows (possibly none)
    /// this frame's timestamp allowed to close, oldest first.
    pub fn push(&mut self, frame: &CapturedFrame) -> Vec<ClosedWindow> {
        self.stats.frames_total += 1;
        if !frame.time_s.is_finite() {
            self.stats.frames_malformed += 1;
            return Vec::new();
        }
        let mark = match self.watermark {
            Some(mark) => mark.max(frame.time_s),
            None => frame.time_s,
        };
        self.watermark = Some(mark);
        // Exactly the frames `CaptureDatabase::observation_sets` groups:
        // probe responses to a unicast destination.
        if matches!(frame.frame.body, FrameBody::ProbeResponse { .. })
            && !frame.frame.dst.is_broadcast()
        {
            self.observe_lag(mark - frame.time_s);
            let w = window_index(frame.time_s, self.window_s);
            if self.closed_before.is_some_and(|cb| w < cb) {
                self.stats.frames_late += 1;
            } else {
                self.stats.frames_relevant += 1;
                self.open
                    .entry((w, frame.frame.dst))
                    .or_default()
                    .insert(frame.frame.bssid);
                self.open_peak = self.open_peak.max(self.open.len());
            }
        }
        self.drain_closable()
    }

    /// Declares the stream over: closes and emits every still-open
    /// window, oldest first, then flushes the engine's accumulated
    /// metrics to the global registry. Further pushes count as late.
    pub fn finish(&mut self) -> Vec<ClosedWindow> {
        let out = self.close_below(i64::MAX);
        self.flush_metrics();
        out
    }

    /// Buckets one watermark lag (seconds behind the newest timestamp
    /// seen) into the local histogram.
    fn observe_lag(&mut self, lag_s: f64) {
        let mut slot = WATERMARK_LAG_BOUNDS_S.len();
        for (i, b) in WATERMARK_LAG_BOUNDS_S.iter().enumerate() {
            if lag_s <= *b {
                slot = i;
                break;
            }
        }
        self.lag_counts[slot] += 1;
    }

    /// One-shot merge of everything accumulated locally into the
    /// global registry. All of it is deterministic: the counters and
    /// lag buckets are pure functions of the frame sequence, and the
    /// engine itself is single-threaded.
    fn flush_metrics(&mut self) {
        if self.metrics_flushed {
            return;
        }
        self.metrics_flushed = true;
        let reg = marauder_obs::global();
        reg.counter_add("stream.frames_total", self.stats.frames_total as u64);
        reg.counter_add("stream.frames_relevant", self.stats.frames_relevant as u64);
        reg.counter_add("stream.frames_late", self.stats.frames_late as u64);
        reg.counter_add(
            "stream.frames_malformed",
            self.stats.frames_malformed as u64,
        );
        reg.counter_add("stream.windows_closed", self.stats.windows_closed as u64);
        reg.counter_add("stream.windows_evicted", self.stats.windows_evicted as u64);
        reg.counter_add("stream.lp_solves", self.stats.lp_solves as u64);
        reg.gauge_max("stream.open_windows_peak", self.open_peak as i64);
        reg.histogram_merge(
            "stream.watermark_lag_s",
            &WATERMARK_LAG_BOUNDS_S,
            &self.lag_counts,
        );
    }

    /// Re-localizes a set of closed windows with the engine's *final*
    /// knowledge and returns them in batch order — sorted by
    /// `(mobile, window)`, unlocatable windows dropped.
    ///
    /// Called after [`finish`](Self::finish) with every event the
    /// stream emitted, the result is byte-identical to
    /// [`MaraudersMap::track_all`] over the equivalent capture
    /// database (provided nothing was dropped late or evicted — check
    /// [`stats`](Self::stats)): the window sets match by construction,
    /// the final radii match because the AP-Rad program only reads
    /// order-independent statistics, and both sides localize through
    /// `MaraudersMap::localize_windows`.
    pub fn batch_fixes(&mut self, mut closed: Vec<ClosedWindow>) -> Vec<TrackFix> {
        // One canonical cold solve with the final statistics before
        // localizing. This is what makes the batch output independent
        // of the live path: lazy replay never applied radii per window,
        // and warm live solves may have installed a different (equally
        // optimal) vertex — either way the canonical solution goes in
        // here, so batch fixes are byte-identical for every combination
        // of `live_localization` and `warm_start`.
        if let Some(solver) = self.solver.as_mut() {
            if solver.is_dirty() {
                self.stats.lp_solves += 1;
                if self.metrics_flushed {
                    // `finish` already flushed the one-shot counters;
                    // keep the global registry consistent with stats.
                    marauder_obs::global().counter_add("stream.lp_solves", 1);
                }
                let radii = solver.radii().clone();
                self.map.apply_radii(radii);
            }
        }
        closed.sort_by_key(|c| (c.mobile, c.window));
        let sets: Vec<ObservationSet> = closed
            .into_iter()
            .map(|c| ObservationSet {
                mobile: c.mobile,
                window_start_s: c.window_start_s,
                aps: c.gamma,
            })
            .collect();
        self.map.localize_windows(sets)
    }

    /// Ingestion counters.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// The wrapped map, with whatever radii the solver has converged
    /// to so far.
    pub fn map(&self) -> &MaraudersMap {
        &self.map
    }

    /// The knowledge level the engine operates at.
    pub fn knowledge(&self) -> KnowledgeLevel {
        self.map.knowledge()
    }

    /// Number of currently open `(window, mobile)` entries.
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }

    /// Largest timestamp ingested so far.
    pub fn watermark(&self) -> Option<f64> {
        self.watermark
    }

    /// Closes every window the current watermark has left behind, then
    /// enforces the open-window bound.
    fn drain_closable(&mut self) -> Vec<ClosedWindow> {
        let Some(mark) = self.watermark else {
            return Vec::new();
        };
        // Window k may close once mark ≥ (k+1)·w + lag; equivalently
        // every window below the one containing (mark − lag) is safe.
        let boundary = window_index(mark - self.config.allowed_lag_s, self.window_s);
        let mut out = self.close_below(boundary);
        if self.config.max_open_windows > 0 {
            while self.distinct_open_indices() > self.config.max_open_windows {
                let Some(&(oldest, _)) = self.open.keys().next() else {
                    break;
                };
                let evicted = self.close_below(oldest + 1);
                self.stats.windows_evicted += evicted.len();
                out.extend(evicted);
            }
        }
        out
    }

    /// Closes every open window with index `< boundary` (oldest first)
    /// and advances the no-reopen cursor.
    fn close_below(&mut self, boundary: i64) -> Vec<ClosedWindow> {
        let mut out = Vec::new();
        while self
            .open
            .first_key_value()
            .is_some_and(|(&(w, _), _)| w < boundary)
        {
            let Some(((w, mobile), gamma)) = self.open.pop_first() else {
                break;
            };
            out.push(self.close_window(w, mobile, gamma));
        }
        self.closed_before = Some(match self.closed_before {
            Some(cb) => cb.max(boundary),
            None => boundary,
        });
        out
    }

    /// Emits one closed window: folds its Γ into the solver,
    /// re-solves the AP-Rad LP only if the fold dirtied it, and
    /// localizes live with the current knowledge.
    fn close_window(&mut self, w: i64, mobile: MacAddr, gamma: BTreeSet<MacAddr>) -> ClosedWindow {
        self.stats.windows_closed += 1;
        if let Some(solver) = self.solver.as_mut() {
            let dirtied = solver.observe(&gamma);
            // Lazy mode only folds the statistics: the solve (and the
            // localization below) are deferred to `batch_fixes`, which
            // is the only consumer in that mode.
            if self.config.live_localization && solver.is_live_dirty() {
                match self.catching_up.as_mut() {
                    // Count the solve this close would make and owe it
                    // to the settle. The first counted solve would have
                    // filled the cache; only a dirty fold empties it.
                    Some(owed) => {
                        if dirtied || !*owed {
                            self.stats.lp_solves += 1;
                            *owed = true;
                        }
                    }
                    None => {
                        self.stats.lp_solves += 1;
                        let radii = solver.live_radii().clone();
                        self.map.apply_radii(radii);
                    }
                }
            }
        }
        let outcome = if self.config.live_localization && self.catching_up.is_none() {
            self.map.try_locate(&gamma)
        } else {
            Err(PipelineError::DeferredLocalization)
        };
        ClosedWindow {
            window: w,
            window_start_s: window_start(w, self.window_s),
            mobile,
            gamma,
            outcome,
        }
    }

    /// Number of distinct window indices among the open entries.
    fn distinct_open_indices(&self) -> usize {
        let mut n = 0;
        let mut last = None;
        for &(w, _) in self.open.keys() {
            if last != Some(w) {
                n += 1;
                last = Some(w);
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marauder_core::apdb::{ApDatabase, ApRecord};
    use marauder_core::pipeline::AttackConfig;
    use marauder_geo::Point;
    use marauder_wifi::channel::Channel;
    use marauder_wifi::frame::Frame;
    use marauder_wifi::ssid::Ssid;

    fn mac(i: u64) -> MacAddr {
        MacAddr::from_index(i)
    }

    /// Full-knowledge map over three APs around the origin.
    fn tiny_map() -> MaraudersMap {
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

    #[test]
    fn windows_close_when_watermark_passes_lag() {
        let mut engine = StreamEngine::new(tiny_map(), StreamConfig::default());
        // Window 0 (30 s default) for mobile 1.
        assert!(engine.push(&response(1.0, 100, 1)).is_empty());
        assert!(engine.push(&response(2.0, 101, 1)).is_empty());
        // Watermark 30.5 < 31.0 = window end + lag: still open.
        assert!(engine.push(&response(30.5, 102, 1)).is_empty());
        assert_eq!(engine.open_windows(), 2);
        // Watermark 31.0 closes window 0.
        let events = engine.push(&response(31.0, 100, 1));
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.window, 0);
        assert_eq!(ev.window_start_s, 0.0);
        assert_eq!(ev.mobile, mac(1));
        assert_eq!(ev.gamma, [mac(100), mac(101)].into_iter().collect());
        assert!(
            ev.estimate().is_some(),
            "two Full-knowledge discs intersect"
        );
        // Window 1 is still assembling.
        assert_eq!(engine.open_windows(), 1);
        let rest = engine.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].window, 1);
        assert_eq!(engine.stats().windows_closed, 2);
    }

    #[test]
    fn boundary_frame_opens_the_next_window() {
        // The half-open regression on the streaming side: a response at
        // exactly t == window_end belongs to the next window. Mirrors
        // `observation_sets_respect_half_open_boundary` on the batch
        // side.
        let mut engine = StreamEngine::new(tiny_map(), StreamConfig::default());
        engine.push(&response(0.0, 100, 1));
        engine.push(&response(30.0, 101, 1));
        let mut events = engine.finish();
        events.sort_by_key(|e| e.window);
        assert_eq!(events.len(), 2, "boundary frame must open window 1");
        assert_eq!(events[0].window, 0);
        assert_eq!(events[0].gamma, [mac(100)].into_iter().collect());
        assert_eq!(events[1].window, 1);
        assert_eq!(events[1].window_start_s, 30.0);
        assert_eq!(events[1].gamma, [mac(101)].into_iter().collect());
    }

    #[test]
    fn late_frames_are_counted_and_dropped() {
        let mut engine = StreamEngine::new(tiny_map(), StreamConfig::default());
        engine.push(&response(1.0, 100, 1));
        let closed = engine.push(&response(40.0, 101, 1)); // closes window 0
        assert_eq!(closed.len(), 1);
        // A straggler for window 0, far beyond the allowed lag.
        let events = engine.push(&response(2.0, 102, 1));
        assert!(events.is_empty());
        assert_eq!(engine.stats().frames_late, 1);
        // The closed window did not reopen.
        assert_eq!(engine.open_windows(), 1);
    }

    #[test]
    fn within_lag_inversions_are_absorbed() {
        let mut engine = StreamEngine::new(tiny_map(), StreamConfig::default());
        engine.push(&response(30.4, 101, 1)); // window 1 first
        let events = engine.push(&response(29.9, 100, 1)); // then window 0
        assert!(events.is_empty(), "watermark 30.4 < 30 + lag keeps w0 open");
        let all = engine.finish();
        assert_eq!(all.len(), 2);
        assert_eq!(engine.stats().frames_late, 0);
    }

    #[test]
    fn eviction_bounds_open_windows() {
        let config = StreamConfig {
            allowed_lag_s: 1e6, // the close rule never fires on its own
            max_open_windows: 3,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::new(tiny_map(), config);
        let mut evicted = Vec::new();
        for k in 0..10 {
            evicted.extend(engine.push(&response(k as f64 * 30.0 + 1.0, 100, 1)));
        }
        // 10 window indices entered; at most 3 may remain open.
        assert_eq!(engine.stats().windows_evicted, 7);
        assert_eq!(evicted.len(), 7);
        assert_eq!(engine.open_windows(), 3);
        // Evicted windows never reopen: a frame for window 0 is late.
        engine.push(&response(2.0, 101, 1));
        assert_eq!(engine.stats().frames_late, 1);
    }

    #[test]
    fn non_response_frames_only_move_the_watermark() {
        let mut engine = StreamEngine::new(tiny_map(), StreamConfig::default());
        engine.push(&response(1.0, 100, 1));
        let probe = CapturedFrame {
            time_s: 45.0,
            card: 0,
            frame: Frame::probe_request(mac(1), None, 6),
        };
        let events = engine.push(&probe);
        assert_eq!(events.len(), 1, "watermark from any frame closes windows");
        assert_eq!(engine.stats().frames_relevant, 1);
        assert_eq!(engine.stats().frames_total, 2);
    }

    /// Locations-only map (no radii): the AP-Rad solver is active.
    fn locations_only_map() -> MaraudersMap {
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

    #[test]
    fn batch_fixes_are_identical_across_live_warm_and_lazy_modes() {
        // The live path's mode (cold live, warm live, or fully lazy)
        // must never leak into the batch output: `batch_fixes` does one
        // canonical cold solve with the final statistics either way.
        let run = |live: bool, warm: bool| {
            let config = StreamConfig {
                live_localization: live,
                warm_start: warm,
                ..StreamConfig::default()
            };
            let mut engine = StreamEngine::new(locations_only_map(), config);
            let mut events = Vec::new();
            for k in 0u64..24 {
                let t = k as f64 * 15.0 + 1.0;
                events.extend(engine.push(&response(t, 100 + k % 4, 1)));
                events.extend(engine.push(&response(t + 0.5, 100 + (k + 1) % 4, 1)));
            }
            events.extend(engine.finish());
            engine.batch_fixes(events)
        };
        let reference = run(true, false);
        assert!(!reference.is_empty(), "scenario must produce fixes");
        for (live, warm) in [(true, true), (false, false), (false, true)] {
            let other = run(live, warm);
            assert_eq!(reference.len(), other.len(), "live={live} warm={warm}");
            for (a, b) in reference.iter().zip(&other) {
                assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
                assert_eq!(a.mobile, b.mobile);
                assert_eq!(a.gamma, b.gamma);
                assert_eq!(
                    a.estimate.position.x.to_bits(),
                    b.estimate.position.x.to_bits(),
                    "live={live} warm={warm}: x diverged"
                );
                assert_eq!(
                    a.estimate.position.y.to_bits(),
                    b.estimate.position.y.to_bits(),
                    "live={live} warm={warm}: y diverged"
                );
                assert_eq!(a.estimate.area().to_bits(), b.estimate.area().to_bits());
            }
        }
    }

    #[test]
    fn lazy_mode_defers_every_outcome() {
        let config = StreamConfig {
            live_localization: false,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::new(locations_only_map(), config);
        let mut events = Vec::new();
        for k in 0u64..6 {
            events.extend(engine.push(&response(k as f64 * 30.0 + 1.0, 100 + k % 3, 1)));
        }
        events.extend(engine.finish());
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .all(|e| matches!(e.outcome, Err(PipelineError::DeferredLocalization))));
        // No per-window solves happened; the batch pass does exactly one.
        assert_eq!(engine.stats().lp_solves, 0);
        let fixes = engine.batch_fixes(events);
        assert!(!fixes.is_empty());
        assert_eq!(engine.stats().lp_solves, 1);
    }

    #[test]
    fn full_knowledge_never_solves() {
        let mut engine = StreamEngine::new(tiny_map(), StreamConfig::default());
        for k in 0u64..5 {
            engine.push(&response(k as f64 * 30.0 + 1.0, 100 + k % 3, 1));
        }
        engine.finish();
        assert_eq!(engine.stats().lp_solves, 0);
    }
}
