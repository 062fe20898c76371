//! Engine state snapshot/restore.
//!
//! A snapshot is a sealed [`DocKind::Engine`] document (see
//! [`persist`](crate::persist)) capturing everything the engine
//! accumulated from the stream: the open window table, the watermark
//! and no-reopen cursor, the ingestion counters, and the incremental
//! solver's observation statistics plus its cached radii. It does
//! **not** carry the AP knowledge itself — that is the attacker's
//! static asset; [`StreamEngine::restore`] takes the same
//! [`MaraudersMap`] the original engine was built from. The round trip
//! is bit-exact, so a resumed engine's output is byte-identical to an
//! uninterrupted run.

use crate::engine::{StreamConfig, StreamEngine, StreamStats};
use crate::persist::{self, DocKind, Field, PersistError, Reader};
use marauder_core::pipeline::MaraudersMap;
use marauder_core::ObservationStats;

impl StreamEngine {
    /// Serializes the engine's mutable state as a sealed document.
    pub fn snapshot(&self) -> Vec<u8> {
        persist::seal(DocKind::Engine, |out| self.encode_state(out))
    }

    /// Rebuilds an engine from `map` (the same AP knowledge the
    /// snapshotted engine was built from) and a document produced by
    /// [`snapshot`](Self::snapshot). Resuming ingestion from the
    /// snapshotted position yields output byte-identical to the
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`PersistError`] on a damaged or foreign document, when the
    /// snapshot's `window_s` does not match `map`'s (the windowing of
    /// the two engines would disagree), or when it carries solver state
    /// although `map`'s knowledge level has no solver, or the reverse.
    pub fn restore(map: MaraudersMap, doc: &[u8]) -> Result<StreamEngine, PersistError> {
        persist::open(doc, DocKind::Engine, |r| StreamEngine::decode_state(map, r))
    }

    /// Writes the engine state into a document body — inline, as the
    /// journal checkpoint and the fleet state embed it.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        let start = out.len();
        self.window_s.put(out);
        self.config.allowed_lag_s.put(out);
        self.config.max_open_windows.put(out);
        self.watermark.put(out);
        self.closed_before.put(out);
        let s = &self.stats;
        for n in [
            s.frames_total,
            s.frames_relevant,
            s.frames_late,
            s.frames_malformed,
            s.windows_closed,
            s.windows_evicted,
            s.lp_solves,
        ] {
            n.put(out);
        }
        self.open.put(out);
        self.solver.is_some().put(out);
        if let Some(solver) = &self.solver {
            let stats = solver.stats();
            stats.observed().put(out);
            stats.co_pairs().put(out);
            stats.seen_counts().put(out);
            stats.windows().put(out);
            solver.cached_radii().is_some().put(out);
            if let Some(radii) = solver.cached_radii() {
                radii.put(out);
            }
        }
        let reg = marauder_obs::global();
        reg.counter_add("stream.snapshots", 1);
        reg.counter_add("stream.snapshot_bytes", (out.len() - start) as u64);
    }

    /// Reads what [`encode_state`](Self::encode_state) wrote and
    /// rebuilds the engine over `map`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Malformed`] as for [`restore`](Self::restore).
    pub fn decode_state(map: MaraudersMap, r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let window_s: f64 = r.get()?;
        if window_s.to_bits() != map.config().window_s.to_bits() {
            return Err(r.malformed(format!(
                "snapshot window_s {window_s} does not match the map's {}",
                map.config().window_s
            )));
        }
        // Live/warm mode flags are process configuration, not stream
        // state: they are not serialized, so the restored engine runs
        // with the defaults (callers can rebuild with their own config;
        // the warm basis memory legitimately restarts cold either way).
        let config = StreamConfig {
            allowed_lag_s: r.get()?,
            max_open_windows: r.get()?,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::new(map, config);
        engine.watermark = r.get()?;
        engine.closed_before = r.get()?;
        engine.stats = StreamStats {
            frames_total: r.get()?,
            frames_relevant: r.get()?,
            frames_late: r.get()?,
            frames_malformed: r.get()?,
            windows_closed: r.get()?,
            windows_evicted: r.get()?,
            lp_solves: r.get()?,
        };
        engine.open = r.get()?;
        if engine.open.values().any(|gamma| gamma.is_empty()) {
            return Err(r.malformed("open window with an empty Γ"));
        }
        if r.get::<bool>()? != engine.solver.is_some() {
            return Err(r.malformed(
                "solver state must be present exactly when the map's knowledge level has a solver",
            ));
        }
        if let Some(solver) = engine.solver.as_mut() {
            let stats = ObservationStats::from_parts(r.get()?, r.get()?, r.get()?, r.get()?);
            let radii: Option<_> = r.get()?;
            solver.restore(stats, radii.clone());
            if let Some(radii) = radii {
                // Bring the map's interned discs in line with the
                // cached solution, exactly as the live path does.
                engine.map.apply_radii(radii);
            }
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamConfig;
    use marauder_core::apdb::{ApDatabase, ApRecord};
    use marauder_core::pipeline::{AttackConfig, KnowledgeLevel};
    use marauder_geo::Point;
    use marauder_wifi::channel::Channel;
    use marauder_wifi::frame::Frame;
    use marauder_wifi::mac::MacAddr;
    use marauder_wifi::sniffer::CapturedFrame;
    use marauder_wifi::ssid::Ssid;

    fn mac(i: u64) -> MacAddr {
        MacAddr::from_index(i)
    }

    fn map(level: KnowledgeLevel) -> MaraudersMap {
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
            radius: (level == KnowledgeLevel::Full).then_some(120.0),
        })
        .collect();
        MaraudersMap::new(db, level, AttackConfig::default())
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
    fn snapshot_restore_round_trips_mid_stream() {
        for level in [KnowledgeLevel::Full, KnowledgeLevel::LocationsOnly] {
            let frames: Vec<CapturedFrame> = (0..40)
                .map(|k| response(k as f64 * 7.0, 100 + (k % 3) as u64, 1 + (k % 2) as u64))
                .collect();
            // Uninterrupted run.
            let mut a = StreamEngine::new(map(level), StreamConfig::default());
            let mut a_events = Vec::new();
            for f in &frames {
                a_events.extend(a.push(f));
            }
            a_events.extend(a.finish());

            // Interrupted at frame 17: snapshot, drop, restore, resume.
            let mut b = StreamEngine::new(map(level), StreamConfig::default());
            let mut b_events = Vec::new();
            for f in &frames[..17] {
                b_events.extend(b.push(f));
            }
            let snap = b.snapshot();
            drop(b);
            let mut b = StreamEngine::restore(map(level), &snap).expect("own snapshot restores");
            for f in &frames[17..] {
                b_events.extend(b.push(f));
            }
            b_events.extend(b.finish());

            assert_eq!(a.stats(), b.stats(), "{level:?}: counters diverged");
            assert_eq!(a_events.len(), b_events.len());
            for (x, y) in a_events.iter().zip(&b_events) {
                assert_eq!(x.window, y.window);
                assert_eq!(x.mobile, y.mobile);
                assert_eq!(x.gamma, y.gamma);
                assert_eq!(x.estimate().is_some(), y.estimate().is_some());
                if let (Some(ex), Some(ey)) = (x.estimate(), y.estimate()) {
                    assert_eq!(ex.position.x.to_bits(), ey.position.x.to_bits());
                    assert_eq!(ex.position.y.to_bits(), ey.position.y.to_bits());
                }
            }
            // The final batch-equivalent fixes agree too.
            let fa = a.batch_fixes(a_events);
            let fb = b.batch_fixes(b_events);
            assert_eq!(fa.len(), fb.len());
            for (x, y) in fa.iter().zip(&fb) {
                assert_eq!(x.time_s.to_bits(), y.time_s.to_bits());
                assert_eq!(x.mobile, y.mobile);
                assert_eq!(
                    x.estimate.position.x.to_bits(),
                    y.estimate.position.x.to_bits()
                );
            }
        }
    }

    #[test]
    fn snapshot_of_fresh_engine_restores_fresh() {
        let engine = StreamEngine::new(map(KnowledgeLevel::LocationsOnly), StreamConfig::default());
        let snap = engine.snapshot();
        let restored = StreamEngine::restore(map(KnowledgeLevel::LocationsOnly), &snap).unwrap();
        assert_eq!(restored.stats(), engine.stats());
        assert_eq!(restored.open_windows(), 0);
        assert_eq!(restored.watermark(), None);
    }

    #[test]
    fn current_version_snapshot_round_trips_byte_exactly() {
        for level in [KnowledgeLevel::Full, KnowledgeLevel::LocationsOnly] {
            let mut engine = StreamEngine::new(map(level), StreamConfig::default());
            for k in 0u64..25 {
                engine.push(&response(k as f64 * 7.0, 100 + k % 3, 1 + k % 2));
            }
            assert!(
                engine.open_windows() > 0,
                "the snapshot must hold open windows"
            );
            let snap = engine.snapshot();
            let restored =
                StreamEngine::restore(map(level), &snap).expect("current version restores");
            assert_eq!(
                restored.snapshot(),
                snap,
                "{level:?}: re-snapshot must be byte-identical"
            );
        }
    }

    #[test]
    fn restore_rejects_window_mismatch() {
        let engine = StreamEngine::new(map(KnowledgeLevel::Full), StreamConfig::default());
        let snap = engine.snapshot();
        // A map with a different window length must be rejected.
        let db: ApDatabase = [(100u64, Point::new(0.0, 0.0))]
            .into_iter()
            .map(|(i, p)| ApRecord {
                bssid: mac(i),
                ssid: None,
                location: p,
                radius: Some(120.0),
            })
            .collect();
        let other = MaraudersMap::new(
            db,
            KnowledgeLevel::Full,
            AttackConfig {
                window_s: 15.0,
                ..AttackConfig::default()
            },
        );
        let err = StreamEngine::restore(other, &snap).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed { reason, .. } if reason.contains("window_s")),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_solver_state_for_the_wrong_knowledge_level() {
        // Full knowledge has no solver; the other levels do. Solver
        // state must be present exactly when the map's level has one.
        for (written, read) in [
            (KnowledgeLevel::LocationsOnly, KnowledgeLevel::Full),
            (KnowledgeLevel::Full, KnowledgeLevel::LocationsOnly),
        ] {
            let snap = StreamEngine::new(map(written), StreamConfig::default()).snapshot();
            let err = StreamEngine::restore(map(read), &snap).unwrap_err();
            assert!(
                matches!(&err, PersistError::Malformed { reason, .. } if reason.contains("solver")),
                "{written:?} -> {read:?}: {err}"
            );
        }
    }
}
