//! Snapshot publication: the bridge between the ingest hot path and
//! live readers.
//!
//! The serving layer (`marauder-serve`) wants to expose tracker state
//! to thousands of concurrent readers without ever stalling ingestion.
//! The engine's side of that contract is deliberately tiny: a
//! [`SnapshotSink`] observes every batch of closed windows the moment
//! the watermark releases it, *synchronously on the ingest thread*,
//! with full read access to the engine. Whatever the sink builds from
//! those events (immutable `Arc` snapshots, in the serving layer's
//! case) is its own business — the engine never blocks on readers
//! because it never sees them.
//!
//! The hook is pull-free by design: no channels, no background thread,
//! no queue that can fall behind. A sink that does unbounded work per
//! publish would slow ingestion, so implementations are expected to do
//! O(changed state) work and defer anything heavier (the serving
//! layer, for instance, regenerates its full snapshot document only on a
//! stream-time cadence).

use crate::engine::{ClosedWindow, StreamEngine};
use marauder_wifi::sniffer::CapturedFrame;

/// Observer of closed-window batches, called synchronously on the
/// ingest thread by [`StreamEngine::push_published`] and
/// [`StreamEngine::finish_published`].
pub trait SnapshotSink {
    /// Called after every push that closed at least one window, and
    /// once more from `finish_published` (possibly with an empty
    /// batch) so the final watermark and counters are observable.
    fn publish(&mut self, closed: &[ClosedWindow], engine: &StreamEngine);
}

impl StreamEngine {
    /// [`push`](StreamEngine::push) plus publication: when the frame
    /// closed any windows, the sink observes them (and the engine's
    /// post-push state) before the events are returned.
    pub fn push_published(
        &mut self,
        frame: &CapturedFrame,
        sink: &mut dyn SnapshotSink,
    ) -> Vec<ClosedWindow> {
        let closed = self.push(frame);
        if !closed.is_empty() {
            sink.publish(&closed, self);
        }
        closed
    }

    /// [`finish`](StreamEngine::finish) plus a final, unconditional
    /// publication — even when no windows were left open, the sink
    /// sees the engine's final state exactly once.
    pub fn finish_published(&mut self, sink: &mut dyn SnapshotSink) -> Vec<ClosedWindow> {
        let closed = self.finish();
        sink.publish(&closed, self);
        closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamConfig;
    use marauder_core::apdb::{ApDatabase, ApRecord};
    use marauder_core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap};
    use marauder_geo::Point;
    use marauder_wifi::channel::Channel;
    use marauder_wifi::frame::Frame;
    use marauder_wifi::mac::MacAddr;
    use marauder_wifi::ssid::Ssid;

    struct Recorder {
        batches: Vec<usize>,
        watermarks: Vec<Option<f64>>,
    }

    impl SnapshotSink for Recorder {
        fn publish(&mut self, closed: &[ClosedWindow], engine: &StreamEngine) {
            self.batches.push(closed.len());
            self.watermarks.push(engine.watermark());
        }
    }

    fn test_map() -> MaraudersMap {
        let db: ApDatabase = (0..4)
            .map(|i| ApRecord {
                bssid: MacAddr::from_index(100 + i),
                ssid: None,
                location: Point::new((i % 2) as f64 * 80.0, (i / 2) as f64 * 80.0),
                radius: Some(130.0),
            })
            .collect();
        MaraudersMap::new(db, KnowledgeLevel::Full, AttackConfig::default())
    }

    fn frame(t: f64, ap: u64, mobile: u64) -> CapturedFrame {
        CapturedFrame {
            time_s: t,
            card: 0,
            frame: Frame::probe_response(
                MacAddr::from_index(ap),
                MacAddr::from_index(mobile),
                Ssid::new("n").unwrap(),
                Channel::bg(6).unwrap(),
            ),
        }
    }

    #[test]
    fn sink_observes_every_closed_batch_and_the_finish() {
        let mut engine = StreamEngine::new(test_map(), StreamConfig::default());
        let mut sink = Recorder {
            batches: Vec::new(),
            watermarks: Vec::new(),
        };
        let mut closed_total = 0usize;
        for k in 0..20 {
            let t = k as f64 * 5.0;
            closed_total += engine
                .push_published(&frame(t, 100 + k % 4, 1), &mut sink)
                .len();
        }
        closed_total += engine.finish_published(&mut sink).len();

        // Every batch the engine emitted reached the sink, and the
        // finish publication is unconditional (the last entry exists
        // even when finish closed nothing).
        let published: usize = sink.batches.iter().sum();
        assert_eq!(published, closed_total);
        assert!(closed_total > 0, "scenario must close windows");
        assert!(!sink.batches.is_empty());
        // Pushes that closed nothing did not publish: every non-final
        // batch is non-empty.
        assert!(sink.batches[..sink.batches.len() - 1]
            .iter()
            .all(|&n| n > 0));
        // The sink saw the engine's state, not a stale copy: the final
        // watermark matches the engine's.
        assert_eq!(sink.watermarks.last().copied(), Some(engine.watermark()));
    }
}
