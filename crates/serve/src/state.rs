//! Tracker state as immutable snapshots, and the publisher that
//! builds them on the ingest thread.
//!
//! [`TrackerPublisher`] is a [`SnapshotSink`]: the stream engine hands
//! it every batch of closed windows, it folds the resulting fixes into
//! per-device histories, and it publishes a fresh [`TrackerSnapshot`]
//! onto the [`SnapshotPlane`].
//!
//! A history is a shared deque of fix pointers: each fix is stored
//! once, behind its own `Arc`, and never copied. The plane's current
//! snapshot always holds every device's history, so the first append
//! to a device in a publish copies that history's pointers
//! (`Arc::make_mut`; the `serve.publish.fix_refs_copied` counter). A
//! publish therefore costs one pointer per stored fix of each device
//! it touches, plus an O(devices) `Arc` bump of the tracks map. The
//! bound is exact: a history holds the newest
//! [`PublisherConfig::max_fixes_per_device`] fixes. The engine's
//! snapshot document, the one artifact whose cost grows with total
//! state, is regenerated only on a stream-time cadence.

use crate::plane::SnapshotPlane;
use marauder_core::pipeline::TrackFix;
use marauder_geo::Point;
use marauder_stream::{ClosedWindow, SnapshotSink, StreamEngine, StreamStats};
use marauder_wifi::mac::MacAddr;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// An axis-aligned bounding box in campus coordinates, as parsed from
/// a `bbox=min_x,min_y,max_x,max_y` query parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// West edge.
    pub min_x: f64,
    /// South edge.
    pub min_y: f64,
    /// East edge.
    pub max_x: f64,
    /// North edge.
    pub max_y: f64,
}

impl BBox {
    /// Parses `min_x,min_y,max_x,max_y`.
    ///
    /// # Errors
    ///
    /// A static description of the malformation (wrong field count,
    /// non-finite number, inverted edges) for the router's 400 body.
    pub fn parse(s: &str) -> Result<BBox, &'static str> {
        let fields: Vec<&str> = s.split(',').collect();
        let [min_x, min_y, max_x, max_y] = fields.as_slice() else {
            return Err("bbox takes exactly 4 comma-separated numbers");
        };
        let parse = |f: &str| -> Result<f64, &'static str> {
            let v: f64 = f.trim().parse().map_err(|_| "bbox field is not a number")?;
            v.is_finite().then_some(v).ok_or("bbox field is not finite")
        };
        let bbox = BBox {
            min_x: parse(min_x)?,
            min_y: parse(min_y)?,
            max_x: parse(max_x)?,
            max_y: parse(max_y)?,
        };
        if bbox.min_x > bbox.max_x || bbox.min_y > bbox.max_y {
            return Err("bbox edges are inverted (min > max)");
        }
        Ok(bbox)
    }

    /// Whether the (closed) box contains `p`.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }
}

/// One device's fixes, oldest first, each stored once.
type History = VecDeque<Arc<TrackFix>>;

/// Appends `fix` to `history`, dropping the oldest fix if more than
/// `max` (at least 1) would be held. Returns how many fix pointers were
/// copied to unshare `history` from the snapshots that hold it.
fn append(history: &mut Arc<History>, fix: TrackFix, max: usize) -> u64 {
    let copied = if Arc::get_mut(history).is_some() {
        0
    } else {
        history.len() as u64
    };
    let fixes = Arc::make_mut(history);
    if fixes.len() >= max.max(1) {
        fixes.pop_front();
    }
    fixes.push_back(Arc::new(fix));
    copied
}

/// One immutable, internally consistent view of tracker state. Cheap
/// to hold (readers keep it alive across a publish with zero effect on
/// the writer) and cheap to publish (shared per-device histories).
#[derive(Debug)]
pub struct TrackerSnapshot {
    /// Publication sequence number, 1-based (0 = the pre-ingest empty
    /// snapshot).
    pub seq: u64,
    /// The engine watermark at publish time.
    pub watermark_s: Option<f64>,
    /// Engine ingestion counters at publish time.
    pub stats: StreamStats,
    /// Per-device fix history: exactly the newest
    /// [`PublisherConfig::max_fixes_per_device`] fixes, oldest first.
    /// Every snapshot shares the stored fixes; a publish copies the fix
    /// pointers of the devices it touches, never a fix, so a held
    /// snapshot keeps reading what it read when taken.
    pub tracks: BTreeMap<MacAddr, Arc<VecDeque<Arc<TrackFix>>>>,
    /// The engine's [`StreamEngine::snapshot`] document (empty before
    /// the first publish), regenerated on the publisher's cadence — it
    /// may lag `tracks` by up to `snapshot_every_s` of stream time.
    pub engine_doc: Arc<Vec<u8>>,
}

impl TrackerSnapshot {
    /// The snapshot a server boots with, before anything was ingested.
    pub fn empty() -> Self {
        TrackerSnapshot {
            seq: 0,
            watermark_s: None,
            stats: StreamStats::default(),
            tracks: BTreeMap::new(),
            engine_doc: Arc::new(Vec::new()),
        }
    }

    /// Total fixes across all devices.
    pub fn fix_count(&self) -> usize {
        self.tracks.values().map(|fixes| fixes.len()).sum()
    }

    /// A device's history as CSV (the `marauder attack` schema plus a
    /// provenance column), or `None` for an untracked MAC.
    pub fn track_csv(&self, mac: &MacAddr) -> Option<String> {
        let fixes = self.tracks.get(mac)?;
        let mut out = String::from("time_s,mobile,x,y,k,area_m2,provenance\n");
        for fix in fixes.iter() {
            out.push_str(&format!(
                "{:.1},{},{:.2},{:.2},{},{:.0},{}\n",
                fix.time_s,
                fix.mobile,
                fix.estimate.position.x,
                fix.estimate.position.y,
                fix.gamma.len(),
                fix.estimate.area(),
                fix.provenance
            ));
        }
        Some(out)
    }

    /// A device's history as JSON, or `None` for an untracked MAC.
    pub fn track_json(&self, mac: &MacAddr) -> Option<String> {
        let fixes = self.tracks.get(mac)?;
        let mut out = format!(
            "{{\n  \"mobile\": \"{mac}\",\n  \"snapshot_seq\": {},\n  \"fixes\": [\n",
            self.seq
        );
        let rows: Vec<String> = fixes
            .iter()
            .map(|fix| {
                format!(
                    "    {{\"time_s\":{:.1},\"x\":{:.2},\"y\":{:.2},\"k\":{},\
                     \"area_m2\":{:.0},\"provenance\":\"{}\"}}",
                    fix.time_s,
                    fix.estimate.position.x,
                    fix.estimate.position.y,
                    fix.gamma.len(),
                    fix.estimate.area(),
                    fix.provenance
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        Some(out)
    }

    /// Every fix inside `bbox`, rendered with the workspace's GeoJSON
    /// builder (fix markers + estimate-region polygons).
    pub fn tiles_geojson(&self, bbox: &BBox) -> String {
        let mut geo = marauder_core::map::MapBuilder::planar();
        for fixes in self.tracks.values() {
            for fix in fixes.iter() {
                if bbox.contains(fix.estimate.position) {
                    geo.add_fix(fix);
                }
            }
        }
        geo.finish()
    }
}

/// Publisher knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PublisherConfig {
    /// Regenerate the engine snapshot document at most once per this
    /// many seconds of *stream* time (it is the one publish-path
    /// artifact whose cost grows with total state, so it is cadenced
    /// rather than rebuilt per batch).
    pub snapshot_every_s: f64,
    /// Per-device history bound: the oldest fixes are dropped beyond
    /// it, so a long campaign cannot grow server memory without bound.
    pub max_fixes_per_device: usize,
}

impl Default for PublisherConfig {
    fn default() -> Self {
        PublisherConfig {
            snapshot_every_s: 30.0,
            max_fixes_per_device: 4096,
        }
    }
}

/// The writer half: owns the evolving track state and publishes
/// immutable snapshots onto a [`SnapshotPlane`].
#[derive(Debug)]
pub struct TrackerPublisher {
    plane: Arc<SnapshotPlane<TrackerSnapshot>>,
    config: PublisherConfig,
    tracks: BTreeMap<MacAddr, Arc<History>>,
    engine_doc: Arc<Vec<u8>>,
    last_doc_watermark_s: Option<f64>,
    seq: u64,
}

impl TrackerPublisher {
    /// A publisher and the plane it publishes to (epoch 0 holds
    /// [`TrackerSnapshot::empty`]).
    pub fn new(config: PublisherConfig) -> (Self, Arc<SnapshotPlane<TrackerSnapshot>>) {
        let plane = SnapshotPlane::new(TrackerSnapshot::empty());
        (
            TrackerPublisher {
                plane: Arc::clone(&plane),
                config,
                tracks: BTreeMap::new(),
                engine_doc: Arc::new(Vec::new()),
                last_doc_watermark_s: None,
                seq: 0,
            },
            plane,
        )
    }

    /// Publications so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl SnapshotSink for TrackerPublisher {
    fn publish(&mut self, closed: &[ClosedWindow], engine: &StreamEngine) {
        let (mut fixes_appended, mut refs_copied) = (0u64, 0u64);
        for window in closed {
            let Some(fix) = window.clone().into_fix() else {
                continue;
            };
            let history = self.tracks.entry(fix.mobile).or_default();
            refs_copied += append(history, fix, self.config.max_fixes_per_device);
            fixes_appended += 1;
        }
        // The snapshot document is cadenced on stream time; `None ->
        // Some` (first watermark) always regenerates.
        let watermark = engine.watermark();
        let due = match (self.last_doc_watermark_s, watermark) {
            (Some(last), Some(now)) => now - last >= self.config.snapshot_every_s,
            (None, _) => true,
            (Some(_), None) => false,
        };
        if due {
            self.engine_doc = Arc::new(engine.snapshot());
            self.last_doc_watermark_s = watermark.or(Some(f64::NEG_INFINITY));
        }
        self.seq += 1;
        self.plane.publish(TrackerSnapshot {
            seq: self.seq,
            watermark_s: watermark,
            stats: engine.stats().clone(),
            tracks: self.tracks.clone(),
            engine_doc: Arc::clone(&self.engine_doc),
        });
        let obs = marauder_obs::global();
        obs.counter_add("serve.publish.snapshots", 1);
        obs.counter_add("serve.publish.fixes", fixes_appended);
        obs.counter_add("serve.publish.fix_refs_copied", refs_copied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marauder_core::algorithms::Estimate;
    use marauder_core::apdb::{ApDatabase, ApRecord};
    use marauder_core::pipeline::{AttackConfig, FixProvenance, KnowledgeLevel, MaraudersMap};
    use marauder_geo::{Circle, DiscIntersection};
    use marauder_stream::StreamConfig;
    use marauder_wifi::channel::Channel;
    use marauder_wifi::frame::Frame;
    use marauder_wifi::sniffer::CapturedFrame;
    use marauder_wifi::ssid::Ssid;
    use std::collections::BTreeSet;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Held by every test that publishes, so that one test can read the
    /// process-wide publish counters without another test's deltas.
    static PUBLISHING: Mutex<()> = Mutex::new(());

    fn publishing() -> MutexGuard<'static, ()> {
        PUBLISHING.lock().unwrap_or_else(PoisonError::into_inner)
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

    fn ingest_demo() -> (Arc<SnapshotPlane<TrackerSnapshot>>, MacAddr) {
        let _publishing = publishing();
        let (mut publisher, plane) = TrackerPublisher::new(PublisherConfig::default());
        let mut engine = StreamEngine::new(test_map(), StreamConfig::default());
        for k in 0..30 {
            let t = k as f64 * 5.0;
            for ap in [100 + k % 4, 100 + (k + 1) % 4] {
                engine.push_published(&frame(t, ap, 1), &mut publisher);
            }
        }
        engine.finish_published(&mut publisher);
        (plane, MacAddr::from_index(1))
    }

    #[test]
    fn bbox_parses_and_rejects() {
        let bbox = BBox::parse("-10, -10, 10.5, 20").unwrap();
        assert!(bbox.contains(Point::new(0.0, 0.0)));
        assert!(bbox.contains(Point::new(10.5, 20.0)));
        assert!(!bbox.contains(Point::new(11.0, 0.0)));
        for bad in ["", "1,2,3", "1,2,3,4,5", "a,2,3,4", "inf,2,3,4", "5,0,-5,1"] {
            assert!(BBox::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn publisher_builds_queryable_snapshots() {
        let (plane, mac) = ingest_demo();
        let snap = plane.load();
        assert!(snap.seq > 0);
        assert!(snap.fix_count() > 0);

        let csv = snap.track_csv(&mac).expect("tracked device");
        assert!(csv.starts_with("time_s,mobile,x,y,k,area_m2,provenance\n"));
        assert_eq!(csv.lines().count(), snap.tracks[&mac].len() + 1);
        let json = snap.track_json(&mac).expect("tracked device");
        assert!(json.contains("\"fixes\""));
        assert!(snap.track_csv(&MacAddr::from_index(999)).is_none());

        // The engine snapshot document restores.
        let restored = StreamEngine::restore(test_map(), &snap.engine_doc).expect("restores");
        assert!(restored.stats().frames_total > 0);

        // Tiles: the full-plane bbox holds every fix, a remote bbox none.
        let all = BBox::parse("-1000,-1000,1000,1000").unwrap();
        let geo = snap.tiles_geojson(&all);
        assert!(geo.contains("FeatureCollection"));
        assert!(geo.matches("\"estimate\"").count() >= snap.fix_count());
        let nowhere = BBox::parse("5000,5000,6000,6000").unwrap();
        assert!(!snap.tiles_geojson(&nowhere).contains("\"estimate\""));
    }

    #[test]
    fn history_is_bounded_and_copy_on_write() {
        let _publishing = publishing();
        let (mut publisher, plane) = TrackerPublisher::new(PublisherConfig {
            max_fixes_per_device: 5,
            ..PublisherConfig::default()
        });
        let mut engine = StreamEngine::new(test_map(), StreamConfig::default());
        let mut held = None;
        for k in 0..60 {
            let t = k as f64 * 5.0;
            for ap in [100 + k % 4, 100 + (k + 1) % 4] {
                engine.push_published(&frame(t, ap, 1), &mut publisher);
            }
            if k == 30 {
                held = Some(plane.load());
            }
        }
        engine.finish_published(&mut publisher);
        let last = plane.load();
        let mac = MacAddr::from_index(1);
        assert!(last.tracks[&mac].len() <= 5, "history bound violated");
        // The snapshot held mid-campaign was not mutated by later
        // publishes: it still ends at the fix it ended at.
        let held = held.expect("mid-campaign snapshot");
        let held_last = held.tracks[&mac].back().unwrap().time_s;
        let final_last = last.tracks[&mac].back().unwrap().time_s;
        assert!(held_last < final_last);
    }

    /// Fix number `n`: its time and x coordinate are `n`.
    fn numbered_fix(n: usize) -> TrackFix {
        let position = Point::new(n as f64, 0.0);
        TrackFix {
            time_s: n as f64,
            mobile: MacAddr::from_index(1),
            gamma: BTreeSet::from([MacAddr::from_index(100)]),
            estimate: Estimate {
                position,
                region: DiscIntersection::new(&[Circle::new(position, 10.0)]),
                k: 1,
                inflation: 1.0,
            },
            provenance: FixProvenance::MLoc,
        }
    }

    fn numbers(history: &History) -> Vec<usize> {
        history.iter().map(|fix| fix.time_s as usize).collect()
    }

    #[test]
    fn history_matches_a_bounded_deque_model() {
        for max in [1, 2, 15, 16, 17, 33, 4096] {
            let mut history = Arc::new(History::new());
            let mut model = VecDeque::new();
            let mut held: Vec<(Arc<History>, Vec<usize>)> = Vec::new();
            for n in 0..300 {
                let shared = held
                    .last()
                    .is_some_and(|(clone, _)| Arc::ptr_eq(clone, &history));
                let before = history.len() as u64;
                let copied = append(&mut history, numbered_fix(n), max);
                assert_eq!(copied, if shared { before } else { 0 }, "bound {max}");
                model.push_back(n);
                if model.len() > max {
                    model.pop_front();
                }
                let expected: Vec<usize> = model.iter().copied().collect();
                assert_eq!(numbers(&history), expected, "bound {max}, fix {n}");
                assert_eq!(history.len(), model.len(), "bound {max}, fix {n}");
                assert_eq!(
                    history.back().map(|fix| fix.time_s as usize),
                    model.back().copied()
                );
                if n % 7 == 0 {
                    held.push((Arc::clone(&history), expected));
                }
            }
            let oldest = history[0].time_s as usize;
            for (clone, expected) in &held {
                assert_eq!(numbers(clone), *expected, "bound {max}: a held clone moved");
                // A fix the clone still shares with the history is the
                // same allocation: unsharing copied its pointer only.
                for fix in clone.iter().filter(|fix| fix.time_s as usize >= oldest) {
                    let current = &history[fix.time_s as usize - oldest];
                    assert!(Arc::ptr_eq(fix, current), "bound {max}: a fix was copied");
                }
            }
        }
    }

    const DEVICES: u64 = 8;
    const PUBLISHES: usize = 16;

    /// `serve.publish.fix_refs_copied` over `PUBLISHES` publishes of one
    /// window per device, once every device holds `depth` fixes under a
    /// bound of `depth`.
    fn refs_copied_at_depth(depth: usize) -> u64 {
        let (mut publisher, _plane) = TrackerPublisher::new(PublisherConfig {
            max_fixes_per_device: depth,
            ..PublisherConfig::default()
        });
        let engine = StreamEngine::new(test_map(), StreamConfig::default());
        let mut publish = |n: usize| {
            let batch: Vec<ClosedWindow> = (0..DEVICES)
                .map(|device| {
                    let fix = numbered_fix(n);
                    ClosedWindow {
                        window: n as i64,
                        window_start_s: fix.time_s,
                        mobile: MacAddr::from_index(device),
                        gamma: fix.gamma,
                        outcome: Ok((fix.estimate, fix.provenance)),
                    }
                })
                .collect();
            publisher.publish(&batch, &engine);
        };
        (0..depth).for_each(&mut publish);
        let obs = marauder_obs::global();
        let before = obs.counter("serve.publish.fix_refs_copied");
        (depth..depth + PUBLISHES).for_each(&mut publish);
        obs.counter("serve.publish.fix_refs_copied") - before
    }

    #[test]
    fn publish_copies_one_pointer_per_stored_fix_it_touches() {
        let _publishing = publishing();
        for depth in [48, 480] {
            let expected = PUBLISHES as u64 * DEVICES * depth as u64;
            assert_eq!(refs_copied_at_depth(depth), expected, "depth {depth}");
        }
    }
}
