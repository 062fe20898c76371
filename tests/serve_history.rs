//! `/track` bodies from the shared per-device histories, at every
//! history bound.
//!
//! The fig. 13 campaign at full knowledge streams once through
//! `StreamEngine::push_published`, and every batch of closed windows
//! goes to one `TrackerPublisher` per bound, from 1 to past the longest
//! history. For each bound, every mobile's `/track/<mac>` body must be
//! the CSV of its newest N batch (`track_all`) fixes, and a snapshot
//! held halfway through the campaign must keep serving the bodies it
//! served when it was taken.

use marauders_map::core::pipeline::TrackFix;
use marauders_map::fault::ChaosScenario;
use marauders_map::serve::{
    parse_request, route, Parsed, PublisherConfig, TrackerPublisher, TrackerSnapshot,
};
use marauders_map::stream::{ClosedWindow, SnapshotSink, StreamConfig, StreamEngine};
use marauders_map::wifi::mac::MacAddr;
use std::collections::BTreeMap;
use std::fmt::Write;

const BOUNDS: [usize; 8] = [1, 2, 15, 16, 17, 31, 33, 4096];

/// Hands every batch of closed windows to each publisher in turn.
struct FanOut(Vec<TrackerPublisher>);

impl SnapshotSink for FanOut {
    fn publish(&mut self, closed: &[ClosedWindow], engine: &StreamEngine) {
        for publisher in &mut self.0 {
            publisher.publish(closed, engine);
        }
    }
}

/// The `/track/<mac>` body `serve::route` renders from `snapshot`.
fn track_body(snapshot: &TrackerSnapshot, mac: &MacAddr) -> String {
    let wire = format!("GET /track/{mac} HTTP/1.1\r\nhost: x\r\n\r\n");
    let Ok(Parsed::Complete { request, .. }) = parse_request(wire.as_bytes()) else {
        panic!("GET /track/{mac} did not parse");
    };
    let response = route(&request, snapshot);
    assert_eq!(response.status, 200, "/track/{mac}");
    String::from_utf8(response.body).expect("CSV body is UTF-8")
}

/// Every tracked device's `/track/<mac>` body.
fn track_bodies(snapshot: &TrackerSnapshot) -> BTreeMap<MacAddr, String> {
    snapshot
        .tracks
        .keys()
        .map(|mac| (*mac, track_body(snapshot, mac)))
        .collect()
}

/// The CSV `/track/<mac>` must serve for `fixes`.
fn expected_csv(fixes: &[TrackFix]) -> String {
    let mut out = String::from("time_s,mobile,x,y,k,area_m2,provenance\n");
    for fix in fixes {
        writeln!(
            out,
            "{:.1},{},{:.2},{:.2},{},{:.0},{}",
            fix.time_s,
            fix.mobile,
            fix.estimate.position.x,
            fix.estimate.position.y,
            fix.gamma.len(),
            fix.estimate.area(),
            fix.provenance
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[test]
fn track_bodies_hold_the_newest_fixes_at_every_bound() {
    let scenario = ChaosScenario::fig13(7);
    let mut batch: BTreeMap<MacAddr, Vec<TrackFix>> = BTreeMap::new();
    for fix in scenario.fresh_map().track_all(scenario.captures()) {
        batch.entry(fix.mobile).or_default().push(fix);
    }
    assert!(batch.len() > 1, "fig. 13 tracks more than the victim");
    assert!(
        batch.values().any(|fixes| fixes.len() > 33),
        "some device outgrows every bound but the largest"
    );

    let (publishers, planes): (Vec<_>, Vec<_>) = BOUNDS
        .iter()
        .map(|&max_fixes_per_device| {
            TrackerPublisher::new(PublisherConfig {
                max_fixes_per_device,
                ..PublisherConfig::default()
            })
        })
        .unzip();
    let mut sink = FanOut(publishers);
    let mut engine = StreamEngine::new(scenario.fresh_map(), StreamConfig::default());
    let half = scenario.captures().len() / 2;
    let mut held = Vec::new();
    for (i, frame) in scenario.captures().iter().enumerate() {
        if i == half {
            held = planes
                .iter()
                .map(|plane| {
                    let snapshot = plane.load();
                    let bodies = track_bodies(&snapshot);
                    (snapshot, bodies)
                })
                .collect();
        }
        engine.push_published(frame, &mut sink);
    }
    engine.finish_published(&mut sink);

    for ((max, plane), (snapshot, bodies)) in BOUNDS.iter().zip(&planes).zip(&held) {
        let last = plane.load();
        let devices: Vec<&MacAddr> = last.tracks.keys().collect();
        assert_eq!(devices, batch.keys().collect::<Vec<_>>(), "bound {max}");
        for (mac, fixes) in &batch {
            let newest = &fixes[fixes.len().saturating_sub(*max)..];
            assert_eq!(
                track_body(&last, mac),
                expected_csv(newest),
                "bound {max}: /track/{mac}"
            );
        }

        assert!(
            !bodies.is_empty(),
            "bound {max}: nothing tracked by halfway"
        );
        assert_eq!(
            &track_bodies(snapshot),
            bodies,
            "bound {max}: the held snapshot's bodies moved"
        );
        assert!(
            bodies
                .iter()
                .any(|(mac, body)| *body != track_body(&last, mac)),
            "bound {max}: no publish after halfway changed a body"
        );
    }
}
