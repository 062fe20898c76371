//! Warm-start effectiveness, asserted through the observability layer.
//!
//! The claim under test is the PR's headline: when the streaming
//! engine re-solves the AP-Rad program incrementally (one window's
//! worth of new constraints at a time), re-starting the simplex from
//! the previous window's optimal basis does a small fraction of the
//! pivot work a cold solve sequence does. The counters come from the
//! global registry, so this test runs alone in its own process (cargo
//! integration tests are one binary each).

use marauders_map::core::apdb::{ApDatabase, ApRecord};
use marauders_map::core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap};
use marauders_map::geo::Point;
use marauders_map::obs;
use marauders_map::stream::{StreamConfig, StreamEngine};
use marauders_map::wifi::channel::Channel;
use marauders_map::wifi::frame::Frame;
use marauders_map::wifi::mac::MacAddr;
use marauders_map::wifi::sniffer::CapturedFrame;
use marauders_map::wifi::ssid::Ssid;
use std::collections::BTreeMap;

fn mac(i: u64) -> MacAddr {
    MacAddr::from_index(i)
}

const SITES: u64 = 12;
const PITCH: f64 = 260.0;

/// Twelve single-AP sites in a 260 m chain, radii unknown
/// (LocationsOnly). With `max_radius` at 200 m only *adjacent* sites
/// (260 m < 2·200 m) can carry a negative row, so the LP is a chain of
/// pairwise budgets over the caps — small per-window deltas, no
/// degenerate ties that would zero a radius out from under a
/// co-observation constraint and trigger repair rounds.
fn campus() -> (ApDatabase, BTreeMap<MacAddr, Point>) {
    let mut locations = BTreeMap::new();
    for c in 0..SITES {
        locations.insert(mac(100 + c), Point::new(c as f64 * PITCH, 0.0));
    }
    let db: ApDatabase = locations
        .iter()
        .map(|(m, p)| ApRecord {
            bssid: *m,
            ssid: None,
            location: *p,
            radius: None,
        })
        .collect();
    (db, locations)
}

/// The walk, one `(position, hearing range)` per window. Three sweeps
/// over the sites (windows 0–35) stagger the incremental changes a
/// warm basis survives: sweep one introduces one LP variable per
/// window (new columns enter at zero — the old vertex stays feasible),
/// sweep two only bumps seen-counts (provably clean, no solve at all),
/// and sweep three crosses the negative-evidence threshold site by
/// site — new *binding* rows that legitimately cut off the previous
/// optimum and fall back cold. Then eleven midpoint windows co-observe
/// adjacent site pairs, each *removing* a negative row — a pure
/// relaxation the old basis survives. The final revisits are clean.
fn wander_frames(locations: &BTreeMap<MacAddr, Point>, windows: u64) -> Vec<CapturedFrame> {
    let mut frames = Vec::new();
    let sweeps = 3 * SITES;
    let mids = sweeps + (SITES - 1);
    for k in 0..windows {
        let (at, hear_radius) = if k < sweeps {
            (Point::new((k % SITES) as f64 * PITCH, 0.0), 40.0)
        } else if k < mids {
            (
                Point::new((k - sweeps) as f64 * PITCH + PITCH / 2.0, 0.0),
                160.0,
            )
        } else {
            (Point::new((k % SITES) as f64 * PITCH, 0.0), 40.0)
        };
        let t0 = k as f64 * 30.0 + 1.0;
        for (n, (m, p)) in locations.iter().enumerate() {
            if p.distance(at) <= hear_radius {
                frames.push(CapturedFrame {
                    time_s: t0 + n as f64 * 0.01,
                    card: 0,
                    frame: Frame::probe_response(
                        *m,
                        mac(1),
                        Ssid::new("w").unwrap(),
                        Channel::bg(6).unwrap(),
                    ),
                });
            }
        }
    }
    frames
}

/// Streams the walk through a live engine and returns the lp counter
/// values accumulated by the per-window solves.
fn run(db: &ApDatabase, frames: &[CapturedFrame], warm: bool) -> BTreeMap<&'static str, u64> {
    obs::global().reset();
    let mut attack = AttackConfig::default();
    // Caps below the site pitch: only adjacent sites form negative
    // rows, farther pairs are provably unbindable and pruned.
    attack.aprad.max_radius = 200.0;
    attack.aprad.lp = marauders_map::core::algorithms::LpMethod::Simplex;
    let map = MaraudersMap::new(db.clone(), KnowledgeLevel::LocationsOnly, attack);
    let config = StreamConfig {
        warm_start: warm,
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(map, config);
    for f in frames {
        engine.push(f);
    }
    engine.finish();
    assert!(
        engine.stats().lp_solves > 10,
        "warm={warm}: scenario must trigger many incremental re-solves, got {}",
        engine.stats().lp_solves
    );
    let reg = obs::global();
    [
        "lp.solves",
        "lp.pivots",
        "lp.pivots.cold",
        "lp.pivots.warm",
        "lp.pivots.warm_setup",
        "lp.warm_start.hit",
        "lp.warm_start.miss",
    ]
    .into_iter()
    .map(|k| (k, reg.counter(k)))
    .collect()
}

#[test]
fn warm_windows_cost_under_a_quarter_of_cold_pivots() {
    let (db, locations) = campus();
    let frames = wander_frames(&locations, 3 * SITES + (SITES - 1) + 4);

    let cold = run(&db, &frames, false);
    let warm = run(&db, &frames, true);

    // Same solve sequence either way.
    assert_eq!(cold["lp.solves"], warm["lp.solves"]);
    assert!(
        cold["lp.pivots.cold"] > 100,
        "cold baseline too small: {cold:?}"
    );
    assert_eq!(cold["lp.pivots.warm"], 0, "cold run must never warm-start");

    // The warm path must actually engage: most incremental re-solves
    // hit the remembered basis.
    assert!(
        warm["lp.warm_start.hit"] > warm["lp.warm_start.miss"],
        "warm starts mostly missed: {warm:?}"
    );

    // The headline: optimizing pivots spent by warm-started solves are
    // under 25% of what the same window sequence costs solved cold.
    assert!(
        warm["lp.pivots.warm"] * 4 < cold["lp.pivots.cold"],
        "warm pivots {} not under 25% of cold pivots {}",
        warm["lp.pivots.warm"],
        cold["lp.pivots.cold"]
    );

    // Setup eliminations (re-pivoting the remembered basis into the new
    // tableau) cost roughly one cold solve on programs this small, so
    // total pivot work is allowed to tie — but never to blow up.
    assert!(
        warm["lp.pivots"] * 2 < cold["lp.pivots"] * 3,
        "warm total {} blew past cold total {}",
        warm["lp.pivots"],
        cold["lp.pivots"]
    );
}
