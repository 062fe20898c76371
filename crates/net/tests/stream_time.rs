//! Stream time is checked once, where its bytes arrive, and the merge
//! behind that check cannot be steered by a bad time.
//!
//! Each merge case runs `ChaosScenario::quick(7)` over two
//! round-robin loopback nodes and compares the fleet's fixes, bit for
//! bit, with a single-stream replay of the same frames:
//!
//! * a node whose clock offset is not finite is a typed error before
//!   it sends anything, and such a `Hello` on the wire is `BadPayload`;
//! * a `+∞` frame stamp on a lagging node does not announce the node
//!   done mid-stream;
//! * a NaN frame stamp does not hold the merge gate shut once every
//!   node has drained.
//!
//! A fleet snapshot written before the times were typed (document kind
//! 6, `fixtures/fleet-kind6.ckpt`) restores and re-encodes byte for
//! byte, and the same body with a NaN watermark or an infinite clock
//! offset is refused.

use marauder_core::apdb::{ApDatabase, ApRecord};
use marauder_core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap};
use marauder_fault::{render_fixes, ChaosScenario};
use marauder_geo::Point;
use marauder_net::codec::{decode, PROTOCOL_VERSION};
use marauder_net::{
    required_slack_s, split_round_robin, Aggregator, FleetConfig, LoopbackFleet, Message, NetError,
    NodeConfig, Watermark, WireError,
};
use marauder_stream::persist::{self, DocKind, PersistError};
use marauder_stream::{replay_frames, ClosedWindow, StreamConfig};
use marauder_wifi::mac::MacAddr;
use marauder_wifi::sniffer::CapturedFrame;
use std::path::PathBuf;

fn lazy() -> StreamConfig {
    StreamConfig {
        live_localization: false,
        ..StreamConfig::default()
    }
}

fn fleet_config(nodes: usize) -> FleetConfig {
    FleetConfig {
        stream: lazy(),
        expected_nodes: nodes,
        ..FleetConfig::default()
    }
}

/// The campus split round-robin over two nodes.
fn campus() -> (ChaosScenario, Vec<Vec<CapturedFrame>>) {
    let scenario = ChaosScenario::quick(7);
    let frames: Vec<CapturedFrame> = scenario.captures().iter().cloned().collect();
    let slices = split_round_robin(&frames, 2);
    (scenario, slices)
}

/// One node seat per `(batch, slack, slice)`, at zero clock offset.
fn seats(nodes: &[(usize, f64, &[CapturedFrame])]) -> Vec<(NodeConfig, Vec<CapturedFrame>)> {
    nodes
        .iter()
        .map(|&(batch_frames, reorder_slack_s, slice)| {
            let config = NodeConfig {
                batch_frames,
                reorder_slack_s,
                ..NodeConfig::default()
            };
            (config, slice.to_vec())
        })
        .collect()
}

/// The single-stream replay of the slices' union in the merge order
/// (timestamp, node, position in the node's slice).
fn single_stream(scenario: &ChaosScenario, slices: &[Vec<CapturedFrame>]) -> String {
    let mut union: Vec<(usize, usize, &CapturedFrame)> = Vec::new();
    for (node, slice) in slices.iter().enumerate() {
        union.extend(slice.iter().enumerate().map(|(i, f)| (node, i, f)));
    }
    union.sort_by(|a, b| {
        a.2.time_s
            .total_cmp(&b.2.time_s)
            .then((a.0, a.1).cmp(&(b.0, b.1)))
    });
    let (fixes, _) = replay_frames(scenario.fresh_map(), lazy(), union.iter().map(|u| u.2));
    render_fixes(&fixes)
}

/// A finished merge's rendered fixes and late-frame count.
fn outcome(mut agg: Aggregator, closed: Vec<ClosedWindow>) -> (String, usize) {
    let late = agg.engine().stats().frames_late;
    (render_fixes(&agg.batch_fixes(closed)), late)
}

#[test]
fn a_non_finite_clock_offset_is_a_typed_error_before_anything_is_sent() {
    let (scenario, slices) = campus();
    let slack = |k: usize| required_slack_s(&slices[k]);
    for offset in [f64::NEG_INFINITY, f64::INFINITY, f64::NAN] {
        let mut nodes = seats(&[(32, slack(0), &slices[0]), (32, slack(1), &slices[1])]);
        nodes[1].0.clock_offset_s = offset;
        let mut fleet = LoopbackFleet::new(
            Aggregator::new(scenario.fresh_map(), fleet_config(2)),
            nodes,
        );
        assert_eq!(
            fleet.run().err(),
            Some(NetError::BadTime("clock offset")),
            "{offset}"
        );
        // Node 1 never joined, so the gate never opened.
        assert_eq!(fleet.aggregator().fleet_watermark(), Watermark::NoData);
        assert_eq!(fleet.aggregator().stats().frames_relayed, 0);

        // The same Hello on the wire is refused where its bytes arrive.
        let mut wire = 15u32.to_be_bytes().to_vec();
        wire.push(1); // Hello
        wire.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        wire.extend_from_slice(&1u32.to_be_bytes());
        wire.extend_from_slice(&offset.to_bits().to_be_bytes());
        assert_eq!(
            decode(&wire),
            Err(WireError::BadPayload {
                what: "hello clock offset"
            }),
            "{offset}"
        );
    }
    // With a finite offset the same fleet equals the single stream.
    let nodes = seats(&[(32, slack(0), &slices[0]), (32, slack(1), &slices[1])]);
    let mut fleet = LoopbackFleet::new(
        Aggregator::new(scenario.fresh_map(), fleet_config(2)),
        nodes,
    );
    let closed = fleet.run().expect("fleet runs");
    let (fixes, late) = outcome(fleet.into_aggregator(), closed);
    assert_eq!(late, 0);
    assert_eq!(fixes, single_stream(&scenario, &slices));
}

#[test]
fn a_plus_infinity_stamp_on_a_lagging_node_does_not_end_its_stream() {
    let (scenario, mut slices) = campus();
    // Each node keeps the slack its clean slice needs.
    let slack: Vec<f64> = slices.iter().map(|s| required_slack_s(s)).collect();
    let at = slices[0].len() / 8;
    slices[0][at].time_s = f64::INFINITY;
    // Node 0 ships 4 frames per batch and lags node 1, which ships 32.
    let nodes = seats(&[(4, slack[0], &slices[0]), (32, slack[1], &slices[1])]);
    let mut fleet = LoopbackFleet::new(
        Aggregator::new(scenario.fresh_map(), fleet_config(2)),
        nodes,
    );
    let closed = fleet.run().expect("fleet runs");
    let (fixes, late) = outcome(fleet.into_aggregator(), closed);
    assert_eq!(late, 0, "no frame arrives behind a broken promise");
    assert_eq!(fixes, single_stream(&scenario, &slices));
}

#[test]
fn a_nan_stamp_drains_once_every_node_is_done() {
    let (scenario, mut slices) = campus();
    let at = slices[1].len() / 3;
    slices[1][at].time_s = f64::NAN;
    let slack: Vec<f64> = slices.iter().map(|s| required_slack_s(s)).collect();
    let nodes = seats(&[(32, slack[0], &slices[0]), (32, slack[1], &slices[1])]);
    let mut fleet = LoopbackFleet::new(
        Aggregator::new(scenario.fresh_map(), fleet_config(2)),
        nodes,
    );
    let mut closed = Vec::new();
    loop {
        let (c, moved) = fleet.step().expect("fleet steps");
        closed.extend(c);
        if !moved {
            break;
        }
    }
    // Before `finish()`: every node drained, so the NaN frame left the
    // buffer and the fleet reports completion.
    let agg = fleet.aggregator();
    assert_eq!(agg.fleet_watermark(), Watermark::Drained);
    assert!(agg.finished(), "a NaN stamp must not hold the gate shut");
    assert_eq!(
        agg.stats().frames_relayed as usize,
        slices[0].len() + slices[1].len()
    );
    assert_eq!(agg.engine().stats().frames_malformed, 1);
    let mut agg = fleet.into_aggregator();
    closed.extend(agg.finish());
    let (fixes, late) = outcome(agg, closed);
    assert_eq!(late, 0);
    assert_eq!(fixes, single_stream(&scenario, &slices));
}

/// The three-AP map the fixture was written against.
fn fixture_map() -> MaraudersMap {
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

/// Byte offset of node `k`'s clock offset in the fixture: magic (7),
/// version and kind, then 105 bytes of config, release gate and
/// counters, the node count (8), and 29 bytes per node before it (id
/// 4, offset 8, cursor 8, watermark 8, evicted flag 1); its own id
/// comes first. Its watermark sits 16 bytes further on.
fn node_offset_at(k: usize) -> usize {
    9 + 105 + 8 + 29 * k + 4
}

#[test]
fn a_fleet_snapshot_written_before_typed_times_restores_byte_identically() {
    let doc = std::fs::read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join("fleet-kind6.ckpt"),
    )
    .expect("read fixture");
    assert_eq!(doc[8], DocKind::FleetSnapshot as u8);
    let bits = |at: usize| f64::from_bits(u64::from_be_bytes(doc[at..at + 8].try_into().unwrap()));
    // Written by three nodes: node 0 drained, node 1 at 25 s with a
    // 2.5 s clock offset, node 2 joined without reporting; the release
    // gate at 25 s, and frames above it parked.
    let marks: Vec<f64> = (0..3).map(|k| bits(node_offset_at(k) + 16)).collect();
    assert_eq!(marks, [f64::INFINITY, 25.0, f64::NEG_INFINITY]);
    assert_eq!(bits(node_offset_at(1)), 2.5);
    assert_eq!(bits(9 + 8 + 8 + 8 + 1), 25.0, "the release gate");

    let mut agg = Aggregator::restore(fixture_map(), fleet_config(2), &doc).expect("restores");
    assert_eq!(agg.snapshot(), doc, "re-encodes byte for byte");
    assert_eq!(agg.fleet_watermark(), Watermark::NoData, "node 2 holds it");
    assert!(!agg.finished());
    // Draining the two live nodes releases the parked frames.
    let relayed = agg.stats().frames_relayed;
    for node_id in [1, 2] {
        let done = Message::Heartbeat {
            node_id,
            watermark_s: Watermark::Drained,
        };
        agg.on_message(&done).expect("heartbeat");
    }
    assert!(agg.finished());
    assert_eq!(agg.stats().frames_relayed, relayed + 4);

    // The same body with a time no node sends is refused at decode.
    let body = &doc[9..doc.len() - 4];
    for (at, secs) in [
        (node_offset_at(1) + 16, f64::NAN),
        (node_offset_at(1), f64::INFINITY),
        (node_offset_at(2), f64::NEG_INFINITY),
        (node_offset_at(0), f64::NAN),
    ] {
        let mut bad = body.to_vec();
        bad[at - 9..at - 1].copy_from_slice(&secs.to_bits().to_be_bytes());
        let resealed = persist::seal(DocKind::FleetSnapshot, |out| out.extend_from_slice(&bad));
        assert!(
            matches!(
                Aggregator::restore(fixture_map(), fleet_config(2), &resealed),
                Err(PersistError::Malformed { .. })
            ),
            "{secs} at byte {at}"
        );
    }
}
