//! Cross-crate serving-layer tests.
//!
//! The headline case pins `Aggregator::fleet_watermark()` at its
//! infinity edges — an incomplete fleet (`-∞`) and every node finished
//! (`+∞`) — while a live `marauder-serve` reader polls `/metrics` over
//! real HTTP the whole time. The serving plane and the fleet merge
//! share the global metrics registry; the point of running them
//! together is that reader traffic can neither wedge the merge nor
//! observe a torn counter state. (The every-node-evicted `-∞` edge is
//! pinned by an aggregator unit test: no message sequence reaches it,
//! because the node at the fleet front is never evicted.)

use marauders_map::net::{Aggregator, FleetConfig, Message, PROTOCOL_VERSION};
use marauders_map::serve::loadgen::{campaign_map, BenchClient};
use marauders_map::serve::{start, PublisherConfig, ServeConfig, TrackerPublisher};
use marauders_map::stream::StreamConfig;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn hello(node_id: u32) -> Message {
    Message::Hello {
        node_id,
        clock_offset_s: 0.0,
        version: PROTOCOL_VERSION,
    }
}

fn heartbeat(node_id: u32, watermark_s: f64) -> Message {
    Message::Heartbeat {
        node_id,
        watermark_s,
    }
}

#[test]
fn fleet_watermark_infinity_edges_hold_under_live_metrics_readers() {
    let fleet_config = FleetConfig {
        stream: StreamConfig {
            live_localization: false,
            ..StreamConfig::default()
        },
        expected_nodes: 2,
        ..FleetConfig::default()
    };

    // A live serving plane polled throughout: reader load must not
    // perturb any of the watermark transitions below, and every poll
    // must come back whole.
    let (_publisher, plane) = TrackerPublisher::new(PublisherConfig::default());
    let server = start("127.0.0.1:0", plane, ServeConfig::default()).expect("server start");
    let addr = server.addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let polls = Arc::new(AtomicU64::new(0));
    let poller = {
        let stop = Arc::clone(&stop);
        let polls = Arc::clone(&polls);
        std::thread::spawn(move || {
            let mut client = BenchClient::connect(&addr).expect("poller connect");
            while !stop.load(Ordering::Relaxed) {
                let body = client.get_body("/metrics").expect("/metrics poll");
                assert!(body.contains("\"counters\""), "torn metrics body: {body}");
                polls.fetch_add(1, Ordering::Relaxed);
            }
        })
    };

    let mut agg = Aggregator::new(campaign_map(), fleet_config.clone());
    // Empty fleet: nothing has joined, the merge gate is closed.
    assert_eq!(agg.fleet_watermark(), f64::NEG_INFINITY);

    // One of two expected nodes: still closed, whatever it promises.
    agg.on_message(&hello(1)).expect("hello 1");
    agg.on_message(&heartbeat(1, 10.0)).expect("heartbeat 1");
    assert_eq!(agg.fleet_watermark(), f64::NEG_INFINITY);

    // Full fleet: the watermark is the minimum promise.
    agg.on_message(&hello(2)).expect("hello 2");
    agg.on_message(&heartbeat(2, 20.0)).expect("heartbeat 2");
    assert_eq!(agg.fleet_watermark(), 10.0);

    // Every node finished: promises of +∞ merge to exactly +∞.
    agg.on_message(&heartbeat(1, f64::INFINITY)).expect("end 1");
    agg.on_message(&heartbeat(2, f64::INFINITY)).expect("end 2");
    assert_eq!(agg.fleet_watermark(), f64::INFINITY);
    assert!(agg.finished());

    // Hold the final state until the poller has demonstrably served
    // through it — every transition above happened under reader load,
    // and at least one whole poll must land before we stand down.
    let deadline = Instant::now() + Duration::from_secs(10);
    while polls.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    poller.join().expect("poller clean");
    assert!(
        polls.load(Ordering::Relaxed) > 0,
        "poller never completed a request"
    );
}
