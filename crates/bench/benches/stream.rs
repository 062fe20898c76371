//! Streaming-engine benchmarks: frame-ingestion and fix throughput of
//! the live tracking engine over the fig. 13 campaign, across worker
//! counts (the final localization pass fans out through marauder-par),
//! the per-frame cost of the durable ingest path (parsing a capture-log
//! line, appending a journal record), the cost of recovering a
//! locations-only journal after a kill, the cost of publishing closed
//! windows to the serving layer at several history depths, and the
//! render cost of the serving layer's `/tiles` and `/track` endpoints.
//!
//! Run with `CRITERION_JSON_OUT=results/BENCH_stream.json` to record
//! the machine-readable baseline committed in `results/`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use marauder_bench::common::{link_for, measured_knowledge, victim_scenario};
use marauder_core::algorithms::ApRad;
use marauder_core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap};
use marauder_serve::{parse_request, route, Parsed, PublisherConfig, TrackerPublisher};
use marauder_sim::scenario::{SimulationResult, WorldModel};
use marauder_stream::{
    replay_database, ClosedWindow, FlushPolicy, FrameJournal, JournalConfig, SnapshotSink,
    StreamConfig, StreamEngine,
};
use marauder_wifi::capture_log::{parse_capture_line, write_capture_log};
use marauder_wifi::mac::MacAddr;

fn campaign() -> SimulationResult {
    let (result, _) = victim_scenario(3, WorldModel::FreeSpace);
    result
}

fn attack_config() -> AttackConfig {
    AttackConfig {
        window_s: 15.0,
        aprad: ApRad {
            max_radius: 400.0,
            min_observations_for_negative: 6,
            ..Default::default()
        },
        ..AttackConfig::default()
    }
}

/// Pure ingestion: frames/sec through `push` + live localization at
/// full knowledge (no LP in the loop), single-threaded by design.
fn bench_ingest(c: &mut Criterion) {
    let result = campaign();
    let link = link_for(&result, WorldModel::FreeSpace, 3);
    let db = measured_knowledge(&result, &link);

    // The map (knowledge ingest, training bounds) is built once; each
    // iteration clones it, so the timed loop measures the engine.
    let proto = MaraudersMap::new(db, KnowledgeLevel::Full, attack_config());

    let mut group = c.benchmark_group("stream/ingest_frames");
    group.throughput(Throughput::Elements(result.captures.len() as u64));
    group.bench_function("full_knowledge", |b| {
        b.iter(|| {
            let mut engine = StreamEngine::new(proto.clone(), StreamConfig::default());
            let mut events = 0usize;
            for frame in result.captures.iter() {
                events += engine.push(frame).len();
            }
            events += engine.finish().len();
            black_box(events)
        })
    });
    group.finish();
}

/// End-to-end replay: fixes/sec for the batch-equivalent output,
/// across worker counts (the closing localization pass runs through
/// the marauder-par pool).
fn bench_replay(c: &mut Criterion) {
    let result = campaign();
    let link = link_for(&result, WorldModel::FreeSpace, 3);
    let db = measured_knowledge(&result, &link);
    // Built once, cloned per iteration: the timed loop measures replay
    // (lazy windowing plus the final batch localization, which is the
    // part that fans out through the marauder-par pool and should show
    // thread scaling on multicore hosts — `host_cores` in the JSON
    // says whether this host can).
    let proto = MaraudersMap::new(db, KnowledgeLevel::Full, attack_config());
    let fixes = replay_database(proto.clone(), StreamConfig::default(), &result.captures)
        .0
        .len();

    let mut group = c.benchmark_group("stream/replay_fixes");
    group.throughput(Throughput::Elements(fixes as u64));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                marauder_par::set_threads(threads);
                b.iter(|| {
                    black_box(replay_database(
                        proto.clone(),
                        StreamConfig::default(),
                        &result.captures,
                    ))
                });
                marauder_par::set_threads(0);
            },
        );
    }
    group.finish();
}

/// Capture-log parsing: each iteration decodes every body line of the
/// campaign's log, the call every log reader makes per line.
fn bench_parse_line(c: &mut Criterion) {
    let log = write_capture_log(&campaign().captures);
    let lines: Vec<&str> = log.lines().skip(1).collect();

    let mut group = c.benchmark_group("wifi/capture_log");
    group.throughput(Throughput::Elements(lines.len() as u64));
    group.bench_function("parse_line", |b| {
        b.iter(|| {
            for line in &lines {
                black_box(parse_capture_line(black_box(line)).expect("valid line"));
            }
        })
    });
    group.finish();
}

/// Journal append as the durable replay journals: `OnRotate` with
/// 4096-frame segments, so a segment rotation (and its sync) lands in
/// every 4096th iteration. Each iteration appends the campaign's next
/// frame to one journal in a temporary directory; the first append,
/// which creates the first segment, runs before timing so that it does
/// not skew the calibration.
fn bench_append(c: &mut Criterion) {
    let frames: Vec<_> = campaign().captures.iter().cloned().collect();
    let dir = std::env::temp_dir().join(format!("marauder-bench-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = JournalConfig {
        segment_frames: 4096,
        flush: FlushPolicy::OnRotate,
    };
    let mut journal = FrameJournal::create(&dir, config).expect("fresh journal directory");
    let mut next = frames.iter().cycle();
    journal
        .append(next.next().expect("the campaign captures frames"))
        .expect("append");

    let mut group = c.benchmark_group("stream/journal");
    group.throughput(Throughput::Elements(1));
    group.bench_function("append", |b| {
        b.iter(|| {
            let frame = next.next().expect("the campaign captures frames");
            journal.append(black_box(frame)).expect("append")
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Journal recovery at the locations-only level, where the AP-Rad LP
/// sets every radius: the campaign journaled with a live engine, a
/// checkpoint every 1024 frames and no seal, as a killed `marauder
/// replay --journal --level locations` leaves it. Recovery restores
/// the checkpoint at frame 2048 and replays a tail whose windows called
/// for several live re-solves. A clean journal is only read, so every
/// iteration recovers the same directory.
fn bench_recover(c: &mut Criterion) {
    const CHECKPOINT_EVERY: usize = 1024;
    let result = campaign();
    let link = link_for(&result, WorldModel::FreeSpace, 3);
    let db = measured_knowledge(&result, &link).without_radii();
    let map = MaraudersMap::new(db, KnowledgeLevel::LocationsOnly, attack_config());
    let dir = std::env::temp_dir().join(format!("marauder-bench-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = JournalConfig {
        segment_frames: 4096,
        flush: FlushPolicy::OnRotate,
    };
    let mut journal = FrameJournal::create(&dir, config).expect("fresh journal directory");
    let mut engine = StreamEngine::new(map.clone(), StreamConfig::default());
    let mut closed = Vec::new();
    let mut checkpointed = (0, 0);
    for (k, frame) in result.captures.iter().enumerate() {
        journal.append(frame).expect("append");
        closed.extend(engine.push(frame));
        if (k + 1) % CHECKPOINT_EVERY == 0 {
            journal.checkpoint(&engine, &closed).expect("checkpoint");
            checkpointed = (k + 1, engine.stats().lp_solves);
        }
    }
    drop(journal);
    let owed = engine.stats().lp_solves - checkpointed.1;
    assert!(owed >= 3, "the tail owes {owed} live re-solves");

    let mut group = c.benchmark_group("stream/journal");
    group.throughput(Throughput::Elements(
        (result.captures.len() - checkpointed.0) as u64,
    ));
    group.bench_function("recover", |b| {
        b.iter(|| {
            FrameJournal::recover(&dir, map.clone(), StreamConfig::default()).expect("recover")
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The campaign's attacker map and every window it locates, in the
/// order the engine closes them.
fn located_windows() -> (MaraudersMap, Vec<ClosedWindow>) {
    let result = campaign();
    let link = link_for(&result, WorldModel::FreeSpace, 3);
    let db = measured_knowledge(&result, &link);
    let map = MaraudersMap::new(db, KnowledgeLevel::Full, attack_config());
    let mut engine = StreamEngine::new(map.clone(), StreamConfig::default());
    let located = result
        .captures
        .iter()
        .flat_map(|frame| engine.push(frame))
        .filter(|window| window.estimate().is_some())
        .collect();
    (map, located)
}

/// Publish cost against history depth: each iteration publishes one
/// closed window for each of 200 devices. The bound equals the depth,
/// so every device stays at that depth and each publish also drops its
/// oldest fix. The engine's watermark never moves, so the snapshot
/// document is rendered once, before timing.
fn bench_publish(c: &mut Criterion) {
    const DEVICES: u64 = 200;
    let (map, located) = located_windows();
    let template = located.first().expect("the campaign locates a window");
    let batch: Vec<ClosedWindow> = (0..DEVICES)
        .map(|device| ClosedWindow {
            mobile: MacAddr::from_index(device),
            ..template.clone()
        })
        .collect();
    let idle = StreamEngine::new(map, StreamConfig::default());

    let mut group = c.benchmark_group("stream/publish");
    group.throughput(Throughput::Elements(DEVICES));
    for depth in [16usize, 256, 2048] {
        let (mut publisher, _plane) = TrackerPublisher::new(PublisherConfig {
            max_fixes_per_device: depth,
            ..PublisherConfig::default()
        });
        for _ in 0..depth {
            publisher.publish(&batch, &idle);
        }
        group.bench_function(BenchmarkId::new("depth", depth), |b| {
            b.iter(|| publisher.publish(black_box(&batch), &idle))
        });
    }
    group.finish();
}

/// Render cost of the two endpoints that walk stored fixes, over one
/// fixed snapshot at the scale a `fleet-serve` pass ends at: 200
/// devices of 54 fixes, cycled from the campaign's located windows.
/// `/tiles` asks for the load generator's bbox.
fn bench_route(c: &mut Criterion) {
    const DEVICES: u64 = 200;
    const FIXES_PER_DEVICE: usize = 54;
    let (map, located) = located_windows();
    let idle = StreamEngine::new(map, StreamConfig::default());
    let (mut publisher, plane) = TrackerPublisher::new(PublisherConfig::default());
    let mut windows = located.iter().cycle();
    for _ in 0..FIXES_PER_DEVICE {
        let batch: Vec<ClosedWindow> = (1..=DEVICES)
            .zip(&mut windows)
            .map(|(device, window)| ClosedWindow {
                mobile: MacAddr::from_index(device),
                ..window.clone()
            })
            .collect();
        publisher.publish(&batch, &idle);
    }
    let snapshot = plane.load();

    let mut group = c.benchmark_group("serve/route");
    let track = format!("/track/{}", MacAddr::from_index(1));
    for (name, path) in [
        ("tiles", "/tiles?bbox=-50,-50,150,150"),
        ("track", track.as_str()),
    ] {
        let wire = format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n");
        let Ok(Parsed::Complete { request, .. }) = parse_request(wire.as_bytes()) else {
            panic!("GET {path} did not parse");
        };
        group.bench_function(name, |b| b.iter(|| route(black_box(&request), &snapshot)));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest,
    bench_replay,
    bench_parse_line,
    bench_append,
    bench_recover,
    bench_publish,
    bench_route
);
criterion_main!(benches);
