//! The fleet durability invariant: kill the aggregator mid-campaign,
//! restore its newest checkpoint, resume the nodes — and lose zero
//! closed windows. The resumed run's batch fixes must be byte-identical
//! to an uninterrupted run over the same captures.
//!
//! The fig. 13 sweep kills the aggregator right after every checkpoint
//! of the campaign, and again with that checkpoint lost mid-write; a
//! size test pins that a checkpoint's cost does not grow with the
//! campaign.

use marauder_core::apdb::{ApDatabase, ApRecord};
use marauder_core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap};
use marauder_fault::{lose_newest_checkpoint, render_fixes, ChaosScenario};
use marauder_geo::Point;
use marauder_net::codec::{Message, PROTOCOL_VERSION};
use marauder_net::loopback::{required_slack_s, split_round_robin, LoopbackFleet};
use marauder_net::node::NodeConfig;
use marauder_net::{restore_latest, Aggregator, Checkpointer, FleetConfig, FleetRestore};
use marauder_stream::persist::DocKind;
use marauder_stream::{list_checkpoints, StreamConfig, CLOSED_LOG};
use marauder_wifi::channel::Channel;
use marauder_wifi::frame::Frame;
use marauder_wifi::mac::MacAddr;
use marauder_wifi::sniffer::CapturedFrame;
use marauder_wifi::ssid::Ssid;
use std::path::{Path, PathBuf};

fn fleet_config(nodes: usize) -> FleetConfig {
    FleetConfig {
        stream: StreamConfig {
            live_localization: false,
            ..StreamConfig::default()
        },
        expected_nodes: nodes,
        ..FleetConfig::default()
    }
}

fn seats(slices: &[Vec<CapturedFrame>]) -> Vec<(NodeConfig, Vec<CapturedFrame>)> {
    slices
        .iter()
        .map(|slice| {
            (
                NodeConfig {
                    // Small batches so the kill lands mid-stream for
                    // every node.
                    batch_frames: 16,
                    reorder_slack_s: required_slack_s(slice),
                    ..NodeConfig::default()
                },
                slice.clone(),
            )
        })
        .collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "marauder-fleet-recovery-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn mid_campaign_kill_and_restore_loses_zero_closed_windows() {
    let scenario = ChaosScenario::quick(7);
    let frames: Vec<CapturedFrame> = scenario.captures().iter().cloned().collect();
    let nodes = 3;
    let slices = split_round_robin(&frames, nodes);

    // Uninterrupted reference run.
    let mut fleet = LoopbackFleet::new(
        Aggregator::new(scenario.fresh_map(), fleet_config(nodes)),
        seats(&slices),
    );
    let closed_clean = fleet.run().expect("clean run");
    assert!(!closed_clean.is_empty(), "scenario closes windows");
    let mut agg = fleet.into_aggregator();
    let reference = render_fixes(&agg.batch_fixes(closed_clean.clone()));

    // Checkpointed run, killed mid-campaign: drop the fleet — and with
    // it every byte of in-memory merge state — once half the windows
    // have closed.
    let dir = temp_dir("kill");
    let mut cp = Checkpointer::new(&dir, 20.0).expect("checkpointer");
    let mut fleet = LoopbackFleet::new(
        Aggregator::new(scenario.fresh_map(), fleet_config(nodes)),
        seats(&slices),
    );
    let mut closed = Vec::new();
    let target = (closed_clean.len() / 2).max(1);
    loop {
        let (c, moved) = fleet.step().expect("step");
        closed.extend(c);
        cp.maybe_checkpoint(fleet.aggregator(), &closed)
            .expect("checkpoint");
        if closed.len() >= target {
            break;
        }
        assert!(moved, "stream drained before reaching the kill point");
    }
    drop(fleet);

    // Supervised restart: newest valid checkpoint, fresh node
    // processes. Each node re-handshakes and the aggregator's
    // `resume_seq` fast-forwards it past everything the checkpoint
    // already absorbed.
    let restored = restore_latest(&dir, &scenario.fresh_map(), &fleet_config(nodes), 20.0)
        .expect("restore scans the directory");
    assert!(restored.key.is_some(), "a checkpoint is on disk");
    assert_eq!(restored.skipped, 0, "every checkpoint written was valid");
    assert!(
        restored.closed.len() <= closed.len(),
        "the checkpoint cannot know windows closed after it"
    );
    let mut fleet = LoopbackFleet::new(restored.aggregator, seats(&slices));
    let resumed = fleet.run().expect("resumed run");

    // Windows closed between checkpoint and kill were lost from
    // memory, but their frames sit above the checkpoint's per-node
    // cursors, so the resumed run closes them again: the union is
    // exactly the clean run's window set, with no duplicates.
    let mut total = restored.closed;
    total.extend(resumed);
    assert_eq!(
        total.len(),
        closed_clean.len(),
        "a closed window was lost or duplicated across the crash"
    );
    let mut agg = fleet.into_aggregator();
    assert_eq!(
        render_fixes(&agg.batch_fixes(total)),
        reference,
        "recovered fixes differ from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Seconds of stream time between the sweep's checkpoints.
const EVERY_S: f64 = 30.0;

/// Copies every file of `from` into a fresh `to`.
fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create copy");
    for entry in std::fs::read_dir(from).expect("list") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
    }
}

/// Restores `dir` as `marauder fleet --checkpoint-dir` does — starting
/// fresh when it holds no checkpoint file — lets the nodes rejoin and
/// finish, checkpointing on the sweep's cadence and once at completion
/// as `serve_with` does, and renders the fixes. The final checkpoint
/// must restore the same fixes again, which proves the resumed
/// checkpoints wrote a consistent log over whatever the kill left past
/// the restored checkpoint. Returns the fixes and the restored
/// checkpoint's key and windows (`None`: started fresh).
fn restore_and_finish(
    scenario: &ChaosScenario,
    slices: &[Vec<CapturedFrame>],
    dir: &Path,
) -> (String, Option<(u64, usize)>) {
    let config = fleet_config(slices.len());
    let FleetRestore {
        aggregator,
        mut closed,
        mut checkpointer,
        key,
        skipped,
    } = restore_latest(dir, &scenario.fresh_map(), &config, EVERY_S).expect("restore");
    assert_eq!(skipped, 0, "only the newest checkpoint can be damaged");
    let restored = key.map(|k| (k, closed.len()));
    let mut fleet = LoopbackFleet::new(aggregator, seats(slices));
    loop {
        let (c, moved) = fleet.step().expect("step");
        closed.extend(c);
        checkpointer
            .maybe_checkpoint(fleet.aggregator(), &closed)
            .expect("checkpoint");
        if !moved {
            break;
        }
    }
    let mut agg = fleet.into_aggregator();
    closed.extend(agg.finish());
    let fixes = render_fixes(&agg.batch_fixes(closed.clone()));
    checkpointer
        .checkpoint_now(&agg, &closed)
        .expect("final checkpoint");
    let again =
        restore_latest(dir, &scenario.fresh_map(), &config, EVERY_S).expect("restore again");
    assert_eq!(again.skipped, 0);
    assert!(again.key.is_some(), "the final checkpoint is on disk");
    let mut agg = again.aggregator;
    assert_eq!(render_fixes(&agg.batch_fixes(again.closed)), fixes);
    (fixes, restored)
}

#[test]
fn every_fig13_checkpoint_restores_to_identical_fixes() {
    let scenario = ChaosScenario::fig13(7);
    let frames: Vec<CapturedFrame> = scenario.captures().iter().cloned().collect();
    let slices = split_round_robin(&frames, 3);
    let config = fleet_config(slices.len());

    let mut fleet = LoopbackFleet::new(
        Aggregator::new(scenario.fresh_map(), config.clone()),
        seats(&slices),
    );
    let closed_clean = fleet.run().expect("clean run");
    let reference = render_fixes(&fleet.into_aggregator().batch_fixes(closed_clean));

    // One checkpointed run. Dropping the fleet right after checkpoint i
    // leaves exactly the directory as it stands then, so each is copied
    // aside; `covered[i]` is how many windows checkpoint i covers.
    let root = temp_dir("sweep");
    let live = root.join("live");
    let mut cp = Checkpointer::new(&live, EVERY_S).expect("checkpointer");
    let mut fleet = LoopbackFleet::new(
        Aggregator::new(scenario.fresh_map(), config.clone()),
        seats(&slices),
    );
    let mut closed = Vec::new();
    let mut covered = Vec::new();
    loop {
        let (c, moved) = fleet.step().expect("step");
        closed.extend(c);
        if cp
            .maybe_checkpoint(fleet.aggregator(), &closed)
            .expect("checkpoint")
        {
            copy_dir(&live, &root.join(format!("after-{}", covered.len())));
            covered.push(closed.len());
        }
        if !moved {
            break;
        }
    }
    drop(fleet);
    assert!(covered.len() >= 20, "{} checkpoints", covered.len());

    let dir = root.join("cell");
    for (i, &windows) in covered.iter().enumerate() {
        copy_dir(&root.join(format!("after-{i}")), &dir);
        let (fixes, restored) = restore_and_finish(&scenario, &slices, &dir);
        assert_eq!(
            restored,
            Some((i as u64, windows)),
            "checkpoint {i} restores"
        );
        assert_eq!(fixes, reference, "killed after checkpoint {i}");

        // Lost-checkpoint companion: the kill landed after checkpoint
        // i synced the log but before its document was renamed into
        // place, with the log's final record torn 3 bytes in.
        copy_dir(&root.join(format!("after-{i}")), &dir);
        let torn = lose_newest_checkpoint(&dir, DocKind::FleetCheckpoint, 3).expect("lose");
        assert!(torn, "checkpoint {i} appended windows to tear");
        // Every checkpoint of this campaign closes new windows, so the
        // torn record is checkpoint i's own: restore falls back to
        // checkpoint i - 1, or starts fresh over the torn log at i = 0.
        let want = i.checked_sub(1).map(|j| (j as u64, covered[j]));
        let (fixes, restored) = restore_and_finish(&scenario, &slices, &dir);
        assert_eq!(restored, want, "checkpoint {i} lost");
        assert_eq!(fixes, reference, "checkpoint {i} lost");
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// Bytes the last cadence checkpoint of a one-node campaign of `frames`
/// frames writes: its document plus what it appended to the log.
fn last_checkpoint_bytes(frames: u64) -> u64 {
    let db: ApDatabase = (0..3u64)
        .map(|i| ApRecord {
            bssid: MacAddr::from_index(100 + i),
            ssid: None,
            location: Point::new(50.0 * i as f64, 40.0 * (i % 2) as f64),
            radius: Some(120.0),
        })
        .collect();
    let map = MaraudersMap::new(db, KnowledgeLevel::Full, AttackConfig::default());
    let mut agg = Aggregator::new(map, fleet_config(1));
    let dir = temp_dir(&format!("size-{frames}"));
    let mut cp = Checkpointer::new(&dir, EVERY_S).expect("checkpointer");
    let hello = Message::Hello {
        node_id: 1,
        clock_offset_s: 0.0,
        version: PROTOCOL_VERSION,
    };
    agg.on_message(&hello).expect("hello");
    let mut closed = Vec::new();
    let mut last = 0;
    for seq in 0..frames / 10 {
        let batch = (seq * 10..seq * 10 + 10)
            .map(|k| CapturedFrame {
                time_s: k as f64 * 7.0,
                card: 0,
                frame: Frame::probe_response(
                    MacAddr::from_index(100 + k % 3),
                    MacAddr::from_index(0x50 + k % 4),
                    Ssid::new("x").expect("short ssid"),
                    Channel::bg(6).expect("bg channel"),
                ),
            })
            .collect();
        let messages = [
            Message::FrameBatch {
                node_id: 1,
                seq,
                frames: batch,
            },
            Message::Heartbeat {
                node_id: 1,
                watermark_s: (seq * 10 + 9) as f64 * 7.0,
            },
        ];
        for msg in &messages {
            closed.extend(agg.on_message(msg).expect("merge").closed);
        }
        let log_before = std::fs::metadata(dir.join(CLOSED_LOG)).map_or(0, |m| m.len());
        if cp.maybe_checkpoint(&agg, &closed).expect("checkpoint") {
            let (_, newest) = list_checkpoints(&dir, DocKind::FleetCheckpoint)
                .expect("list")
                .pop()
                .expect("a checkpoint");
            let log_after = std::fs::metadata(dir.join(CLOSED_LOG)).map_or(0, |m| m.len());
            last =
                std::fs::metadata(dir.join(newest)).expect("stat").len() + log_after - log_before;
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
    last
}

#[test]
fn checkpoint_bytes_do_not_grow_with_the_campaign() {
    let short = last_checkpoint_bytes(400);
    let long = last_checkpoint_bytes(4_000);
    assert!(short > 0, "the short campaign checkpoints");
    assert!(
        long <= short + short / 10,
        "the last checkpoint writes {short} B after 400 frames but {long} B after 4,000"
    );
}
