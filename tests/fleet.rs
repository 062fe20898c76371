//! Fleet merge equivalence at fig13 scale: a capture log partitioned
//! across 1/2/4 sniffer nodes — round-robin or by time shift, with and
//! without per-node clock skew — must replay byte-identical to a
//! single-stream `replay_frames` of the same log, at any worker-thread
//! count. Plus node kill/rejoin recovery, aggregator checkpointing
//! mid-merge, and a real-TCP localhost fleet.

use marauders_map::fault::ChaosScenario;
use marauders_map::net::transport::{recv_message, send_message};
use marauders_map::net::{
    required_slack_s, split_by_time, split_round_robin, Aggregator, FleetConfig, LoopbackFleet,
    LoopbackTransport, NodeConfig, SnifferNode,
};
use marauders_map::stream::{replay_frames, StreamConfig, TrackFix};
use marauders_map::wifi::sniffer::CapturedFrame;
use std::sync::{Mutex, OnceLock};

/// One fig13 build shared by every test (130 APs, 900 s — cheap to
/// replay, expensive to regenerate per test).
fn fig13() -> &'static ChaosScenario {
    static S: OnceLock<ChaosScenario> = OnceLock::new();
    S.get_or_init(|| ChaosScenario::fig13(7))
}

fn fig13_frames() -> Vec<CapturedFrame> {
    fig13().captures().iter().cloned().collect()
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        live_localization: false,
        ..StreamConfig::default()
    }
}

/// `set_threads` is process-global; tests that vary it must not
/// interleave.
fn thread_lock() -> &'static Mutex<()> {
    static L: OnceLock<Mutex<()>> = OnceLock::new();
    L.get_or_init(|| Mutex::new(()))
}

/// Bitwise fix identity: mobile, timestamp bits, position bits.
fn keys(fixes: &[TrackFix]) -> Vec<(String, u64, u64, u64)> {
    fixes
        .iter()
        .map(|f| {
            (
                f.mobile.to_string(),
                f.time_s.to_bits(),
                f.estimate.position.x.to_bits(),
                f.estimate.position.y.to_bits(),
            )
        })
        .collect()
}

/// Runs a loopback fleet over the given slices and returns its
/// batch-equivalent fixes plus (frames_relayed, frames_late).
fn run_fleet(
    slices: Vec<Vec<CapturedFrame>>,
    offsets: &[f64],
    correct_frame_times: bool,
) -> (Vec<TrackFix>, u64, usize) {
    let nodes = slices.len();
    let aggregator = Aggregator::new(
        fig13().fresh_map(),
        FleetConfig {
            stream: stream_config(),
            expected_nodes: nodes,
            correct_frame_times,
            ..FleetConfig::default()
        },
    );
    let seats: Vec<(NodeConfig, Vec<CapturedFrame>)> = slices
        .into_iter()
        .enumerate()
        .map(|(k, slice)| {
            (
                NodeConfig {
                    batch_frames: 48,
                    reorder_slack_s: required_slack_s(&slice),
                    clock_offset_s: offsets.get(k).copied().unwrap_or(0.0),
                },
                slice,
            )
        })
        .collect();
    let mut fleet = LoopbackFleet::new(aggregator, seats);
    let closed = fleet.run().expect("fleet run");
    let mut agg = fleet.into_aggregator();
    let relayed = agg.stats().frames_relayed;
    let late = agg.engine().stats().frames_late;
    (agg.batch_fixes(closed), relayed, late)
}

#[test]
fn partitioned_replay_is_byte_identical_to_single_stream() {
    let _guard = thread_lock().lock().unwrap();
    let frames = fig13_frames();
    // Positive skews only: the aggregator's watermark correction is
    // then conservative, so the merge can never run ahead of a node.
    let skews = [0.0, 3.25, 7.5, 11.25];

    for threads in [1usize, 7] {
        marauders_map::par::set_threads(threads);
        let (baseline, base_stats) = replay_frames(fig13().fresh_map(), stream_config(), &frames);
        assert!(!baseline.is_empty(), "fig13 must produce fixes");
        assert_eq!(base_stats.frames_late, 0);
        let base_keys = keys(&baseline);

        for nodes in [1usize, 2, 4] {
            for (split_name, slices) in [
                ("rr", split_round_robin(&frames, nodes)),
                ("time", split_by_time(&frames, nodes)),
            ] {
                for (skew_name, offsets) in [("none", &[][..]), ("skewed", &skews[..nodes])] {
                    let (fixes, relayed, late) = run_fleet(slices.clone(), offsets, false);
                    let label =
                        format!("{nodes} nodes / {split_name} / skew {skew_name} / t{threads}");
                    assert_eq!(relayed as usize, frames.len(), "{label}: frames lost");
                    assert_eq!(late, 0, "{label}: late frames");
                    assert_eq!(keys(&fixes), base_keys, "{label}: fixes diverged");
                }
            }
        }
    }
    marauders_map::par::set_threads(0);
}

#[test]
fn node_kill_and_rejoin_loses_no_windows() {
    let _guard = thread_lock().lock().unwrap();
    marauders_map::par::set_threads(1);
    let frames = fig13_frames();
    let (baseline, base_stats) = replay_frames(fig13().fresh_map(), stream_config(), &frames);

    let nodes = 4usize;
    let aggregator = Aggregator::new(
        fig13().fresh_map(),
        FleetConfig {
            stream: stream_config(),
            expected_nodes: nodes,
            ..FleetConfig::default()
        },
    );
    let seats: Vec<(NodeConfig, Vec<CapturedFrame>)> = split_round_robin(&frames, nodes)
        .into_iter()
        .map(|slice| {
            (
                NodeConfig {
                    batch_frames: 16, // many batches, so the kill lands mid-stream
                    ..NodeConfig::default()
                },
                slice,
            )
        })
        .collect();
    let mut fleet = LoopbackFleet::new(aggregator, seats);
    let mut closed = Vec::new();

    // Let the fleet make real progress, kill a node mid-stream, limp
    // along without it, then rejoin it.
    for _ in 0..8 {
        closed.extend(fleet.step().expect("step").0);
    }
    fleet.kill(2);
    for _ in 0..6 {
        closed.extend(fleet.step().expect("step while dead").0);
    }
    fleet.rejoin(2);
    closed.extend(fleet.run().expect("run to completion"));

    let mut agg = fleet.into_aggregator();
    assert!(agg.stats().reconnects >= 1, "the rejoin must be counted");
    assert_eq!(
        agg.stats().frames_relayed as usize,
        frames.len(),
        "kill/rejoin must lose no frames (resume_seq replays the gap)"
    );
    assert_eq!(
        agg.engine().stats().windows_closed,
        base_stats.windows_closed,
        "zero lost windows in the accounting"
    );
    assert_eq!(agg.engine().stats().frames_late, 0);
    let fixes = agg.batch_fixes(closed);
    assert_eq!(
        keys(&fixes),
        keys(&baseline),
        "kill/rejoin changed the fixes"
    );
    marauders_map::par::set_threads(0);
}

#[test]
fn aggregator_checkpoint_resumes_byte_identical_mid_merge() {
    let _guard = thread_lock().lock().unwrap();
    marauders_map::par::set_threads(1);
    let frames = fig13_frames();
    let nodes = 2usize;
    let config = FleetConfig {
        stream: stream_config(),
        expected_nodes: nodes,
        ..FleetConfig::default()
    };

    // Hand-rolled fleet driver so every post-checkpoint message can be
    // teed into a shadow aggregator restored from the snapshot.
    let mut live = Aggregator::new(fig13().fresh_map(), config.clone());
    let mut shadow: Option<Aggregator> = None;
    let mut sniffers: Vec<SnifferNode> = split_round_robin(&frames, nodes)
        .into_iter()
        .enumerate()
        .map(|(k, slice)| {
            SnifferNode::new(
                k as u32,
                NodeConfig {
                    batch_frames: 32,
                    ..NodeConfig::default()
                },
                slice,
            )
        })
        .collect();
    let mut pairs: Vec<(LoopbackTransport, LoopbackTransport)> =
        (0..nodes).map(|_| LoopbackTransport::pair()).collect();

    let mut live_post = Vec::new();
    let mut shadow_post = Vec::new();
    let mut rounds = 0usize;
    loop {
        let mut moved = false;
        for k in 0..nodes {
            moved |= sniffers[k].step(&mut pairs[k].0).expect("node step");
            while let Some(msg) = recv_message(&mut pairs[k].1).expect("recv") {
                moved = true;
                let turn = live.on_message(&msg).expect("live merge");
                if let Some(sh) = shadow.as_mut() {
                    let sh_turn = sh.on_message(&msg).expect("shadow merge");
                    live_post.extend(turn.closed.iter().cloned());
                    shadow_post.extend(sh_turn.closed);
                }
                for reply in turn.replies {
                    let _ = send_message(&mut pairs[k].1, &reply);
                }
            }
        }
        rounds += 1;
        if shadow.is_none() && rounds == 30 {
            // Checkpoint mid-merge: open windows, node cursors and the
            // reorder buffer all survive the text round trip.
            let snap = live.snapshot();
            shadow = Some(
                Aggregator::restore(fig13().fresh_map(), config.clone(), &snap)
                    .expect("own checkpoint restores"),
            );
        }
        if !moved {
            break;
        }
    }
    assert!(
        shadow.is_some(),
        "fleet finished before the checkpoint round"
    );
    let mut shadow = shadow.unwrap();
    live_post.extend(live.finish());
    shadow_post.extend(shadow.finish());

    assert_eq!(live.engine().stats(), shadow.engine().stats());
    let live_fixes = live.batch_fixes(live_post);
    let shadow_fixes = shadow.batch_fixes(shadow_post);
    assert!(!live_fixes.is_empty(), "checkpoint landed after all closes");
    assert_eq!(
        keys(&live_fixes),
        keys(&shadow_fixes),
        "restored aggregator diverged from the uninterrupted one"
    );
    marauders_map::par::set_threads(0);
}

#[test]
fn dyadic_frame_time_correction_is_bit_exact() {
    let _guard = thread_lock().lock().unwrap();
    marauders_map::par::set_threads(1);
    // Dyadic timestamps and offsets: (t + offset) - offset is exact in
    // f64, so `correct_frame_times` recovers the true stamps bit-for-
    // bit and the corrected merge equals a true-time replay.
    let frames = fig13_frames();
    let true_slices = split_round_robin(&frames, 2);
    let offsets = [4.0f64, 0.25];
    let shifted: Vec<Vec<CapturedFrame>> = true_slices
        .iter()
        .zip(&offsets)
        .map(|(slice, off)| {
            slice
                .iter()
                .map(|f| {
                    let mut f = f.clone();
                    // fig13 stamps are not dyadic, but adding and then
                    // subtracting the same f64 that is representable
                    // without rounding error against these magnitudes
                    // must still round-trip; force it by snapping to a
                    // dyadic grid first.
                    f.time_s = (f.time_s * 8.0).round() / 8.0 + off;
                    f
                })
                .collect()
        })
        .collect();
    let snapped: Vec<Vec<CapturedFrame>> = true_slices
        .iter()
        .map(|slice| {
            slice
                .iter()
                .map(|f| {
                    let mut f = f.clone();
                    f.time_s = (f.time_s * 8.0).round() / 8.0;
                    f
                })
                .collect()
        })
        .collect();

    let union: Vec<CapturedFrame> = {
        // Baseline in merge order: (time, node, within-node position).
        let mut tagged: Vec<(u64, usize, usize, CapturedFrame)> = Vec::new();
        for (node, slice) in snapped.iter().enumerate() {
            for (i, f) in slice.iter().enumerate() {
                tagged.push((f.time_s.to_bits(), node, i, f.clone()));
            }
        }
        tagged.sort_by(|a, b| {
            f64::from_bits(a.0)
                .total_cmp(&f64::from_bits(b.0))
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        tagged.into_iter().map(|(_, _, _, f)| f).collect()
    };
    let (baseline, _) = replay_frames(fig13().fresh_map(), stream_config(), &union);

    let (fixes, relayed, late) = run_fleet(shifted, &offsets, true);
    assert_eq!(relayed as usize, frames.len());
    assert_eq!(late, 0);
    assert_eq!(
        keys(&fixes),
        keys(&baseline),
        "dyadic clock correction must be bit-exact"
    );
    marauders_map::par::set_threads(0);
}

#[test]
fn tcp_localhost_fleet_matches_single_stream() {
    let _guard = thread_lock().lock().unwrap();
    marauders_map::par::set_threads(1);
    let frames = fig13_frames();
    let (baseline, _) = replay_frames(fig13().fresh_map(), stream_config(), &frames);

    let nodes = 2usize;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().expect("local addr").to_string();
    let aggregator = Aggregator::new(
        fig13().fresh_map(),
        FleetConfig {
            stream: stream_config(),
            expected_nodes: nodes,
            ..FleetConfig::default()
        },
    );
    let server = std::thread::spawn(move || {
        marauders_map::net::tcp::serve(listener, aggregator, std::time::Duration::from_secs(30))
    });
    let workers: Vec<_> = split_round_robin(&frames, nodes)
        .into_iter()
        .enumerate()
        .map(|(k, slice)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut node = SnifferNode::new(
                    k as u32,
                    NodeConfig {
                        batch_frames: 64,
                        ..NodeConfig::default()
                    },
                    slice,
                );
                marauders_map::net::tcp::run_node(
                    &addr,
                    &mut node,
                    &marauders_map::net::tcp::RetryConfig::default(),
                )
            })
        })
        .collect();
    for w in workers {
        w.join().expect("node thread").expect("node stream");
    }
    let outcome = server.join().expect("server thread").expect("serve");
    assert!(
        outcome.completed,
        "fleet must finish before the idle timeout"
    );
    let mut agg = outcome.aggregator;
    assert_eq!(agg.stats().frames_relayed as usize, frames.len());
    assert_eq!(agg.engine().stats().frames_late, 0);
    let fixes = agg.batch_fixes(outcome.closed);
    assert_eq!(keys(&fixes), keys(&baseline), "TCP fleet diverged");
    marauders_map::par::set_threads(0);
}
