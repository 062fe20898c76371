//! Property tests for fleet checkpoint damage tolerance: any
//! truncation or single-byte corruption of the newer of two checkpoint
//! files is skipped — checkpoints are CRC-sealed documents — and
//! restore falls back to the intact older one, restoring exactly its
//! state: the same aggregator snapshot bytes and the same closed
//! windows.

use marauder_core::apdb::{ApDatabase, ApRecord};
use marauder_core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap};
use marauder_geo::Point;
use marauder_net::codec::{Message, PROTOCOL_VERSION};
use marauder_net::{restore_latest, Aggregator, Checkpointer, FleetConfig};
use marauder_stream::{ClosedWindow, StreamConfig};
use marauder_wifi::channel::Channel;
use marauder_wifi::frame::Frame;
use marauder_wifi::mac::MacAddr;
use marauder_wifi::sniffer::CapturedFrame;
use marauder_wifi::ssid::Ssid;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

fn map() -> MaraudersMap {
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

fn config() -> FleetConfig {
    FleetConfig {
        stream: StreamConfig {
            live_localization: false,
            ..StreamConfig::default()
        },
        expected_nodes: 1,
        ..FleetConfig::default()
    }
}

/// What a restore must reproduce: the aggregator's snapshot bytes and
/// the closed windows as `(window, start bits, mobile, Γ)`.
type Restored = (Vec<u8>, Vec<(i64, u64, MacAddr, Vec<MacAddr>)>);

fn restored(aggregator: &Aggregator, closed: &[ClosedWindow]) -> Restored {
    (
        aggregator.snapshot(),
        closed
            .iter()
            .map(|c| {
                (
                    c.window,
                    c.window_start_s.to_bits(),
                    c.mobile,
                    c.gamma.iter().copied().collect(),
                )
            })
            .collect(),
    )
}

/// One checkpoint file's bytes, produced by a real aggregator run, and
/// the state it holds; cached for every case.
fn template() -> &'static (Vec<u8>, Restored) {
    static T: OnceLock<(Vec<u8>, Restored)> = OnceLock::new();
    T.get_or_init(|| {
        let mut agg = Aggregator::new(map(), config());
        let mut closed = Vec::new();
        closed.extend(
            agg.on_message(&Message::Hello {
                node_id: 1,
                clock_offset_s: 0.0,
                version: PROTOCOL_VERSION,
                wants_snapshot: false,
            })
            .expect("hello")
            .closed,
        );
        let frames: Vec<CapturedFrame> = (0..40)
            .map(|k| CapturedFrame {
                time_s: k as f64 * 7.0,
                card: 0,
                frame: Frame::probe_response(
                    MacAddr::from_index(100 + (k % 3)),
                    MacAddr::from_index(0x50 + (k % 2)),
                    Ssid::new("x").expect("short ssid"),
                    Channel::bg(6).expect("bg channel"),
                ),
            })
            .collect();
        closed.extend(
            agg.on_message(&Message::FrameBatch {
                node_id: 1,
                seq: 0,
                frames,
            })
            .expect("batch")
            .closed,
        );
        closed.extend(
            agg.on_message(&Message::Heartbeat {
                node_id: 1,
                watermark_s: 39.0 * 7.0,
            })
            .expect("heartbeat")
            .closed,
        );
        assert!(!closed.is_empty(), "template run must close windows");

        let dir = std::env::temp_dir().join(format!(
            "marauder-ckpt-props-template-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cp = Checkpointer::new(&dir, 1.0).expect("checkpointer");
        cp.checkpoint_now(&agg, &closed).expect("checkpoint");
        let file = std::fs::read_dir(&dir)
            .expect("list")
            .next()
            .expect("one file")
            .expect("entry")
            .path();
        let bytes = std::fs::read(file).expect("read checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
        (bytes, restored(&agg, &closed))
    })
}

fn template_checkpoint() -> &'static Vec<u8> {
    &template().0
}

/// A scratch checkpoint directory holding an intact oldest checkpoint
/// and one damaged newer copy.
fn materialize(damaged: &[u8]) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "marauder-ckpt-props-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(
        dir.join(format!("fleet-{:020}.ckpt", 0)),
        template_checkpoint(),
    )
    .expect("write intact");
    std::fs::write(dir.join(format!("fleet-{:020}.ckpt", 1)), damaged).expect("write damaged");
    dir
}

/// Damage must never panic restore: the damaged newer file is skipped
/// and the intact older one restores exactly the template's state. A
/// "cut" at full length leaves the newer file intact, so it restores
/// with nothing skipped.
fn check_restore(damaged: &[u8]) -> Result<(), TestCaseError> {
    let dir = materialize(damaged);
    let result = restore_latest(&dir, &map(), &config());
    let verdict = match result {
        Ok(Some(restore)) => {
            let intact = damaged == template_checkpoint().as_slice();
            let want_file = format!("fleet-{:020}.ckpt", u8::from(intact));
            prop_assert_eq!(restore.skipped, usize::from(!intact));
            prop_assert!(
                restore.file.ends_with(&want_file),
                "restored {:?}, want {}",
                restore.file,
                want_file
            );
            prop_assert!(
                restored(&restore.aggregator, &restore.closed) == template().1,
                "the restore differs from the clean template's state"
            );
            Ok(())
        }
        Ok(None) => Err(TestCaseError::fail(
            "restore missed the intact checkpoint".to_string(),
        )),
        Err(e) => Err(TestCaseError::fail(format!(
            "directory-level error from file damage: {e}"
        ))),
    };
    let _ = std::fs::remove_dir_all(&dir);
    verdict
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_truncation_is_skipped_never_fatal(cut in any::<usize>()) {
        let template = template_checkpoint();
        let cut = cut % (template.len() + 1);
        check_restore(&template[..cut])?;
    }

    #[test]
    fn any_single_byte_corruption_is_skipped_never_fatal(
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = template_checkpoint().clone();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        check_restore(&bytes)?;
    }
}
