//! The TCP edge of `marauder fleet --listen` keeps its limits, shown
//! with a few sockets.
//!
//! With `--nodes 1` the listener holds two connections. The first test
//! seats an earlier connection of node 0, which joined and then only
//! heartbeats (so the fleet never goes idle), and a peer that never
//! says `Hello`. Then:
//!
//! * a third connection is closed at once and counted as
//!   `net.tcp_refused`;
//! * the silent peer is closed at its handshake deadline, the
//!   `--idle-timeout`, and not before, and counted as
//!   `net.tcp_handshake_timeouts`;
//! * the real `marauder node` rejoins as node 0 and completes, and the
//!   listener prints what `fleet --loopback 1` prints.
//!
//! The counters come from the listener's `--metrics FILE`. The other
//! tests show that a rejoin closes the connection it replaces, and
//! that a stray id seated before the real node ends both processes
//! with a failure instead of holding them open.

use marauders_map::net::codec::{decode, encode};
use marauders_map::net::{Message, StreamTime, Watermark, PROTOCOL_VERSION};
use marauders_map::obs::json::{self, Json};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The listener's `--idle-timeout`, and so its handshake deadline.
const IDLE_TIMEOUT: Duration = Duration::from_secs(2);

fn marauder() -> Command {
    Command::new(env!("CARGO_BIN_EXE_marauder"))
}

/// A small simulated campus in a fresh directory: (dir, capture log,
/// knowledge).
fn campus(name: &str) -> (PathBuf, PathBuf, PathBuf) {
    let dir =
        std::env::temp_dir().join(format!("marauder-fleet-edge-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "13",
            "--aps",
            "50",
            "--mobiles",
            "3",
            "--duration",
            "180",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(out.status.success());
    let (log, aps) = (dir.join("capture.log"), dir.join("aps.csv"));
    (dir, log, aps)
}

/// Starts `fleet --listen --nodes 1` and returns it, its address and
/// the rest of its stderr.
fn listen(aps: &Path, metrics: &Path) -> (Child, String, BufReader<ChildStderr>) {
    let mut listener = marauder()
        .arg("fleet")
        .arg("--knowledge")
        .arg(aps)
        .args(["--listen", "127.0.0.1:0", "--nodes", "1", "--idle-timeout"])
        .arg(IDLE_TIMEOUT.as_secs().to_string())
        .arg("--metrics")
        .arg(metrics)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn listener");
    let mut stderr = BufReader::new(listener.stderr.take().expect("piped stderr"));
    let mut announce = String::new();
    stderr.read_line(&mut announce).expect("read announcement");
    let addr = announce
        .strip_prefix("fleet: listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("bad announcement: {announce:?}"))
        .to_string();
    (listener, addr, stderr)
}

/// Connects as `node_id` and completes its handshake.
fn join(addr: &str, node_id: u32) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let hello = Message::Hello {
        node_id,
        clock_offset_s: StreamTime::ZERO,
        version: PROTOCOL_VERSION,
    };
    stream.write_all(&encode(&hello)).expect("send hello");
    assert_eq!(
        read_message(&mut stream),
        Message::HelloAck {
            node_id,
            version: PROTOCOL_VERSION,
            resume_seq: 0
        }
    );
    stream
}

/// A joined connection that heartbeats every 100 ms, so the listener
/// never goes idle, until [`Heartbeats::stop`] closes it.
struct Heartbeats {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Heartbeats {
    fn start(mut stream: TcpStream, node_id: u32) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let beat = encode(&Message::Heartbeat {
            node_id,
            watermark_s: Watermark::NoData,
        });
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) && stream.write_all(&beat).is_ok() {
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        };
        Heartbeats { stop, thread }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("heartbeat thread");
    }
}

/// Whether the listener closes `stream` within `within`.
fn closed_within(stream: &mut TcpStream, within: Duration) -> bool {
    stream.set_read_timeout(Some(within)).expect("read timeout");
    match stream.read(&mut [0u8; 1]) {
        Ok(0) => true,
        Ok(_) => panic!("the listener wrote to a peer it owed nothing"),
        Err(e) => matches!(
            e.kind(),
            ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
        ),
    }
}

/// Reads one whole wire frame off a blocking stream.
fn read_message(stream: &mut TcpStream) -> Message {
    let mut frame = vec![0u8; 4];
    stream.read_exact(&mut frame).expect("length prefix");
    let len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    frame.resize(4 + len, 0);
    stream.read_exact(&mut frame[4..]).expect("body");
    decode(&frame).expect("a valid message").0
}

/// Polls `child` every 20 ms for `within`, and kills it if it is still
/// running then.
fn exit_within(child: &mut Child, within: Duration) -> Option<ExitStatus> {
    let poll = Duration::from_millis(20);
    for _ in 0..within.as_millis() / poll.as_millis() {
        if let Some(status) = child.try_wait().expect("poll child") {
            return Some(status);
        }
        std::thread::sleep(poll);
    }
    let _ = child.kill();
    let _ = child.wait();
    None
}

fn rest_of(mut stream: impl Read) -> String {
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("read stream");
    rest
}

#[test]
fn a_full_edge_refuses_at_once_a_silent_peer_times_out_and_the_node_completes() {
    let (dir, log, aps) = campus("limits");
    let loopback = marauder()
        .arg("fleet")
        .arg(&log)
        .arg("--knowledge")
        .arg(&aps)
        .args(["--loopback", "1"])
        .output()
        .expect("run loopback fleet");
    assert!(loopback.status.success());

    let metrics = dir.join("metrics.json");
    let (mut listener, addr, stderr) = listen(&aps, &metrics);

    // Seat 1: node 0 joins, then only heartbeats until told to stop.
    let earlier = Heartbeats::start(join(&addr, 0), 0);

    // Seat 2: a peer that never says hello. A third connection finds
    // the edge full and is closed long before any handshake deadline.
    let opened = Instant::now();
    let mut silent = TcpStream::connect(&addr).expect("connect the silent peer");
    let mut third = TcpStream::connect(&addr).expect("connect a third peer");
    assert!(
        closed_within(&mut third, IDLE_TIMEOUT / 2),
        "a connection past the bound must be closed at once"
    );
    assert!(
        closed_within(&mut silent, 10 * IDLE_TIMEOUT),
        "a peer that never says hello must be closed"
    );
    assert!(
        opened.elapsed() >= IDLE_TIMEOUT,
        "the silent peer was closed before its handshake deadline"
    );

    let node = marauder()
        .arg("node")
        .arg(&log)
        .args(["--connect", &addr])
        .output()
        .expect("run node");
    assert!(
        node.status.success(),
        "node failed: {}",
        String::from_utf8_lossy(&node.stderr)
    );
    let csv = rest_of(listener.stdout.take().expect("piped stdout"));
    let status = listener.wait().expect("reap listener");
    earlier.stop();
    let rest = rest_of(stderr);
    assert!(status.success(), "listener failed: {rest}");
    assert_eq!(csv, String::from_utf8_lossy(&loopback.stdout));

    let doc = json::parse(&std::fs::read_to_string(&metrics).expect("read metrics"))
        .expect("metrics parse");
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|counters| counters.get(name))
            .and_then(Json::as_u64)
    };
    assert_eq!(counter("net.tcp_refused"), Some(1));
    assert_eq!(counter("net.tcp_handshake_timeouts"), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rejoin_closes_the_connection_it_replaces() {
    let (dir, _, aps) = campus("rejoin");
    let (mut listener, addr, stderr) = listen(&aps, &dir.join("metrics.json"));
    let mut first = join(&addr, 0);
    let mut second = join(&addr, 0);
    assert!(
        closed_within(&mut first, IDLE_TIMEOUT / 2),
        "the connection a rejoin replaces must be closed"
    );
    // The rejoined connection is still served: its drained node
    // completes the fleet.
    let drained = Message::Heartbeat {
        node_id: 0,
        watermark_s: Watermark::Drained,
    };
    second.write_all(&encode(&drained)).expect("send drained");
    let status = exit_within(&mut listener, 5 * IDLE_TIMEOUT).expect("the fleet completes");
    assert!(status.success(), "listener failed: {}", rest_of(stderr));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stray_seated_first_fails_the_node_and_the_listener() {
    let (dir, log, aps) = campus("stray");
    let (mut listener, addr, stderr) = listen(&aps, &dir.join("metrics.json"));
    // Node 99 takes the only seat and heartbeats, so the listener
    // stays up while node 0 is refused.
    let stray = Heartbeats::start(join(&addr, 99), 99);
    let node = |extra: &[&str]| {
        marauder()
            .arg("node")
            .arg(&log)
            .args(["--connect", &addr, "--node-id", "0"])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn node")
    };

    // A link closed before its ack is a failed attempt, so a refused
    // node gives up while the listener is still up.
    let mut refused = node(&["--retries", "3"]);
    let status = exit_within(&mut refused, 5 * IDLE_TIMEOUT).expect("a refused node gives up");
    let why = rest_of(refused.stderr.take().expect("piped stderr"));
    assert!(!status.success());
    assert!(why.contains("gave up after 4 connection attempts"), "{why}");
    assert!(listener.try_wait().expect("poll listener").is_none());

    // A refused link is no activity: once the stray falls silent, the
    // listener idles out while a node with more retries still knocks.
    let mut retrying = node(&[]);
    stray.stop();
    let status = exit_within(&mut listener, 3 * IDLE_TIMEOUT).expect("the listener idles out");
    assert!(!status.success());
    assert!(rest_of(stderr).contains("went idle"));
    assert!(
        retrying.try_wait().expect("poll node").is_none(),
        "the listener waited for the refused node to give up"
    );
    let status = exit_within(&mut retrying, 10 * IDLE_TIMEOUT).expect("the node gives up");
    assert!(!status.success());
    let _ = std::fs::remove_dir_all(&dir);
}
