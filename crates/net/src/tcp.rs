//! Real-network transport: a blocking `std::net` client/server pair.
//!
//! This is the only module in the crate that touches sockets or the
//! wall clock; the merge logic it feeds ([`Aggregator`]) stays a pure
//! function of the message sequence. Server-side liveness uses two
//! independent mechanisms: the aggregator's *stream-time* eviction
//! (`dead_after_s`) guarantees merge progress past a silent node, and
//! the server loop's wall-clock idle timeout bounds how long the whole
//! process waits when every node goes quiet.

use crate::aggregator::{Aggregator, Turn};
use crate::checkpoint::Checkpointer;
use crate::codec::{decode_exact, WireError, MAX_BODY_LEN};
use crate::node::SnifferNode;
use crate::transport::{NetError, Transport};
use marauder_stream::ClosedWindow;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Poll granularity for socket reads and the server's event loop.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// [`Transport`] over one TCP stream, preserving message boundaries
/// by re-framing on the length prefix. Reads are bounded by a short
/// timeout so `recv` approximates the non-blocking contract.
pub struct TcpTransport {
    stream: TcpStream,
    inbuf: Vec<u8>,
}

impl TcpTransport {
    /// Wraps a connected stream.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when socket options cannot be applied.
    pub fn new(stream: TcpStream) -> Result<Self, NetError> {
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(POLL_INTERVAL)))
            .map_err(|e| NetError::Io(e.to_string()))?;
        Ok(TcpTransport {
            stream,
            inbuf: Vec::new(),
        })
    }

    /// Pops one complete wire frame (prefix + body) off the input
    /// buffer, if present.
    fn take_frame(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        if self.inbuf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.inbuf[0], self.inbuf[1], self.inbuf[2], self.inbuf[3]]);
        if len > MAX_BODY_LEN {
            return Err(NetError::Wire(WireError::Oversized {
                len,
                max: MAX_BODY_LEN,
            }));
        }
        let total = 4 + len as usize;
        if self.inbuf.len() < total {
            return Ok(None);
        }
        let rest = self.inbuf.split_off(total);
        let frame = std::mem::replace(&mut self.inbuf, rest);
        Ok(Some(frame))
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.stream.write_all(frame).map_err(|e| match e.kind() {
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted => {
                NetError::Disconnected
            }
            _ => NetError::Io(e.to_string()),
        })
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        loop {
            if let Some(frame) = self.take_frame()? {
                return Ok(Some(frame));
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                    ) =>
                {
                    return Err(NetError::Disconnected)
                }
                Err(e) => return Err(NetError::Io(e.to_string())),
            }
        }
    }
}

/// Reconnect policy for [`run_node`].
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Consecutive failed connection attempts tolerated before giving
    /// up.
    pub max_retries: u32,
    /// First backoff delay; doubles per failed attempt.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_retries: 8,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

/// Deterministic jitter for one reconnect delay: the doubled base
/// backoff scaled into `[base/2, base)` by a fraction derived from the
/// node's identity and the attempt number.
///
/// Jitter decorrelates a fleet's reconnect stampede after an
/// aggregator restart, but entropy-based jitter would make network
/// runs unreproducible — so the fraction is a pure function of
/// `(node_seed, attempt)` via [`marauder_par::sub_seed`], bit-identical
/// on every machine.
pub fn backoff_with_jitter(base: Duration, node_seed: u64, attempt: u32) -> Duration {
    // 53 high-quality bits → a fraction in [0, 1).
    let bits = marauder_par::sub_seed(node_seed, u64::from(attempt));
    let frac = (bits >> 11) as f64 / (1u64 << 53) as f64;
    let nanos = base.as_nanos() as f64 * (0.5 + 0.5 * frac);
    Duration::from_nanos(nanos as u64)
}

/// Runs a node against a TCP aggregator until its stream completes,
/// reconnecting with bounded exponential backoff (plus deterministic
/// per-node jitter) across connection failures and mid-stream
/// disconnects. Each successful handshake resumes from the
/// aggregator's `resume_seq`, so a flapping link never loses or
/// duplicates a batch.
///
/// # Errors
///
/// [`NetError::Io`] once `max_retries` consecutive attempts fail, or
/// the first fatal protocol error.
pub fn run_node(addr: &str, node: &mut SnifferNode, retry: &RetryConfig) -> Result<(), NetError> {
    let mut failures = 0u32;
    let mut backoff = retry.initial_backoff;
    while !node.is_done() {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let mut transport = TcpTransport::new(stream)?;
                match drive_node(node, &mut transport) {
                    Ok(()) => return Ok(()),
                    Err(NetError::Disconnected) => {
                        // Mid-stream hangup: rejoin and resume.
                        node.begin_reconnect();
                    }
                    Err(e) => return Err(e),
                }
                failures = 0;
                backoff = retry.initial_backoff;
            }
            Err(e) => {
                failures += 1;
                if failures > retry.max_retries {
                    return Err(NetError::Io(format!(
                        "gave up after {failures} connection attempts: {e}"
                    )));
                }
                marauder_obs::global().counter_add("net.tcp_connect_retries", 1);
            }
        }
        if !node.is_done() {
            std::thread::sleep(backoff_with_jitter(backoff, u64::from(node.id()), failures));
            backoff = (backoff * 2).min(retry.max_backoff);
        }
    }
    Ok(())
}

/// Steps a node over one live connection until done or disconnected.
fn drive_node(node: &mut SnifferNode, transport: &mut TcpTransport) -> Result<(), NetError> {
    while !node.is_done() {
        if !node.step(transport)? {
            // Waiting on the ack: the read timeout inside `recv`
            // already paced us; just try again.
            std::thread::yield_now();
        }
    }
    Ok(())
}

/// Reader-thread events feeding the server loop.
enum Event {
    /// A complete wire frame from connection `conn`.
    Frame(u64, Vec<u8>),
    /// Connection `conn` hung up or failed.
    Gone(u64),
}

/// Pumps one connection's reads into the event channel until hangup.
fn pump_connection(conn: u64, stream: TcpStream, tx: Sender<Event>) {
    let mut transport = match TcpTransport::new(stream) {
        Ok(t) => t,
        Err(_) => {
            let _ = tx.send(Event::Gone(conn));
            return;
        }
    };
    loop {
        match transport.recv() {
            Ok(Some(frame)) => {
                if tx.send(Event::Frame(conn, frame)).is_err() {
                    return;
                }
            }
            Ok(None) => {}
            Err(_) => {
                let _ = tx.send(Event::Gone(conn));
                return;
            }
        }
    }
}

/// What a [`serve`] run produced.
pub struct ServeOutcome {
    /// The aggregator, finished and ready for
    /// [`batch_fixes`](Aggregator::batch_fixes).
    pub aggregator: Aggregator,
    /// Every window the run closed, in close order.
    pub closed: Vec<ClosedWindow>,
    /// Whether the loop ended because the fleet completed (vs. the
    /// idle timeout expiring).
    pub completed: bool,
}

/// Serves a fleet over TCP: accepts connections on `listener`, routes
/// each node's messages into `aggregator`, and writes protocol replies
/// back. Returns once every expected node's stream completes, or after
/// `idle_timeout` passes with no traffic.
///
/// Per-connection protocol errors (bad version, sequence gap, corrupt
/// frame) drop that connection — the node may reconnect and resume —
/// and never take the server down.
///
/// # Errors
///
/// [`NetError::Io`] when the listener cannot be polled.
pub fn serve(
    listener: TcpListener,
    aggregator: Aggregator,
    idle_timeout: Duration,
) -> Result<ServeOutcome, NetError> {
    serve_with(listener, aggregator, idle_timeout, None, Vec::new())
}

/// [`serve`] with crash durability: closed windows accumulate on top
/// of `initial_closed` (the restored pre-crash list, so a later
/// checkpoint never forgets them), and `checkpointer` — when present —
/// writes periodic fleet checkpoints plus a final one after the run
/// completes. Checkpoint write failures are counted
/// (`fleet.checkpoint_errors`) but never take the server down; the
/// merge keeps running on the last durable state.
///
/// # Errors
///
/// [`NetError::Io`] when the listener cannot be polled.
pub fn serve_with(
    listener: TcpListener,
    mut aggregator: Aggregator,
    idle_timeout: Duration,
    mut checkpointer: Option<&mut Checkpointer>,
    initial_closed: Vec<ClosedWindow>,
) -> Result<ServeOutcome, NetError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| NetError::Io(e.to_string()))?;
    let (tx, rx) = channel();
    let mut writers: BTreeMap<u64, TcpStream> = BTreeMap::new();
    let mut node_of: BTreeMap<u64, u32> = BTreeMap::new();
    let mut next_conn = 0u64;
    let mut closed = initial_closed;
    let mut last_activity = Instant::now();
    let reg = marauder_obs::global();

    let completed = loop {
        // Admit any pending connections.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let conn = next_conn;
                    next_conn += 1;
                    reg.counter_add("net.tcp_accepts", 1);
                    match stream.try_clone() {
                        Ok(reader) => {
                            writers.insert(conn, stream);
                            let tx = tx.clone();
                            std::thread::spawn(move || pump_connection(conn, reader, tx));
                        }
                        Err(_) => {
                            // The socket died between accept and clone.
                        }
                    }
                    last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(NetError::Io(e.to_string())),
            }
        }
        match rx.recv_timeout(POLL_INTERVAL) {
            Ok(Event::Frame(conn, bytes)) => {
                last_activity = Instant::now();
                match handle_frame(&mut aggregator, &bytes) {
                    Ok((maybe_node, turn)) => {
                        if let Some(id) = maybe_node {
                            node_of.insert(conn, id);
                        }
                        closed.extend(turn.closed);
                        if let Some(cp) = checkpointer.as_deref_mut() {
                            if cp.maybe_checkpoint(&aggregator, &closed).is_err() {
                                reg.counter_add("fleet.checkpoint_errors", 1);
                            }
                        }
                        if let Some(writer) = writers.get_mut(&conn) {
                            for reply in &turn.replies {
                                if writer.write_all(&crate::codec::encode(reply)).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                    Err(_) => {
                        // Poison one connection, not the fleet.
                        reg.counter_add("net.tcp_conn_errors", 1);
                        writers.remove(&conn);
                        if let Some(id) = node_of.remove(&conn) {
                            aggregator.node_disconnected(id);
                        }
                    }
                }
            }
            Ok(Event::Gone(conn)) => {
                writers.remove(&conn);
                if let Some(id) = node_of.remove(&conn) {
                    aggregator.node_disconnected(id);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break false,
        }
        if aggregator.finished() {
            break true;
        }
        if last_activity.elapsed() > idle_timeout {
            break false;
        }
    };
    closed.extend(aggregator.finish());
    if let Some(cp) = checkpointer {
        if cp.checkpoint_now(&aggregator, &closed).is_err() {
            reg.counter_add("fleet.checkpoint_errors", 1);
        }
    }
    Ok(ServeOutcome {
        aggregator,
        closed,
        completed,
    })
}

/// Decodes and dispatches one wire frame; returns the node id when the
/// frame was a handshake (so the server can bind connection → node).
fn handle_frame(
    aggregator: &mut Aggregator,
    bytes: &[u8],
) -> Result<(Option<u32>, Turn), NetError> {
    let msg = decode_exact(bytes)?;
    let joined = match &msg {
        crate::codec::Message::Hello { node_id, .. } => Some(*node_id),
        _ => None,
    };
    let turn = aggregator.on_message(&msg)?;
    Ok((joined, turn))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconnect_jitter_is_reproducible_and_bounded() {
        let base = Duration::from_millis(200);
        for node in 0..8u64 {
            for attempt in 0..8u32 {
                let a = backoff_with_jitter(base, node, attempt);
                let b = backoff_with_jitter(base, node, attempt);
                assert_eq!(a, b, "jitter must be a pure function of (node, attempt)");
                assert!(
                    a >= base / 2 && a < base,
                    "delay {a:?} outside [base/2, base)"
                );
            }
        }
    }

    #[test]
    fn reconnect_jitter_decorrelates_nodes() {
        let base = Duration::from_secs(2);
        let delays: Vec<Duration> = (0..16u64)
            .map(|node| backoff_with_jitter(base, node, 0))
            .collect();
        let distinct: std::collections::BTreeSet<Duration> = delays.iter().copied().collect();
        assert!(
            distinct.len() > 8,
            "a fleet's first retries must spread out, got {distinct:?}"
        );
    }
}
