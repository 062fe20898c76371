//! Real-network transport: the node's `std::net` client and the
//! aggregator's one-thread poll loop ([`serve_with`]), both on
//! non-blocking sockets: `recv` never waits, `send` finishes a partial
//! write, and an end with nothing to do sleeps on a [`PollBackoff`].
//!
//! This is the only module in the crate that touches sockets or the
//! wall clock; the merge logic it feeds ([`Aggregator`]) stays a pure
//! function of the message sequence. Server-side liveness uses two
//! independent mechanisms: the aggregator's *stream-time* eviction
//! (`dead_after_s`) guarantees merge progress past a silent node, and
//! the loop's wall-clock idle timeout bounds how long the whole process
//! waits when every node goes quiet.

use crate::aggregator::Aggregator;
use crate::checkpoint::Checkpointer;
use crate::codec::{decode_exact, encode, Message, WireError, MAX_BODY_LEN};
use crate::node::SnifferNode;
use crate::transport::{NetError, Transport};
use marauder_stream::{ClosedWindow, PollBackoff};
use std::collections::BTreeSet;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// The wait of an end with nothing to do: 1 ms, doubling to 20 ms, so
/// an idle server wakes 50 times a second.
fn idle_backoff() -> PollBackoff {
    PollBackoff::new(Duration::from_millis(1), Duration::from_millis(20))
}

/// A socket failure; a peer that went away is `Disconnected`.
fn socket_error(e: std::io::Error) -> NetError {
    match e.kind() {
        ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted => {
            NetError::Disconnected
        }
        _ => NetError::Io(e.to_string()),
    }
}

/// [`Transport`] over one non-blocking TCP stream, preserving message
/// boundaries by re-framing on the length prefix.
pub struct TcpTransport {
    stream: TcpStream,
    inbuf: Vec<u8>,
}

impl TcpTransport {
    /// Wraps a connected stream and makes it non-blocking.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when socket options cannot be applied.
    pub fn new(stream: TcpStream) -> Result<Self, NetError> {
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_nonblocking(true))
            .map_err(socket_error)?;
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
    fn send(&mut self, mut frame: &[u8]) -> Result<(), NetError> {
        let mut backoff = idle_backoff();
        while !frame.is_empty() {
            match self.stream.write(frame) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => frame = &frame[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(backoff.next_delay(false));
                }
                Err(e) => return Err(socket_error(e)),
            }
        }
        Ok(())
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
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(socket_error(e)),
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
/// duplicates a batch. A link that closes before its `HelloAck` (a
/// refused `Hello`) fails like a refused connect; only an acked link
/// resets the backoff.
///
/// # Errors
///
/// [`NetError::Io`] once `max_retries` consecutive attempts fail, or
/// the first fatal protocol error.
pub fn run_node(addr: &str, node: &mut SnifferNode, retry: &RetryConfig) -> Result<(), NetError> {
    let mut failures = 0u32;
    let mut backoff = retry.initial_backoff;
    while !node.is_done() {
        let failure = match TcpStream::connect(addr) {
            Ok(stream) => match drive_node(node, &mut TcpTransport::new(stream)?) {
                Ok(()) => return Ok(()),
                // Hangup: rejoin and resume.
                Err(NetError::Disconnected) if node.is_streaming() => None,
                Err(NetError::Disconnected) => Some("the link closed before its ack".into()),
                Err(e) => return Err(e),
            },
            Err(e) => Some(e.to_string()),
        };
        node.begin_reconnect();
        if let Some(why) = failure {
            failures += 1;
            if failures > retry.max_retries {
                return Err(NetError::Io(format!(
                    "gave up after {failures} connection attempts: {why}"
                )));
            }
            marauder_obs::global().counter_add("net.tcp_connect_retries", 1);
        } else {
            failures = 0;
            backoff = retry.initial_backoff;
        }
        std::thread::sleep(backoff_with_jitter(backoff, u64::from(node.id()), failures));
        backoff = (backoff * 2).min(retry.max_backoff);
    }
    Ok(())
}

/// Steps a node over one live connection until done or disconnected,
/// sleeping only while a step finds nothing to do (awaiting the ack).
fn drive_node(node: &mut SnifferNode, transport: &mut TcpTransport) -> Result<(), NetError> {
    let mut backoff = idle_backoff();
    while !node.is_done() {
        let progressed = node.step(transport)?;
        std::thread::sleep(backoff.next_delay(progressed));
    }
    Ok(())
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
/// frame, a `Hello` the full fleet refuses) drop that connection — the
/// node may reconnect and resume — and never take the server down.
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

/// One accepted connection.
struct Connection {
    transport: TcpTransport,
    /// The node its `Hello` bound, once one arrived.
    node: Option<u32>,
    /// When it was accepted; its handshake deadline runs from here.
    accepted: Instant,
}

/// [`serve`] with crash durability: closed windows accumulate on top
/// of `initial_closed` (the restored pre-crash list, so a later
/// checkpoint never forgets them), and `checkpointer` — when present —
/// writes periodic fleet checkpoints plus a final one after the run
/// completes. Checkpoint write failures are counted
/// (`fleet.checkpoint_errors`) but never take the server down; the
/// merge keeps running on the last durable state.
///
/// Each pass of the loop accepts what is pending and takes at most one
/// message from each connection. It holds two connections per expected
/// node, so a rejoin can overlap the one its `Hello` then closes, and
/// closes any more at once (`net.tcp_refused`). It closes a connection
/// that sends no `Hello` within `idle_timeout`
/// (`net.tcp_handshake_timeouts`), or a second one, so it writes a
/// connection at most one small reply and a peer that never reads
/// cannot stall it. Only a served message counts as activity, so a
/// peer whose every `Hello` is refused cannot hold the loop open.
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
    listener.set_nonblocking(true).map_err(socket_error)?;
    let bound = 2 * aggregator.expected_nodes();
    let mut connections: Vec<Connection> = Vec::new();
    let mut closed = initial_closed;
    let mut last_activity = Instant::now();
    let mut backoff = idle_backoff();
    let reg = marauder_obs::global();

    let completed = loop {
        let mut busy = false;
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(socket_error(e)),
            };
            if connections.len() >= bound {
                // Dropping the stream closes it.
                reg.counter_add("net.tcp_refused", 1);
            } else if let Ok(transport) = TcpTransport::new(stream) {
                reg.counter_add("net.tcp_accepts", 1);
                connections.push(Connection {
                    transport,
                    node: None,
                    accepted: Instant::now(),
                });
            }
        }
        connections.retain_mut(|conn| {
            if conn.node.is_none() && conn.accepted.elapsed() > idle_timeout {
                reg.counter_add("net.tcp_handshake_timeouts", 1);
                return false;
            }
            let cp = checkpointer.as_deref_mut();
            match serve_next(conn, &mut aggregator, &mut closed, cp) {
                Ok(served) => busy |= served,
                Err(e) => {
                    // Poison one connection, not the fleet.
                    if e != NetError::Disconnected {
                        reg.counter_add("net.tcp_conn_errors", 1);
                    }
                    return false;
                }
            }
            true
        });
        drop_replaced(&mut connections);
        if busy {
            last_activity = Instant::now();
        }
        if aggregator.finished() {
            break true;
        }
        if last_activity.elapsed() > idle_timeout {
            break false;
        }
        std::thread::sleep(backoff.next_delay(busy));
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

/// Closes every connection but the newest bound to each node: a node
/// rejoins only after giving up on its old link.
fn drop_replaced(connections: &mut Vec<Connection>) {
    let mut bound = BTreeSet::new();
    // Accept order: walking back keeps the newest.
    for i in (0..connections.len()).rev() {
        if connections[i].node.is_some_and(|id| !bound.insert(id)) {
            connections.remove(i);
        }
    }
}

/// Serves the next wire frame from `conn`, if one is in: dispatches it,
/// checkpoints when one is due, and writes the replies back. Returns
/// whether there was a frame. A `Hello` binds the connection to its
/// node; a second one is a protocol error.
fn serve_next(
    conn: &mut Connection,
    aggregator: &mut Aggregator,
    closed: &mut Vec<ClosedWindow>,
    checkpointer: Option<&mut Checkpointer>,
) -> Result<bool, NetError> {
    let Some(bytes) = conn.transport.recv()? else {
        return Ok(false);
    };
    let msg = decode_exact(&bytes)?;
    if let (Message::Hello { .. }, Some(_)) = (&msg, conn.node) {
        return Err(NetError::Protocol("a second hello on one connection"));
    }
    let turn = aggregator.on_message(&msg)?;
    if let Message::Hello { node_id, .. } = msg {
        conn.node = Some(node_id);
    }
    closed.extend(turn.closed);
    if let Some(cp) = checkpointer {
        if cp.maybe_checkpoint(aggregator, closed).is_err() {
            marauder_obs::global().counter_add("fleet.checkpoint_errors", 1);
        }
    }
    for reply in &turn.replies {
        conn.transport.send(&encode(reply))?;
    }
    Ok(true)
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
