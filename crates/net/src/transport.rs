//! Byte transport abstraction between a sniffer node and the
//! aggregator, plus the in-process deterministic loopback pair.

use crate::codec::{decode_exact, WireError};
use std::fmt;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};

/// Errors surfaced by transports and the protocol layers above them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A codec failure while framing or parsing wire bytes.
    Wire(WireError),
    /// The peer is gone; reconnecting may help.
    Disconnected,
    /// An OS-level socket failure, stringified (`io::Error` is neither
    /// `Clone` nor `PartialEq`, and callers only branch on the kind).
    Io(String),
    /// Handshake version mismatch.
    Handshake {
        /// Version the peer announced.
        found: u16,
        /// Version this build speaks.
        supported: u16,
    },
    /// A batch arrived from the future: the node skipped sequence
    /// numbers the aggregator never saw.
    SequenceGap {
        /// Offending node.
        node: u32,
        /// Sequence the aggregator expected next.
        expected: u64,
        /// Sequence that actually arrived.
        got: u64,
    },
    /// A message referenced a node id with no completed handshake.
    UnknownNode(u32),
    /// A `Hello` from a new node id after every expected node joined.
    FleetFull {
        /// The refused node id.
        node: u32,
        /// Nodes the fleet expects, all of them joined.
        expected: usize,
    },
    /// The peer sent a message the protocol state machine does not
    /// allow here (e.g. a node sending `HelloAck`).
    Protocol(&'static str),
    /// A node's configured clock offset or reorder slack is not finite.
    BadTime(&'static str),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Handshake { found, supported } => {
                write!(
                    f,
                    "protocol version mismatch: peer speaks v{found}, this build v{supported}"
                )
            }
            NetError::SequenceGap {
                node,
                expected,
                got,
            } => {
                write!(
                    f,
                    "node {node} batch sequence gap: expected {expected}, got {got}"
                )
            }
            NetError::UnknownNode(id) => write!(f, "message from unknown node {id}"),
            NetError::FleetFull { node, expected } => write!(
                f,
                "node {node} cannot join: all {expected} expected node(s) already joined"
            ),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NetError::BadTime(what) => write!(f, "{what} is not a finite number of seconds"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// A bidirectional, message-boundary-preserving byte channel.
///
/// `send` delivers one encoded wire frame; `recv` yields the next
/// frame's bytes if one is ready, `None` otherwise. Implementations
/// must preserve ordering per direction and must never deliver a
/// partial frame.
pub trait Transport {
    /// Queues one wire frame for the peer.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when the peer is gone;
    /// [`NetError::Io`] for socket-level failures.
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError>;

    /// Takes the next wire frame from the peer, without blocking.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] once the peer is gone *and* every
    /// already-delivered frame has been drained.
    fn recv(&mut self) -> Result<Option<Vec<u8>>, NetError>;
}

/// In-process transport endpoint: an mpsc pair with hangup detection.
///
/// Deterministic by construction — frames arrive in send order, and
/// the single-threaded loopback fleet driver steps endpoints in a
/// fixed round-robin, so a run is a pure function of its inputs.
pub struct LoopbackTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    /// Set when either side is explicitly severed (simulated node
    /// death); hangup also surfaces naturally when a peer is dropped.
    severed: Arc<Mutex<bool>>,
}

impl LoopbackTransport {
    /// Creates a connected endpoint pair: (node side, aggregator side).
    pub fn pair() -> (LoopbackTransport, LoopbackTransport) {
        let (a_tx, b_rx) = std::sync::mpsc::channel();
        let (b_tx, a_rx) = std::sync::mpsc::channel();
        let severed = Arc::new(Mutex::new(false));
        (
            LoopbackTransport {
                tx: a_tx,
                rx: a_rx,
                severed: Arc::clone(&severed),
            },
            LoopbackTransport {
                tx: b_tx,
                rx: b_rx,
                severed,
            },
        )
    }

    /// Severs both directions, simulating an abrupt node death. Frames
    /// already in flight remain readable; new sends fail.
    pub fn sever(&mut self) {
        if let Ok(mut s) = self.severed.lock() {
            *s = true;
        }
    }

    /// Whether the link has been severed.
    pub fn is_severed(&self) -> bool {
        self.severed.lock().map(|s| *s).unwrap_or(true)
    }
}

impl Transport for LoopbackTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if self.is_severed() {
            return Err(NetError::Disconnected);
        }
        self.tx
            .send(frame.to_vec())
            .map_err(|_| NetError::Disconnected)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty) => {
                if self.is_severed() {
                    Err(NetError::Disconnected)
                } else {
                    Ok(None)
                }
            }
            Err(TryRecvError::Disconnected) => Err(NetError::Disconnected),
        }
    }
}

/// Sends one [`crate::codec::Message`] over a transport.
///
/// # Errors
///
/// Propagates the transport's send failure.
pub fn send_message(t: &mut dyn Transport, msg: &crate::codec::Message) -> Result<(), NetError> {
    t.send(&crate::codec::encode(msg))
}

/// Receives and decodes the next message, if one is ready.
///
/// # Errors
///
/// Transport failures, or [`NetError::Wire`] when the peer delivered
/// an undecodable frame.
pub fn recv_message(t: &mut dyn Transport) -> Result<Option<crate::codec::Message>, NetError> {
    match t.recv()? {
        None => Ok(None),
        Some(bytes) => Ok(Some(decode_exact(&bytes)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Message;
    use crate::time::Watermark;

    #[test]
    fn loopback_preserves_order_and_boundaries() {
        let (mut node, mut agg) = LoopbackTransport::pair();
        for i in 0..5u32 {
            send_message(
                &mut node,
                &Message::Heartbeat {
                    node_id: i,
                    watermark_s: Watermark::from_secs(f64::from(i)).unwrap(),
                },
            )
            .unwrap();
        }
        for i in 0..5u32 {
            let msg = recv_message(&mut agg).unwrap().unwrap();
            assert_eq!(
                msg,
                Message::Heartbeat {
                    node_id: i,
                    watermark_s: Watermark::from_secs(f64::from(i)).unwrap(),
                }
            );
        }
        assert!(recv_message(&mut agg).unwrap().is_none());
    }

    #[test]
    fn sever_fails_sends_but_drains_in_flight() {
        let (mut node, mut agg) = LoopbackTransport::pair();
        send_message(
            &mut node,
            &Message::Heartbeat {
                node_id: 0,
                watermark_s: Watermark::NoData,
            },
        )
        .unwrap();
        node.sever();
        assert_eq!(
            send_message(
                &mut node,
                &Message::Heartbeat {
                    node_id: 0,
                    watermark_s: Watermark::Drained
                }
            ),
            Err(NetError::Disconnected)
        );
        // The in-flight frame is still readable...
        assert!(recv_message(&mut agg).unwrap().is_some());
        // ...then the hangup surfaces.
        assert_eq!(recv_message(&mut agg), Err(NetError::Disconnected));
    }

    #[test]
    fn drop_of_peer_surfaces_disconnect() {
        let (node, mut agg) = LoopbackTransport::pair();
        drop(node);
        assert_eq!(agg.recv(), Err(NetError::Disconnected));
    }
}
