//! A sniffer node: reads a capture log slice and streams it to the
//! aggregator as sequenced frame batches with watermark heartbeats.

use crate::codec::{Message, PROTOCOL_VERSION};
use crate::time::{StreamTime, Watermark};
use crate::transport::{recv_message, send_message, NetError, Transport};
use marauder_wifi::sniffer::CapturedFrame;

/// Node behaviour knobs.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Frames per [`Message::FrameBatch`].
    pub batch_frames: usize,
    /// Slack subtracted from the max sent timestamp when announcing a
    /// watermark: the node promises no future frame below
    /// `max_sent - reorder_slack_s`. Covers capture-log jitter whose
    /// magnitude the operator knows (e.g. a fault plan's reorder span).
    /// Must be finite.
    pub reorder_slack_s: f64,
    /// This node's clock offset from fleet time, announced in `Hello`
    /// (node-local time = fleet time + offset). Must be finite.
    pub clock_offset_s: f64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            batch_frames: 64,
            reorder_slack_s: 0.0,
            clock_offset_s: 0.0,
        }
    }
}

/// Handshake progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// `Hello` not yet sent.
    Idle,
    /// `Hello` sent, waiting for `HelloAck`.
    AwaitAck,
    /// Streaming batches.
    Streaming,
    /// Final `Drained` heartbeat sent; nothing left to do.
    Done,
}

/// Counters a node accumulates over its lifetime (all reconnects).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Batches put on the wire (including any later re-sends).
    pub batches_sent: u64,
    /// Frames put on the wire.
    pub frames_sent: u64,
    /// Batches skipped on rejoin because the aggregator already had
    /// them (`resume_seq` fast-forward).
    pub batches_skipped: u64,
    /// Completed handshakes beyond the first.
    pub reconnects: u64,
}

/// A sniffer node streaming a pre-loaded capture slice.
///
/// The node is a hand-crankable state machine: [`SnifferNode::step`]
/// makes bounded progress and returns whether anything happened, so
/// the deterministic loopback driver can interleave many nodes on one
/// thread, while the TCP runner just loops `step` + park.
///
/// Frames must be fed in log order; batches are regenerated
/// deterministically from the slice, which is what makes resume after
/// a death trivial: the rejoining node replays its own slice and
/// fast-forwards past `resume_seq`.
pub struct SnifferNode {
    id: u32,
    config: NodeConfig,
    frames: Vec<CapturedFrame>,
    /// Next frame index to batch.
    cursor: usize,
    /// Sequence number of the next batch to produce.
    seq: u64,
    phase: Phase,
    /// The configured reorder slack, checked at each handshake.
    slack: StreamTime,
    /// Highest finite timestamp put on the wire so far.
    max_sent: Option<StreamTime>,
    /// Last watermark announced, to avoid redundant heartbeats.
    last_watermark: Watermark,
    stats: NodeStats,
}

impl SnifferNode {
    /// Creates a node that will stream `frames` (already in log order).
    pub fn new(id: u32, config: NodeConfig, frames: Vec<CapturedFrame>) -> Self {
        SnifferNode {
            id,
            config,
            frames,
            cursor: 0,
            seq: 0,
            phase: Phase::Idle,
            slack: StreamTime::ZERO,
            max_sent: None,
            last_watermark: Watermark::NoData,
            stats: NodeStats::default(),
        }
    }

    /// The node's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Lifetime counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// Whether the final heartbeat has been sent.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Whether the aggregator acked this connection's `Hello`.
    pub fn is_streaming(&self) -> bool {
        self.phase == Phase::Streaming
    }

    /// Resets the connection state for a fresh transport (after a
    /// death or TCP reconnect). Stream progress (`cursor`, `seq`) is
    /// kept — the handshake's `resume_seq` decides what to re-send.
    pub fn begin_reconnect(&mut self) {
        if self.phase != Phase::Idle {
            self.stats.reconnects += 1;
        }
        self.phase = Phase::Idle;
        self.last_watermark = Watermark::NoData;
    }

    /// Makes one unit of progress: sends the `Hello`, consumes the
    /// `HelloAck`, or ships the next batch + heartbeat. Returns `true`
    /// when something was sent or received (the driver uses this to
    /// detect quiescence).
    ///
    /// # Errors
    ///
    /// Transport failures, [`NetError::BadTime`] (before anything is
    /// sent) for a non-finite configured time, [`NetError::Handshake`]
    /// on a version mismatch, and [`NetError::Protocol`] when the
    /// aggregator sends a message the node state machine does not expect.
    pub fn step(&mut self, transport: &mut dyn Transport) -> Result<bool, NetError> {
        match self.phase {
            Phase::Idle => {
                let clock_offset_s = StreamTime::new(self.config.clock_offset_s)
                    .ok_or(NetError::BadTime("clock offset"))?;
                self.slack = StreamTime::new(self.config.reorder_slack_s)
                    .ok_or(NetError::BadTime("reorder slack"))?;
                send_message(
                    transport,
                    &Message::Hello {
                        node_id: self.id,
                        clock_offset_s,
                        version: PROTOCOL_VERSION,
                    },
                )?;
                self.phase = Phase::AwaitAck;
                Ok(true)
            }
            Phase::AwaitAck => match recv_message(transport)? {
                None => Ok(false),
                Some(Message::HelloAck {
                    node_id,
                    version,
                    resume_seq,
                }) => {
                    if node_id != self.id {
                        return Err(NetError::Protocol("hello_ack for a different node"));
                    }
                    if version != PROTOCOL_VERSION {
                        return Err(NetError::Handshake {
                            found: version,
                            supported: PROTOCOL_VERSION,
                        });
                    }
                    self.fast_forward(resume_seq);
                    self.phase = Phase::Streaming;
                    Ok(true)
                }
                Some(_) => Err(NetError::Protocol("unexpected message before hello_ack")),
            },
            Phase::Streaming => {
                // The aggregator sends nothing after the ack.
                if recv_message(transport)?.is_some() {
                    return Err(NetError::Protocol("unexpected message while streaming"));
                }
                if self.cursor >= self.frames.len() {
                    send_message(
                        transport,
                        &Message::Heartbeat {
                            node_id: self.id,
                            watermark_s: Watermark::Drained,
                        },
                    )?;
                    self.phase = Phase::Done;
                    return Ok(true);
                }
                let end = self.batch_end();
                let batch = self.frames[self.cursor..end].to_vec();
                self.stats.batches_sent += 1;
                self.stats.frames_sent += batch.len() as u64;
                send_message(
                    transport,
                    &Message::FrameBatch {
                        node_id: self.id,
                        seq: self.seq,
                        frames: batch,
                    },
                )?;
                self.seq += 1;
                self.cursor = end;
                let sent = self.max_sent.map_or(Watermark::NoData, Watermark::At);
                let watermark = sent.behind(self.slack);
                if watermark > self.last_watermark {
                    send_message(
                        transport,
                        &Message::Heartbeat {
                            node_id: self.id,
                            watermark_s: watermark,
                        },
                    )?;
                    self.last_watermark = watermark;
                }
                Ok(true)
            }
            Phase::Done => Ok(false),
        }
    }

    /// Skips batches the aggregator already holds. Batch boundaries
    /// are a pure function of (`frames`, `batch_frames`), so replaying
    /// the slice and discarding is exact.
    fn fast_forward(&mut self, resume_seq: u64) {
        while self.seq < resume_seq && self.cursor < self.frames.len() {
            self.cursor = self.batch_end();
            self.seq += 1;
            self.stats.batches_skipped += 1;
        }
    }

    /// The end of the batch at the cursor, raising `max_sent` over its
    /// finite stamps (the engine counts any other frame as malformed).
    fn batch_end(&mut self) -> usize {
        let end = (self.cursor + self.config.batch_frames).min(self.frames.len());
        for f in &self.frames[self.cursor..end] {
            let t = StreamTime::new(f.time_s);
            if t > self.max_sent {
                self.max_sent = t;
            }
        }
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackTransport;
    use marauder_wifi::channel::Channel;
    use marauder_wifi::frame::Frame;
    use marauder_wifi::mac::MacAddr;
    use marauder_wifi::sniffer::CapturedFrame;
    use marauder_wifi::ssid::Ssid;

    fn frames(n: usize) -> Vec<CapturedFrame> {
        (0..n)
            .map(|i| CapturedFrame {
                time_s: i as f64 * 0.5,
                card: 0,
                frame: Frame::probe_response(
                    MacAddr::from_index(10 + i as u64),
                    MacAddr::from_index(1),
                    Ssid::new("n").unwrap(),
                    Channel::bg(1).unwrap(),
                ),
            })
            .collect()
    }

    fn ack(agg_t: &mut LoopbackTransport, resume_seq: u64) {
        let hello = recv_message(agg_t).unwrap().unwrap();
        let Message::Hello { node_id, .. } = hello else {
            panic!("expected hello, got {hello:?}");
        };
        send_message(
            agg_t,
            &Message::HelloAck {
                node_id,
                version: PROTOCOL_VERSION,
                resume_seq,
            },
        )
        .unwrap();
    }

    #[test]
    fn streams_all_frames_in_sequenced_batches() {
        let mut node = SnifferNode::new(
            3,
            NodeConfig {
                batch_frames: 4,
                ..NodeConfig::default()
            },
            frames(10),
        );
        let (mut node_t, mut agg_t) = LoopbackTransport::pair();
        node.step(&mut node_t).unwrap(); // hello
        ack(&mut agg_t, 0);
        while !node.is_done() {
            node.step(&mut node_t).unwrap();
        }
        let mut seqs = Vec::new();
        let mut total = 0;
        let mut final_wm = Watermark::NoData;
        while let Ok(Some(msg)) = recv_message(&mut agg_t) {
            match msg {
                Message::FrameBatch { seq, frames, .. } => {
                    seqs.push(seq);
                    total += frames.len();
                }
                Message::Heartbeat { watermark_s, .. } => final_wm = watermark_s,
                _ => {}
            }
        }
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(total, 10);
        assert_eq!(final_wm, Watermark::Drained);
        assert_eq!(node.stats().batches_sent, 3);
        assert_eq!(node.stats().frames_sent, 10);
    }

    #[test]
    fn resume_seq_skips_delivered_batches() {
        let mut node = SnifferNode::new(
            1,
            NodeConfig {
                batch_frames: 3,
                ..NodeConfig::default()
            },
            frames(9),
        );
        let (mut node_t, mut agg_t) = LoopbackTransport::pair();
        node.step(&mut node_t).unwrap();
        ack(&mut agg_t, 2);
        node.step(&mut node_t).unwrap(); // consume ack, fast-forward
        while !node.is_done() {
            node.step(&mut node_t).unwrap();
        }
        let mut seqs = Vec::new();
        while let Ok(Some(msg)) = recv_message(&mut agg_t) {
            if let Message::FrameBatch { seq, .. } = msg {
                seqs.push(seq);
            }
        }
        assert_eq!(seqs, vec![2]);
        assert_eq!(node.stats().batches_skipped, 2);
    }

    #[test]
    fn version_mismatch_is_a_typed_handshake_error() {
        let mut node = SnifferNode::new(5, NodeConfig::default(), frames(1));
        let (mut node_t, mut agg_t) = LoopbackTransport::pair();
        node.step(&mut node_t).unwrap();
        let _hello = recv_message(&mut agg_t).unwrap();
        send_message(
            &mut agg_t,
            &Message::HelloAck {
                node_id: 5,
                version: PROTOCOL_VERSION + 7,
                resume_seq: 0,
            },
        )
        .unwrap();
        assert_eq!(
            node.step(&mut node_t),
            Err(NetError::Handshake {
                found: PROTOCOL_VERSION + 7,
                supported: PROTOCOL_VERSION,
            })
        );
    }

    #[test]
    fn a_message_before_the_ack_is_a_protocol_error() {
        let mut node = SnifferNode::new(4, NodeConfig::default(), frames(2));
        let (mut node_t, mut agg_t) = LoopbackTransport::pair();
        node.step(&mut node_t).unwrap(); // hello
        let heartbeat = Message::Heartbeat {
            node_id: 4,
            watermark_s: Watermark::from_secs(1.0).unwrap(),
        };
        send_message(&mut agg_t, &heartbeat).unwrap();
        assert_eq!(
            node.step(&mut node_t),
            Err(NetError::Protocol("unexpected message before hello_ack"))
        );
    }

    #[test]
    fn any_message_while_streaming_is_a_protocol_error() {
        let replies = [
            Message::Hello {
                node_id: 6,
                clock_offset_s: StreamTime::ZERO,
                version: PROTOCOL_VERSION,
            },
            Message::HelloAck {
                node_id: 6,
                version: PROTOCOL_VERSION,
                resume_seq: 0,
            },
            Message::FrameBatch {
                node_id: 6,
                seq: 0,
                frames: Vec::new(),
            },
            Message::Heartbeat {
                node_id: 6,
                watermark_s: Watermark::from_secs(1.0).unwrap(),
            },
        ];
        for reply in replies {
            let mut node = SnifferNode::new(6, NodeConfig::default(), frames(2));
            let (mut node_t, mut agg_t) = LoopbackTransport::pair();
            node.step(&mut node_t).unwrap(); // hello
            ack(&mut agg_t, 0);
            node.step(&mut node_t).unwrap(); // ack
            send_message(&mut agg_t, &reply).unwrap();
            assert_eq!(
                node.step(&mut node_t),
                Err(NetError::Protocol("unexpected message while streaming")),
                "{}",
                reply.kind()
            );
        }
    }

    #[test]
    fn watermark_respects_reorder_slack() {
        let mut node = SnifferNode::new(
            2,
            NodeConfig {
                batch_frames: 100,
                reorder_slack_s: 1.5,
                ..NodeConfig::default()
            },
            frames(10), // times 0.0 .. 4.5
        );
        let (mut node_t, mut agg_t) = LoopbackTransport::pair();
        node.step(&mut node_t).unwrap();
        ack(&mut agg_t, 0);
        node.step(&mut node_t).unwrap(); // ack
        node.step(&mut node_t).unwrap(); // batch + heartbeat
        let mut wm = None;
        while let Ok(Some(msg)) = recv_message(&mut agg_t) {
            if let Message::Heartbeat { watermark_s, .. } = msg {
                wm = Some(watermark_s);
            }
        }
        assert_eq!(wm, Watermark::from_secs(4.5 - 1.5));
    }

    #[test]
    fn a_non_finite_config_time_is_a_typed_error_before_anything_is_sent() {
        for (clock_offset_s, reorder_slack_s, what) in [
            (f64::NAN, 0.0, "clock offset"),
            (f64::NEG_INFINITY, 0.0, "clock offset"),
            (0.0, f64::INFINITY, "reorder slack"),
        ] {
            let config = NodeConfig {
                clock_offset_s,
                reorder_slack_s,
                ..NodeConfig::default()
            };
            let mut node = SnifferNode::new(1, config, frames(2));
            let (mut node_t, mut agg_t) = LoopbackTransport::pair();
            assert_eq!(node.step(&mut node_t), Err(NetError::BadTime(what)));
            assert_eq!(recv_message(&mut agg_t), Ok(None), "{what}: nothing sent");
        }
    }

    #[test]
    fn a_non_finite_stamp_promises_nothing() {
        let mut slice = frames(6); // times 0.0 .. 2.5
        slice[1].time_s = f64::INFINITY;
        slice[3].time_s = f64::NAN;
        let mut node = SnifferNode::new(
            2,
            NodeConfig {
                batch_frames: 2,
                ..NodeConfig::default()
            },
            slice,
        );
        let (mut node_t, mut agg_t) = LoopbackTransport::pair();
        node.step(&mut node_t).unwrap();
        ack(&mut agg_t, 0);
        while !node.is_done() {
            node.step(&mut node_t).unwrap();
        }
        let mut marks = Vec::new();
        while let Ok(Some(msg)) = recv_message(&mut agg_t) {
            if let Message::Heartbeat { watermark_s, .. } = msg {
                marks.push(watermark_s.secs());
            }
        }
        assert_eq!(marks, vec![0.0, 1.0, 2.5, f64::INFINITY]);
    }
}
