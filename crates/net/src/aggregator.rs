//! The fleet aggregator: merges N sniffer-node streams into one
//! time-ordered frame sequence feeding a [`StreamEngine`].
//!
//! # Watermark merge
//!
//! Each node periodically promises, via [`Message::Heartbeat`], that no
//! future frame of its own will carry a timestamp below the announced
//! watermark (`+∞` = stream complete). The aggregator corrects each
//! announcement by the node's handshake clock offset and computes the
//! *fleet watermark*: the minimum over all expected, non-evicted
//! nodes' corrected watermarks. Buffered frames at or below the fleet
//! watermark can never be preceded by anything still in flight, so
//! they are released to the engine sorted by `(timestamp, node id,
//! arrival order)` — a total, deterministic order. Releases are
//! monotone (`released_up_to` never regresses), so the engine sees a
//! globally nondecreasing stream and counts zero late frames whenever
//! every node keeps its promise.
//!
//! # Failure semantics
//!
//! A node that stops heartbeating stalls the fleet watermark. Progress
//! is restored two ways: the node rejoins (a fresh `Hello` with its
//! old id resumes from `resume_seq`, losing nothing), or — after its
//! corrected watermark falls more than [`FleetConfig::dead_after_s`]
//! of *stream time* behind the fleet's front — it is evicted and the
//! merge continues without it. Eviction is measured against stream
//! progress, never the wall clock, so every merge decision is a pure
//! function of the message sequence.

use crate::codec::{Message, PROTOCOL_VERSION};
use crate::transport::NetError;
use marauder_core::pipeline::{MaraudersMap, TrackFix};
use marauder_stream::persist::{self, DocKind, Field, PersistError, Reader};
use marauder_stream::{ClosedWindow, StreamEngine};
use marauder_wifi::frame::Frame;
use marauder_wifi::sniffer::CapturedFrame;
use std::collections::BTreeMap;

pub use marauder_stream::StreamConfig;

/// Bucket bounds (inclusive upper edges, seconds of stream time) for
/// the per-node watermark-lag histogram `net.node_lag_s`: how far each
/// node trails the fleet's front when it heartbeats. Buckets above a
/// deployment's `dead_after_s` show nodes at risk of eviction.
pub const NODE_LAG_BOUNDS_S: [f64; 6] = [0.1, 0.5, 1.0, 5.0, 15.0, 60.0];

/// Aggregator behaviour knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Engine configuration for the merged stream.
    pub stream: StreamConfig,
    /// Nodes that must complete a handshake before any frame is
    /// released — prevents an early-starting node from racing the
    /// merge gate while a sibling with older frames is still joining.
    pub expected_nodes: usize,
    /// Evict a node once its corrected watermark falls this many
    /// seconds of stream time behind the most advanced node. `0`
    /// disables eviction (a silent node stalls the fleet forever).
    pub dead_after_s: f64,
    /// Bounded-memory guarantee: when more than this many frames are
    /// buffered, the oldest overflow is force-released (the engine's
    /// own lateness accounting then judges any consequences). `0`
    /// disables the bound.
    pub max_buffered_frames: usize,
    /// Also subtract each node's clock offset from its *frame
    /// timestamps*, for fleets whose capture logs are stamped by the
    /// skewed node clocks themselves. Off by default: the correction
    /// is one f64 subtraction per frame and is bit-exact only when
    /// offset and timestamp are exactly representable together (e.g.
    /// dyadic values) — watermark correction alone never perturbs
    /// frame data.
    pub correct_frame_times: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            stream: StreamConfig::default(),
            expected_nodes: 1,
            dead_after_s: 0.0,
            max_buffered_frames: 0,
            correct_frame_times: false,
        }
    }
}

/// Merge-layer counters — the aggregator's observability surface.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Frame batches accepted.
    pub batches: u64,
    /// Frames pushed into the engine.
    pub frames_relayed: u64,
    /// Heartbeats processed.
    pub heartbeats: u64,
    /// Batches ignored because their sequence number had already been
    /// accepted (re-sends after a rejoin).
    pub duplicate_batches: u64,
    /// Handshakes from an already-known node id.
    pub reconnects: u64,
    /// Nodes evicted for falling `dead_after_s` behind.
    pub nodes_evicted: u64,
    /// Frames released by the `max_buffered_frames` bound rather than
    /// the watermark.
    pub frames_forced: u64,
    /// High-water mark of simultaneously buffered frames.
    pub buffered_peak: usize,
}

/// What one incoming message produced: protocol replies to send back
/// to the originating node, and any windows the merge released.
#[derive(Debug, Default)]
pub struct Turn {
    /// Replies for the node the message came from.
    pub replies: Vec<Message>,
    /// Windows closed by frames this message allowed to release.
    pub closed: Vec<ClosedWindow>,
}

/// Per-node merge state.
#[derive(Debug, Clone)]
struct NodeState {
    /// Clock offset announced in the handshake.
    clock_offset_s: f64,
    /// Next batch sequence number expected.
    next_seq: u64,
    /// Corrected watermark (fleet time); `-∞` before the first
    /// heartbeat, `+∞` once the node's stream completed.
    watermark_s: f64,
    /// Dropped from the merge gate for falling too far behind.
    evicted: bool,
    /// Transport currently attached (TCP bookkeeping only — the merge
    /// gate cares about watermarks, not sockets).
    connected: bool,
}

/// A frame parked until the fleet watermark passes it.
#[derive(Debug, Clone)]
struct Buffered {
    /// Merge timestamp (corrected when `correct_frame_times`).
    time_s: f64,
    node_id: u32,
    /// Global arrival index — the deterministic tiebreaker that keeps
    /// equal-timestamp frames in a stable, reproducible order.
    arrival: u64,
    frame: CapturedFrame,
}

/// A node's merge state; the transport flag restores as disconnected.
impl Field for NodeState {
    fn put(&self, out: &mut Vec<u8>) {
        self.clock_offset_s.put(out);
        self.next_seq.put(out);
        self.watermark_s.put(out);
        self.evicted.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(NodeState {
            clock_offset_s: r.get()?,
            next_seq: r.get()?,
            watermark_s: r.get()?,
            evicted: r.get()?,
            connected: false,
        })
    }
}

/// A parked frame; its wire encoding must decode and re-encode to the
/// same bytes.
impl Field for Buffered {
    fn put(&self, out: &mut Vec<u8>) {
        self.node_id.put(out);
        self.arrival.put(out);
        self.time_s.put(out);
        self.frame.card.put(out);
        self.frame.frame.encode().put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let (node_id, arrival, time_s, card) = (r.get()?, r.get()?, r.get()?, r.get()?);
        let bytes: Vec<u8> = r.get()?;
        let frame = Frame::decode(&bytes)
            .ok()
            .filter(|frame| frame.encode() == bytes)
            .ok_or_else(|| r.malformed("buffered frame does not decode to the same bytes"))?;
        Ok(Buffered {
            time_s,
            node_id,
            arrival,
            frame: CapturedFrame {
                time_s,
                card,
                frame,
            },
        })
    }
}

/// The multi-node merge layer in front of a [`StreamEngine`].
pub struct Aggregator {
    engine: StreamEngine,
    config: FleetConfig,
    nodes: BTreeMap<u32, NodeState>,
    buffer: Vec<Buffered>,
    /// Timestamps at or below this have been released; the gate never
    /// regresses.
    released_up_to: f64,
    /// Next arrival index.
    arrival: u64,
    stats: FleetStats,
    /// Local lag buckets ([`NODE_LAG_BOUNDS_S`] + overflow), merged
    /// into the global registry once in [`finish`](Self::finish).
    lag_counts: [u64; NODE_LAG_BOUNDS_S.len() + 1],
    metrics_flushed: bool,
}

impl Aggregator {
    /// Wraps AP knowledge and a fleet configuration into an empty
    /// merge layer.
    pub fn new(map: MaraudersMap, config: FleetConfig) -> Self {
        let engine = StreamEngine::new(map, config.stream.clone());
        Aggregator {
            engine,
            config,
            nodes: BTreeMap::new(),
            buffer: Vec::new(),
            released_up_to: f64::NEG_INFINITY,
            arrival: 0,
            stats: FleetStats::default(),
            lag_counts: [0; NODE_LAG_BOUNDS_S.len() + 1],
            metrics_flushed: false,
        }
    }

    /// Merge counters so far.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// The wrapped engine (counters, watermark, map access).
    pub fn engine(&self) -> &StreamEngine {
        &self.engine
    }

    /// The current fleet watermark: `-∞` until every expected node has
    /// joined and heartbeat, `+∞` once every non-evicted node's stream
    /// completed.
    pub fn fleet_watermark(&self) -> f64 {
        if self.nodes.len() < self.config.expected_nodes {
            return f64::NEG_INFINITY;
        }
        let mut wm = f64::INFINITY;
        let mut any = false;
        for st in self.nodes.values() {
            if st.evicted {
                continue;
            }
            any = true;
            if st.watermark_s < wm {
                wm = st.watermark_s;
            }
        }
        if any {
            wm
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Whether every expected node joined, every non-evicted node
    /// completed its stream, and nothing remains buffered.
    pub fn finished(&self) -> bool {
        self.nodes.len() >= self.config.expected_nodes
            && self.buffer.is_empty()
            && self
                .nodes
                .values()
                .all(|st| st.evicted || (st.watermark_s.is_infinite() && st.watermark_s > 0.0))
    }

    /// Processes one message from a node, returning protocol replies
    /// and any windows the merge released.
    ///
    /// # Errors
    ///
    /// [`NetError::Handshake`] on a version mismatch,
    /// [`NetError::UnknownNode`] for traffic before a handshake,
    /// [`NetError::SequenceGap`] when a node skipped batches, and
    /// [`NetError::Protocol`] for messages only an aggregator sends.
    pub fn on_message(&mut self, msg: &Message) -> Result<Turn, NetError> {
        match msg {
            Message::Hello {
                node_id,
                clock_offset_s,
                version,
            } => {
                if *version != PROTOCOL_VERSION {
                    return Err(NetError::Handshake {
                        found: *version,
                        supported: PROTOCOL_VERSION,
                    });
                }
                let resume_seq = match self.nodes.get_mut(node_id) {
                    Some(st) => {
                        // Rejoin: same identity, resumed stream. An
                        // evicted node re-enters the merge gate.
                        st.connected = true;
                        st.evicted = false;
                        st.clock_offset_s = *clock_offset_s;
                        self.stats.reconnects += 1;
                        st.next_seq
                    }
                    None => {
                        self.nodes.insert(
                            *node_id,
                            NodeState {
                                clock_offset_s: *clock_offset_s,
                                next_seq: 0,
                                watermark_s: f64::NEG_INFINITY,
                                evicted: false,
                                connected: true,
                            },
                        );
                        0
                    }
                };
                Ok(Turn {
                    replies: vec![Message::HelloAck {
                        node_id: *node_id,
                        version: PROTOCOL_VERSION,
                        resume_seq,
                    }],
                    closed: Vec::new(),
                })
            }
            Message::FrameBatch {
                node_id,
                seq,
                frames,
            } => {
                let st = self
                    .nodes
                    .get(node_id)
                    .ok_or(NetError::UnknownNode(*node_id))?;
                if *seq < st.next_seq {
                    self.stats.duplicate_batches += 1;
                    return Ok(Turn::default());
                }
                if *seq > st.next_seq {
                    return Err(NetError::SequenceGap {
                        node: *node_id,
                        expected: st.next_seq,
                        got: *seq,
                    });
                }
                let offset = st.clock_offset_s;
                if let Some(st) = self.nodes.get_mut(node_id) {
                    st.next_seq += 1;
                }
                self.stats.batches += 1;
                for frame in frames {
                    let time_s = if self.config.correct_frame_times {
                        frame.time_s - offset
                    } else {
                        frame.time_s
                    };
                    self.buffer.push(Buffered {
                        time_s,
                        node_id: *node_id,
                        arrival: self.arrival,
                        frame: CapturedFrame {
                            time_s,
                            card: frame.card,
                            frame: frame.frame.clone(),
                        },
                    });
                    self.arrival += 1;
                }
                if self.buffer.len() > self.stats.buffered_peak {
                    self.stats.buffered_peak = self.buffer.len();
                }
                let mut closed = self.enforce_buffer_bound();
                closed.extend(self.release());
                Ok(Turn {
                    replies: Vec::new(),
                    closed,
                })
            }
            Message::Heartbeat {
                node_id,
                watermark_s,
            } => {
                let st = self
                    .nodes
                    .get_mut(node_id)
                    .ok_or(NetError::UnknownNode(*node_id))?;
                self.stats.heartbeats += 1;
                // A done marker passes through uncorrected; finite
                // announcements are node-clock readings.
                let corrected = if watermark_s.is_infinite() {
                    *watermark_s
                } else {
                    *watermark_s - st.clock_offset_s
                };
                if corrected > st.watermark_s {
                    st.watermark_s = corrected;
                }
                self.observe_lags();
                self.evict_stalled();
                Ok(Turn {
                    replies: Vec::new(),
                    closed: self.release(),
                })
            }
            Message::HelloAck { .. } => {
                Err(NetError::Protocol("aggregator-only message from a node"))
            }
        }
    }

    /// Marks a node's transport as gone (TCP reader hangup). The merge
    /// gate is unaffected — the node either rejoins and resumes, or
    /// stalls until stream-time eviction removes it.
    pub fn node_disconnected(&mut self, node_id: u32) {
        if let Some(st) = self.nodes.get_mut(&node_id) {
            st.connected = false;
        }
    }

    /// Drains every buffered frame in merge order, closes every open
    /// window, and flushes metrics. Call once, after the last message.
    pub fn finish(&mut self) -> Vec<ClosedWindow> {
        let mut due = std::mem::take(&mut self.buffer);
        Self::sort_due(&mut due);
        let mut closed = Vec::new();
        for b in &due {
            closed.extend(self.engine.push(&b.frame));
        }
        self.stats.frames_relayed += due.len() as u64;
        closed.extend(self.engine.finish());
        self.flush_metrics();
        closed
    }

    /// Batch-equivalent localization of closed windows — delegates to
    /// [`StreamEngine::batch_fixes`].
    pub fn batch_fixes(&mut self, closed: Vec<ClosedWindow>) -> Vec<TrackFix> {
        self.engine.batch_fixes(closed)
    }

    /// Releases every buffered frame at or below the fleet watermark,
    /// in merge order, and feeds it to the engine.
    fn release(&mut self) -> Vec<ClosedWindow> {
        let wm = self.fleet_watermark();
        let gate = if wm > self.released_up_to {
            wm
        } else {
            self.released_up_to
        };
        if gate.is_infinite() && gate < 0.0 {
            return Vec::new();
        }
        let mut due = Vec::new();
        let mut kept = Vec::with_capacity(self.buffer.len());
        for b in self.buffer.drain(..) {
            if b.time_s <= gate {
                due.push(b);
            } else {
                kept.push(b);
            }
        }
        self.buffer = kept;
        self.released_up_to = gate;
        if due.is_empty() {
            return Vec::new();
        }
        Self::sort_due(&mut due);
        let mut closed = Vec::new();
        for b in &due {
            closed.extend(self.engine.push(&b.frame));
        }
        self.stats.frames_relayed += due.len() as u64;
        closed
    }

    /// Force-releases the oldest overflow when the buffer bound is
    /// exceeded. Advances the gate to the last forced timestamp so
    /// later releases stay nondecreasing.
    fn enforce_buffer_bound(&mut self) -> Vec<ClosedWindow> {
        let max = self.config.max_buffered_frames;
        if max == 0 || self.buffer.len() <= max {
            return Vec::new();
        }
        let overflow = self.buffer.len() - max;
        Self::sort_due(&mut self.buffer);
        let mut closed = Vec::new();
        for b in self.buffer.drain(..overflow).collect::<Vec<_>>() {
            if b.time_s > self.released_up_to {
                self.released_up_to = b.time_s;
            }
            closed.extend(self.engine.push(&b.frame));
            self.stats.frames_relayed += 1;
            self.stats.frames_forced += 1;
        }
        closed
    }

    /// The deterministic merge order: timestamp, then node id, then
    /// global arrival index.
    fn sort_due(due: &mut [Buffered]) {
        due.sort_by(|a, b| {
            a.time_s
                .total_cmp(&b.time_s)
                .then(a.node_id.cmp(&b.node_id))
                .then(a.arrival.cmp(&b.arrival))
        });
    }

    /// Buckets each live node's lag behind the fleet front.
    fn observe_lags(&mut self) {
        let mut front = f64::NEG_INFINITY;
        for st in self.nodes.values() {
            if !st.evicted && st.watermark_s.is_finite() && st.watermark_s > front {
                front = st.watermark_s;
            }
        }
        if !front.is_finite() {
            return;
        }
        let mut observed = Vec::new();
        for st in self.nodes.values() {
            if st.evicted || !st.watermark_s.is_finite() {
                continue;
            }
            let lag = front - st.watermark_s;
            observed.push(if lag > 0.0 { lag } else { 0.0 });
        }
        for lag in observed {
            let mut slot = NODE_LAG_BOUNDS_S.len();
            for (i, b) in NODE_LAG_BOUNDS_S.iter().enumerate() {
                if lag <= *b {
                    slot = i;
                    break;
                }
            }
            self.lag_counts[slot] += 1;
        }
    }

    /// Evicts nodes whose corrected watermark trails the fleet front
    /// by more than `dead_after_s` of stream time.
    fn evict_stalled(&mut self) {
        if self.config.dead_after_s <= 0.0 {
            return;
        }
        let mut front = f64::NEG_INFINITY;
        for st in self.nodes.values() {
            if !st.evicted && st.watermark_s.is_finite() && st.watermark_s > front {
                front = st.watermark_s;
            }
        }
        if !front.is_finite() {
            return;
        }
        let dead_after = self.config.dead_after_s;
        let mut evicted = 0u64;
        for st in self.nodes.values_mut() {
            // A node that has not reported yet (-∞) or has finished
            // (+∞) is not stalled; only a finite, lagging watermark is.
            if st.evicted || !st.watermark_s.is_finite() {
                continue;
            }
            if front - st.watermark_s > dead_after {
                st.evicted = true;
                evicted += 1;
            }
        }
        self.stats.nodes_evicted += evicted;
    }

    /// One-shot merge of local counters into the global registry.
    fn flush_metrics(&mut self) {
        if self.metrics_flushed {
            return;
        }
        self.metrics_flushed = true;
        let reg = marauder_obs::global();
        reg.counter_add("net.batches", self.stats.batches);
        reg.counter_add("net.frames_relayed", self.stats.frames_relayed);
        reg.counter_add("net.heartbeats", self.stats.heartbeats);
        reg.counter_add("net.duplicate_batches", self.stats.duplicate_batches);
        reg.counter_add("net.reconnects", self.stats.reconnects);
        reg.counter_add("net.nodes_evicted", self.stats.nodes_evicted);
        reg.counter_add("net.frames_forced", self.stats.frames_forced);
        reg.gauge_max("net.buffered_peak", self.stats.buffered_peak as i64);
        reg.histogram_merge("net.node_lag_s", &NODE_LAG_BOUNDS_S, &self.lag_counts);
    }

    /// Serializes the full merge state — node table, parked frames,
    /// counters, and the engine state — as a sealed document.
    /// Restoring and resuming the message stream yields output
    /// byte-identical to an uninterrupted run.
    pub fn snapshot(&self) -> Vec<u8> {
        persist::seal(DocKind::FleetSnapshot, |out| self.encode_state(out))
    }

    /// Rebuilds an aggregator from the same AP knowledge and a
    /// document produced by [`snapshot`](Self::snapshot).
    ///
    /// The engine's live/warm mode flags are process configuration and
    /// not serialized (see [`StreamEngine::restore`]); pass the
    /// desired [`StreamConfig`] via `config.stream` — its
    /// `live_localization`/`warm_start` are applied, while the
    /// windowing knobs come from the document itself.
    ///
    /// # Errors
    ///
    /// [`PersistError`] on a damaged or foreign document, or when the
    /// engine state does not fit `map`.
    pub fn restore(
        map: MaraudersMap,
        config: FleetConfig,
        doc: &[u8],
    ) -> Result<Aggregator, PersistError> {
        persist::open(doc, DocKind::FleetSnapshot, |r| {
            Aggregator::decode_state(map, config, r)
        })
    }

    /// Writes the merge state into a document body — inline, as the
    /// fleet checkpoint embeds it.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        self.config.expected_nodes.put(out);
        self.config.dead_after_s.put(out);
        self.config.max_buffered_frames.put(out);
        self.config.correct_frame_times.put(out);
        self.released_up_to.put(out);
        self.arrival.put(out);
        let s = &self.stats;
        for n in [
            s.batches,
            s.frames_relayed,
            s.heartbeats,
            s.duplicate_batches,
            s.reconnects,
            s.nodes_evicted,
            s.frames_forced,
        ] {
            n.put(out);
        }
        s.buffered_peak.put(out);
        self.nodes.put(out);
        self.buffer.put(out);
        self.engine.encode_state(out);
    }

    /// Reads what [`encode_state`](Self::encode_state) wrote.
    pub(crate) fn decode_state(
        map: MaraudersMap,
        config: FleetConfig,
        r: &mut Reader<'_>,
    ) -> Result<Aggregator, PersistError> {
        let mut agg = Aggregator::new(map.clone(), config);
        agg.config.expected_nodes = r.get()?;
        agg.config.dead_after_s = r.get()?;
        agg.config.max_buffered_frames = r.get()?;
        agg.config.correct_frame_times = r.get()?;
        agg.released_up_to = r.get()?;
        agg.arrival = r.get()?;
        agg.stats = FleetStats {
            batches: r.get()?,
            frames_relayed: r.get()?,
            heartbeats: r.get()?,
            duplicate_batches: r.get()?,
            reconnects: r.get()?,
            nodes_evicted: r.get()?,
            frames_forced: r.get()?,
            buffered_peak: r.get()?,
        };
        agg.nodes = r.get()?;
        agg.buffer = r.get()?;
        agg.engine = StreamEngine::decode_state(map, r)?;
        agg.engine.set_mode(
            agg.config.stream.live_localization,
            agg.config.stream.warm_start,
        );
        Ok(agg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marauder_core::apdb::{ApDatabase, ApRecord};
    use marauder_core::pipeline::{AttackConfig, KnowledgeLevel};
    use marauder_geo::Point;
    use marauder_wifi::channel::Channel;
    use marauder_wifi::mac::MacAddr;
    use marauder_wifi::ssid::Ssid;

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

    fn response(t: f64, ap: u64, mobile: u64) -> CapturedFrame {
        CapturedFrame {
            time_s: t,
            card: 0,
            frame: Frame::probe_response(
                MacAddr::from_index(ap),
                MacAddr::from_index(mobile),
                Ssid::new("x").unwrap(),
                Channel::bg(6).unwrap(),
            ),
        }
    }

    fn hello(id: u32) -> Message {
        Message::Hello {
            node_id: id,
            clock_offset_s: 0.0,
            version: PROTOCOL_VERSION,
        }
    }

    #[test]
    fn holds_frames_until_every_expected_node_reports() {
        let mut agg = Aggregator::new(
            map(),
            FleetConfig {
                expected_nodes: 2,
                ..FleetConfig::default()
            },
        );
        agg.on_message(&hello(0)).unwrap();
        agg.on_message(&Message::FrameBatch {
            node_id: 0,
            seq: 0,
            frames: vec![response(1.0, 100, 1)],
        })
        .unwrap();
        agg.on_message(&Message::Heartbeat {
            node_id: 0,
            watermark_s: 50.0,
        })
        .unwrap();
        // Node 1 hasn't joined: nothing released.
        assert_eq!(agg.stats().frames_relayed, 0);
        agg.on_message(&hello(1)).unwrap();
        agg.on_message(&Message::Heartbeat {
            node_id: 1,
            watermark_s: 10.0,
        })
        .unwrap();
        // Fleet watermark = min(50, 10) = 10 ≥ 1.0: released.
        assert_eq!(agg.stats().frames_relayed, 1);
        assert!((agg.fleet_watermark() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_batches_are_ignored_and_gaps_are_typed() {
        let mut agg = Aggregator::new(map(), FleetConfig::default());
        agg.on_message(&hello(0)).unwrap();
        let batch = |seq| Message::FrameBatch {
            node_id: 0,
            seq,
            frames: vec![response(1.0, 100, 1)],
        };
        agg.on_message(&batch(0)).unwrap();
        agg.on_message(&batch(0)).unwrap(); // re-send after rejoin
        assert_eq!(agg.stats().duplicate_batches, 1);
        let err = agg.on_message(&batch(5)).unwrap_err();
        assert!(
            matches!(
                err,
                NetError::SequenceGap {
                    node: 0,
                    expected: 1,
                    got: 5
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn a_hello_of_another_version_is_a_typed_handshake_error() {
        let mut agg = Aggregator::new(map(), FleetConfig::default());
        let err = agg
            .on_message(&Message::Hello {
                node_id: 0,
                clock_offset_s: 0.0,
                version: 1,
            })
            .unwrap_err();
        assert_eq!(
            err,
            NetError::Handshake {
                found: 1,
                supported: PROTOCOL_VERSION,
            }
        );
        assert!(agg.nodes.is_empty(), "a refused node does not join");
    }

    #[test]
    fn rejoin_reports_resume_seq() {
        let mut agg = Aggregator::new(map(), FleetConfig::default());
        agg.on_message(&hello(7)).unwrap();
        for seq in 0..3 {
            agg.on_message(&Message::FrameBatch {
                node_id: 7,
                seq,
                frames: vec![response(seq as f64, 100, 1)],
            })
            .unwrap();
        }
        let turn = agg.on_message(&hello(7)).unwrap();
        assert_eq!(
            turn.replies[0],
            Message::HelloAck {
                node_id: 7,
                version: PROTOCOL_VERSION,
                resume_seq: 3
            }
        );
        assert_eq!(agg.stats().reconnects, 1);
    }

    #[test]
    fn stalled_node_is_evicted_in_stream_time() {
        let mut agg = Aggregator::new(
            map(),
            FleetConfig {
                expected_nodes: 2,
                dead_after_s: 30.0,
                ..FleetConfig::default()
            },
        );
        agg.on_message(&hello(0)).unwrap();
        agg.on_message(&hello(1)).unwrap();
        agg.on_message(&Message::Heartbeat {
            node_id: 1,
            watermark_s: 5.0,
        })
        .unwrap();
        agg.on_message(&Message::Heartbeat {
            node_id: 0,
            watermark_s: 20.0,
        })
        .unwrap();
        assert_eq!(agg.stats().nodes_evicted, 0);
        // Node 0 runs 40 s ahead of node 1's stalled watermark.
        agg.on_message(&Message::Heartbeat {
            node_id: 0,
            watermark_s: 45.0,
        })
        .unwrap();
        assert_eq!(agg.stats().nodes_evicted, 1);
        // The gate now follows node 0 alone.
        assert!((agg.fleet_watermark() - 45.0).abs() < 1e-12);
    }

    #[test]
    fn watermark_skew_is_corrected_from_handshake_offset() {
        let mut agg = Aggregator::new(map(), FleetConfig::default());
        agg.on_message(&Message::Hello {
            node_id: 0,
            clock_offset_s: 100.0,
            version: PROTOCOL_VERSION,
        })
        .unwrap();
        agg.on_message(&Message::Heartbeat {
            node_id: 0,
            watermark_s: 130.0, // node-local clock reading
        })
        .unwrap();
        assert!((agg.fleet_watermark() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn buffer_bound_force_releases_oldest() {
        let mut agg = Aggregator::new(
            map(),
            FleetConfig {
                max_buffered_frames: 2,
                ..FleetConfig::default()
            },
        );
        agg.on_message(&hello(0)).unwrap();
        let frames: Vec<CapturedFrame> = (0..5).map(|k| response(k as f64, 100, 1)).collect();
        agg.on_message(&Message::FrameBatch {
            node_id: 0,
            seq: 0,
            frames,
        })
        .unwrap();
        // No heartbeat yet, but only 2 frames may stay buffered.
        assert_eq!(agg.stats().frames_forced, 3);
        assert_eq!(agg.stats().frames_relayed, 3);
    }

    #[test]
    fn snapshot_restore_resumes_byte_identical() {
        let frames: Vec<CapturedFrame> = (0..30)
            .map(|k| response(k as f64 * 5.0, 100 + (k % 3) as u64, 1))
            .collect();
        let run = |interrupt: Option<usize>| -> (Vec<TrackFix>, FleetStats) {
            let mut agg = Aggregator::new(map(), FleetConfig::default());
            agg.on_message(&hello(0)).unwrap();
            let mut closed = Vec::new();
            for (k, f) in frames.iter().enumerate() {
                if interrupt == Some(k) {
                    let snap = agg.snapshot();
                    let stats_before = agg.stats().clone();
                    agg = Aggregator::restore(map(), FleetConfig::default(), &snap)
                        .expect("own snapshot restores");
                    assert_eq!(agg.stats(), &stats_before);
                }
                closed.extend(
                    agg.on_message(&Message::FrameBatch {
                        node_id: 0,
                        seq: k as u64,
                        frames: vec![f.clone()],
                    })
                    .unwrap()
                    .closed,
                );
                closed.extend(
                    agg.on_message(&Message::Heartbeat {
                        node_id: 0,
                        watermark_s: f.time_s,
                    })
                    .unwrap()
                    .closed,
                );
            }
            closed.extend(agg.finish());
            let stats = agg.stats().clone();
            (agg.batch_fixes(closed), stats)
        };
        let (base, base_stats) = run(None);
        let (resumed, resumed_stats) = run(Some(17));
        assert_eq!(base.len(), resumed.len());
        for (a, b) in base.iter().zip(&resumed) {
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
            assert_eq!(a.mobile, b.mobile);
            assert_eq!(
                a.estimate.position.x.to_bits(),
                b.estimate.position.x.to_bits()
            );
            assert_eq!(
                a.estimate.position.y.to_bits(),
                b.estimate.position.y.to_bits()
            );
        }
        assert_eq!(base_stats, resumed_stats);
    }

    #[test]
    fn snapshot_round_trips_byte_exactly_with_parked_frames() {
        let mut agg = Aggregator::new(
            map(),
            FleetConfig {
                expected_nodes: 2,
                ..FleetConfig::default()
            },
        );
        agg.on_message(&hello(0)).unwrap();
        agg.on_message(&hello(1)).unwrap();
        agg.on_message(&Message::FrameBatch {
            node_id: 0,
            seq: 0,
            frames: (0..6)
                .map(|k| response(k as f64 * 7.0, 100 + k % 3, 1))
                .collect(),
        })
        .unwrap();
        agg.on_message(&Message::Heartbeat {
            node_id: 0,
            watermark_s: 40.0,
        })
        .unwrap();
        assert!(!agg.buffer.is_empty(), "node 1 holds the gate closed");
        let snap = agg.snapshot();
        let restored = Aggregator::restore(map(), FleetConfig::default(), &snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
        // Another kind's document is refused, typed.
        let engine_doc = agg.engine().snapshot();
        assert!(matches!(
            Aggregator::restore(map(), FleetConfig::default(), &engine_doc),
            Err(PersistError::Malformed { .. })
        ));
    }

    #[test]
    fn every_node_evicted_restores_with_the_gate_closed() {
        // No message sequence evicts the node at the fleet front, so
        // this state is set directly: the "min over an empty set" must
        // collapse to -∞ (the gate closes), not the +∞ a naive min-fold
        // would report — before and after a snapshot round trip.
        let config = FleetConfig {
            expected_nodes: 2,
            ..FleetConfig::default()
        };
        let mut agg = Aggregator::new(map(), config.clone());
        for (id, mark) in [(1, 10.0), (2, 20.0)] {
            agg.on_message(&hello(id)).unwrap();
            agg.on_message(&Message::Heartbeat {
                node_id: id,
                watermark_s: mark,
            })
            .unwrap();
        }
        assert_eq!(agg.fleet_watermark(), 10.0);
        for st in agg.nodes.values_mut() {
            st.evicted = true;
        }
        assert_eq!(agg.fleet_watermark(), f64::NEG_INFINITY);
        let restored = Aggregator::restore(map(), config, &agg.snapshot()).unwrap();
        assert_eq!(restored.nodes.len(), 2);
        assert_eq!(restored.fleet_watermark(), f64::NEG_INFINITY);
    }
}
