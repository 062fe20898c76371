//! A deterministic in-process fleet: N sniffer nodes wired to one
//! aggregator over [`LoopbackTransport`] pairs, driven round-robin on
//! a single thread. A run is a pure function of (slices, configs,
//! fault plans, seed) — no sockets, no clocks, no thread scheduling.

use crate::aggregator::{Aggregator, Turn};
use crate::node::{NodeConfig, SnifferNode};
use crate::transport::{recv_message, send_message, LoopbackTransport, NetError};
use marauder_fault::{FaultInjector, FaultPlan};
use marauder_stream::ClosedWindow;
use marauder_wifi::sniffer::CapturedFrame;

/// One node's seat in the fleet.
struct Seat {
    node: SnifferNode,
    /// Node-side endpoint.
    node_t: LoopbackTransport,
    /// Aggregator-side endpoint.
    agg_t: LoopbackTransport,
    /// Seat taken out of the round-robin (killed, or tripped a fatal
    /// error that the scenario chose to tolerate).
    parked: bool,
}

/// The single-threaded fleet driver.
pub struct LoopbackFleet {
    aggregator: Aggregator,
    seats: Vec<Seat>,
}

impl LoopbackFleet {
    /// Builds a fleet: one [`SnifferNode`] per `(config, slice)` pair,
    /// all feeding `aggregator`. Node ids are the seat indices.
    pub fn new(aggregator: Aggregator, slices: Vec<(NodeConfig, Vec<CapturedFrame>)>) -> Self {
        let seats = slices
            .into_iter()
            .enumerate()
            .map(|(id, (config, frames))| {
                let (node_t, agg_t) = LoopbackTransport::pair();
                Seat {
                    node: SnifferNode::new(id as u32, config, frames),
                    node_t,
                    agg_t,
                    parked: false,
                }
            })
            .collect();
        LoopbackFleet { aggregator, seats }
    }

    /// The wrapped aggregator.
    pub fn aggregator(&self) -> &Aggregator {
        &self.aggregator
    }

    /// Severs a node's link mid-stream, simulating an abrupt death.
    /// Frames already in flight still deliver; the seat leaves the
    /// round-robin until [`rejoin`](Self::rejoin).
    pub fn kill(&mut self, node: usize) {
        if let Some(seat) = self.seats.get_mut(node) {
            seat.node_t.sever();
            seat.parked = true;
        }
    }

    /// Rewires a killed node over a fresh transport pair. The node
    /// re-handshakes; the aggregator's `resume_seq` skips everything
    /// it already accepted, so nothing is lost or duplicated.
    pub fn rejoin(&mut self, node: usize) {
        if let Some(seat) = self.seats.get_mut(node) {
            let (node_t, agg_t) = LoopbackTransport::pair();
            seat.node_t = node_t;
            seat.agg_t = agg_t;
            seat.node.begin_reconnect();
            seat.parked = false;
        }
    }

    /// Steps every live seat once — each node makes one unit of
    /// progress, then the aggregator drains that node's messages.
    /// Returns the windows released, and whether anything moved.
    ///
    /// # Errors
    ///
    /// The first fatal node or merge error.
    pub fn step(&mut self) -> Result<(Vec<ClosedWindow>, bool), NetError> {
        let mut closed = Vec::new();
        let mut moved = false;
        for seat in &mut self.seats {
            if seat.parked {
                continue;
            }
            match seat.node.step(&mut seat.node_t) {
                Ok(progress) => moved |= progress,
                // A severed link parks the seat; everything else is
                // fatal for the run.
                Err(NetError::Disconnected) => {
                    seat.parked = true;
                    continue;
                }
                Err(e) => return Err(e),
            }
            loop {
                match recv_message(&mut seat.agg_t) {
                    Ok(Some(msg)) => {
                        moved = true;
                        let Turn { replies, closed: c } = self.aggregator.on_message(&msg)?;
                        closed.extend(c);
                        for reply in replies {
                            // A reply that cannot be delivered (node
                            // died between send and receipt) is dropped;
                            // the rejoin handshake re-derives it.
                            let _ = send_message(&mut seat.agg_t, &reply);
                        }
                    }
                    Ok(None) | Err(NetError::Disconnected) => break,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok((closed, moved))
    }

    /// Drives the fleet until every live node has completed its stream
    /// and the merge is quiescent, then finishes the engine. Returns
    /// every window the run closed, in close order.
    ///
    /// # Errors
    ///
    /// The first fatal node or merge error.
    pub fn run(&mut self) -> Result<Vec<ClosedWindow>, NetError> {
        let mut closed = Vec::new();
        loop {
            let (c, moved) = self.step()?;
            closed.extend(c);
            if !moved {
                break;
            }
        }
        closed.extend(self.aggregator.finish());
        Ok(closed)
    }

    /// Finishes the run and hands the aggregator back for batch
    /// localization and stats inspection.
    pub fn into_aggregator(self) -> Aggregator {
        self.aggregator
    }
}

/// Splits a capture log round-robin: frame `i` goes to node
/// `i mod n`. Each slice keeps the log's relative order, modelling
/// interleaved coverage of one airspace by `n` co-located sniffers.
pub fn split_round_robin(frames: &[CapturedFrame], n: usize) -> Vec<Vec<CapturedFrame>> {
    let n = n.max(1);
    let mut out: Vec<Vec<CapturedFrame>> = (0..n).map(|_| Vec::new()).collect();
    for (i, f) in frames.iter().enumerate() {
        out[i % n].push(f.clone());
    }
    out
}

/// Splits a capture log into `n` contiguous time spans, modelling
/// sniffers that each own a patrol shift. Frames landing exactly on a
/// boundary go to the later span. Only finite stamps set the spans (a
/// `+∞` stamp goes to the last node, `-∞` and NaN to the first).
pub fn split_by_time(frames: &[CapturedFrame], n: usize) -> Vec<Vec<CapturedFrame>> {
    let n = n.max(1);
    let mut out: Vec<Vec<CapturedFrame>> = (0..n).map(|_| Vec::new()).collect();
    if frames.is_empty() {
        return out;
    }
    let finite = || frames.iter().map(|f| f.time_s).filter(|t| t.is_finite());
    let lo = finite().reduce(f64::min).unwrap_or(0.0);
    let hi = finite().reduce(f64::max).unwrap_or(0.0);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    for f in frames {
        let mut k = (((f.time_s - lo) / span) * n as f64) as usize;
        if k >= n {
            k = n - 1;
        }
        out[k].push(f.clone());
    }
    out
}

/// Applies a deterministic fault plan to one node's slice — the
/// chaos-test entry point: per-node corruption happens *before* the
/// wire, exactly as a damaged rig would emit it.
pub fn corrupt_slice(frames: &[CapturedFrame], seed: u64, plan: &FaultPlan) -> Vec<CapturedFrame> {
    FaultInjector::new(seed, plan.clone())
        .corrupt(frames)
        .frames
}

/// The watermark slack a slice actually needs: the largest distance
/// any finite stamp sits behind the running maximum finite stamp (the
/// node skips the others). A node announcing
/// `max_sent - required_slack_s(slice)` never breaks its promise, so
/// the merge stays lossless under bounded reordering.
pub fn required_slack_s(frames: &[CapturedFrame]) -> f64 {
    let mut max_seen = f64::NEG_INFINITY;
    let mut worst = 0.0f64;
    for t in frames.iter().map(|f| f.time_s).filter(|t| t.is_finite()) {
        if t > max_seen {
            max_seen = t;
        } else if max_seen - t > worst {
            worst = max_seen - t;
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use marauder_wifi::channel::Channel;
    use marauder_wifi::frame::Frame;
    use marauder_wifi::mac::MacAddr;
    use marauder_wifi::ssid::Ssid;

    fn response(t: f64) -> CapturedFrame {
        CapturedFrame {
            time_s: t,
            card: 0,
            frame: Frame::probe_response(
                MacAddr::from_index(100),
                MacAddr::from_index(1),
                Ssid::new("x").unwrap(),
                Channel::bg(6).unwrap(),
            ),
        }
    }

    #[test]
    fn round_robin_split_partitions_losslessly() {
        let frames: Vec<CapturedFrame> = (0..10).map(|k| response(k as f64)).collect();
        let slices = split_round_robin(&frames, 3);
        assert_eq!(slices.len(), 3);
        let total: usize = slices.iter().map(Vec::len).sum();
        assert_eq!(total, 10);
        assert_eq!(slices[0].len(), 4);
        assert_eq!(slices[1][0].time_s, 1.0);
    }

    #[test]
    fn by_time_split_is_contiguous_and_lossless() {
        let frames: Vec<CapturedFrame> = (0..100).map(|k| response(k as f64 * 0.25)).collect();
        let slices = split_by_time(&frames, 4);
        let total: usize = slices.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        // Spans do not overlap in time.
        for w in slices.windows(2) {
            let left_max = w[0]
                .iter()
                .map(|f| f.time_s)
                .fold(f64::NEG_INFINITY, f64::max);
            let right_min = w[1].iter().map(|f| f.time_s).fold(f64::INFINITY, f64::min);
            assert!(left_max <= right_min);
        }
    }

    #[test]
    fn required_slack_measures_out_of_orderness() {
        let in_order: Vec<CapturedFrame> = (0..5).map(|k| response(k as f64)).collect();
        assert_eq!(required_slack_s(&in_order), 0.0);
        let shuffled = vec![response(0.0), response(3.0), response(1.0), response(4.0)];
        assert_eq!(required_slack_s(&shuffled), 2.0);
        let mut stamped = shuffled.clone();
        stamped.insert(1, response(f64::INFINITY));
        stamped.insert(3, response(f64::NAN));
        stamped.push(response(f64::NEG_INFINITY));
        assert_eq!(required_slack_s(&stamped), 2.0, "non-finite stamps skipped");
    }

    #[test]
    fn by_time_split_spans_only_finite_stamps() {
        let mut frames: Vec<CapturedFrame> = (0..8).map(|k| response(k as f64)).collect();
        frames.insert(3, response(f64::INFINITY));
        frames.insert(5, response(f64::NAN));
        let slices = split_by_time(&frames, 4);
        let times: Vec<Vec<f64>> = slices
            .iter()
            .map(|s| {
                s.iter()
                    .map(|f| f.time_s)
                    .filter(|t| t.is_finite())
                    .collect()
            })
            .collect();
        assert_eq!(
            times,
            [
                vec![0.0, 1.0],
                vec![2.0, 3.0],
                vec![4.0, 5.0],
                vec![6.0, 7.0]
            ]
        );
        assert!(slices[0][2].time_s.is_nan());
        assert_eq!(slices[3][0].time_s, f64::INFINITY);
    }
}
