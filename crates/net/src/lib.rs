//! Distributed sniffer fleet: the wire protocol and multi-node merge
//! layer that turn one [`StreamEngine`](marauder_stream::StreamEngine)
//! into the sink for N geographically scattered capture nodes.
//!
//! The paper evaluates the Marauder's Map attack with a single
//! sniffing rig; the threat becomes city-scale only when many vantage
//! points feed one aggregator. This crate supplies that plumbing with
//! the workspace's usual contract — std-only, no panics in library
//! code, and a merge whose output is *byte-identical* to replaying the
//! union of the nodes' logs through a single engine:
//!
//! - [`codec`]: a length-prefixed, explicitly versioned binary message
//!   format ([`Message`]) with total decoding — every malformed input
//!   maps to a typed [`WireError`].
//! - [`transport`]: the [`Transport`] trait plus the deterministic
//!   in-process [`LoopbackTransport`]; [`tcp`] adds the real
//!   `std::net` node client, with bounded exponential-backoff
//!   reconnect, and a one-thread poll-loop server with a connection
//!   bound and a handshake deadline.
//! - [`node`]: [`SnifferNode`] streams a capture slice as sequenced
//!   frame batches with watermark heartbeats, and resumes after a
//!   death from the aggregator's `resume_seq` with nothing lost.
//! - [`aggregator`]: [`Aggregator`] corrects per-node clock skew,
//!   buffers bounded out-of-order arrival against the fleet watermark
//!   (min over live nodes, stream-time eviction of the dead), and
//!   feeds the engine a globally nondecreasing frame sequence.
//! - [`checkpoint`]: [`Checkpointer`] writes stream-time-paced fleet
//!   checkpoints into a [`DurableDir`](marauder_stream::DurableDir), the
//!   frame journal's durable-state directory: each appends the windows
//!   closed since the previous one to the closed-window log and seals
//!   the merge state in a small document. [`restore_latest`] rebuilds
//!   the newest valid one after a crash so a restarted aggregator
//!   resumes mid-campaign with zero windows lost.
//! - [`loopback`]: [`LoopbackFleet`] drives everything round-robin on
//!   one thread for hermetic, bit-exact tests; [`chaos`] runs the
//!   per-node fault matrix from `crates/fault` over it.
//! - [`time`]: [`StreamTime`] and [`Watermark`], checked where they arrive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregator;
pub mod chaos;
pub mod checkpoint;
pub mod codec;
pub mod loopback;
pub mod node;
pub mod tcp;
pub mod time;
pub mod transport;

pub use aggregator::{Aggregator, FleetConfig, FleetStats, Turn, NODE_LAG_BOUNDS_S};
pub use checkpoint::{restore_latest, Checkpointer, FleetRestore};
pub use codec::{Message, WireError, MAX_BODY_LEN, PROTOCOL_VERSION};
pub use loopback::{
    corrupt_slice, required_slack_s, split_by_time, split_round_robin, LoopbackFleet,
};
pub use node::{NodeConfig, NodeStats, SnifferNode};
pub use time::{StreamTime, Watermark};
pub use transport::{LoopbackTransport, NetError, Transport};
