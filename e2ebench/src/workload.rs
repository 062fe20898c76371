//! The three workloads: campus shape, knowledge level, and how the
//! pipeline is driven. Each one exists to make a different layer do the
//! work, and to bypass the layers another workload exercises.

use marauder_core::pipeline::KnowledgeLevel;
use marauder_stream::{FlushPolicy, JournalConfig};

/// How a workload drives the live pipeline.
#[derive(Debug, Clone, Copy)]
pub enum Drive {
    /// Resume a journaled replay that was killed after `kill_fraction`
    /// (plus or minus a seeded `kill_jitter`) of the capture, the way
    /// `marauder replay LOG --journal DIR` does on restart, and ingest
    /// the rest unpaced.
    Resumed {
        kill_fraction: f64,
        kill_jitter: f64,
    },
    /// Merge the capture over a loopback fleet of `nodes` sniffers
    /// (round-robin split), publishing behind an HTTP server: the first
    /// `catch_up_fraction` unpaced with no readers, the rest paced at
    /// `speedup` times stream time with one closed-loop reader.
    Fleet {
        nodes: usize,
        catch_up_fraction: f64,
        speedup: f64,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub aps: usize,
    pub mobiles: usize,
    /// Stream time the simulation runs for; it is cut to `frames`.
    pub duration_s: f64,
    /// Frames in each campus's capture log: the stated input size,
    /// equal for every seed.
    pub frames: usize,
    /// Campuses per run; passes cycle through them.
    pub campuses: usize,
    /// Whether the campuses are a fixed pool (the seed then moves only
    /// the crash point) rather than drawn from the seed.
    pub fixed_pool: bool,
    pub level: KnowledgeLevel,
    pub drive: Drive,
}

/// Journal checkpoint cadence in frames (the `--checkpoint-every`
/// default of `marauder replay --journal`).
pub const CHECKPOINT_EVERY: u64 = 1024;

/// Frames per wire batch on every fleet node (`NodeConfig` default).
pub const BATCH_FRAMES: usize = 64;

/// The journal configuration every resumed workload runs with: the
/// default 4096-frame segments, synced on rotation and on every
/// checkpoint. Per-record `fdatasync` (the default policy) would make
/// the run measure the disk under the checkout rather than the program:
/// on an ext4 virtual disk it costs 190-260 µs per frame, ten times the
/// rest of the frame's work, and varies by up to 40% between runs.
pub fn journal_config() -> JournalConfig {
    JournalConfig {
        flush: FlushPolicy::OnRotate,
        ..JournalConfig::default()
    }
}

pub const WORKLOADS: [Workload; 3] = [
    // Why: the only workload where the capture-log parser and the
    // journal (append, checkpoint, recovery) do most of the work. Full
    // knowledge means the AP-Rad LP never runs, and there is no fleet
    // and no HTTP. Checkpoints re-render every window closed since the
    // campaign began, so their cost grows with campaign length.
    Workload {
        name: "replay-durable",
        aps: 400,
        mobiles: 200,
        duration_s: 1100.0,
        frames: 110_000,
        campuses: 1,
        fixed_pool: false,
        level: KnowledgeLevel::Full,
        drive: Drive::Resumed {
            kill_fraction: 0.5,
            kill_jitter: 0.0,
        },
    },
    // Why: the only workload where AP-Rad's statistics fold and LP
    // re-solves dominate. Recovery replays the journal tail through the
    // LP, so setup is real CPU work. Dirty tracking lets most windows
    // skip the LP, so the LP stalls sit in the latency tail (p99, in
    // the report); the gate takes the median, since that tail magnifies
    // the host's slow streaks, and LP work shows in `frames_per_cpu_s`.
    // The LP work of a random 60-AP campus varies by a quarter from one
    // layout to the next (36k-53k pivots over six seeds), which a gate
    // would measure instead of the program, so the campuses are a fixed
    // pool of four and the seed moves each one's crash point.
    Workload {
        name: "aprad-live",
        aps: 60,
        mobiles: 20,
        duration_s: 4200.0,
        frames: 18_000,
        campuses: 4,
        fixed_pool: true,
        level: KnowledgeLevel::LocationsOnly,
        drive: Drive::Resumed {
            kill_fraction: 0.2,
            kill_jitter: 0.01,
        },
    },
    // Why: the only workload with wire encode/decode, aggregator merge
    // and HTTP, and the only one with reads beside writes. It bypasses
    // the journal and the LP. Readers join only once ingest is paced:
    // against unpaced ingest a busy reader makes throughput depend on
    // where the scheduler puts three busy threads on two cores.
    Workload {
        name: "fleet-serve",
        aps: 400,
        mobiles: 200,
        duration_s: 4200.0,
        frames: 440_000,
        campuses: 1,
        fixed_pool: false,
        level: KnowledgeLevel::Full,
        drive: Drive::Fleet {
            nodes: 2,
            catch_up_fraction: 0.75,
            speedup: 300.0,
        },
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
