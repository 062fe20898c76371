//! What one pass through a workload measured. A run repeats passes
//! until its time is up and reports medians over them.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Duration;

#[derive(Debug, Default)]
pub struct Iteration {
    /// From the start of program work to the first timed operation:
    /// CPU time of the thread doing it, and wall time.
    pub setup_s: f64,
    pub setup_wall_s: f64,
    /// Frames ingested in the unpaced timed phase, its wall time, and
    /// the CPU time the ingesting thread spent in it.
    pub phase_frames: u64,
    pub phase_s: f64,
    pub phase_cpu_s: f64,
    /// Per closed window in the unpaced timed phase: CPU time from the
    /// hand-off that closed it to its fix on the plane, ms.
    pub fix_ms: Vec<f64>,
    /// Per closed window in the paced phase: wall time from when the
    /// step that closed it was due to its fix on the plane, ms (fleet
    /// only).
    pub live_fix_ms: Vec<f64>,
    /// Per-request latency on the live connection, ms (fleet only).
    pub query_ms: Vec<f64>,
    /// Wall time of the paced phase (fleet only).
    pub live_s: f64,
    /// How late the paced feeder started each step, ms (fleet only).
    pub feeder_late_ms: Vec<f64>,
    /// Operations attempted and failed: frames, fixes checked, requests.
    pub attempted: u64,
    pub failed: u64,
    /// Fixes that differed from the batch reference.
    pub mismatches: u64,
    /// The process's peak resident set when the timed phase ended, MiB.
    pub peak_rss_mb: f64,
    /// Traced passes only: per-layer values and the span buffer.
    pub layers: BTreeMap<String, (f64, &'static str)>,
    pub tracer: Option<Tracer>,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Iteration {
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.insert(name.to_string(), (value, unit));
    }
}

/// CPU time the calling thread has run for, in seconds. It leaves out
/// time the thread waited: for the disk, for a CPU another thread held,
/// or for the hypervisor (steal).
pub fn thread_cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live timespec the kernel writes once; the clock
    // id is Linux's constant for the calling thread's CPU clock.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's peak resident set so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("read peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
