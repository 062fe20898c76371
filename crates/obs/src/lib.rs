//! # marauder-obs — std-only observability for the attack pipeline
//!
//! Production operation of the Marauder's Map pipeline (continuous
//! sniffing → window extraction → AP-Rad LP → localization ladder)
//! needs to answer "what did the pipeline do, and where did the time
//! go" without ad-hoc prints. This crate provides exactly that, under
//! the workspace's determinism contract:
//!
//! * [`MetricsRegistry`] — counters, gauges and fixed-bucket
//!   histograms whose **contents are deterministic**: pure event
//!   counts, never clock readings, stored in ordered maps. The
//!   rendered JSON for these sections is byte-identical across runs at
//!   any `--threads` value.
//! * [`json`] — the one JSON value type, writer and reader: every
//!   machine-read report in the workspace renders through it.
//! * Span timing behind the pluggable [`Clock`] trait —
//!   [`MonotonicClock`] for real runs (the single reasoned
//!   `no-wall-clock` carve-out in `lint.toml`), [`ManualClock`] for
//!   tests. Timings and scheduling-dependent counters render under an
//!   explicit `"nondeterministic"` JSON key, after every deterministic
//!   section, so two reports can be diffed on their prefix.
//!
//! Producers across the workspace use the process-wide [`global()`]
//! registry; tests that need isolation construct their own
//! [`MetricsRegistry`].

#![forbid(unsafe_code)]

pub mod clock;
pub mod json;
pub mod registry;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use json::{json_f64, json_string};
pub use registry::{Histogram, MetricsRegistry, Span, SpanStats};

use std::sync::OnceLock;

/// The process-wide registry that the runtime crates report into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// The process-wide monotonic clock used by [`span`].
pub fn global_clock() -> &'static MonotonicClock {
    static CLOCK: OnceLock<MonotonicClock> = OnceLock::new();
    CLOCK.get_or_init(MonotonicClock::new)
}

/// Starts a span on the global registry against the global monotonic
/// clock; the elapsed time is recorded under `name` when the returned
/// guard drops.
pub fn span(name: &'static str) -> Span<'static> {
    global().span(name, global_clock())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global() as *const MetricsRegistry;
        let b = global() as *const MetricsRegistry;
        assert_eq!(a, b);
    }

    #[test]
    fn global_span_records_into_global_registry() {
        {
            let _span = span("obs.selftest");
        }
        let t = global().timing("obs.selftest").unwrap();
        assert!(t.count >= 1);
    }
}
