//! Per-layer numbers of a traced pass: shares of the timed phase and of
//! set-up from the spans, and counts from the obs registry.
//!
//! Layers a workload bypasses are reported as shares and counts (which
//! are then exactly 0), never as per-call times.

use crate::iteration::Iteration;
use crate::report::ratio;
use crate::trace::Tracer;

/// Span names of the timed phase, and the share metric each feeds.
pub const PHASE_LAYERS: [(&str, &str); 9] = [
    ("wifi.parse", "wifi.parse_share"),
    ("journal.append", "journal.append_share"),
    ("journal.checkpoint", "journal.checkpoint_share"),
    ("stream.push", "stream.push_share"),
    ("stream.close", "stream.close_share"),
    ("lp.solve", "lp.solve_share"),
    ("net.step", "net.step_share"),
    ("serve.publish", "serve.publish_share"),
    ("feeder.pace", "feeder.pace_share"),
];

/// Top-level set-up steps, and the share metric each feeds.
pub const SETUP_LAYERS: [(&str, &str); 7] = [
    ("setup.read", "setup.read_share"),
    ("core.map_build", "setup.map_build_share"),
    ("journal.recover", "setup.journal_recover_share"),
    ("resume.verify", "setup.resume_verify_share"),
    ("wifi.parse", "setup.log_parse_share"),
    ("net.split", "setup.node_split_share"),
    ("serve.start", "setup.serve_start_share"),
];

/// Fills `it.layers` from the spans under `setup` and `phase` (the
/// phase's self time becomes `unattributed_share`). `lp_ns` is the
/// obs `lp.solve` span total over the phase: those solves run inside
/// `stream.close` spans, so their time moves from there to `lp.solve`.
pub fn attribute(it: &mut Iteration, tr: &Tracer, setup: usize, phase: usize, lp_ns: u64) {
    let spans = tr.spans();
    let phase_ns = spans[phase].dur_ns() as f64;
    let mut selfs = tr.self_times(phase);
    if let Some(close) = selfs.get_mut("stream.close") {
        *close = close.saturating_sub(lp_ns);
    }
    selfs.insert("lp.solve", lp_ns);
    for (span, metric) in PHASE_LAYERS {
        let ns = selfs.get(span).copied().unwrap_or(0) as f64;
        it.layer(metric, 100.0 * ratio(ns, phase_ns), "%");
    }
    let unattributed = selfs.get("unattributed").copied().unwrap_or(0) as f64;
    it.layer(
        "unattributed_share",
        100.0 * ratio(unattributed, phase_ns),
        "%",
    );

    let setup_ns = spans[setup].dur_ns() as f64;
    let mut covered = 0.0;
    for (span, metric) in SETUP_LAYERS {
        let (_, ns) = tr.children_named(setup, span);
        covered += ns as f64;
        it.layer(metric, 100.0 * ratio(ns as f64, setup_ns), "%");
    }
    it.layer(
        "setup.unattributed_share",
        100.0 * ratio(setup_ns - covered, setup_ns),
        "%",
    );
    let (_, map_ns) = tr.children_named(setup, "core.map_build");
    it.layer("core.map_build_ms", map_ns as f64 / 1e6, "ms");

    // Per-call means of the layers every workload runs.
    let mean_of = |name: &str| {
        let (n, ns) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, ns), s| (n + 1, ns + s.dur_ns()));
        ratio(ns as f64, n as f64)
    };
    it.layer("wifi.parse_us", mean_of("wifi.parse") / 1e3, "us");
    it.layer("serve.publish_ms", mean_of("serve.publish") / 1e6, "ms");
}

/// Obs counters of the timed phase (the registry is reset when the
/// phase starts and read when it ends).
pub fn counters(it: &mut Iteration) {
    let reg = marauder_obs::global();
    let c = |name: &str| reg.counter(name) as f64;
    it.layer("journal.appends", c("journal.appends"), "count");
    it.layer("journal.checkpoints", c("journal.checkpoints"), "count");
    it.layer(
        "journal.checkpoint_bytes",
        c("journal.checkpoint_bytes"),
        "bytes",
    );
    it.layer("lp.solves", c("lp.solves"), "count");
    it.layer("lp.pivots", c("lp.pivots"), "count");
    it.layer("net.batches", c("net.batches"), "count");
    it.layer("net.frames_relayed", c("net.frames_relayed"), "count");
    it.layer("serve.publishes", c("serve.publish.snapshots"), "count");
    it.layer("serve.requests", c("serve.requests"), "count");
    let hits = c("serve.cache.hits");
    let lookups = hits + c("serve.cache.misses");
    it.layer("serve.cache_hit_ratio", ratio(hits, lookups), "ratio");
}

/// Total ns of the obs `lp.solve` span since the last registry reset.
pub fn lp_solve_ns() -> u64 {
    marauder_obs::global()
        .timing("lp.solve")
        .map_or(0, |t| t.total_ns)
}

/// The engine's own window and solve counts over the timed phase.
pub fn stream_counts(it: &mut Iteration, windows: usize, solves: usize) {
    it.layer("stream.windows_closed", windows as f64, "count");
    it.layer("stream.lp_solves", solves as f64, "count");
    it.layer(
        "stream.solve_ratio",
        ratio(solves as f64, windows as f64),
        "ratio",
    );
}
