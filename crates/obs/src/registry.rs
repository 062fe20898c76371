//! The metrics registry and its JSON document.

use crate::clock::Clock;
use crate::json::{Json, Layout};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// A fixed-bucket histogram: `bounds` are inclusive upper bucket edges
/// in ascending order, `counts` has one slot per bound plus a final
/// overflow slot. Contents are pure integer counts of observations, so
/// histograms are as deterministic as counters — bucket increments are
/// commutative, and no clock value is ever observed into one.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
        }
    }

    /// Counts `value` into its bucket: the first bound `>= value`, or
    /// the overflow slot (NaN also lands there — every comparison with
    /// NaN is false, which is the honest bucket for a non-value).
    fn observe(&mut self, value: f64) {
        let mut slot = self.bounds.len();
        for (i, b) in self.bounds.iter().enumerate() {
            if value <= *b {
                slot = i;
                break;
            }
        }
        self.counts[slot] += 1;
    }

    /// The inclusive upper bucket edges.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; one slot per bound plus the overflow slot.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Aggregated span timings for one name. Lives exclusively in the
/// registry's nondeterministic section: durations come from a
/// [`Clock`] and are never comparable across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of recorded spans.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Shortest recorded span, nanoseconds.
    pub min_ns: u64,
    /// Longest recorded span, nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {
    fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    /// Counters whose values legitimately depend on scheduling (e.g.
    /// blocks claimed per worker) — reported, but outside the
    /// determinism contract.
    nondet_counters: BTreeMap<String, u64>,
    timings: BTreeMap<String, SpanStats>,
}

/// A concurrent metrics registry with a hard determinism contract.
///
/// The registry stores two classes of series:
///
/// * **Deterministic** — counters, gauges and fixed-bucket histograms.
///   Their contents are integer event counts (never clock readings),
///   their storage is ordered (`BTreeMap`), and every producer in the
///   workspace updates them from data that is a pure function of the
///   inputs and seeds. The rendered `counters`/`gauges`/`histograms`
///   JSON sections are therefore byte-identical across runs at any
///   worker-thread count.
/// * **Nondeterministic** — span timings (from a [`Clock`]) and
///   scheduling counters (per-worker block claims). They are rendered
///   under a separate `"nondeterministic"` key so consumers can diff
///   the deterministic prefix of two reports byte-for-byte.
///
/// Interior mutability is a single `Mutex`: every producer call is one
/// short lock. Hot per-frame paths (the stream engine) accumulate
/// locally and merge once per run instead of locking per frame.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panicking holder cannot leave partial state behind — every
        // update is a single map operation — so poison is recoverable.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Current value of counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: i64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// Raises gauge `name` to `value` if `value` is larger (creates it
    /// otherwise) — the shape for high-water marks.
    pub fn gauge_max(&self, name: &str, value: i64) {
        let mut inner = self.lock();
        match inner.gauges.get_mut(name) {
            Some(v) => *v = (*v).max(value),
            None => {
                inner.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.lock().gauges.get(name).copied()
    }

    /// Counts `value` into histogram `name`, creating it with `bounds`
    /// on first use. The bounds are fixed at creation; later calls
    /// observe into the existing buckets (differing `bounds` arguments
    /// are ignored — bucket layout is part of the series identity).
    pub fn histogram_observe(&self, name: &str, bounds: &[f64], value: f64) {
        let mut inner = self.lock();
        match inner.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::new(bounds);
                h.observe(value);
                inner.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Merges pre-aggregated bucket `counts` into histogram `name`
    /// (created with `bounds` on first use) — the batch path for hot
    /// loops that bucket locally. `counts` must have
    /// `bounds.len() + 1` slots; mismatched layouts are ignored rather
    /// than corrupting the series.
    pub fn histogram_merge(&self, name: &str, bounds: &[f64], counts: &[u64]) {
        if counts.len() != bounds.len() + 1 {
            return;
        }
        let mut inner = self.lock();
        let h = inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds));
        if h.counts.len() != counts.len() {
            return;
        }
        for (slot, c) in h.counts.iter_mut().zip(counts) {
            *slot = slot.saturating_add(*c);
        }
    }

    /// A copy of histogram `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// Adds `delta` to the **nondeterministic** counter `name`
    /// (scheduling-dependent series such as per-worker block claims).
    pub fn nondet_add(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        match inner.nondet_counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                inner.nondet_counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Records one span duration under `name` (nondeterministic
    /// section).
    pub fn record_ns(&self, name: &str, ns: u64) {
        let mut inner = self.lock();
        match inner.timings.get_mut(name) {
            Some(t) => t.record(ns),
            None => {
                let mut t = SpanStats::default();
                t.record(ns);
                inner.timings.insert(name.to_string(), t);
            }
        }
    }

    /// Aggregated timings recorded under `name`.
    pub fn timing(&self, name: &str) -> Option<SpanStats> {
        self.lock().timings.get(name).cloned()
    }

    /// Starts a span: the returned guard records the elapsed `clock`
    /// time under `name` when dropped.
    pub fn span<'a>(&'a self, name: &'static str, clock: &'a dyn Clock) -> Span<'a> {
        Span {
            registry: self,
            clock,
            name,
            start_ns: clock.now_ns(),
        }
    }

    /// Clears every series, deterministic and not.
    pub fn reset(&self) {
        *self.lock() = Inner::default();
    }

    /// Renders only the deterministic sections (`counters`, `gauges`,
    /// `histograms`) as a complete JSON document — the byte-comparable
    /// surface.
    pub fn deterministic_json(&self) -> String {
        let doc = Json::obj(Layout::Block, deterministic_sections(&self.lock()));
        doc.render()
    }

    /// Renders the full registry as JSON: the deterministic sections
    /// first, then everything scheduling- or clock-dependent under the
    /// `"nondeterministic"` key. Splitting the text at that key yields
    /// exactly the byte-comparable prefix.
    pub fn to_json(&self) -> String {
        let doc = {
            let inner = self.lock();
            let timings = inner.timings.iter().map(|(name, t)| {
                let stats = [
                    ("count", t.count),
                    ("total", t.total_ns),
                    ("min", t.min_ns),
                    ("max", t.max_ns),
                ];
                (
                    name,
                    Json::obj(Layout::Inline, stats.map(|(k, v)| (k, v.into()))),
                )
            });
            let quarantined = Json::obj(
                Layout::Block,
                [
                    ("counters", u64_map(&inner.nondet_counters)),
                    ("timings_ns", Json::obj(Layout::Block, timings)),
                ],
            );
            let mut sections = deterministic_sections(&inner);
            sections.push(("nondeterministic", quarantined));
            Json::obj(Layout::Block, sections)
        };
        doc.render()
    }
}

/// A live span; records its duration into the registry on drop.
#[derive(Debug)]
pub struct Span<'a> {
    registry: &'a MetricsRegistry,
    clock: &'a dyn Clock,
    name: &'static str,
    start_ns: u64,
}

impl std::fmt::Debug for dyn Clock + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Clock")
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let elapsed = self.clock.now_ns().saturating_sub(self.start_ns);
        self.registry.record_ns(self.name, elapsed);
    }
}

fn deterministic_sections(inner: &Inner) -> Vec<(&'static str, Json)> {
    let histograms = inner.histograms.iter().map(|(name, h)| {
        let buckets = [
            (
                "bounds",
                Json::arr(Layout::Inline, h.bounds.iter().copied()),
            ),
            (
                "counts",
                Json::arr(Layout::Inline, h.counts.iter().copied()),
            ),
            ("total", h.total().into()),
        ];
        (name, Json::obj(Layout::Inline, buckets))
    });
    let gauges = inner.gauges.iter().map(|(name, &v)| (name, v.into()));
    vec![
        ("counters", u64_map(&inner.counters)),
        ("gauges", Json::obj(Layout::Block, gauges)),
        ("histograms", Json::obj(Layout::Block, histograms)),
    ]
}

fn u64_map(map: &BTreeMap<String, u64>) -> Json {
    Json::obj(Layout::Block, map.iter().map(|(name, &v)| (name, v.into())))
}

#[cfg(test)]
use crate::json::{json_f64, json_string};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn json_writers_escape_strings_and_null_non_finite_numbers() {
        assert_eq!(json_string("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(json_string("\n\r\t\u{1}"), r#""\n\r\t\u0001""#);
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.counter("a"), 0);
        reg.counter_add("a", 2);
        reg.counter_add("a", 3);
        reg.counter_add("b", 1);
        assert_eq!(reg.counter("a"), 5);
        assert_eq!(reg.counter("b"), 1);
    }

    #[test]
    fn gauges_set_and_high_water() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.gauge("g"), None);
        reg.gauge_set("g", -4);
        assert_eq!(reg.gauge("g"), Some(-4));
        reg.gauge_max("g", 10);
        reg.gauge_max("g", 3);
        assert_eq!(reg.gauge("g"), Some(10));
        reg.gauge_max("fresh", 7);
        assert_eq!(reg.gauge("fresh"), Some(7));
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_edges() {
        let reg = MetricsRegistry::new();
        let bounds = [1.0, 10.0];
        for v in [0.5, 1.0, 1.5, 10.0, 11.0, f64::NAN] {
            reg.histogram_observe("h", &bounds, v);
        }
        let h = reg.histogram("h").unwrap();
        assert_eq!(h.bounds(), &bounds);
        // <=1: {0.5, 1.0}; <=10: {1.5, 10.0}; overflow: {11.0, NaN}.
        assert_eq!(h.counts(), &[2, 2, 2]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_merge_adds_preaggregated_counts() {
        let reg = MetricsRegistry::new();
        let bounds = [1.0, 2.0];
        reg.histogram_merge("h", &bounds, &[1, 2, 3]);
        reg.histogram_merge("h", &bounds, &[10, 0, 0]);
        // Wrong layout: silently ignored, series unchanged.
        reg.histogram_merge("h", &bounds, &[1, 1]);
        let h = reg.histogram("h").unwrap();
        assert_eq!(h.counts(), &[11, 2, 3]);
    }

    #[test]
    fn spans_record_manual_clock_durations() {
        let reg = MetricsRegistry::new();
        let clock = ManualClock::new();
        {
            let _span = reg.span("work", &clock);
            clock.advance_ns(500);
        }
        {
            let _span = reg.span("work", &clock);
            clock.advance_ns(100);
        }
        let t = reg.timing("work").unwrap();
        assert_eq!(t.count, 2);
        assert_eq!(t.total_ns, 600);
        assert_eq!(t.min_ns, 100);
        assert_eq!(t.max_ns, 500);
    }

    #[test]
    fn json_splits_deterministic_from_nondeterministic() {
        let reg = MetricsRegistry::new();
        reg.counter_add("z.last", 1);
        reg.counter_add("a.first", 2);
        reg.gauge_set("open", 3);
        reg.histogram_observe("lag", &[1.0], 0.5);
        reg.nondet_add("worker.blocks", 9);
        reg.record_ns("span", 123);

        let json = reg.to_json();
        // Deterministic keys appear before the nondeterministic block,
        // in sorted order.
        let det = json.split("\"nondeterministic\"").next().unwrap();
        assert!(det.contains("\"a.first\": 2"));
        assert!(det.contains("\"z.last\": 1"));
        assert!(det.find("a.first").unwrap() < det.find("z.last").unwrap());
        assert!(det.contains("\"open\": 3"));
        assert!(det.contains("\"bounds\": [1], \"counts\": [1, 0], \"total\": 1"));
        assert!(!det.contains("worker.blocks"));
        assert!(!det.contains("\"span\""));
        // Nondeterministic tail carries the rest.
        assert!(json.contains("\"worker.blocks\": 9"));
        assert!(json.contains("\"count\": 1, \"total\": 123, \"min\": 123, \"max\": 123"));
        // Cheap well-formedness: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());

        // deterministic_json is a standalone document with the same
        // deterministic content.
        let det_doc = reg.deterministic_json();
        assert!(det_doc.contains("\"a.first\": 2"));
        assert!(!det_doc.contains("nondeterministic"));
        assert_eq!(det_doc.matches('{').count(), det_doc.matches('}').count());
    }

    #[test]
    fn identical_event_streams_render_identically_regardless_of_order() {
        // The determinism contract in miniature: counter adds commute.
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter_add("x", 1);
        a.counter_add("y", 2);
        a.counter_add("x", 4);
        b.counter_add("y", 2);
        b.counter_add("x", 4);
        b.counter_add("x", 1);
        assert_eq!(a.deterministic_json(), b.deterministic_json());
    }

    #[test]
    fn reset_clears_everything() {
        let reg = MetricsRegistry::new();
        reg.counter_add("a", 1);
        reg.nondet_add("b", 1);
        reg.record_ns("c", 1);
        reg.reset();
        assert_eq!(reg.counter("a"), 0);
        let json = reg.to_json();
        assert!(!json.contains("\"a\""));
        assert!(!json.contains("\"b\""));
        assert!(!json.contains("\"c\""));
    }

    #[test]
    fn metrics_documents_render_their_golden_text() {
        let reg = MetricsRegistry::new();
        let clock = ManualClock::new();
        reg.counter_add("stream.frames", 1200);
        reg.counter_add("lp.solves", u64::MAX);
        reg.counter_add("quote\"tab\t", 1);
        reg.gauge_set("serve.conns.open", -3);
        for v in [0.5, 2.0, 9.0] {
            reg.histogram_observe("stream.window_aps", &[1.0, 2.5, 8.0], v);
        }
        {
            let _span = reg.span("core.ingest", &clock);
            clock.advance_ns(1_500);
        }
        {
            let _span = reg.span("lp.solve", &clock);
            clock.advance_ns(250);
        }
        // No nondeterministic counter was touched: that section is the
        // empty one.
        assert_eq!(reg.to_json(), include_str!("../tests/golden/metrics.json"));
        assert_eq!(
            reg.deterministic_json(),
            include_str!("../tests/golden/metrics_deterministic.json")
        );
    }
}
