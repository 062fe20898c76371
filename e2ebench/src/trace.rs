//! In-memory spans for the traced run, and the self-time attribution
//! built from them.
//!
//! A span records name, start, end, parent span and an id shared by
//! every span of one frame, step or request. Spans are laid end to end
//! by [`Tracer::lap`] (each starts where the previous one ended), so a
//! phase's time not covered by a named call is only the benchmark's own
//! loop overhead: the phase's self time, reported as `unattributed`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Laps `tr` when tracing; a no-op otherwise.
pub fn lap(tr: &mut Option<Tracer>, name: &'static str, id: u64) {
    if let Some(t) = tr.as_mut() {
        t.lap(name, id);
    }
}

/// Where the root of a span tree goes.
pub const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Where the next [`lap`](Self::lap) starts.
    cursor_ns: u64,
    /// The open span new spans attach to.
    open: usize,
}

impl Tracer {
    /// A tracer whose clock reads zero at `origin` (shared by every
    /// thread of a run, so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            cursor_ns: 0,
            open: NO_PARENT,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that the following spans nest under; returns its
    /// index for [`close`](Self::close).
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            id: 0,
            parent: self.open,
            start_ns: now,
            end_ns: now,
        });
        self.open = self.spans.len() - 1;
        self.cursor_ns = now;
        self.open
    }

    /// Closes the span `open` returned and pops back to its parent.
    pub fn close(&mut self, index: usize) {
        let now = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = now;
        self.open = span.parent;
        self.cursor_ns = now;
    }

    /// Starts the next lap now.
    pub fn mark(&mut self) {
        self.cursor_ns = self.now_ns();
    }

    /// Records a span from the end of the previous lap (or the last
    /// [`mark`](Self::mark)) to now.
    pub fn lap(&mut self, name: &'static str, id: u64) {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open,
            start_ns: self.cursor_ns,
            end_ns: now,
        });
        self.cursor_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans in, re-parenting their roots under
    /// `parent`.
    pub fn adopt(&mut self, other: Tracer, parent: usize) {
        let base = self.spans.len();
        for mut span in other.spans {
            span.parent = if span.parent == NO_PARENT {
                parent
            } else {
                span.parent + base
            };
            self.spans.push(span);
        }
    }

    /// Self time per span name over the subtree of span `root`: each
    /// span's duration minus the time its direct children cover.
    /// `root`'s own self time is reported as `unattributed`.
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, u64> {
        let mut in_tree = vec![false; self.spans.len()];
        in_tree[root] = true;
        let mut child_ns = vec![0u64; self.spans.len()];
        // Parents always precede their children in the buffer.
        for (i, span) in self.spans.iter().enumerate().skip(root + 1) {
            if span.parent != NO_PARENT && in_tree[span.parent] {
                in_tree[i] = true;
                child_ns[span.parent] += span.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if in_tree[i] {
                let name = if i == root { "unattributed" } else { span.name };
                *out.entry(name).or_insert(0) += span.dur_ns().saturating_sub(child_ns[i]);
            }
        }
        out
    }

    /// Spans whose name is `name` under `root`'s direct children:
    /// (count, total ns).
    pub fn children_named(&self, root: usize, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.parent == root && s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.dur_ns()))
    }

    /// The buffer as tab-separated lines: index, parent, id, name,
    /// start and end in ns since the run began.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tparent\tid\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
