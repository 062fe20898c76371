//! Engine state snapshot/restore.
//!
//! A snapshot is a line-oriented text document capturing everything the
//! engine accumulated from the stream: the open window table, the
//! watermark and no-reopen cursor, the ingestion counters, and the
//! incremental solver's observation statistics plus its cached radii.
//! It does **not** carry the AP knowledge itself — that is the
//! attacker's static asset; [`StreamEngine::restore`] takes the same
//! [`MaraudersMap`] the original engine was built from.
//!
//! Every `f64` is serialized as the 16-hex-digit big-endian form of its
//! IEEE-754 bits, so a snapshot → restore round trip is bit-exact and
//! the resumed engine's output is byte-identical to an uninterrupted
//! run.
//!
//! The document ends with an `end <record-count>` line; restore refuses
//! a snapshot without it (or whose record count disagrees), so a file
//! truncated mid-write — the classic crash-during-checkpoint hazard —
//! is rejected with a typed error instead of silently resuming from
//! partial state.

use crate::engine::{StreamConfig, StreamEngine, StreamStats};
use marauder_core::pipeline::MaraudersMap;
use marauder_core::ObservationStats;
use marauder_wifi::mac::MacAddr;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Version of the snapshot text format this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Common prefix of every snapshot header; the format version follows.
const HEADER_PREFIX: &str = "# marauder stream snapshot v";

/// Magic first line of the snapshot format (current version).
pub const HEADER: &str = "# marauder stream snapshot v1";

/// Error returned when restoring from a malformed snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The header names a format version this build does not speak.
    /// Distinct from [`Malformed`](Self::Malformed) so callers can
    /// offer "upgrade to read this snapshot" instead of "file corrupt".
    VersionMismatch {
        /// Version the snapshot declares.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The document is syntactically or semantically broken.
    Malformed {
        /// 1-based number of the first bad line.
        line: usize,
        /// Human-readable description of what was wrong.
        reason: String,
    },
}

impl SnapshotError {
    fn new(line: usize, reason: impl Into<String>) -> Self {
        SnapshotError::Malformed {
            line,
            reason: reason.into(),
        }
    }

    /// The 1-based line number of the first malformed line. Version
    /// mismatches are always a line-1 condition.
    pub fn line(&self) -> usize {
        match self {
            SnapshotError::VersionMismatch { .. } => 1,
            SnapshotError::Malformed { line, .. } => *line,
        }
    }

    /// Human-readable description of what was wrong.
    pub fn reason(&self) -> String {
        match self {
            SnapshotError::VersionMismatch { found, supported } => {
                format!("snapshot format v{found} is not supported (this build reads v{supported})")
            }
            SnapshotError::Malformed { reason, .. } => reason.clone(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stream snapshot parse error on line {}: {}",
            self.line(),
            self.reason()
        )
    }
}

impl std::error::Error for SnapshotError {}

pub(crate) fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

pub(crate) fn unhex(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad f64 bits {s:?}: {e}"))
}

pub(crate) fn parse_mac(s: &str) -> Result<MacAddr, String> {
    s.parse().map_err(|_| format!("bad MAC {s:?}"))
}

/// Writes `contents` to `path` atomically: the bytes go to a temporary
/// file in the same directory, which is then renamed over the target.
/// A crash mid-write leaves either the old file or the new one — never
/// a torn hybrid — because the rename is the only mutation of `path`
/// and renames within one directory are atomic on every platform the
/// workspace targets.
///
/// The temporary name is derived from the target name (`.{name}.tmp`),
/// so concurrent writers of *different* files never collide; the
/// workspace's checkpoint writers are single-threaded per target.
///
/// The rename is made durable too: the parent directory is synced
/// after it, so a power loss cannot take the new entry back.
///
/// # Errors
///
/// Any I/O failure creating, writing, syncing, or renaming the
/// temporary file, or syncing the directory. On failure before the
/// rename the target is untouched.
pub fn write_atomic(path: &std::path::Path, contents: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => std::path::Path::new("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(".tmp");
    let tmp = dir.join(tmp_name);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(contents)?;
    // The data must be durable before the rename publishes it: a
    // rename that survives a crash while the bytes behind it did not
    // would be exactly the torn checkpoint this helper exists to
    // prevent.
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    sync_dir(dir)
}

/// Syncs a directory, making the entries created or renamed in it
/// durable: fsync(2) on a file does not cover the directory entry that
/// names it.
pub(crate) fn sync_dir(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

impl StreamEngine {
    /// Serializes the engine's mutable state to the snapshot format.
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("window_s {}\n", hex(self.window_s)));
        out.push_str(&format!(
            "allowed_lag_s {}\n",
            hex(self.config.allowed_lag_s)
        ));
        out.push_str(&format!(
            "max_open_windows {}\n",
            self.config.max_open_windows
        ));
        match self.watermark {
            Some(mark) => out.push_str(&format!("watermark {}\n", hex(mark))),
            None => out.push_str("watermark none\n"),
        }
        match self.closed_before {
            Some(cb) => out.push_str(&format!("closed_before {cb}\n")),
            None => out.push_str("closed_before none\n"),
        }
        let s = &self.stats;
        out.push_str(&format!(
            "frames {} {} {} {}\n",
            s.frames_total, s.frames_relevant, s.frames_late, s.frames_malformed
        ));
        out.push_str(&format!(
            "windows {} {}\n",
            s.windows_closed, s.windows_evicted
        ));
        out.push_str(&format!("lp_solves {}\n", s.lp_solves));
        for ((w, mobile), gamma) in &self.open {
            let macs: Vec<String> = gamma.iter().map(|m| m.to_string()).collect();
            out.push_str(&format!("open {w} {mobile} {}\n", macs.join(",")));
        }
        if let Some(solver) = &self.solver {
            let stats = solver.stats();
            for m in stats.observed() {
                out.push_str(&format!("obs {m}\n"));
            }
            for (a, b) in stats.co_pairs() {
                out.push_str(&format!("co {a} {b}\n"));
            }
            for (m, n) in stats.seen_counts() {
                out.push_str(&format!("seen {m} {n}\n"));
            }
            out.push_str(&format!("stat_windows {}\n", stats.windows()));
            if let Some(radii) = solver.cached_radii() {
                for (m, r) in radii {
                    out.push_str(&format!("radius {m} {}\n", hex(*r)));
                }
                out.push_str("cached 1\n");
            } else {
                out.push_str("cached 0\n");
            }
        }
        // Truncation sentinel: every line between the header and here
        // is one record.
        let records = out.lines().count() - 1;
        out.push_str(&format!("end {records}\n"));
        let reg = marauder_obs::global();
        reg.counter_add("stream.snapshots", 1);
        reg.counter_add("stream.snapshot_bytes", out.len() as u64);
        out
    }

    /// Serializes the engine's state and writes it to `path` via
    /// [`write_atomic`], so a crash mid-write can never leave a
    /// half-written snapshot behind (the reader sees the previous
    /// snapshot or the new one, nothing in between).
    ///
    /// # Errors
    ///
    /// Any I/O failure from [`write_atomic`].
    pub fn snapshot_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        write_atomic(path, self.snapshot().as_bytes())
    }

    /// Rebuilds an engine from `map` (the same AP knowledge the
    /// snapshotted engine was built from) and a snapshot produced by
    /// [`snapshot`](Self::snapshot). Resuming ingestion from the
    /// snapshotted position yields output byte-identical to the
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on a malformed document, or when the
    /// snapshot's `window_s` does not match `map`'s (the windowing of
    /// the two engines would disagree).
    pub fn restore(map: MaraudersMap, text: &str) -> Result<StreamEngine, SnapshotError> {
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
        match lines.next() {
            Some((_, h)) if h.trim().starts_with(HEADER_PREFIX) => {
                let found = h.trim()[HEADER_PREFIX.len()..]
                    .parse::<u32>()
                    .map_err(|e| SnapshotError::new(1, format!("bad header version: {e}")))?;
                if found != SNAPSHOT_VERSION {
                    return Err(SnapshotError::VersionMismatch {
                        found,
                        supported: SNAPSHOT_VERSION,
                    });
                }
            }
            _ => return Err(SnapshotError::new(1, format!("missing header {HEADER:?}"))),
        }

        let mut window_s = None;
        let mut allowed_lag_s = None;
        let mut max_open_windows = None;
        let mut watermark = None;
        let mut closed_before = None;
        let mut stats = StreamStats::default();
        let mut open: BTreeMap<(i64, MacAddr), BTreeSet<MacAddr>> = BTreeMap::new();
        let mut observed: BTreeSet<MacAddr> = BTreeSet::new();
        let mut co: BTreeSet<(MacAddr, MacAddr)> = BTreeSet::new();
        let mut seen: BTreeMap<MacAddr, usize> = BTreeMap::new();
        let mut stat_windows = 0usize;
        let mut radii: BTreeMap<MacAddr, f64> = BTreeMap::new();
        let mut cached = false;
        let mut has_solver_lines = false;
        let mut records = 0usize;
        let mut end_seen = false;

        for (no, line) in lines {
            let fail = |reason: String| SnapshotError::new(no, reason);
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            if end_seen {
                return Err(fail("record after the end sentinel".into()));
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let args = &fields[1..];
            let expect = |n: usize| -> Result<(), SnapshotError> {
                if args.len() == n {
                    Ok(())
                } else {
                    Err(SnapshotError::new(
                        no,
                        format!("{} takes {n} fields, got {}", fields[0], args.len()),
                    ))
                }
            };
            match fields[0] {
                "window_s" => {
                    expect(1)?;
                    window_s = Some(unhex(args[0]).map_err(fail)?);
                }
                "allowed_lag_s" => {
                    expect(1)?;
                    allowed_lag_s = Some(unhex(args[0]).map_err(fail)?);
                }
                "max_open_windows" => {
                    expect(1)?;
                    max_open_windows =
                        Some(args[0].parse::<usize>().map_err(|e| fail(e.to_string()))?);
                }
                "watermark" => {
                    expect(1)?;
                    if args[0] != "none" {
                        watermark = Some(unhex(args[0]).map_err(fail)?);
                    }
                }
                "closed_before" => {
                    expect(1)?;
                    if args[0] != "none" {
                        closed_before =
                            Some(args[0].parse::<i64>().map_err(|e| fail(e.to_string()))?);
                    }
                }
                "frames" => {
                    expect(4)?;
                    stats.frames_total = args[0]
                        .parse()
                        .map_err(|e: std::num::ParseIntError| fail(e.to_string()))?;
                    stats.frames_relevant = args[1]
                        .parse()
                        .map_err(|e: std::num::ParseIntError| fail(e.to_string()))?;
                    stats.frames_late = args[2]
                        .parse()
                        .map_err(|e: std::num::ParseIntError| fail(e.to_string()))?;
                    stats.frames_malformed = args[3]
                        .parse()
                        .map_err(|e: std::num::ParseIntError| fail(e.to_string()))?;
                }
                "windows" => {
                    expect(2)?;
                    stats.windows_closed = args[0]
                        .parse()
                        .map_err(|e: std::num::ParseIntError| fail(e.to_string()))?;
                    stats.windows_evicted = args[1]
                        .parse()
                        .map_err(|e: std::num::ParseIntError| fail(e.to_string()))?;
                }
                "lp_solves" => {
                    expect(1)?;
                    stats.lp_solves = args[0]
                        .parse()
                        .map_err(|e: std::num::ParseIntError| fail(e.to_string()))?;
                }
                "open" => {
                    expect(3)?;
                    let w = args[0].parse::<i64>().map_err(|e| fail(e.to_string()))?;
                    let mobile = parse_mac(args[1]).map_err(fail)?;
                    let gamma: BTreeSet<MacAddr> = args[2]
                        .split(',')
                        .map(|m| parse_mac(m).map_err(&fail))
                        .collect::<Result<_, _>>()?;
                    if gamma.is_empty() {
                        return Err(fail("open window with empty gamma".into()));
                    }
                    open.insert((w, mobile), gamma);
                }
                "obs" => {
                    expect(1)?;
                    has_solver_lines = true;
                    observed.insert(parse_mac(args[0]).map_err(fail)?);
                }
                "co" => {
                    expect(2)?;
                    has_solver_lines = true;
                    let a = parse_mac(args[0]).map_err(&fail)?;
                    let b = parse_mac(args[1]).map_err(&fail)?;
                    co.insert((a, b));
                }
                "seen" => {
                    expect(2)?;
                    has_solver_lines = true;
                    let m = parse_mac(args[0]).map_err(&fail)?;
                    let n = args[1].parse::<usize>().map_err(|e| fail(e.to_string()))?;
                    seen.insert(m, n);
                }
                "stat_windows" => {
                    expect(1)?;
                    has_solver_lines = true;
                    stat_windows = args[0]
                        .parse()
                        .map_err(|e: std::num::ParseIntError| fail(e.to_string()))?;
                }
                "radius" => {
                    expect(2)?;
                    has_solver_lines = true;
                    let m = parse_mac(args[0]).map_err(&fail)?;
                    radii.insert(m, unhex(args[1]).map_err(fail)?);
                }
                "cached" => {
                    expect(1)?;
                    has_solver_lines = true;
                    cached = args[0] == "1";
                }
                "end" => {
                    expect(1)?;
                    let declared = args[0].parse::<usize>().map_err(|e| fail(e.to_string()))?;
                    if declared != records {
                        return Err(fail(format!(
                            "snapshot truncated: end sentinel declares {declared} \
                             records but {records} were read"
                        )));
                    }
                    end_seen = true;
                    continue;
                }
                other => return Err(fail(format!("unknown record {other:?}"))),
            }
            records += 1;
        }
        if !end_seen {
            return Err(SnapshotError::new(
                records + 1,
                "snapshot truncated: missing end sentinel",
            ));
        }

        let window_s = window_s.ok_or_else(|| SnapshotError::new(1, "missing window_s"))?;
        let allowed_lag_s =
            allowed_lag_s.ok_or_else(|| SnapshotError::new(1, "missing allowed_lag_s"))?;
        let max_open_windows =
            max_open_windows.ok_or_else(|| SnapshotError::new(1, "missing max_open_windows"))?;
        if window_s.to_bits() != map.config().window_s.to_bits() {
            return Err(SnapshotError::new(
                1,
                format!(
                    "snapshot window_s {} does not match the map's {}",
                    window_s,
                    map.config().window_s
                ),
            ));
        }

        // Live/warm mode flags are process configuration, not stream
        // state: they are not serialized, so the restored engine runs
        // with the defaults (callers can rebuild with their own config;
        // the warm basis memory legitimately restarts cold either way).
        let mut engine = StreamEngine::new(
            map,
            StreamConfig {
                allowed_lag_s,
                max_open_windows,
                ..StreamConfig::default()
            },
        );
        if let Some(solver) = engine.solver.as_mut() {
            let stats = ObservationStats::from_parts(observed, co, seen, stat_windows);
            let cache = cached.then(|| radii.clone());
            solver.restore(stats, cache);
            if cached {
                // Bring the map's interned discs in line with the
                // cached solution, exactly as the live path does.
                engine.map.apply_radii(radii);
            }
        } else if has_solver_lines {
            return Err(SnapshotError::new(
                1,
                "snapshot carries solver state but the map's knowledge level has no solver",
            ));
        }
        engine.open = open;
        engine.closed_before = closed_before;
        engine.watermark = watermark;
        engine.stats = stats;
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamConfig;
    use marauder_core::apdb::{ApDatabase, ApRecord};
    use marauder_core::pipeline::{AttackConfig, KnowledgeLevel};
    use marauder_geo::Point;
    use marauder_wifi::channel::Channel;
    use marauder_wifi::frame::Frame;
    use marauder_wifi::sniffer::CapturedFrame;
    use marauder_wifi::ssid::Ssid;

    fn mac(i: u64) -> MacAddr {
        MacAddr::from_index(i)
    }

    fn map(level: KnowledgeLevel) -> MaraudersMap {
        let db: ApDatabase = [
            (100u64, Point::new(0.0, 0.0)),
            (101, Point::new(100.0, 0.0)),
            (102, Point::new(50.0, 80.0)),
        ]
        .into_iter()
        .map(|(i, p)| ApRecord {
            bssid: mac(i),
            ssid: None,
            location: p,
            radius: (level == KnowledgeLevel::Full).then_some(120.0),
        })
        .collect();
        MaraudersMap::new(db, level, AttackConfig::default())
    }

    fn response(t: f64, ap: u64, mobile: u64) -> CapturedFrame {
        CapturedFrame {
            time_s: t,
            card: 0,
            frame: Frame::probe_response(
                mac(ap),
                mac(mobile),
                Ssid::new("x").unwrap(),
                Channel::bg(6).unwrap(),
            ),
        }
    }

    #[test]
    fn snapshot_restore_round_trips_mid_stream() {
        for level in [KnowledgeLevel::Full, KnowledgeLevel::LocationsOnly] {
            let frames: Vec<CapturedFrame> = (0..40)
                .map(|k| response(k as f64 * 7.0, 100 + (k % 3) as u64, 1 + (k % 2) as u64))
                .collect();
            // Uninterrupted run.
            let mut a = StreamEngine::new(map(level), StreamConfig::default());
            let mut a_events = Vec::new();
            for f in &frames {
                a_events.extend(a.push(f));
            }
            a_events.extend(a.finish());

            // Interrupted at frame 17: snapshot, drop, restore, resume.
            let mut b = StreamEngine::new(map(level), StreamConfig::default());
            let mut b_events = Vec::new();
            for f in &frames[..17] {
                b_events.extend(b.push(f));
            }
            let snap = b.snapshot();
            drop(b);
            let mut b = StreamEngine::restore(map(level), &snap).expect("own snapshot restores");
            for f in &frames[17..] {
                b_events.extend(b.push(f));
            }
            b_events.extend(b.finish());

            assert_eq!(a.stats(), b.stats(), "{level:?}: counters diverged");
            assert_eq!(a_events.len(), b_events.len());
            for (x, y) in a_events.iter().zip(&b_events) {
                assert_eq!(x.window, y.window);
                assert_eq!(x.mobile, y.mobile);
                assert_eq!(x.gamma, y.gamma);
                assert_eq!(x.estimate().is_some(), y.estimate().is_some());
                if let (Some(ex), Some(ey)) = (x.estimate(), y.estimate()) {
                    assert_eq!(ex.position.x.to_bits(), ey.position.x.to_bits());
                    assert_eq!(ex.position.y.to_bits(), ey.position.y.to_bits());
                }
            }
            // The final batch-equivalent fixes agree too.
            let fa = a.batch_fixes(a_events);
            let fb = b.batch_fixes(b_events);
            assert_eq!(fa.len(), fb.len());
            for (x, y) in fa.iter().zip(&fb) {
                assert_eq!(x.time_s.to_bits(), y.time_s.to_bits());
                assert_eq!(x.mobile, y.mobile);
                assert_eq!(
                    x.estimate.position.x.to_bits(),
                    y.estimate.position.x.to_bits()
                );
            }
        }
    }

    #[test]
    fn snapshot_of_fresh_engine_restores_fresh() {
        let engine = StreamEngine::new(map(KnowledgeLevel::LocationsOnly), StreamConfig::default());
        let snap = engine.snapshot();
        let restored = StreamEngine::restore(map(KnowledgeLevel::LocationsOnly), &snap).unwrap();
        assert_eq!(restored.stats(), engine.stats());
        assert_eq!(restored.open_windows(), 0);
        assert_eq!(restored.watermark(), None);
    }

    #[test]
    fn restore_rejects_garbage() {
        let m = || map(KnowledgeLevel::Full);
        assert_eq!(
            StreamEngine::restore(m(), "not a snapshot")
                .unwrap_err()
                .line(),
            1
        );
        let engine = StreamEngine::new(m(), StreamConfig::default());
        let snap = engine.snapshot();
        // Corrupt one line; the error names it (1-based).
        let bad: String = snap
            .lines()
            .map(|l| {
                if l.starts_with("watermark") {
                    "watermark zz".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = StreamEngine::restore(m(), &bad).unwrap_err();
        assert!(err.reason().contains("bad f64 bits"), "{}", err.reason());
        assert_eq!(err.line(), 5);
    }

    #[test]
    fn restore_rejects_truncated_snapshot() {
        let m = || map(KnowledgeLevel::LocationsOnly);
        let mut engine = StreamEngine::new(m(), StreamConfig::default());
        for k in 0u64..5 {
            engine.push(&response(k as f64 * 7.0, 100 + k % 3, 1));
        }
        let snap = engine.snapshot();

        // Crash mid-write: the end sentinel never made it to disk.
        let lines: Vec<&str> = snap.lines().collect();
        let cut = lines[..lines.len() - 1].join("\n");
        let err = StreamEngine::restore(m(), &cut).unwrap_err();
        assert!(
            err.reason().contains("missing end sentinel"),
            "{}",
            err.reason()
        );

        // An interior record went missing: the count disagrees.
        let holed: Vec<&str> = lines
            .iter()
            .copied()
            .filter(|l| !l.starts_with("open"))
            .collect();
        assert!(holed.len() < lines.len(), "an open record must exist");
        let err = StreamEngine::restore(m(), &holed.join("\n")).unwrap_err();
        assert!(err.reason().contains("truncated"), "{}", err.reason());

        // Trailing garbage after the sentinel is rejected too.
        let extra = format!("{snap}lp_solves 0\n");
        let err = StreamEngine::restore(m(), &extra).unwrap_err();
        assert!(
            err.reason().contains("after the end sentinel"),
            "{}",
            err.reason()
        );
    }

    #[test]
    fn restore_rejects_future_version_with_typed_error() {
        let m = || map(KnowledgeLevel::Full);
        let engine = StreamEngine::new(m(), StreamConfig::default());
        let snap = engine.snapshot();

        // A snapshot from a future build: same grammar, bumped version.
        let future = snap.replacen("snapshot v1", "snapshot v2", 1);
        assert_eq!(
            StreamEngine::restore(m(), &future).unwrap_err(),
            SnapshotError::VersionMismatch {
                found: 2,
                supported: SNAPSHOT_VERSION
            }
        );

        // A mangled version suffix is malformed, not a mismatch.
        let garbled = snap.replacen("snapshot v1", "snapshot vX", 1);
        let err = StreamEngine::restore(m(), &garbled).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Malformed { line: 1, .. }),
            "{err:?}"
        );
        assert!(
            err.reason().contains("bad header version"),
            "{}",
            err.reason()
        );
    }

    #[test]
    fn current_version_snapshot_round_trips_byte_exactly() {
        let m = || map(KnowledgeLevel::Full);
        let mut engine = StreamEngine::new(m(), StreamConfig::default());
        for k in 0u64..25 {
            engine.push(&response(k as f64 * 7.0, 100 + k % 3, 1 + k % 2));
        }
        let snap = engine.snapshot();
        assert!(snap.starts_with(HEADER), "header must lead the document");
        let restored = StreamEngine::restore(m(), &snap).expect("current version restores");
        assert_eq!(
            restored.snapshot(),
            snap,
            "re-snapshot must be byte-identical"
        );
    }

    #[test]
    fn restore_rejects_window_mismatch() {
        let engine = StreamEngine::new(map(KnowledgeLevel::Full), StreamConfig::default());
        let snap = engine.snapshot();
        // A map with a different window length must be rejected.
        let db: ApDatabase = [(100u64, Point::new(0.0, 0.0))]
            .into_iter()
            .map(|(i, p)| ApRecord {
                bssid: mac(i),
                ssid: None,
                location: p,
                radius: Some(120.0),
            })
            .collect();
        let other = MaraudersMap::new(
            db,
            KnowledgeLevel::Full,
            AttackConfig {
                window_s: 15.0,
                ..AttackConfig::default()
            },
        );
        let err = StreamEngine::restore(other, &snap).unwrap_err();
        assert!(err.reason().contains("window_s"), "{}", err.reason());
    }
}
