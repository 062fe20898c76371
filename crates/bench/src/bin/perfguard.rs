//! CI performance-regression guard.
//!
//! Compares freshly measured `marauder-criterion-v1` bench JSON against
//! the checked-in baselines under `results/` and exits non-zero when
//! any shared benchmark id has slowed down by more than the threshold
//! factor (median vs median). The threshold defaults to 3.0: CI runners
//! are noisy, share cores, and differ from the machine that recorded
//! the baselines, so the guard only catches order-of-magnitude
//! regressions (a dropped pruning pass, an accidental O(n^2) loop), not
//! percent-level drift.
//!
//! Usage:
//!
//! ```text
//! perfguard --baseline results --current perfguard-current \
//!           [--threshold 3.0] [--out perfguard-report.json]
//! ```
//!
//! Every `BENCH_*.json` in the baseline directory is paired with the
//! same filename in the current directory. Ids present on only one side
//! are reported but never fail the run: benches gain and lose cases
//! across PRs, and a quick CI pass may filter some out. A file that
//! does not parse as JSON, or whose `schema` is not
//! `marauder-criterion-v1`, stops the run (exit 2). The `--out`
//! artifact records one row per compared id so a regression can be
//! traced without re-running anything.

use marauder_obs::json::{self, Json, Layout};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DEFAULT_THRESHOLD: f64 = 3.0;

struct Args {
    baseline: PathBuf,
    current: PathBuf,
    threshold: f64,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut baseline = None;
    let mut current = None;
    let mut threshold = DEFAULT_THRESHOLD;
    let mut out = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline")?)),
            "--current" => current = Some(PathBuf::from(value("--current")?)),
            "--threshold" => {
                threshold = value("--threshold")?
                    .parse::<f64>()
                    .map_err(|e| format!("--threshold: {e}"))?;
                if !(threshold.is_finite() && threshold >= 1.0) {
                    return Err("--threshold must be a finite number >= 1.0".into());
                }
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or("--baseline <dir> is required")?,
        current: current.ok_or("--current <dir> is required")?,
        threshold,
        out,
    })
}

/// Extracts `id -> median_ns` from a `marauder-criterion-v1` document:
/// every object with a string `id` and a numeric `median_ns`, however
/// the records are laid out. A document that does not parse yields
/// nothing; [`compare_file`] rejects such a file before comparing.
fn parse_medians(text: &str) -> BTreeMap<String, f64> {
    fn walk(v: &Json, out: &mut BTreeMap<String, f64>) {
        let id = v.get("id").and_then(Json::as_str);
        if let (Some(id), Some(median)) = (id, v.get("median_ns").and_then(Json::as_num)) {
            out.insert(id.to_string(), median);
        }
        match v {
            Json::Obj(_, members) => members.iter().for_each(|(_, m)| walk(m, out)),
            Json::Arr(_, items) => items.iter().for_each(|m| walk(m, out)),
            _ => {}
        }
    }
    let mut out = BTreeMap::new();
    if let Ok(doc) = json::parse(text) {
        walk(&doc, &mut out);
    }
    out
}

/// The `host_cores` the exporter stamped into the document header, if
/// any (older baselines predate the field).
fn parse_host_cores(text: &str) -> Option<u64> {
    json::parse(text)
        .ok()?
        .get("host_cores")?
        .as_u64()
        .filter(|&n| n >= 1)
}

/// Whether `id` is a thread-scaling row at a thread count other than 1
/// (`.../threads/N`). Such rows measure how work divides across cores,
/// so their medians are only comparable between runs on hosts with the
/// same parallelism; the `threads/1` row stays comparable everywhere.
fn is_multi_thread_scaling_id(id: &str) -> bool {
    match id.rfind("/threads/") {
        Some(at) => id[at + "/threads/".len()..]
            .parse::<u64>()
            .map(|n| n != 1)
            .unwrap_or(false),
        None => false,
    }
}

struct Row {
    id: String,
    baseline_ns: f64,
    current_ns: f64,
    ratio: f64,
    regressed: bool,
}

struct FileReport {
    file: String,
    rows: Vec<Row>,
    only_baseline: Vec<String>,
    only_current: Vec<String>,
    /// Thread-scaling ids excluded because the baseline and current
    /// hosts expose different core counts.
    skipped_cross_core: Vec<String>,
    baseline_cores: Option<u64>,
    current_cores: Option<u64>,
}

/// Compares two already-read `marauder-criterion-v1` documents. When
/// the hosts' core counts are known and differ, `/threads/N` (N > 1)
/// rows are skipped rather than compared: thread-scaling medians from
/// a 1-core container say nothing about an 8-core baseline's, and a
/// false "regression" there would teach people to ignore the guard.
fn compare_docs(file: &str, base_text: &str, cur_text: &str, threshold: f64) -> FileReport {
    let base_cores = parse_host_cores(base_text);
    let cur_cores = parse_host_cores(cur_text);
    let cross_core = matches!((base_cores, cur_cores), (Some(b), Some(c)) if b != c);
    let base = parse_medians(base_text);
    let cur = parse_medians(cur_text);
    let mut rows = Vec::new();
    let mut only_baseline = Vec::new();
    let mut skipped_cross_core = Vec::new();
    for (id, &b) in &base {
        match cur.get(id) {
            Some(_) if cross_core && is_multi_thread_scaling_id(id) => {
                skipped_cross_core.push(id.clone());
            }
            Some(&c) if b > 0.0 => {
                let ratio = c / b;
                rows.push(Row {
                    id: id.clone(),
                    baseline_ns: b,
                    current_ns: c,
                    ratio,
                    regressed: ratio > threshold,
                });
            }
            Some(_) => {}
            None => only_baseline.push(id.clone()),
        }
    }
    let only_current = cur
        .keys()
        .filter(|id| !base.contains_key(*id))
        .cloned()
        .collect();
    FileReport {
        file: file.to_string(),
        rows,
        only_baseline,
        only_current,
        skipped_cross_core,
        baseline_cores: base_cores,
        current_cores: cur_cores,
    }
}

fn compare_file(
    file: &str,
    baseline: &Path,
    current: &Path,
    threshold: f64,
) -> Result<FileReport, String> {
    let read = |dir: &Path| -> Result<String, String> {
        let path = dir.join(file);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: not JSON: {e}", path.display()))?;
        if doc.get("schema").and_then(Json::as_str) != Some("marauder-criterion-v1") {
            return Err(format!(
                "{}: not a marauder-criterion-v1 file",
                path.display()
            ));
        }
        Ok(text)
    };
    let base_text = read(baseline)?;
    let cur_text = read(current)?;
    Ok(compare_docs(file, &base_text, &cur_text, threshold))
}

fn render_report(reports: &[FileReport], threshold: f64, regressions: usize) -> String {
    let files = reports.iter().map(|r| {
        let rows = r.rows.iter().map(|row| {
            let status = if row.regressed { "regressed" } else { "ok" };
            let members = [
                ("id", row.id.as_str().into()),
                (
                    "baseline_median_ns",
                    Json::Num(format!("{:.2}", row.baseline_ns)),
                ),
                (
                    "current_median_ns",
                    Json::Num(format!("{:.2}", row.current_ns)),
                ),
                ("ratio", Json::Num(format!("{:.4}", row.ratio))),
                ("status", status.into()),
            ];
            Json::obj(Layout::Inline, members)
        });
        let ids = |ids: &[String]| Json::arr(Layout::Inline, ids.iter().map(String::as_str));
        let members = [
            ("file", r.file.as_str().into()),
            ("baseline_host_cores", r.baseline_cores.into()),
            ("current_host_cores", r.current_cores.into()),
            ("rows", Json::arr(Layout::Block, rows)),
            ("only_in_baseline", ids(&r.only_baseline)),
            ("only_in_current", ids(&r.only_current)),
            ("skipped_cross_core", ids(&r.skipped_cross_core)),
        ];
        Json::obj(Layout::Block, members)
    });
    let compared: usize = reports.iter().map(|r| r.rows.len()).sum();
    let doc = Json::obj(
        Layout::Block,
        [
            ("schema", "marauder-perfguard-v1".into()),
            ("threshold", threshold.into()),
            ("compared", compared.into()),
            ("regressions", regressions.into()),
            ("files", Json::arr(Layout::Block, files)),
        ],
    );
    doc.render()
}

fn run(args: &Args) -> Result<usize, String> {
    let mut files: Vec<String> = std::fs::read_dir(&args.baseline)
        .map_err(|e| format!("{}: {e}", args.baseline.display()))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines in {}",
            args.baseline.display()
        ));
    }
    let mut reports = Vec::new();
    for file in &files {
        if !args.current.join(file).exists() {
            eprintln!("perfguard: skipping {file}: no current measurement");
            continue;
        }
        reports.push(compare_file(
            file,
            &args.baseline,
            &args.current,
            args.threshold,
        )?);
    }
    if reports.is_empty() {
        return Err(format!(
            "no current measurements in {} match any baseline",
            args.current.display()
        ));
    }
    let mut regressions = 0;
    for report in &reports {
        for row in &report.rows {
            let status = if row.regressed {
                regressions += 1;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{status:<9} {:<55} baseline {:>12.0} ns  current {:>12.0} ns  x{:.2}",
                row.id, row.baseline_ns, row.current_ns, row.ratio
            );
        }
        for id in &report.skipped_cross_core {
            println!(
                "SKIPPED   {id:<55} thread-scaling row; hosts differ ({} vs {} cores)",
                report
                    .baseline_cores
                    .map_or("?".to_string(), |n| n.to_string()),
                report
                    .current_cores
                    .map_or("?".to_string(), |n| n.to_string()),
            );
        }
        for id in &report.only_baseline {
            eprintln!(
                "perfguard: {}: '{id}' missing from current run",
                report.file
            );
        }
        for id in &report.only_current {
            eprintln!("perfguard: {}: '{id}' has no baseline yet", report.file);
        }
    }
    if let Some(out) = &args.out {
        let doc = render_report(&reports, args.threshold, regressions);
        std::fs::write(out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
        eprintln!("perfguard: wrote {}", out.display());
    }
    Ok(regressions)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfguard: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(0) => {
            println!("perfguard: no regressions beyond {}x", args.threshold);
            ExitCode::SUCCESS
        }
        Ok(n) => {
            eprintln!(
                "perfguard: {n} benchmark(s) regressed beyond {}x the checked-in median",
                args.threshold
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfguard: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_exporter_lines() {
        let doc = "{\n  \"schema\": \"marauder-criterion-v1\",\n  \"results\": [\n    \
                   {\"id\":\"lp/cold/16\",\"mean_ns\":10.0,\"median_ns\":81347.79,\"min_ns\":1.0,\
                   \"max_ns\":2.0,\"iters_per_sample\":3,\"samples\":10}\n  ]\n}\n";
        let medians = parse_medians(doc);
        assert_eq!(medians.len(), 1);
        assert_eq!(medians["lp/cold/16"], 81347.79);
    }

    #[test]
    fn skips_lines_without_fields() {
        let medians = parse_medians("{\"schema\": \"x\"}\nnot json\n");
        assert!(medians.is_empty());
    }

    #[test]
    fn negative_and_integer_medians_parse() {
        let medians = parse_medians("{\"id\":\"a\",\"median_ns\":42}");
        assert_eq!(medians["a"], 42.0);
    }

    #[test]
    fn host_cores_parses_and_tolerates_absence() {
        assert_eq!(
            parse_host_cores("{\n  \"host_cores\": 8,\n  \"results\": []\n}"),
            Some(8)
        );
        assert_eq!(parse_host_cores("{\n  \"results\": []\n}"), None);
        // A nonsense value never becomes a core count.
        assert_eq!(parse_host_cores("{\"host_cores\": 0}"), None);
    }

    #[test]
    fn thread_scaling_ids_are_recognised() {
        assert!(is_multi_thread_scaling_id("pipeline/track_all/threads/8"));
        assert!(is_multi_thread_scaling_id("stream/replay_fixes/threads/2"));
        assert!(!is_multi_thread_scaling_id("pipeline/track_all/threads/1"));
        assert!(!is_multi_thread_scaling_id("lp/cold_solve/sparse/16"));
        assert!(!is_multi_thread_scaling_id("serve/threads/not-a-number"));
    }

    fn doc(cores: Option<u64>, rows: &[(&str, f64)]) -> String {
        let header = match cores {
            Some(n) => format!("  \"host_cores\": {n},\n"),
            None => String::new(),
        };
        let body: Vec<String> = rows
            .iter()
            .map(|(id, m)| format!("    {{\"id\":\"{id}\",\"median_ns\":{m}}}"))
            .collect();
        format!(
            "{{\n  \"schema\": \"marauder-criterion-v1\",\n{header}  \"results\": [\n{}\n  ]\n}}\n",
            body.join(",\n")
        )
    }

    #[test]
    fn cross_core_runs_skip_multi_thread_rows_only() {
        let base = doc(
            Some(8),
            &[
                ("pipe/threads/1", 100.0),
                ("pipe/threads/4", 100.0),
                ("lp/solve", 100.0),
            ],
        );
        // Same ids, wildly slower, measured on a 1-core host: only the
        // multi-thread row is excused; the others still regress.
        let cur = doc(
            Some(1),
            &[
                ("pipe/threads/1", 1000.0),
                ("pipe/threads/4", 1000.0),
                ("lp/solve", 1000.0),
            ],
        );
        let report = compare_docs("BENCH_x.json", &base, &cur, 3.0);
        assert_eq!(report.skipped_cross_core, vec!["pipe/threads/4"]);
        let compared: Vec<&str> = report.rows.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(compared, vec!["lp/solve", "pipe/threads/1"]);
        assert!(report.rows.iter().all(|r| r.regressed));
        assert_eq!(report.baseline_cores, Some(8));
        assert_eq!(report.current_cores, Some(1));
    }

    #[test]
    fn records_spanning_lines_read_like_one_line_records() {
        let compact = doc(Some(4), &[("lp/solve", 120.5), ("pipe/threads/4", 9e3)]);
        let pretty = "{\n  \"schema\": \"marauder-criterion-v1\",\n  \"host_cores\":\n    4,\n  \
                      \"results\": [\n    {\n      \"id\": \"lp/solve\",\n      \
                      \"median_ns\": 120.5\n    },\n    {\n      \"id\":\n        \
                      \"pipe/threads/4\",\n      \"median_ns\": 9000\n    }\n  ]\n}\n";
        assert_eq!(parse_medians(pretty).len(), 2);
        assert_eq!(parse_medians(pretty), parse_medians(&compact));
        assert_eq!(parse_host_cores(pretty), Some(4));
        assert_eq!(parse_host_cores(pretty), parse_host_cores(&compact));
    }

    #[test]
    fn unreadable_documents_are_errors_that_name_the_file() {
        let dir = std::env::temp_dir().join(format!("perfguard-unreadable-{}", std::process::id()));
        let (base, cur) = (dir.join("baseline"), dir.join("current"));
        for d in [&base, &cur] {
            std::fs::create_dir_all(d).expect("scratch dir");
        }
        let full = doc(Some(2), &[("lp/solve", 100.0), ("lp/warm", 50.0)]);
        std::fs::write(base.join("BENCH_x.json"), &full).expect("write baseline");
        let foreign = "{\"schema\": \"other\", \"note\": \"marauder-criterion-v1\"}";
        for bad in [&full[..full.len() / 2], foreign] {
            std::fs::write(cur.join("BENCH_x.json"), bad).expect("write current");
            let err = compare_file("BENCH_x.json", &base, &cur, 3.0)
                .err()
                .unwrap_or_else(|| panic!("accepted {bad:?}"));
            assert!(err.contains("BENCH_x.json"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn matching_or_unknown_cores_compare_everything() {
        for (b, c) in [(Some(4), Some(4)), (None, Some(1)), (None, None)] {
            let base = doc(b, &[("pipe/threads/4", 100.0)]);
            let cur = doc(c, &[("pipe/threads/4", 100.0)]);
            let report = compare_docs("BENCH_x.json", &base, &cur, 3.0);
            assert!(
                report.skipped_cross_core.is_empty(),
                "cores {b:?}/{c:?} must not skip"
            );
            assert_eq!(report.rows.len(), 1);
        }
    }
}
