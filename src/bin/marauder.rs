//! `marauder` — the Digital Marauder's Map as a command-line tool.
//!
//! ```text
//! marauder simulate --seed 7 --aps 120 --mobiles 8 --duration 600 --out-dir run1
//! marauder attack   --knowledge run1/aps.csv --captures run1/capture.log --geojson run1/map.geojson
//! marauder attack   --knowledge run1/aps.csv --captures run1/capture.log --level locations
//! marauder attack   --training run1/training.csv --captures run1/capture.log --level none
//! marauder replay   run1/capture.log --knowledge run1/aps.csv --speed 10
//! marauder replay   run1/capture.log --knowledge run1/aps.csv --journal run1/wal
//! marauder recover  run1/wal --knowledge run1/aps.csv
//! marauder stats    run1/capture.log --knowledge run1/aps.csv --level locations
//! marauder chaos    --seed 7 --faults drop:0.2,reorder:5 --out chaos.json
//! marauder crash    --scenario quick --seed 7 --out crash.json
//! marauder link     --captures run1/capture.log
//! marauder report   --knowledge run1/aps.csv --captures run1/capture.log
//! ```
//!
//! `simulate` produces a knowledge database (`aps.csv`), a wardriving
//! training set (`training.csv`), a portable capture log
//! (`capture.log`) and the ground truth (`truth.csv`) for scoring.
//! `attack` replays the localization attack on those files at any of the
//! paper's three knowledge levels; `replay` streams the same capture
//! through the live tracking engine, printing each fix the moment its
//! window closes; `chaos` injects a deterministic fault plan into a
//! simulated capture and emits a JSON degradation report; `link`
//! clusters MAC pseudonyms by their probe fingerprints.

use marauders_map::core::apdb::ApDatabase;
use marauders_map::core::eval::nearest_in_time;
use marauders_map::core::map::MapBuilder;
use marauders_map::core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap};
use marauders_map::core::pseudonym::PseudonymLinker;
use marauders_map::fault::{
    crash_sweep, default_matrix, ChaosScenario, CrashSweepConfig, FaultPlan,
};
use marauders_map::geo::Point;
use marauders_map::net::chaos::run_default_matrix;
use marauders_map::net::tcp::{run_node, serve_with, RetryConfig};
use marauders_map::net::{
    required_slack_s, restore_latest, split_by_time, split_round_robin, Aggregator, FleetConfig,
    LoopbackFleet, NodeConfig, SnifferNode,
};
use marauders_map::serve::{
    chaos::{run_chaos, ChaosConfig},
    loadgen::{run_bench, LoadgenConfig},
    PublisherConfig, ServeConfig, TrackerPublisher,
};
use marauders_map::sim::deploy::Rect;
use marauders_map::sim::mobility::CircuitWalk;
use marauders_map::sim::scenario::CampusScenario;
use marauders_map::sim::wardrive::{training_from_csv, training_to_csv, wardrive, WardriveRoute};
use marauders_map::stream::{
    CapturedFrame, ClosedWindow, ErrorBudget, FrameJournal, JournalConfig, JournaledEngine, Pacer,
    PollBackoff, StreamConfig, StreamEngine, TrackFix,
};
use marauders_map::wifi::capture_log::{
    capture_log_frames, parse_capture_log, write_capture_log, LineDecoder, ParseLogError,
};
use marauders_map::wifi::device::{MobileStation, OsProfile};
use marauders_map::wifi::mac::MacAddr;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Requested help is a success, not a usage mistake: print the usage
    // on stdout and exit 0. (Running with no command at all still lands
    // in the error path below — exit 2 stays reserved for mistakes.)
    if args.iter().any(|a| a == "--help" || a == "-h") || args.first().is_some_and(|a| a == "help")
    {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match run(cmd, rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(cmd: &str, rest: &[String]) -> Result<(), CliError> {
    // `replay`, `stats`, `fleet`, `node` and `serve` accept the capture
    // log as a positional argument (`marauder replay run1/capture.log`);
    // `recover` takes the journal directory the same way; everything
    // else is flags.
    let takes_positional = matches!(
        cmd,
        "replay" | "stats" | "fleet" | "node" | "recover" | "serve"
    );
    let (positional, rest) = match rest.split_first() {
        Some((p, more)) if takes_positional && !p.starts_with("--") => (Some(p.clone()), more),
        _ => (None, rest),
    };
    let mut opts = parse_opts(rest)?;
    if let Some(arg) = positional {
        let key = if cmd == "recover" {
            "journal"
        } else {
            "captures"
        };
        opts.entry(key.to_string()).or_insert(arg);
    }
    // Worker count for the parallel campaign engine: default all cores,
    // `--threads 1` forces the sequential path (output is identical
    // either way).
    marauders_map::par::set_threads(get_num(&opts, "threads", 0usize)?);
    match cmd {
        "simulate" => simulate(&opts),
        "attack" => attack(&opts),
        "replay" => replay(&opts),
        "recover" => recover(&opts),
        "stats" => stats(&opts),
        "chaos" => chaos(&opts),
        "crash" => crash(&opts),
        "fleet" => fleet(&opts),
        "node" => node(&opts),
        "serve" => serve_cmd(&opts),
        "link" => link(&opts),
        "report" => report(&opts),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }?;
    // `--metrics FILE` on any command dumps the global registry after
    // the run — deterministic counter/gauge/histogram sections first,
    // timings under the trailing "nondeterministic" key.
    if let Some(path) = opts.get("metrics") {
        write(Path::new(path), &marauders_map::obs::global().to_json())?;
        eprintln!("wrote metrics to {path}");
    }
    Ok(())
}

/// How a command failed. `main` asks one question of it: was this a
/// usage mistake (usage text, exit 2) or a runtime failure (exit 1)?
#[derive(Debug)]
enum CliError {
    /// A command-line mistake: unknown flag or command, bad flag value.
    Usage(String),
    /// Everything else: I/O, malformed input, a library error.
    Failed(String),
}

/// Any library error, and any bare message, is a runtime failure.
impl<E: Into<Box<dyn std::error::Error>>> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError::Failed(e.into().to_string())
    }
}

const USAGE: &str = "usage:
  marauder simulate [--seed N] [--aps N] [--mobiles N] [--duration SECS] --out-dir DIR
  marauder attack --captures FILE (--knowledge FILE | --training FILE)
                  [--level full|locations|none] [--geojson FILE] [--truth FILE]
  marauder replay LOG (--knowledge FILE | --training FILE)
                  [--level full|locations|none] [--speed N] [--lag SECS]
                  [--error-budget N] [--follow]
                  [--journal DIR] [--checkpoint-every FRAMES]
  marauder recover DIR (--knowledge FILE | --training FILE) [--level L]
  marauder stats LOG (--knowledge FILE | --training FILE)
                 [--level full|locations|none] [--error-budget N]
  marauder chaos [--seed N] [--fault-seed N] [--scenario quick|fig13]
                 [--faults SPEC] [--out FILE]
  marauder crash [--scenario quick|fig13] [--seed N] [--stride N]
                 [--checkpoint-every FRAMES] [--torn-bytes K]
                 [--torn-header-bytes K] [--dir DIR] [--out FILE]
  marauder fleet LOG (--knowledge FILE | --training FILE) [--level L]
                 [--loopback N] [--split rr|time] [--faults SPEC]
                 [--fault-seed N]
  marauder fleet --listen ADDR --nodes N (--knowledge FILE | ...)
                 [--idle-timeout SECS]
                 [--checkpoint-dir DIR] [--checkpoint-every SECS]
  marauder fleet --chaos [--scenario quick|fig13] [--seed N]
                 [--fault-seed N] [--nodes N] [--out FILE]
  marauder node LOG --connect ADDR [--node-id K] [--offset SECS]
                [--batch N] [--slack SECS] [--retries N]
  marauder serve LOG (--knowledge FILE | --training FILE) [--level L]
                 [--listen ADDR] [--speed N] [--lag SECS]
                 [--snapshot-every SECS] [--linger SECS] [--error-budget N]
  marauder serve --bench [--seed N] [--clients N] [--requests N]
                 [--frames N] [--readers N] [--max-slowdown F] [--out FILE]
  marauder serve --chaos [--seed N] [--repeats N] [--out FILE]
  marauder link --captures FILE
  marauder report --knowledge FILE --captures FILE
  marauder help | --help | -h

  replay streams the capture through the live tracking engine, printing
  each fix as its window closes. --speed N paces the replay at N times
  real time (0, the default, replays as fast as possible); --follow
  keeps tailing the log for appended frames, like tail -f (a live
  tail cannot run \"as fast as possible\", so --follow rejects an
  explicit --speed 0);
  --error-budget N tolerates up to N malformed log lines (skipped
  deterministically and reported), --follow included, before
  aborting; a bad header line is never covered. --journal DIR
  write-ahead journals every frame before it is ingested and
  checkpoints every --checkpoint-every frames (default 1024; 0 writes
  none, not even the final one); rerun the same command after a crash
  and the replay resumes exactly where it died, printing only the
  fixes the dead process never reached. The resume refuses a log that
  differs from the journaled frames or ends before them.

  recover rebuilds the engine from a write-ahead journal directory
  (newest valid checkpoint + tail replay; a torn final record is
  truncated, not an error) and prints the batch fixes for everything
  the journal holds.

  crash proves crash equivalence by brute force: at every --stride-th
  frame boundary it kills a journaled ingestion run, recovers,
  resumes, and compares the final fixes byte-for-byte against the
  uninterrupted run (plus, at each boundary, a --torn-bytes torn-write
  companion and a --torn-header-bytes torn-segment-header companion).
  JSON report to stdout or --out FILE; nonzero exit on any mismatch.

  chaos injects deterministic faults into a simulated capture and
  reports how the attack degrades, as JSON (stdout, or --out FILE).
  --faults is a comma-separated plan like drop:0.2,reorder:5 (kinds:
  drop:P burst:PE:PX dup:P reorder:D jitter:S skew:O bitflip:P
  apflap:T carddrop:T truncate:F crash:N tornwrite:K); without --faults
  the full 12-kind x 3-intensity matrix runs.

  fleet merges a capture log across N sniffer nodes into one tracked
  stream. --loopback N runs the whole fleet in-process over the
  deterministic transport (--split rr interleaves frames round-robin,
  time hands each node a contiguous shift; --faults corrupts every
  node's slice with a per-node sub-seeded plan); --listen ADDR serves
  real TCP nodes started with `marauder node`: it holds two connections
  per expected node and closes any more at once, closes a connection
  that sends no hello within --idle-timeout, and refuses a hello from a
  new node id once --nodes ids have joined; --chaos runs the per-node
  fault matrix against a simulated capture and emits a JSON report
  verifying the merge is byte-identical to a single stream.
  --checkpoint-dir DIR makes a --listen fleet durable: the aggregator
  checkpoints atomically every --checkpoint-every seconds of stream
  time (default 30) and, on restart, restores the newest valid
  checkpoint — reconnecting nodes fast-forward past everything it
  already absorbed, so a mid-campaign kill loses no closed windows.

  node streams a capture log to a TCP fleet aggregator, batching
  frames and reconnecting with bounded exponential backoff. --offset
  declares the node's clock skew so the aggregator can correct its
  watermark; --slack widens the out-of-order tolerance it promises.

  serve ingests a capture log through the live tracking engine and
  exposes the evolving tracker state over HTTP: /track/<mac> (CSV, or
  ?format=json), /tiles?bbox=x0,y0,x1,y1 (GeoJSON), /snapshot (engine
  snapshot document), /metrics, /healthz. Readers never block ingestion —
  the engine publishes immutable snapshots onto a lock-free-reader
  plane. --listen defaults to 127.0.0.1:8646 (use :0 for an ephemeral
  port; the bound address is printed first on stdout); --speed paces
  ingest like replay (default 1, real time; 0 ingests instantly);
  --snapshot-every sets the /snapshot regeneration cadence in stream
  seconds; --linger exits that many wall seconds after the log is
  drained (default: serve until interrupted). `serve --bench` runs the
  deterministic loopback load generator (closed-loop req/s + p50/p99,
  then the paced-ingest interference pair), emits the
  marauder-serve-bench-v1 JSON, and exits nonzero on any failed request
  or a slowdown over --max-slowdown; `serve --chaos` plays the misbehaving-
  client matrix (slow-loris, mid-request disconnect, garbage,
  oversized) and exits nonzero unless every cell got its typed 4xx (or
  quiet drop), every misbehaviour was counted, and the server stayed
  healthy.

  stats replays the capture through the streaming engine and prints
  the metrics registry as JSON: deterministic counters, gauges and
  histograms first (byte-identical at any --threads value), timings
  and scheduling counters under a trailing \"nondeterministic\" key.

  every command also accepts --threads N (worker threads; default all
  cores, 1 forces the sequential path — results are identical) and
  --metrics FILE (dump the same metrics JSON after the run)";

type Opts = HashMap<String, String>;

/// Flags that stand alone instead of taking a value.
const BOOL_FLAGS: &[&str] = &["follow", "chaos", "bench"];

fn parse_opts(args: &[String]) -> Result<Opts, CliError> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| CliError::Usage(format!("expected --flag, got {flag:?}")))?;
        if BOOL_FLAGS.contains(&key) {
            out.insert(key.to_string(), String::new());
            continue;
        }
        let val = it
            .next()
            .ok_or_else(|| CliError::Usage(format!("flag --{key} needs a value")))?;
        out.insert(key.to_string(), val.clone());
    }
    Ok(out)
}

fn get_num<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    match opts.get(key) {
        Some(v) => v
            .parse()
            .map_err(|e| CliError::Usage(format!("bad --{key}: {e}"))),
        None => Ok(default),
    }
}

/// A seconds-valued flag: finite, and above zero when `positive`, at
/// least zero otherwise.
fn get_secs(opts: &Opts, key: &str, default: f64, positive: bool) -> Result<f64, CliError> {
    let secs: f64 = get_num(opts, key, default)?;
    if secs.is_finite() && (secs > 0.0 || !positive && secs >= 0.0) {
        return Ok(secs);
    }
    let want = if positive {
        "a positive number of seconds"
    } else {
        "a finite number >= 0"
    };
    Err(CliError::Usage(format!("--{key} must be {want}")))
}

/// The `--scenario quick|fig13` campaign at `seed`.
fn scenario(opts: &Opts, default: &str, seed: u64) -> Result<ChaosScenario, CliError> {
    match opts.get("scenario").map_or(default, String::as_str) {
        "quick" => Ok(ChaosScenario::quick(seed)),
        "fig13" => Ok(ChaosScenario::fig13(seed)),
        other => Err(CliError::Usage(format!(
            "unknown --scenario {other:?} (quick|fig13)"
        ))),
    }
}

/// Writes a report to `--out FILE`, or to stdout without one.
fn emit(opts: &Opts, report: &str) -> Result<(), CliError> {
    match opts.get("out") {
        Some(path) => {
            write(Path::new(path), report)?;
            eprintln!("wrote {path}");
        }
        None => print!("{report}"),
    }
    Ok(())
}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Failed(format!("cannot read {path}: {e}")))
}

fn write(path: &Path, content: &str) -> Result<(), CliError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| CliError::Failed(format!("cannot create {}: {e}", parent.display())))?;
    }
    std::fs::write(path, content)
        .map_err(|e| CliError::Failed(format!("cannot write {}: {e}", path.display())))
}

fn simulate(opts: &Opts) -> Result<(), CliError> {
    let out_dir = PathBuf::from(opts.get("out-dir").ok_or("simulate requires --out-dir")?);
    let seed: u64 = get_num(opts, "seed", 1)?;
    let aps: usize = get_num(opts, "aps", 120)?;
    let mobiles: usize = get_num(opts, "mobiles", 8)?;
    let duration: f64 = get_num(opts, "duration", 600.0)?;

    let victim = MobileStation::new(MacAddr::from_index(0xFACE), OsProfile::MacOs);
    let victim_mac = victim.mac;
    let scenario = CampusScenario::builder()
        .seed(seed)
        .region_half_width(350.0)
        .num_aps(aps)
        .num_mobiles(mobiles)
        .duration_s(duration)
        .mobile(
            victim,
            Box::new(CircuitWalk::new(Point::ORIGIN, 150.0, 1.4)),
        )
        .build();
    eprintln!("simulating: {aps} APs, {mobiles}+1 mobiles, {duration} s (seed {seed})");
    let result = scenario.run();
    let link = scenario.link_model();

    let db = ApDatabase::from_access_points(&result.aps, result.environment_margin);
    write(&out_dir.join("aps.csv"), &db.to_csv())?;
    write(
        &out_dir.join("capture.log"),
        &write_capture_log(&result.captures),
    )?;
    let route = WardriveRoute::lawnmower(Rect::centered_square(380.0), 8, 12.0, 10.0);
    let training = wardrive(&route, &result.aps, &link);
    write(&out_dir.join("training.csv"), &training_to_csv(&training))?;
    let mut truth = String::from("time_s,mobile,x,y\n");
    for g in &result.ground_truth {
        truth.push_str(&format!(
            "{:.3},{},{:.3},{:.3}\n",
            g.time_s, g.mobile, g.position.x, g.position.y
        ));
    }
    write(&out_dir.join("truth.csv"), &truth)?;

    eprintln!(
        "wrote {}/: aps.csv ({} APs), capture.log ({} frames), training.csv ({} tuples), truth.csv",
        out_dir.display(),
        db.len(),
        result.captures.len(),
        training.len()
    );
    eprintln!("victim MAC: {victim_mac}");
    Ok(())
}

/// Builds the attacker's map from `--knowledge`/`--training` at the
/// requested `--level`, before any captures are ingested. Shared by
/// `attack` (batch) and `replay` (streaming); returns the level name
/// for log lines.
fn build_map(opts: &Opts) -> Result<(MaraudersMap, String), CliError> {
    let level = opts
        .get("level")
        .map(String::as_str)
        .unwrap_or("full")
        .to_string();
    let config = AttackConfig::default();
    let map = match level.as_str() {
        "full" | "locations" => {
            let db = ApDatabase::from_csv(&read(
                opts.get("knowledge")
                    .ok_or("levels full/locations require --knowledge")?,
            )?)?;
            if level == "full" {
                if !db.has_all_radii() {
                    return Err("knowledge lacks radii; use --level locations (AP-Rad)".into());
                }
                MaraudersMap::new(db, KnowledgeLevel::Full, config)
            } else {
                MaraudersMap::new(db.without_radii(), KnowledgeLevel::LocationsOnly, config)
            }
        }
        "none" => {
            let training = training_from_csv(&read(
                opts.get("training")
                    .ok_or("level none requires --training")?,
            )?)?;
            MaraudersMap::from_training(&training, config)
        }
        other => return Err(CliError::Usage(format!("unknown --level {other:?}"))),
    };
    Ok((map, level))
}

fn attack(opts: &Opts) -> Result<(), CliError> {
    let captures = parse_capture_log(&read(
        opts.get("captures").ok_or("attack requires --captures")?,
    )?)?;
    let (mut map, level) = build_map(opts)?;
    map.ingest(&captures);

    let fixes = map.track_all(&captures);
    print_fixes(&fixes)?;
    eprintln!(
        "{} fixes across {} mobiles (knowledge level: {level})",
        fixes.len(),
        fixes
            .iter()
            .map(|f| f.mobile)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    );

    // Optional scoring against ground truth, at each window's centre.
    if let Some(truth_path) = opts.get("truth") {
        let text = read(truth_path)?;
        let mut truth: Vec<(f64, MacAddr, Point)> = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if i == 0 || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 4 {
                return Err(CliError::Failed(format!(
                    "truth.csv line {}: expected 4 fields",
                    i + 1
                )));
            }
            truth.push((
                f[0].parse().map_err(|e| format!("bad time: {e}"))?,
                f[1].parse().map_err(|e| format!("bad mac: {e}"))?,
                Point::new(
                    f[2].parse().map_err(|e| format!("bad x: {e}"))?,
                    f[3].parse().map_err(|e| format!("bad y: {e}"))?,
                ),
            ));
        }
        let half_window = map.config().window_s / 2.0;
        let errors: Vec<f64> = fixes
            .iter()
            .filter_map(|fix| {
                let rows = truth.iter().filter(|(_, m, _)| *m == fix.mobile);
                let (_, _, pos) = nearest_in_time(rows, fix.time_s + half_window, |r| r.0)?;
                Some(fix.estimate.position.distance(*pos))
            })
            .collect();
        if !errors.is_empty() {
            eprintln!(
                "mean error vs ground truth: {:.1} m over {} scored fixes",
                errors.iter().sum::<f64>() / errors.len() as f64,
                errors.len()
            );
        }
    }

    if let Some(geo_path) = opts.get("geojson") {
        let mut geo = MapBuilder::planar();
        for fix in &fixes {
            geo.add_fix(fix);
        }
        write(Path::new(geo_path), &geo.finish())?;
        eprintln!("wrote {geo_path}");
    }
    Ok(())
}

/// Streams a capture log through the live tracking engine, printing
/// each fix the moment its observation window closes.
fn replay(opts: &Opts) -> Result<(), CliError> {
    let path = opts
        .get("captures")
        .ok_or("replay requires a capture log (positional or --captures)")?
        .clone();
    let speed = get_secs(opts, "speed", 0.0, false)?;
    // `--speed 0` means "as fast as possible", which a live tail can
    // never satisfy: the follower would chew through each poll instantly
    // and spin on the file forever. Explicitly asking for both is a
    // contradiction, not a replay.
    if opts.contains_key("follow") && opts.contains_key("speed") && speed == 0.0 {
        return Err(CliError::Usage(
            "--follow cannot be paced at --speed 0; pass a positive rate or drop --speed".into(),
        ));
    }
    let lag = get_secs(opts, "lag", StreamConfig::default().allowed_lag_s, false)?;
    let mut budget = ErrorBudget::new(get_num(opts, "error-budget", 0)?);
    let follow = opts.contains_key("follow");
    let journal_dir = opts.get("journal").map(PathBuf::from);
    // A live tail has no final frame count, so a resumed follower could
    // never tell "already journaled" from "not yet appended" — the two
    // modes do not compose.
    if follow && journal_dir.is_some() {
        return Err(CliError::Usage(
            "--journal cannot be combined with --follow".into(),
        ));
    }
    let checkpoint_every: usize = get_num(opts, "checkpoint-every", 1024)?;
    let (map, level) = build_map(opts)?;
    let config = StreamConfig {
        allowed_lag_s: lag,
        ..StreamConfig::default()
    };
    // Journal-backed replay: an empty --journal DIR starts a fresh
    // write-ahead log (each frame is journaled *before* it is pushed);
    // a non-empty one is recovered first, so an interrupted replay
    // resumes exactly where it died — the frames it journaled are
    // checked against their records and skipped, and their fixes
    // (printed by the dead process) are not re-printed.
    let mut engine = match &journal_dir {
        None => Ingest::Plain(Box::new(StreamEngine::new(map, config))),
        Some(dir) => {
            let journal = JournalConfig::default();
            let journaled =
                JournaledEngine::open(dir, path.as_str(), map, config, journal, checkpoint_every)?;
            if let Some(report) = journaled.recovery() {
                eprintln!(
                    "recovered journal {}: {} frames on disk ({} replayed above \
                     checkpoint, {} windows closed pre-crash, {} B torn tail truncated)",
                    dir.display(),
                    journaled.journaled(),
                    report.records_replayed,
                    journaled.closed().len(),
                    report.torn_tail_bytes
                );
            }
            Ingest::Journaled(Box::new(journaled))
        }
    };

    println!("time_s,mobile,x,y,k,area_m2");
    let mut pacer = Pacer::new(speed);
    let mut out = std::io::stdout();
    let mut decoder = LineDecoder::new();
    // One line of the log, from the file or from a follow poll.
    let mut ingest = |line: &str| -> Result<(), CliError> {
        let frame = match decoder.decode(line) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()),
            Err(e) => return skip_line(&mut budget, e),
        };
        let closed = match &mut engine {
            Ingest::Plain(engine) => engine.push(&frame),
            // A frame the interrupted run journaled is checked against
            // its record and skipped, unpaced.
            Ingest::Journaled(j) => match j.push(&frame)? {
                Some(closed) => closed.to_vec(),
                None => return Ok(()),
            },
        };
        pacer.wait_for(frame.time_s);
        print_closed(&mut out, closed)
    };
    if follow {
        return follow_lines(&path, ingest);
    }
    read(&path)?.lines().try_for_each(&mut ingest)?;
    if let Err(e) = decoder.finish() {
        skip_line(&mut budget, e)?;
    }
    // Seal the journal before closing out (unless --checkpoint-every
    // is 0): the final checkpoint covers every appended frame (finish()
    // itself is not journaled — a recovery replays the log and finishes
    // again).
    let mut engine = match engine {
        Ingest::Plain(engine) => *engine,
        Ingest::Journaled(j) => j.finish()?.0,
    };
    print_closed(&mut out, engine.finish())?;
    let stats = engine.stats();
    eprintln!(
        "replayed {} frames ({} relevant, {} late, {} malformed lines skipped) -> \
         {} windows closed, {} LP solves, {} evicted (knowledge level: {level})",
        stats.frames_total,
        stats.frames_relevant,
        stats.frames_late,
        budget.skipped().len(),
        stats.windows_closed,
        stats.lp_solves,
        stats.windows_evicted
    );
    Ok(())
}

/// Where `replay` pushes each frame: straight into the engine, or
/// through the write-ahead journal (boxed: both are large).
enum Ingest {
    Plain(Box<StreamEngine>),
    Journaled(Box<JournaledEngine>),
}

/// Prints the fix of every window in `closed` that has one.
fn print_closed(out: &mut impl std::io::Write, closed: Vec<ClosedWindow>) -> Result<(), CliError> {
    closed
        .into_iter()
        .filter_map(ClosedWindow::into_fix)
        .try_for_each(|fix| print_fix(out, &fix))
}

/// Applies the `--error-budget` rule to one malformed line, reporting
/// the skip on stderr.
fn skip_line(budget: &mut ErrorBudget, error: ParseLogError) -> Result<(), CliError> {
    let e = budget.skip(error)?;
    eprintln!("skipping malformed line {}: {e}", e.line());
    Ok(())
}

/// Recovers a write-ahead frame journal: newest valid checkpoint plus
/// tail replay, then closes out and prints the batch fixes for
/// everything the journal holds.
fn recover(opts: &Opts) -> Result<(), CliError> {
    let dir = opts
        .get("journal")
        .ok_or("recover requires a journal directory (positional or --journal)")?;
    let (map, level) = build_map(opts)?;
    // Recovery emits the canonical batch fixes at the end, so the
    // rebuilt engine runs lazy — live per-window estimates would be
    // recomputed work the batch pass redoes anyway.
    let config = StreamConfig {
        live_localization: false,
        warm_start: false,
        ..StreamConfig::default()
    };
    let rec = FrameJournal::recover(Path::new(dir), map, config)?;
    eprintln!(
        "recovered {dir}: {} frames ({} segments scanned, checkpoint covered {}, \
         {} records replayed, {} checkpoint(s) skipped, {} B torn tail truncated)",
        rec.next_seq,
        rec.report.segments_scanned,
        rec.report
            .checkpoint_seq
            .map(|s| s.to_string())
            .unwrap_or_else(|| "none".to_string()),
        rec.report.records_replayed,
        rec.report.checkpoints_skipped,
        rec.report.torn_tail_bytes
    );
    let mut engine = rec.engine;
    let mut closed = rec.closed;
    closed.extend(engine.finish());
    let fixes = engine.batch_fixes(closed);
    print_fixes(&fixes)?;
    eprintln!(
        "{} fixes from {} journaled frames (knowledge level: {level})",
        fixes.len(),
        rec.next_seq
    );
    Ok(())
}

/// Replays a capture log through the streaming engine purely for its
/// metrics: prints the global registry as JSON on stdout. The
/// counter/gauge/histogram sections are byte-identical at any
/// `--threads` value; only the trailing "nondeterministic" object
/// (timings, per-worker scheduling) varies run to run.
fn stats(opts: &Opts) -> Result<(), CliError> {
    let path = opts
        .get("captures")
        .ok_or("stats requires a capture log (positional or --captures)")?
        .clone();
    let budget: usize = get_num(opts, "error-budget", 0)?;
    let (map, level) = build_map(opts)?;
    // `stats` exists to surface the full metrics surface, so it runs
    // the live pipeline with warm starts on: the lp.warm_start.* and
    // lp.pivots.{cold,warm} counters only tick when the warm path is
    // exercised. The reported fixes still come from the canonical
    // batch re-pass, so warm starts never change this output.
    let config = StreamConfig {
        warm_start: true,
        ..StreamConfig::default()
    };
    let (fixes, stream_stats, skipped) =
        marauders_map::stream::replay_log(map, config, &read(&path)?, budget)?;
    eprintln!(
        "stats: {} frames -> {} windows closed, {} fixes, {} malformed lines skipped \
         (knowledge level: {level})",
        stream_stats.frames_total,
        stream_stats.windows_closed,
        fixes.len(),
        skipped.len()
    );
    print!("{}", marauders_map::obs::global().to_json());
    Ok(())
}

/// Runs the deterministic fault matrix against a simulated capture and
/// emits the JSON degradation report.
fn chaos(opts: &Opts) -> Result<(), CliError> {
    let seed: u64 = get_num(opts, "seed", 1)?;
    let fault_seed: u64 = get_num(opts, "fault-seed", seed)?;
    let plans = match opts.get("faults") {
        Some(spec) => vec![FaultPlan::parse(spec)?],
        None => default_matrix(),
    };
    let scenario = scenario(opts, "fig13", seed)?;
    eprintln!(
        "chaos: scenario {} (seed {seed}), {} fault cell(s) + clean baseline",
        scenario.name(),
        plans.len()
    );
    let report = scenario.run_matrix(fault_seed, &plans);
    for cell in &report.cells {
        eprintln!(
            "  {:<24} fix rate {:.3}  ({} windows, {} lost, {} devices degraded)",
            cell.plan,
            cell.fix_rate(),
            cell.windows_total,
            cell.windows_lost,
            cell.devices_degraded
        );
    }
    emit(opts, &report.to_json())
}

/// Runs the kill-at-every-boundary crash-equivalence sweep: for each
/// tested frame boundary, journal + ingest up to it, drop all in-memory
/// state, recover, resume, and compare the final fixes byte-for-byte
/// against the uninterrupted run. Exits nonzero unless every boundary
/// (and every torn-write companion) matches.
fn crash(opts: &Opts) -> Result<(), CliError> {
    let seed: u64 = get_num(opts, "seed", 1)?;
    let scenario = scenario(opts, "quick", seed)?;
    let scenario_name = scenario.name();
    let frames = scenario.captures().len();
    // Default stride keeps the sweep to ~25 cells; --stride 1 tests
    // every boundary.
    let stride: usize = get_num(opts, "stride", (frames / 24).max(1))?;
    let config = CrashSweepConfig {
        stride: stride.max(1),
        checkpoint_every: get_num(opts, "checkpoint-every", 64)?,
        torn_write_bytes: get_num(opts, "torn-bytes", 3)?,
        torn_header_bytes: get_num(opts, "torn-header-bytes", 5)?,
    };
    let dir = match opts.get("dir") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("marauder-crash-sweep-{}", std::process::id())),
    };
    eprintln!(
        "crash sweep: scenario {scenario_name} (seed {seed}), {frames} frames, \
         stride {}, checkpoint every {}, torn-write {} B, torn-header {} B",
        config.stride, config.checkpoint_every, config.torn_write_bytes, config.torn_header_bytes
    );
    let report = crash_sweep(&scenario, &dir, &config)?;
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "  {} boundaries tested, {} mismatched",
        report.cells.len(),
        report.mismatches().len()
    );
    emit(opts, &report.to_json())?;
    if !report.all_matched() {
        return Err(CliError::Failed(format!(
            "crash equivalence failed at boundaries {:?}",
            report.mismatches()
        )));
    }
    Ok(())
}

/// Reads a capture log into frames, failing on the first malformed
/// line (fleet ingestion has no error budget: a node must not silently
/// thin its slice).
fn load_frames(path: &str) -> Result<Vec<CapturedFrame>, CliError> {
    capture_log_frames(&read(path)?)
        .collect::<Result<_, _>>()
        .map_err(|e| CliError::Failed(format!("{path} line {}: {e}", e.line())))
}

/// Prints fleet fixes in the `attack` CSV format plus a stderr summary.
fn print_fleet_outcome(
    mut agg: Aggregator,
    closed: Vec<marauders_map::stream::ClosedWindow>,
    level: &str,
) -> Result<(), CliError> {
    let windows = agg.engine().stats().windows_closed;
    let late = agg.engine().stats().frames_late;
    let stats = agg.stats().clone();
    let fixes = agg.batch_fixes(closed);
    print_fixes(&fixes)?;
    eprintln!(
        "fleet: {} frames over {} batches ({} duplicates ignored, {} reconnects, \
         {} evicted nodes) -> {} windows closed, {} late, {} fixes \
         (knowledge level: {level})",
        stats.frames_relayed,
        stats.batches,
        stats.duplicate_batches,
        stats.reconnects,
        stats.nodes_evicted,
        windows,
        late,
        fixes.len()
    );
    Ok(())
}

/// Merges a capture log across N sniffer nodes — in-process over the
/// deterministic loopback transport, over real TCP with `--listen`, or
/// as the chaos matrix with `--chaos`.
fn fleet(opts: &Opts) -> Result<(), CliError> {
    if opts.contains_key("chaos") {
        return fleet_chaos(opts);
    }
    if opts.contains_key("listen") {
        return fleet_listen(opts);
    }

    let path = opts
        .get("captures")
        .ok_or("fleet requires a capture log (positional or --captures), or --listen/--chaos")?
        .clone();
    let nodes: usize = get_num(opts, "loopback", 2)?;
    if nodes == 0 {
        return Err(CliError::Usage("--loopback needs at least 1 node".into()));
    }
    let fault_seed: u64 = get_num(opts, "fault-seed", 1)?;
    let plan = opts
        .get("faults")
        .map(|s| FaultPlan::parse(s))
        .transpose()?;
    let frames = load_frames(&path)?;
    let slices = match opts.get("split").map(String::as_str).unwrap_or("rr") {
        "rr" => split_round_robin(&frames, nodes),
        "time" => split_by_time(&frames, nodes),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --split {other:?} (rr|time)"
            )))
        }
    };
    let (map, level) = build_map(opts)?;
    let aggregator = Aggregator::new(
        map,
        FleetConfig {
            expected_nodes: nodes,
            ..FleetConfig::default()
        },
    );
    let seats: Vec<(NodeConfig, _)> = slices
        .into_iter()
        .enumerate()
        .map(|(k, slice)| {
            let slice = match &plan {
                Some(p) => marauders_map::net::corrupt_slice(
                    &slice,
                    marauders_map::par::sub_seed(fault_seed, k as u64),
                    p,
                ),
                None => slice,
            };
            (
                NodeConfig {
                    reorder_slack_s: required_slack_s(&slice),
                    ..NodeConfig::default()
                },
                slice,
            )
        })
        .collect();
    eprintln!(
        "fleet: merging {} frames across {nodes} loopback node(s)",
        frames.len()
    );
    let mut fleet = LoopbackFleet::new(aggregator, seats);
    let closed = fleet.run()?;
    print_fleet_outcome(fleet.into_aggregator(), closed, &level)
}

/// Serves a real-TCP fleet: accepts `--nodes N` sniffer connections and
/// merges their streams until every node completes.
fn fleet_listen(opts: &Opts) -> Result<(), CliError> {
    let addr = opts.get("listen").expect("caller checked --listen");
    let nodes: usize = get_num(opts, "nodes", 1)?;
    let idle = get_secs(opts, "idle-timeout", 30.0, true)?;
    let every = get_secs(opts, "checkpoint-every", 30.0, true)?;
    let (map, level) = build_map(opts)?;
    let config = FleetConfig {
        expected_nodes: nodes,
        ..FleetConfig::default()
    };
    // Supervised-restart mode: with --checkpoint-dir the aggregator
    // restores its newest valid checkpoint before listening (nodes
    // fast-forward past everything it absorbed via resume_seq) and
    // checkpoints every --checkpoint-every seconds of stream time; a
    // directory without a checkpoint file starts a fresh campaign.
    let (aggregator, initial_closed, mut checkpointer) = match opts.get("checkpoint-dir") {
        Some(dir) => {
            let restored = restore_latest(Path::new(dir), &map, &config, every)?;
            if restored.key.is_some() {
                eprintln!(
                    "restored {dir} ({} closed window(s) carried over, {} damaged \
                     checkpoint(s) skipped)",
                    restored.closed.len(),
                    restored.skipped
                );
            }
            (
                restored.aggregator,
                restored.closed,
                Some(restored.checkpointer),
            )
        }
        None => (Aggregator::new(map, config), Vec::new(), None),
    };
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| CliError::Failed(format!("cannot listen on {addr}: {e}")))?;
    eprintln!(
        "fleet: listening on {} for {nodes} node(s)",
        listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.clone())
    );
    let outcome = serve_with(
        listener,
        aggregator,
        Duration::from_secs_f64(idle),
        checkpointer.as_mut(),
        initial_closed,
    )?;
    let completed = outcome.completed;
    print_fleet_outcome(outcome.aggregator, outcome.closed, &level)?;
    if !completed {
        return Err(CliError::Failed(format!(
            "fleet went idle for {idle} s before every node completed"
        )));
    }
    Ok(())
}

/// Runs the per-node fault matrix (clean/drop/reorder/skew/truncate/
/// combo) through the loopback fleet and emits the JSON report. Fails
/// when any cell's merged fixes diverge from a single-stream replay of
/// the identical corrupted union.
fn fleet_chaos(opts: &Opts) -> Result<(), CliError> {
    let seed: u64 = get_num(opts, "seed", 1)?;
    let fault_seed: u64 = get_num(opts, "fault-seed", seed)?;
    let nodes: usize = get_num(opts, "nodes", 4)?;
    let scenario = scenario(opts, "fig13", seed)?;
    eprintln!(
        "fleet chaos: scenario {} (seed {seed}), {nodes} node(s) per cell",
        scenario.name()
    );
    let report = run_default_matrix(&scenario, fault_seed, nodes)?;
    for cell in &report.cells {
        eprintln!(
            "  {:<10} {:<22} {} frames -> {} fixes, {} windows, merge {}",
            cell.name,
            cell.plan,
            cell.frames_in,
            cell.fixes,
            cell.windows_closed,
            if cell.matches_single_stream {
                "byte-identical"
            } else {
                "DIVERGED"
            }
        );
    }
    emit(opts, &report.to_json())?;
    if !report.all_match() {
        return Err("fleet merge diverged from single-stream replay in at least one cell".into());
    }
    Ok(())
}

/// Streams a capture log to a TCP fleet aggregator started with
/// `marauder fleet --listen`.
fn node(opts: &Opts) -> Result<(), CliError> {
    let path = opts
        .get("captures")
        .ok_or("node requires a capture log (positional or --captures)")?
        .clone();
    let addr = opts.get("connect").ok_or("node requires --connect ADDR")?;
    let id: u32 = get_num(opts, "node-id", 0u32)?;
    let offset: f64 = get_num(opts, "offset", 0.0)?;
    if !offset.is_finite() {
        return Err(CliError::Usage("--offset must be finite".into()));
    }
    let batch: usize = get_num(opts, "batch", NodeConfig::default().batch_frames)?;
    if batch == 0 {
        return Err(CliError::Usage("--batch needs at least 1 frame".into()));
    }
    let retries: u32 = get_num(opts, "retries", RetryConfig::default().max_retries)?;
    let frames = load_frames(&path)?;
    let slack = get_secs(opts, "slack", required_slack_s(&frames), false)?;
    eprintln!(
        "node {id}: streaming {} frames to {addr} (offset {offset} s, slack {slack} s)",
        frames.len()
    );
    let mut node = SnifferNode::new(
        id,
        NodeConfig {
            batch_frames: batch,
            reorder_slack_s: slack,
            clock_offset_s: offset,
        },
        frames,
    );
    run_node(
        addr,
        &mut node,
        &RetryConfig {
            max_retries: retries,
            ..RetryConfig::default()
        },
    )?;
    let s = node.stats();
    eprintln!(
        "node {id}: done — {} frames in {} batches ({} skipped on resume, {} reconnects)",
        s.frames_sent, s.batches_sent, s.batches_skipped, s.reconnects
    );
    Ok(())
}

/// `marauder serve`: live mode ingests a capture log and serves
/// tracker state over HTTP; `--bench` and `--chaos` run the layer's
/// measurement and adversarial harnesses instead.
fn serve_cmd(opts: &Opts) -> Result<(), CliError> {
    if opts.contains_key("bench") {
        return serve_bench(opts);
    }
    if opts.contains_key("chaos") {
        return serve_chaos(opts);
    }
    let path = opts
        .get("captures")
        .ok_or("serve requires a capture log (positional or --captures)")?
        .clone();
    let speed = get_secs(opts, "speed", 1.0, false)?;
    let lag = get_secs(opts, "lag", StreamConfig::default().allowed_lag_s, false)?;
    let snapshot_every = get_secs(opts, "snapshot-every", 10.0, false)?;
    let linger = opts
        .contains_key("linger")
        .then(|| get_secs(opts, "linger", 0.0, false))
        .transpose()?;
    let mut budget = ErrorBudget::new(get_num(opts, "error-budget", 0)?);
    let listen = opts
        .get("listen")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:8646".to_string());
    let (map, level) = build_map(opts)?;

    let (mut publisher, plane) = TrackerPublisher::new(PublisherConfig {
        snapshot_every_s: snapshot_every,
        ..PublisherConfig::default()
    });
    let mut server = marauders_map::serve::start(&listen, plane, ServeConfig::default())?;
    // The bound address goes first on stdout (and is flushed) so a
    // caller that passed `:0` can read the ephemeral port back.
    println!("serving on {}", server.addr());
    std::io::Write::flush(&mut std::io::stdout()).map_err(|e| format!("stdout: {e}"))?;

    let mut engine = StreamEngine::new(
        map,
        StreamConfig {
            allowed_lag_s: lag,
            ..StreamConfig::default()
        },
    );
    let mut pacer = Pacer::new(speed);
    for item in capture_log_frames(&read(&path)?) {
        match item {
            Ok(frame) => {
                pacer.wait_for(frame.time_s);
                engine.push_published(&frame, &mut publisher);
            }
            Err(e) => skip_line(&mut budget, e)?,
        }
    }
    engine.finish_published(&mut publisher);
    let stats = engine.stats();
    eprintln!(
        "serve: ingested {} frames ({} relevant, {} malformed skipped) -> {} windows \
         closed, {} snapshots published (knowledge level: {level}); \
         live at http://{}",
        stats.frames_total,
        stats.frames_relevant,
        budget.skipped().len(),
        stats.windows_closed,
        publisher.seq(),
        server.addr()
    );
    match linger {
        // No --linger: serve until the process is interrupted.
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
        Some(secs) => {
            std::thread::sleep(Duration::from_secs_f64(secs.min(1e9)));
            server.shutdown();
            Ok(())
        }
    }
}

/// `marauder serve --bench`: the deterministic loopback load
/// generator; summary to stderr, `marauder-serve-bench-v1` JSON to
/// stdout or `--out`.
fn serve_bench(opts: &Opts) -> Result<(), CliError> {
    let defaults = LoadgenConfig::default();
    let clients: usize = get_num(opts, "clients", 64)?;
    if clients == 0 {
        return Err(CliError::Usage("--clients must be >= 1".into()));
    }
    let mut levels = vec![1, (clients / 8).max(1), clients];
    levels.dedup();
    let config = LoadgenConfig {
        seed: get_num(opts, "seed", defaults.seed)?,
        concurrency_levels: levels,
        requests_per_client: get_num(opts, "requests", defaults.requests_per_client)?,
        frames: get_num(opts, "frames", defaults.frames)?,
        readers: get_num(opts, "readers", defaults.readers)?,
        max_slowdown: get_num(opts, "max-slowdown", defaults.max_slowdown)?,
        ..defaults
    };
    let report = run_bench(&config)?;
    for row in &report.rows {
        eprintln!(
            "closed loop: {:>3} clients -> {:>9.1} req/s (p50 {} us, p99 {} us, {} errors)",
            row.concurrency, row.req_per_s, row.p50_us, row.p99_us, row.errors
        );
    }
    let i = &report.interference;
    eprintln!(
        "ingest interference: {} paced frames, {} readers -> slowdown {:.2}% \
         (budget {:.0}%, {})",
        i.frames,
        i.readers,
        i.slowdown * 100.0,
        i.max_slowdown * 100.0,
        if i.within_budget {
            "within budget"
        } else {
            "OVER BUDGET"
        }
    );
    emit(opts, &report.to_json())?;
    if !report.pass() {
        return Err("serve bench failed: request errors or a slowdown over budget".into());
    }
    Ok(())
}

/// `marauder serve --chaos`: the misbehaving-client matrix. Exits
/// nonzero unless every cell's contract was honoured, every
/// misbehaviour was counted, and the server answered /healthz after.
fn serve_chaos(opts: &Opts) -> Result<(), CliError> {
    let defaults = ChaosConfig::default();
    let config = ChaosConfig {
        seed: get_num(opts, "seed", defaults.seed)?,
        repeats_per_kind: get_num(opts, "repeats", defaults.repeats_per_kind)?,
        ..defaults
    };
    let report = run_chaos(&config)?;
    emit(opts, &report.to_json())?;
    if !report.pass() {
        let violations = report.violations().count();
        return Err(CliError::Failed(format!(
            "serve chaos matrix failed: {violations} contract violations \
             (accounting: {:?}, healthz after: {})",
            report.accounting, report.healthz_after
        )));
    }
    eprintln!(
        "serve chaos: {} cells across {} fault kinds — all contracts honoured, \
         all misbehaviour accounted, server healthy",
        report.cells.len(),
        marauders_map::fault::ClientFaultKind::ALL.len()
    );
    Ok(())
}

/// Tails `path` like `tail -f`, handing each complete line appended
/// since the last poll to `ingest` and sleeping between polls. Polling
/// adapts via [`PollBackoff`]: a poll that found fresh lines re-polls
/// immediately, an idle file backs the interval off exponentially
/// (10 ms doubling to 200 ms), so a bursty capture is followed with low
/// latency without spinning on a quiet one. Runs until the process is
/// interrupted or `ingest` fails, so windows held open by the watermark
/// are never force-closed. The file stays open and each poll reads on
/// from the end of the last complete line, so it costs what was
/// appended, not the whole log; a log shorter than that offset is an
/// error.
fn follow_lines(
    path: &str,
    mut ingest: impl FnMut(&str) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let cannot_read = |e: std::io::Error| CliError::Failed(format!("cannot read {path}: {e}"));
    let mut file = File::open(path).map_err(cannot_read)?;
    let mut consumed = 0u64; // bytes of complete lines already ingested
    let mut fresh = String::new();
    let mut backoff = PollBackoff::follow_default();
    loop {
        if file.metadata().map_err(cannot_read)?.len() < consumed {
            return Err(CliError::Failed(format!(
                "{path} was truncated while following"
            )));
        }
        fresh.clear();
        file.seek(SeekFrom::Start(consumed))
            .and_then(|_| file.read_to_string(&mut fresh))
            .map_err(cannot_read)?;
        // Only take lines up to the last newline: the final line may
        // still be mid-write by the capture process.
        let complete = fresh.rfind('\n').map_or(0, |i| i + 1);
        fresh[..complete].lines().try_for_each(&mut ingest)?;
        consumed += complete as u64;
        std::thread::sleep(backoff.next_delay(complete > 0));
    }
}

/// Prints a fix list in the `attack` CSV format, header first.
fn print_fixes(fixes: &[TrackFix]) -> Result<(), CliError> {
    println!("time_s,mobile,x,y,k,area_m2");
    let mut out = std::io::stdout();
    fixes.iter().try_for_each(|fix| print_fix(&mut out, fix))
}

/// Prints one fix in the `attack` CSV format, flushing so a paced or
/// followed replay is genuinely live.
fn print_fix(out: &mut impl std::io::Write, fix: &TrackFix) -> Result<(), CliError> {
    writeln!(
        out,
        "{:.1},{},{:.2},{:.2},{},{:.0}",
        fix.time_s,
        fix.mobile,
        fix.estimate.position.x,
        fix.estimate.position.y,
        fix.gamma.len(),
        fix.estimate.area()
    )
    .and_then(|()| out.flush())
    .map_err(|e| CliError::Failed(format!("stdout: {e}")))
}

fn report(opts: &Opts) -> Result<(), CliError> {
    let captures = parse_capture_log(&read(
        opts.get("captures").ok_or("report requires --captures")?,
    )?)?;
    let db = ApDatabase::from_csv(&read(
        opts.get("knowledge").ok_or("report requires --knowledge")?,
    )?)?;
    let level = if db.has_all_radii() {
        KnowledgeLevel::Full
    } else {
        KnowledgeLevel::LocationsOnly
    };
    let mut map = MaraudersMap::new(db, level, AttackConfig::default());
    map.ingest(&captures);
    let report = marauders_map::core::report::AttackReport::generate(
        &map,
        &captures,
        &PseudonymLinker::default(),
    );
    print!("{}", report.render());
    Ok(())
}

fn link(opts: &Opts) -> Result<(), CliError> {
    let captures = parse_capture_log(&read(
        opts.get("captures").ok_or("link requires --captures")?,
    )?)?;
    let devices = PseudonymLinker::default().link(&captures);
    println!("device,pseudonyms,fingerprint");
    for (i, d) in devices.iter().enumerate() {
        let macs: Vec<String> = d.pseudonyms.iter().map(|m| m.to_string()).collect();
        let fp: Vec<&str> = d.fingerprint.iter().map(|s| s.as_str()).collect();
        println!("{i},{},{}", macs.join(";"), fp.join(";"));
    }
    eprintln!(
        "{} wire identities -> {} linked devices",
        captures.probing_mobiles().len(),
        devices.len()
    );
    Ok(())
}
