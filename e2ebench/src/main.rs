//! End-to-end benchmark of the live tracking pipeline.
//!
//! ```text
//! e2ebench gen --workload W --seed N --out DIR
//! e2ebench derive --workload W --seed N --input DIR --out DIR
//! e2ebench run --workload W --seed N --input CAMPUS_DIR --derived CAMPUS_DIR
//!              --work DIR --trace 0|1 --spans FILE
//! ```
//!
//! `gen` simulates a workload's inputs and `derive` computes the
//! reference fixes and crashed journals from them (see `gen.rs`). `run` is the
//! measured program: one pass over one campus in a fresh process, the
//! way a tracker restarts after a kill. It prints one JSON line with the
//! pass's raw measurements; `run.py` runs passes until the run's time is
//! up and reduces them to the metrics.

mod fleet;
mod gen;
mod inputs;
mod iteration;
mod layers;
mod mix;
mod placement;
mod report;
mod resumed;
mod trace;
mod workload;

use crate::placement::{pin, Placement};
use crate::report::Notes;
use crate::workload::{Drive, Workload};
use std::path::PathBuf;
use std::time::Instant;

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
        .ok_or_else(|| format!("missing {name}"))
}

fn number<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag(args, name)?
        .parse()
        .map_err(|_| format!("{name} takes a number"))
}

fn workload(args: &[String]) -> Result<&'static Workload, String> {
    let name = flag(args, "--workload")?;
    workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let result = match args.get(1).map(String::as_str) {
        Some("gen") => workload(&args).and_then(|w| {
            gen::generate(
                w,
                number(&args, "--seed")?,
                &PathBuf::from(flag(&args, "--out")?),
            )
        }),
        Some("derive") => workload(&args).and_then(|w| {
            gen::derive(
                w,
                number(&args, "--seed")?,
                &PathBuf::from(flag(&args, "--input")?),
                &PathBuf::from(flag(&args, "--out")?),
            )
        }),
        Some("run") => run(&args),
        _ => Err("usage: e2ebench gen|derive|run --workload W --seed N ...".into()),
    };
    if let Err(e) = result {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}

fn samples(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
    format!("[{}]", body.join(","))
}

fn run(args: &[String]) -> Result<(), String> {
    let w = workload(args)?;
    let seed: u64 = number(args, "--seed")?;
    let input = PathBuf::from(flag(args, "--input")?);
    let derived = PathBuf::from(flag(args, "--derived")?);
    let work = PathBuf::from(flag(args, "--work")?);
    let traced = number::<u8>(args, "--trace")? == 1;
    let spans = PathBuf::from(flag(args, "--spans")?);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;

    // One worker: the live pipeline is single-threaded, and pool threads
    // in the untimed checks would only compete with the fleet's reader.
    marauder_par::set_threads(1);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let placement = Placement::detect();
    let origin = traced.then(Instant::now);
    let it = match w.drive {
        Drive::Resumed { .. } => resumed::iteration(w, seed, &input, &derived, &work, origin)?,
        Drive::Fleet { .. } => {
            pin(placement.feeder)?;
            fleet::iteration(w, seed, &input, &derived, placement, origin)?
        }
    };
    if let Some(t) = &it.tracer {
        std::fs::write(&spans, t.to_tsv()).map_err(|e| format!("write spans: {e}"))?;
    }

    let mut out = Notes::default();
    out.num("nproc", cpus as f64);
    out.num("par_threads", marauder_par::current_threads() as f64);
    out.text(
        "placement",
        &match w.drive {
            Drive::Fleet { .. } => placement.describe(),
            Drive::Resumed { .. } => "unpinned".to_string(),
        },
    );
    out.num("setup_s", it.setup_s);
    out.num("setup_wall_s", it.setup_wall_s);
    out.num("phase_frames", it.phase_frames as f64);
    out.num("phase_s", it.phase_s);
    out.num("phase_cpu_s", it.phase_cpu_s);
    out.num("live_s", it.live_s);
    out.num("attempted", it.attempted as f64);
    out.num("failed", it.failed as f64);
    out.num("mismatches", it.mismatches as f64);
    out.num("peak_rss_mb", it.peak_rss_mb);
    out.raw("fix_ms", samples(&it.fix_ms));
    out.raw("live_fix_ms", samples(&it.live_fix_ms));
    out.raw("query_ms", samples(&it.query_ms));
    out.raw("feeder_late_ms", samples(&it.feeder_late_ms));
    let layers: Vec<String> = it
        .layers
        .iter()
        .map(|(name, (value, unit))| format!("\"{name}\": [{value:?}, \"{unit}\"]"))
        .collect();
    out.raw("layers", format!("{{{}}}", layers.join(", ")));
    println!("{}", out.to_json());
    Ok(())
}
