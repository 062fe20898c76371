//! The seeded generator. It runs in processes of its own, before and
//! apart from the measured program, in two steps:
//!
//! - `generate` simulates each campus and writes `aps.csv` and
//!   `capture.log`: a pure function of (workload, seed).
//! - `derive` reads those two files and writes what the program's own
//!   code computes from them: the reference fixes and, for resumed
//!   workloads, the crashed journal. These depend on the build as well,
//!   so each build derives its own.

use crate::inputs::{self, build_map, render_fix};
use crate::workload::{journal_config, Drive, Workload, CHECKPOINT_EVERY};
use marauder_core::apdb::ApDatabase;
use marauder_sim::scenario::CampusScenario;
use marauder_stream::{FrameJournal, StreamConfig, StreamEngine};
use marauder_wifi::capture_log::{capture_log_frames, parse_capture_log, write_capture_log};
use std::path::{Path, PathBuf};

/// The directory of campus `k` inside a seed's input directory.
pub fn campus_dir(input: &Path, k: usize) -> PathBuf {
    input.join(format!("campus-{k}"))
}

/// Simulator seeds of a fixed campus pool.
const POOL_SEEDS: u64 = 0x706f_6f6c_0000;

fn create(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

fn write(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::write(dir.join(name), text).map_err(|e| format!("write {name}: {e}"))
}

/// Writes every campus's `aps.csv` and `capture.log` for `seed` into
/// `out`.
pub fn generate(w: &Workload, seed: u64, out: &Path) -> Result<(), String> {
    for k in 0..w.campuses {
        let campus_seed = if w.fixed_pool {
            POOL_SEEDS + k as u64
        } else {
            seed
        };
        simulate_campus(w, campus_seed, &campus_dir(out, k))?;
    }
    write(out, inputs::COMPLETE, "")
}

/// The campus `marauder simulate` builds, minus its scripted victim,
/// cut to the workload's frame count.
fn simulate_campus(w: &Workload, seed: u64, out: &Path) -> Result<(), String> {
    create(out)?;
    let result = CampusScenario::builder()
        .seed(seed)
        .region_half_width(350.0)
        .num_aps(w.aps)
        .num_mobiles(w.mobiles)
        .duration_s(w.duration_s)
        .build()
        .run();
    let db = ApDatabase::from_access_points(&result.aps, result.environment_margin);
    write(out, inputs::APS, &db.to_csv())?;
    // Every seed gets the same input size: the header plus `frames`
    // frame lines.
    let full = write_capture_log(&result.captures);
    let cut = full
        .match_indices('\n')
        .nth(w.frames)
        .ok_or_else(|| format!("campus seed {seed} captured fewer than {} frames", w.frames))?
        .0;
    write(out, inputs::CAPTURE, &full[..=cut])
}

/// Writes every campus's reference fixes and (resumed workloads) its
/// crashed journal into `out`, from the simulated inputs in `input`.
pub fn derive(w: &Workload, seed: u64, input: &Path, out: &Path) -> Result<(), String> {
    for k in 0..w.campuses {
        // Uniform in [-1, 1): where within its jitter the crash lands.
        let draw = marauder_par::sub_seed(seed, k as u64);
        let shift = (draw >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        derive_campus(w, shift, &campus_dir(input, k), &campus_dir(out, k))?;
    }
    write(out, inputs::COMPLETE, "")
}

fn derive_campus(w: &Workload, shift: f64, input: &Path, out: &Path) -> Result<(), String> {
    create(out)?;
    // Everything starts from the written files, as the program does, so
    // a lossy text round trip cannot fake a mismatch.
    let aps_csv = inputs::read(input, inputs::APS)?;
    let log = inputs::read(input, inputs::CAPTURE)?;
    let captures = parse_capture_log(&log).map_err(|e| e.to_string())?;
    let mut batch = build_map(&aps_csv, w.level)?;
    batch.ingest(&captures);
    let reference: Vec<String> = batch.track_all(&captures).iter().map(render_fix).collect();
    write(out, inputs::REFERENCE, &(reference.join("\n") + "\n"))?;

    if let Drive::Resumed {
        kill_fraction,
        kill_jitter,
    } = w.drive
    {
        // The interrupted run: the same append -> push -> checkpoint loop
        // the resumed program runs, dropped mid-campaign without a final
        // checkpoint, so recovery restores a checkpoint and replays a tail.
        let kill_at = (captures.len() as f64 * (kill_fraction + kill_jitter * shift)) as u64;
        let dir = out.join(inputs::JOURNAL);
        let mut journal =
            FrameJournal::create(&dir, journal_config()).map_err(|e| e.to_string())?;
        let mut engine = StreamEngine::new(build_map(&aps_csv, w.level)?, StreamConfig::default());
        let mut closed = Vec::new();
        for (seq, item) in (1..=kill_at).zip(capture_log_frames(&log)) {
            let frame = item.map_err(|e| e.to_string())?;
            journal.append(&frame).map_err(|e| e.to_string())?;
            closed.extend(engine.push(&frame));
            if seq % CHECKPOINT_EVERY == 0 {
                journal
                    .checkpoint(&engine, &closed)
                    .map_err(|e| e.to_string())?;
            }
        }
        journal.sync().map_err(|e| e.to_string())?;
    }
    Ok(())
}
