//! The files a workload's generator writes, and the pieces the program
//! side and the generator share: map construction from `aps.csv` and
//! the bit-exact fix rendering the correctness gate compares.
//!
//! A campus has two directories: the simulated inputs (`aps.csv`,
//! `capture.log`), and what the build under test derived from them
//! (`reference.txt`, `journal/`).

use marauder_core::apdb::ApDatabase;
use marauder_core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap, TrackFix};
use std::path::Path;

/// AP knowledge, as `marauder simulate` writes it.
pub const APS: &str = "aps.csv";
/// The capture log, as `marauder simulate` writes it.
pub const CAPTURE: &str = "capture.log";
/// The crashed journal directory (derived; resumed workloads only).
pub const JOURNAL: &str = "journal";
/// Batch fixes of the whole capture, one [`render_fix`] line each
/// (derived).
pub const REFERENCE: &str = "reference.txt";
/// Marker written last in either directory: it is complete.
pub const COMPLETE: &str = "complete";

/// Builds the attacker's map from `aps.csv` text at `level`, exactly as
/// `marauder replay --knowledge aps.csv --level ...` does.
pub fn build_map(aps_csv: &str, level: KnowledgeLevel) -> Result<MaraudersMap, String> {
    let db = ApDatabase::from_csv(aps_csv).map_err(|e| format!("{APS}: {e}"))?;
    let db = match level {
        KnowledgeLevel::Full => db,
        _ => db.without_radii(),
    };
    Ok(MaraudersMap::new(db, level, AttackConfig::default()))
}

/// One fix with every float as its bit pattern, so two renderings are
/// equal exactly when the fixes are bit-identical.
pub fn render_fix(fix: &TrackFix) -> String {
    let gamma: Vec<String> = fix.gamma.iter().map(|m| m.to_string()).collect();
    format!(
        "{} {:016x} {:016x} {:016x} {:016x} {:016x} {} {} {}",
        fix.mobile,
        fix.time_s.to_bits(),
        fix.estimate.position.x.to_bits(),
        fix.estimate.position.y.to_bits(),
        fix.estimate.area().to_bits(),
        fix.estimate.inflation.to_bits(),
        fix.estimate.k,
        fix.provenance,
        gamma.join(",")
    )
}

/// Reads a generated input file.
pub fn read(dir: &Path, name: &str) -> Result<String, String> {
    std::fs::read_to_string(dir.join(name)).map_err(|e| format!("read {name}: {e}"))
}

/// Counts the fixes whose rendering differs from the reference (plus
/// any length difference).
pub fn mismatches(fixes: &[TrackFix], reference: &[&str]) -> u64 {
    let differing = fixes
        .iter()
        .zip(reference)
        .filter(|(fix, want)| render_fix(fix) != **want)
        .count();
    (differing + fixes.len().abs_diff(reference.len())) as u64
}

/// Distinct mobiles of the reference fixes, sorted.
pub fn mobiles(reference: &str) -> Vec<String> {
    let mut macs: Vec<String> = reference
        .lines()
        .filter_map(|l| l.split(' ').next())
        .map(str::to_string)
        .collect();
    macs.dedup();
    macs
}
