//! Shared infrastructure for the experiment harness: text tables and
//! the attack-phase evaluation scenario behind Figs. 13–16.

use marauder_core::algorithms::Centroid;
use marauder_core::apdb::{ApDatabase, ApRecord};
use marauder_core::eval::{nearest_in_time, EvalOutcome, FixRecord};
use marauder_core::pipeline::{AttackConfig, FixProvenance, KnowledgeLevel, MaraudersMap};
use marauder_geo::Point;
use marauder_sim::mobility::CircuitWalk;
use marauder_sim::scenario::{CampusScenario, GroundTruthFix, SimulationResult, WorldModel};
use marauder_wifi::device::{MobileStation, OsProfile, ScanBehavior};
use marauder_wifi::mac::MacAddr;
use std::fmt::Write as _;

/// A plain-text table, aligned for terminal output.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics when the cell count does not match the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Convenience: a row of mixed displayable cells.
    pub fn rowf(&mut self, cells: &[&dyn std::fmt::Display]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }
}

/// Results of the shared attack-phase experiment: one [`EvalOutcome`]
/// per algorithm, scored against ground truth.
#[derive(Debug, Clone)]
pub struct AttackOutcomes {
    /// M-Loc (full knowledge: measured locations + radii).
    pub mloc: EvalOutcome,
    /// AP-Rad (locations only; radii from the LP).
    pub aprad: EvalOutcome,
    /// Centroid baseline.
    pub centroid: EvalOutcome,
    /// Nearest-AP baseline (tightest communicable disc's center).
    pub nearest: EvalOutcome,
}

/// Runs the paper's accuracy experiment (Section IV-D): a victim walks
/// a loop around the monitored campus while the rig captures; each
/// algorithm localizes every windowed observation, scored against the
/// nearest-in-time ground-truth fix.
///
/// Aggregates over `seeds` independent campuses.
pub fn run_attack_experiment(seeds: &[u64], world: WorldModel) -> AttackOutcomes {
    let mut out = AttackOutcomes {
        mloc: EvalOutcome::default(),
        aprad: EvalOutcome::default(),
        centroid: EvalOutcome::default(),
        nearest: EvalOutcome::default(),
    };
    for &seed in seeds {
        let (result, victim) = victim_scenario(seed, world);
        let truth: Vec<&GroundTruthFix> = result
            .ground_truth
            .iter()
            .filter(|g| g.mobile == victim)
            .collect();
        if truth.is_empty() {
            continue;
        }
        let link = link_for(&result, world, seed);
        let db = measured_knowledge(&result, &link);
        let config = AttackConfig {
            window_s: 15.0,
            aprad: marauder_core::algorithms::ApRad {
                // Theoretical 802.11g upper bound for 100 mW APs.
                max_radius: 400.0,
                // A 15-minute capture is short; demand solid evidence
                // before trusting "never co-observed" (paper: "over a
                // sufficient amount of time").
                min_observations_for_negative: 6,
                ..Default::default()
            },
            ..AttackConfig::default()
        };

        // M-Loc: full knowledge.
        let mut mloc_map = MaraudersMap::new(db.clone(), KnowledgeLevel::Full, config.clone());
        mloc_map.ingest(&result.captures);
        score_fixes(&mloc_map, &result, victim, &truth, &mut out.mloc);

        // AP-Rad: locations only.
        let mut aprad_map = MaraudersMap::new(
            db.without_radii(),
            KnowledgeLevel::LocationsOnly,
            config.clone(),
        );
        aprad_map.ingest(&result.captures);
        score_fixes(&aprad_map, &result, victim, &truth, &mut out.aprad);

        // Centroid and Nearest-AP baselines over the same windows.
        for obs in result.captures.observation_sets(config.window_s) {
            if obs.mobile != victim {
                continue;
            }
            let records: Vec<(Point, Option<f64>)> = obs
                .aps
                .iter()
                .filter_map(|m| db.get(*m).map(|r| (r.location, r.radius)))
                .collect();
            let positions: Vec<Point> = records.iter().map(|(p, _)| *p).collect();
            let t = nearest_in_time(
                truth.iter().copied(),
                obs.window_start_s + config.window_s / 2.0,
                |g| g.time_s,
            )
            .expect("non-empty truth");
            if let Some(est) = Centroid.locate(&positions) {
                out.centroid.records.push(FixRecord {
                    k: positions.len(),
                    error_m: est.distance(t.position),
                    area_m2: f64::NAN,
                    covered: false,
                    provenance: FixProvenance::Centroid,
                });
            }
            if let Some(est) = marauder_core::algorithms::NearestAp.locate(&records) {
                out.nearest.records.push(FixRecord {
                    k: records.len(),
                    error_m: est.distance(t.position),
                    area_m2: f64::NAN,
                    covered: false,
                    provenance: FixProvenance::NearestAp,
                });
            }
        }
    }
    out
}

/// Builds the shared scenario: a 700 m × 700 m campus at realistic AP
/// density (110 APs ⇒ a mobile hears ≈ 10 APs, like the paper's urban
/// campuses), a victim circling the sniffer, background devices
/// enriching the LP data.
pub fn victim_scenario(seed: u64, world: WorldModel) -> (SimulationResult, MacAddr) {
    let victim = MobileStation::new(MacAddr::from_index(0xFACE), OsProfile::MacOs).with_behavior(
        ScanBehavior::Active {
            interval_s: 20.0,
            directed: false,
        },
    );
    let mac = victim.mac;
    // Real campuses are *biased*: buildings pack APs densely while open
    // space has few (paper Fig. 4). A clustered deployment reproduces
    // the paper's Centroid-vs-M-Loc separation; a uniform world would
    // flatter the Centroid baseline.
    let cluster =
        marauder_sim::deploy::Rect::new(Point::new(100.0, 100.0), Point::new(260.0, 260.0));
    let scenario = CampusScenario::builder()
        .seed(seed)
        .region_half_width(350.0)
        .num_aps(130)
        .deployment(marauder_sim::deploy::Deployment::Clustered {
            uniform_fraction: 0.55,
            cluster,
        })
        .num_mobiles(8)
        .duration_s(900.0)
        .world(world)
        .beacon_period_s(None)
        .mobile(
            victim,
            Box::new(CircuitWalk::new(Point::ORIGIN, 160.0, 1.4)),
        )
        .build();
    (scenario.run(), mac)
}

/// The link model matching a scenario result's world.
pub fn link_for(
    result: &SimulationResult,
    world: WorldModel,
    seed: u64,
) -> marauder_sim::link::LinkModel {
    match world {
        WorldModel::FreeSpace => {
            marauder_sim::link::LinkModel::free_space(result.environment_margin)
        }
        WorldModel::Campus => marauder_sim::link::LinkModel::campus(seed ^ 0x5eed),
    }
}

/// Builds the attacker's knowledge database with radii *measured* the
/// way the paper measured them (driving around each AP).
pub fn measured_knowledge(
    result: &SimulationResult,
    link: &marauder_sim::link::LinkModel,
) -> ApDatabase {
    result
        .aps
        .iter()
        .map(|ap| ApRecord {
            bssid: ap.bssid,
            ssid: Some(ap.ssid.as_str().to_string()),
            location: ap.location,
            radius: Some(link.measured_radius(ap)),
        })
        .collect()
}

fn score_fixes(
    map: &MaraudersMap,
    result: &SimulationResult,
    victim: MacAddr,
    truth: &[&GroundTruthFix],
    outcome: &mut EvalOutcome,
) {
    for fix in map.track(&result.captures, victim) {
        let t = nearest_in_time(truth.iter().copied(), fix.time_s + 7.5, |g| g.time_s)
            .expect("non-empty truth");
        outcome.records.push(FixRecord {
            k: fix.gamma.len(),
            error_m: fix.estimate.position.distance(t.position),
            area_m2: fix.estimate.area(),
            covered: fix.estimate.covers(t.position),
            provenance: fix.provenance,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["k", "value"]);
        t.row(&["1".into(), "10.5".into()]);
        t.rowf(&[&2, &20.25]);
        let s = t.render();
        assert!(s.contains("# demo"));
        assert!(s.contains("value"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn attack_experiment_produces_all_outcomes() {
        let out = run_attack_experiment(&[5], WorldModel::FreeSpace);
        assert!(!out.mloc.is_empty(), "M-Loc produced no fixes");
        assert!(!out.aprad.is_empty(), "AP-Rad produced no fixes");
        assert!(!out.centroid.is_empty(), "Centroid produced no fixes");
        // The paper's headline ordering: M-Loc beats Centroid.
        let m = out.mloc.error_stats().expect("non-empty").mean;
        let c = out.centroid.error_stats().expect("non-empty").mean;
        assert!(m < c, "M-Loc mean {m} !< Centroid mean {c}");
    }
}
