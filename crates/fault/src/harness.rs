//! Degradation harness: runs the attack pipeline over a fault matrix
//! and accounts for every window and every device.
//!
//! The harness answers the operational question the paper's clean-world
//! evaluation cannot: *how does the Marauder's Map fail?* Each cell of
//! the matrix corrupts one simulated capture with one [`FaultPlan`],
//! re-runs ingestion + localization under the graceful-degradation
//! ladder, and reports
//!
//! * the fix rate and the typed reason for every lost window,
//! * which ladder rung ([`FixProvenance`]) produced each surviving fix,
//! * device-level accounting (`fixed + degraded + lost == total`),
//! * the victim's error statistics and error CDF against ground truth,
//!   so a cell's CDF shift vs. the clean baseline is one subtraction.
//!
//! Everything is deterministic: the scenario is seeded, the injector is
//! seeded, and the pipeline is thread-count-invariant, so a report is a
//! pure function of `(scenario seed, fault seed, plan list)`.

use crate::inject::{FaultCounts, FaultInjector};
use crate::plan::{Fault, FaultPlan};
use marauder_core::apdb::{ApDatabase, ApRecord};
use marauder_core::eval::{nearest_in_time, ErrorStats, EvalOutcome, FixRecord};
use marauder_core::pipeline::{
    AttackConfig, DegradationPolicy, FixProvenance, KnowledgeLevel, MaraudersMap,
};
use marauder_core::PipelineError;
use marauder_geo::Point;
use marauder_obs::json::{Json, Layout};
use marauder_sim::mobility::CircuitWalk;
use marauder_sim::scenario::{CampusScenario, GroundTruthFix, SimulationResult, WorldModel};
use marauder_wifi::device::{MobileStation, OsProfile, ScanBehavior};
use marauder_wifi::mac::MacAddr;
use marauder_wifi::sniffer::{CaptureDatabase, CapturedFrame};
use std::collections::{BTreeMap, BTreeSet};

/// Error-CDF thresholds reported per cell, meters.
pub const ERROR_THRESHOLDS_M: [f64; 5] = [25.0, 50.0, 100.0, 200.0, 400.0];

/// A stable snake_case key for a loss reason, for report histograms.
pub fn reason_key(e: &PipelineError) -> &'static str {
    match e {
        PipelineError::EmptyObservation => "empty_observation",
        PipelineError::NoKnownAps { .. } => "no_known_aps",
        PipelineError::DegenerateGeometry { .. } => "degenerate_geometry",
        PipelineError::NoUsableRadii { .. } => "no_usable_radii",
        PipelineError::NonFinite { .. } => "non_finite",
        PipelineError::BadHeader => "bad_header",
        PipelineError::BudgetExhausted { .. } => "budget_exhausted",
        PipelineError::DeferredLocalization => "deferred_localization",
    }
}

/// A fixed attack scenario (simulated capture + attacker knowledge)
/// that fault plans are injected into.
#[derive(Debug)]
pub struct ChaosScenario {
    name: String,
    sim_seed: u64,
    result: SimulationResult,
    victim: MacAddr,
    db: ApDatabase,
    config: AttackConfig,
}

fn victim_station() -> MobileStation {
    MobileStation::new(MacAddr::from_index(0xFACE), OsProfile::MacOs).with_behavior(
        ScanBehavior::Active {
            interval_s: 20.0,
            directed: false,
        },
    )
}

fn measured_db(result: &SimulationResult) -> ApDatabase {
    let link = marauder_sim::link::LinkModel::free_space(result.environment_margin);
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

impl ChaosScenario {
    /// A small campus for fast chaos tests: 24 APs, 4 background
    /// mobiles plus the victim, 4 simulated minutes.
    pub fn quick(sim_seed: u64) -> ChaosScenario {
        let victim = victim_station();
        let victim_mac = victim.mac;
        let scenario = CampusScenario::builder()
            .seed(sim_seed)
            .region_half_width(200.0)
            .num_aps(24)
            .num_mobiles(4)
            .duration_s(240.0)
            .world(WorldModel::FreeSpace)
            .beacon_period_s(None)
            .mobile(
                victim,
                Box::new(CircuitWalk::new(Point::ORIGIN, 100.0, 1.4)),
            )
            .build();
        let result = scenario.run();
        let db = measured_db(&result);
        ChaosScenario {
            name: "quick".to_string(),
            sim_seed,
            result,
            victim: victim_mac,
            db,
            config: AttackConfig {
                window_s: 15.0,
                degradation: DegradationPolicy::Graceful,
                ..AttackConfig::default()
            },
        }
    }

    /// The Fig. 13 accuracy scenario (the same campus the benchmark
    /// harness evaluates): 130 clustered APs over a 700 m × 700 m
    /// region, 8 background mobiles, the victim circling the sniffer
    /// for 15 minutes.
    pub fn fig13(sim_seed: u64) -> ChaosScenario {
        let victim = victim_station();
        let victim_mac = victim.mac;
        let cluster =
            marauder_sim::deploy::Rect::new(Point::new(100.0, 100.0), Point::new(260.0, 260.0));
        let scenario = CampusScenario::builder()
            .seed(sim_seed)
            .region_half_width(350.0)
            .num_aps(130)
            .deployment(marauder_sim::deploy::Deployment::Clustered {
                uniform_fraction: 0.55,
                cluster,
            })
            .num_mobiles(8)
            .duration_s(900.0)
            .world(WorldModel::FreeSpace)
            .beacon_period_s(None)
            .mobile(
                victim,
                Box::new(CircuitWalk::new(Point::ORIGIN, 160.0, 1.4)),
            )
            .build();
        let result = scenario.run();
        let db = measured_db(&result);
        ChaosScenario {
            name: "fig13".to_string(),
            sim_seed,
            result,
            victim: victim_mac,
            db,
            config: AttackConfig {
                window_s: 15.0,
                aprad: marauder_core::algorithms::ApRad {
                    max_radius: 400.0,
                    min_observations_for_negative: 6,
                    ..Default::default()
                },
                degradation: DegradationPolicy::Graceful,
                ..AttackConfig::default()
            },
        }
    }

    /// Scenario name (appears in the report).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Seed of the simulated campus (appears in reports).
    pub fn sim_seed(&self) -> u64 {
        self.sim_seed
    }

    /// The victim's MAC.
    pub fn victim(&self) -> MacAddr {
        self.victim
    }

    /// The clean capture.
    pub fn captures(&self) -> &CaptureDatabase {
        &self.result.captures
    }

    /// The attacker's knowledge database.
    pub fn knowledge(&self) -> &ApDatabase {
        &self.db
    }

    /// The attack configuration (graceful ladder enabled).
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// A fresh map over this scenario's knowledge, graceful policy.
    pub fn fresh_map(&self) -> MaraudersMap {
        MaraudersMap::new(self.db.clone(), KnowledgeLevel::Full, self.config.clone())
    }

    /// Corrupts the clean capture with `(fault_seed, plan)`.
    pub fn corrupted_captures(
        &self,
        fault_seed: u64,
        plan: &FaultPlan,
    ) -> (CaptureDatabase, FaultCounts) {
        let frames: Vec<CapturedFrame> = self.result.captures.iter().cloned().collect();
        let corrupted = FaultInjector::new(fault_seed, plan.clone()).corrupt(&frames);
        let mut db = CaptureDatabase::new();
        for f in corrupted.frames {
            db.push(f);
        }
        (db, corrupted.counts)
    }

    /// Runs one cell: corrupt, ingest, localize with the graceful
    /// ladder, and account for every window and device.
    pub fn run_cell(&self, fault_seed: u64, plan: &FaultPlan) -> CellOutcome {
        let (capture, counts) = self.corrupted_captures(fault_seed, plan);
        let mut map = self.fresh_map();
        map.ingest(&capture);
        let obs = capture.observation_sets(self.config.window_s);
        let windows_total = obs.len();
        let windows_with_known_ap = obs
            .iter()
            .filter(|o| o.aps.iter().any(|m| self.db.get(*m).is_some()))
            .count();
        let corrupted_devices: BTreeSet<MacAddr> = obs.iter().map(|o| o.mobile).collect();
        let (fixes, losses) = map.localize_windows_accounted(obs);

        let mut loss_reasons: BTreeMap<&'static str, usize> = BTreeMap::new();
        for e in &losses {
            *loss_reasons.entry(reason_key(e)).or_default() += 1;
        }
        // Zero-count rungs stay in the report: the ladder is always
        // shown in full.
        let mut provenance: BTreeMap<FixProvenance, usize> =
            FixProvenance::ALL.iter().map(|&p| (p, 0)).collect();
        for fix in &fixes {
            *provenance.entry(fix.provenance).or_default() += 1;
        }

        // Device accounting over the union of devices seen in the clean
        // and corrupted captures: a device silenced entirely by the
        // faults still counts (as lost), and a phantom device invented
        // by a bit flip is accounted too.
        let mut devices: BTreeSet<MacAddr> = self
            .result
            .captures
            .observation_sets(self.config.window_s)
            .iter()
            .map(|o| o.mobile)
            .collect();
        devices.extend(corrupted_devices);
        let mut full_fix: BTreeSet<MacAddr> = BTreeSet::new();
        let mut any_fix: BTreeSet<MacAddr> = BTreeSet::new();
        for fix in &fixes {
            any_fix.insert(fix.mobile);
            if matches!(
                fix.provenance,
                FixProvenance::MLoc | FixProvenance::Inflated
            ) {
                full_fix.insert(fix.mobile);
            }
        }
        let devices_total = devices.len();
        let devices_fixed = devices.iter().filter(|d| full_fix.contains(d)).count();
        let devices_degraded = devices
            .iter()
            .filter(|d| any_fix.contains(*d) && !full_fix.contains(*d))
            .count();
        let devices_lost = devices_total - devices_fixed - devices_degraded;

        // Victim accuracy vs. ground truth (nearest-in-time fix).
        let truth: Vec<&GroundTruthFix> = self
            .result
            .ground_truth
            .iter()
            .filter(|g| g.mobile == self.victim)
            .collect();
        let mut victim_outcome = EvalOutcome::default();
        for fix in fixes.iter().filter(|f| f.mobile == self.victim) {
            let Some(t) = nearest_in_time(
                truth.iter().copied(),
                fix.time_s + self.config.window_s / 2.0,
                |g| g.time_s,
            ) else {
                continue;
            };
            victim_outcome.records.push(FixRecord {
                k: fix.gamma.len(),
                error_m: fix.estimate.position.distance(t.position),
                area_m2: fix.estimate.area(),
                covered: fix.estimate.covers(t.position),
                provenance: fix.provenance,
            });
        }
        let victim_cdf = victim_outcome.error_cdf(&ERROR_THRESHOLDS_M);

        CellOutcome {
            plan: plan.to_string(),
            counts,
            frames_clean: self.result.captures.len(),
            frames_corrupted: capture.len(),
            windows_total,
            windows_fixed: fixes.len(),
            windows_lost: losses.len(),
            windows_with_known_ap,
            loss_reasons,
            provenance,
            devices_total,
            devices_fixed,
            devices_degraded,
            devices_lost,
            victim_error: victim_outcome.error_stats(),
            victim_cdf,
        }
    }

    /// Runs the clean baseline plus every plan, in order.
    pub fn run_matrix(&self, fault_seed: u64, plans: &[FaultPlan]) -> DegradationReport {
        let clean = self.run_cell(fault_seed, &FaultPlan::clean());
        let cells = plans.iter().map(|p| self.run_cell(fault_seed, p)).collect();
        DegradationReport {
            scenario: self.name.clone(),
            sim_seed: self.sim_seed,
            fault_seed,
            thresholds_m: ERROR_THRESHOLDS_M.to_vec(),
            clean,
            cells,
        }
    }
}

/// The default fault matrix: every fault kind at three intensities.
pub fn default_matrix() -> Vec<FaultPlan> {
    let mut out = Vec::new();
    for p in [0.1, 0.3, 0.6] {
        out.push(FaultPlan::single(Fault::Drop { p }));
    }
    for (p_enter, p_exit) in [(0.02, 0.3), (0.05, 0.2), (0.1, 0.1)] {
        out.push(FaultPlan::single(Fault::Burst { p_enter, p_exit }));
    }
    for p in [0.1, 0.3, 0.6] {
        out.push(FaultPlan::single(Fault::Duplicate { p }));
    }
    for depth in [2, 8, 32] {
        out.push(FaultPlan::single(Fault::Reorder { depth }));
    }
    for sigma_s in [0.5, 2.0, 8.0] {
        out.push(FaultPlan::single(Fault::Jitter { sigma_s }));
    }
    for offset_s in [1.0, 5.0, 20.0] {
        out.push(FaultPlan::single(Fault::Skew { offset_s }));
    }
    for p in [0.05, 0.2, 0.5] {
        out.push(FaultPlan::single(Fault::BitFlip { p }));
    }
    for outage_s in [60.0, 180.0, 420.0] {
        out.push(FaultPlan::single(Fault::ApFlap { outage_s }));
    }
    for outage_s in [60.0, 180.0, 420.0] {
        out.push(FaultPlan::single(Fault::CardDropout { outage_s }));
    }
    for fraction in [0.1, 0.3, 0.6] {
        out.push(FaultPlan::single(Fault::Truncate { fraction }));
    }
    for after_frames in [50, 500, 2000] {
        out.push(FaultPlan::single(Fault::Crash { after_frames }));
    }
    for bytes in [1, 3, 9] {
        out.push(FaultPlan::single(Fault::TornWrite { bytes }));
    }
    out
}

/// One cell of the degradation matrix: a `(plan, corrupted capture)`
/// pair fully accounted.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Canonical plan spec (`"clean"` for the baseline).
    pub plan: String,
    /// Frames touched per fault class.
    pub counts: FaultCounts,
    /// Frames in the clean capture.
    pub frames_clean: usize,
    /// Frames surviving corruption.
    pub frames_corrupted: usize,
    /// Observation windows in the corrupted capture.
    pub windows_total: usize,
    /// Windows that produced a fix (any rung).
    pub windows_fixed: usize,
    /// Windows lost, with typed reasons in [`CellOutcome::loss_reasons`].
    pub windows_lost: usize,
    /// Windows containing at least one AP the attacker knows — the
    /// denominator of the monotone-degradation invariant.
    pub windows_with_known_ap: usize,
    /// Histogram of typed loss reasons.
    pub loss_reasons: BTreeMap<&'static str, usize>,
    /// Fixes per ladder rung (every rung present, zeros included).
    pub provenance: BTreeMap<FixProvenance, usize>,
    /// Devices in the clean ∪ corrupted captures.
    pub devices_total: usize,
    /// Devices with at least one full-strength (M-Loc/inflated) fix.
    pub devices_fixed: usize,
    /// Devices with fixes, all from degraded rungs.
    pub devices_degraded: usize,
    /// Devices with no fix at all.
    pub devices_lost: usize,
    /// Victim error statistics (None when the victim got no fix).
    pub victim_error: Option<ErrorStats>,
    /// Victim error CDF at [`ERROR_THRESHOLDS_M`].
    pub victim_cdf: Vec<(f64, f64)>,
}

impl CellOutcome {
    /// Fraction of windows that produced a fix.
    pub fn fix_rate(&self) -> f64 {
        if self.windows_total == 0 {
            0.0
        } else {
            self.windows_fixed as f64 / self.windows_total as f64
        }
    }
}

/// The full degradation report: clean baseline plus one cell per plan.
#[derive(Debug, Clone)]
pub struct DegradationReport {
    /// Scenario name (`"quick"` or `"fig13"`).
    pub scenario: String,
    /// Seed of the simulated campus.
    pub sim_seed: u64,
    /// Seed of the fault injector.
    pub fault_seed: u64,
    /// CDF thresholds, meters.
    pub thresholds_m: Vec<f64>,
    /// The clean (no-fault) baseline cell.
    pub clean: CellOutcome,
    /// One cell per fault plan, in input order.
    pub cells: Vec<CellOutcome>,
}

impl DegradationReport {
    /// Renders the report as JSON (all numbers are finite by
    /// construction).
    pub fn to_json(&self) -> String {
        let cells = self.cells.iter().map(|c| cell_json(c, Some(&self.clean)));
        let doc = Json::obj(
            Layout::Block,
            [
                ("scenario", self.scenario.as_str().into()),
                ("sim_seed", self.sim_seed.into()),
                ("fault_seed", self.fault_seed.into()),
                (
                    "thresholds_m",
                    Json::arr(Layout::Inline, self.thresholds_m.iter().copied()),
                ),
                ("clean", cell_json(&self.clean, None)),
                ("cells", Json::arr(Layout::Block, cells)),
            ],
        );
        doc.render()
    }
}

fn cell_json(cell: &CellOutcome, clean: Option<&CellOutcome>) -> Json {
    let c = &cell.counts;
    let frames = [
        ("clean", cell.frames_clean),
        ("corrupted", cell.frames_corrupted),
        ("dropped", c.dropped),
        ("burst_dropped", c.burst_dropped),
        ("duplicated", c.duplicated),
        ("reordered", c.reordered),
        ("jittered", c.jittered),
        ("skewed", c.skewed),
        ("bit_flipped", c.bit_flipped),
        ("ap_flapped", c.ap_flapped),
        ("card_dark", c.card_dark),
        ("truncated", c.truncated),
    ];
    let windows = [
        ("total", cell.windows_total.into()),
        ("fixed", cell.windows_fixed.into()),
        ("lost", cell.windows_lost.into()),
        ("with_known_ap", cell.windows_with_known_ap.into()),
        ("fix_rate", cell.fix_rate().into()),
    ];
    let devices = [
        ("total", cell.devices_total),
        ("fixed", cell.devices_fixed),
        ("degraded", cell.devices_degraded),
        ("lost", cell.devices_lost),
    ];
    let victim_error = cell.victim_error.as_ref().map(|s| {
        let stats = [
            ("count", s.count.into()),
            ("mean_m", s.mean.into()),
            ("median_m", s.median.into()),
            ("max_m", s.max.into()),
        ];
        Json::obj(Layout::Inline, stats)
    });
    let cdf = cell.victim_cdf.iter().enumerate().map(|(i, &(t, frac))| {
        let shift = clean
            .and_then(|cl| cl.victim_cdf.get(i))
            .map(|&(_, base)| frac - base);
        let point = [
            ("threshold_m", t.into()),
            ("fraction", frac.into()),
            ("shift_vs_clean", shift.into()),
        ];
        Json::obj(Layout::Inline, point)
    });
    Json::obj(
        Layout::Block,
        [
            ("plan", cell.plan.as_str().into()),
            ("frames", counts(frames)),
            ("windows", Json::obj(Layout::Inline, windows)),
            (
                "loss_reasons",
                counts(cell.loss_reasons.iter().map(|(&k, &v)| (k, v))),
            ),
            (
                "provenance",
                counts(cell.provenance.iter().map(|(p, &v)| (p.as_str(), v))),
            ),
            ("devices", counts(devices)),
            ("victim_error", victim_error.into()),
            ("victim_cdf", Json::arr(Layout::Inline, cdf)),
        ],
    )
}

/// An inline object of `name: count` members.
fn counts<'a>(pairs: impl IntoIterator<Item = (&'a str, usize)>) -> Json {
    Json::obj(
        Layout::Inline,
        pairs.into_iter().map(|(k, v)| (k, v.into())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cell_accounts_for_everything() {
        let scenario = ChaosScenario::quick(7);
        let cell = scenario.run_cell(1, &FaultPlan::clean());
        assert_eq!(cell.plan, "clean");
        assert!(cell.windows_total > 0, "scenario produced no windows");
        assert_eq!(
            cell.windows_fixed + cell.windows_lost,
            cell.windows_total,
            "window accounting must sum"
        );
        assert_eq!(
            cell.devices_fixed + cell.devices_degraded + cell.devices_lost,
            cell.devices_total,
            "device accounting must sum"
        );
        assert!(cell.devices_total >= 5, "victim + 4 background mobiles");
        assert!(cell.fix_rate() > 0.9, "clean fix rate {}", cell.fix_rate());
        assert!(cell.victim_error.is_some(), "victim must be tracked");
        // Provenance accounts for every fix.
        assert_eq!(cell.provenance.values().sum::<usize>(), cell.windows_fixed);
        // Loss reasons account for every loss.
        assert_eq!(cell.loss_reasons.values().sum::<usize>(), cell.windows_lost);
    }

    #[test]
    fn default_matrix_covers_every_fault_kind() {
        let plans = default_matrix();
        let kinds: BTreeSet<&'static str> = plans
            .iter()
            .flat_map(|p| p.faults.iter().map(|f| f.name()))
            .collect();
        assert_eq!(kinds.len(), 12, "kinds covered: {kinds:?}");
        assert_eq!(plans.len(), 36);
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let scenario = ChaosScenario::quick(3);
        let plans = [
            FaultPlan::single(Fault::Drop { p: 0.3 }),
            FaultPlan::single(Fault::BitFlip { p: 0.2 }),
        ];
        let report = scenario.run_matrix(11, &plans);
        assert_eq!(report.cells.len(), 2);
        let json = report.to_json();
        for key in [
            "\"scenario\": \"quick\"",
            "\"clean\":",
            "\"cells\":",
            "\"plan\": \"drop:0.3\"",
            "\"plan\": \"bitflip:0.2\"",
            "\"fix_rate\"",
            "\"shift_vs_clean\"",
            "\"no_known_aps\"",
            "\"provenance\"",
        ] {
            // no_known_aps only appears when bitflip lost a window; the
            // other keys are structural.
            if key == "\"no_known_aps\"" {
                continue;
            }
            assert!(json.contains(key), "missing {key} in report:\n{json}");
        }
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "unbalanced brackets"
        );
        // No non-finite numbers may leak into the JSON ("inflated" is a
        // legitimate key, so match the number forms).
        assert!(!json.contains("NaN") && !json.contains(": inf") && !json.contains("-inf"));
    }

    #[test]
    fn degradation_report_renders_its_golden_text() {
        let provenance = |counts: [usize; 4]| {
            [
                FixProvenance::MLoc,
                FixProvenance::Inflated,
                FixProvenance::Centroid,
                FixProvenance::NearestAp,
            ]
            .into_iter()
            .zip(counts)
            .collect::<BTreeMap<_, _>>()
        };
        let clean = CellOutcome {
            plan: "clean".into(),
            counts: FaultCounts::default(),
            frames_clean: 120,
            frames_corrupted: 120,
            windows_total: 10,
            windows_fixed: 9,
            windows_lost: 1,
            windows_with_known_ap: 10,
            loss_reasons: [("empty_observation", 1)].into_iter().collect(),
            provenance: provenance([8, 1, 0, 0]),
            devices_total: 5,
            devices_fixed: 4,
            devices_degraded: 1,
            devices_lost: 0,
            victim_error: Some(ErrorStats {
                count: 9,
                mean: 12.5,
                median: 10.25,
                max: 40.0,
            }),
            victim_cdf: vec![(25.0, 0.1), (50.0, 1.0)],
        };
        let dropped = CellOutcome {
            plan: "drop:0.3".into(),
            counts: FaultCounts {
                dropped: 36,
                ..FaultCounts::default()
            },
            frames_corrupted: 84,
            windows_total: 7,
            windows_fixed: 5,
            windows_lost: 2,
            windows_with_known_ap: 6,
            loss_reasons: [("empty_observation", 1), ("no_known_aps", 1)]
                .into_iter()
                .collect(),
            provenance: provenance([3, 1, 1, 0]),
            devices_fixed: 3,
            devices_degraded: 1,
            devices_lost: 1,
            victim_error: Some(ErrorStats {
                count: 5,
                mean: 31.0 / 3.0,
                median: 0.1 + 0.2,
                max: 88.0,
            }),
            victim_cdf: vec![(25.0, 0.3), (50.0, 0.8)],
            ..clean.clone()
        };
        let dark = CellOutcome {
            plan: "cardoff:0:60+bitflip:0.2".into(),
            counts: FaultCounts {
                card_dark: 120,
                bit_flipped: 3,
                ..FaultCounts::default()
            },
            frames_corrupted: 0,
            windows_total: 0,
            windows_fixed: 0,
            windows_lost: 0,
            windows_with_known_ap: 0,
            loss_reasons: BTreeMap::new(),
            provenance: provenance([0; 4]),
            devices_fixed: 0,
            devices_degraded: 0,
            devices_lost: 5,
            victim_error: None,
            victim_cdf: vec![(25.0, 0.0), (50.0, 0.0), (100.0, 0.0)],
            ..clean.clone()
        };
        let report = DegradationReport {
            scenario: "quick".into(),
            sim_seed: 7,
            fault_seed: 11,
            thresholds_m: vec![25.0, 50.0, 100.0],
            clean,
            cells: vec![dropped, dark],
        };
        assert_eq!(
            report.to_json(),
            include_str!("../../obs/tests/golden/degradation.json")
        );
    }
}
