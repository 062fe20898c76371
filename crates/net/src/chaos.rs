//! Fleet chaos matrix: per-node fault injection through the loopback
//! transport, with full frame accounting and a bit-exact check that
//! the merge layer adds *zero* distortion beyond the faults
//! themselves.
//!
//! Each cell corrupts every node's capture slice with its own
//! sub-seeded [`FaultPlan`], runs the fleet merge, and then replays
//! the identical corrupted union through a single
//! [`StreamEngine`](marauder_stream::StreamEngine) —
//! `matches_single_stream` asserts the two fix lists are
//! byte-identical. A deterministic report in the
//! `DegradationReport` JSON style comes out the other end for the CI
//! artifact.

use crate::aggregator::{Aggregator, FleetConfig};
use crate::loopback::{corrupt_slice, required_slack_s, split_round_robin, LoopbackFleet};
use crate::node::NodeConfig;
use crate::transport::NetError;
use marauder_fault::{render_fixes, ChaosScenario, Fault, FaultPlan};
use marauder_obs::json::{Json, Layout};
use marauder_par::sub_seed;
use marauder_stream::{replay_frames, StreamConfig};
use marauder_wifi::sniffer::CapturedFrame;

/// One fleet chaos cell, fully accounted.
#[derive(Debug, Clone)]
pub struct FleetChaosCell {
    /// Cell name (`"clean"`, `"drop"`, ...).
    pub name: String,
    /// Canonical per-node plan spec (`"clean"` when no faults).
    pub plan: String,
    /// Nodes in the fleet.
    pub nodes: usize,
    /// Frames across all corrupted slices (what entered the wire).
    pub frames_in: usize,
    /// Frames the aggregator fed to the engine.
    pub frames_relayed: u64,
    /// Frames the engine judged late — zero whenever every node's
    /// watermark promise held.
    pub frames_late: usize,
    /// Frames released by the buffer bound instead of the watermark.
    pub frames_forced: u64,
    /// Re-sent batches the aggregator ignored.
    pub duplicate_batches: u64,
    /// Windows the merged stream closed.
    pub windows_closed: usize,
    /// Batch-equivalent fixes recovered.
    pub fixes: usize,
    /// Whether the fleet's fixes are byte-identical to a single-stream
    /// replay of the same corrupted union — the merge-adds-nothing
    /// invariant.
    pub matches_single_stream: bool,
}

/// The full fleet chaos report: one cell per fault class.
#[derive(Debug, Clone)]
pub struct FleetChaosReport {
    /// Scenario name.
    pub scenario: String,
    /// Campus simulation seed.
    pub sim_seed: u64,
    /// Fault-injector base seed (per-node streams are sub-seeded).
    pub fault_seed: u64,
    /// Fleet size every cell ran with.
    pub nodes: usize,
    /// The cells, in matrix order.
    pub cells: Vec<FleetChaosCell>,
}

impl FleetChaosReport {
    /// Whether every cell kept the merge-adds-nothing invariant.
    pub fn all_match(&self) -> bool {
        self.cells.iter().all(|c| c.matches_single_stream)
    }

    /// Renders the report as JSON.
    pub fn to_json(&self) -> String {
        let cells = self.cells.iter().map(|c| {
            let members = [
                ("name", c.name.as_str().into()),
                ("plan", c.plan.as_str().into()),
                ("nodes", c.nodes.into()),
                ("frames_in", c.frames_in.into()),
                ("frames_relayed", c.frames_relayed.into()),
                ("frames_late", c.frames_late.into()),
                ("frames_forced", c.frames_forced.into()),
                ("duplicate_batches", c.duplicate_batches.into()),
                ("windows_closed", c.windows_closed.into()),
                ("fixes", c.fixes.into()),
                ("matches_single_stream", c.matches_single_stream.into()),
            ];
            Json::obj(Layout::Inline, members)
        });
        let doc = Json::obj(
            Layout::Block,
            [
                ("scenario", self.scenario.as_str().into()),
                ("sim_seed", self.sim_seed.into()),
                ("fault_seed", self.fault_seed.into()),
                ("nodes", self.nodes.into()),
                ("all_match", self.all_match().into()),
                ("cells", Json::arr(Layout::Block, cells)),
            ],
        );
        doc.render()
    }
}

/// The per-node fault classes the fleet is chaos-tested against. The
/// clock-skew cell perturbs node clocks (positive offsets, corrected
/// conservatively from the handshake) rather than frame payloads.
fn matrix() -> Vec<(String, Option<FaultPlan>, Vec<f64>)> {
    let no_offsets = Vec::new();
    vec![
        ("clean".into(), None, no_offsets.clone()),
        (
            "drop".into(),
            Some(FaultPlan::single(Fault::Drop { p: 0.2 })),
            no_offsets.clone(),
        ),
        (
            "reorder".into(),
            Some(FaultPlan::single(Fault::Reorder { depth: 16 })),
            no_offsets.clone(),
        ),
        ("skew".into(), None, vec![0.0, 3.0, 7.5, 11.25]),
        (
            "truncate".into(),
            Some(FaultPlan::single(Fault::Truncate { fraction: 0.2 })),
            no_offsets.clone(),
        ),
        (
            "combo".into(),
            FaultPlan::parse("drop:0.1,reorder:8").ok(),
            no_offsets,
        ),
    ]
}

/// Runs one chaos cell: corrupt each node's slice, merge through the
/// loopback fleet, and verify against a single-stream replay of the
/// identical corrupted union.
///
/// # Errors
///
/// The first fatal fleet error (none are expected — the matrix stays
/// inside every promise bound by construction).
pub fn run_cell(
    scenario: &ChaosScenario,
    fault_seed: u64,
    name: &str,
    plan: Option<&FaultPlan>,
    clock_offsets: &[f64],
    nodes: usize,
) -> Result<FleetChaosCell, NetError> {
    let frames: Vec<CapturedFrame> = scenario.captures().iter().cloned().collect();
    let slices = split_round_robin(&frames, nodes);
    let corrupted: Vec<Vec<CapturedFrame>> = slices
        .iter()
        .enumerate()
        .map(|(k, slice)| match plan {
            Some(p) => corrupt_slice(slice, sub_seed(fault_seed, k as u64), p),
            None => slice.clone(),
        })
        .collect();
    let frames_in: usize = corrupted.iter().map(Vec::len).sum();

    let stream = StreamConfig {
        live_localization: false,
        ..StreamConfig::default()
    };
    let aggregator = Aggregator::new(
        scenario.fresh_map(),
        FleetConfig {
            stream: stream.clone(),
            expected_nodes: nodes,
            ..FleetConfig::default()
        },
    );
    let seats: Vec<(NodeConfig, Vec<CapturedFrame>)> = corrupted
        .iter()
        .enumerate()
        .map(|(k, slice)| {
            (
                NodeConfig {
                    batch_frames: 32,
                    reorder_slack_s: required_slack_s(slice),
                    clock_offset_s: clock_offsets.get(k).copied().unwrap_or(0.0),
                },
                slice.clone(),
            )
        })
        .collect();
    let mut fleet = LoopbackFleet::new(aggregator, seats);
    let closed = fleet.run()?;
    let mut agg = fleet.into_aggregator();
    let windows_closed = agg.engine().stats().windows_closed;
    let frames_late = agg.engine().stats().frames_late;
    let stats = agg.stats().clone();
    let fixes = agg.batch_fixes(closed);

    // Single-stream baseline over the same corrupted union, in the
    // merge order (timestamp, node id, within-node position).
    let mut union: Vec<(f64, usize, usize, &CapturedFrame)> = Vec::with_capacity(frames_in);
    for (node_id, slice) in corrupted.iter().enumerate() {
        for (i, f) in slice.iter().enumerate() {
            union.push((f.time_s, node_id, i, f));
        }
    }
    union.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let (baseline, _) = replay_frames(
        scenario.fresh_map(),
        stream,
        union.iter().map(|(_, _, _, f)| *f),
    );
    let matches_single_stream = render_fixes(&baseline) == render_fixes(&fixes);

    Ok(FleetChaosCell {
        name: name.to_string(),
        plan: plan
            .map(|p| p.to_string())
            .unwrap_or_else(|| "clean".into()),
        nodes,
        frames_in,
        frames_relayed: stats.frames_relayed,
        frames_late,
        frames_forced: stats.frames_forced,
        duplicate_batches: stats.duplicate_batches,
        windows_closed,
        fixes: fixes.len(),
        matches_single_stream,
    })
}

/// Runs the default fleet chaos matrix (clean / drop / reorder / skew
/// / truncate / combo) over `nodes` loopback nodes.
///
/// # Errors
///
/// The first fatal fleet error from any cell.
pub fn run_default_matrix(
    scenario: &ChaosScenario,
    fault_seed: u64,
    nodes: usize,
) -> Result<FleetChaosReport, NetError> {
    let mut cells = Vec::new();
    for (name, plan, offsets) in matrix() {
        cells.push(run_cell(
            scenario,
            fault_seed,
            &name,
            plan.as_ref(),
            &offsets,
            nodes,
        )?);
    }
    Ok(FleetChaosReport {
        scenario: scenario.name().to_string(),
        sim_seed: scenario.sim_seed(),
        fault_seed,
        nodes,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_matrix_merges_without_distortion() {
        let scenario = ChaosScenario::quick(7);
        let report = run_default_matrix(&scenario, 11, 4).expect("matrix runs");
        assert_eq!(report.cells.len(), 6);
        for cell in &report.cells {
            assert_eq!(
                cell.frames_relayed as usize, cell.frames_in,
                "{}: every frame entering the wire must reach the engine",
                cell.name
            );
            assert_eq!(cell.frames_late, 0, "{}: no late frames", cell.name);
            assert!(
                cell.matches_single_stream,
                "{}: fleet diverged from single-stream replay",
                cell.name
            );
        }
        assert!(report.cells[0].fixes > 0, "clean cell must produce fixes");
        let json = report.to_json();
        assert!(json.contains("\"all_match\": true"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn fleet_chaos_report_renders_its_golden_text() {
        let cell = |name: &str, plan: &str, late: usize, matches: bool| FleetChaosCell {
            name: name.into(),
            plan: plan.into(),
            nodes: 4,
            frames_in: 5120,
            frames_relayed: 5120,
            frames_late: late,
            frames_forced: 3,
            duplicate_batches: 17,
            windows_closed: 212,
            fixes: 198,
            matches_single_stream: matches,
        };
        let report = FleetChaosReport {
            scenario: "fig13".into(),
            sim_seed: 7,
            fault_seed: 11,
            nodes: 4,
            cells: vec![
                cell("clean", "clean", 0, true),
                cell("skew", "skew:0.25", 2, false),
            ],
        };
        assert_eq!(
            report.to_json(),
            include_str!("../../obs/tests/golden/fleet_chaos.json")
        );
    }
}
