//! Campaign-engine benchmarks: `track_all` throughput across worker
//! counts, M-Loc over the windows of a benchmark-sized campus, and
//! grid-pruned vs full-scan AP-Rad constraint generation.
//!
//! Run with `CRITERION_JSON_OUT=results/BENCH_pipeline.json` to record
//! the machine-readable baseline committed in `results/`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use marauder_bench::common::{link_for, measured_knowledge, victim_scenario};
use marauder_core::algorithms::{ApRad, PairPruning};
use marauder_core::apdb::ApDatabase;
use marauder_core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap};
use marauder_geo::Point;
use marauder_sim::scenario::{CampusScenario, SimulationResult, WorldModel};
use marauder_wifi::mac::MacAddr;
use std::collections::{BTreeMap, BTreeSet};

/// The fig. 13 campus campaign (one seed): the workload every figure
/// shares, and the honest input for the parallel-speedup claim.
fn campaign() -> SimulationResult {
    let (result, _) = victim_scenario(3, WorldModel::FreeSpace);
    result
}

fn attack_config() -> AttackConfig {
    AttackConfig {
        window_s: 15.0,
        aprad: ApRad {
            max_radius: 400.0,
            min_observations_for_negative: 6,
            ..Default::default()
        },
        ..AttackConfig::default()
    }
}

fn bench_track_all(c: &mut Criterion) {
    let result = campaign();
    let link = link_for(&result, WorldModel::FreeSpace, 3);
    let db = measured_knowledge(&result, &link);
    let mut map = MaraudersMap::new(db, KnowledgeLevel::Full, attack_config());
    map.ingest(&result.captures);
    let devices: BTreeSet<MacAddr> = map
        .track_all(&result.captures)
        .iter()
        .map(|f| f.mobile)
        .collect();

    let mut group = c.benchmark_group("pipeline/track_all");
    group.throughput(Throughput::Elements(devices.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                marauder_par::set_threads(threads);
                b.iter(|| black_box(map.track_all(&result.captures)));
                marauder_par::set_threads(0);
            },
        );
    }
    group.finish();
}

/// M-Loc on the campus the `replay-durable` and `fleet-serve`
/// end-to-end workloads simulate (400 APs, 200 mobiles, 350 m half
/// width, full knowledge), over a five-minute campaign: `try_locate` on
/// each of its 967 windows, which hold 31 coverage discs on average.
fn bench_locate_campus(c: &mut Criterion) {
    let result = CampusScenario::builder()
        .seed(1)
        .region_half_width(350.0)
        .num_aps(400)
        .num_mobiles(200)
        .duration_s(300.0)
        .build()
        .run();
    let db = ApDatabase::from_access_points(&result.aps, result.environment_margin);
    let mut map = MaraudersMap::new(db, KnowledgeLevel::Full, AttackConfig::default());
    map.ingest(&result.captures);
    let windows: Vec<BTreeSet<MacAddr>> = result
        .captures
        .observation_sets(map.config().window_s)
        .into_iter()
        .map(|o| o.aps)
        .collect();

    let mut group = c.benchmark_group("pipeline/locate");
    group.throughput(Throughput::Elements(windows.len() as u64));
    group.bench_function("campus", |b| {
        b.iter(|| {
            for gamma in &windows {
                black_box(map.try_locate(gamma).ok());
            }
        })
    });
    group.finish();
}

/// City-scale pruning workload: a 48×48 AP grid at 300 m pitch
/// (roughly 20× the fig. 13 campus), every AP observed past the
/// negative-evidence threshold, plus a sprinkling of co-observations.
/// `max_radius` is set so `2·max_radius` sits just under the pitch:
/// no pair can bind, every LP is a trivial per-AP solve, and the
/// timed delta is purely the candidate-pair scan — the full scan
/// probes all ~2.65M pairs while the grid visits only the empty
/// neighborhoods within `2·max_radius`.
fn city(side: u64) -> (BTreeMap<MacAddr, Point>, Vec<BTreeSet<MacAddr>>) {
    let pitch = 300.0;
    let mut locations = BTreeMap::new();
    for i in 0..side {
        for j in 0..side {
            locations.insert(
                MacAddr::from_index(1000 + i * side + j),
                Point::new(i as f64 * pitch, j as f64 * pitch),
            );
        }
    }
    let macs: Vec<MacAddr> = locations.keys().copied().collect();
    let mut observations: Vec<BTreeSet<MacAddr>> = Vec::new();
    // Six sweeps push every AP over the threshold used below.
    for _ in 0..6 {
        observations.extend(macs.iter().map(|m| BTreeSet::from([*m])));
    }
    // Every third horizontal edge is co-observed once: realistic spotty
    // co-observation coverage that the negative-pair gate must exclude.
    for (n, pair) in macs.windows(2).enumerate() {
        if n % 3 == 0 {
            observations.push(BTreeSet::from([pair[0], pair[1]]));
        }
    }
    (locations, observations)
}

fn bench_aprad_pruning(c: &mut Criterion) {
    let (locations, observations) = city(48);

    // End-to-end radius estimation; the two strategies return
    // bit-identical radii, so the delta is pure constraint-generation
    // cost. Inputs are built once, outside the timed loop.
    let mut group = c.benchmark_group("pipeline/aprad_negative_pairs");
    group.sample_size(10);
    for (name, pruning) in [
        ("full_scan", PairPruning::FullScan),
        ("grid", PairPruning::Grid),
    ] {
        let aprad = ApRad {
            pruning,
            max_radius: 140.0,
            ..attack_config().aprad
        };
        group.bench_function(name, |b| {
            b.iter(|| black_box(aprad.estimate_radii(&locations, &observations)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_track_all,
    bench_locate_campus,
    bench_aprad_pruning
);
criterion_main!(benches);
