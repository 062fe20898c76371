//! AP-Rad's two LP solvers on the fig. 13 campus.
//!
//! Every cold LP round runs as a min-cost flow by default, with the
//! simplex kept as the reference. On the paper's headline scenario at
//! the locations-only level, the two must reach the same optimum (Σr
//! within 1e-9 relative), both must cover every co-observed AP pair,
//! and the flow's radii must not depend on the worker count.

use marauders_map::core::algorithms::{ApRad, LpMethod};
use marauders_map::core::pipeline::{KnowledgeLevel, MaraudersMap};
use marauders_map::fault::ChaosScenario;
use marauders_map::geo::Point;
use marauders_map::par;
use marauders_map::wifi::mac::MacAddr;
use std::collections::{BTreeMap, BTreeSet};

/// Every co-observed located pair has `r_i + r_j ≥ d_ij − 1e-6`.
fn covers_every_co_observed_pair(
    name: &str,
    radii: &BTreeMap<MacAddr, f64>,
    locations: &BTreeMap<MacAddr, Point>,
    observations: &[BTreeSet<MacAddr>],
) {
    let mut pairs = 0usize;
    for gamma in observations {
        let located: Vec<&MacAddr> = gamma.iter().filter(|m| radii.contains_key(m)).collect();
        for (k, a) in located.iter().enumerate() {
            for b in &located[k + 1..] {
                let d = locations[*a].distance(locations[*b]);
                let (ra, rb) = (radii[*a], radii[*b]);
                assert!(ra + rb >= d - 1e-6, "{name}: {a} + {b} = {ra} + {rb} < {d}");
                pairs += 1;
            }
        }
    }
    assert!(
        pairs > 100,
        "{name}: only {pairs} co-observed pairs checked"
    );
}

#[test]
fn flow_and_simplex_reach_the_same_radii_on_fig13() {
    let scenario = ChaosScenario::fig13(7);
    let config = scenario.config().clone();
    let map = MaraudersMap::new(
        scenario.knowledge().without_radii(),
        KnowledgeLevel::LocationsOnly,
        config.clone(),
    );
    let locations = map.ap_locations().clone();
    let observations: Vec<BTreeSet<MacAddr>> = scenario
        .captures()
        .observation_sets(config.window_s)
        .into_iter()
        .map(|o| o.aps)
        .collect();
    let with = |lp: LpMethod| ApRad {
        lp,
        ..config.aprad.clone()
    };

    let flow = with(LpMethod::Flow).estimate_radii(&locations, &observations);
    let simplex = with(LpMethod::Simplex).estimate_radii(&locations, &observations);
    assert!(flow.len() > 50, "only {} APs estimated", flow.len());
    assert_eq!(
        flow.keys().collect::<Vec<_>>(),
        simplex.keys().collect::<Vec<_>>()
    );
    let (sum_flow, sum_simplex): (f64, f64) = (flow.values().sum(), simplex.values().sum());
    assert!(
        (sum_flow - sum_simplex).abs() <= 1e-9 * sum_simplex.abs(),
        "Σr differs: flow {sum_flow}, simplex {sum_simplex}"
    );
    covers_every_co_observed_pair("flow", &flow, &locations, &observations);
    covers_every_co_observed_pair("simplex", &simplex, &locations, &observations);

    // Bit-identical at any worker count.
    for threads in [1usize, 7] {
        par::set_threads(threads);
        let again = with(LpMethod::Flow).estimate_radii(&locations, &observations);
        par::set_threads(0);
        for (mac, r) in &flow {
            assert_eq!(
                r.to_bits(),
                again[mac].to_bits(),
                "{mac} moved at {threads} threads: {r} vs {}",
                again[mac]
            );
        }
    }
}
