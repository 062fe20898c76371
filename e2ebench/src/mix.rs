//! The read mix: the repository's own operator mix,
//! `serve::loadgen::workload_target` (its endpoint bands and its
//! `sub_seed` stream), addressed to the campaign's mobiles. That
//! function names device `j` as `MacAddr::from_index(j)`, which a
//! simulated campus never uses, so each such MAC is mapped onto the
//! campaign's `j`-th mobile in sorted order; otherwise the mix would
//! measure the 404 path.

use marauder_serve::loadgen::workload_target;
use marauder_serve::{parse_request, route, Parsed, Request, TrackerSnapshot};
use marauder_wifi::mac::MacAddr;
use std::collections::BTreeMap;
use std::time::Instant;

/// Endpoint classes, in the order per-class numbers are reported.
pub const CLASSES: [&str; 6] = [
    "track_csv",
    "track_json",
    "tiles",
    "snapshot",
    "metrics",
    "healthz",
];

/// The reader's client index in `workload_target` (there is one reader).
const READER: u64 = 0;

/// Requests in the sequence the reader cycles through.
const CYCLE: u64 = 4096;

/// Requests of the sequence [`route_us`] times: a tiles render on a
/// dense campus's final snapshot takes over 10 ms, so the whole cycle
/// would add seconds to every traced pass.
const ROUTED: usize = 512;

#[derive(Debug, Clone)]
pub struct Target {
    pub class: usize,
    pub path: String,
}

fn class_of(path: &str) -> usize {
    match path {
        p if p.starts_with("/track/") && p.ends_with("?format=json") => 1,
        p if p.starts_with("/track/") => 0,
        p if p.starts_with("/tiles") => 2,
        "/snapshot" => 3,
        "/metrics" => 4,
        _ => 5,
    }
}

/// Requests `0..CYCLE` of `workload_target` at `seed`, over the
/// campaign's mobiles (`macs`, sorted, non-empty).
pub fn targets(seed: u64, macs: &[String]) -> Vec<Target> {
    let devices = macs.len();
    let campaign: BTreeMap<String, &str> = macs
        .iter()
        .enumerate()
        .map(|(j, mac)| (MacAddr::from_index(j as u64 + 1).to_string(), mac.as_str()))
        .collect();
    (0..CYCLE)
        .map(|i| {
            let mut path = workload_target(seed, READER, i, devices);
            if let Some(rest) = path.strip_prefix("/track/") {
                let (device, query) = rest.split_at(rest.find('?').unwrap_or(rest.len()));
                if let Some(mac) = campaign.get(device) {
                    path = format!("/track/{mac}{query}");
                }
            }
            Target {
                class: class_of(&path),
                path,
            }
        })
        .collect()
}

fn request(path: &str) -> Option<Request> {
    let wire = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
    match parse_request(wire.as_bytes()) {
        Ok(Parsed::Complete { request, .. }) => Some(request),
        _ => None,
    }
}

/// Mean `serve::route` time per endpoint class, µs, over the start of
/// the mix against one snapshot (the render path: no cache, no socket).
pub fn route_us(snapshot: &TrackerSnapshot, mix: &[Target]) -> [f64; CLASSES.len()] {
    let mut total_ns = [0u128; CLASSES.len()];
    let mut count = [0u32; CLASSES.len()];
    for target in mix.iter().take(ROUTED) {
        let Some(req) = request(&target.path) else {
            continue;
        };
        let start = Instant::now();
        let response = route(&req, snapshot);
        total_ns[target.class] += start.elapsed().as_nanos();
        std::hint::black_box(response);
        count[target.class] += 1;
    }
    let mut out = [0.0; CLASSES.len()];
    for c in 0..CLASSES.len() {
        if count[c] > 0 {
            out[c] = total_ns[c] as f64 / count[c] as f64 / 1e3;
        }
    }
    out
}
