//! `fleet-serve`: merge the capture over a loopback fleet, the way
//! `marauder fleet --loopback N` does, publishing every release to a
//! snapshot plane served by `serve::start`. Catch-up runs unpaced with
//! no readers; the live rest is fed on absolute deadlines while one
//! keep-alive connection reads in a closed loop.

use crate::inputs::{self, build_map, mismatches, mobiles};
use crate::iteration::{ms, peak_rss_mb, thread_cpu_s, Iteration};
use crate::layers;
use crate::mix::{self, Target, CLASSES};
use crate::placement::{pin, Placement};
use crate::trace::{lap, Tracer, NO_PARENT};
use crate::workload::{Drive, Workload, BATCH_FRAMES};
use marauder_core::pipeline::TrackFix;
use marauder_net::{
    required_slack_s, split_round_robin, Aggregator, FleetConfig, LoopbackFleet, NodeConfig,
};
use marauder_serve::loadgen::BenchClient;
use marauder_serve::{start, PublisherConfig, ServeConfig, TrackerPublisher};
use marauder_stream::SnapshotSink;
use marauder_wifi::capture_log::capture_log_frames;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The due stream time of each wire batch index: a step hands every
/// node's next batch over, so it is due once the latest frame in any of
/// them was captured.
fn batch_dues(slices: &[Vec<marauder_wifi::sniffer::CapturedFrame>]) -> Vec<f64> {
    let batches = slices
        .iter()
        .map(|s| s.len().div_ceil(BATCH_FRAMES))
        .max()
        .unwrap_or(0);
    (0..batches)
        .map(|b| {
            slices
                .iter()
                .flat_map(|s| s.iter().skip(b * BATCH_FRAMES).take(BATCH_FRAMES))
                .map(|f| f.time_s)
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect()
}

#[derive(Default)]
struct ReaderOut {
    query_ms: Vec<f64>,
    errors: u64,
    tracer: Option<Tracer>,
}

/// The live reader: connects and warms up, reports ready, then cycles
/// through the mix back to back until told to stop.
fn reader(
    addr: String,
    mix: Vec<Target>,
    cpu: Option<usize>,
    origin: Option<Instant>,
    ready: mpsc::Sender<Result<(), String>>,
    go: mpsc::Receiver<()>,
    stop: Arc<AtomicBool>,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let connected = pin(cpu).and_then(|()| {
        let mut client = BenchClient::connect(&addr).map_err(|e| format!("reader: {e}"))?;
        client.get("/healthz").map_err(|e| format!("reader: {e}"))?;
        Ok(client)
    });
    let mut client = match connected {
        Ok(client) => client,
        Err(e) => {
            let _ = ready.send(Err(e));
            return out;
        }
    };
    if ready.send(Ok(())).is_err() || go.recv().is_err() {
        return out;
    }
    let mut tr = origin.map(Tracer::new);
    let root = tr.as_mut().map(|t| t.open("reader"));
    let mut i = 0u64;
    while !stop.load(Ordering::Acquire) {
        let target = &mix[(i % mix.len() as u64) as usize];
        if let Some(t) = tr.as_mut() {
            t.mark();
        }
        let sent = Instant::now();
        match client.get(&target.path) {
            Ok(200) => out.query_ms.push(ms(sent.elapsed())),
            Ok(_) => out.errors += 1,
            Err(_) => {
                out.errors += 1;
                break;
            }
        }
        lap(&mut tr, "http.request", i);
        i += 1;
    }
    if let (Some(t), Some(root)) = (tr.as_mut(), root) {
        t.close(root);
    }
    out.tracer = tr;
    out
}

/// A device's `/track/<mac>` CSV as the server must render it from its
/// batch fixes.
fn expected_track_csv(fixes: &[&TrackFix]) -> String {
    let mut out = String::from("time_s,mobile,x,y,k,area_m2,provenance\n");
    for fix in fixes {
        let _ = writeln!(
            out,
            "{:.1},{},{:.2},{:.2},{},{:.0},{}",
            fix.time_s,
            fix.mobile,
            fix.estimate.position.x,
            fix.estimate.position.y,
            fix.gamma.len(),
            fix.estimate.area(),
            fix.provenance
        );
    }
    out
}

pub fn iteration(
    w: &Workload,
    seed: u64,
    input: &Path,
    derived: &Path,
    placement: Placement,
    origin: Option<Instant>,
) -> Result<Iteration, String> {
    let Drive::Fleet {
        nodes,
        catch_up_fraction,
        speedup,
    } = w.drive
    else {
        return Err(format!("{} is not a fleet workload", w.name));
    };
    // The mix needs the campaign's mobiles; the reference is read again
    // for the gate, so the program does not hold it while measured.
    let mix = mix::targets(seed, &mobiles(&inputs::read(derived, inputs::REFERENCE)?));
    marauder_obs::global().reset();
    let mut it = Iteration::default();
    let mut tr = origin.map(Tracer::new);

    // Set-up: knowledge and map, the whole capture log, the node split,
    // and the server (its threads placed on the reader's CPU).
    let setup_start = Instant::now();
    let setup_cpu = thread_cpu_s();
    let setup_span = tr.as_mut().map(|t| t.open("setup"));
    let aps_csv = inputs::read(input, inputs::APS)?;
    let log = inputs::read(input, inputs::CAPTURE)?;
    lap(&mut tr, "setup.read", 0);
    let map = build_map(&aps_csv, w.level)?;
    lap(&mut tr, "core.map_build", 0);
    let mut frames = Vec::new();
    for (line, item) in capture_log_frames(&log).enumerate() {
        frames.push(item.map_err(|e| format!("capture log: {e}"))?);
        lap(&mut tr, "wifi.parse", line as u64);
    }
    drop(log);
    let total = frames.len() as u64;
    let slices = split_round_robin(&frames, nodes);
    drop(frames);
    let dues = batch_dues(&slices);
    let seats: Vec<(NodeConfig, _)> = slices
        .into_iter()
        .map(|slice| {
            let config = NodeConfig {
                batch_frames: BATCH_FRAMES,
                reorder_slack_s: required_slack_s(&slice),
                ..NodeConfig::default()
            };
            (config, slice)
        })
        .collect();
    let aggregator = Aggregator::new(
        map,
        FleetConfig {
            expected_nodes: nodes,
            ..FleetConfig::default()
        },
    );
    let mut fleet = LoopbackFleet::new(aggregator, seats);
    let (mut publisher, plane) = TrackerPublisher::new(PublisherConfig::default());
    lap(&mut tr, "net.split", 0);
    pin(placement.reader)?;
    let server = start("127.0.0.1:0", Arc::clone(&plane), ServeConfig::default());
    pin(placement.feeder)?;
    let mut server = server.map_err(|e| e.to_string())?;
    lap(&mut tr, "serve.start", 0);
    if let (Some(t), Some(span)) = (tr.as_mut(), setup_span) {
        t.close(span);
    }
    it.setup_s = thread_cpu_s() - setup_cpu;
    it.setup_wall_s = setup_start.elapsed().as_secs_f64();

    // Catch-up: unpaced, no readers.
    marauder_obs::global().reset();
    let before = fleet.aggregator().engine().stats().clone();
    let phase_span = tr.as_mut().map(|t| t.open("phase"));
    let catch_up_target = (total as f64 * catch_up_fraction) as u64;
    let mut closed = Vec::new();
    let mut step = 0u64;
    let phase_start = Instant::now();
    let phase_cpu = thread_cpu_s();
    loop {
        if let Some(t) = tr.as_mut() {
            t.mark();
        }
        let handoff = thread_cpu_s();
        let (out, moved) = fleet.step().map_err(|e| e.to_string())?;
        lap(&mut tr, "net.step", step);
        if !out.is_empty() {
            publisher.publish(&out, fleet.aggregator().engine());
            lap(&mut tr, "serve.publish", step);
            let latency = (thread_cpu_s() - handoff) * 1e3;
            it.fix_ms.extend(std::iter::repeat_n(latency, out.len()));
            closed.extend(out);
        }
        step += 1;
        if !moved || fleet.aggregator().stats().frames_relayed >= catch_up_target {
            break;
        }
    }
    it.phase_s = phase_start.elapsed().as_secs_f64();
    it.phase_cpu_s = thread_cpu_s() - phase_cpu;
    it.phase_frames = fleet.aggregator().stats().frames_relayed;

    // Live: the reader joins, and the rest is fed on absolute deadlines
    // at `speedup` times stream time. A fix's latency runs from when the
    // step that released it was due, so feeder stalls count.
    let stop = Arc::new(AtomicBool::new(false));
    let (ready_tx, ready_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel();
    let reader_thread = {
        let (addr, mix, stop) = (server.addr().to_string(), mix.clone(), Arc::clone(&stop));
        let cpu = placement.reader;
        std::thread::spawn(move || reader(addr, mix, cpu, origin, ready_tx, go_rx, stop))
    };
    let ready = ready_rx
        .recv()
        .map_err(|_| "reader thread died".to_string())
        .and_then(|r| r);
    if let Some(t) = tr.as_mut() {
        t.mark();
    }
    let live = ready.and_then(|()| {
        go_tx
            .send(())
            .map_err(|_| "reader thread died".to_string())?;
        let live_start = Instant::now();
        let first = fleet.aggregator().stats().batches as usize / nodes;
        let stream0 = dues.get(first).copied().unwrap_or(0.0);
        let last_due = dues.last().copied().unwrap_or(0.0);
        loop {
            let batch = fleet.aggregator().stats().batches as usize / nodes;
            let due_s = dues.get(batch).copied().unwrap_or(last_due);
            let due = live_start + Duration::from_secs_f64(((due_s - stream0) / speedup).max(0.0));
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            lap(&mut tr, "feeder.pace", step);
            it.feeder_late_ms
                .push(ms(Instant::now().saturating_duration_since(due)));
            let (out, moved) = fleet.step().map_err(|e| e.to_string())?;
            lap(&mut tr, "net.step", step);
            if !out.is_empty() {
                publisher.publish(&out, fleet.aggregator().engine());
                lap(&mut tr, "serve.publish", step);
                let latency = ms(due.elapsed());
                it.live_fix_ms
                    .extend(std::iter::repeat_n(latency, out.len()));
                closed.extend(out);
            }
            step += 1;
            if !moved {
                break;
            }
            if let Some(t) = tr.as_mut() {
                t.mark();
            }
        }
        Ok(live_start)
    });
    stop.store(true, Ordering::Release);
    drop(go_tx);
    let read = reader_thread
        .join()
        .map_err(|_| "reader thread panicked".to_string())?;
    let live_start = live?;
    let mut aggregator = fleet.into_aggregator();
    if let Some(t) = tr.as_mut() {
        t.mark();
    }
    let handoff = Instant::now();
    let out = aggregator.finish();
    lap(&mut tr, "stream.close", step);
    publisher.publish(&out, aggregator.engine());
    lap(&mut tr, "serve.publish", step);
    let latency = ms(handoff.elapsed());
    it.live_fix_ms
        .extend(std::iter::repeat_n(latency, out.len()));
    closed.extend(out);
    it.live_s = live_start.elapsed().as_secs_f64();
    if let (Some(t), Some(span)) = (tr.as_mut(), phase_span) {
        t.close(span);
    }
    it.peak_rss_mb = peak_rss_mb()?;
    it.query_ms = read.query_ms;
    it.failed += read.errors;
    it.attempted += it.query_ms.len() as u64 + read.errors;

    // Untimed: per-layer numbers, then the correctness gate.
    let stats = aggregator.engine().stats().clone();
    if let (Some(t), Some(setup), Some(phase)) = (tr.as_mut(), setup_span, phase_span) {
        layers::attribute(&mut it, t, setup, phase, layers::lp_solve_ns());
        layers::counters(&mut it);
        layers::stream_counts(
            &mut it,
            stats.windows_closed - before.windows_closed,
            stats.lp_solves - before.lp_solves,
        );
        let times = mix::route_us(&plane.load(), &mix);
        for (class, us) in CLASSES.iter().zip(times) {
            it.layer(&format!("serve.route_us.{class}"), us, "us");
        }
        if let Some(reader_spans) = read.tracer {
            t.adopt(reader_spans, NO_PARENT);
        }
    }
    let fleet_stats = aggregator.stats().clone();
    it.failed += (stats.frames_late + stats.windows_evicted + stats.frames_malformed) as u64
        + fleet_stats.duplicate_batches
        + fleet_stats.frames_forced;
    let fixes = aggregator.batch_fixes(closed);
    let reference = inputs::read(derived, inputs::REFERENCE)?;
    let want: Vec<&str> = reference.lines().collect();
    it.mismatches = mismatches(&fixes, &want);
    it.attempted += it.phase_frames + want.len() as u64;

    // Every device's final `/track/<mac>` body must match its fixes.
    let mut by_mobile: Vec<(String, Vec<&TrackFix>)> = Vec::new();
    for fix in &fixes {
        let mac = fix.mobile.to_string();
        match by_mobile.last_mut() {
            Some((m, list)) if *m == mac => list.push(fix),
            _ => by_mobile.push((mac, vec![fix])),
        }
    }
    let mut client = BenchClient::connect(&server.addr().to_string())
        .map_err(|e| format!("check connect: {e}"))?;
    for (mac, list) in &by_mobile {
        it.attempted += 1;
        match client.get_body(&format!("/track/{mac}")) {
            Ok(body) if body == expected_track_csv(list) => {}
            Ok(_) => it.mismatches += 1,
            Err(_) => it.failed += 1,
        }
    }
    drop(client);
    server.shutdown();
    it.failed += it.mismatches;
    it.tracer = tr;
    Ok(it)
}
