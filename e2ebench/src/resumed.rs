//! `replay-durable` and `aprad-live`: resume a killed journaled replay
//! and ingest the rest of the capture unpaced, publishing every closed
//! window to a snapshot plane — the loop `marauder replay LOG --journal
//! DIR` runs on restart, plus publication.

use crate::inputs::{self, build_map, mismatches, mobiles};
use crate::iteration::{peak_rss_mb, thread_cpu_s, Iteration};
use crate::layers;
use crate::mix::{self, CLASSES};
use crate::trace::{lap, Tracer};
use crate::workload::{journal_config, Workload, CHECKPOINT_EVERY};
use marauder_serve::{PublisherConfig, TrackerPublisher};
use marauder_stream::{record_crc, FrameJournal, Recovery, SnapshotSink, StreamConfig};
use marauder_wifi::capture_log::capture_log_frames;
use std::path::Path;
use std::time::Instant;

/// Copies the crashed journal so every pass resumes the same crash.
fn fresh_journal(from: &Path, to: &Path) -> Result<(), String> {
    if to.exists() {
        std::fs::remove_dir_all(to).map_err(|e| format!("clear {}: {e}", to.display()))?;
    }
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("list journal: {e}"))? {
        let entry = entry.map_err(|e| format!("list journal: {e}"))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy journal: {e}"))?;
    }
    Ok(())
}

pub fn iteration(
    w: &Workload,
    seed: u64,
    input: &Path,
    derived: &Path,
    work: &Path,
    origin: Option<Instant>,
) -> Result<Iteration, String> {
    let dir = work.join(inputs::JOURNAL);
    fresh_journal(&derived.join(inputs::JOURNAL), &dir)?;
    marauder_obs::global().reset();
    let mut it = Iteration::default();
    let mut tr = origin.map(Tracer::new);

    // Set-up: knowledge and map, recovery, then the skip-and-verify pass
    // over the log prefix the killed run already journaled.
    let setup_start = Instant::now();
    let setup_cpu = thread_cpu_s();
    let setup_span = tr.as_mut().map(|t| t.open("setup"));
    let aps_csv = inputs::read(input, inputs::APS)?;
    let log = inputs::read(input, inputs::CAPTURE)?;
    lap(&mut tr, "setup.read", 0);
    let map = build_map(&aps_csv, w.level)?;
    lap(&mut tr, "core.map_build", 0);
    let Recovery {
        mut journal,
        mut engine,
        mut closed,
        next_seq: start_seq,
        tail_crcs,
        report,
    } = FrameJournal::recover(&dir, map, StreamConfig::default()).map_err(|e| e.to_string())?;
    journal.set_config(journal_config());
    let (mut publisher, plane) = TrackerPublisher::new(PublisherConfig::default());
    lap(&mut tr, "journal.recover", 0);
    let ckpt_seq = report.checkpoint_seq.unwrap_or(0);
    let verify_span = tr.as_mut().map(|t| t.open("resume.verify"));
    let mut frames = capture_log_frames(&log);
    for seq in 0..start_seq {
        let frame = match frames.next() {
            Some(Ok(frame)) => frame,
            Some(Err(e)) => return Err(format!("capture log prefix: {e}")),
            None => return Err("capture log is shorter than the journal".into()),
        };
        lap(&mut tr, "wifi.parse", seq);
        if seq >= ckpt_seq && record_crc(seq, &frame) != tail_crcs[(seq - ckpt_seq) as usize] {
            return Err(format!("frame {seq} does not match the journal's record"));
        }
        lap(&mut tr, "resume.crc", seq);
    }
    if let (Some(t), Some(span)) = (tr.as_mut(), verify_span) {
        t.close(span);
    }
    if let (Some(t), Some(span)) = (tr.as_mut(), setup_span) {
        t.close(span);
    }
    it.setup_s = thread_cpu_s() - setup_cpu;
    it.setup_wall_s = setup_start.elapsed().as_secs_f64();

    // Timed phase: parse -> append -> push -> publish, a checkpoint
    // every CHECKPOINT_EVERY frames, then seal, finish and publish.
    marauder_obs::global().reset();
    let before = engine.stats().clone();
    let phase_span = tr.as_mut().map(|t| t.open("phase"));
    let phase_start = Instant::now();
    let phase_cpu = thread_cpu_s();
    let mut seq = start_seq;
    loop {
        if let Some(t) = tr.as_mut() {
            t.mark();
        }
        let frame = match frames.next() {
            None => break,
            Some(Ok(frame)) => frame,
            Some(Err(_)) => {
                it.failed += 1;
                continue;
            }
        };
        lap(&mut tr, "wifi.parse", seq);
        let handoff = thread_cpu_s();
        journal.append(&frame).map_err(|e| e.to_string())?;
        lap(&mut tr, "journal.append", seq);
        let out = engine.push(&frame);
        if out.is_empty() {
            lap(&mut tr, "stream.push", seq);
        } else {
            lap(&mut tr, "stream.close", seq);
            publisher.publish(&out, &engine);
            lap(&mut tr, "serve.publish", seq);
            let latency = (thread_cpu_s() - handoff) * 1e3;
            it.fix_ms.extend(std::iter::repeat_n(latency, out.len()));
            closed.extend(out);
        }
        seq += 1;
        if (seq - start_seq) % CHECKPOINT_EVERY == 0 {
            if let Some(t) = tr.as_mut() {
                t.mark();
            }
            journal
                .checkpoint(&engine, &closed)
                .map_err(|e| e.to_string())?;
            lap(&mut tr, "journal.checkpoint", seq);
        }
    }
    if let Some(t) = tr.as_mut() {
        t.mark();
    }
    journal
        .checkpoint(&engine, &closed)
        .and_then(|()| journal.sync())
        .map_err(|e| e.to_string())?;
    lap(&mut tr, "journal.checkpoint", seq);
    let handoff = thread_cpu_s();
    let out = engine.finish();
    lap(&mut tr, "stream.close", seq);
    publisher.publish(&out, &engine);
    lap(&mut tr, "serve.publish", seq);
    let latency = (thread_cpu_s() - handoff) * 1e3;
    it.fix_ms.extend(std::iter::repeat_n(latency, out.len()));
    closed.extend(out);
    it.phase_s = phase_start.elapsed().as_secs_f64();
    it.phase_cpu_s = thread_cpu_s() - phase_cpu;
    it.phase_frames = seq - start_seq;
    if let (Some(t), Some(span)) = (tr.as_mut(), phase_span) {
        t.close(span);
    }
    it.peak_rss_mb = peak_rss_mb()?;

    // Untimed: per-layer numbers, then the correctness gate.
    let reference = inputs::read(derived, inputs::REFERENCE)?;
    let stats = engine.stats().clone();
    if let (Some(t), Some(setup), Some(phase)) = (tr.as_ref(), setup_span, phase_span) {
        layers::attribute(&mut it, t, setup, phase, layers::lp_solve_ns());
        layers::counters(&mut it);
        layers::stream_counts(
            &mut it,
            stats.windows_closed - before.windows_closed,
            stats.lp_solves - before.lp_solves,
        );
        let macs = mobiles(&reference);
        let times = mix::route_us(&plane.load(), &mix::targets(seed, &macs));
        for (class, us) in CLASSES.iter().zip(times) {
            it.layer(&format!("serve.route_us.{class}"), us, "us");
        }
    }
    it.failed += (stats.frames_late + stats.windows_evicted + stats.frames_malformed) as u64;
    let fixes = engine.batch_fixes(closed);
    let want: Vec<&str> = reference.lines().collect();
    it.mismatches = mismatches(&fixes, &want);
    it.failed += it.mismatches;
    it.attempted = it.phase_frames + want.len() as u64;
    it.tracer = tr;
    Ok(it)
}
