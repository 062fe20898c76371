//! Integration tests for the `marauder` CLI: simulate → attack → link
//! through real files, exercising every interchange format.

use std::path::PathBuf;
use std::process::Command;

fn marauder() -> Command {
    Command::new(env!("CARGO_BIN_EXE_marauder"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("marauder-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn simulate_attack_link_round_trip() {
    let dir = temp_dir("roundtrip");
    // simulate
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "5",
            "--aps",
            "60",
            "--mobiles",
            "4",
            "--duration",
            "240",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in ["aps.csv", "capture.log", "training.csv", "truth.csv"] {
        assert!(dir.join(f).exists(), "missing {f}");
    }

    // attack at full knowledge, with scoring and geojson.
    let geojson = dir.join("map.geojson");
    let out = marauder()
        .arg("attack")
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .arg("--captures")
        .arg(dir.join("capture.log"))
        .arg("--truth")
        .arg(dir.join("truth.csv"))
        .arg("--geojson")
        .arg(&geojson)
        .output()
        .expect("run attack");
    assert!(
        out.status.success(),
        "attack failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("time_s,mobile,x,y,k,area_m2"));
    assert!(stdout.lines().count() > 3, "expected fixes, got: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mean error"), "no scoring in: {stderr}");
    let geo = std::fs::read_to_string(&geojson).expect("geojson written");
    assert!(geo.contains("FeatureCollection"));

    // attack at the other two levels.
    for level_args in [vec!["--level", "locations"], vec!["--level", "none"]] {
        let mut cmd = marauder();
        cmd.arg("attack")
            .arg("--captures")
            .arg(dir.join("capture.log"));
        if level_args[1] == "none" {
            cmd.arg("--training").arg(dir.join("training.csv"));
        } else {
            cmd.arg("--knowledge").arg(dir.join("aps.csv"));
        }
        cmd.args(&level_args);
        let out = cmd.output().expect("run attack");
        assert!(
            out.status.success(),
            "attack {level_args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // link
    let out = marauder()
        .arg("link")
        .arg("--captures")
        .arg(dir.join("capture.log"))
        .output()
        .expect("run link");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("device,pseudonyms,fingerprint"));

    // report
    let out = marauder()
        .arg("report")
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .arg("--captures")
        .arg(dir.join("capture.log"))
        .output()
        .expect("run report");
    assert!(
        out.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("attack report"));
    assert!(stdout.contains("devices ("));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_matches_attack_fix_for_fix() {
    let dir = temp_dir("replay");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "9",
            "--aps",
            "50",
            "--mobiles",
            "3",
            "--duration",
            "180",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Batch attack at full knowledge.
    let attack = marauder()
        .arg("attack")
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .arg("--captures")
        .arg(dir.join("capture.log"))
        .output()
        .expect("run attack");
    assert!(attack.status.success());

    // Streaming replay of the same log (positional argument form).
    let replay = marauder()
        .arg("replay")
        .arg(dir.join("capture.log"))
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .output()
        .expect("run replay");
    assert!(
        replay.status.success(),
        "replay failed: {}",
        String::from_utf8_lossy(&replay.stderr)
    );
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert!(stderr.contains("windows closed"), "no summary in: {stderr}");
    assert!(stderr.contains("0 late"), "frames dropped: {stderr}");

    // At full knowledge the radii never change, so the fixes printed
    // live as windows closed are exactly the batch fixes — the replay
    // emits them chronologically, the attack sorts per mobile, so
    // compare as sorted line sets.
    let collect = |bytes: &[u8]| -> Vec<String> {
        let text = String::from_utf8_lossy(bytes).to_string();
        let mut lines: Vec<String> = text.lines().skip(1).map(str::to_string).collect();
        lines.sort();
        lines
    };
    let batch_lines = collect(&attack.stdout);
    let live_lines = collect(&replay.stdout);
    assert!(!batch_lines.is_empty(), "attack produced no fixes");
    assert_eq!(live_lines, batch_lines, "replay diverged from attack");

    // Paced replay (very fast so the test stays quick) produces the
    // same output.
    let paced = marauder()
        .arg("replay")
        .arg(dir.join("capture.log"))
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .args(["--speed", "100000"])
        .output()
        .expect("run paced replay");
    assert!(paced.status.success());
    assert_eq!(collect(&paced.stdout), batch_lines);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journaled_replay_resumes_after_a_lost_checkpoint() {
    let dir = temp_dir("journal");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "9",
            "--aps",
            "50",
            "--mobiles",
            "3",
            "--duration",
            "180",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(out.status.success());
    let knowledge = dir.join("aps.csv");
    let log = dir.join("capture.log");
    let journal = dir.join("wal");

    // The interrupted run: the first half of the capture, journaled.
    let text = std::fs::read_to_string(&log).expect("read capture log");
    let lines: Vec<&str> = text.lines().collect();
    let half = dir.join("half.log");
    let keep = 1 + (lines.len() - 1) / 2;
    std::fs::write(&half, lines[..keep].join("\n") + "\n").expect("write half log");
    let replay = |capture: &PathBuf| {
        let out = marauder()
            .arg("replay")
            .arg(capture)
            .arg("--knowledge")
            .arg(&knowledge)
            .arg("--journal")
            .arg(&journal)
            .args(["--checkpoint-every", "64"])
            .output()
            .expect("run replay");
        assert!(
            out.status.success(),
            "replay failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    replay(&half);

    // Kill before the seal: the newest checkpoint never landed.
    let mut checkpoints: Vec<PathBuf> = std::fs::read_dir(&journal)
        .expect("list journal")
        .map(|e| e.expect("journal entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    checkpoints.sort();
    assert!(checkpoints.len() >= 2, "want a checkpoint to fall back to");
    std::fs::remove_file(checkpoints.last().expect("newest checkpoint")).expect("remove");

    // Resume over the whole log, then salvage the journal.
    replay(&log);
    let recover = marauder()
        .arg("recover")
        .arg(&journal)
        .arg("--knowledge")
        .arg(&knowledge)
        .output()
        .expect("run recover");
    assert!(
        recover.status.success(),
        "recover failed: {}",
        String::from_utf8_lossy(&recover.stderr)
    );
    let attack = marauder()
        .arg("attack")
        .arg("--knowledge")
        .arg(&knowledge)
        .arg("--captures")
        .arg(&log)
        .output()
        .expect("run attack");
    assert!(attack.status.success());
    let sorted = |bytes: &[u8]| -> Vec<String> {
        let mut lines: Vec<String> = String::from_utf8_lossy(bytes)
            .lines()
            .skip(1)
            .map(str::to_string)
            .collect();
        lines.sort();
        lines
    };
    let batch = sorted(&attack.stdout);
    assert!(!batch.is_empty(), "attack produced no fixes");
    assert_eq!(sorted(&recover.stdout), batch, "recovered journal diverged");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journaled_replay_at_locations_level_resumes_the_live_fixes() {
    // At the locations-only level every live fix rides on the AP-Rad
    // radii, so the resumed replay prints the uninterrupted run's fixes
    // only if recovery rebuilt the engine's radii and counters exactly.
    let dir = temp_dir("journal-locations");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "9",
            "--aps",
            "60",
            "--mobiles",
            "4",
            "--duration",
            "600",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(out.status.success());
    let knowledge = dir.join("aps.csv");
    let log = dir.join("capture.log");
    let journal = dir.join("wal");

    // The interrupted run: the first half of the capture, journaled.
    let text = std::fs::read_to_string(&log).expect("read capture log");
    let lines: Vec<&str> = text.lines().collect();
    let half = dir.join("half.log");
    let keep = 1 + (lines.len() - 1) / 2;
    std::fs::write(&half, lines[..keep].join("\n") + "\n").expect("write half log");
    let replay = |capture: &PathBuf, journaled: bool| {
        let mut cmd = marauder();
        cmd.arg("replay")
            .arg(capture)
            .arg("--knowledge")
            .arg(&knowledge)
            .args(["--level", "locations"]);
        if journaled {
            cmd.arg("--journal")
                .arg(&journal)
                .args(["--checkpoint-every", "512"]);
        }
        let out = cmd.output().expect("run replay");
        assert!(
            out.status.success(),
            "replay failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    replay(&half, true);

    // Kill before the seal: the newest checkpoint never landed, so
    // recovery restores the one before it and replays the tail.
    let mut checkpoints: Vec<PathBuf> = std::fs::read_dir(&journal)
        .expect("list journal")
        .map(|e| e.expect("journal entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    checkpoints.sort();
    assert!(checkpoints.len() >= 2, "want a checkpoint to fall back to");
    std::fs::remove_file(checkpoints.last().expect("newest checkpoint")).expect("remove");

    let resumed = replay(&log, true);
    let clean = replay(&log, false);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    let tail: u64 = stderr
        .split_once("on disk (")
        .and_then(|(_, rest)| rest.split_whitespace().next()?.parse().ok())
        .expect("the resumed replay reports its recovery");
    assert!(
        tail >= 100,
        "want a tail of a few hundred frames, got {tail}"
    );

    // The resumed run prints what the uninterrupted run printed after
    // the kill, and closes out with the same summary.
    let body = |bytes: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(bytes)
            .lines()
            .skip(1)
            .map(str::to_string)
            .collect()
    };
    let (resumed_body, clean_body) = (body(&resumed.stdout), body(&clean.stdout));
    assert!(
        !resumed_body.is_empty(),
        "the resumed replay printed no fix"
    );
    assert!(
        clean_body.ends_with(&resumed_body),
        "resumed fixes are not a suffix of the uninterrupted replay's"
    );
    let summary = |bytes: &[u8]| {
        String::from_utf8_lossy(bytes)
            .lines()
            .last()
            .map(str::to_string)
    };
    assert_eq!(summary(&resumed.stderr), summary(&clean.stderr));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_follow_tails_an_appended_log() {
    use std::io::Read;

    let dir = temp_dir("follow");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "3",
            "--aps",
            "40",
            "--mobiles",
            "2",
            "--duration",
            "120",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(out.status.success());

    // Start following an empty log, then write the real content behind
    // the follower's back — it must pick the frames up and emit fixes.
    let log = dir.join("live.log");
    std::fs::write(&log, "# marauder capture v1\n").expect("seed log");
    let mut child = marauder()
        .arg("replay")
        .arg(&log)
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .arg("--follow")
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn follower");
    let full = std::fs::read_to_string(dir.join("capture.log")).expect("read capture");
    let body = full.split_once('\n').map(|x| x.1).expect("capture body");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&log)
            .expect("open log for append");
        f.write_all(body.as_bytes()).expect("append frames");
    }
    std::thread::sleep(std::time::Duration::from_millis(1500));
    child.kill().expect("stop follower");
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)
        .expect("read follower output");
    child.wait().expect("reap follower");
    assert!(
        stdout.starts_with("time_s,mobile,x,y,k,area_m2"),
        "no header in follower output: {stdout:?}"
    );
    assert!(
        stdout.lines().count() > 1,
        "follower emitted no fixes: {stdout:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn follow_rejects_explicit_speed_zero() {
    let dir = temp_dir("follow-speed");
    std::fs::write(dir.join("c.log"), "# marauder capture v1\n").expect("write log");
    std::fs::write(
        dir.join("a.csv"),
        "bssid,ssid,x,y,radius\n00:16:00:00:00:64,,0,0,120\n",
    )
    .expect("write knowledge");

    // A live tail cannot run "as fast as possible": the combination is
    // a usage mistake (exit 2, usage printed), not a runtime failure.
    let out = marauder()
        .arg("replay")
        .arg(dir.join("c.log"))
        .arg("--knowledge")
        .arg(dir.join("a.csv"))
        .args(["--follow", "--speed", "0"])
        .output()
        .expect("run replay");
    assert_eq!(out.status.code(), Some(2), "--follow --speed 0 must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--follow"),
        "error must name the flags: {stderr}"
    );
    assert!(stderr.contains("usage:"), "usage must follow: {stderr}");

    // Flag order must not matter.
    let out = marauder()
        .arg("replay")
        .arg(dir.join("c.log"))
        .arg("--knowledge")
        .arg(dir.join("a.csv"))
        .args(["--speed", "0", "--follow"])
        .output()
        .expect("run replay");
    assert_eq!(out.status.code(), Some(2), "flag order must not matter");

    // --speed 0 alone stays the documented "as fast as possible" mode.
    let out = marauder()
        .arg("replay")
        .arg(dir.join("c.log"))
        .arg("--knowledge")
        .arg(dir.join("a.csv"))
        .args(["--speed", "0"])
        .output()
        .expect("run replay");
    assert_eq!(
        out.status.code(),
        Some(0),
        "--speed 0 without --follow is fine"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_loopback_matches_replay() {
    let dir = temp_dir("fleet");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "13",
            "--aps",
            "50",
            "--mobiles",
            "3",
            "--duration",
            "180",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let collect = |bytes: &[u8]| -> Vec<String> {
        let text = String::from_utf8_lossy(bytes).to_string();
        let mut lines: Vec<String> = text.lines().skip(1).map(str::to_string).collect();
        lines.sort();
        lines
    };
    let replay = marauder()
        .arg("replay")
        .arg(dir.join("capture.log"))
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .output()
        .expect("run replay");
    assert!(replay.status.success());
    let baseline = collect(&replay.stdout);
    assert!(!baseline.is_empty(), "replay produced no fixes");

    // The same log merged across loopback nodes, both split policies,
    // yields the same fixes.
    for (nodes, split) in [("1", "rr"), ("3", "rr"), ("4", "time")] {
        let fleet = marauder()
            .arg("fleet")
            .arg(dir.join("capture.log"))
            .arg("--knowledge")
            .arg(dir.join("aps.csv"))
            .args(["--loopback", nodes, "--split", split])
            .output()
            .expect("run fleet");
        assert!(
            fleet.status.success(),
            "fleet --loopback {nodes} --split {split} failed: {}",
            String::from_utf8_lossy(&fleet.stderr)
        );
        assert_eq!(
            collect(&fleet.stdout),
            baseline,
            "fleet --loopback {nodes} --split {split} diverged from replay"
        );
        let stderr = String::from_utf8_lossy(&fleet.stderr);
        assert!(stderr.contains("windows closed"), "no summary: {stderr}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_help_exits_zero() {
    // Requested help is a success: usage on stdout, exit 0 — in every
    // spelling, including after a subcommand.
    for args in [
        vec!["--help"],
        vec!["-h"],
        vec!["help"],
        vec!["replay", "--help"],
        vec!["simulate", "-h"],
    ] {
        let out = marauder().args(&args).output().expect("run help");
        assert_eq!(out.status.code(), Some(0), "{args:?} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("usage:"),
            "{args:?} must print usage on stdout, got: {stdout:?}"
        );
    }
    // A genuine mistake still exits 2: help must not swallow the
    // error path.
    let out = marauder().output().expect("run bare");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn stats_deterministic_sections_are_thread_invariant() {
    let dir = temp_dir("stats");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "11",
            "--aps",
            "50",
            "--mobiles",
            "3",
            "--duration",
            "180",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The counter/gauge/histogram sections must be byte-identical at
    // every thread count; only what follows the "nondeterministic" key
    // may differ.
    let deterministic_prefix = |threads: &str| -> String {
        let out = marauder()
            .arg("stats")
            .arg(dir.join("capture.log"))
            .arg("--knowledge")
            .arg(dir.join("aps.csv"))
            .args(["--level", "locations", "--threads", threads])
            .output()
            .expect("run stats");
        assert!(
            out.status.success(),
            "stats --threads {threads} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = String::from_utf8_lossy(&out.stdout).to_string();
        json.split("\"nondeterministic\"")
            .next()
            .expect("split never yields zero pieces")
            .to_string()
    };
    let t1 = deterministic_prefix("1");
    assert!(t1.contains("\"counters\""), "no counters section: {t1}");
    assert!(
        t1.contains("stream.windows_closed"),
        "no stream counters: {t1}"
    );
    assert!(t1.contains("lp.solves"), "no lp counters: {t1}");
    assert_eq!(t1, deterministic_prefix("2"), "threads 1 vs 2 diverged");
    assert_eq!(t1, deterministic_prefix("7"), "threads 1 vs 7 diverged");

    // --metrics FILE dumps the same registry shape from any command.
    let metrics = dir.join("attack-metrics.json");
    let out = marauder()
        .arg("attack")
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .arg("--captures")
        .arg(dir.join("capture.log"))
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("run attack with metrics");
    assert!(
        out.status.success(),
        "attack --metrics failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dumped = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(dumped.contains("\"core.windows_localized\""));
    assert!(dumped.contains("\"nondeterministic\""));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn helpful_errors() {
    // No args: usage + exit 2.
    let out = marauder().output().expect("run bare");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Unknown command.
    let out = marauder().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());

    // Missing required flag.
    let out = marauder().args(["attack"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--captures"));

    // Bad level.
    let dir = temp_dir("badlevel");
    std::fs::write(dir.join("c.log"), "# marauder capture v1\n").expect("write");
    std::fs::write(dir.join("a.csv"), "bssid,ssid,x,y,radius\n").expect("write");
    let out = marauder()
        .arg("attack")
        .arg("--captures")
        .arg(dir.join("c.log"))
        .arg("--knowledge")
        .arg(dir.join("a.csv"))
        .args(["--level", "bogus"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --level"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: the CLI once paced replays with a local
/// `Duration::from_secs_f64((t - t0) / speed)` — a capture line whose
/// timestamp survives parsing but is absurd (`1e300`) panicked the
/// whole process the moment `--speed` turned pacing on. The stream
/// `Pacer` treats such jumps as log discontinuities: released
/// immediately, no panic, replay completes. This test fed the old
/// binary a three-line doctored log and watched it abort; against the
/// fix it must exit 0, fast.
#[test]
fn replay_survives_absurd_timestamp_at_high_speed() {
    let dir = temp_dir("pacer-regression");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "7",
            "--aps",
            "40",
            "--mobiles",
            "2",
            "--duration",
            "120",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(out.status.success());

    // Rewrite three real frame lines to t = 1.0, 1e300, 2.0: a valid
    // log whose schedule no Duration can represent.
    let full = std::fs::read_to_string(dir.join("capture.log")).expect("read capture");
    let frames: Vec<&str> = full.lines().filter(|l| !l.starts_with('#')).collect();
    assert!(frames.len() >= 3, "simulate produced too few frames");
    let retime = |line: &str, t: &str| {
        let rest = line.split_once(' ').expect("frame line").1;
        format!("{t} {rest}")
    };
    let doctored = format!(
        "# marauder capture v1\n{}\n{}\n{}\n",
        retime(frames[0], "1.0"),
        retime(frames[1], "1e300"),
        retime(frames[2], "2.0"),
    );
    let log = dir.join("doctored.log");
    std::fs::write(&log, doctored).expect("write doctored log");

    let out = marauder()
        .arg("replay")
        .arg(&log)
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .args(["--speed", "1000000"])
        .output()
        .expect("run replay");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "replay died on an absurd timestamp: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "replay panicked: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `marauder serve` end to end: replays a capture into the serving
/// plane and answers real HTTP on the announced address.
#[test]
fn serve_announces_and_answers_http() {
    use std::io::{BufRead, BufReader};

    let dir = temp_dir("serve-smoke");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "11",
            "--aps",
            "40",
            "--mobiles",
            "2",
            "--duration",
            "120",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(out.status.success());

    let mut child = marauder()
        .arg("serve")
        .arg(dir.join("capture.log"))
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .args(["--listen", "127.0.0.1:0", "--speed", "0", "--linger", "30"])
        .stdout(std::process::Stdio::piped())
        // Piped, not inherited: the server's progress line would
        // otherwise land in the middle of the test harness's own output.
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // First stdout line announces the bound address (`:0` resolved).
    let mut announce = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut announce)
        .expect("read announcement");
    let addr = announce
        .trim()
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("bad announcement: {announce:?}"))
        .to_string();

    let mut client = marauders_map::serve::loadgen::BenchClient::connect(&addr)
        .expect("connect to served address");
    let health = client.get_body("/healthz").expect("/healthz");
    assert_eq!(health, "ok\n");
    let metrics = client.get_body("/metrics").expect("/metrics");
    assert!(metrics.contains("serve.requests"));
    // The served engine document restores over the map built from the
    // same knowledge file.
    let doc = client.get_bytes("/snapshot").expect("/snapshot");
    let db = marauders_map::core::apdb::ApDatabase::from_csv(
        &std::fs::read_to_string(dir.join("aps.csv")).expect("read aps.csv"),
    )
    .expect("parse aps.csv");
    let map = marauders_map::core::MaraudersMap::new(
        db,
        marauders_map::core::KnowledgeLevel::Full,
        marauders_map::core::AttackConfig::default(),
    );
    let engine =
        marauders_map::stream::StreamEngine::restore(map, &doc).expect("/snapshot restores");
    assert!(engine.stats().frames_total > 0);
    assert_eq!(client.get("/nope").expect("/nope"), 404);

    child.kill().expect("stop serve");
    child.wait_with_output().expect("reap serve");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The TCP fleet end to end: `marauder node` streams to `marauder
/// fleet --listen` and both print what the in-process loopback fleet
/// prints. The log carries one `inf` and one `NaN` stamp. Neither may
/// reach the node's watermark: an `inf` stamp once made the default
/// `--slack` infinite (the node exited 2), and a `NaN` one held the
/// merge gate shut until the idle timeout (the listener exited 1).
#[test]
fn fleet_listen_matches_loopback_with_non_finite_stamps() {
    use std::io::{BufRead, BufReader, Read};

    let dir = temp_dir("fleet-tcp");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "13",
            "--aps",
            "50",
            "--mobiles",
            "3",
            "--duration",
            "180",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(out.status.success());
    let full = std::fs::read_to_string(dir.join("capture.log")).expect("read capture");
    let mut lines: Vec<String> = full.lines().map(str::to_string).collect();
    let retime = |line: &str, t: &str| format!("{t} {}", line.split_once(' ').expect("frame").1);
    let (third, two_thirds) = (lines.len() / 3, 2 * lines.len() / 3);
    let nan = retime(&lines[two_thirds], "NaN");
    lines.insert(two_thirds, nan);
    let inf = retime(&lines[third], "inf");
    lines.insert(third, inf);
    let log = dir.join("stamped.log");
    std::fs::write(&log, lines.join("\n") + "\n").expect("write log");

    let loopback = marauder()
        .arg("fleet")
        .arg(&log)
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .args(["--loopback", "1"])
        .output()
        .expect("run loopback fleet");
    assert!(loopback.status.success());
    assert!(String::from_utf8_lossy(&loopback.stdout).lines().count() > 1);

    let mut listener = marauder()
        .arg("fleet")
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--nodes",
            "1",
            "--idle-timeout",
            "10",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn listener");
    let mut stderr = BufReader::new(listener.stderr.take().expect("piped stderr"));
    let mut announce = String::new();
    stderr.read_line(&mut announce).expect("read announcement");
    let addr = announce
        .strip_prefix("fleet: listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("bad announcement: {announce:?}"))
        .to_string();

    let node = marauder()
        .arg("node")
        .arg(&log)
        .args(["--connect", &addr])
        .output()
        .expect("run node");
    assert!(
        node.status.success(),
        "node failed: {}",
        String::from_utf8_lossy(&node.stderr)
    );
    let mut csv = Vec::new();
    listener
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_end(&mut csv)
        .expect("read fleet csv");
    let status = listener.wait().expect("reap listener");
    let mut rest = String::new();
    stderr
        .read_to_string(&mut rest)
        .expect("read listener stderr");
    assert!(status.success(), "listener failed: {rest}");
    assert_eq!(
        String::from_utf8_lossy(&csv),
        String::from_utf8_lossy(&loopback.stdout)
    );

    let _ = std::fs::remove_dir_all(&dir);
}
