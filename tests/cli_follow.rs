//! `marauder replay --follow` applies the same malformed-input rule as
//! plain `replay`: a bad header is fatal, up to `--error-budget N` bad
//! body lines are skipped and reported, and the next one is fatal.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::Duration;

fn marauder() -> Command {
    Command::new(env!("CARGO_BIN_EXE_marauder"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("marauder-cli-follow-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A one-AP knowledge file: enough for the follower to start.
fn tiny_knowledge(dir: &Path) -> PathBuf {
    let path = dir.join("aps.csv");
    std::fs::write(&path, "bssid,ssid,x,y,radius\n00:16:00:00:00:64,,0,0,120\n")
        .expect("write knowledge");
    path
}

/// Starts `replay LOG --knowledge APS --follow` plus `extra`, with its
/// stdout and stderr in files beside the log.
fn follow(log: &Path, aps: &Path, extra: &[&str]) -> Child {
    let out = File::create(log.with_extension("out")).expect("stdout file");
    let err = File::create(log.with_extension("err")).expect("stderr file");
    marauder()
        .arg("replay")
        .arg(log)
        .arg("--knowledge")
        .arg(aps)
        .arg("--follow")
        .args(extra)
        .stdout(out)
        .stderr(err)
        .spawn()
        .expect("spawn follower")
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Polls `done` every 50 ms, at most 600 times (30 s of sleep).
fn wait_until(mut done: impl FnMut() -> bool) -> bool {
    for _ in 0..600 {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    done()
}

/// Waits for a follower that must stop on its own; kills it and fails
/// if it is still following after the deadline.
fn exit_code(mut child: Child) -> Option<i32> {
    let mut status = None;
    let exited = wait_until(|| {
        status = child.try_wait().expect("poll follower");
        status.is_some()
    });
    if !exited {
        let _ = child.kill();
        let _ = child.wait();
        panic!("the follower kept running");
    }
    status.and_then(|s| s.code())
}

#[test]
fn follow_skips_malformed_lines_within_the_error_budget() {
    let dir = temp_dir("budget");
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
    let aps = dir.join("aps.csv");

    // Line 6 of the log is damaged; everything else is the campus.
    let full = std::fs::read_to_string(dir.join("capture.log")).expect("read capture");
    let mut lines: Vec<&str> = full.lines().collect();
    lines.insert(5, "1.0 0 zz");
    let log = dir.join("bad.log");
    std::fs::write(&log, lines.join("\n") + "\n").expect("write damaged log");

    // What plain replay reports for the same log.
    let replay = marauder()
        .arg("replay")
        .arg(&log)
        .arg("--knowledge")
        .arg(&aps)
        .args(["--error-budget", "1"])
        .output()
        .expect("run replay");
    let replay_err = String::from_utf8_lossy(&replay.stderr);
    assert!(replay.status.success(), "replay failed: {replay_err}");
    let skip = replay_err
        .lines()
        .find(|l| l.starts_with("skipping malformed line 6: "))
        .expect("replay reports the skip")
        .to_string();

    let mut child = follow(&log, &aps, &["--error-budget", "1"]);
    let reported = || {
        read(log.with_extension("out")).lines().count() > 1
            && read(log.with_extension("err")).lines().any(|l| l == skip)
    };
    wait_until(|| reported() || child.try_wait().expect("poll follower").is_some());
    let reported = reported();
    let following = child.try_wait().expect("poll follower").is_none();
    let _ = child.kill();
    let _ = child.wait();
    let stdout = read(log.with_extension("out"));
    let stderr = read(log.with_extension("err"));
    assert!(
        reported,
        "no fixes or no skip report; stdout: {stdout:?}, stderr: {stderr:?}"
    );
    assert!(following, "the follower stopped: {stderr}");
    assert!(stdout.starts_with("time_s,mobile,x,y,k,area_m2\n"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn follow_exhausts_a_zero_error_budget() {
    let dir = temp_dir("exhausted");
    let aps = tiny_knowledge(&dir);
    let log = dir.join("bad.log");
    std::fs::write(&log, "# marauder capture v1\n\n1.0 0 zz\n").expect("write log");

    let code = exit_code(follow(&log, &aps, &["--error-budget", "0"]));
    let stderr = read(log.with_extension("err"));
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(
        stderr,
        "error: malformed-input budget of 0 exhausted at line 3\n"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn follow_refuses_a_log_without_a_header() {
    let dir = temp_dir("header");
    let aps = tiny_knowledge(&dir);
    let log = dir.join("headless.log");
    std::fs::write(&log, "1.0 0 40\n").expect("write log");

    let code = exit_code(follow(&log, &aps, &["--error-budget", "5"]));
    let stderr = read(log.with_extension("err"));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: not a capture log: "),
        "unexpected error: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
