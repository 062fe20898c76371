//! `marauder replay --follow` reads on from the end of the lines it has
//! consumed, so a log that shrinks below that offset while it follows
//! is an error, not a silent re-read.

use std::fs::File;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "marauder-cli-follow-truncated-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
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

#[test]
fn a_follower_whose_log_shrinks_exits_with_an_error() {
    let dir = temp_dir("shrinks");
    let aps = dir.join("aps.csv");
    std::fs::write(&aps, "bssid,ssid,x,y,radius\n00:16:00:00:00:64,,0,0,120\n")
        .expect("write knowledge");
    // The malformed third line tells the test when the follower has
    // consumed the log: it reports the skip.
    let header = "# marauder capture v1\n";
    let log = dir.join("capture.log");
    std::fs::write(&log, format!("{header}\n1.0 0 zz\n")).expect("write log");

    let mut child = Command::new(env!("CARGO_BIN_EXE_marauder"))
        .arg("replay")
        .arg(&log)
        .arg("--knowledge")
        .arg(&aps)
        .args(["--follow", "--error-budget", "1"])
        .stdout(File::create(dir.join("out")).expect("stdout file"))
        .stderr(File::create(dir.join("err")).expect("stderr file"))
        .spawn()
        .expect("spawn follower");
    let consumed = wait_until(|| read(dir.join("err")).contains("skipping malformed line 3"));

    // Cut the log back to its header, below the consumed offset.
    std::fs::write(&log, header).expect("shrink log");
    let mut status = None;
    let exited = wait_until(|| {
        status = child.try_wait().expect("poll follower");
        status.is_some()
    });
    if !exited {
        let _ = child.kill();
        let _ = child.wait();
    }
    let stderr = read(dir.join("err"));
    assert!(consumed, "the follower never consumed the log: {stderr}");
    assert!(exited, "the follower kept running: {stderr}");
    assert_eq!(status.and_then(|s| s.code()), Some(1), "{stderr}");
    assert!(
        stderr.ends_with(&format!(
            "error: {} was truncated while following\n",
            log.display()
        )),
        "unexpected stderr: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
