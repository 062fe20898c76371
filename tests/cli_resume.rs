//! A resumed `marauder replay --journal` checks every frame it skips
//! against the journal's record of it, the frames its restored
//! checkpoint covers included: a capture that differs anywhere in the
//! journaled prefix, or ends before it, is refused with exit code 1.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn marauder() -> Command {
    Command::new(env!("CARGO_BIN_EXE_marauder"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("marauder-cli-resume-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Simulates the seed's campus into `dir/seed-N` and returns its
/// knowledge file and the lines of its capture log (header first).
fn campus(dir: &Path, seed: u64) -> (PathBuf, Vec<String>) {
    let out_dir = dir.join(format!("seed-{seed}"));
    let out = marauder()
        .args(["simulate", "--seed", &seed.to_string()])
        .args(["--aps", "50", "--mobiles", "3", "--duration", "180"])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("run simulate");
    assert!(out.status.success(), "simulate seed {seed} failed");
    let log = std::fs::read_to_string(out_dir.join("capture.log")).expect("read capture log");
    let lines = log.lines().map(str::to_string).collect();
    (out_dir.join("aps.csv"), lines)
}

/// Writes `lines` as a capture log at `dir/name`.
fn write_log(dir: &Path, name: &str, lines: &[String]) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, lines.join("\n") + "\n").expect("write capture log");
    path
}

/// Runs `replay LOG --knowledge K --journal DIR --checkpoint-every N`.
fn replay(log: &Path, knowledge: &Path, journal: &Path, every: u32) -> Output {
    marauder()
        .arg("replay")
        .arg(log)
        .arg("--knowledge")
        .arg(knowledge)
        .arg("--journal")
        .arg(journal)
        .args(["--checkpoint-every", &every.to_string()])
        .output()
        .expect("run replay")
}

/// Journals the first half of the seed-9 capture, checkpointing every
/// `every` frames, and seals it. Returns the knowledge file, the whole
/// capture's lines and the journal.
fn interrupted(dir: &Path, every: u32) -> (PathBuf, Vec<String>, PathBuf) {
    let (knowledge, lines) = campus(dir, 9);
    let half = write_log(dir, "half.log", &lines[..1 + (lines.len() - 1) / 2]);
    let journal = dir.join("wal");
    let out = replay(&half, &knowledge, &journal, every);
    assert!(
        out.status.success(),
        "the interrupted run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (knowledge, lines, journal)
}

/// Removes the journal's newest checkpoint: the kill landed before it.
fn lose_newest_checkpoint(journal: &Path) {
    let mut checkpoints: Vec<PathBuf> = std::fs::read_dir(journal)
        .expect("list journal")
        .map(|e| e.expect("journal entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    checkpoints.sort();
    std::fs::remove_file(checkpoints.last().expect("a checkpoint")).expect("remove checkpoint");
}

/// Moves frame `k`'s timestamp (line `k + 1`) by one microsecond.
fn nudge(lines: &mut [String], k: usize) {
    let (time, rest) = lines[k + 1].split_once(' ').expect("a frame line");
    let time: f64 = time.parse().expect("a timestamp");
    lines[k + 1] = format!("{:.6} {rest}", time + 1e-6);
}

/// The resumed replay exits 1 and its error is `want`.
fn assert_refused(out: &Output, want: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.lines().any(|l| l == format!("error: {want}")),
        "want {want:?}, got: {stderr}"
    );
}

#[test]
fn a_sealed_journal_refuses_another_campaigns_capture() {
    let dir = temp_dir("foreign");
    let (knowledge, _, journal) = interrupted(&dir, 64);
    let (_, foreign) = campus(&dir, 10);
    let log = write_log(&dir, "seed-10.log", &foreign);

    let out = replay(&log, &knowledge, &journal, 64);
    assert_refused(
        &out,
        &format!(
            "frame 0 of {} does not match the journal's record — this is not the capture log \
             the interrupted run journaled",
            log.display()
        ),
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_edit_below_the_restored_checkpoint_is_refused() {
    let dir = temp_dir("below");
    let (knowledge, mut lines, journal) = interrupted(&dir, 150);
    // Recovery restores the checkpoint at frame 150 and replays the
    // rest of the journal above it.
    lose_newest_checkpoint(&journal);
    assert!(journal
        .join(format!("checkpoint-{:020}.ckpt", 150))
        .exists());
    nudge(&mut lines, 10);
    let log = write_log(&dir, "edited.log", &lines);

    let out = replay(&log, &knowledge, &journal, 150);
    assert_refused(
        &out,
        &format!(
            "frame 10 of {} does not match the journal's record — this is not the capture log \
             the interrupted run journaled",
            log.display()
        ),
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_edit_above_the_restored_checkpoint_is_refused() {
    let dir = temp_dir("above");
    let (knowledge, mut lines, journal) = interrupted(&dir, 150);
    lose_newest_checkpoint(&journal);
    nudge(&mut lines, 170);
    let log = write_log(&dir, "edited.log", &lines);

    let out = replay(&log, &knowledge, &journal, 150);
    assert_refused(
        &out,
        &format!(
            "frame 170 of {} does not match the journal's record — this is not the capture log \
             the interrupted run journaled",
            log.display()
        ),
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_capture_cut_short_of_the_journal_is_refused() {
    let dir = temp_dir("short");
    let (knowledge, lines, journal) = interrupted(&dir, 64);
    let journaled = (lines.len() - 1) / 2;
    let log = write_log(&dir, "short.log", &lines[..101]);

    let out = replay(&log, &knowledge, &journal, 64);
    assert_refused(
        &out,
        &format!(
            "{} holds only 100 valid frames but the journal says {journaled} were already \
             ingested — wrong capture log for this journal?",
            log.display()
        ),
    );

    let _ = std::fs::remove_dir_all(&dir);
}
