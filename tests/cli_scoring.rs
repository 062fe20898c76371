//! `marauder attack --truth` scores each fix against the ground-truth
//! row nearest its window's centre, as the figure tables do.

use marauders_map::core::pipeline::AttackConfig;
use std::process::Command;

/// `(time_s, mobile, x, y)` rows of a CSV with a header line.
fn rows(csv: &str) -> Vec<(f64, String, f64, f64)> {
    csv.lines()
        .skip(1)
        .map(|line| {
            let f: Vec<&str> = line.split(',').collect();
            let num = |i: usize| f[i].parse::<f64>().expect("number");
            (num(0), f[1].to_string(), num(2), num(3))
        })
        .collect()
}

#[test]
fn truth_scoring_matches_each_fix_at_its_window_centre() {
    let dir = std::env::temp_dir().join(format!("marauder-cli-scoring-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let marauder = || Command::new(env!("CARGO_BIN_EXE_marauder"));
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "7",
            "--aps",
            "130",
            "--mobiles",
            "8",
            "--duration",
            "900",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(out.status.success());
    let out = marauder()
        .arg("attack")
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .arg("--captures")
        .arg(dir.join("capture.log"))
        .arg("--truth")
        .arg(dir.join("truth.csv"))
        .output()
        .expect("run attack");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "attack failed: {stderr}");

    // Recompute the mean from the printed fixes: the nearest truth row
    // of the same mobile to the window centre, the first on a tie.
    let half_window = AttackConfig::default().window_s / 2.0;
    let fixes = rows(&String::from_utf8_lossy(&out.stdout));
    let truth = rows(&std::fs::read_to_string(dir.join("truth.csv")).expect("read truth"));
    let mut errors = Vec::new();
    for (t, mobile, x, y) in &fixes {
        let centre = t + half_window;
        let nearest = truth
            .iter()
            .filter(|row| row.1 == *mobile)
            .min_by(|a, b| (a.0 - centre).abs().total_cmp(&(b.0 - centre).abs()));
        if let Some((_, _, tx, ty)) = nearest {
            errors.push((x - tx).hypot(y - ty));
        }
    }
    assert!(errors.len() > 100, "too few scored fixes: {}", errors.len());
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;

    let line = stderr
        .lines()
        .find(|l| l.starts_with("mean error vs ground truth: "))
        .expect("a scoring line");
    let printed: f64 = line["mean error vs ground truth: ".len()..]
        .split(' ')
        .next()
        .and_then(|m| m.parse().ok())
        .expect("a printed mean");
    assert!(
        line.ends_with(&format!(" m over {} scored fixes", errors.len())),
        "{line}"
    );
    // The printed mean has one decimal; the CSV positions have two.
    assert!(
        (printed - mean).abs() <= 0.06,
        "printed {printed} m, recomputed {mean:.3} m at the window centres"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
