#!/usr/bin/env python3
"""Runs one end-to-end benchmark measurement of the live tracking pipeline.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. It builds the benchmark package (into
$CARGO_TARGET_DIR, default .bench_build) and generates the workload's
inputs for the seed in processes of their own: the simulated campus,
cached by (workload, seed) under .bench_cache/inputs, and what this
build derives from it (reference fixes, crashed journals), cached under
.bench_cache/derived/<build>. It then runs passes of the measured
program, each a fresh process over one campus, until S seconds are up
and every campus had the same number of passes, and prints the metrics
as the last line. See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("replay-durable", "aprad-live", "fleet-serve")
# Stop a pass that hangs; a whole run must end within 180 s.
WATCHDOG_S = 120


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, env=None):
    """Runs a helper step with its output on stderr; fails the run on error."""
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"{' '.join(cmd[:2])} exited with {done.returncode}")


def percentile(samples, q):
    """Nearest-rank q-quantile (0 < q <= 1); 0 when there are no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def one_pass(cmd):
    """Runs one pass; returns its result line."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WATCHDOG_S)
    except subprocess.TimeoutExpired:
        fail(f"pass did not end within {WATCHDOG_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"pass exited with {done.returncode}")
    return json.loads(lines[-1])


def cached(directory, cmd):
    """Runs `cmd --out <staging>` unless `directory` is complete, then
    moves the staging directory into place."""
    if os.path.exists(os.path.join(directory, "complete")):
        return
    staging = f"{directory}.tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    run_checked(cmd + ["--out", staging])
    shutil.rmtree(directory, ignore_errors=True)
    os.rename(staging, directory)


def build_id(exe):
    """Names a build by its binary's contents."""
    digest = hashlib.sha256()
    with open(exe, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    traced_run = args.trace == 1

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    run_checked(["cargo", "build", "--release", "--offline", "--quiet",
                 "--manifest-path", os.path.join(BENCH, "Cargo.toml")], env=env)
    exe = os.path.join(target, "release", "e2ebench")

    # Generation runs in processes of its own, so no pass pays for or
    # holds it. The simulated campus is a pure function of (workload,
    # seed); the reference fixes and crashed journals are computed by the
    # program's own code, so every build derives its own.
    cache = os.path.join(ROOT, ".bench_cache")
    key = f"{args.workload}-{args.seed}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    inputs = os.path.join(cache, "inputs", key)
    cached(inputs, [exe, "gen"] + common)
    derived = os.path.join(cache, "derived", build_id(exe), key)
    cached(derived, [exe, "derive"] + common + ["--input", inputs])
    campuses = sorted(d for d in os.listdir(inputs) if d.startswith("campus-"))

    # Passes cycle through the campuses. A traced run makes an untraced
    # and a traced pass on each, so tracing overhead is measured in-run.
    per_campus = 2 if traced_run else 1
    cycle = len(campuses) * per_campus
    min_passes = cycle if traced_run or len(campuses) > 1 else 3
    work = os.path.join(cache, "work", f"{args.workload}-{os.getpid()}")
    spans = os.path.join(cache, "traces", f"{args.workload}-{args.seed}.tsv")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    passes = []
    started = time.monotonic()
    try:
        while (len(passes) < min_passes or len(passes) % cycle
               or time.monotonic() - started < args.seconds):
            n = len(passes)
            traced = traced_run and n % 2 == 1
            campus = campuses[(n // per_campus) % len(campuses)]
            result = one_pass([exe, "run"] + common + [
                "--input", os.path.join(inputs, campus),
                "--derived", os.path.join(derived, campus), "--work", work,
                "--trace", "1" if traced else "0", "--spans", spans])
            result["traced"] = traced
            result["campus"] = campus
            passes.append(result)
            print(f"{args.workload} pass {n + 1} ({campus}{', traced' if traced else ''}): "
                  f"setup {result['setup_s']:.4f} s CPU, {result['phase_frames']:.0f} frames "
                  f"in {result['phase_cpu_s']:.4f} s CPU ({result['phase_s']:.4f} s wall), "
                  f"fix p50 {percentile(result['fix_ms'], 0.5):.3f} ms CPU, "
                  f"{result['failed']:.0f} failed",
                  file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    pooled = lambda key: [x for p in plain for x in p[key]]
    fix_ms, live_fix_ms, query_ms = pooled("fix_ms"), pooled("live_fix_ms"), pooled("query_ms")
    total = lambda ps, key: sum(p[key] for p in ps)
    # Throughput: each campus's frames over the median CPU time of its
    # passes (a pass over one campus always ingests the same frames), so
    # one pass that a burst on the host sped up or slowed down does not
    # move it.
    campus_passes = {}
    for p in plain:
        campus_passes.setdefault(p["campus"], []).append(p)
    frames_per_cpu_s = (
        sum(ps[0]["phase_frames"] for ps in campus_passes.values())
        / sum(statistics.median(p["phase_cpu_s"] for p in ps) for ps in campus_passes.values()))
    live_s = sum(p["live_s"] for p in plain)
    first = passes[0]
    report = {
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "traced_passes": len(traced), "nproc": first["nproc"],
        "par_threads": first["par_threads"], "placement": first["placement"],
        "fix_cpu_p50_ms": percentile(fix_ms, 0.50),
        "fix_cpu_p99_ms": percentile(fix_ms, 0.99),
        "fix_samples": len(fix_ms),
        "setup_wall_s": statistics.median(p["setup_wall_s"] for p in plain),
        "frames_per_wall_s": total(plain, "phase_frames") / total(plain, "phase_s"),
        "setup_s_per_pass": [round(p["setup_s"], 4) for p in plain],
        "frames_per_cpu_s_per_pass": [round(p["phase_frames"] / p["phase_cpu_s"])
                                      for p in plain],
        "frames_per_wall_s_per_pass": [round(p["phase_frames"] / p["phase_s"]) for p in plain],
        "fix_cpu_ms_p50_per_pass": [round(percentile(p["fix_ms"], 0.5), 3) for p in plain],
        "peak_rss_mb_per_pass": [round(p["peak_rss_mb"], 1) for p in plain],
    }
    if query_ms:
        report.update({
            "live_fix_p50_ms": percentile(live_fix_ms, 0.50),
            "live_fix_p99_ms": percentile(live_fix_ms, 0.99),
            "live_fix_samples": len(live_fix_ms),
            "query_p50_ms": percentile(query_ms, 0.50),
            "query_p99_ms": percentile(query_ms, 0.99),
            "query_samples": len(query_ms),
            "query_per_s": len(query_ms) / live_s if live_s else 0.0,
            "feeder_late_p50_ms": percentile(pooled("feeder_late_ms"), 0.50),
        })

    if traced_run:
        # Per-layer: the median over traced passes of each value.
        metrics = {}
        for name in traced[0]["layers"]:
            values = [p["layers"][name][0] for p in traced]
            metrics[name] = {"value": statistics.median(values),
                             "unit": traced[0]["layers"][name][1]}
        phase = lambda ps: sum(p["phase_s"] for p in ps) * 1e3
        overhead = (phase(traced) - phase(plain)) / len(traced)
        metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
        report.update({"trace_overhead_ms_per_pass": overhead,
                       "untraced_phase_ms_per_pass": phase(plain) / len(plain),
                       "unattributed_share": metrics["unattributed_share"]["value"],
                       "spans": os.path.relpath(spans, ROOT)})
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p["setup_s"] for p in plain), "unit": "s"},
            "frames_per_cpu_s": {"value": frames_per_cpu_s, "unit": "frames/cpu-s"},
            "fix_cpu_ms": {"value": report["fix_cpu_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in plain),
                            "unit": "MiB"},
        }

    failed = sum(int(p["failed"]) for p in passes)
    mismatches = sum(int(p["mismatches"]) for p in passes)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and mismatches == 0,
        "attempted": sum(int(p["attempted"]) for p in passes),
        "failed": failed,
        "metrics": metrics,
    }))
    if failed or mismatches:
        fail(f"{mismatches} fix mismatches, {failed} failed operations")


if __name__ == "__main__":
    main()
