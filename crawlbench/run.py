#!/usr/bin/env python3
"""Crawl benchmark: the scan, compare and archive workloads.

Run from the root of a checkout:

    python3 crawlbench/run.py --workload scan --seed 42 --seconds 30 --trace 0

The script builds `crawlbench/` (a package of its own) with cargo into
`$CARGO_TARGET_DIR` (default `.bench_build`), then starts legs: fresh
processes of the `crawlbench` binary, one after another, each running the
workload with N = nproc workers. Every workload is a closed loop: each
worker takes the next site only when its last one is done.

--trace 0  starts untraced legs until --seconds have passed (at least
           three), plus set-up-only processes, and prints every end-to-end
           metric of BENCHMARK.json as the median over the legs. Times and
           throughputs are scaled to a reference host speed by a
           calibration around each pass (src/calib.rs, NOTES.md).
--trace 1  starts pairs of an untraced and a traced leg until --seconds
           have passed and prints every per-layer metric (median over the
           pairs), with the tracing overhead and the span coverage.

Every leg checks its outputs (see NOTES.md); legs of one run must also agree
with each other. Any mismatch prints no numbers: only `"correct": false`
and the failures (on standard error), and exits 1. The last line of
standard output is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_LEGS = 3
MAX_LEGS = 20
# Set-up-only processes started after each leg, and the fewest set-up
# samples a run takes; spreading them over the run spreads them over the
# host's speed drift.
SETUPS_PER_LEG = 3
MIN_SETUP_SAMPLES = 20
LEG_TIMEOUT_S = 120
# The development seed; on scan, a run at this seed also checks the
# 5,000-site goldens (Table 5 and the telemetry digest).
DEV_SEED = 42

# How each workload fills the end-to-end metrics. The JSON uses the names
# of BENCHMARK.json; the report also prints workload-specific aliases.
PASS_NOTES = {
    "scan": {
        "sites_per_s": "cold Scan::run, N workers, 2,000 sites",
        "warm_sites_per_s": "second Scan::run in the same process, N workers",
        "warm_sites_per_s_1w": "third Scan::run in the same process, 1 worker",
    },
    "compare": {
        "sites_per_s": "cold run_compare + Tables 8-10, N workers (= visits_per_s; a site is one client visit)",
        "warm_sites_per_s": "second run_compare + Tables 8-10 in the same process, N workers",
        "warm_sites_per_s_1w": "third run_compare + Tables 8-10 in the same process, 1 worker",
    },
    "archive": {
        "sites_per_s": "cold Scan::stream_to under the fault plan, N workers, 1,500 sites",
        "warm_sites_per_s": "Scan::replay of that bundle, N workers (= replay_sites_per_s)",
        "warm_sites_per_s_1w": "Scan::replay of that bundle, 1 worker",
    },
}


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "crawlbench", "Cargo.toml"),
    ]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError(f"build failed ({' '.join(cmd)} exited {r.returncode})")
    return target, os.path.join(target, "release", "crawlbench")


def leg(binary, args, tmp, *extra):
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--workers", str(args.workers), "--dir", tmp, *extra,
    ]
    spawned = time.time_ns()
    p = subprocess.run(
        cmd[:1] + ["--spawned-ns", str(spawned)] + cmd[1:],
        capture_output=True, text=True, timeout=LEG_TIMEOUT_S, cwd=ROOT,
    )
    if p.returncode != 0:
        raise BenchError(f"leg {' '.join(extra) or 'untraced'} exited {p.returncode}: {p.stderr.strip()[-2000:]}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchError("leg printed nothing")
    return json.loads(lines[-1])


def keep_going(started, rounds, seconds, minimum):
    """Start another round while the average round still fits in time."""
    elapsed = time.monotonic() - started
    if rounds < minimum:
        return True
    return rounds < MAX_LEGS and elapsed + elapsed / rounds <= seconds


def agree(results, failures):
    """Every leg must report no failures, and every check value must read
    the same in each leg that reports it."""
    first = {}
    for i, r in enumerate(results, 1):
        failures += [f"leg {i}: {f}" for f in r["failures"]]
        for k, v in r["checks"].items():
            j, want = first.setdefault(k, (i, v))
            if v != want:
                failures.append(f"leg {i} {k} {v} differs from leg {j}'s {want}")


def median_of(results, name):
    return statistics.median(r["metrics"][name] for r in results)


def untraced(binary, args, tmp, spec, out):
    started = time.monotonic()
    legs, setups = [], []

    def setup_sample():
        setups.append(leg(binary, args, tmp, "--setup-only")["metrics"]["setup_ref_s"])

    while keep_going(started, len(legs), args.seconds, MIN_LEGS):
        legs.append(leg(binary, args, tmp))
        setups.append(legs[-1]["metrics"]["setup_ref_s"])
        for _ in range(SETUPS_PER_LEG):
            setup_sample()
    while len(setups) < MIN_SETUP_SAMPLES:
        setup_sample()
    failures = []
    if args.workload == "scan" and args.seed == DEV_SEED:
        failures += [f"goldens: {f}" for f in leg(binary, args, tmp, "--goldens")["failures"]]
    agree(legs, failures)
    metrics = {}
    out.append(f"crawlbench {args.workload}: seed {args.seed}, N = {args.workers} workers, "
          f"{len(legs)} legs (one fresh process each), median over legs; throughputs at the "
          f"reference host speed (see NOTES.md), wall-clock figures in brackets")
    for m in spec["end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name == "setup_s":
            value = statistics.median(setups)
            note = f"median of {len(setups)} set-ups at the reference host speed"
        else:
            value = median_of(legs, name)
            note = PASS_NOTES[args.workload].get(name, "")
            if name + ".wall" in legs[0]["metrics"]:
                note += f" [wall {median_of(legs, name + '.wall'):.6g} {unit}]"
            if len(legs) > 1:
                values = " ".join(f"{r['metrics'][name]:.4g}" for r in legs)
                note += f" [legs: {values}]"
        metrics[name] = {"value": value, "unit": unit}
        out.append(f"  {name:<22} {value:>12.6g} {unit:<8} {note}")
    extra = {"scan": [], "compare": [("visits_per_s", "sites_per_s", "visits/s")],
             "archive": [("replay_sites_per_s", "warm_sites_per_s", "sites/s"),
                         ("failed_ratio", "failed_ratio", "ratio"),
                         ("bundle_bytes_per_site", "bundle_bytes_per_site", "B/site")]}
    for alias, src, unit in extra[args.workload]:
        out.append(f"  {alias:<22} {median_of(legs, src):>12.6g} {unit:<8} (alias; see NOTES.md)")
    out.append(f"  host factor (calibration unit time / reference) over legs: "
               f"{' '.join(format(r['metrics']['host_factor'], '.3f') for r in legs)}")
    out.append(f"  checks: {legs[0]['checks']}")
    return metrics, sum(r["attempted"] for r in legs), failures


def traced(binary, args, tmp, spec, out):
    started = time.monotonic()
    pairs = []
    while keep_going(started, len(pairs), args.seconds, 1):
        base = leg(binary, args, tmp)
        spans = leg(binary, args, tmp, "--trace")
        spans["metrics"]["obs.trace_overhead"] = (
            spans["metrics"]["traced_wall_ref_s"] / base["metrics"]["cold_wall_ref_s"] - 1.0)
        pairs.append((base, spans))
    failures = []
    agree([leg for pair in pairs for leg in pair], failures)
    results = [t for _, t in pairs]
    metrics = {}
    out.append(f"crawlbench {args.workload} (traced): seed {args.seed}, N = {args.workers} workers, "
          f"{len(pairs)} untraced + traced leg pairs, median over pairs")
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name not in results[0]["metrics"]:
            failures.append(f"traced leg did not report {name}")
            continue
        value = median_of(results, name)
        metrics[name] = {"value": value, "unit": unit}
        out.append(f"  {name:<40} {value:>14.6g} {unit}")
    out.append("  span self time, as a share of traced thread time (threads x wall), last traced leg:")
    for name, count, share in results[-1]["phases"]:
        out.append(f"    {name:<38} {share:>8.2%}  n={count}")
    open_page = metrics["openwpm.open_page_us_per_page"]["value"]
    if open_page > 0:
        inst = metrics["browser.instantiate_us_per_page"]["value"]
        exe = metrics["openwpm.page_exec_us_per_page"]["value"]
        visit = open_page + exe
        out.append(f"  Browser::visit per page {visit:.1f} us = instantiate {inst:.1f} us ({inst / visit:.1%})"
              f" + instrument install {open_page - inst:.1f} us ({(open_page - inst) / visit:.1%})"
              f" + page execution {exe:.1f} us ({exe / visit:.1%})")
    coverage = median_of(results, "obs.span_coverage")
    out.append(f"  named spans cover {coverage:.2%} of the traced wall time (median over legs)")
    out.append(f"  uncovered remainder {1 - coverage:.2%} (scheduling, idle workers, benchmark glue)")
    out.append(f"  spans written to {os.path.relpath(os.path.join(tmp, 'spans.jsonl'), ROOT)}")
    return metrics, sum(r["attempted"] for pair in pairs for r in pair), failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["scan", "compare", "archive"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    args.workers = len(os.sched_getaffinity(0))

    attempted = 0
    try:
        spec = load_spec()
        target, binary = build()
        tmp = os.path.join(target, "crawlbench-run", args.workload)
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        run = traced if args.trace else untraced
        out = []
        metrics, attempted, failures = run(binary, args, tmp, spec, out)
        for name in ("bundle", "bundle-replica"):
            shutil.rmtree(os.path.join(tmp, name), ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print(f"crawlbench: {e}", file=sys.stderr)
        return 1
    if failures:
        for f in failures:
            print(f"CORRECTNESS FAILURE: {f}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": len(failures), "metrics": {}}))
        return 1
    print("\n".join(out))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
