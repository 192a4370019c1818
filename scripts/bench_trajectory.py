#!/usr/bin/env python3
"""Record and gate the performance trajectory (BENCH_trajectory.json).

The trajectory is a hard.bench.trajectory.v2 document: an append-only
series of perfbench points. A point is one workload of BENCHMARK.json
run once per seed by perfbench/run.py (every run checked against its
golden document and the workload's invariants); it stores the median
over the seeds of each end-to-end metric, under BENCHMARK.json's
names, with the host fingerprint, the seed range and --seconds. Every
committed number is therefore reproducible from the one command that
recorded it.

Modes (exactly one):
  --record --workload W --seeds A..B [--seconds S]
            run perfbench seeds A..B (S defaults to BENCHMARK.json's
            run_seconds), gate the new point against the latest
            comparable one, and append it
  --check   validate the trajectory and replay the gate over it

Two points are comparable when they share workload, host fingerprint
(arch + cpu count), seed range and --seconds: cross-machine
comparisons are noise, not signal, and seeds differ in layout and
injected races, so their throughputs differ too. A drop of more than
15% in units_per_s from the latest comparable earlier point fails with
exit 1. A point with no comparable predecessor passes with a note.

Examples:
  scripts/bench_trajectory.py --record --workload table2-cycle --seeds 1..10
  scripts/bench_trajectory.py --check
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "hard.bench.trajectory.v2"
GATED_METRIC = "units_per_s"
MAX_REGRESSION = 0.15


def fail(msg):
    raise SystemExit(f"bench_trajectory: {msg}")


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_fingerprint():
    return {"arch": platform.machine() or "unknown",
            "cpus": os.cpu_count() or 0}


def parse_seeds(text):
    lo, sep, hi = text.partition("..")
    try:
        seeds = [int(lo), int(hi if sep else lo)]
    except ValueError:
        fail(f"--seeds {text!r} is not A..B")
    if seeds[0] < 1 or seeds[0] > seeds[1]:
        fail(f"--seeds {text!r} is not a range of positive seeds")
    return seeds


def load_trajectory(path):
    if not path.exists():
        return {"schema": SCHEMA, "points": []}
    doc = json.loads(path.read_text())
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, expected "
             f"'{SCHEMA}'")
    if not isinstance(doc.get("points"), list):
        fail(f"{path}: missing 'points' array")
    return doc


def check_point(point, spec, where):
    workloads = [w["name"] for w in spec["workloads"]]
    if point.get("workload") not in workloads:
        fail(f"{where}: workload {point.get('workload')!r} not in "
             f"{workloads}")
    host = point.get("host")
    if not (isinstance(host, dict) and "arch" in host and "cpus" in host):
        fail(f"{where}: bad host fingerprint {host!r}")
    seeds = point.get("seeds")
    if not (isinstance(seeds, list) and len(seeds) == 2
            and 1 <= seeds[0] <= seeds[1]):
        fail(f"{where}: bad seed range {seeds!r}")
    seconds = point.get("seconds")
    if not isinstance(seconds, (int, float)) or seconds <= 0:
        fail(f"{where}: bad seconds {seconds!r}")
    metrics = point.get("metrics")
    names = [m["name"] for m in spec["end_to_end"]]
    if not isinstance(metrics, dict) or sorted(metrics) != sorted(names):
        fail(f"{where}: metrics must be exactly {names}")
    for name, val in metrics.items():
        if not isinstance(val, (int, float)) or val <= 0:
            fail(f"{where}: metric {name} is {val!r}")


def comparable(prior, new):
    return all(prior[k] == new[k]
               for k in ("workload", "host", "seeds", "seconds"))


def gate(points, new):
    """Fail if @p new lost more than MAX_REGRESSION of the gated metric
    against the latest comparable point of @p points."""
    prior = next((p for p in reversed(points) if comparable(p, new)), None)
    if prior is None:
        print(f"bench_trajectory: {new['workload']}: no comparable prior "
              "point (new host, seeds or --seconds); gate passes vacuously")
        return
    before = prior["metrics"][GATED_METRIC]
    after = new["metrics"][GATED_METRIC]
    drop = (before - after) / before
    regressed = drop > MAX_REGRESSION
    print(f"bench_trajectory: {new['workload']} {GATED_METRIC}: "
          f"{before:.4g} -> {after:.4g} ({-drop * 100.0:+.1f}%) "
          f"[{'REGRESSION' if regressed else 'ok'}]")
    if regressed:
        fail(f"{new['workload']}: {GATED_METRIC} dropped beyond the "
             f"{MAX_REGRESSION * 100.0:.0f}% noise band (prior point "
             f"dated {prior.get('date', '?')})")


def record(args, spec):
    seeds = parse_seeds(args.seeds)
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    values = {}
    for seed in range(seeds[0], seeds[1] + 1):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        print("bench_trajectory: +", " ".join(cmd), flush=True)
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, check=False)
        sys.stdout.write(r.stdout)
        if r.returncode != 0:
            fail(f"{args.workload} seed {seed}: run.py exited with code "
                 f"{r.returncode}")
        result = json.loads(r.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return {
        "workload": args.workload,
        "date": datetime.date.today().isoformat(),
        "host": host_fingerprint(),
        "seeds": seeds,
        "seconds": seconds,
        "metrics": {name: statistics.median(v)
                    for name, v in values.items()},
    }


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true",
                      help="run perfbench over --seeds, gate and append")
    mode.add_argument("--check", action="store_true",
                      help="validate and gate the trajectory")
    ap.add_argument("--workload", help="--record: BENCHMARK.json workload")
    ap.add_argument("--seeds", help="--record: seed range A..B")
    ap.add_argument("--seconds", type=float,
                    help="--record: run.py --seconds (default: "
                         "BENCHMARK.json run_seconds)")
    ap.add_argument("--trajectory", type=Path,
                    default=ROOT / "BENCH_trajectory.json",
                    help="trajectory file (BENCH_trajectory.json)")
    args = ap.parse_args()

    spec = benchmark_spec()
    doc = load_trajectory(args.trajectory)

    if args.check:
        if not doc["points"]:
            fail(f"{args.trajectory}: missing or empty trajectory")
        for i, point in enumerate(doc["points"]):
            check_point(point, spec, f"{args.trajectory}: point {i}")
            gate(doc["points"][:i], point)
        print(f"ok: {args.trajectory} ({SCHEMA}, "
              f"{len(doc['points'])} points)")
        return

    if not (args.workload and args.seeds):
        ap.error("--record needs --workload and --seeds")
    point = record(args, spec)
    check_point(point, spec, "new point")
    gate(doc["points"], point)
    doc["points"].append(point)
    args.trajectory.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"bench_trajectory: appended point {len(doc['points'])} "
          f"to {args.trajectory}")


if __name__ == "__main__":
    sys.exit(main())
