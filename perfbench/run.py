#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds perfbench/ (and with
it the simulator in src/) under .bench_build/, runs the measuring
program, checks its result document against the golden documents in
perfbench/golden/ and against the workloads' own invariants, and prints
as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (the traced run also writes its
span log next to the build). A correctness failure prints the object
with "correct": false and exits 1; a build or run failure exits with
another non-zero code and prints no object.

    --write-golden   store this run's result document as the golden
                     document of its seed (after checking it)
    --self-check     only check that the benchmark's files are present
                     and, in a git work tree, tracked by git
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
GOLDEN = BENCH / "golden"
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"

WORKLOADS = ["table2-cycle", "battery-fast-warm", "fig8-overhead",
             "server-frontier"]
# Goldens exist for both; HELD_OUT_SEED was not used while the benchmark
# was being built and tuned.
DEFAULT_SEED = 1
HELD_OUT_SEED = 4242
# The four detectors battery-fast-warm shares with table2-cycle.
TABLE2_DETECTORS = ["hard.default", "hard.ideal", "hb.default", "hb.ideal"]
# Files the benchmark cannot run without. The root .gitignore ignores
# *.json, so the JSON files among them are whitelisted there; a file
# that git silently ignored would be missing from every checkout.
REQUIRED = [
    "BENCHMARK.json",
    "perfbench/run.py",
    "perfbench/README.md",
    "perfbench/CMakeLists.txt",
    "perfbench/src/main.cpp",
    "perfbench/src/workloads.hh",
    "perfbench/src/workloads.cpp",
    "perfbench/src/ledger.hh",
    "perfbench/src/ledger.cpp",
    "perfbench/src/spans.hh",
    "perfbench/src/spans.cpp",
    f"perfbench/golden/seed-{DEFAULT_SEED}.json",
    f"perfbench/golden/seed-{HELD_OUT_SEED}.json",
]
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def self_check(required):
    missing = [f for f in required if not (ROOT / f).is_file()]
    if missing:
        fail(4, "missing benchmark files: " + ", ".join(missing))
    if (ROOT / ".git").exists():
        tracked = subprocess.run(
            ["git", "-C", str(ROOT), "ls-files", "--", *required],
            capture_output=True, text=True, check=False).stdout.split()
        untracked = sorted(set(required) - set(tracked))
        if untracked:
            fail(4, "not tracked by git (check .gitignore): " +
                 ", ".join(untracked))


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not any((BUILD / f).is_file() for f in ("build.ninja", "Makefile")):
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=False)
        if r.returncode != 0:
            fail(2, "build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc):
    return hashlib.sha256(canonical(doc).encode()).hexdigest()


def flatten(doc, prefix=""):
    if isinstance(doc, dict):
        out = {}
        for k, v in doc.items():
            out.update(flatten(v, f"{prefix}.{k}" if prefix else k))
        return out
    if isinstance(doc, list):
        out = {}
        for i, v in enumerate(doc):
            out.update(flatten(v, f"{prefix}[{i}]"))
        return out
    return {prefix: doc}


def first_difference(expected, got):
    """Return (key, expected, got) of the first differing leaf, or None."""
    e, g = flatten(expected), flatten(got)
    for key in sorted(set(e) | set(g)):
        if e.get(key, "<absent>") != g.get(key, "<absent>"):
            return key, e.get(key, "<absent>"), g.get(key, "<absent>")
    return None


def golden_path(seed):
    return GOLDEN / f"seed-{seed}.json"


def load_golden(seed, seed0, wp_seed):
    path = golden_path(seed)
    if not path.is_file():
        return None
    gold = json.loads(path.read_text())
    if gold["seed0"] != seed0 or gold["wpSeed"] != wp_seed:
        return None
    return gold


def saved_result_path(workload, seed0, wp_seed):
    return BUILD / "results" / f"{workload}-{seed0}-{wp_seed}.json"


def table2_reference(gold, seed0, wp_seed):
    """Table 2 scores per app from the golden or an earlier run here."""
    if gold and "table2-cycle" in gold["workloads"]:
        result = gold["workloads"]["table2-cycle"]["result"]
    else:
        path = saved_result_path("table2-cycle", seed0, wp_seed)
        if not path.is_file():
            return None
        result = json.loads(path.read_text())
    return {app: doc["scores"] for app, doc in result.items()}


def check(args, doc, gold, reference):
    """Return the list of correctness errors of one run."""
    errors = list(doc["errors"])
    if doc["attempted"] < 1:
        errors.append(f"{args.workload}: no unit was attempted")
    result = doc["result"]
    if gold and args.workload in gold["workloads"]:
        want = gold["workloads"][args.workload]
        key, exp, got = first_difference(want["result"], result) or \
            ("<digest>", want["digest"], digest(result))
        if exp != got:
            errors.append(f"{args.workload}: result differs from golden "
                          f"{golden_path(args.seed).name} at {key}: "
                          f"expected {exp!r}, got {got!r}")
    if args.workload == "battery-fast-warm":
        if reference is None:
            reference = doc["table2CycleScores"]
        for app, scores in reference.items():
            shared = {d: scores[d] for d in TABLE2_DETECTORS}
            replayed = {d: result[app]["scores"][d] for d in TABLE2_DETECTORS}
            diff = first_difference(shared, replayed)
            if diff:
                errors.append(
                    f"battery-fast-warm: {app} differs from table2-cycle at "
                    f"{diff[0]}: cycle {diff[1]!r}, replay {diff[2]!r}")
    return errors


def write_golden(args, doc):
    path = golden_path(args.seed)
    gold = json.loads(path.read_text()) if path.is_file() else {
        "schema": "hard.perfbench.golden.v1", "seed": args.seed,
        "seed0": doc["seed0"], "wpSeed": doc["wpSeed"], "workloads": {}}
    gold["workloads"][args.workload] = {"digest": digest(doc["result"]),
                                        "result": doc["result"]}
    gold["workloads"] = dict(sorted(gold["workloads"].items()))
    GOLDEN.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(gold, indent=1, sort_keys=True) + "\n")
    print(f"golden written: {path.relative_to(ROOT)} [{args.workload}]")


def metric_specs(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seed0", type=int,
                    help="injection base seed (default 1000 * seed)")
    ap.add_argument("--wp-seed", type=int,
                    help="WorkloadParams.seed (default: seed)")
    ap.add_argument("--write-golden", action="store_true")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    required = [f for f in REQUIRED
                if not (args.write_golden and f.startswith("perfbench/golden"))]
    self_check(required)
    if args.self_check:
        print("perfbench: self-check ok")
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    seed0 = args.seed0 if args.seed0 is not None else 1000 * args.seed
    wp_seed = args.wp_seed if args.wp_seed is not None else args.seed
    gold = load_golden(args.seed, seed0, wp_seed)
    reference = None
    if args.workload == "battery-fast-warm":
        reference = table2_reference(gold, seed0, wp_seed)

    binary = build()
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    out = BUILD / "out" / f"{tag}.json"
    cache = BUILD / f"cache-{tag}"
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed0={seed0}",
           f"--wp-seed={wp_seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--out={out}", f"--cache={cache}"]
    if args.workload == "battery-fast-warm" and reference is None:
        cmd.append("--cycle-crosscheck")
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(3, f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if r.returncode != 0:
        fail(3, f"{args.workload} exited with code {r.returncode}")
    doc = json.loads(out.read_text())
    out.unlink()

    errors = check(args, doc, gold, reference)
    if not errors:
        saved = saved_result_path(args.workload, seed0, wp_seed)
        saved.parent.mkdir(parents=True, exist_ok=True)
        saved.write_text(canonical(doc["result"]))
        if args.write_golden:
            write_golden(args, doc)
    if args.trace:
        spans = BUILD / "spans" / f"{tag}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text(json.dumps(doc["spans"]))
        print(f"span log: {spans.relative_to(ROOT)}")

    t = doc["timing"]
    probes = sorted(t["probeSeconds"])
    print(f"raw host time: set-ups {[round(x, 3) for x in t['setupSeconds']]} "
          f"s (lower median {t['setupRawMedian']:.4g} s); timed part "
          f"{t['timedSeconds']:.1f} s; one sweep {t['sweepSeconds']:.2f} s "
          f"(items' fastest repetitions) = {t['rawUnitsPerSecond']:.4g} "
          f"units/s; host probe median {probes[len(probes) // 2] * 1e3:.2f} "
          f"ms (reference 5 ms)")
    print(f"sim metrics ({args.workload}, seed0={seed0}, "
          f"wpSeed={wp_seed}; deterministic):")
    for name, value in doc["sim"].items():
        print(f"  {name} = {value}")
    for e in errors:
        print(f"CORRECTNESS: {e}", file=sys.stderr)

    source = doc["layers"] if args.trace else doc["endToEnd"]
    metrics = {}
    for m in metric_specs(args.trace):
        if m["name"] not in source:
            fail(5, f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    print("per-layer metrics:" if args.trace else "end-to-end metrics:")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
