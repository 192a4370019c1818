#!/usr/bin/env python3
"""Run a built perfbench binary on server-frontier (seed 1) and check
its result document against perfbench/golden/seed-1.json with
perfbench/run.py's own check(), which compares digests and names the
first differing key.

Usage: perfbench_golden.py PERFBENCH_BINARY
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402  (perfbench/run.py)

WORKLOAD = "server-frontier"
SEED = 1


def main():
    binary = sys.argv[1]
    seed0, wp_seed = 1000 * SEED, SEED
    gold = run.load_golden(SEED, seed0, wp_seed)
    if gold is None or WORKLOAD not in gold["workloads"]:
        sys.exit(f"no {WORKLOAD} golden for seed {SEED}")
    with tempfile.TemporaryDirectory(prefix="perfbench_golden.") as tmp:
        out = Path(tmp) / "out.json"
        subprocess.run([binary, f"--workload={WORKLOAD}",
                        f"--seed0={seed0}", f"--wp-seed={wp_seed}",
                        "--seconds=0.5", "--trace=0", f"--out={out}",
                        f"--cache={Path(tmp) / 'cache'}"], check=True)
        doc = json.loads(out.read_text())
    args = argparse.Namespace(workload=WORKLOAD, seed=SEED)
    errors = run.check(args, doc, gold, None)
    for e in errors:
        print(f"CORRECTNESS: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"ok: {WORKLOAD} seed {SEED} matches its golden "
          f"(digest {run.digest(doc['result'])[:12]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
