#!/usr/bin/env python3
"""CLI-level fast≡cycle identity: one hardsim --batch sweep in cycle
mode, in fast mode against an empty trace cache and in fast mode
against the now-warm cache. The three result documents must be equal
apart from fast mode's "mode":"fast" marker, and the warm run's
trace-cache stats must pass check_telemetry.py --cache-stats.

Usage: fast_identity_cli.py HARDSIM_BINARY
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main():
    hardsim = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="fast_identity.") as tmp:
        tmp = Path(tmp)
        cache = f"--trace-cache={tmp / 'tcache'}"
        legs = {"cycle": [], "fast-cold": ["--mode=fast", cache],
                "fast-warm": ["--mode=fast", cache,
                              f"--trace-cache-stats={tmp / 'stats.json'}"]}
        docs = {}
        for leg, extra in legs.items():
            out = tmp / f"{leg}.json"
            subprocess.run([hardsim, "--batch", "--workload=barnes,ocean",
                            "--runs=3", "--scale=0.1", "--jobs=2",
                            f"--json={out}", *extra],
                           stdout=subprocess.DEVNULL, check=True)
            docs[leg] = json.loads(out.read_text())
        subprocess.run([sys.executable,
                        str(ROOT / "scripts" / "check_telemetry.py"),
                        "--cache-stats", str(tmp / "stats.json")],
                       check=True)
    cycle, cold, warm = docs["cycle"], docs["fast-cold"], docs["fast-warm"]
    assert cold == warm, "fast-mode cold and warm runs disagree"
    assert cold.pop("mode", None) == "fast", "fast run lacks the mode marker"
    assert cycle == cold, "fast-mode results diverge from cycle mode"
    print("ok: cycle, fast-cold and fast-warm documents are identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
