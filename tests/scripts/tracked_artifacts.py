#!/usr/bin/env python3
"""Check that every BENCH*.json file the CI workflow or the docs name
exists in the checkout and, in a git work tree, is tracked by git.

The root .gitignore ignores *.json, so a committed result file must be
whitelisted there; one that is not is silently missing from every
fresh checkout while CI steps and documents keep citing it.

Usage: tracked_artifacts.py [REPO_ROOT]
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1
            else Path(__file__).resolve().parents[2])
SOURCES = [".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md",
           "DESIGN.md", *sorted(str(p.relative_to(ROOT))
                                for p in ROOT.glob("docs/*.md"))]
NAME = re.compile(r"\bBENCH[A-Za-z0-9_.-]*?\.json\b")


def main():
    cited = {}
    for src in SOURCES:
        path = ROOT / src
        if path.is_file():
            for name in NAME.findall(path.read_text()):
                cited.setdefault(name, []).append(src)
    tracked = None
    if (ROOT / ".git").exists():
        tracked = set(subprocess.run(
            ["git", "-C", str(ROOT), "ls-files", "--", *cited],
            capture_output=True, text=True, check=True).stdout.split())
    errors = []
    for name, srcs in sorted(cited.items()):
        where = ", ".join(sorted(set(srcs)))
        if not (ROOT / name).is_file():
            errors.append(f"{name} (cited by {where}) does not exist")
        elif tracked is not None and name not in tracked:
            errors.append(f"{name} (cited by {where}) is not tracked by "
                          "git (check .gitignore)")
    for e in errors:
        print(f"tracked_artifacts: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"ok: {len(cited)} cited BENCH files present and tracked: "
          + ", ".join(sorted(cited)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
