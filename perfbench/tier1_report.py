"""One-shot timing of the Tier-1 test suite (not a workload: it takes minutes).

    python3 perfbench/tier1_report.py

Runs the Tier-1 command from the repository root with ``--durations=10`` and
writes its wall time, exit code, pass/fail summary and the ten slowest tests
to ``perfbench/out/tier1.json``, with the same environment block as the
benchmark results.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import run

DURATION_RE = re.compile(r"^\s*([0-9.]+)s\s+(call|setup|teardown)\s+(\S+)")


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(run.SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=10"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    slowest = [{"seconds": float(m.group(1)), "phase": m.group(2), "test": m.group(3)}
               for m in map(DURATION_RE.match, lines) if m]
    report = {
        "command": cmd[1:],
        "wall_s": wall,
        "exit_code": proc.returncode,
        "summary": lines[-1] if lines else "",
        "slowest": slowest,
        "environment": run.environment(seed=None),
    }
    run.OUT.mkdir(parents=True, exist_ok=True)
    (run.OUT / "tier1.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({k: report[k] for k in ("wall_s", "exit_code", "summary")}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
