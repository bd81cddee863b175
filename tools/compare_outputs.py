"""Compare the outputs of two source trees: the six presets and the benchmark workloads.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE [--work DIR]

Each tree is a checkout with ``src/tetronsim`` (for example a commit unpacked
with ``git archive``, and the working tree).  In each, the command runs every
preset and the ``sweep-rate``, ``ramp-sampled``, ``oracle-check`` and ``walk``
workloads at seeds 1, 2, 3, 7 and 301, through ``tetronsim run``.  The
workload inputs come from ``perfbench/workloads.py`` of the tree this script
sits in, and both trees read the same input files.  For each output it
prints whether the CSV is byte-identical, the largest absolute and relative
move of each column that moved, and the sidecar keys that differ, leaving out
the timing and environment keys.  The exit code is 0 when every output
matches and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("fig2-main", "fig2-inset", "fig3", "fig4", "fig5", "fig6")
WORKLOADS = ("sweep-rate", "ramp-sampled", "oracle-check", "walk")
SEEDS = (1, 2, 3, 7, 301)
# Sidecar keys that change from run to run whatever the code does.
VOLATILE_KEYS = ("environment", "wall_clock_s")


def _cell_move(a: str, b: str) -> Tuple[float, float]:
    """(absolute, relative) move between two cells; inf for text or NaN that differs."""
    if a == b:
        return 0.0, 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf, math.inf
    if math.isnan(x) and math.isnan(y):
        return 0.0, 0.0
    diff = abs(x - y)
    if math.isnan(diff):
        return math.inf, math.inf
    scale = max(abs(x), abs(y))
    return diff, (diff / scale if scale > 0.0 else 0.0)


def compare_csv(old: Path, new: Path) -> dict:
    """Whether two CSVs are byte-identical, and each moved column's largest moves.

    Returns ``{"identical": bool, "columns": {name: (max abs, max rel)},
    "shape": None or a note}``.  ``columns`` holds only the columns with a
    move; ``shape`` notes a differing header or row count, and then no
    cells are compared.
    """
    if old.read_bytes() == new.read_bytes():
        return {"identical": True, "columns": {}, "shape": None}
    with old.open(newline="") as fh:
        rows_a = list(csv.reader(fh))
    with new.open(newline="") as fh:
        rows_b = list(csv.reader(fh))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return {"identical": False, "columns": {},
                "shape": "header or row count differs (%d against %d lines)"
                         % (len(rows_a), len(rows_b))}
    columns: Dict[str, Tuple[float, float]] = {}
    for i, name in enumerate(rows_a[0]):
        moves = [_cell_move(a[i], b[i]) for a, b in zip(rows_a[1:], rows_b[1:])]
        worst = (max((m[0] for m in moves), default=0.0), max((m[1] for m in moves), default=0.0))
        if worst != (0.0, 0.0):
            columns[name] = worst
    return {"identical": False, "columns": columns, "shape": None}


def _flatten(value, prefix: str = "") -> Dict[str, object]:
    if isinstance(value, dict):
        out: Dict[str, object] = {}
        for key, item in value.items():
            out.update(_flatten(item, "%s.%s" % (prefix, key) if prefix else key))
        return out
    return {prefix: value}


def sidecar_diffs(old: Path, new: Path) -> List[str]:
    """Dotted keys whose values differ between two ``.meta.json`` files, less the volatile ones."""
    a, b = (_flatten(json.loads(p.read_text())) for p in (old, new))
    return sorted(key for key in set(a) | set(b)
                  if key.split(".")[0] not in VOLATILE_KEYS and a.get(key) != b.get(key))


def _inputs(work: Path) -> List[Tuple[str, List[str]]]:
    """(output stem, ``tetronsim run`` arguments) of every run, with the workload inputs written."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    runs = [(name, ["--preset", name]) for name in PRESETS]
    for name in WORKLOADS:
        for seed in SEEDS:
            stem = "%s-seed%d" % (name, seed)
            ini = work / (stem + ".ini")
            workloads.write_ini(workloads.config_for(name, seed), ini)
            runs.append((stem, ["--config", str(ini)]))
    return runs


def _run_tree(tree: Path, out: Path, runs) -> Dict[str, int]:
    """Each run's exit code, with its CSV and sidecar written to ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("TETRONSIM_OUTDIR", None)  # it would move the outputs out of ``out``
    codes = {}
    for stem, args in runs:
        proc = subprocess.run([sys.executable, "-m", "tetronsim.cli", "run", *args,
                               "--out", stem + ".csv", "--quiet"], cwd=out, env=env)
        codes[stem] = proc.returncode
    return codes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the first source tree")
    parser.add_argument("new", type=Path, help="the second source tree")
    parser.add_argument("--work", type=Path, help="directory for inputs and outputs "
                                                  "(default: a temporary one, removed)")
    args = parser.parse_args(argv)
    for tree in (args.old, args.new):
        if not (tree / "src" / "tetronsim").is_dir():
            parser.error("%s has no src/tetronsim" % tree)
    with tempfile.TemporaryDirectory() as scratch:
        work = args.work or Path(scratch)
        work.mkdir(parents=True, exist_ok=True)
        runs = _inputs(work)
        codes = [_run_tree(tree.resolve(), work / label, runs)
                 for tree, label in ((args.old, "old"), (args.new, "new"))]
        matched = True
        for stem, _ in runs:
            old, new = work / "old" / (stem + ".csv"), work / "new" / (stem + ".csv")
            notes = []
            if codes[0][stem] != codes[1][stem]:
                notes.append("exit code %d against %d" % (codes[0][stem], codes[1][stem]))
            if not (old.exists() and new.exists()):
                notes.append("no CSV from %s" % ("both" if not (old.exists() or new.exists())
                                                 else "old" if not old.exists() else "new"))
                print("%-24s %s" % (stem, "; ".join(notes)))
                matched = False
                continue
            result = compare_csv(old, new)
            sidecar = [old.with_suffix(".csv.meta.json"), new.with_suffix(".csv.meta.json")]
            keys = sidecar_diffs(*sidecar) if all(p.exists() for p in sidecar) else ["(missing)"]
            matched &= result["identical"] and not keys and not notes
            print("%-24s %s" % (stem, "byte-identical" if result["identical"] else "differs"))
            if result["shape"]:
                print("    %s" % result["shape"])
            for name, (move_abs, move_rel) in result["columns"].items():
                print("    %-16s max abs %.3g  max rel %.3g" % (name, move_abs, move_rel))
            if keys:
                print("    sidecar keys that differ: %s" % ", ".join(keys))
            for note in notes:
                print("    %s" % note)
        print("all outputs match" if matched else "outputs differ")
        return 0 if matched else 1


if __name__ == "__main__":
    sys.exit(main())
