"""Regenerate the reference tables the output checks compare against.

The references are the program's own covariance method at 4x the step
resolution the workloads use (steps_per_span 4000 instead of 1000), for
every input a seed can select: all 25 fig2-main rates at both mu_fin values,
and every rate of the ramp-sampled list.  Run from the repository root:

    python3 perfbench/make_refs.py

It takes about two minutes on two cores and rewrites perfbench/refs/*.csv.
"""

from __future__ import annotations

import csv
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from checks import LEAKAGE  # noqa: E402
from tetronsim import cli  # noqa: E402

REF_STEPS_PER_SPAN = 4000


def _run(mapping, workdir: Path):
    ini, out = workdir / "ref.ini", workdir / "ref.csv"
    workloads.write_ini(mapping, ini)
    code = cli.main(["run", "--config", str(ini), "--out", str(out), "--quiet"])
    if code != 0:
        raise SystemExit("reference run failed with exit code %d" % code)
    with out.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _write(path: Path, columns, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["%.15e" % float(row[c]) for c in columns])


def main() -> int:
    refs = HERE / "refs"
    refs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        work = Path(tmp)
        sweep = _run(workloads.sweep_rate_config(workloads.FIG2_V_GRID,
                                                 steps_per_span=REF_STEPS_PER_SPAN), work)
        _write(refs / "sweep-rate.csv", ("v", "mu_fin") + LEAKAGE, sweep)
        ramp_rows = []
        for rate in workloads.RAMP_RATES:
            for row in _run(workloads.ramp_config(rate, steps_per_span=REF_STEPS_PER_SPAN),
                            work):
                ramp_rows.append(dict(row, rate=rate))
        _write(refs / "ramp-sampled.csv", ("rate", "t", "mu") + LEAKAGE, ramp_rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
