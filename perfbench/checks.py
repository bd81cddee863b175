"""Output checks behind ``ok_frac``: every row against an independent reference.

Nothing here compares bytes of a previous run.  Dynamics rows are held to
reference tables computed at 4x the step resolution (``make_refs.py``) and to
physical bounds; oracle rows to the 1e-6 oracle agreement; walk rows to the
closed-form absorption probability and its Monte Carlo band.  A more
accurate method (a higher-order stepper, a different state representation)
therefore passes, and a wrong one fails.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import List, Tuple

import workloads

REFS = Path(__file__).resolve().parent / "refs"
LEAKAGE = ("l_odd", "l_even", "l_g")

# Absolute band for leakage against the 4x-resolution reference.  The stepper
# freezes H at the left end of each step, so its error falls as dmu^2 and the
# reference is ~16x closer to the exact value than the workload.  The seed's
# worst cell on every seedable input is 1.7e-8 from the reference; half the
# step count would put it near 6.4e-8, outside the band, while a more
# accurate stepper lands closer to the reference.
REF_ATOL = 4e-8
# Rounding floor for the physical bounds l_even >= 0 and 0 <= l_odd <= 1.
BOUND_TOL = 1e-9
# Covariance method vs exact Fock oracle (the program's ORACLE_TOLERANCE).
ORACLE_TOL = 1e-6
# Monte Carlo band for p_mc around the exact p, in standard errors: the band
# test_within_three_sigma uses.  A correct program falls outside it on 0.27 %
# of rows.
WALK_SIGMAS = 3.0


def _read_rows(path: Path) -> List[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _leakage_ok(row: dict, ref: dict) -> bool:
    vals = [float(row[c]) for c in LEAKAGE]
    if not all(math.isfinite(v) for v in vals):
        return False
    l_odd, l_even, _ = vals
    if l_even < -BOUND_TOL or not -BOUND_TOL <= l_odd <= 1.0 + BOUND_TOL:
        return False
    return all(abs(float(row[c]) - float(ref[c])) <= REF_ATOL for c in LEAKAGE)


def _check_sweep(rows, mapping) -> List[bool]:
    refs = _read_rows(REFS / "sweep-rate.csv")
    rates = [float(v) for v in mapping["grid"]["v_list"].split(",")]
    expected = sorted((v, mu) for v in rates for mu in workloads.FIG2_MU_FINS)
    out = []
    for v, mu in expected:
        row = next((r for r in rows if _close(float(r["v"]), v)
                    and _close(float(r["mu_fin"]), mu)), None)
        ref = next(r for r in refs if _close(float(r["v"]), v)
                   and _close(float(r["mu_fin"]), mu))
        out.append(row is not None and _leakage_ok(row, ref))
    return out


def _check_ramp(rows, mapping) -> List[bool]:
    rate = float(mapping["protocol"]["rate"])
    refs = [r for r in _read_rows(REFS / "ramp-sampled.csv") if _close(float(r["rate"]), rate)]
    out = []
    for i, ref in enumerate(refs):
        row = rows[i] if i < len(rows) else None
        out.append(row is not None
                   and abs(float(row["t"]) - float(ref["t"])) <= 1e-9 * float(refs[-1]["t"])
                   and _leakage_ok(row, ref))
    return out


def _check_oracle(rows, mapping) -> List[bool]:
    rates = [float(v) for v in mapping["grid"]["v_list"].split(",")]
    expected = []
    for mu in workloads.ORACLE_MU_FINS:
        expected.append(("sudden", None, mu))
        expected.extend(("ramp", v, mu) for v in rates)
    out = []
    for case, v, mu in expected:
        row = next((r for r in rows if r["case"] == case and _close(float(r["mu_fin"]), mu)
                    and (v is None or _close(float(r["v"]), v))), None)
        if row is None:
            out.append(False)
            continue
        diffs = [abs(float(row[c + "_cov"]) - float(row[c + "_oracle"])) for c in LEAKAGE]
        out.append(all(math.isfinite(d) and d <= ORACLE_TOL for d in diffs))
    return out


def _check_walk(rows, mapping) -> List[bool]:
    trials = int(mapping["walk"]["trials"])
    out = []
    for length in workloads.WALK_LENGTHS:
        row = next((r for r in rows if int(r["length"]) == length), None)
        if row is None or int(row["trials"]) != trials:
            out.append(False)
            continue
        exact = (1.0 - 1.0 / length) / 3.0
        p_mc = float(row["p_mc"])
        sigma = math.sqrt(p_mc * (1.0 - p_mc) / trials)
        out.append(abs(float(row["p_exact"]) - exact) <= 1e-12
                   and abs(p_mc - exact) < WALK_SIGMAS * sigma)
    return out


_CHECKS = {
    "sweep-rate": _check_sweep,
    "ramp-sampled": _check_ramp,
    "oracle-check": _check_oracle,
    "walk": _check_walk,
}


def check_output(name: str, mapping, out_csv: Path, exit_code: int) -> Tuple[int, int]:
    """(rows attempted, rows failed) for one finished CLI run.

    A row fails if it is missing, if its ``row_status`` is not ``ok``, if the
    CLI exited non-zero, or if it fails the workload's output check.
    """
    verdicts = _CHECKS[name](_read_rows(out_csv) if out_csv.exists() else [], mapping)
    meta_path = out_csv.with_suffix(out_csv.suffix + ".meta.json")
    statuses = json.loads(meta_path.read_text())["row_status"] if meta_path.exists() else []
    # the program writes rows, and their statuses, in the expected order
    verdicts = [ok and exit_code == 0 and i < len(statuses) and statuses[i] == "ok"
                for i, ok in enumerate(verdicts)]
    return len(verdicts), verdicts.count(False)
