"""Declarative experiment configs, runners, and result tables for the CLI.

Configs are INI files with typed sections; results are CSV tables with at
least 12 significant digits plus a JSON metadata sidecar carrying the fully
resolved configuration and per-row status flags, which is enough to re-run a
table bit-identically.
"""

from __future__ import annotations

import configparser
import contextlib
import functools
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__, analytics, dynamics, qpwalk
from .errors import ConfigError, InvalidParameterError
from .model import ChainParams, RampProtocol, require_topological, resolved_basis

KINDS = ("ramp", "sweep-rate", "sweep-length", "sudden", "walk", "fit", "oracle-check")
# kinds whose every row takes its chain length from the grid, not [model] n_sites
LENGTH_GRID_KINDS = ("sweep-length", "sudden")

ORACLE_TOLERANCE = 1e-6

_INT_COLUMNS = {"n_sites", "length", "trials", "count"}
_TEXT_COLUMNS = {"case"}


@dataclass
class ResultTable:
    """Column-named rows of one experiment plus its reproducibility metadata."""

    kind: str
    columns: Tuple[str, ...]
    rows: List[tuple]
    metadata: Dict = field(default_factory=dict)

    def _format_cell(self, name: str, value) -> str:
        if name in _TEXT_COLUMNS:
            return str(value)
        if name in _INT_COLUMNS:
            return "%d" % int(value)
        return "%.12e" % float(value)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(self._format_cell(c, v) for c, v in zip(self.columns, row)))
        return "\n".join(lines) + "\n"

    def write(self, path: Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_csv(), encoding="utf-8")
        sidecar = path.with_suffix(path.suffix + ".meta.json")
        sidecar.write_text(json.dumps(self.metadata, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([row[i] for row in self.rows], dtype=float)


def read_table(path: Path) -> ResultTable:
    """Read back a CSV written by :meth:`ResultTable.write`; ConfigError if malformed."""
    path = Path(path)
    if not path.exists():
        raise ConfigError("input table %s does not exist" % path)
    lines = path.read_text(encoding="utf-8").rstrip().splitlines()
    if not lines:
        raise ConfigError("input table %s is empty" % path)
    columns = tuple(lines[0].split(","))
    casts = [str if c in _TEXT_COLUMNS else int if c in _INT_COLUMNS else float for c in columns]
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ConfigError("input table %s, line %d: %d cells, header has %d"
                              % (path, lineno, len(cells), len(columns)))
        row = []
        for name, cast, cell in zip(columns, casts, cells):
            try:
                row.append(cast(cell))
            except ValueError:
                raise ConfigError("input table %s, line %d, column %s: cannot parse %r"
                                  % (path, lineno, name, cell)) from None
        rows.append(tuple(row))
    return ResultTable(kind="file", columns=columns, rows=rows)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Fully resolved description of one experiment run."""

    kind: str
    params: Optional[ChainParams] = None
    mu_in: float = 0.0
    mu_fins: Tuple[float, ...] = ()
    rate: Optional[float] = None
    v_grid: Tuple[float, ...] = ()
    n_grid: Tuple[int, ...] = ()
    policy: dynamics.SteppingPolicy = field(default_factory=dynamics.SteppingPolicy)
    sample_count: int = dynamics.DEFAULT_SAMPLE_COUNT
    seed: int = 0
    out_path: Optional[str] = None
    # walk
    walk_lengths: Tuple[int, ...] = ()
    walk_trials: int = 100000
    # fit
    fit_table: Optional[str] = None
    fit_family: Optional[str] = None
    fit_x: str = "v"
    fit_y: str = "l_odd"
    fit_window: Tuple[Optional[float], Optional[float]] = (None, None)
    fit_l_inf: Optional[float] = None

    def resolved(self) -> Dict:
        """JSON-serializable echo of every field, for the metadata sidecar."""
        out = {
            "kind": self.kind,
            "mu_in": self.mu_in,
            "mu_fins": list(self.mu_fins),
            "rate": self.rate,
            "v_grid": list(self.v_grid),
            "n_grid": list(self.n_grid),
            "sample_count": self.sample_count,
            "seed": self.seed,
            "out_path": self.out_path,
            "policy": {
                "max_dmu_per_step": self.policy.max_dmu_per_step,
                "purity_tol": self.policy.purity_tol,
                "richardson": self.policy.richardson,
            },
        }
        if self.params is not None:
            out["model"] = {
                "n_sites": None if self.kind in LENGTH_GRID_KINDS else self.params.n_sites,
                "hopping": self.params.hopping,
                "pairing": self.params.pairing,
            }
        if self.kind == "walk":
            out["walk"] = {"lengths": list(self.walk_lengths), "trials": self.walk_trials}
        if self.kind == "fit":
            out["fit"] = {
                "table": self.fit_table,
                "family": self.fit_family,
                "x_column": self.fit_x,
                "y_column": self.fit_y,
                "window": list(self.fit_window),
                "l_inf": self.fit_l_inf,
            }
        return out


def _get(cp: configparser.ConfigParser, section: str, key: str, cast, default=None,
         required: bool = False):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError("%s.%s: missing required key" % (section, key))
        return default
    raw = cp.get(section, key)
    try:
        if cast is bool:
            return cp.getboolean(section, key)
        return cast(raw)
    except (ValueError, TypeError):
        raise ConfigError("%s.%s: cannot parse %r" % (section, key, raw))


def _get_list(cp, section, key, cast):
    if not cp.has_option(section, key):
        return None
    raw = cp.get(section, key)
    try:
        return tuple(cast(tok.strip()) for tok in raw.split(",") if tok.strip())
    except (ValueError, TypeError):
        raise ConfigError("%s.%s: cannot parse list %r" % (section, key, raw))


def _v_grid(cp) -> Tuple[float, ...]:
    explicit = _get_list(cp, "grid", "v_list", float)
    if explicit:
        if not all(0 < v < math.inf for v in explicit):
            raise ConfigError("grid.v_list: rates must be positive and finite, got %r"
                              % (explicit,))
        return explicit
    v_min = _get(cp, "grid", "v_min", float)
    v_max = _get(cp, "grid", "v_max", float)
    count = _get(cp, "grid", "v_count", int)
    if v_min is None or v_max is None or count is None:
        return ()
    if not 0 < v_min <= v_max < math.inf:
        raise ConfigError("grid.v_min/v_max: need 0 < v_min <= v_max, both finite")
    if count < 1:
        raise ConfigError("grid.v_count: must be >= 1")
    return tuple(float(x) for x in np.geomspace(v_min, v_max, count))


def _n_grid(cp) -> Tuple[int, ...]:
    explicit = _get_list(cp, "grid", "n_list", int)
    if explicit:
        if min(explicit) < 2:
            raise ConfigError("grid.n_list: lengths must be >= 2, got %r" % (explicit,))
        values = explicit
    else:
        n_min = _get(cp, "grid", "n_min", int)
        n_max = _get(cp, "grid", "n_max", int)
        if n_min is None or n_max is None:
            return ()
        step = _get(cp, "grid", "n_step", int, default=1)
        if n_min < 2 or n_max < n_min or step < 1:
            raise ConfigError("grid.n_min/n_max/n_step: need 2 <= n_min <= n_max, step >= 1")
        values = tuple(range(n_min, n_max + 1, step))
    if _get(cp, "grid", "even_only", bool, default=False):
        values = tuple(n for n in values if n % 2 == 0)
    return values


def parse_config(path: Path) -> ExperimentConfig:
    """Parse and validate an INI experiment file.

    ``[stepping] steps_per_span`` fixes one mu step for the whole run, taken
    from the largest ``|mu_fin - mu_in|`` span: with ``mu_fin_list = 0.03, 0.1``
    and 1000 steps per span (preset ``fig2-main``) the 0.03 ramps run 300 steps.
    Sweep sidecars record each row's count as ``row_n_steps``.
    """
    cp = configparser.ConfigParser()
    read = cp.read([str(path)])
    if not read:
        raise ConfigError("config file %s not found or unreadable" % path)
    return config_from_parser(cp)


def config_from_mapping(mapping: Dict[str, Dict[str, str]]) -> ExperimentConfig:
    """Build a config from a nested dict with the same shape as the INI file."""
    cp = configparser.ConfigParser()
    cp.read_dict(mapping)
    return config_from_parser(cp)


def config_from_parser(cp: configparser.ConfigParser) -> ExperimentConfig:
    kind = _get(cp, "experiment", "kind", str, required=True)
    if kind not in KINDS:
        raise ConfigError("experiment.kind: %r is not one of %s" % (kind, ", ".join(KINDS)))

    cfg = ExperimentConfig(kind=kind)
    cfg.seed = _get(cp, "experiment", "seed", int, default=0)
    if cfg.seed < 0:
        raise ConfigError("experiment.seed: must be >= 0")
    cfg.out_path = _get(cp, "output", "path", str)

    needs_model = kind in ("ramp", "sweep-rate", "sweep-length", "sudden", "oracle-check")
    if needs_model:
        n_sites = _get(cp, "model", "n_sites", int,
                       required=kind in ("ramp", "sweep-rate", "oracle-check"))
        hopping = _get(cp, "model", "hopping", float, default=0.5)
        pairing = _get(cp, "model", "pairing", float, default=0.5)
        try:
            cfg.params = ChainParams(n_sites=2 if n_sites is None else n_sites,
                                     hopping=hopping, pairing=pairing)
        except InvalidParameterError as exc:
            raise ConfigError("model: %s" % exc)

        cfg.mu_in = _get(cp, "protocol", "mu_in", float, default=0.0)
        fins = _get_list(cp, "protocol", "mu_fin_list", float)
        if fins is None:
            single = _get(cp, "protocol", "mu_fin", float)
            fins = (single,) if single is not None else ()
        cfg.mu_fins = fins
        cfg.rate = _get(cp, "protocol", "rate", float)

        max_dmu = _get(cp, "stepping", "max_dmu_per_step", float)
        steps = _get(cp, "stepping", "steps_per_span", int)
        if max_dmu is None and steps is not None:
            if steps < 1:
                raise ConfigError("stepping.steps_per_span: must be >= 1")
            span = max(abs(f - cfg.mu_in) for f in cfg.mu_fins) if cfg.mu_fins else 0.0
            max_dmu = span / steps if span > 0 else None
        try:
            cfg.policy = dynamics.SteppingPolicy(
                max_dmu_per_step=max_dmu,
                purity_tol=_get(cp, "stepping", "purity_tol", float, default=1e-6),
                richardson=_get(cp, "stepping", "richardson", bool, default=False),
            )
        except InvalidParameterError as exc:
            raise ConfigError("stepping: %s" % exc)
        cfg.sample_count = _get(cp, "samples", "count", int,
                                default=dynamics.DEFAULT_SAMPLE_COUNT)
        if cfg.sample_count < 0:
            raise ConfigError("samples.count: must be >= 0")

        cfg.v_grid = _v_grid(cp)
        cfg.n_grid = _n_grid(cp)
        _validate_physics(cfg)

    if kind == "walk":
        lengths = _get_list(cp, "walk", "length_list", int)
        if lengths is None:
            single = _get(cp, "walk", "length", int, required=True)
            lengths = (single,)
        if any(length < 1 for length in lengths):
            raise ConfigError("walk.length: must be >= 1")
        cfg.walk_lengths = lengths
        cfg.walk_trials = _get(cp, "walk", "trials", int, default=100000)
        if cfg.walk_trials < 1:
            raise ConfigError("walk.trials: must be >= 1")

    if kind == "fit":
        cfg.fit_table = _get(cp, "fit", "table", str, required=True)
        cfg.fit_family = _get(cp, "fit", "family", str, required=True)
        if cfg.fit_family not in ("half-lz", "power-approach", "linear-n"):
            raise ConfigError("fit.family: unknown family %r" % cfg.fit_family)
        cfg.fit_x = _get(cp, "fit", "x_column", str,
                         default="n_sites" if cfg.fit_family == "linear-n" else "v")
        cfg.fit_y = _get(cp, "fit", "y_column", str, default="l_odd")
        cfg.fit_window = (_get(cp, "fit", "window_min", float),
                          _get(cp, "fit", "window_max", float))
        cfg.fit_l_inf = _get(cp, "fit", "l_inf", float)
        if cfg.fit_family == "power-approach" and cfg.fit_l_inf is None:
            raise ConfigError("fit.l_inf: required for the power-approach family")

    return cfg


def _validate_physics(cfg: ExperimentConfig) -> None:
    kind = cfg.kind
    if kind in ("ramp", "sweep-rate", "sweep-length", "sudden", "oracle-check"):
        if not cfg.mu_fins:
            raise ConfigError("protocol.mu_fin: at least one target value is required")
    try:
        require_topological(cfg.params, cfg.mu_in, *cfg.mu_fins)
    except InvalidParameterError as exc:
        raise ConfigError("protocol: %s" % exc) from exc
    if kind in ("ramp", "sweep-length") and cfg.rate is None:
        raise ConfigError("protocol.rate: required for kind %s" % kind)
    if cfg.rate is not None and not 0 < cfg.rate < math.inf:
        raise ConfigError("protocol.rate: must be positive and finite, got %r" % cfg.rate)
    if kind == "sweep-rate" and not cfg.v_grid:
        raise ConfigError("grid: a rate grid (v_list or v_min/v_max/v_count) is required")
    if kind in LENGTH_GRID_KINDS and not cfg.n_grid:
        raise ConfigError("grid: a length grid (n_list or n_min/n_max) is required")
    if kind == "oracle-check" and cfg.params.n_sites > dynamics.MAX_ORACLE_SITES:
        raise ConfigError("model.n_sites: oracle-check requires n_sites <= %d"
                          % dynamics.MAX_ORACLE_SITES)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

_NAN = float("nan")


def _run_points(points, worker):
    """Evaluate worker over points in order, tolerating per-point failures.

    Returns (results, statuses) aligned with ``points``; a failed point gives
    result None and status "failed: <reason>".
    """
    results, statuses = [], []
    for point in points:
        try:
            results.append(worker(point))
            statuses.append("ok")
        except Exception as exc:  # noqa: BLE001 - reported per row
            results.append(None)
            statuses.append("failed: %s" % exc)
    return results, statuses


def _leakage_columns():
    return ("l_odd", "l_even", "l_g", "parity", "purity_defect")


def _record_cells(record) -> tuple:
    if record is None:
        return (_NAN,) * 5
    return (record.l_odd, record.l_even, record.l_g, record.parity, record.purity_defect)


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or None.

    numpy's wheels vendor it as ``numpy.libs/libscipy_openblas64_*.so``;
    loading that file again returns the library already in the process.
    """
    import ctypes

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_count = (lib.scipy_openblas_get_num_threads64_,
                              lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_count.argtypes, set_count.restype = [ctypes.c_int], None
        return get, set_count
    return None


@contextlib.contextmanager
def serial_blas():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count.

    The matrices of a run are at most a few hundred wide, where a second BLAS
    thread adds CPU time without shortening the run.  Does nothing when the
    library is not found.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_count = threads
    before = get()
    set_count(1)
    try:
        yield
    finally:
        set_count(before)


def blas_threads() -> Optional[int]:
    """Thread count of numpy's OpenBLAS now, or None if it is not found."""
    threads = _openblas_threads()
    return None if threads is None else threads[0]()


def run_environment() -> Dict:
    """numpy, BLAS and LAPACK versions, BLAS threads in use and their variables, CPUs."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        libs = {k: "%s %s" % (deps[k].get("name"), deps[k].get("version", "?"))
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        libs = {"blas": "unknown", "lapack": "unknown"}
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        cpus = os.cpu_count()
    return {
        "numpy": np.__version__,
        **libs,
        "blas_threads": blas_threads(),
        "threads_env": {k: os.environ.get(k) for k in _THREAD_VARS},
        "cpu_count": cpus,
    }


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    started = time.time()
    runner = {
        "ramp": _run_ramp,
        "sweep-rate": _run_sweep_rate,
        "sweep-length": _run_sweep_length,
        "sudden": _run_sudden,
        "walk": _run_walk,
        "fit": run_fit,
        "oracle-check": run_oracle_check,
    }[cfg.kind]
    with serial_blas():
        table = runner(cfg)
        table.metadata["environment"] = run_environment()
    table.metadata.setdefault("config", cfg.resolved())
    table.metadata["version"] = __version__
    table.metadata["wall_clock_s"] = round(time.time() - started, 3)
    return table


def _run_ramp(cfg: ExperimentConfig) -> ResultTable:
    protocol = RampProtocol(cfg.mu_in, cfg.mu_fins[0], cfg.rate)
    times = dynamics.default_sample_times(protocol.duration, cfg.sample_count)
    records = dynamics.evolve_ramp(cfg.params, protocol, cfg.policy, sample_times=times)
    rows = [(r.t, r.mu) + _record_cells(r) for r in records]
    table = ResultTable(kind="ramp", columns=("t", "mu") + _leakage_columns(), rows=rows)
    table.metadata["row_status"] = ["ok"] * len(rows)
    table.metadata["n_steps"] = records.n_steps
    table.metadata["max_purity_defect"] = records.max_purity_defect
    table.metadata["dmu"] = _run_dmu(cfg, [protocol.mu_fin])
    if records.richardson_defect is not None:
        table.metadata["richardson_defect"] = records.richardson_defect
    return table


def _final_trajectory(cfg: ExperimentConfig, n_sites: int, mu_fin: float, v: float):
    params = ChainParams(n_sites, cfg.params.hopping, cfg.params.pairing)
    protocol = RampProtocol(cfg.mu_in, mu_fin, v)
    return dynamics.evolve_ramp(params, protocol, cfg.policy,
                                sample_times=[protocol.duration])


def _final_cells(trajectory) -> tuple:
    return _record_cells(None if trajectory is None else trajectory[-1])


def _run_dmu(cfg: ExperimentConfig, mu_fins) -> float:
    """The mu step of the run's longest ramp.

    It is every row's step when the config fixes one (``steps_per_span`` or
    ``max_dmu_per_step``); otherwise shorter ramps of a sweep step finer.
    """
    return cfg.policy.resolved_dmu(max(abs(mu - cfg.mu_in) for mu in mu_fins))


def _sweep_metadata(table: ResultTable, cfg: ExperimentConfig, mu_fins, trajectories,
                    statuses) -> None:
    """Row statuses, step counts and maximum purity defects, the run's dmu, and
    each row's Richardson defect.

    Per-row values are null for a failed row.
    """
    table.metadata["row_status"] = statuses
    table.metadata["row_n_steps"] = [None if traj is None else traj.n_steps
                                     for traj in trajectories]
    table.metadata["row_max_purity_defect"] = [
        None if traj is None else traj.max_purity_defect for traj in trajectories]
    table.metadata["dmu"] = _run_dmu(cfg, mu_fins)
    if cfg.policy.richardson:
        table.metadata["row_richardson_defect"] = [
            None if traj is None else traj.richardson_defect for traj in trajectories]


def _run_sweep_rate(cfg: ExperimentConfig) -> ResultTable:
    """All rates of one mu_fin step together (:func:`dynamics.evolve_rates`).

    A row that fails on its own (purity check or Richardson rerun) is flagged
    alone; a failure of its group's shared work flags every row of the group.
    """
    points = sorted((v, mu) for v in cfg.v_grid for mu in cfg.mu_fins)
    rates = sorted(set(cfg.v_grid))
    outcomes = {}
    for mu_fin in sorted(set(cfg.mu_fins)):
        try:
            group = dynamics.evolve_rates(cfg.params, cfg.mu_in, mu_fin, rates, cfg.policy)
        except Exception as exc:  # noqa: BLE001 - reported per row
            group = [exc] * len(rates)
        outcomes.update(((v, mu_fin), out) for v, out in zip(rates, group))
    results = [outcomes[p] for p in points]
    statuses = ["failed: %s" % out if isinstance(out, Exception) else "ok" for out in results]
    results = [None if isinstance(out, Exception) else out for out in results]
    rows = [(v, mu) + _final_cells(traj) for (v, mu), traj in zip(points, results)]
    table = ResultTable(kind="sweep-rate", columns=("v", "mu_fin") + _leakage_columns(),
                        rows=rows)
    _sweep_metadata(table, cfg, cfg.mu_fins, results, statuses)
    return table


def _run_sweep_length(cfg: ExperimentConfig) -> ResultTable:
    mu_fin = cfg.mu_fins[0]
    points = sorted(cfg.n_grid)
    results, statuses = _run_points(
        points, lambda n: _final_trajectory(cfg, n, mu_fin, cfg.rate))
    rows = [(n,) + _final_cells(traj) for n, traj in zip(points, results)]
    table = ResultTable(kind="sweep-length", columns=("n_sites",) + _leakage_columns(),
                        rows=rows)
    _sweep_metadata(table, cfg, [mu_fin], results, statuses)
    return table


def _run_sudden(cfg: ExperimentConfig) -> ResultTable:
    points = sorted((n, mu) for n in cfg.n_grid for mu in cfg.mu_fins)

    def worker(point):
        n, mu_fin = point
        params = ChainParams(n, cfg.params.hopping, cfg.params.pairing)
        state, basis_in = dynamics.initial_plus_state(params, cfg.mu_in)
        basis_fin = resolved_basis(params, mu_fin)
        record = dynamics.measure_leakage(state, basis_fin, t=0.0)
        even_pred = analytics.sudden_even_integral(n, cfg.mu_in, mu_fin,
                                                   params.hopping, params.pairing)
        try:
            odd_pred = analytics.sudden_odd_prediction(basis_in, basis_fin)
        except InvalidParameterError:
            odd_pred = _NAN
        return record, even_pred, odd_pred

    results, statuses = _run_points(points, worker)
    rows = []
    for (n, mu), res in zip(points, results):
        record, even_pred, odd_pred = res if res is not None else (None, _NAN, _NAN)
        rows.append((n, mu) + _record_cells(record) + (even_pred, odd_pred))
    table = ResultTable(
        kind="sudden",
        columns=("n_sites", "mu_fin") + _leakage_columns() + ("l_even_pred", "l_odd_pred"),
        rows=rows)
    table.metadata["row_status"] = statuses
    return table


def _run_walk(cfg: ExperimentConfig) -> ResultTable:
    points = sorted(cfg.walk_lengths)

    def worker(length):
        config = qpwalk.WalkConfig(length=length, trials=cfg.walk_trials, seed=cfg.seed)
        return qpwalk.simulate_pair_walks(config)

    results, statuses = _run_points(points, worker)
    rows = []
    for length, res in zip(points, results):
        if res is None:
            rows.append((length, cfg.walk_trials, _NAN, _NAN, _NAN))
        else:
            rows.append((length, cfg.walk_trials, res.p_opposite_exact,
                         res.p_opposite_mc, res.mc_std_error))
    table = ResultTable(kind="walk",
                        columns=("length", "trials", "p_exact", "p_mc", "mc_std_error"),
                        rows=rows)
    table.metadata["row_status"] = statuses
    return table


def run_fit(cfg: ExperimentConfig) -> ResultTable:
    source = read_table(Path(cfg.fit_table))
    for col in (cfg.fit_x, cfg.fit_y):
        if col not in source.columns:
            raise ConfigError("fit: input table has no column %r" % col)
    x = source.column(cfg.fit_x)
    y = source.column(cfg.fit_y)
    lo, hi = cfg.fit_window
    mask = np.isfinite(x) & np.isfinite(y)
    if lo is not None:
        mask &= x >= lo
    if hi is not None:
        mask &= x <= hi
    samples = list(zip(x[mask], y[mask]))

    if cfg.fit_family == "half-lz":
        fit = analytics.fit_half_lz(samples)
        columns = ("k1", "m1", "k2", "m2", "omega", "residual_norm", "r_squared")
        row = tuple(fit.parameters[k] for k in ("k1", "m1", "k2", "m2", "omega"))
        row += (fit.residual_norm, fit.r_squared)
    elif cfg.fit_family == "power-approach":
        fit = analytics.fit_power_approach(samples, cfg.fit_l_inf)
        columns = ("slope", "intercept", "k", "l_inf", "residual_norm", "r_squared")
        row = (fit.parameters["slope"], fit.parameters["intercept"], fit.parameters["k"],
               cfg.fit_l_inf, fit.residual_norm, fit.r_squared)
    else:
        fit = analytics.fit_linear_in_n(samples)
        columns = ("slope", "intercept", "residual_norm", "r_squared")
        row = (fit.parameters["slope"], fit.parameters["intercept"],
               fit.residual_norm, fit.r_squared)

    table = ResultTable(kind="fit", columns=columns, rows=[row])
    table.metadata["row_status"] = ["ok"]
    table.metadata["fit"] = {
        "family": cfg.fit_family,
        "input_table": cfg.fit_table,
        "x_column": cfg.fit_x,
        "y_column": cfg.fit_y,
        "window": [lo, hi],
        "n_samples": len(samples),
        "domain": list(fit.domain),
    }
    return table


def run_oracle_check(cfg: ExperimentConfig) -> ResultTable:
    """Side-by-side orbital-method vs Fock-oracle leakages for every grid point.

    The orbital-method columns keep their ``*_cov`` names.  All points share
    one :class:`dynamics.FockSpace`.
    """
    cases = []
    for mu_fin in cfg.mu_fins:
        cases.append(("sudden", _NAN, mu_fin))
        for v in cfg.v_grid:
            cases.append(("ramp", v, mu_fin))

    space = dynamics.FockSpace(cfg.params)

    def worker(point):
        case, v, mu_fin = point
        if case == "sudden":
            cov = dynamics.sudden_quench(cfg.params, cfg.mu_in, mu_fin)
            ork = dynamics.fock_oracle(cfg.params, quench=(cfg.mu_in, mu_fin), space=space)[-1]
        else:
            protocol = RampProtocol(cfg.mu_in, mu_fin, v)
            times = np.linspace(0.0, protocol.duration, 11)
            cov = dynamics.evolve_ramp(cfg.params, protocol, cfg.policy,
                                       sample_times=times)[-1]
            ork = dynamics.fock_oracle(cfg.params, protocol=protocol, policy=cfg.policy,
                                       sample_times=times, space=space)[-1]
        diff = max(abs(cov.l_odd - ork.l_odd), abs(cov.l_even - ork.l_even),
                   abs(cov.l_g - ork.l_g))
        return (cov.l_odd, ork.l_odd, cov.l_even, ork.l_even, cov.l_g, ork.l_g, diff)

    results, statuses = _run_points(cases, worker)
    rows = [point + (cells if cells is not None else (_NAN,) * 7)
            for point, cells in zip(cases, results)]
    worst = max([0.0] + [cells[-1] for cells in results if cells is not None])
    table = ResultTable(
        kind="oracle-check",
        columns=("case", "v", "mu_fin", "l_odd_cov", "l_odd_oracle", "l_even_cov",
                 "l_even_oracle", "l_g_cov", "l_g_oracle", "max_abs_diff"),
        rows=rows)
    table.metadata["row_status"] = statuses
    table.metadata["max_abs_diff"] = worst
    table.metadata["tolerance"] = ORACLE_TOLERANCE
    table.metadata["within_tolerance"] = bool(
        worst <= ORACLE_TOLERANCE and all(s == "ok" for s in statuses))
    return table


# ---------------------------------------------------------------------------
# Presets mirroring the studied parameter sets
# ---------------------------------------------------------------------------

PRESETS: Dict[str, Dict] = {
    "fig2-main": {
        "description": "Final leakage vs ramp rate, N=40, mu_fin in {0.03, 0.1}",
        "config": {
            "experiment": {"kind": "sweep-rate"},
            "model": {"n_sites": "40"},
            "protocol": {"mu_in": "0.0", "mu_fin_list": "0.03, 0.1"},
            "grid": {"v_min": "1e-4", "v_max": "1.0", "v_count": "25"},
            "stepping": {"steps_per_span": "1000"},
        },
    },
    "fig2-inset": {
        "description": "Final leakage vs even chain length at v=2e-2, mu_fin=0.03",
        "config": {
            "experiment": {"kind": "sweep-length"},
            "model": {"n_sites": "40"},
            "protocol": {"mu_in": "0.0", "mu_fin": "0.03", "rate": "2e-2"},
            "grid": {"n_min": "2", "n_max": "100", "n_step": "2", "even_only": "true"},
            "stepping": {"steps_per_span": "1000"},
        },
    },
    "fig3": {
        "description": "Sudden-quench leakage vs length with closed-form references",
        "config": {
            "experiment": {"kind": "sudden"},
            "model": {"n_sites": "40"},
            "protocol": {"mu_in": "0.0", "mu_fin_list": "0.01, 0.03, 0.1, 0.5"},
            "grid": {"n_min": "2", "n_max": "100", "n_step": "2"},
        },
    },
    "fig4": {
        "description": "Approach to the sudden limit at high ramp rates, N=40",
        "config": {
            "experiment": {"kind": "sweep-rate"},
            "model": {"n_sites": "40"},
            "protocol": {"mu_in": "0.0", "mu_fin_list": "0.01, 0.03, 0.1"},
            "grid": {"v_min": "0.03", "v_max": "30.0", "v_count": "25"},
            "stepping": {"steps_per_span": "2000"},
        },
    },
    "fig5": {
        "description": "Near-adiabatic oscillations on the fit window, N=40",
        "config": {
            "experiment": {"kind": "sweep-rate"},
            "model": {"n_sites": "40"},
            "protocol": {"mu_in": "0.0", "mu_fin_list": "0.01, 0.03"},
            "grid": {"v_min": "4e-4", "v_max": "1e-3", "v_count": "80"},
            "stepping": {"steps_per_span": "1000"},
        },
    },
    "fig6": {
        "description": "Near-adiabatic leakage vs rate against the envelope, N=40",
        "config": {
            "experiment": {"kind": "sweep-rate"},
            "model": {"n_sites": "40"},
            "protocol": {"mu_in": "0.0", "mu_fin_list": "0.01, 0.03"},
            "grid": {"v_min": "1e-4", "v_max": "1e-3", "v_count": "60"},
            "stepping": {"steps_per_span": "1000"},
        },
    },
}


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError("unknown preset %r; available: %s"
                          % (name, ", ".join(sorted(PRESETS))))
    return config_from_mapping(PRESETS[name]["config"])
