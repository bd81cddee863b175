"""Declarative experiment configs, runners, and result tables for the CLI.

Configs are INI files with typed sections.  Each kind reads only the keys it
uses, and any other key is a ConfigError.  Results are CSV tables with at
least 12 significant digits plus a JSON metadata sidecar carrying the config
as read (:meth:`ExperimentConfig.resolved`, which parses back to the same
config) and per-row status flags, which is enough to re-run a table
bit-identically.
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

# KINDS, the keys of the runner table RUNNERS, follows the runners below.

ORACLE_TOLERANCE = 1e-6

_INT_COLUMNS = {"n_sites", "length", "trials", "count"}
_TEXT_COLUMNS = {"case"}


@dataclass
class ResultTable:
    """Column-named rows of one experiment plus its reproducibility metadata."""

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
    return ResultTable(columns=columns, rows=rows)


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
    reads: Dict[str, Dict] = field(default_factory=dict)

    def resolved(self) -> Dict:
        """Each value the parse read, or the default it fell back to, as
        ``{section: {key: value}}``; the seed and output path are the fields,
        which the CLI may override.  As INI text it parses to an equal config."""
        out = {section: dict(keys) for section, keys in self.reads.items()}
        out["experiment"]["seed"] = self.seed
        if self.out_path is not None:
            out.setdefault("output", {})["path"] = self.out_path
        return out


class _Reader:
    """A parsed INI config that records, by section and key, each value the run reads."""

    def __init__(self, cp: configparser.ConfigParser):
        self.cp, self.values = cp, {}

    def _record(self, section: str, key: str, value):
        if value is not None:
            self.values.setdefault(section, {})[key] = value
        return value

    def get(self, section: str, key: str, cast, default=None, required: bool = False):
        if not self.cp.has_option(section, key):
            if required:
                raise ConfigError("%s.%s: missing required key" % (section, key))
            return self._record(section, key, default)
        raw = self.cp.get(section, key)
        try:
            value = self.cp.getboolean(section, key) if cast is bool else cast(raw)
        except (ValueError, TypeError):
            raise ConfigError("%s.%s: cannot parse %r" % (section, key, raw))
        return self._record(section, key, value)

    def get_list(self, section: str, key: str, cast):
        if not self.cp.has_option(section, key):
            return None
        raw = self.cp.get(section, key)
        try:
            values = tuple(cast(tok.strip()) for tok in raw.split(",") if tok.strip())
        except (ValueError, TypeError):
            raise ConfigError("%s.%s: cannot parse list %r" % (section, key, raw))
        return self._record(section, key, values)

    def reject_unread(self, kind: str) -> None:
        """ConfigError naming every key the run did not read: a misspelt key or
        section, a key the kind has no use for, or one that another key replaces."""
        unread = ["%s.%s" % (section, key) for section in self.cp.sections()
                  for key in self.cp.options(section) if key not in self.values.get(section, ())]
        if unread:
            raise ConfigError("%s: not read by a %s run" % (", ".join(unread), kind))


def _v_grid(ini: _Reader) -> Tuple[float, ...]:
    explicit = ini.get_list("grid", "v_list", float)
    if explicit:
        if not all(0 < v < math.inf for v in explicit):
            raise ConfigError("grid.v_list: rates must be positive and finite, got %r"
                              % (explicit,))
        return explicit
    v_min = ini.get("grid", "v_min", float)
    v_max = ini.get("grid", "v_max", float)
    count = ini.get("grid", "v_count", int)
    if v_min is None or v_max is None or count is None:
        return ()
    if not 0 < v_min <= v_max < math.inf:
        raise ConfigError("grid.v_min/v_max: need 0 < v_min <= v_max, both finite")
    if count < 1:
        raise ConfigError("grid.v_count: must be >= 1")
    return tuple(float(x) for x in np.geomspace(v_min, v_max, count))


def _n_grid(ini: _Reader) -> Tuple[int, ...]:
    explicit = ini.get_list("grid", "n_list", int)
    if explicit:
        if min(explicit) < 2:
            raise ConfigError("grid.n_list: lengths must be >= 2, got %r" % (explicit,))
        return explicit
    n_min = ini.get("grid", "n_min", int)
    n_max = ini.get("grid", "n_max", int)
    if n_min is None or n_max is None:
        return ()
    step = ini.get("grid", "n_step", int, default=1)
    if n_min < 2 or n_max < n_min or step < 1:
        raise ConfigError("grid.n_min/n_max/n_step: need 2 <= n_min <= n_max, step >= 1")
    return tuple(range(n_min, n_max + 1, step))


def parse_config(path: Path) -> ExperimentConfig:
    """Parse and validate an INI experiment file.

    ``[stepping] steps_per_span`` fixes one mu step for the whole run, taken
    from the largest ``|mu_fin - mu_in|`` span: with ``mu_fin_list = 0.03, 0.1``
    and 1000 steps per span (preset ``fig2-main``) the 0.03 ramps run 300 steps.
    Sweep sidecars record each row's count as ``row_n_steps``.  Values are
    read literally, with no ``%`` interpolation; a file that is not UTF-8 INI
    is a ConfigError.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read([str(path)], encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError("config file %s: %s" % (path, exc)) from exc
    if not read:
        raise ConfigError("config file %s: not found or unreadable" % path)
    return config_from_parser(cp)


def config_from_mapping(mapping: Dict[str, Dict[str, str]]) -> ExperimentConfig:
    """Build a config from a nested dict with the same shape as the INI file, read literally."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_dict(mapping)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    return config_from_parser(cp)


def config_from_parser(cp: configparser.ConfigParser) -> ExperimentConfig:
    """Build a config from a parsed INI file; ConfigError for a key its kind does not read."""
    ini = _Reader(cp)
    kind = ini.get("experiment", "kind", str, required=True)
    if kind not in KINDS:
        raise ConfigError("experiment.kind: %r is not one of %s" % (kind, ", ".join(KINDS)))

    cfg = ExperimentConfig(kind=kind, reads=ini.values)
    cfg.seed = ini.get("experiment", "seed", int, default=0)
    if cfg.seed < 0:
        raise ConfigError("experiment.seed: must be >= 0")
    cfg.out_path = ini.get("output", "path", str)

    if kind == "walk":
        lengths = ini.get_list("walk", "length_list", int)
        if not lengths:
            raise ConfigError("walk.length_list: at least one length is required")
        if any(length < 1 for length in lengths):
            raise ConfigError("walk.length_list: lengths must be >= 1")
        cfg.walk_lengths = lengths
        cfg.walk_trials = ini.get("walk", "trials", int, default=100000)
        if cfg.walk_trials < 1:
            raise ConfigError("walk.trials: must be >= 1")
    elif kind == "fit":
        cfg.fit_table = ini.get("fit", "table", str, required=True)
        cfg.fit_family = ini.get("fit", "family", str, required=True)
        if cfg.fit_family not in ("half-lz", "power-approach", "linear-n"):
            raise ConfigError("fit.family: unknown family %r" % cfg.fit_family)
        cfg.fit_x = ini.get("fit", "x_column", str,
                            default="n_sites" if cfg.fit_family == "linear-n" else "v")
        cfg.fit_y = ini.get("fit", "y_column", str, default="l_odd")
        lo, hi = ini.get("fit", "window_min", float), ini.get("fit", "window_max", float)
        if any(bound is not None and math.isnan(bound) for bound in (lo, hi)):
            raise ConfigError("fit.window_min/window_max: a bound is nan")
        if lo is not None and hi is not None and lo > hi:
            raise ConfigError("fit.window_min/window_max: need window_min <= window_max, "
                              "got %g > %g" % (lo, hi))
        cfg.fit_window = (lo, hi)
        cfg.fit_l_inf = ini.get("fit", "l_inf", float)
        if cfg.fit_l_inf is not None and not math.isfinite(cfg.fit_l_inf):
            raise ConfigError("fit.l_inf: must be finite, got %r" % cfg.fit_l_inf)
        if cfg.fit_family == "power-approach" and cfg.fit_l_inf is None:
            raise ConfigError("fit.l_inf: required for the power-approach family")
    else:
        _read_chain_run(ini, cfg)

    ini.reject_unread(kind)
    return cfg


def _read_chain_run(ini: _Reader, cfg: ExperimentConfig) -> None:
    """The model, protocol, grid, stepping and sample keys that ``cfg.kind`` uses."""
    kind = cfg.kind
    length_grid = kind in ("sweep-length", "sudden")  # each row takes N from the grid
    n_sites = 2 if length_grid else ini.get("model", "n_sites", int, required=True)
    try:
        cfg.params = ChainParams(n_sites=n_sites,
                                 hopping=ini.get("model", "hopping", float, default=0.5),
                                 pairing=ini.get("model", "pairing", float, default=0.5))
    except InvalidParameterError as exc:
        raise ConfigError("model: %s" % exc)
    if kind == "oracle-check" and n_sites > dynamics.MAX_ORACLE_SITES:
        raise ConfigError("model.n_sites: oracle-check requires n_sites <= %d"
                          % dynamics.MAX_ORACLE_SITES)

    cfg.mu_in = ini.get("protocol", "mu_in", float, default=0.0)
    fins = ini.get_list("protocol", "mu_fin_list", float)
    if fins is None:
        single = ini.get("protocol", "mu_fin", float)
        fins = (single,) if single is not None else ()
    if not fins:
        raise ConfigError("protocol.mu_fin: at least one target value is required")
    try:
        require_topological(cfg.params, cfg.mu_in, *fins)
    except InvalidParameterError as exc:
        raise ConfigError("protocol: %s" % exc) from exc
    cfg.mu_fins = fins
    if kind in ("ramp", "sweep-length"):
        if len(fins) > 1:
            raise ConfigError("protocol.mu_fin_list: kind %s runs one mu_fin, got %r"
                              % (kind, fins))
        cfg.rate = ini.get("protocol", "rate", float, required=True)
        if not 0 < cfg.rate < math.inf:
            raise ConfigError("protocol.rate: must be positive and finite, got %r" % cfg.rate)

    if kind in ("sweep-rate", "oracle-check"):
        cfg.v_grid = _v_grid(ini)
        if kind == "sweep-rate" and not cfg.v_grid:
            raise ConfigError("grid: a rate grid (v_list or v_min/v_max/v_count) is required")
    if length_grid:
        cfg.n_grid = _n_grid(ini)
        if not cfg.n_grid:
            raise ConfigError("grid: a length grid (n_list or n_min/n_max) is required")

    if kind != "sudden":  # the one chain kind that takes no steps
        max_dmu = ini.get("stepping", "max_dmu_per_step", float)
        steps = ini.get("stepping", "steps_per_span", int) if max_dmu is None else None
        if steps is not None:
            if steps < 1:
                raise ConfigError("stepping.steps_per_span: must be >= 1")
            max_dmu = max(abs(f - cfg.mu_in) for f in fins) / steps or None
        try:
            cfg.policy = dynamics.SteppingPolicy(
                max_dmu_per_step=max_dmu,
                # oracle-check writes no Richardson defect, so it takes no rerun
                richardson=(kind != "oracle-check"
                            and ini.get("stepping", "richardson", bool, default=False)),
            )
        except InvalidParameterError as exc:
            raise ConfigError("stepping: %s" % exc)
    if kind == "ramp":
        cfg.sample_count = ini.get("samples", "count", int,
                                   default=dynamics.DEFAULT_SAMPLE_COUNT)
        if cfg.sample_count < 0:
            raise ConfigError("samples.count: must be >= 0")


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

_NAN = float("nan")
# CSV columns of a leakage record, named as its LeakageRecord fields
LEAKAGE_COLUMNS = ("l_odd", "l_even", "l_g", "parity", "purity_defect")


def _run_points(points, worker) -> list:
    """One outcome per point, in order: the worker's value, or the exception it raised."""
    outcomes = []
    for point in points:
        try:
            outcomes.append(worker(point))
        except Exception as exc:  # noqa: BLE001 - reported per row
            outcomes.append(exc)
    return outcomes


def _table(columns, keys, outcomes, cells) -> ResultTable:
    """One row per outcome, ``key + cells(outcome)``, and its ``row_status``.

    An outcome that is an exception gives NaN cells and status
    "failed: <reason>"; any other gives status "ok".
    """
    rows, statuses = [], []
    for key, out in zip(keys, outcomes, strict=True):
        failed = isinstance(out, Exception)
        rows.append(key + ((_NAN,) * (len(columns) - len(key)) if failed else cells(out)))
        statuses.append("failed: %s" % out if failed else "ok")
    table = ResultTable(columns=columns, rows=rows)
    table.metadata["row_status"] = statuses
    return table


def _record_cells(record: dynamics.LeakageRecord) -> tuple:
    return tuple(getattr(record, name) for name in LEAKAGE_COLUMNS)


def _trajectory_fields(table: ResultTable, cfg: ExperimentConfig, mu_fins, outcomes,
                       per_row: bool = True) -> None:
    """Each trajectory's ``n_steps``, ``max_purity_defect`` and, with Richardson
    on, ``richardson_defect``, and the run's ``dmu``.

    A sweep writes them as ``row_``-prefixed lists aligned with ``row_status``,
    null for a failed row; a ramp writes its one trajectory's values as
    scalars.  ``dmu`` is the mu step of the run's longest ramp: every row's
    step when the config fixes one (``steps_per_span`` or
    ``max_dmu_per_step``); otherwise shorter ramps of a sweep step finer.
    """
    names = ("n_steps", "max_purity_defect") + (
        ("richardson_defect",) if cfg.policy.richardson else ())
    for name in names:
        values = [None if isinstance(out, Exception) else getattr(out, name)
                  for out in outcomes]
        table.metadata.update({"row_" + name: values} if per_row else {name: values[0]})
    table.metadata["dmu"] = cfg.policy.resolved_dmu(max(abs(mu - cfg.mu_in) for mu in mu_fins))


def _sweep_table(cfg: ExperimentConfig, key_columns, keys, outcomes, mu_fins) -> ResultTable:
    """Rows of final records, one per ramp, with each trajectory's sidecar fields."""
    table = _table(key_columns + LEAKAGE_COLUMNS, keys, outcomes,
                   lambda trajectory: _record_cells(trajectory[-1]))
    _trajectory_fields(table, cfg, mu_fins, outcomes)
    return table


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
    with serial_blas():
        table = RUNNERS[cfg.kind](cfg)
        table.metadata["environment"] = run_environment()
    table.metadata.setdefault("config", cfg.resolved())
    table.metadata["version"] = __version__
    table.metadata["wall_clock_s"] = round(time.time() - started, 3)
    return table


def _run_ramp(cfg: ExperimentConfig) -> ResultTable:
    protocol = RampProtocol(cfg.mu_in, cfg.mu_fins[0], cfg.rate)
    times, mus = dynamics.sample_points(
        protocol, dynamics.default_sample_times(protocol.duration, cfg.sample_count))
    [trajectory] = _run_points([times], lambda ts: dynamics.evolve_ramp(
        cfg.params, protocol, cfg.policy, sample_times=ts))
    records = [trajectory] * len(times) if isinstance(trajectory, Exception) else trajectory
    table = _table(("t", "mu") + LEAKAGE_COLUMNS, list(zip(times, mus)), records, _record_cells)
    _trajectory_fields(table, cfg, [protocol.mu_fin], [trajectory], per_row=False)
    return table


def _run_sweep_rate(cfg: ExperimentConfig) -> ResultTable:
    """Every row of the sweep in one :func:`dynamics.evolve_ramps`, flagged by its outcome.

    A row that fails on its own (purity check, Richardson rerun, basis at its
    mu_fin) is flagged alone; a failed |+> is every row's outcome.
    """
    points = sorted((v, mu) for v in cfg.v_grid for mu in cfg.mu_fins)
    outcomes = dynamics.evolve_ramps(
        cfg.params, [RampProtocol(cfg.mu_in, mu, v) for v, mu in points], cfg.policy)
    return _sweep_table(cfg, ("v", "mu_fin"), points, outcomes, cfg.mu_fins)


def _run_sweep_length(cfg: ExperimentConfig) -> ResultTable:
    protocol = RampProtocol(cfg.mu_in, cfg.mu_fins[0], cfg.rate)
    points = sorted(cfg.n_grid)
    outcomes = _run_points(points, lambda n: dynamics.evolve_ramp(
        ChainParams(n, cfg.params.hopping, cfg.params.pairing), protocol, cfg.policy,
        sample_times=[protocol.duration]))
    return _sweep_table(cfg, ("n_sites",), [(n,) for n in points], outcomes, [protocol.mu_fin])


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
        return _record_cells(record) + (even_pred, odd_pred)

    return _table(("n_sites", "mu_fin") + LEAKAGE_COLUMNS + ("l_even_pred", "l_odd_pred"),
                  points, _run_points(points, worker), tuple)


def _run_walk(cfg: ExperimentConfig) -> ResultTable:
    points = sorted(cfg.walk_lengths)

    def worker(length):
        config = qpwalk.WalkConfig(length=length, trials=cfg.walk_trials, seed=cfg.seed)
        res = qpwalk.simulate_pair_walks(config)
        return res.p_opposite_exact, res.p_opposite_mc, res.mc_std_error

    return _table(("length", "trials", "p_exact", "p_mc", "mc_std_error"),
                  [(length, cfg.walk_trials) for length in points],
                  _run_points(points, worker), tuple)


def run_fit(cfg: ExperimentConfig) -> ResultTable:
    source = read_table(Path(cfg.fit_table))
    for col in (cfg.fit_x, cfg.fit_y):
        if col not in source.columns or col in _TEXT_COLUMNS:
            raise ConfigError("fit: input table has no numeric column %r" % col)
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
    elif cfg.fit_family == "power-approach":
        fit = analytics.fit_power_approach(samples, cfg.fit_l_inf)
    else:
        fit = analytics.fit_linear_in_n(samples)

    table = _table(tuple(fit.parameters) + ("residual_norm", "r_squared"), [()], [fit],
                   lambda f: tuple(f.parameters.values()) + (f.residual_norm, f.r_squared))
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


def _oracle_cells(covs, orks) -> tuple:
    """Final orbital-method and oracle leakages, then their largest difference at any sample."""
    diff = max(abs(getattr(cov, name) - getattr(ork, name))
               for cov, ork in zip(covs, orks, strict=True)
               for name in ("l_odd", "l_even", "l_g"))
    cov, ork = covs[-1], orks[-1]
    return (cov.l_odd, ork.l_odd, cov.l_even, ork.l_even, cov.l_g, ork.l_g, diff)


def run_oracle_check(cfg: ExperimentConfig) -> ResultTable:
    """Side-by-side orbital-method vs Fock-oracle leakages for every grid point.

    The orbital-method columns keep their ``*_cov`` names and show the final
    sample; ``max_abs_diff`` is the largest difference over every sample of a
    case.  Each mu_fin gives a sudden row, then its ramps.  Every ramp goes
    through one :func:`dynamics.evolve_ramps` call, then, unless it failed
    there, one :func:`dynamics.fock_oracle` call.
    """
    protocols = [RampProtocol(cfg.mu_in, mu_fin, v) for mu_fin in cfg.mu_fins for v in cfg.v_grid]
    times = [np.linspace(0.0, p.duration, 11) for p in protocols]
    ramps = dynamics.evolve_ramps(cfg.params, protocols, cfg.policy, times)
    live = [i for i, cov in enumerate(ramps) if not isinstance(cov, Exception)]
    orks = dynamics.fock_oracle(cfg.params, [protocols[i] for i in live], cfg.policy,
                                [times[i] for i in live])
    for i, ork in zip(live, orks, strict=True):
        ramps[i] = ork if isinstance(ork, Exception) else _oracle_cells(ramps[i], ork)
    cases, outcomes, n = [], [], len(cfg.v_grid)
    for k, mu_fin in enumerate(cfg.mu_fins):
        cases += [("sudden", _NAN, mu_fin)] + [("ramp", v, mu_fin) for v in cfg.v_grid]
        outcomes += _run_points([mu_fin], lambda mu: _oracle_cells(
            [dynamics.sudden_quench(cfg.params, cfg.mu_in, mu)],
            [dynamics.fock_quench(cfg.params, cfg.mu_in, mu)]))
        outcomes += ramps[k * n:(k + 1) * n]

    table = _table(("case", "v", "mu_fin", "l_odd_cov", "l_odd_oracle", "l_even_cov",
                    "l_even_oracle", "l_g_cov", "l_g_oracle", "max_abs_diff"),
                   cases, outcomes, tuple)
    ok = [out for out in outcomes if not isinstance(out, Exception)]
    worst = max([0.0] + [cells[-1] for cells in ok])
    table.metadata["max_abs_diff"] = worst
    table.metadata["tolerance"] = ORACLE_TOLERANCE
    table.metadata["within_tolerance"] = bool(
        worst <= ORACLE_TOLERANCE and len(ok) == len(outcomes))
    return table


RUNNERS = {
    "ramp": _run_ramp,
    "sweep-rate": _run_sweep_rate,
    "sweep-length": _run_sweep_length,
    "sudden": _run_sudden,
    "walk": _run_walk,
    "fit": run_fit,
    "oracle-check": run_oracle_check,
}
KINDS = tuple(RUNNERS)


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
            "protocol": {"mu_in": "0.0", "mu_fin": "0.03", "rate": "2e-2"},
            "grid": {"n_min": "2", "n_max": "100", "n_step": "2"},
            "stepping": {"steps_per_span": "1000"},
        },
    },
    "fig3": {
        "description": "Sudden-quench leakage vs length with closed-form references",
        "config": {
            "experiment": {"kind": "sudden"},
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
