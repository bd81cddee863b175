"""Outside-in tracing: wrap public tetronsim functions and record spans.

A :class:`Tracer` replaces each traced function everywhere a tetronsim module
holds a reference to it (``dynamics`` binds ``resolved_basis`` and the
``gaussian`` functions at import, so they are patched in
``tetronsim.dynamics`` too) and restores the originals on exit.  Spans are
kept in memory; nothing is written while the program runs.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

# Span name -> (module, attribute path).  A dotted attribute path patches a
# method on a class.  These are the layers the per-layer metrics report.
LAYERS = {
    "dynamics.evolve_ramp": ("tetronsim.dynamics", "evolve_ramp"),
    "dynamics.initial_plus_state": ("tetronsim.dynamics", "initial_plus_state"),
    "dynamics.measure_leakage": ("tetronsim.dynamics", "measure_leakage"),
    "dynamics.fock_oracle": ("tetronsim.dynamics", "fock_oracle"),
    "model.resolved_basis": ("tetronsim.model", "resolved_basis"),
    "gaussian.rotate_to_qp_basis": ("tetronsim.gaussian", "rotate_to_qp_basis"),
    "gaussian.covariance_from_correlation":
        ("tetronsim.gaussian", "covariance_from_correlation"),
    "gaussian.overlap_sq": ("tetronsim.gaussian", "overlap_sq"),
    "gaussian.parity_expectation": ("tetronsim.gaussian", "parity_expectation"),
    "qpwalk.simulate_pair_walks": ("tetronsim.qpwalk", "simulate_pair_walks"),
    "experiments.parse": ("tetronsim.experiments", "parse_config"),
    "experiments.write": ("tetronsim.experiments", "ResultTable.write"),
}

# Span name -> function of the call's first argument whose value the span
# keeps, so per-length walk costs can be told apart.  Other spans keep no
# argument, so tracing holds no state matrices alive.
KEYS = {"qpwalk.simulate_pair_walks": lambda config: config.length}

ROOT = "cli.main"
_MARK = "__perfbench_layer__"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: int
    key: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.duration
    return out


def _tetronsim_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "tetronsim" or n.startswith("tetronsim."))]


def find_wrappers() -> List[str]:
    """Names of tetronsim attributes that currently hold a tracing wrapper."""
    found = []
    for mod in _tetronsim_modules():
        for name, value in list(vars(mod).items()):
            if hasattr(value, _MARK):
                found.append("%s.%s" % (mod.__name__, name))
            elif isinstance(value, type):
                found.extend("%s.%s.%s" % (mod.__name__, name, attr)
                             for attr, v in vars(value).items() if hasattr(v, _MARK))
    return found


class Tracer:
    """Context manager that patches the layers, records spans, then unpatches."""

    def __init__(self, layers=None):
        self.layers = dict(LAYERS if layers is None else layers)
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []
        self.run_id = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, key=None):
        return _SpanContext(self, name, key)

    def _wrap(self, name: str, fn):
        tracer = self
        key_of = KEYS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = key_of(args[0]) if key_of is not None and args else None
            with tracer.span(name, key):
                return fn(*args, **kwargs)

        setattr(wrapper, _MARK, name)
        return wrapper

    def __enter__(self):
        for name, (module_name, attr_path) in self.layers.items():
            module = importlib.import_module(module_name)
            owner, attr = module, attr_path
            if "." in attr_path:
                cls_name, attr = attr_path.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner is not module:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in _tetronsim_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False


class _SpanContext:
    __slots__ = ("tracer", "name", "key", "id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str, key):
        self.tracer, self.name, self.key = tracer, name, key

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.id = next(self.tracer._ids)
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(Span(self.id, self.name, self.start, end, self.parent,
                                      self.tracer.run_id, self.key))
        return False


def layer_summary(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, median call in us."""
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for name, group in by_name.items():
        durations = [s.duration for s in group]
        out[name] = {
            "calls": len(group),
            "s": sum(durations),
            "self_s": sum(selfs[s.id] for s in group),
            "us_p50": statistics.median(durations) * 1e6,
        }
    return out
