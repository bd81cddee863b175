"""The four benchmark workloads: seeded INI inputs, expected rows, step counts.

Every workload is a plain INI mapping in the layout ``tetronsim run --config``
reads.  The program only ever sees the generated file; the seed picks inputs
from fixed lists here, never step resolution or sample counts.
"""

from __future__ import annotations

import math
import random

import numpy as np

NAMES = ("sweep-rate", "ramp-sampled", "oracle-check", "walk")

# fig2-main: N=40, mu_fin in {0.03, 0.1}, 25 rates on geomspace(1e-4, 1).
FIG2_V_GRID = tuple(float(v) for v in np.geomspace(1e-4, 1.0, 25))
FIG2_MU_FINS = (0.03, 0.1)
SWEEP_RATES_PER_RUN = 4

# Rates inside fig5's near-adiabatic window [4e-4, 1e-3].
RAMP_RATES = (4e-4, 5.5e-4, 7e-4, 8.5e-4, 1e-3)
RAMP_SAMPLES = 200

ORACLE_RATES = (1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1.0)
ORACLE_MU_FINS = (0.1, 0.5)
ORACLE_RATES_PER_RUN = 3

WALK_LENGTHS = (10, 40)
WALK_TRIALS = 5000


def _fmt(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def sweep_rate_rates(seed: int):
    rng = random.Random(seed)
    return tuple(sorted(rng.sample(FIG2_V_GRID, SWEEP_RATES_PER_RUN)))


def ramp_rate(seed: int) -> float:
    return random.Random(seed).choice(RAMP_RATES)


def oracle_rates(seed: int):
    rng = random.Random(seed)
    return tuple(sorted(rng.sample(ORACLE_RATES, ORACLE_RATES_PER_RUN)))


def sweep_rate_config(rates, steps_per_span: int = 1000, n_sites: int = 40):
    return {
        "experiment": {"kind": "sweep-rate"},
        "model": {"n_sites": str(n_sites)},
        "protocol": {"mu_in": "0.0", "mu_fin_list": _fmt(FIG2_MU_FINS)},
        "grid": {"v_list": _fmt(rates)},
        "stepping": {"steps_per_span": str(steps_per_span)},
    }


def ramp_config(rate: float, steps_per_span: int = 1000, n_sites: int = 40):
    return {
        "experiment": {"kind": "ramp"},
        "model": {"n_sites": str(n_sites)},
        "protocol": {"mu_in": "0.0", "mu_fin": "0.1", "rate": repr(float(rate))},
        "stepping": {"steps_per_span": str(steps_per_span)},
        "samples": {"count": str(RAMP_SAMPLES)},
    }


def oracle_config(rates, n_sites: int = 3):
    return {
        "experiment": {"kind": "oracle-check"},
        "model": {"n_sites": str(n_sites)},
        "protocol": {"mu_in": "0.0", "mu_fin_list": _fmt(ORACLE_MU_FINS)},
        "grid": {"v_list": _fmt(rates)},
        "stepping": {"steps_per_span": "400"},
    }


def walk_config(seed: int, trials: int = WALK_TRIALS):
    return {
        "experiment": {"kind": "walk", "seed": str(seed)},
        "walk": {"length_list": ", ".join(str(n) for n in WALK_LENGTHS),
                 "trials": str(trials)},
    }


def config_for(name: str, seed: int):
    """INI mapping of workload ``name`` for benchmark seed ``seed``."""
    if name == "sweep-rate":
        return sweep_rate_config(sweep_rate_rates(seed))
    if name == "ramp-sampled":
        return ramp_config(ramp_rate(seed))
    if name == "oracle-check":
        return oracle_config(oracle_rates(seed))
    if name == "walk":
        return walk_config(seed)
    raise ValueError("unknown workload %r" % name)


def write_ini(mapping, path) -> None:
    lines = []
    for section, keys in mapping.items():
        lines.append("[%s]" % section)
        lines.extend("%s = %s" % (k, v) for k, v in keys.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


def step_counts(cfg):
    """Propagator steps per row, derived from a parsed ``ExperimentConfig``.

    Mirrors the grid the program steps on: each sample segment of a ramp is
    cut into ceil(span / dmu) steps, with dmu from the config's resolved
    stepping policy.  Returns ``(evolve_steps, oracle_steps)`` as lists with
    one entry per ramp the workload runs; both are empty for ``walk``.
    """
    from tetronsim import dynamics
    from tetronsim.model import RampProtocol

    def ramp_steps(mu_fin, rate, sample_times):
        protocol = RampProtocol(cfg.mu_in, mu_fin, rate)
        if sample_times is None:
            sample_times = dynamics.default_sample_times(protocol.duration, cfg.sample_count)
        samples = np.union1d(np.clip(np.asarray(sample_times, dtype=float),
                                     0.0, protocol.duration), [0.0, protocol.duration])
        dmu = cfg.policy.resolved_dmu(protocol.mu_fin - protocol.mu_in)
        total = 0
        for t_a, t_b in zip(samples[:-1], samples[1:]):
            if t_b <= t_a:
                continue
            span = abs(protocol.mu_at(t_b) - protocol.mu_at(t_a))
            total += max(1, math.ceil(span / dmu - 1e-12))
        return total

    if cfg.kind == "sweep-rate":
        steps = [ramp_steps(mu, v, [RampProtocol(cfg.mu_in, mu, v).duration])
                 for v, mu in sorted((v, mu) for v in cfg.v_grid for mu in cfg.mu_fins)]
        return steps, []
    if cfg.kind == "ramp":
        return [ramp_steps(cfg.mu_fins[0], cfg.rate, None)], []
    if cfg.kind == "oracle-check":
        steps = []
        for mu in cfg.mu_fins:
            for v in cfg.v_grid:
                duration = RampProtocol(cfg.mu_in, mu, v).duration
                steps.append(ramp_steps(mu, v, np.linspace(0.0, duration, 11)))
        return steps, list(steps)
    return [], []
