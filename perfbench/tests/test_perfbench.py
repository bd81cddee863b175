"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tetronsim import cli, dynamics, model  # noqa: E402
from tetronsim.experiments import parse_config  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _span(i, start, end, parent=None):
    return spans.Span(i, "s%d" % i, start, end, parent, 0)


def test_self_time_subtracts_direct_children_only():
    tree = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, 0), _span(2, 2.0, 3.0, 1),
            _span(3, 5.0, 9.0, 0)]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_layer_summary_counts_and_medians():
    group = [spans.Span(i, "x", 0.0, d, None, 0) for i, d in enumerate((1e-3, 2e-3, 6e-3))]
    summary = spans.layer_summary(group)["x"]
    assert summary["calls"] == 3
    assert summary["s"] == pytest.approx(9e-3)
    assert summary["self_s"] == pytest.approx(9e-3)
    assert summary["us_p50"] == pytest.approx(2000.0)


def test_tracer_patches_caller_bindings_and_restores_them():
    original = model.resolved_basis
    assert spans.find_wrappers() == []
    with spans.Tracer():
        assert dynamics.resolved_basis is not original
        assert model.resolved_basis is not original
        assert "tetronsim.dynamics.resolved_basis" in spans.find_wrappers()
    assert dynamics.resolved_basis is original and model.resolved_basis is original
    assert spans.find_wrappers() == []


def test_missing_function_is_reported_absent():
    tracer = spans.Tracer({"dynamics.gone": ("tetronsim.dynamics", "no_such_function")})
    with tracer:
        pass
    assert tracer.absent == ["dynamics.gone"]


def _small(name):
    """The workload's input shrunk so a test runs in about a second."""
    mapping = workloads.config_for(name, seed=3)
    if name == "walk":
        mapping["walk"]["trials"] = "500"
    else:
        mapping["model"]["n_sites"] = "2"
    return mapping


def test_untraced_run_carries_no_wrappers():
    workload = run.Workload("walk", _small("walk"))
    workload.run(cli)
    with spans.Tracer():
        with pytest.raises(RuntimeError, match="wrappers"):
            workload.run(cli)


@pytest.mark.parametrize("name", ["sweep-rate", "ramp-sampled", "oracle-check"])
def test_step_derivation_matches_counted_run_at_n2(name, tmp_path, monkeypatch):
    counts = {"evolve": 0, "oracle": 0}
    propagator = dynamics._chain_propagator
    hamiltonian = dynamics.FockSpace.hamiltonian

    def counted_propagator(*args):
        counts["evolve"] += 1
        return propagator(*args)

    def counted_hamiltonian(self, mu):
        counts["oracle"] += 1
        return hamiltonian(self, mu)

    monkeypatch.setattr(dynamics, "_chain_propagator", counted_propagator)
    monkeypatch.setattr(dynamics.FockSpace, "hamiltonian", counted_hamiltonian)
    ini = tmp_path / "input.ini"
    workloads.write_ini(_small(name), ini)
    evolve, oracle = workloads.step_counts(parse_config(ini))
    code = cli.main(["run", "--config", str(ini), "--out", str(tmp_path / "o.csv"), "--quiet"])
    assert code == 0
    assert counts == {"evolve": sum(evolve), "oracle": sum(oracle)}
    assert sum(evolve) > 0


def test_fig2_main_short_ramps_run_fewer_steps(tmp_path):
    ini = tmp_path / "input.ini"
    workloads.write_ini(workloads.sweep_rate_config(workloads.FIG2_V_GRID[:1]), ini)
    evolve, _ = workloads.step_counts(parse_config(ini))
    assert evolve == [300, 1000]


@pytest.mark.parametrize("name", ["ramp-sampled", "walk"])
def test_traced_metrics_match_benchmark_json_and_add_up(name):
    workload = run.Workload(name, _small(name))
    metrics, absent, _ = run.per_layer(workload, cli, 0.0, import_s=0.5)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert absent == []
    parts = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    parts += metrics["experiments.parse_s"] + metrics["experiments.write_s"]
    assert parts + metrics["trace.remainder_s"] == pytest.approx(metrics["trace.wall_s"])


def test_metric_and_workload_names_are_well_formed():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.NAMES)
