import math
from dataclasses import replace

import numpy as np
import pytest

from tetronsim import dynamics, model
from tetronsim.analytics import sudden_even_prediction, sudden_odd_prediction
from tetronsim.dynamics import (
    FockSpace,
    SteppingPolicy,
    evolve_ramp,
    evolve_ramps,
    fock_oracle,
    fock_quench,
    sudden_quench,
)
from tetronsim.errors import (
    BasisMismatchError,
    DegenerateSubspaceError,
    InvalidParameterError,
    StepSizeTooCoarse,
)
from tetronsim.experiments import (
    ORACLE_TOLERANCE,
    PRESETS,
    config_from_mapping,
    preset_config,
    run_experiment,
)
from tetronsim.model import ChainParams, RampProtocol

from reference import (
    dense_fock_step,
    dense_ground_states,
    dense_mzm_parity,
    odd_leakage_mp,
    total_parity,
    two_chain_state,
)

W = 0.5


def params(n):
    return ChainParams(n, W, W)


def ramps(mu_fins, rates, mu_in=0.0):
    """The mu_in -> mu_fin ramps at each rate, grouped by mu_fin."""
    return [RampProtocol(mu_in, mu_fin, v) for mu_fin in mu_fins for v in rates]


class TestRampBasics:
    def test_initial_record_clean(self):
        proto = RampProtocol(0.0, 0.05, 1e-2)
        records = evolve_ramp(params(4), proto, sample_times=[0.0, proto.duration])
        first = records[0]
        assert first.l_odd == pytest.approx(0.0, abs=1e-10)
        assert first.l_even == pytest.approx(0.0, abs=1e-10)
        assert first.parity == pytest.approx(1.0, abs=1e-10)

    def test_one_record_per_distinct_sample_time(self):
        # repeated times, and the default grid of a zero-length ramp, collapse
        proto = RampProtocol(0.0, 0.05, 1e-2)
        records = evolve_ramp(params(4), proto, sample_times=[0.0, 1.0, 1.0, proto.duration])
        assert [r.t for r in records] == [0.0, 1.0, proto.duration]
        still = RampProtocol(0.05, 0.05, 1e-2)
        assert len(evolve_ramp(params(4), still)) == 1
        assert len(fock_oracle(params(2), [still])[0]) == 1

    def test_leakage_sum_identity(self):
        proto = RampProtocol(0.0, 0.1, 5e-3)
        records = evolve_ramp(params(6), proto,
                              SteppingPolicy(max_dmu_per_step=0.1 / 300),
                              sample_times=np.linspace(0, proto.duration, 7))
        for r in records:
            assert r.l_g == r.l_odd + r.l_even
            assert -1e-9 <= r.l_odd <= 1 + 1e-9
            assert -1e-9 <= r.l_g <= 1 + 1e-9
            # independent of the identity above: overlaps and parity could
            # disagree and push the even-sector remainder below zero
            assert r.l_even >= -1e-9

    def test_purity_preserved(self):
        proto = RampProtocol(0.0, 0.1, 5e-3)
        records = evolve_ramp(params(6), proto,
                              SteppingPolicy(max_dmu_per_step=0.1 / 300),
                              sample_times=np.linspace(0, proto.duration, 7))
        assert max(r.purity_defect for r in records) < 1e-6

    def test_adiabatic_limit_small_leakage(self):
        proto = RampProtocol(0.0, 0.03, 1e-5)
        records = evolve_ramp(params(10), proto, sample_times=[proto.duration])
        assert records[-1].l_g < 1e-4

    def test_rejects_nan_sample_time(self):
        with pytest.raises(InvalidParameterError, match="sample times must be finite"):
            evolve_ramp(params(4), RampProtocol(0.0, 0.1, 1e-2), sample_times=[np.nan])

    def test_nan_purity_defect_fails_the_ramp(self, monkeypatch):
        measure = dynamics.measure_leakage

        def spoiled(state, basis, t=0.0):
            return replace(measure(state, basis, t), purity_defect=float("nan"))

        monkeypatch.setattr(dynamics, "measure_leakage", spoiled)
        with pytest.raises(StepSizeTooCoarse, match="purity defect nan exceeds"):
            evolve_ramp(params(4), RampProtocol(0.0, 0.05, 1e-2))

    def test_rejects_non_topological_ramp(self):
        proto = RampProtocol(0.0, 1.5, 1e-2)
        with pytest.raises(InvalidParameterError):
            evolve_ramp(params(4), proto)

    @pytest.mark.parametrize("field", ["max_dmu_per_step"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_policy_rejects_bad_values(self, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            SteppingPolicy(**{field: value})

    def test_richardson_defect_reported(self):
        proto = RampProtocol(0.0, 0.03, 2e-2)
        pol = SteppingPolicy(max_dmu_per_step=0.03 / 400, richardson=True)
        records = evolve_ramp(params(8), proto, pol, sample_times=[proto.duration])
        assert records.richardson_defect is not None
        assert records.richardson_defect < 1e-4


class TestSubnormalFlush:
    def test_leakage_unchanged_by_flush(self, monkeypatch):
        # the flushed mu = 0 basis gives the leakage of the raw LAPACK vectors
        proto = RampProtocol(0.0, 0.03, 1e-3)
        pol = SteppingPolicy(max_dmu_per_step=0.03 / 200)
        times = np.linspace(0.0, proto.duration, 5)
        flushed = evolve_ramp(params(40), proto, pol, sample_times=times)
        monkeypatch.setattr(model, "NEGLIGIBLE", 0.0)
        raw = evolve_ramp(params(40), proto, pol, sample_times=times)
        for a, b in zip(flushed, raw):
            assert abs(a.l_odd - b.l_odd) < 1e-13
            assert abs(a.l_even - b.l_even) < 1e-13
            assert abs(a.l_g - b.l_g) < 1e-13


RATES = (3e-3, 7e-3, 2e-2, 6e-2)
MU_FINS = (0.05, 0.1)


def sweep_table(n):
    """A Richardson-checked rate sweep over RATES x MU_FINS: (config, table)."""
    cfg = config_from_mapping({
        "experiment": {"kind": "sweep-rate"},
        "model": {"n_sites": str(n)},
        "protocol": {"mu_in": "0.0", "mu_fin_list": ", ".join(map(repr, MU_FINS))},
        "grid": {"v_list": ", ".join(map(repr, RATES))},
        "stepping": {"steps_per_span": "120", "richardson": "true"},
    })
    return cfg, run_experiment(cfg)


class TestRateSharedSweep:
    POINTS = [(v, mu) for v in RATES for mu in MU_FINS]

    @pytest.mark.parametrize("n", [6, 8])
    def test_matches_row_by_row_evolve_ramp(self, n):
        cfg, table = sweep_table(n)
        assert table.metadata["row_status"] == ["ok"] * len(self.POINTS)
        assert list(zip(table.column("v"), table.column("mu_fin"))) == self.POINTS
        defects = table.metadata["row_richardson_defect"]
        assert len(defects) == len(self.POINTS)
        for row, defect in zip(table.rows, defects):
            v, mu_fin = row[:2]
            proto = RampProtocol(0.0, mu_fin, v)
            ref = evolve_ramp(params(n), proto, cfg.policy, sample_times=[proto.duration])
            expected = (ref[-1].l_odd, ref[-1].l_even, ref[-1].l_g)
            assert max(abs(a - b) for a, b in zip(row[2:5], expected)) < 1e-12
            assert defect == pytest.approx(ref.richardson_defect, rel=1e-9, abs=0)
            assert defect > 0.0

    def test_rates_match_fock_oracle(self):
        pol = SteppingPolicy(max_dmu_per_step=0.1 / 200)
        rates = (1e-2, 5e-2, 0.2)
        shared = evolve_ramps(params(3), ramps([0.1], rates), pol)
        for v, traj in zip(rates, shared):
            proto = RampProtocol(0.0, 0.1, v)
            ork = fock_oracle(params(3), [proto], pol)[0][-1]
            assert [r.t for r in traj] == [0.0, proto.duration]
            assert abs(traj[-1].l_odd - ork.l_odd) < ORACLE_TOLERANCE
            assert abs(traj[-1].l_even - ork.l_even) < ORACLE_TOLERANCE
        assert evolve_ramps(params(3), [], pol) == []
        with pytest.raises(InvalidParameterError, match="one mu_in"):
            evolve_ramps(params(3), ramps([0.1], rates) + ramps([0.1], rates, mu_in=0.05), pol)

    @pytest.mark.parametrize("failing_pass", [1, 2], ids=["coarse", "richardson"])
    def test_purity_failure_flags_its_row_only(self, monkeypatch, failing_pass):
        _, clean = sweep_table(6)
        bad = self.POINTS.index((RATES[1], 0.1))
        end = RampProtocol(0.0, 0.1, RATES[1]).duration
        measure = dynamics.measure_leakage
        seen = []

        def spoiled(state, basis, t=0.0):
            record = measure(state, basis, t)
            if t == end:
                seen.append(t)
                if len(seen) == failing_pass:
                    return replace(record, purity_defect=1.0)
            return record

        monkeypatch.setattr(dynamics, "measure_leakage", spoiled)
        _, table = sweep_table(6)
        statuses = table.metadata["row_status"]
        defects = table.metadata["row_richardson_defect"]
        assert statuses[bad].startswith("failed: purity defect 1 exceeds")
        assert defects[bad] is None
        assert np.all(np.isnan(table.rows[bad][2:]))
        assert list(zip(table.column("v"), table.column("mu_fin"))) == self.POINTS
        for i, (row, ref) in enumerate(zip(table.rows, clean.rows)):
            if i != bad:
                assert statuses[i] == "ok"
                assert row == ref
                assert defects[i] == clean.metadata["row_richardson_defect"][i]

    def test_basis_failure_flags_its_group(self, monkeypatch):
        resolve = dynamics.resolved_basis

        def failing(chain, mu):
            if mu == 0.05:
                raise DegenerateSubspaceError("no isolated near-zero pair")
            return resolve(chain, mu)

        monkeypatch.setattr(dynamics, "resolved_basis", failing)
        _, table = sweep_table(6)
        for (v, mu), status, defect in zip(self.POINTS, table.metadata["row_status"],
                                           table.metadata["row_richardson_defect"]):
            if mu == 0.05:
                assert status == "failed: no isolated near-zero pair" and defect is None
            else:
                assert status == "ok" and defect > 0.0

    @pytest.mark.parametrize("richardson", [False, True])
    def test_failed_plus_state_is_every_ramps_outcome(self, monkeypatch, richardson):
        # both engines return the failure of |+> for each ramp; evolve_ramp raises it
        resolve = dynamics.resolved_basis
        failure = DegenerateSubspaceError("no isolated near-zero pair at mu_in")

        def failing(chain, mu):
            if mu == 0.0:
                raise failure
            return resolve(chain, mu)

        monkeypatch.setattr(dynamics, "resolved_basis", failing)
        pol = SteppingPolicy(max_dmu_per_step=0.1 / 60, richardson=richardson)
        protocols = ramps(MU_FINS, RATES[:2])
        for evolve in (evolve_ramps, fock_oracle):
            outcomes = evolve(params(3), protocols, pol)
            assert len(outcomes) == len(protocols)
            assert all(out is failure for out in outcomes)
        with pytest.raises(DegenerateSubspaceError) as raised:
            evolve_ramp(params(3), protocols[0], pol)
        assert raised.value is failure

    def test_failed_initial_record_is_every_ramps_outcome(self, monkeypatch):
        measure = dynamics.measure_leakage

        def failing(state, basis, t=0.0):
            if t == 0.0:
                raise BasisMismatchError("spoiled t = 0 record")
            return measure(state, basis, t)

        monkeypatch.setattr(dynamics, "measure_leakage", failing)
        outcomes = evolve_ramps(params(6), ramps(MU_FINS, RATES),
                                SteppingPolicy(max_dmu_per_step=0.1 / 60))
        assert len(outcomes) == 8 and all(out is outcomes[0] for out in outcomes)
        assert str(outcomes[0]) == "spoiled t = 0 record"


class TestSharedWork:
    """Work done once and shared: the t = 0 record of a group, a sample's eigh."""

    @pytest.mark.parametrize("richardson", [False, True])
    def test_one_initial_measurement_per_group(self, monkeypatch, richardson):
        pol = SteppingPolicy(max_dmu_per_step=0.1 / 120, richardson=richardson)
        protocols = [RampProtocol(0.0, 0.1, v) for v in RATES]
        one_by_one = [evolve_ramp(params(6), p, pol, sample_times=[p.duration])
                      for p in protocols]
        initial = dynamics.measure_leakage(*dynamics.initial_plus_state(params(6), 0.0))
        measure = dynamics.measure_leakage
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return measure(*args, **kwargs)

        monkeypatch.setattr(dynamics, "measure_leakage", counted)
        shared = evolve_ramps(params(6), protocols, pol)
        # the t = 0 record serves the Richardson rows too
        assert len(calls) == (2 if richardson else 1) * len(RATES) + 1
        for traj, ref in zip(shared, one_by_one):
            assert traj[0] == initial
            assert list(traj) == list(ref)
            assert traj.richardson_defect == ref.richardson_defect

    def test_sampled_ramps_match_each_ramp_alone(self, monkeypatch):
        # the rates of one mu_fin sampled at the same fractions of their ramps
        # share one mu grid and step in lockstep, one eigh per mu
        pol = SteppingPolicy(max_dmu_per_step=0.1 / 120)
        protocols = ramps([0.1], RATES) + [RampProtocol(0.0, 0.05, 2e-2)]
        times = [np.linspace(0.0, p.duration, 11) for p in protocols[:-1]] + [[0.7, 2.0]]
        chain_eigh, calls = dynamics.chain_eigh, []

        def counted(params, mus):
            calls.extend(mus)
            return chain_eigh(params, mus)

        monkeypatch.setattr(dynamics, "chain_eigh", counted)
        alone, counts = [], []
        for p, ts in zip(protocols, times):
            alone.append(evolve_ramp(params(6), p, pol, sample_times=ts))
            counts.append(len(calls))
            calls.clear()
        together = evolve_ramps(params(6), protocols, pol, sample_times=times)
        # the rates to mu_fin = 0.1 take the eighs of any one of them alone
        assert len(set(counts[:-1])) == 1 and counts[0] > 0 and counts[-1] > 0
        assert len(calls) == counts[0] + counts[-1]
        for traj, ref in zip(together, alone):
            assert [r.t for r in traj] == [r.t for r in ref]
            for a, b in zip(traj, ref):
                for field in ("mu", "l_odd", "l_even", "l_g", "parity"):
                    assert abs(getattr(a, field) - getattr(b, field)) <= 1e-15
        assert evolve_ramps(params(6), protocols[:1], pol) == [
            evolve_ramp(params(6), protocols[0], pol, sample_times=[protocols[0].duration])]

    def test_initial_purity_failure_stops_every_rate(self, monkeypatch):
        measure = dynamics.measure_leakage

        def spoiled(state, basis, t=0.0):
            record = measure(state, basis, t)
            return replace(record, purity_defect=1.0) if t == 0.0 else record

        monkeypatch.setattr(dynamics, "measure_leakage", spoiled)
        outcomes = evolve_ramps(params(6), ramps([0.1], RATES), SteppingPolicy())
        assert len(outcomes) == len(RATES)
        assert all(isinstance(out, StepSizeTooCoarse) for out in outcomes)

    def test_a_failed_measurement_fails_only_its_row(self, monkeypatch):
        protocols = ramps([0.1], (1e-2, 3e-2, 7e-2))
        times = [np.linspace(0.0, p.duration, 6) for p in protocols]
        pol = SteppingPolicy(max_dmu_per_step=0.1 / 60)
        clean = evolve_ramps(params(4), protocols, pol, times)
        spoiled_t = times[1][1]
        assert all(spoiled_t not in ts for ts in times[::2])
        measure = dynamics.measure_leakage

        def failing(state, basis, t=0.0):
            if t == spoiled_t:
                raise ValueError("spoiled sample")
            return measure(state, basis, t)

        monkeypatch.setattr(dynamics, "measure_leakage", failing)
        outcomes = evolve_ramps(params(4), protocols, pol, times)
        assert isinstance(outcomes[1], ValueError)
        assert outcomes[::2] == clean[::2]

    def test_sampled_ramp_takes_one_svd_per_step_and_one_more(self, monkeypatch):
        proto = RampProtocol(0.0, 0.1, 5e-3)
        pol = SteppingPolicy(max_dmu_per_step=0.1 / 90)
        samples = np.linspace(0.0, proto.duration, 11)
        # each step but a segment's first decomposes J S (model.chain_eigh),
        # and each sample basis one more; no SVD is taken
        svd, propagator = np.linalg.svd, dynamics._chain_propagator
        counts = {"svd": 0, "steps": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        decomposed = counted_eigh(monkeypatch)
        monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
        monkeypatch.setattr(dynamics, "_chain_propagator", counted("steps", propagator))
        records = evolve_ramp(params(8), proto, pol, sample_times=samples)
        assert len(records) == len(samples)
        assert counts["steps"] >= 90
        assert len(decomposed) == counts["steps"] + 1
        assert counts["svd"] == 0


def counted_eigh(monkeypatch):
    """A list that grows by one per matrix ``np.linalg.eigh`` decomposes, a stack's by its length."""
    eigh, calls = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        calls.extend([None] * math.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestNestedGrids:
    """mu_fins whose grids nest share one lockstep; the others step alone."""

    def test_sweep_rate_workload_takes_one_decomposition_per_mu(self, monkeypatch):
        # the benchmark's sweep-rate shape at N = 4: mu_fin 0.03 and 0.1, 4 rates,
        # 1000 steps per 0.1 span.  Stepped per mu_fin, it took 301 + 1001 = 1302.
        cfg = config_from_mapping({
            "experiment": {"kind": "sweep-rate"},
            "model": {"n_sites": "4"},
            "protocol": {"mu_in": "0.0", "mu_fin_list": "0.03, 0.1"},
            "grid": {"v_list": "1e-4, 3.16e-3, 0.1, 1.0"},
            "stepping": {"steps_per_span": "1000"},
        })
        calls = counted_eigh(monkeypatch)
        table = run_experiment(cfg)
        assert table.metadata["row_status"] == ["ok"] * 8
        assert table.metadata["row_n_steps"] == [300, 1000] * 4
        # 999 steps off a sample, and the bases at 0, 0.03 and 0.1
        assert len(calls) == 1002

    @pytest.mark.parametrize("mu_fins, steps", [((0.03, 0.1), 1000), ((0.01, 0.03, 0.1), 2000)],
                             ids=["fig2-main", "fig4"])
    def test_nested_mu_fins_match_each_mu_fin_alone(self, monkeypatch, mu_fins, steps):
        pol = SteppingPolicy(max_dmu_per_step=max(mu_fins) / steps)
        rates = (1e-3, 2e-2, 0.5)
        calls = counted_eigh(monkeypatch)
        alone = [out for mu_fin in mu_fins
                 for out in evolve_ramps(params(6), ramps([mu_fin], rates), pol)]
        separate = len(calls)
        shared = evolve_ramps(params(6), ramps(mu_fins, rates), pol)
        # one decomposition per step of the farthest ramp, and one per sample basis
        assert 0 < len(calls) - separate <= steps + len(mu_fins) < separate
        for traj, ref in zip(shared, alone, strict=True):
            assert traj.n_steps == ref.n_steps
            assert [r.t for r in traj] == [r.t for r in ref]
            for name in ("l_odd", "l_even", "l_g", "parity"):
                assert abs(getattr(traj[-1], name) - getattr(ref[-1], name)) < 1e-12

    @pytest.mark.parametrize("mu_fins, dmu", [((0.01, 0.03), 3e-5), ((-0.05, 0.1), 0.1 / 120)],
                             ids=["fig5", "both-sides"])
    def test_other_mu_fins_step_alone_bit_for_bit(self, mu_fins, dmu):
        # fig5's 0.01 is 333.3 steps of 3e-5, so its grid is no prefix of 0.03's
        pol = SteppingPolicy(max_dmu_per_step=dmu, richardson=True)
        rates = (4e-4, 7e-4, 1e-3)
        shared = evolve_ramps(params(6), ramps(mu_fins, rates), pol)
        alone = [out for mu_fin in mu_fins
                 for out in evolve_ramps(params(6), ramps([mu_fin], rates), pol)]
        for traj, ref in zip(shared, alone, strict=True):
            assert list(traj) == list(ref)
            assert traj.n_steps == ref.n_steps
            assert traj.richardson_defect == ref.richardson_defect

    def test_one_step_to_the_other_side_rides_the_lead_bit_for_bit(self, monkeypatch):
        # -5e-4 is one step of 1e-3, at mu_in: the first step of the 0.1 grid too
        pol = SteppingPolicy(max_dmu_per_step=1e-3)
        rates = (2e-2, 0.5)
        alone = evolve_ramps(params(4), ramps([-5e-4], rates), pol)
        step, widths = dynamics._mode_step, []

        def counted(w, *args):
            widths.append(w.shape[1])
            step(w, *args)

        monkeypatch.setattr(dynamics, "_mode_step", counted)
        shared = evolve_ramps(params(4), ramps([0.1, -5e-4], rates), pol)
        assert widths[:2] == [4, 2]
        for traj, ref in zip(shared[2:], alone, strict=True):
            assert list(traj) == list(ref)
            assert traj.n_steps == ref.n_steps == 1

    @pytest.mark.parametrize("mu_fins, rates, richardson, eighs, measurements", [
        ((-0.05, 0.1), (2e-2,), False, 151, 3),
        ((0.03, 0.1), (2e-2, 0.5), True, 301, 9),
    ], ids=["both-sides", "richardson"])
    def test_one_plus_state_per_call(self, monkeypatch, mu_fins, rates, richardson, eighs,
                                     measurements):
        # |+>, its basis and its t = 0 record serve every lockstep run of the call;
        # built once per run, they would add one eigh and one measurement each
        pol = SteppingPolicy(max_dmu_per_step=0.1 / 100, richardson=richardson)
        measure, measured = dynamics.measure_leakage, []

        def counted(*args, **kwargs):
            measured.append(None)
            return measure(*args, **kwargs)

        calls = counted_eigh(monkeypatch)
        monkeypatch.setattr(dynamics, "measure_leakage", counted)
        outcomes = evolve_ramps(params(4), ramps(mu_fins, rates), pol)
        assert all(isinstance(out, dynamics.Trajectory) for out in outcomes)
        # both-sides: the basis at 0, 99 + 49 steps off it and the two mu_fin bases;
        # richardson: the basis at 0, and per pass the steps off 0 and 0.03 and two bases
        assert (len(calls), len(measured)) == (eighs, measurements)

    def test_presets_share_grids_where_they_nest(self, monkeypatch):
        # a preset edit that breaks the nesting shows here, not only as a slower run
        expected = {"fig2-main": True, "fig4": True, "fig5": False, "fig6": False}
        assert set(expected) == {name for name, preset in PRESETS.items()
                                 if preset["config"]["experiment"]["kind"] == "sweep-rate"}
        calls = counted_eigh(monkeypatch)
        for name, shares in expected.items():
            cfg = preset_config(name)
            chain = ChainParams(4, cfg.params.hopping, cfg.params.pairing)
            rates = cfg.v_grid[-1:]
            del calls[:]
            for mu_fin in cfg.mu_fins:
                evolve_ramps(chain, ramps([mu_fin], rates, cfg.mu_in), cfg.policy)
            separate = len(calls)
            del calls[:]
            evolve_ramps(chain, ramps(cfg.mu_fins, rates, cfg.mu_in), cfg.policy)
            saved = separate - len(calls)
            # one call builds |+> once; nested grids also share their steps
            assert saved > 1 if shares else saved == 1, name


class TestStepConvergence:
    def test_halving_at_acceptance_setting(self):
        # the sweep setting used for the length-scaling acceptance runs
        proto = RampProtocol(0.0, 0.03, 2e-2)
        pol = SteppingPolicy(richardson=True)
        records = evolve_ramp(params(10), proto, pol, sample_times=[proto.duration])
        assert records.richardson_defect < 1e-6


class TestSuddenQuench:
    def test_identity_quench(self):
        rec = sudden_quench(params(6), 0.0, 0.0)
        assert rec.l_odd == pytest.approx(0.0, abs=1e-10)
        assert rec.l_g == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("n", [3, 40, 200])
    def test_no_quench_reads_no_leakage(self, n):
        # |+> read in its own basis: the overlaps are exact to rounding, never below 0
        rec = sudden_quench(params(n), 0.05, 0.05)
        assert 0.0 <= rec.l_g <= 1e-15

    @pytest.mark.parametrize("mu", [0.03, 0.05])
    @pytest.mark.parametrize("n", [3, 40, 200])
    def test_no_quench_reads_no_split_below_zero(self, n, mu):
        # l_odd is a sum of squares, not 1 - parity, so rounding cannot take it below 0
        rec = sudden_quench(params(n), mu, mu)
        assert rec.l_odd >= 0.0 and rec.l_even >= 0.0 and rec.parity <= 1.0

    def test_even_leakage_matches_closed_form(self):
        rec = sudden_quench(params(40), 0.0, 0.03)
        predicted = sudden_even_prediction(40, 0.03)
        assert predicted == pytest.approx(4.275e-3)
        assert rec.l_even == pytest.approx(predicted, rel=0.10)

    def test_odd_leakage_matches_overlap_product(self):
        rec = sudden_quench(params(40), 0.0, 0.03)
        pred = sudden_odd_prediction(model.resolved_basis(params(40), 0.0),
                                     model.resolved_basis(params(40), 0.03))
        assert rec.l_odd == pytest.approx(pred, rel=0.01)

    def test_parity_after_quench_matches_overlap_product(self):
        # the measured MZM parity equals the product of the four MZM overlaps
        rec = sudden_quench(params(40), 0.0, 0.1)
        pred = sudden_odd_prediction(model.resolved_basis(params(40), 0.0),
                                     model.resolved_basis(params(40), 0.1))
        assert rec.parity == pytest.approx(1.0 - 2.0 * pred, rel=1e-6)

    def test_measurement_rejects_orbitals_of_another_chain(self):
        state, basis = dynamics.initial_plus_state(params(6), 0.0)
        with pytest.raises(BasisMismatchError, match="orbitals"):
            dynamics.measure_leakage(state, model.resolved_basis(params(7), 0.0))
        # one orbital short: no reference of the basis has that count
        with pytest.raises(BasisMismatchError, match="orbitals"):
            dynamics.measure_leakage(state[:, :-1], basis)

    def test_rejects_non_topological(self):
        with pytest.raises(InvalidParameterError):
            sudden_quench(params(6), 0.0, 1.1)
        # the oracle's quench runs the same phase check before any basis resolve
        for quench in ((0.0, 1.1), (1.2, 0.0), (0.0, -1.5)):
            with pytest.raises(InvalidParameterError, match="outside the topological"):
                sudden_quench(params(3), *quench)
            with pytest.raises(InvalidParameterError, match="outside the topological"):
                fock_quench(params(3), *quench)


class TestOddLeakageAccuracy:
    @pytest.mark.parametrize("mu_fin, rate", [(0.01, 1e-4), (0.01, 7e-4), (0.03, 1e-4),
                                              (0.03, 7e-4)])
    def test_l_odd_matches_40_digits_on_the_same_orbitals(self, monkeypatch, mu_fin, rate):
        # near-adiabatic l_odd of 3e-9 to 1e-6 keeps its relative accuracy
        pytest.importorskip("mpmath")
        measure, seen = dynamics.measure_leakage, []

        def kept(state, basis, t=0.0):
            seen.append((state.copy(), basis))
            return measure(state, basis, t)

        monkeypatch.setattr(dynamics, "measure_leakage", kept)
        protocol = RampProtocol(0.0, mu_fin, rate)
        final = evolve_ramp(params(12), protocol, SteppingPolicy(max_dmu_per_step=3e-5),
                            sample_times=[protocol.duration])[-1]
        assert final.l_odd == pytest.approx(odd_leakage_mp(*seen[-1]), rel=1e-11, abs=0.0)
        assert final.parity == 1.0 - 2.0 * final.l_odd


class TestFockOracle:
    def test_sudden_quench_agreement(self):
        cov = sudden_quench(params(2), 0.0, 0.1)
        ork = fock_quench(params(2), 0.0, 0.1)
        assert abs(cov.l_odd - ork.l_odd) < 1e-8
        assert abs(cov.l_even - ork.l_even) < 1e-8
        assert abs(cov.l_g - ork.l_g) < 1e-8

    def test_norm_preserved(self):
        proto = RampProtocol(0.0, 0.1, 1e-2)
        [records] = fock_oracle(params(2), [proto], SteppingPolicy(max_dmu_per_step=0.1 / 200),
                                [np.linspace(0, proto.duration, 5)])
        assert max(r.purity_defect for r in records) < 1e-10

    def test_ramp_trajectory_agreement(self):
        proto = RampProtocol(0.0, 0.1, 1e-2)
        pol = SteppingPolicy(max_dmu_per_step=0.1 / 250)
        times = np.linspace(0, proto.duration, 6)
        cov = evolve_ramp(params(3), proto, pol, sample_times=times)
        [ork] = fock_oracle(params(3), [proto], pol, [times])
        for a, b in zip(cov, ork):
            assert abs(a.l_odd - b.l_odd) < 1e-6
            assert abs(a.l_even - b.l_even) < 1e-6
            assert abs(a.l_g - b.l_g) < 1e-6

    def test_total_parity_conserved(self):
        space = FockSpace(params(2))
        proto = RampProtocol(0.0, 0.1, 1e-2)
        vac, one, _ = space.ground_states(model.resolved_basis(params(2), 0.0))
        x = np.stack((vac, one), axis=1)[:, None]
        start = total_parity(params(2), two_chain_state(x[:, 0]))
        dt = proto.duration / 100
        x = space.advance(x, np.array([[proto.mu_at(i * dt)] for i in range(100)]), [dt])
        assert total_parity(params(2), two_chain_state(x[:, 0])) == pytest.approx(start, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_dense_two_chain_evolution(self, n):
        # the same grid and dt with the dense H(mu), |+> and readout of the
        # test-side operators: checks the factorisation end to end.  The
        # records cannot see the sign of |1>, which lies in other chain-parity
        # sectors than |0>, and no test checks it: no readout of |+> depends on
        # it, and test_fock_ground_states_match_dense_quasiparticle_states
        # matches |1> = one x one only up to that sign
        chain = ChainParams(n, W, 0.9 * W)
        pol = SteppingPolicy(max_dmu_per_step=0.1 / 40)
        protocols = [RampProtocol(0.0, mu_fin, v) for mu_fin in (0.1, 0.05, -0.08)
                     for v in (1e-2, 0.2)]
        times = [np.linspace(0.0, p.duration, 5) for p in protocols]
        outcomes = fock_oracle(chain, protocols, pol, times)

        def ground(mu):
            basis = model.resolved_basis(chain, mu)
            return (*dense_ground_states(chain, basis), dense_mzm_parity(chain, basis))

        for protocol, ts, records in zip(protocols, times, outcomes):
            sample_ts, mus = dynamics.sample_points(protocol, ts)
            grid, counts = dynamics._path_steps(mus, pol.resolved_dmu(mus[-1] - mus[0]))
            vac, one, _ = ground(mus[0])
            psi = (vac + one) / np.sqrt(2.0)
            assert len(records) == len(sample_ts)
            for k, record in enumerate(records):
                if k:
                    dt = (sample_ts[k] - sample_ts[k - 1]) / (counts[k] - counts[k - 1])
                    for mu in grid[counts[k - 1]:counts[k]]:
                        psi = dense_fock_step(chain, psi, mu, dt)
                vac, one, parity_op = ground(mus[k])
                parity = (psi.conj() @ parity_op @ psi).real
                l_g = 1.0 - abs(vac @ psi) ** 2 - abs(one @ psi) ** 2
                assert (record.t, record.mu) == (sample_ts[k], mus[k])
                expected = {"l_odd": 0.5 * (1.0 - parity), "l_g": l_g, "parity": parity,
                            "l_even": l_g - 0.5 * (1.0 - parity),
                            "purity_defect": abs(np.linalg.norm(psi) - 1.0)}
                for field, value in expected.items():
                    assert abs(getattr(record, field) - value) < 1e-12, (field, k)

    @pytest.mark.parametrize("n, w, delta", [(5, 0.5, 0.7), (6, 1.0, 0.8)])
    def test_matches_evolve_ramps_up_to_the_cap(self, n, w, delta):
        # beyond criterion 1's N <= 3, where the orbital readout meets larger
        # Grams; rising and falling ramps at three rates, 200 steps per 0.25.
        # Measured: largest difference 9.8e-14 at N = 5 and 5.3e-14 at N = 6.
        chain = ChainParams(n, w, delta)
        protocols = ramps([0.3, -0.2], (1e-2, 0.1, 1.0), mu_in=0.05)
        pol = SteppingPolicy(max_dmu_per_step=0.25 / 200)
        times = [np.linspace(0.0, p.duration, 6) for p in protocols]
        covs = evolve_ramps(chain, protocols, pol, times)
        orks = fock_oracle(chain, protocols, pol, times)
        for cov, ork in zip(covs, orks, strict=True):
            assert cov.n_steps == ork.n_steps == 200
            assert len(cov) == len(ork) == 6
            for a, b in zip(cov, ork):
                assert (a.t, a.mu) == (b.t, b.mu)
                for field in ("l_odd", "l_even", "l_g"):
                    assert abs(getattr(a, field) - getattr(b, field)) < 1e-10, (a.t, field)

    def test_size_limit(self):
        too_long = params(dynamics.MAX_ORACLE_SITES + 1)
        with pytest.raises(InvalidParameterError, match="n_sites <= 6"):
            fock_quench(too_long, 0.0, 0.1)
        with pytest.raises(InvalidParameterError, match="n_sites <= 6"):
            fock_oracle(too_long, [RampProtocol(0.0, 0.1, 1e-2)])

    def test_rejects_ramps_it_cannot_step_together(self):
        protocols = [RampProtocol(0.0, 0.1, 1e-2), RampProtocol(0.0, 0.05, 1e-2)]
        for evolve in (evolve_ramps, fock_oracle):
            with pytest.raises(InvalidParameterError, match="one mu_in"):
                evolve(params(2), protocols + [RampProtocol(0.05, 0.1, 1e-2)])
            with pytest.raises(InvalidParameterError, match="sample times for 2 ramps"):
                evolve(params(2), protocols, sample_times=[[1.0]])
            assert evolve(params(2), []) == []

    def test_returns_what_evolve_ramps_returns(self):
        # one schedule: the same step counts, and a Richardson row per ramp
        pol = SteppingPolicy(max_dmu_per_step=0.1 / 60, richardson=True)
        protocols = ramps([0.1], (1e-2, 5e-2, 0.2)) + [RampProtocol(0.0, 0.05, 0.1)]
        times = [np.linspace(0.0, p.duration, 6) for p in protocols]
        covs = evolve_ramps(params(3), protocols, pol, times)
        orks = fock_oracle(params(3), protocols, pol, times)
        assert [ork.n_steps for ork in orks] == [cov.n_steps for cov in covs] == [60] * 3 + [30]
        for cov, ork in zip(covs, orks):
            assert ork.richardson_defect > 0.0
            assert ork.richardson_defect == pytest.approx(cov.richardson_defect, rel=1e-6)

    def test_norm_defect_above_purity_tol_fails_the_ramp(self, monkeypatch):
        proto = RampProtocol(0.0, 0.1, 1e-2)
        args = ([proto], SteppingPolicy(max_dmu_per_step=0.1 / 60),
                [np.linspace(0.0, proto.duration, 6)])
        [records] = fock_oracle(params(3), *args)
        worst = records.max_purity_defect
        assert worst > 0.0
        monkeypatch.setattr(dynamics, "PURITY_TOL", worst / 2)
        [failed] = fock_oracle(params(3), *args)
        assert isinstance(failed, StepSizeTooCoarse)
        assert "exceeds tolerance %g" % (worst / 2) in str(failed)

    def test_both_engines_run_one_schedule(self, monkeypatch):
        # a second copy of the segment loop would not pass through _evolve_lockstep
        lockstep, calls = dynamics._evolve_lockstep, []

        def counted(*args):
            calls.append(None)
            return lockstep(*args)

        monkeypatch.setattr(dynamics, "_evolve_lockstep", counted)
        proto = RampProtocol(0.0, 0.1, 1e-2)
        evolve_ramps(params(2), [proto])
        assert len(calls) == 1
        fock_oracle(params(2), [proto])
        assert len(calls) == 2

    def test_a_list_equals_each_ramp_alone(self):
        # rows share |+> and the ground states of each sample mu, nothing that
        # could change a record
        pol = SteppingPolicy(max_dmu_per_step=0.1 / 60)
        protocols = [RampProtocol(0.0, 0.1, v) for v in (1e-2, 5e-2, 0.2)]
        protocols.append(RampProtocol(0.0, 0.05, 0.1))
        times = [np.linspace(0.0, p.duration, 6) for p in protocols[:3]] + [[0.1, 0.25]]
        together = fock_oracle(params(3), protocols, pol, times)
        assert [len(records) for records in together] == [6, 6, 6, 4]
        for ramp, ts, records in zip(protocols, times, together):
            assert records == fock_oracle(params(3), [ramp], pol, [ts])[0]


class TestBatches:
    """A segment's steps are decomposed in batches; their size cannot move a bit."""

    # three rates, nested mu_fins on both sides of mu_in, Richardson on: rows leave
    # the stack mid-run, and segments of 4 to 24 steps split unevenly at 5 a batch
    PROTOCOLS = ramps((0.05, 0.1, -0.03), (1e-2, 0.1, 1.0), mu_in=0.0)
    POLICY = SteppingPolicy(max_dmu_per_step=0.1 / 120, richardson=True)

    def run(self, evolve, n, steps_per_batch, monkeypatch):
        """The outcomes at a cap of ``steps_per_batch`` orbital (or oracle row-) steps."""
        if steps_per_batch is not None:
            size = n * n if evolve is evolve_ramps else 4 ** n
            monkeypatch.setattr(dynamics, "BATCH_FLOATS", steps_per_batch * size)
        times = [np.linspace(0.0, p.duration, 11) for p in self.PROTOCOLS]
        return evolve(params(n), self.PROTOCOLS, self.POLICY, times)

    @pytest.mark.parametrize("evolve, n", [(evolve_ramps, 3), (evolve_ramps, 12),
                                           (fock_oracle, 2), (fock_oracle, 3)])
    def test_batch_size_moves_no_bit(self, monkeypatch, evolve, n):
        reference = self.run(evolve, n, None, monkeypatch)
        assert all(isinstance(out, dynamics.Trajectory) for out in reference)
        for steps_per_batch in (1, 5):
            outcomes = self.run(evolve, n, steps_per_batch, monkeypatch)
            for traj, ref in zip(outcomes, reference, strict=True):
                assert list(traj) == list(ref)
                assert (traj.n_steps, traj.richardson_defect) == (ref.n_steps,
                                                                  ref.richardson_defect)

    def test_caps_split_segments_as_intended(self, monkeypatch):
        # at N = 3 the default cap takes each segment in one stack; a cap of 5
        # steps splits the longer ones into full batches and a shorter rest
        stacks = {}
        chain_eigh = dynamics.chain_eigh

        def counted(params, mus):
            stacks[cap].append(len(mus))
            return chain_eigh(params, mus)

        monkeypatch.setattr(dynamics, "chain_eigh", counted)
        for cap in (None, 5, 1):
            stacks[cap] = []
            self.run(evolve_ramps, 3, cap, monkeypatch)
        assert sum(stacks[None]) == sum(stacks[5]) == sum(stacks[1]) > 0
        assert max(stacks[None]) > 5 and len(stacks[None]) < len(stacks[5])
        assert max(stacks[5]) == 5 and min(stacks[5]) < 5
        assert set(stacks[1]) == {1}


class TestOracleTotalParity:
    def test_plus_keeps_its_sectors_and_total_parity_through_a_ramp(self, monkeypatch):
        # segments of 40 steps in batches of 3: at every sample E and O lie in
        # opposite chain-parity sectors, exactly, and |+>'s total parity holds
        monkeypatch.setattr(dynamics, "BATCH_FLOATS", 3 * 4 ** 3)
        chain = ChainParams(3, W, 0.8 * W)
        space = FockSpace(chain)
        parity = np.prod([np.diag(np.eye(8) - 2.0 * cj.T @ cj) for cj in space.c], axis=0)
        measure, states = FockSpace.measure, []

        def recorded(self, x, reference, t):
            states.append(x.copy())
            return measure(self, x, reference, t)

        monkeypatch.setattr(FockSpace, "measure", recorded)
        protocols = [RampProtocol(0.0, 0.1, 1e-2), RampProtocol(0.0, -0.1, 0.3)]
        times = [np.linspace(0.0, p.duration, 6) for p in protocols]
        outcomes = fock_oracle(chain, protocols, SteppingPolicy(max_dmu_per_step=0.1 / 200),
                               times)
        assert all(isinstance(out, dynamics.Trajectory) for out in outcomes)
        assert len(states) == 1 + 2 * 5
        start = total_parity(chain, two_chain_state(states[0]))
        assert abs(start) == pytest.approx(1.0, abs=1e-12)
        for x in states:
            homes = []
            for state in x.T:
                home = parity[np.argmax(np.abs(state))]
                assert np.all(state[parity != home] == 0.0)
                homes.append(home)
            assert homes[0] == -homes[1]
            assert abs(total_parity(chain, two_chain_state(x)) - start) <= 1e-10
