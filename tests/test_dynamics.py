from dataclasses import replace

import numpy as np
import pytest

from tetronsim import dynamics, model
from tetronsim.analytics import sudden_even_prediction, sudden_odd_prediction
from tetronsim.dynamics import (
    FockSpace,
    PlusState,
    SteppingPolicy,
    evolve_ramp,
    evolve_rates,
    fock_oracle,
    sudden_quench,
)
from tetronsim.errors import (
    BasisMismatchError,
    DegenerateSubspaceError,
    InvalidParameterError,
    StepSizeTooCoarse,
)
from tetronsim.experiments import ORACLE_TOLERANCE, config_from_mapping, run_experiment
from tetronsim.model import ChainParams, RampProtocol

from reference import total_parity

W = 0.5


def params(n):
    return ChainParams(n, W, W)


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
        assert len(fock_oracle(params(2), protocol=still)) == 1

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

    @pytest.mark.parametrize("field", ["max_dmu_per_step", "purity_tol"])
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
            assert defect == pytest.approx(ref.richardson_defect, rel=1e-9)
            assert defect > 0.0

    def test_rates_match_fock_oracle(self):
        pol = SteppingPolicy(max_dmu_per_step=0.1 / 200)
        rates = (1e-2, 5e-2, 0.2)
        shared = evolve_rates(params(3), 0.0, 0.1, rates, pol)
        for v, traj in zip(rates, shared):
            proto = RampProtocol(0.0, 0.1, v)
            ork = fock_oracle(params(3), protocol=proto, policy=pol,
                              sample_times=[proto.duration])[-1]
            assert [r.t for r in traj] == [0.0, proto.duration]
            assert abs(traj[-1].l_odd - ork.l_odd) < ORACLE_TOLERANCE
            assert abs(traj[-1].l_even - ork.l_even) < ORACLE_TOLERANCE
        assert evolve_rates(params(3), 0.0, 0.1, [], pol) == []

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


class TestSharedWork:
    """Work done once and shared: the t = 0 record of a group, a sample's SVD."""

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
        shared = evolve_rates(params(6), 0.0, 0.1, RATES, pol)
        assert len(calls) == (2 if richardson else 1) * (len(RATES) + 1)
        for traj, ref in zip(shared, one_by_one):
            assert traj[0] == initial
            assert list(traj) == list(ref)
            assert traj.richardson_defect == ref.richardson_defect

    def test_initial_purity_failure_stops_every_rate(self, monkeypatch):
        measure = dynamics.measure_leakage

        def spoiled(state, basis, t=0.0):
            record = measure(state, basis, t)
            return replace(record, purity_defect=1.0) if t == 0.0 else record

        monkeypatch.setattr(dynamics, "measure_leakage", spoiled)
        outcomes = evolve_rates(params(6), 0.0, 0.1, RATES, SteppingPolicy())
        assert len(outcomes) == len(RATES)
        assert all(isinstance(out, StepSizeTooCoarse) for out in outcomes)

    def test_sampled_ramp_takes_one_svd_per_step_and_one_more(self, monkeypatch):
        proto = RampProtocol(0.0, 0.1, 5e-3)
        pol = SteppingPolicy(max_dmu_per_step=0.1 / 90)
        samples = np.linspace(0.0, proto.duration, 11)
        # each step but a segment's first takes one eigh of J S (model.chain_eigh),
        # and each sample basis one more; no SVD is taken
        eigh, svd, propagator = np.linalg.eigh, np.linalg.svd, dynamics._chain_propagator
        counts = {"eigh": 0, "svd": 0, "steps": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
        monkeypatch.setattr(dynamics, "_chain_propagator", counted("steps", propagator))
        records = evolve_ramp(params(8), proto, pol, sample_times=samples)
        assert len(records) == len(samples)
        assert counts["steps"] >= 90
        assert counts["eigh"] == counts["steps"] + 1
        assert counts["svd"] == 0


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
            dynamics.measure_leakage(PlusState(state.orbitals[:, :-1]), basis)

    def test_rejects_non_topological(self):
        with pytest.raises(InvalidParameterError):
            sudden_quench(params(6), 0.0, 1.1)
        # the oracle's quench runs the same phase check before any basis resolve
        for quench in ((0.0, 1.1), (1.2, 0.0), (0.0, -1.5)):
            with pytest.raises(InvalidParameterError, match="outside the topological"):
                sudden_quench(params(3), *quench)
            with pytest.raises(InvalidParameterError, match="outside the topological"):
                fock_oracle(params(3), quench=quench)


class TestFockOracle:
    def test_sudden_quench_agreement(self):
        cov = sudden_quench(params(2), 0.0, 0.1)
        ork = fock_oracle(params(2), quench=(0.0, 0.1))[-1]
        assert abs(cov.l_odd - ork.l_odd) < 1e-8
        assert abs(cov.l_even - ork.l_even) < 1e-8
        assert abs(cov.l_g - ork.l_g) < 1e-8

    def test_norm_preserved(self):
        proto = RampProtocol(0.0, 0.1, 1e-2)
        records = fock_oracle(params(2), protocol=proto,
                              policy=SteppingPolicy(max_dmu_per_step=0.1 / 200),
                              sample_times=np.linspace(0, proto.duration, 5))
        assert max(r.purity_defect for r in records) < 1e-10

    def test_ramp_trajectory_agreement(self):
        proto = RampProtocol(0.0, 0.1, 1e-2)
        pol = SteppingPolicy(max_dmu_per_step=0.1 / 250)
        times = np.linspace(0, proto.duration, 6)
        cov = evolve_ramp(params(3), proto, pol, sample_times=times)
        ork = fock_oracle(params(3), protocol=proto, policy=pol, sample_times=times)
        for a, b in zip(cov, ork):
            assert abs(a.l_odd - b.l_odd) < 1e-6
            assert abs(a.l_even - b.l_even) < 1e-6
            assert abs(a.l_g - b.l_g) < 1e-6

    def test_total_parity_conserved(self):
        space = FockSpace(params(2))
        proto = RampProtocol(0.0, 0.1, 1e-2)
        from tetronsim.model import resolved_basis

        basis = resolved_basis(params(2), 0.0)
        vac, one, _ = space.ground_states(basis)
        psi = (vac + one) / np.sqrt(2)
        start = total_parity(space, psi)
        dt = proto.duration / 100
        for i in range(100):
            evals, q = np.linalg.eigh(space.hamiltonian(proto.mu_at(i * dt)))
            psi = q @ (np.exp(-1j * evals * dt) * (q.conj().T @ psi))
        assert total_parity(space, psi) == pytest.approx(start, abs=1e-10)

    def test_shared_space_gives_the_same_records(self):
        proto = RampProtocol(0.0, 0.1, 1e-2)
        pol = SteppingPolicy(max_dmu_per_step=0.1 / 100)
        times = np.linspace(0, proto.duration, 4)
        space = FockSpace(params(2))
        for kwargs in ({"quench": (0.0, 0.1)},
                       {"protocol": proto, "policy": pol, "sample_times": times}):
            shared = fock_oracle(params(2), space=space, **kwargs)
            assert shared == fock_oracle(params(2), **kwargs)
        with pytest.raises(InvalidParameterError, match="Fock space"):
            fock_oracle(params(3), quench=(0.0, 0.1), space=space)

    def test_size_limit(self):
        with pytest.raises(InvalidParameterError):
            fock_oracle(params(4), quench=(0.0, 0.1))

    def test_exactly_one_mode(self):
        with pytest.raises(InvalidParameterError):
            fock_oracle(params(2))
        with pytest.raises(InvalidParameterError):
            fock_oracle(params(2), protocol=RampProtocol(0.0, 0.1, 1e-2), quench=(0.0, 0.1))
