import numpy as np
import pytest

from tetronsim.analytics import sudden_even_prediction, sudden_prediction
from tetronsim.dynamics import (
    FockSpace,
    SteppingPolicy,
    evolve_ramp,
    fock_oracle,
    sudden_quench,
)
from tetronsim.errors import InvalidParameterError
from tetronsim.model import ChainParams, RampProtocol

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

    def test_even_leakage_matches_closed_form(self):
        rec = sudden_quench(params(40), 0.0, 0.03)
        predicted = sudden_even_prediction(40, 0.03)
        assert predicted == pytest.approx(4.275e-3)
        assert rec.l_even == pytest.approx(predicted, rel=0.10)

    def test_odd_leakage_matches_overlap_product(self):
        rec = sudden_quench(params(40), 0.0, 0.03)
        pred = sudden_prediction(params(40), 0.0, 0.03).l_odd_tilde
        assert rec.l_odd == pytest.approx(pred, rel=0.01)

    def test_parity_after_quench_matches_overlap_product(self):
        # the measured MZM parity equals the product of the four MZM overlaps
        rec = sudden_quench(params(40), 0.0, 0.1)
        pred = sudden_prediction(params(40), 0.0, 0.1)
        assert rec.parity == pytest.approx(1.0 - 2.0 * pred.l_odd_tilde, rel=1e-6)

    def test_rejects_non_topological(self):
        with pytest.raises(InvalidParameterError):
            sudden_quench(params(6), 0.0, 1.1)


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
        start = space.total_parity(psi)
        dt = proto.duration / 100
        for i in range(100):
            evals, q = np.linalg.eigh(space.hamiltonian(proto.mu_at(i * dt)))
            psi = q @ (np.exp(-1j * evals * dt) * (q.conj().T @ psi))
        assert space.total_parity(psi) == pytest.approx(start, abs=1e-10)

    def test_size_limit(self):
        with pytest.raises(InvalidParameterError):
            fock_oracle(params(4), quench=(0.0, 0.1))

    def test_exactly_one_mode(self):
        with pytest.raises(InvalidParameterError):
            fock_oracle(params(2))
        with pytest.raises(InvalidParameterError):
            fock_oracle(params(2), protocol=RampProtocol(0.0, 0.1, 1e-2), quench=(0.0, 0.1))
