"""An exact anchor: at N = 2 a ramp from mu = 0 is the half Landau-Zener problem.

One chain of two sites has an odd sector {|10>, |01>} whose Hamiltonian does
not depend on mu, and an even sector {|00>, |11>} with H = [[mu, Delta],
[Delta, -mu]].  A ramp mu = v t from the crossing at mu = 0 leaves the odd
ground state in place and drives the even one through half a Landau-Zener
sweep.  With F the even-sector survival probability at the end,

    l_g = (1 - F^2) / 2,   l_odd = F (1 - F).

The amplitude c_1 of |00> obeys c_1'' + (v^2 t^2 + Delta^2 + i v) c_1 = 0,
Weber's equation: with nu = -i Delta^2 / (2 v) and a = sqrt(2 v) e^{i pi/4},
c_1 = A D_nu(a t) + B D_nu(-a t), and A, B follow from c_1(0) and c_1'(0).
The parabolic cylinder function D_nu is ``mpmath.pcfd``, so the reference
shares no numerics with :mod:`tetronsim.dynamics` (Zener, Proc. R. Soc. A
137, 696 (1932); Vitanov & Garraway, Phys. Rev. A 53, 4288 (1996)).
"""

import numpy as np
import pytest

from tetronsim.dynamics import SteppingPolicy, evolve_ramp
from tetronsim.model import ChainParams, RampProtocol

mpmath = pytest.importorskip("mpmath")

DELTA = 0.5
STEPS = (400, 800, 1600, 3200)


def half_lz_survival(rate: float, mu_fin: float, delta: float = DELTA) -> float:
    """F = |<g(mu_fin)|psi(T)>|^2 for psi(0) the ground state of [[0, Delta], [Delta, 0]]."""
    with mpmath.workdps(30):
        nu = -1j * mpmath.mpf(delta) ** 2 / (2 * mpmath.mpf(rate))
        a = mpmath.sqrt(2 * mpmath.mpf(rate)) * mpmath.expjpi(mpmath.mpf(1) / 4)

        def d(z):
            return mpmath.pcfd(nu, z)

        def d_prime(z):
            return z / 2 * mpmath.pcfd(nu, z) - mpmath.pcfd(nu + 1, z)

        # psi(0) = (1, -1)/sqrt(2), so c_1(0) = 1/sqrt(2) and c_1'(0) = -i Delta c_2(0)
        plus = 1 / (mpmath.sqrt(2) * d(0))
        minus = 1j * delta / (mpmath.sqrt(2) * a * d_prime(0))
        coef_a, coef_b = (plus + minus) / 2, (plus - minus) / 2
        t = mpmath.mpf(mu_fin) / rate
        c1 = coef_a * d(a * t) + coef_b * d(-a * t)
        c1_prime = a * (coef_a * d_prime(a * t) - coef_b * d_prime(-a * t))
        c2 = (1j * c1_prime - rate * t * c1) / delta
        # ground state of [[mu, Delta], [Delta, -mu]], energy -sqrt(mu^2 + Delta^2)
        g1, g2 = delta, -(mu_fin + mpmath.sqrt(mu_fin ** 2 + delta ** 2))
        return float(abs(g1 * c1 + g2 * c2) ** 2 / (g1 ** 2 + g2 ** 2))


def test_survival_at_the_sudden_and_adiabatic_limits():
    # a fast ramp barely moves the state: F is its overlap with the final ground state
    e = np.hypot(0.1, DELTA)
    sudden = (DELTA + 0.1 + e) ** 2 / (2 * (DELTA ** 2 + (0.1 + e) ** 2))
    assert half_lz_survival(1e4, 0.1) == pytest.approx(sudden, rel=1e-6)
    assert half_lz_survival(1e-4, 0.1) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("rate, mu_fin, bound", [(1e-2, 0.1, 1e-6), (1.0, 0.5, 3e-9)])
def test_n2_ramp_is_the_half_landau_zener_problem(rate, mu_fin, bound):
    f = half_lz_survival(rate, mu_fin)
    exact = {"l_g": 0.5 * (1.0 - f * f), "l_odd": f * (1.0 - f)}
    protocol = RampProtocol(0.0, mu_fin, rate)
    errors, defects = [], []
    for steps in STEPS:
        policy = SteppingPolicy(max_dmu_per_step=mu_fin / steps, richardson=True)
        records = evolve_ramp(ChainParams(2, 0.5, DELTA), protocol, policy,
                              sample_times=[protocol.duration])
        end = records[-1]
        errors.append({k: abs(getattr(end, k) - v) / v for k, v in exact.items()})
        defects.append(records.richardson_defect)
    for k in exact:
        assert errors[-1][k] < bound, k
        # the left-endpoint rule is second order: 4x less error per halving
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.9 < coarse[k] / fine[k] < 4.1, k
    # the Richardson defect |l_g(n) - l_g(2n)| / l_g(2n) is 3/4 of the true error
    for error, defect in zip(errors, defects):
        assert 1.3 < error["l_g"] / defect < 1.37
