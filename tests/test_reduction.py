"""The orbital form of |+> against the 4N tetron covariance.

The two chains are identical and uncoupled, so |+> evolves as
(|E>|E> + |O>|O>)/sqrt(2) and :mod:`tetronsim.dynamics` measures it from the
occupied orbitals of E and O.  Here each step is the dense propagator O of
:mod:`reference`, cleaned to its orthogonal polar factor: it steps the full
4N covariance of |+>, built in :mod:`reference` and measured with the tetron
parity Pfaffian and overlaps of :mod:`tetronsim.gaussian`, and the orbitals
take the N x N unitary W that D O D realifies, D = diag(I, J).  Every sample
must agree.  The 4N covariance is rotated and stepped with the dense
block-diagonal products diag(R, R) and diag(O, O).  Each sample is also read
in the basis with u_0 flipped (the sign of lambda_0 reversed), whose
orientation is the opposite one, so the tetron references trade places
whatever signs LAPACK gives the zero singular vectors.
"""

import numpy as np
import pytest
import scipy.linalg

from tetronsim.dynamics import (
    PlusState,
    _step_mus,
    initial_plus_state,
    measure_leakage,
    sudden_quench,
)
from tetronsim.gaussian import (
    QP,
    CovarianceMatrix,
    covariance_from_correlation,
    overlap_sq,
    parity_expectation,
)
from tetronsim.model import ChainParams, RampProtocol, chain_s, resolved_basis

from reference import (
    QubitStateLabel,
    dense_propagator,
    ground_state_qp_correlation,
    mode_frame_unitary,
    orientation,
    qp_occupied_pair_covariance,
    qp_vacuum_covariance,
    reflected,
    rotation,
)

FIELDS = ("l_odd", "l_even", "l_g", "parity")


def tetron_plus_state(basis):
    """Site-basis 4N covariance of |+>, built from its correlation matrix."""
    plus = covariance_from_correlation(
        ground_state_qp_correlation(basis.params.n_sites, QubitStateLabel.PLUS))
    r = np.kron(np.eye(2), rotation(basis))
    return r.T @ plus.matrix @ r


def tetron_leakage(state, basis):
    """Leakage split of a 4N site-basis covariance from the tetron Pfaffian and overlaps."""
    n = basis.params.n_sites
    r = np.kron(np.eye(2), rotation(basis))
    xi = CovarianceMatrix(r @ state @ r.T, basis=QP, n_sites=n)
    parity = parity_expectation(xi)
    l_odd = 0.5 * (1.0 - parity)
    l_g = (1.0 - overlap_sq(xi, qp_vacuum_covariance(n))
           - overlap_sq(xi, qp_occupied_pair_covariance(n)))
    return {"l_odd": l_odd, "l_even": l_g - l_odd, "l_g": l_g, "parity": parity}


def assert_agree(state, tetron, basis, t=0.0):
    """Chain and tetron forms agree in ``basis`` and in its reflection."""
    assert orientation(reflected(basis)) == -orientation(basis)
    for b in (basis, reflected(basis)):
        record = measure_leakage(state, b, t)
        reference = tetron_leakage(tetron, b)
        for field in FIELDS:
            assert abs(getattr(record, field) - reference[field]) < 1e-12, field


@pytest.mark.parametrize("n, pairing, mu_fin, rate", [
    (3, 0.5, 0.1, 1e-2),
    (12, 0.5, 0.1, 5e-3),
    (12, 0.3, 0.08, 2e-3),
    (40, 0.5, 0.03, 1e-3),
])
def test_ramp_matches_tetron_covariance(n, pairing, mu_fin, rate):
    params = ChainParams(n, 0.5, pairing)
    proto = RampProtocol(0.0, mu_fin, rate)
    samples = np.linspace(0.0, proto.duration, 9)
    mus = [proto.mu_at(t) for t in samples]
    dmu = mu_fin / 160
    state, basis = initial_plus_state(params, mus[0])
    tetron = tetron_plus_state(basis)
    assert_agree(state, tetron, basis)
    for k in range(len(samples) - 1):
        grid = _step_mus(mus[k], mus[k + 1], dmu)
        dt = (samples[k + 1] - samples[k]) / len(grid)
        for mu in grid:
            o, _ = scipy.linalg.polar(dense_propagator(np.linalg.svd(chain_s(params, mu)), dt))
            state = PlusState(mode_frame_unitary(o) @ state.orbitals)
            o2 = np.kron(np.eye(2), o)
            tetron = o2 @ tetron @ o2.T
        basis = resolved_basis(params, mus[k + 1])
        assert_agree(state, tetron, basis, t=float(samples[k + 1]))
    # the final sample has leaked, so the comparison is not of zeros
    assert measure_leakage(state, basis).l_g > 1e-6


@pytest.mark.parametrize("n, pairing, mu_fin", [(3, 0.5, 0.1), (40, 0.5, 0.03),
                                                (12, 0.3, 0.08)])
def test_sudden_quench_matches_tetron_covariance(n, pairing, mu_fin):
    # with OpenBLAS 0.3.31 the N=3 and N=40 quenches end in a basis of the
    # opposite orientation; the reflection covers the other case either way
    params = ChainParams(n, 0.5, pairing)
    state, basis_in = initial_plus_state(params, 0.0)
    basis_fin = resolved_basis(params, mu_fin)
    assert_agree(state, tetron_plus_state(basis_in), basis_fin)
    assert sudden_quench(params, 0.0, mu_fin) == measure_leakage(state, basis_fin)
