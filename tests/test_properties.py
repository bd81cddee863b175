"""Property tests of the real Majorana-basis maps on random topological chains."""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tetronsim.dynamics import _chain_propagator
from tetronsim.gaussian import (
    CovarianceMatrix,
    majorana_rotation,
    rotate_to_qp_basis,
    rotate_to_site_basis,
)
from tetronsim.model import ChainParams, _chain_matrix, resolved_basis

# derandomize keeps the suite reproducible run to run
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def topological_chains(draw, resolvable=False):
    """(params, mu) inside the topological phase |mu| < 2|w|.

    With resolvable=True, stay where the near-zero pair is cleanly separated
    from the bulk, so a mode basis with localized MZMs exists.
    """
    n = draw(st.integers(2, 8))
    w = draw(st.floats(0.2, 1.0))
    if resolvable:
        delta = w * draw(st.floats(0.7, 1.4))
        mu = w * draw(st.floats(-0.5, 0.5))
    else:
        delta = draw(st.floats(0.2, 1.0))
        mu = w * draw(st.floats(-1.9, 1.9))
    return ChainParams(n, w, delta), mu


def orthogonality_defect(o):
    return float(np.max(np.abs(o @ o.T - np.eye(o.shape[0]))))


@PROPERTY
@given(topological_chains(), st.floats(1e-3, 5.0))
def test_propagator_is_real_orthogonal_exponential(chain, dt):
    params, mu = chain
    o = _chain_propagator(params, mu, dt)
    assert o.dtype == np.float64
    assert orthogonality_defect(o) < 1e-12
    n2 = 2 * params.n_sites
    omega = majorana_rotation(params.n_sites)[:n2, :n2]
    exact = omega.conj() @ scipy.linalg.expm(1j * _chain_matrix(params, mu) * dt) @ omega.T
    assert np.max(np.abs(o - exact)) < 1e-11


@PROPERTY
@given(topological_chains(resolvable=True))
def test_basis_rotation_is_orthogonal(chain):
    params, mu = chain
    r = resolved_basis(params, mu).rotation
    assert r.dtype == np.float64
    assert orthogonality_defect(r) < 1e-12


@PROPERTY
@given(topological_chains(resolvable=True), st.integers(0, 2 ** 32 - 1))
def test_rotations_round_trip(chain, seed):
    params, mu = chain
    basis = resolved_basis(params, mu)
    x = np.random.default_rng(seed).normal(size=(4 * params.n_sites,) * 2)
    m = CovarianceMatrix(x - x.T, basis="site", n_sites=params.n_sites)
    back = rotate_to_site_basis(rotate_to_qp_basis(m, basis), basis)
    assert back.basis == "site"
    assert np.max(np.abs(back.matrix - m.matrix)) < 1e-11
