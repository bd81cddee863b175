"""Property tests of the real Majorana-basis maps on random topological chains."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tetronsim.dynamics import _chain_propagator, measure_leakage
from tetronsim.gaussian import (
    CovarianceMatrix,
    majorana_rotation,
    qp_vacuum_covariance,
    rotate_to_qp_basis,
    rotate_to_site_basis,
)
from tetronsim.model import (
    ChainParams,
    _chain_matrix,
    build_chain_bdg,
    chain_s,
    resolved_basis,
)

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


def ph_image(x):
    """tau_x K applied to the columns of a single-chain matrix or vector."""
    n = x.shape[0] // 2
    return np.concatenate([x[n:], x[:n]]).conj()


@PROPERTY
@given(topological_chains())
def test_chain_s_is_the_a_plus_b_slice(chain):
    params, mu = chain
    n = params.n_sites
    h = build_chain_bdg(params, mu).matrix
    assert chain_s(params, mu).tobytes() == (h[:n, :n] + h[:n, n:]).tobytes()


@PROPERTY
@given(topological_chains(resolvable=True))
def test_basis_vectors_are_unitary_ph_paired_eigenvectors(chain):
    params, mu = chain
    n = params.n_sites
    basis = resolved_basis(params, mu)
    v = basis.vectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(2 * n))) < 1e-12
    assert np.max(np.abs(v[:, n:] - ph_image(v[:, :n]))) < 1e-15
    energies = np.concatenate([basis.energies, -basis.energies])
    h = build_chain_bdg(params, mu).matrix
    assert np.max(np.abs((v * energies) @ v.conj().T - h)) < 1e-10


@PROPERTY
@given(topological_chains(resolvable=True))
def test_mzm_vectors_are_ph_invariant(chain):
    params, mu = chain
    for gamma in resolved_basis(params, mu).mzm_vectors:
        assert np.linalg.norm(gamma) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(ph_image(gamma) - gamma)) < 1e-15


@PROPERTY
@given(topological_chains(resolvable=True), st.integers(0, 2 ** 32 - 1))
def test_leakage_ignores_zero_mode_reflection(chain, seed):
    """Flipping u_0 or v_0 reflects the zero-mode plane of R on both chains.

    The parity Pfaffian is unchanged and the vacuum and occupied-pair overlaps
    trade places, so no measured number may move.
    """
    params, mu = chain
    n = params.n_sites
    basis = resolved_basis(params, mu)
    # a vacuum rotated a little: the two overlaps differ, so a swap would show
    x = np.random.default_rng(seed).normal(size=(4 * n,) * 2)
    q = scipy.linalg.expm(0.1 / np.sqrt(n) * (x - x.T))
    vacuum = rotate_to_site_basis(qp_vacuum_covariance(n), basis)
    state = replace(vacuum, matrix=q @ vacuum.matrix @ q.T)
    ref = measure_leakage(state, basis)
    for name in ("u", "v"):
        flipped = getattr(basis, name).copy()
        flipped[:, 0] *= -1.0
        rec = measure_leakage(state, replace(basis, **{name: flipped}))
        for field in ("l_odd", "l_even", "l_g", "parity"):
            assert abs(getattr(rec, field) - getattr(ref, field)) < 1e-12
