"""Property tests on random chains: the real Majorana-basis maps, the mode-frame step,
the orbital measurement against its covariance reference, and the Fock oracle."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tetronsim.dynamics import (
    FockSpace,
    PlusState,
    SteppingPolicy,
    _chain_propagator,
    _mode_step,
    evolve_ramp,
    fock_oracle,
    initial_plus_state,
    measure_leakage,
)
from tetronsim.errors import InvalidParameterError
from tetronsim.experiments import ORACLE_TOLERANCE
from tetronsim.gaussian import CovarianceMatrix, majorana_rotation, rotate_to_qp_basis
from tetronsim.model import (
    ChainParams,
    ModeBasis,
    RampProtocol,
    _modes_by_energy,
    chain_eigh,
    chain_s,
    resolved_basis,
)

from reference import (
    _chain_matrix,
    _identity_frames,
    _real_propagators,
    build_chain_bdg,
    chain_svd,
    covariance_leakage,
    dense_propagator,
    mzm_vectors,
    orientation,
    reflected,
    rotate_to_site_basis,
    rotation,
    total_parity_op,
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
    o = dense_propagator(np.linalg.svd(chain_s(params, mu)), dt)
    assert o.dtype == np.float64
    assert orthogonality_defect(o) < 1e-12
    # Pf(O M O^T) = det(O) Pf(M): a proper rotation conserves total fermion parity
    assert abs(np.linalg.det(o) - 1.0) < 1e-12
    n2 = 2 * params.n_sites
    omega = majorana_rotation(params.n_sites)[:n2, :n2]
    exact = omega.conj() @ scipy.linalg.expm(1j * _chain_matrix(params, mu) * dt) @ omega.T
    assert np.max(np.abs(o - exact)) < 1e-11


@PROPERTY
@given(topological_chains(resolvable=True))
def test_basis_rotation_is_orthogonal(chain):
    params, mu = chain
    r = rotation(resolved_basis(params, mu))
    assert r.dtype == np.float64
    assert orthogonality_defect(r) < 1e-12


@PROPERTY
@given(topological_chains(resolvable=True), st.integers(0, 2 ** 32 - 1))
def test_rotations_round_trip(chain, seed):
    params, mu = chain
    basis = resolved_basis(params, mu)
    x = np.random.default_rng(seed).normal(size=(2,) + (2 * params.n_sites,) * 2)
    m = CovarianceMatrix(x - x.swapaxes(1, 2), basis="site", n_sites=params.n_sites)
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


@st.composite
def any_chains(draw, max_sites=60):
    """(params, mu) with 2 to ``max_sites`` sites, w = Delta or not, mu = 0 or not, any phase."""
    n = draw(st.integers(2, max_sites))
    w = draw(st.floats(0.2, 1.0))
    delta = draw(st.one_of(st.just(w), st.floats(0.2, 1.0)))
    mu = draw(st.one_of(st.just(0.0), st.floats(-2.5, 2.5).map(lambda x: x * w)))
    return ChainParams(n, w, delta), mu


@PROPERTY
@given(any_chains())
def test_chain_s_is_persymmetric(chain):
    js = chain_s(*chain)[::-1]
    assert np.array_equal(js, js.T)


@PROPERTY
@given(any_chains())
def test_chain_svd_factors_s(chain):
    params, mu = chain
    s = chain_s(params, mu)
    u, sig, v = chain_svd(params, mu)
    assert orthogonality_defect(u) < 1e-13
    assert orthogonality_defect(v) < 1e-13
    assert np.all(sig >= 0.0)
    assert np.all(np.diff(sig) >= 0.0)
    assert np.max(np.abs((u * sig) @ v.T - s)) < 1e-13 * np.linalg.norm(s)


@pytest.mark.parametrize("n", [3, 40, 100])
@pytest.mark.parametrize("delta", [0.5, 0.3])
@pytest.mark.parametrize("mu", [0.0, 0.03, -0.2])
@pytest.mark.parametrize("dt", [0.05, 5.0])
def test_chain_svd_propagator_matches_lapack_svd(n, delta, mu, dt):
    params = ChainParams(n, 0.5, delta)
    u, sig, v = chain_svd(params, mu)
    o = dense_propagator((u, sig, v.T), dt)
    reference = dense_propagator(np.linalg.svd(chain_s(params, mu)), dt)
    assert np.max(np.abs(o - reference)) < 1e-13


@settings(max_examples=25, deadline=None, derandomize=True)
@given(any_chains(max_sites=100), st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=4))
def test_mode_frame_step_is_the_dense_propagator(chain, dts):
    """One mode-frame step of a batch of rates, from the identity, gives each rate's O."""
    params, mu = chain
    n = params.n_sites
    lam, q = chain_eigh(params, mu)
    z = _identity_frames(n, len(dts))
    _mode_step(z, q, np.array([_chain_propagator(lam, dt) for dt in dts]), np.empty_like(z))
    svd = np.linalg.svd(chain_s(params, mu))
    omega = majorana_rotation(n)[:2 * n, :2 * n]
    for o, dt in zip(_real_propagators(z), dts):
        assert o.dtype == np.float64
        assert np.max(np.abs(o - dense_propagator(svd, dt))) < 1e-13
        exact = omega.conj() @ scipy.linalg.expm(1j * _chain_matrix(params, mu) * dt) @ omega.T
        assert np.max(np.abs(o - exact)) < 1e-11
        assert orthogonality_defect(o) < 1e-12
        assert abs(np.linalg.det(o) - 1.0) < 1e-12


@st.composite
def step_sequences(draw):
    """(params, mus, dts): two or three distinct mu, and each rate's dt at each of them."""
    params, _ = draw(any_chains(max_sites=100))
    n_steps, n_rates = draw(st.integers(2, 3)), draw(st.integers(1, 4))
    ratios = draw(st.lists(st.floats(-2.5, 2.5), min_size=n_steps, max_size=n_steps,
                           unique=True))
    dts = draw(st.lists(st.lists(st.floats(1e-3, 5.0), min_size=n_steps, max_size=n_steps),
                        min_size=n_rates, max_size=n_rates))
    return params, [r * params.hopping for r in ratios], np.array(dts)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(step_sequences())
def test_mode_frame_steps_compose_as_dense_propagators(steps):
    """Mode-frame steps at different mu, each rate with its own dts, give the dense product.

    One step from the identity gives a complex symmetric W, which cannot tell
    W from W^T; steps that do not commute give W_k ... W_1, whose transpose is
    the product in the other order.
    """
    params, mus, dts = steps
    n = params.n_sites
    w = _identity_frames(n, len(dts))
    work = np.empty_like(w)
    expected = np.repeat(np.eye(2 * n)[None], len(dts), axis=0)
    for mu, step_dts in zip(mus, dts.T):
        lam, q = chain_eigh(params, mu)
        _mode_step(w, q, np.array([_chain_propagator(lam, dt) for dt in step_dts]), work)
        svd = np.linalg.svd(chain_s(params, mu))
        expected = np.array([dense_propagator(svd, dt) @ o for dt, o in zip(step_dts, expected)])
    assert np.max(np.abs(_real_propagators(w) - expected)) < 1e-12


@PROPERTY
@given(any_chains())
def test_orientation_is_the_sign_of_det_u_det_v(chain):
    basis = ModeBasis(*chain, *_modes_by_energy(*chain))
    u, _, v = chain_svd(*chain)
    assert np.array_equal(basis.u, u) and np.array_equal(basis.v, v)
    for b in (basis, reflected(basis)):
        assert orientation(b) == np.sign(np.linalg.det(b.u) * np.linalg.det(b.v))
    assert orientation(reflected(basis)) == -orientation(basis)


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
    for gamma in mzm_vectors(resolved_basis(params, mu)):
        assert np.linalg.norm(gamma) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(ph_image(gamma) - gamma)) < 1e-15


@PROPERTY
@given(topological_chains(resolvable=True), st.integers(0, 2 ** 32 - 1))
def test_leakage_ignores_zero_mode_reflection(chain, seed):
    """Flipping u_0 or v_0 alone reflects the zero-mode plane of R.

    It reverses the basis orientation and leaves the modes, as orbitals,
    where they were: no measured number may move.
    """
    params, mu = chain
    n = params.n_sites
    state, basis = initial_plus_state(params, mu)
    # the orbitals rotated a little: a zero-mode sign that entered would show
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q = scipy.linalg.expm(0.1 / np.sqrt(n) * (x - x.conj().T))
    state = PlusState(q @ state.orbitals)
    ref = measure_leakage(state, basis)
    # u = J v sign(lambda): the sign of lambda_0 flips u_0, with v_0 as well it flips v_0
    v = basis.v.copy()
    v[:, 0] *= -1.0
    for flipped in (reflected(basis), replace(reflected(basis), v=v)):
        rec = measure_leakage(state, flipped)
        for field in ("l_odd", "l_even", "l_g", "parity"):
            assert abs(getattr(rec, field) - getattr(ref, field)) < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 120), st.floats(0.2, 1.0), st.floats(0.7, 1.4), st.floats(-0.5, 0.5),
       st.floats(-5.0, 0.0))
def test_even_leakage_is_not_negative(n, w, delta_ratio, mu_ratio, log_rate):
    """l_even >= 0 on each sample of a ramp, to rounding.

    Per chain state the ground-state loss is 1 - F^2 >= 2 n_0 (1 - n_0), the
    state's share of l_odd, with n_0 its zero-mode occupation.
    """
    params = ChainParams(n, w, w * delta_ratio)
    protocol = RampProtocol(0.0, w * mu_ratio, 10.0 ** log_rate)
    policy = SteppingPolicy(max_dmu_per_step=max(abs(w * mu_ratio), 1e-3) / 50)
    times = np.linspace(0.0, protocol.duration, 4)
    records = evolve_ramp(params, protocol, policy, sample_times=times)
    assert min(r.l_even for r in records) >= -1e-14


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 40), st.floats(0.2, 1.0), st.floats(0.7, 1.4), st.floats(-0.5, 0.5),
       st.floats(-0.5, 0.5), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_orbital_measurement_is_the_covariance_measurement(n, w, delta_ratio, ratio_in,
                                                           ratio_fin, scale, seed):
    """|+> at mu_in moved by a random unitary reads the same from its orbitals and covariances."""
    params = ChainParams(n, w, w * delta_ratio)
    state, _ = initial_plus_state(params, w * ratio_in)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    # a small rotation keeps l_g spread over (1e-3, 1), not pinned at 1
    q = scipy.linalg.expm(0.3 * scale / np.sqrt(n) * (x - x.conj().T))
    state = PlusState(q @ state.orbitals)
    basis = resolved_basis(params, w * ratio_fin)
    record, reference = measure_leakage(state, basis), covariance_leakage(state, basis)
    for field in ("l_odd", "l_even", "l_g", "parity"):
        assert abs(getattr(record, field) - getattr(reference, field)) < 1e-12, field


def reference_fock_hamiltonian(params, mu):
    """Complex Jordan-Wigner operators and H(mu) summed term by term.

    Returns (H, total parity) built as the oracle did before H = H0 + mu H1.
    """
    n = params.n_sites
    n_modes = 2 * n
    dim = 2 ** n_modes
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    zmat = np.diag([1.0, -1.0]).astype(complex)
    eye2 = np.eye(2, dtype=complex)
    c = []
    for j in range(n_modes):
        ops = [zmat] * j + [lower] + [eye2] * (n_modes - j - 1)
        mat = ops[0]
        for op in ops[1:]:
            mat = np.kron(mat, op)
        c.append(mat)
    cdag = [m.conj().T for m in c]
    parity = np.eye(dim, dtype=complex)
    for j in range(n_modes):
        parity = parity @ (np.eye(dim) - 2.0 * cdag[j] @ c[j])
    w, delta = params.hopping, params.pairing
    h = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(dim)
    for off in (0, n):
        for j in range(n):
            h += -mu * (cdag[off + j] @ c[off + j] - 0.5 * eye)
        for j in range(n - 1):
            h += -w * (cdag[off + j] @ c[off + j + 1] + cdag[off + j + 1] @ c[off + j])
            h += delta * (c[off + j] @ c[off + j + 1] + cdag[off + j + 1] @ cdag[off + j])
    return h, parity


@PROPERTY
@given(st.sampled_from([2, 3]), st.floats(0.1, 1.0), st.floats(0.1, 1.0),
       st.floats(-2.0, 2.0))
def test_fock_hamiltonian_is_real_linear_and_parity_even(n, w, delta, mu):
    params = ChainParams(n, w, delta)
    space = FockSpace(params)
    h = space.hamiltonian(mu)
    ref_h, ref_parity = reference_fock_hamiltonian(params, mu)
    p = total_parity_op(space)
    assert h.dtype == np.float64 and p.dtype == np.float64
    assert np.array_equal(h, h.T)
    assert np.max(np.abs(h - ref_h)) < 1e-13
    assert np.array_equal(p, ref_parity.real)
    assert np.max(np.abs(h @ p - p @ h)) < 1e-13


def dense_fock_step(space, psi, mu, dt):
    """One oracle step with a dense eigh of the full Fock-space H(mu)."""
    evals, q = np.linalg.eigh(space.hamiltonian(mu))
    return q @ (np.exp(-1j * evals * dt) * (q.T @ psi))


def dense_mzm_parity(space, basis):
    """The MZM parity -g1 g2 g3 g4 as one dense Fock-space matrix."""
    d1 = space.qp_annihilator(basis.vectors[:, 0], 0)
    d2 = space.qp_annihilator(basis.vectors[:, 0], 1)
    return (d1 + d1.T) @ (d1 - d1.T) @ (d2 + d2.T) @ (d2 - d2.T)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


@PROPERTY
@given(st.sampled_from([2, 3]), st.floats(0.1, 1.0), st.floats(0.1, 1.0),
       st.floats(-2.0, 2.0), st.floats(1e-3, 5.0), st.integers(0, 2 ** 32 - 1))
def test_blocked_fock_step_matches_dense_eigh(n, w, delta, mu, dt, seed):
    space = FockSpace(ChainParams(n, w, delta))
    psi = random_state(space.dim, seed)
    assert np.max(np.abs(space.step(psi, mu, dt) - dense_fock_step(space, psi, mu, dt))) < 1e-13


class ChainCoupledFockSpace(FockSpace):
    """Hops across the junction of the two chains, breaking each chain's parity."""

    def _bonds(self):
        n = self.params.n_sites
        return super()._bonds() + [(n - 1, n)]


@pytest.mark.parametrize("n", [2, 3])
def test_fock_space_rejects_coupling_between_sectors(n):
    with pytest.raises(InvalidParameterError, match="sectors"):
        ChainCoupledFockSpace(ChainParams(n, 0.5, 0.5))


@pytest.mark.parametrize("n", [2, 3])
def test_fock_sectors_split_by_chain_parity(n):
    space = FockSpace(ChainParams(n, 0.5, 0.4))
    sectors = space.sectors
    assert sectors.shape == (4, 4 ** (n - 1))
    assert np.array_equal(np.sort(sectors, axis=None), np.arange(space.dim))
    basis = resolved_basis(space.params, 0.05)
    vac, one, _ = space.ground_states(basis)
    homes = []
    for state in (vac, one):
        weight = np.sum(np.abs(state[sectors]) ** 2, axis=1)
        home = int(np.argmax(weight))
        assert weight[home] == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.delete(weight, home) == 0.0)
        homes.append(home)
    assert homes[0] != homes[1]


@PROPERTY
@given(st.sampled_from([2, 3]), st.floats(0.2, 1.0), st.floats(0.7, 1.4),
       st.floats(-0.5, 0.5), st.integers(0, 2 ** 32 - 1))
def test_fock_parity_matches_dense_parity_operator(n, w, delta_ratio, mu_ratio, seed):
    space = FockSpace(ChainParams(n, w, w * delta_ratio))
    basis = resolved_basis(space.params, w * mu_ratio)
    psi = random_state(space.dim, seed)
    expected = (psi.conj() @ (dense_mzm_parity(space, basis) @ psi)).real
    assert abs(space.measure(psi, basis, t=0.0).parity - expected) < 1e-13


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]), st.floats(0.2, 1.0), st.floats(0.7, 1.4),
       st.floats(0.05, 0.5), st.sampled_from([-1.0, 1.0]), st.floats(1e-3, 1.0))
def test_covariance_matches_fock_oracle(n, w, delta_ratio, mu_ratio, sign, v):
    params = ChainParams(n, w, w * delta_ratio)
    protocol = RampProtocol(0.0, sign * w * mu_ratio, v)
    policy = SteppingPolicy(max_dmu_per_step=w * mu_ratio / 200)
    times = np.linspace(0.0, protocol.duration, 5)
    cov = evolve_ramp(params, protocol, policy, sample_times=times)
    ork = fock_oracle(params, protocol=protocol, policy=policy, sample_times=times)
    assert len(cov) == len(ork) == len(times)
    for a, b in zip(cov, ork):
        for field in ("l_odd", "l_even", "l_g"):
            assert abs(getattr(a, field) - getattr(b, field)) < ORACLE_TOLERANCE
