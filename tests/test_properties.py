"""Property tests on random chains: the real Majorana-basis maps, the mode-frame step,
the orbital measurement against its covariance reference, and the Fock oracle."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tetronsim.analytics import mzm_overlap
from tetronsim.dynamics import (
    MAX_ORACLE_SITES,
    FockSpace,
    SteppingPolicy,
    _chain_propagator,
    _mode_step,
    evolve_ramp,
    evolve_ramps,
    fock_oracle,
    initial_plus_state,
    measure_leakage,
    sample_points,
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
    basis_vectors,
    build_chain_bdg,
    chain_svd,
    chain_parities,
    covariance_leakage,
    dense_fock_step,
    dense_ground_states,
    dense_mzm_parity,
    dense_propagator,
    jordan_wigner,
    mzm_vectors,
    orientation,
    qp_annihilator,
    reflected,
    reference_fock_hamiltonian,
    rotate_to_site_basis,
    rotation,
    total_parity_op,
    two_chain_state,
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
    [lam], [q] = chain_eigh(params, [mu])
    z = _identity_frames(n, len(dts))
    _mode_step(z, q, np.array([_chain_propagator(lam, dt) for dt in dts]))
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
    expected = np.repeat(np.eye(2 * n)[None], len(dts), axis=0)
    for mu, step_dts in zip(mus, dts.T):
        [lam], [q] = chain_eigh(params, [mu])
        _mode_step(w, q, np.array([_chain_propagator(lam, dt) for dt in step_dts]))
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
    v = basis_vectors(basis)
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
    state = q @ state
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
@given(st.integers(2, 12), st.floats(0.2, 1.0), st.floats(0.7, 1.4), st.floats(-0.5, 0.5),
       st.floats(-0.5, 0.5), st.floats(-4.0, 0.5))
def test_leakage_is_not_negative_on_either_engine(n, w, delta_ratio, ratio_in, ratio_fin,
                                                  log_rate):
    """l_odd, l_even and l_g >= 0 at every sample of a rising or falling ramp, to rounding.

    Each is a sum of squares or a loss 1 - F^2 with F <= 1; the oracle runs at N <= 6.
    """
    params = ChainParams(n, w, w * delta_ratio)
    mu_in, mu_fin = w * ratio_in, w * ratio_fin
    protocol = RampProtocol(mu_in, mu_fin, 10.0 ** log_rate)
    policy = SteppingPolicy(max_dmu_per_step=max(abs(mu_fin - mu_in), 1e-3) / 40)
    times = [np.linspace(0.0, protocol.duration, 5)]
    engines = [evolve_ramps] + ([fock_oracle] if n <= MAX_ORACLE_SITES else [])
    for evolve in engines:
        [records] = evolve(params, [protocol], policy, times)
        assert isinstance(records, list), records
        for field in ("l_odd", "l_even", "l_g"):
            assert min(getattr(r, field) for r in records) >= -1e-13, (evolve, field)


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
    state = q @ state
    basis = resolved_basis(params, w * ratio_fin)
    record, reference = measure_leakage(state, basis), covariance_leakage(state, basis)
    for field in ("l_odd", "l_even", "l_g", "parity"):
        assert abs(getattr(record, field) - getattr(reference, field)) < 1e-12, field


@PROPERTY
@given(st.sampled_from([2, 3]), st.floats(0.1, 1.0), st.floats(0.1, 1.0),
       st.floats(-2.0, 2.0))
def test_fock_hamiltonian_is_real_linear_and_parity_even(n, w, delta, mu):
    # one chain's h(mu) is the tetron's H(mu) = h x 1 + 1 x h
    params = ChainParams(n, w, delta)
    h = FockSpace(params).hamiltonian(mu)
    eye = np.eye(2 ** n)
    chain_parity = np.diag(one_chain_parity(n))
    p = total_parity_op(params)
    assert h.dtype == np.float64 and p.dtype == np.float64
    assert np.array_equal(h, h.T)
    assert np.max(np.abs(np.kron(h, eye) + np.kron(eye, h)
                         - reference_fock_hamiltonian(params, mu))) < 1e-13
    assert np.array_equal(p, np.kron(chain_parity, chain_parity))
    assert np.max(np.abs(h @ chain_parity - chain_parity @ h)) < 1e-13


def one_chain_parity(n):
    """One chain's fermion parity prod_j (1 - 2 n_j) on each of its basis states."""
    occupation = np.array([np.diag(a.T @ a) for a in jordan_wigner(n)])
    return np.prod(1.0 - 2.0 * occupation, axis=0)


def random_state(dim, seed, support=None):
    """A random normalised complex state, zero off the boolean ``support`` if given."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if support is not None:
        psi[~support] = 0.0
    return psi / np.linalg.norm(psi)


@PROPERTY
@given(st.sampled_from([2, 3]), st.floats(0.1, 1.0), st.floats(0.1, 1.0),
       st.floats(-2.0, 2.0), st.floats(1e-3, 5.0), st.integers(0, 2 ** 32 - 1))
def test_blocked_fock_step_matches_dense_eigh(n, w, delta, mu, dt, seed):
    # U x U of one chain's U on (|E>|E> + |O>|O>)/sqrt(2), two rows with their own mu and dt
    params = ChainParams(n, w, delta)
    x = np.array([random_state(2 ** n, seed + k) for k in range(4)]).T.reshape(2 ** n, 2, 2)
    stepped = FockSpace(params).advance(x, np.array([[mu, -0.5 * mu]]), [dt, 0.3 * dt])
    assert stepped.shape == x.shape
    for row, (row_mu, row_dt) in enumerate([(mu, dt), (-0.5 * mu, 0.3 * dt)]):
        expected = dense_fock_step(params, two_chain_state(x[:, row]), row_mu, row_dt)
        assert np.max(np.abs(two_chain_state(stepped[:, row]) - expected)) < 1e-13


def chain_parity_sectors(params):
    """Each two-chain basis state's chain-parity sector, 0 to 3, from the test-side operators."""
    odd = chain_parities(params) < 0.0
    return 2 * odd[0] + odd[1]


@PROPERTY
@given(st.sampled_from([2, 3]), st.floats(0.2, 1.0), st.floats(0.7, 1.4),
       st.floats(-0.5, 0.5), st.floats(-1.9, 1.9), st.floats(1e-3, 5.0))
def test_fock_step_of_plus_leaves_its_empty_sectors_zero(n, w, delta_ratio, mu_ratio,
                                                         step_mu_ratio, dt):
    # |+> occupies two of the four chain-parity sectors, and U conserves each chain's parity
    params = ChainParams(n, w, w * delta_ratio)
    space = FockSpace(params)
    vac, one, _ = space.ground_states(resolved_basis(params, w * mu_ratio))
    x = np.stack((vac, one), axis=1)
    psi = two_chain_state(x)
    sector = chain_parity_sectors(params)
    empty = np.array([np.all(psi[sector == s] == 0.0) for s in range(4)])
    assert np.count_nonzero(empty) == 2
    stepped = two_chain_state(space.advance(x[:, None], np.array([[w * step_mu_ratio]]),
                                            [dt])[:, 0])
    assert np.all(stepped[np.isin(sector, np.flatnonzero(empty))] == 0.0)
    assert np.max(np.abs(stepped - dense_fock_step(params, psi, w * step_mu_ratio, dt))) < 1e-13


class ParityBreakingFockSpace(FockSpace):
    """Adds a field on the chain's first Majorana, c_1 + c_1^dag, which flips its parity."""

    def _terms(self):
        h0, h1 = super()._terms()
        c1 = jordan_wigner(self.params.n_sites)[0]
        return h0 + c1 + c1.T, h1


@pytest.mark.parametrize("n", [2, 3])
def test_fock_space_rejects_coupling_between_sectors(n):
    # only a chain Hamiltonian that conserves the chain's parity gives H = h x 1 + 1 x h
    with pytest.raises(InvalidParameterError, match="sectors"):
        ParityBreakingFockSpace(ChainParams(n, 0.5, 0.5))


@pytest.mark.parametrize("n", [2, 3])
def test_fock_sectors_split_by_chain_parity(n):
    # vac x vac and one x one lie each in one chain-parity sector, and not the same one
    params = ChainParams(n, 0.5, 0.4)
    vac, one, _ = FockSpace(params).ground_states(resolved_basis(params, 0.05))
    sector = chain_parity_sectors(params)
    homes = []
    for state in (np.kron(vac, vac), np.kron(one, one)):
        weight = np.array([np.sum(np.abs(state[sector == s]) ** 2) for s in range(4)])
        home = int(np.argmax(weight))
        assert weight[home] == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.delete(weight, home) == 0.0)
        homes.append(home)
    assert homes[0] != homes[1]


@PROPERTY
@given(st.sampled_from([2, 3]), st.floats(0.2, 1.0), st.floats(0.7, 1.4),
       st.floats(-0.5, 0.5))
def test_fock_ground_states_match_dense_quasiparticle_states(n, w, delta_ratio, mu_ratio):
    # |0> = vac x vac, and |1> = d_{0,1}^dag d_{0,2}^dag |0> = one x one up to the sign
    # of chain 2's string, which no readout of |+> sees
    params = ChainParams(n, w, w * delta_ratio)
    basis = resolved_basis(params, w * mu_ratio)
    vac, one, _ = FockSpace(params).ground_states(basis)
    dense_vac, _ = dense_ground_states(params, basis)
    pair_vac, pair_one = np.kron(vac, vac), np.kron(one, one)
    vac_sign = np.sign(dense_vac @ pair_vac)
    assert np.max(np.abs(pair_vac - vac_sign * dense_vac)) < 1e-13
    d1 = qp_annihilator(params, basis_vectors(basis)[:, 0], 0)
    d2 = qp_annihilator(params, basis_vectors(basis)[:, 0], 1)
    expected = d1.T @ (d2.T @ pair_vac)
    expected /= np.linalg.norm(expected)
    one_sign = np.sign(expected @ pair_one)
    assert abs(one_sign) == 1.0
    assert np.max(np.abs(pair_one - one_sign * expected)) < 1e-13


@PROPERTY
@given(st.sampled_from([2, 3]), st.floats(0.2, 1.0), st.floats(0.7, 1.4),
       st.floats(-0.5, 0.5), st.integers(0, 2 ** 32 - 1))
def test_fock_parity_matches_dense_parity_operator(n, w, delta_ratio, mu_ratio, seed):
    # random E and O in opposite chain-parity sectors, read as the dense |+> is
    params = ChainParams(n, w, w * delta_ratio)
    space = FockSpace(params)
    basis = resolved_basis(params, w * mu_ratio)
    e_sector = one_chain_parity(n) > 0.0
    if seed % 2:
        e_sector = ~e_sector
    x = np.stack((random_state(2 ** n, seed, e_sector),
                  random_state(2 ** n, seed + 1, ~e_sector)), axis=1)
    psi = two_chain_state(x)
    parity = (psi.conj() @ (dense_mzm_parity(params, basis) @ psi)).real
    dense_vac, dense_one = dense_ground_states(params, basis)
    l_g = 1.0 - abs(dense_vac @ psi) ** 2 - abs(dense_one @ psi) ** 2
    record = space.measure(x, (basis, space.ground_states(basis)), 0.0)
    assert abs(record.parity - parity) < 1e-13
    assert abs(record.l_odd - 0.5 * (1.0 - parity)) < 1e-13
    assert abs(record.l_g - l_g) < 1e-13
    assert abs(record.purity_defect - abs(np.linalg.norm(psi) - 1.0)) < 1e-13


@PROPERTY
@given(st.sampled_from([2, 3]), st.floats(0.2, 1.0), st.floats(0.7, 1.4),
       st.floats(-0.5, 0.5))
def test_ground_state_parity_matrix_matches_dense_majorana_product(n, w, delta_ratio,
                                                                   mu_ratio):
    # the chain's Pi gives the tetron's MZM parity Pi x Pi
    params = ChainParams(n, w, w * delta_ratio)
    basis = resolved_basis(params, w * mu_ratio)
    _, _, parity = FockSpace(params).ground_states(basis)
    assert np.max(np.abs(np.kron(parity, parity) - dense_mzm_parity(params, basis))) < 1e-13


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]), st.floats(0.2, 1.0), st.floats(0.7, 1.4),
       st.floats(0.05, 0.5), st.sampled_from([-1.0, 1.0]), st.floats(1e-3, 1.0))
def test_covariance_matches_fock_oracle(n, w, delta_ratio, mu_ratio, sign, v):
    params = ChainParams(n, w, w * delta_ratio)
    protocol = RampProtocol(0.0, sign * w * mu_ratio, v)
    policy = SteppingPolicy(max_dmu_per_step=w * mu_ratio / 200)
    times = np.linspace(0.0, protocol.duration, 5)
    cov = evolve_ramp(params, protocol, policy, sample_times=times)
    [ork] = fock_oracle(params, [protocol], policy, [times])
    assert len(cov) == len(ork) == len(times)
    for a, b in zip(cov, ork):
        for field in ("l_odd", "l_even", "l_g"):
            assert abs(getattr(a, field) - getattr(b, field)) < ORACLE_TOLERANCE


@pytest.mark.parametrize("w, delta", [(0.5, 0.5), (0.3, 0.4), (1.0, 0.8), (0.5, 0.7)])
@pytest.mark.parametrize("n", [2, 3, 12])
def test_mu_mirror_ramp_leaks_alike(n, w, delta):
    # c_j -> (-1)^j c_j^dag maps H(mu) to H(-mu) plus a constant, and the step
    # grid and sample mus of -mu_in -> -mu_fin are those of mu_in -> mu_fin
    # negated, so the two ramps leak alike at every sample.  Rising and falling
    # ramps, 400 steps each; the oracle's readout carries absolute rounding.
    chain = ChainParams(n, w, delta)
    engines = [(evolve_ramps, 1e-12, 1e-15)]
    if n <= MAX_ORACLE_SITES:
        engines.append((fock_oracle, 0.0, 1e-12))
    for mu_in, mu_fin, v in [(0.0, 0.03, 1e-3), (0.0, 0.1, 2e-2), (0.05, -0.2, 0.3),
                             (0.1, 0.3, 1.0)]:
        ramp, mirror = RampProtocol(mu_in, mu_fin, v), RampProtocol(-mu_in, -mu_fin, v)
        policy = SteppingPolicy(max_dmu_per_step=abs(mu_fin - mu_in) / 400)
        times = [np.linspace(0.0, ramp.duration, 6)]
        for evolve, rel, abs_tol in engines:
            [records] = evolve(chain, [ramp], policy, times)
            [mirrored] = evolve(chain, [mirror], policy, times)
            if isinstance(records, Exception):  # (2, 0.3, 0.4) has no isolated MZM at 0.3
                assert type(mirrored) is type(records)
                continue
            assert [r.n_steps for r in (records, mirrored)] == [400, 400]
            for a, b in zip(records, mirrored, strict=True):
                assert (b.t, b.mu) == (a.t, -a.mu)
                for field in ("l_odd", "l_even", "l_g"):
                    x, y = getattr(a, field), getattr(b, field)
                    assert abs(x - y) <= rel * abs(x) + abs_tol, (mu_in, mu_fin, a.t, field)


@pytest.mark.parametrize("n", range(2, MAX_ORACLE_SITES + 1))
def test_fock_space_structure_up_to_the_cap(n):
    # without the 4^N reference: h is symmetric and keeps the chain's parity,
    # and vac and one are each the isolated lowest state of h in their sector
    parity = one_chain_parity(n)
    for w, delta in [(0.5, 0.5), (0.5, 0.7), (1.0, 0.8)]:
        params = ChainParams(n, w, delta)
        space = FockSpace(params)
        for mu in (-0.2, 0.0, 0.05, 0.3):
            h = space.hamiltonian(mu)
            assert np.array_equal(h, h.T)
            assert np.all(h[parity[:, None] != parity[None, :]] == 0.0)
            vac, one, _ = space.ground_states(resolved_basis(params, mu))
            homes = []
            for state in (vac, one):
                sector = parity == parity[np.argmax(np.abs(state))]
                assert np.all(state[~sector] == 0.0)
                evals, evecs = np.linalg.eigh(h[np.ix_(sector, sector)])
                # measured: gap >= 0.45 and 1 - overlap <= 3.1e-15 over these cases
                assert evals[1] - evals[0] > 0.1, (w, delta, mu)
                assert 1.0 - abs(evecs[:, 0] @ state[sector]) ** 2 < 1e-12, (w, delta, mu)
                homes.append(parity[np.argmax(np.abs(state))])
            assert homes[0] == -homes[1]


@pytest.mark.parametrize("n", [3, 12, 40])
def test_mzm_continuity_between_samples(n):
    # the zero mode moves smoothly along a ramp: alpha = |v_0 . v_0'| of the
    # bases at consecutive samples (200 equal mu steps) stays near 1, on
    # rising and falling ramps, and no gauge choice of v_0 or u_0 changes it.
    # Measured over these cases: the largest 1 - alpha is 2.2e-6.
    for w, delta in [(0.5, 0.5), (0.3, 0.4), (1.0, 0.8), (0.5, 0.7)]:
        chain = ChainParams(n, w, delta)
        for mu_in, mu_fin in [(0.0, 0.1), (0.05, -0.2), (0.1, 0.3)]:
            _, mus = sample_points(RampProtocol(mu_in, mu_fin, 1e-2))
            assert len(mus) == 201
            bases = [resolved_basis(chain, mu) for mu in mus]
            for a, b in zip(bases, bases[1:]):
                alpha = mzm_overlap(a, b)
                assert 1.0 - alpha <= 1e-4, (w, delta, mu_in, mu_fin, a.mu)
                v = b.v.copy(order="K")  # the same layout sums the dot product alike
                v[:, 0] *= -1.0
                for gauge in (reflected(b), replace(b, v=v)):
                    assert mzm_overlap(a, gauge) == alpha
                    assert abs(mzm_overlap(gauge, a) - alpha) <= 1e-15
