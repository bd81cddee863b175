from dataclasses import replace

import numpy as np
import pytest

from tetronsim.errors import BasisMismatchError, InvalidParameterError
from tetronsim.gaussian import (
    CovarianceMatrix,
    covariance_from_correlation,
    overlap_sq,
    parity_expectation,
    pfaffian4,
    rotate_to_qp_basis,
)
from tetronsim.model import ChainParams, resolved_basis

from reference import (
    QubitStateLabel,
    antisymmetry_defect,
    correlation_purity_defect,
    ground_state_qp_correlation,
    hermiticity_defect,
    qp_chain_references,
    qp_occupied_pair_covariance,
    qp_vacuum_covariance,
    rotate_to_site_basis,
    rotation,
)


def tetron_basis(n, mu):
    return resolved_basis(ChainParams(n, 0.5, 0.5), mu)


class TestStateConstruction:
    def test_vacuum_has_no_quasiparticles(self):
        for n in (2, 3, 7):
            ups = ground_state_qp_correlation(n, QubitStateLabel.ZERO)
            occ = np.concatenate([np.diag(ups.matrix)[:n], np.diag(ups.matrix)[2 * n:3 * n]])
            assert np.max(np.abs(occ)) == 0.0

    def test_one_state_occupations(self):
        n = 3
        ups = ground_state_qp_correlation(n, "one")
        diag = np.diag(ups.matrix).real
        # exactly the zero mode of each chain is occupied
        assert diag[0] == 1.0 and diag[2 * n] == 1.0
        assert np.sum(diag[:n]) == 1.0 and np.sum(diag[2 * n:3 * n]) == 1.0

    def test_plus_state_spectrum(self):
        ups = ground_state_qp_correlation(2, QubitStateLabel.PLUS)
        assert hermiticity_defect(ups) < 1e-14
        evals = np.linalg.eigvalsh(ups.matrix)
        dist = np.min(np.abs(evals[:, None] - np.array([0.0, 0.5, 1.0])[None, :]), axis=1)
        assert np.max(dist) < 1e-12

    def test_plus_state_is_pure(self):
        ups = ground_state_qp_correlation(4, QubitStateLabel.PLUS)
        assert correlation_purity_defect(ups) < 1e-12


def plus_covariance(n):
    return covariance_from_correlation(ground_state_qp_correlation(n, "plus"))


def antisymmetric_stack(n, seed):
    """A (2, 2N, 2N) stack of random real antisymmetric matrices in the qp basis."""
    x = np.random.default_rng(seed).normal(size=(2, 2 * n, 2 * n))
    return CovarianceMatrix(x - x.swapaxes(1, 2), basis="qp", n_sites=n)


class TestRotations:
    def test_eigenvalues_preserved(self):
        basis = tetron_basis(4, 0.1)
        stack = antisymmetric_stack(4, 31)
        site = rotate_to_site_basis(stack, basis)
        # i M is Hermitian for real antisymmetric M
        ev_in = np.sort(np.linalg.eigvalsh(1j * stack.matrix))
        ev_out = np.sort(np.linalg.eigvalsh(1j * site.matrix))
        assert np.max(np.abs(ev_in - ev_out)) < 1e-10

    def test_round_trip(self):
        basis = tetron_basis(3, 0.2)
        stack = antisymmetric_stack(3, 37)
        back = rotate_to_qp_basis(rotate_to_site_basis(stack, basis), basis)
        assert np.max(np.abs(back.matrix - stack.matrix)) < 1e-10

    def test_identity_rotation(self):
        from tetronsim.model import ModeBasis

        n = 3
        # V = I gives U = J V = J: R = diag(I, J) only reverses the second block
        basis = ModeBasis(params=ChainParams(n, 0.5, 0.5), mu=0.0, energies=np.zeros(n),
                          signs=np.ones(n), v=np.eye(n))
        refs = qp_chain_references(n)
        site = rotate_to_site_basis(refs, basis)
        assert site.basis == "site"
        flip = np.r_[:n, 2 * n - 1:n - 1:-1]
        assert np.max(np.abs(site.matrix - refs.matrix[:, flip][:, :, flip])) == 0.0

    def test_dimension_mismatch(self):
        basis = tetron_basis(3, 0.2)
        with pytest.raises(BasisMismatchError):
            rotate_to_site_basis(plus_covariance(4), basis)


class TestCovariance:
    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_reference_covariances_match_loop_build(self, n):
        vacuum = np.zeros((4 * n, 4 * n))
        for off in (0, 2 * n):
            for i in range(n):
                vacuum[off + i, off + n + i] = 1.0
                vacuum[off + n + i, off + i] = -1.0
        pair = vacuum.copy()
        for off in (0, 2 * n):
            pair[off, off + n] = -1.0
            pair[off + n, off] = 1.0
        assert qp_vacuum_covariance(n).matrix.tobytes() == vacuum.tobytes()
        assert qp_occupied_pair_covariance(n).matrix.tobytes() == pair.tobytes()

    def test_vacuum_block_pattern(self):
        n = 3
        m = covariance_from_correlation(ground_state_qp_correlation(n, "zero"))
        expected = qp_vacuum_covariance(n).matrix
        assert np.max(np.abs(m.matrix - expected)) < 1e-12
        # each mode pair carries a [[0, 1], [-1, 0]] block
        assert m.matrix[0, n] == pytest.approx(1.0)
        assert m.matrix[n, 0] == pytest.approx(-1.0)

    def test_antisymmetry(self):
        m = covariance_from_correlation(ground_state_qp_correlation(4, "plus"))
        assert antisymmetry_defect(m) < 1e-12

    def test_purity(self):
        for label in ("zero", "one", "plus"):
            m = covariance_from_correlation(ground_state_qp_correlation(3, label))
            assert m.purity_defect() < 1e-8


class TestPfaffian:
    def test_block_diagonal(self):
        a = np.zeros((4, 4))
        a[0, 1], a[1, 0] = 1.0, -1.0
        a[2, 3], a[3, 2] = 1.0, -1.0
        assert pfaffian4(a) == pytest.approx(1.0)

    def test_zero_matrix(self):
        assert pfaffian4(np.zeros((4, 4))) == 0.0

    def test_square_equals_determinant(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            x = rng.normal(size=(4, 4))
            a = x - x.T
            assert pfaffian4(a) ** 2 == pytest.approx(np.linalg.det(a), rel=1e-10, abs=1e-10)

    def test_rejects_symmetric_input(self):
        with pytest.raises(InvalidParameterError):
            pfaffian4(np.eye(4))


class TestParityAndOverlap:
    def test_parity_of_reference_states(self):
        for label, expected in (("zero", 1.0), ("one", 1.0), ("plus", 1.0)):
            m = covariance_from_correlation(ground_state_qp_correlation(3, label))
            assert parity_expectation(m) == pytest.approx(expected, abs=1e-10)

    def test_single_excitation_flips_parity(self):
        n = 3
        ups = ground_state_qp_correlation(n, "zero").matrix.copy()
        ups[0, 0] = 1.0
        ups[n, n] = 0.0
        from tetronsim.gaussian import CorrelationMatrix

        state = CorrelationMatrix(matrix=ups, basis="qp", n_sites=n)
        assert parity_expectation(covariance_from_correlation(state)) == pytest.approx(-1.0)

    def test_overlap_normalization(self):
        for label in ("zero", "one", "plus"):
            m = covariance_from_correlation(ground_state_qp_correlation(4, label))
            assert overlap_sq(m, m) == pytest.approx(1.0, abs=1e-8)

    def test_orthogonal_ground_states(self):
        m0 = qp_vacuum_covariance(4)
        m1 = qp_occupied_pair_covariance(4)
        assert overlap_sq(m0, m1) == pytest.approx(0.0, abs=1e-10)

    def test_plus_overlaps(self):
        mp = covariance_from_correlation(ground_state_qp_correlation(4, "plus"))
        assert overlap_sq(mp, qp_vacuum_covariance(4)) == pytest.approx(0.5, abs=1e-10)
        assert overlap_sq(mp, qp_occupied_pair_covariance(4)) == pytest.approx(0.5, abs=1e-10)

    def test_overlap_symmetric_and_bounded(self):
        rng = np.random.default_rng(23)
        n = 3
        base = qp_vacuum_covariance(n).matrix
        for _ in range(50):
            q1, _ = np.linalg.qr(rng.normal(size=(4 * n, 4 * n)))
            q2, _ = np.linalg.qr(rng.normal(size=(4 * n, 4 * n)))
            ma = CovarianceMatrix(q1 @ base @ q1.T, basis="qp", n_sites=n)
            mb = CovarianceMatrix(q2 @ base @ q2.T, basis="qp", n_sites=n)
            ab = overlap_sq(ma, mb)
            ba = overlap_sq(mb, ma)
            assert ab == pytest.approx(ba, abs=1e-8)
            assert -1e-8 <= ab <= 1.0 + 1e-8

    def test_basis_mismatch_rejected(self):
        m0 = qp_vacuum_covariance(3)
        site = CovarianceMatrix(m0.matrix, basis="site", n_sites=3)
        with pytest.raises(BasisMismatchError):
            overlap_sq(m0, site)


class TestChainStack:
    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_references_are_the_tetron_chain_blocks(self, n):
        refs = qp_chain_references(n).matrix
        assert refs.shape == (2, 2 * n, 2 * n)
        for ref, tetron in zip(refs, (qp_vacuum_covariance(n), qp_occupied_pair_covariance(n))):
            for off in (0, 2 * n):
                assert np.array_equal(ref, tetron.matrix[off:off + 2 * n, off:off + 2 * n])

    def test_rotation_acts_on_each_chain_state(self):
        basis = tetron_basis(5, 0.1)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 10, 10))
        stack = CovarianceMatrix(x - x.swapaxes(1, 2), basis="site", n_sites=5)
        qp = rotate_to_qp_basis(stack, basis)
        r = rotation(basis)
        for got, m in zip(qp.matrix, stack.matrix):
            assert np.max(np.abs(got - r @ m @ r.T)) < 1e-14
        back = rotate_to_site_basis(qp, basis)
        assert np.max(np.abs(back.matrix - stack.matrix)) < 1e-13

    def test_tetron_of_the_basis_size_only(self):
        # a 2-site tetron has the dimension of a 4-site chain
        with pytest.raises(BasisMismatchError):
            rotate_to_site_basis(qp_vacuum_covariance(2), tetron_basis(4, 0.1))
        with pytest.raises(BasisMismatchError):
            rotate_to_site_basis(qp_chain_references(3), tetron_basis(4, 0.1))
        # nor does a tetron covariance of the basis' own size: rotations take chains only
        with pytest.raises(BasisMismatchError):
            rotate_to_site_basis(plus_covariance(3), tetron_basis(3, 0.2))

    def test_stacked_overlaps_match_one_by_one(self):
        rng = np.random.default_rng(29)
        n = 4
        refs = qp_chain_references(n)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2 * n, 2 * n)))
        states = CovarianceMatrix(q @ refs.matrix @ q.swapaxes(1, 2), basis="qp", n_sites=n)
        stacked = overlap_sq(states, refs)
        assert stacked.shape == (2,)
        for k in range(2):
            one = overlap_sq(CovarianceMatrix(states.matrix[k], "qp", n),
                             CovarianceMatrix(refs.matrix[k], "qp", n))
            assert stacked[k] == one
        # the vacuum and the occupied state have opposite parity
        assert np.array_equal(overlap_sq(refs, replace(refs, matrix=refs.matrix[::-1])),
                              [0.0, 0.0])
        assert refs.purity_defect() == 0.0 and antisymmetry_defect(refs) == 0.0
