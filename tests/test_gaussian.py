import numpy as np
import pytest

from tetronsim.errors import BasisMismatchError, InvalidParameterError
from tetronsim.gaussian import (
    CovarianceMatrix,
    QubitStateLabel,
    covariance_from_correlation,
    ground_state_qp_correlation,
    overlap_sq,
    parity_expectation,
    pfaffian4,
    qp_occupied_pair_covariance,
    qp_vacuum_covariance,
    rotate_to_qp_basis,
    rotate_to_site_basis,
)
from tetronsim.model import ChainParams, resolved_basis


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
        assert ups.hermiticity_defect() < 1e-14
        evals = np.linalg.eigvalsh(ups.matrix)
        dist = np.min(np.abs(evals[:, None] - np.array([0.0, 0.5, 1.0])[None, :]), axis=1)
        assert np.max(dist) < 1e-12

    def test_plus_state_is_pure(self):
        ups = ground_state_qp_correlation(4, QubitStateLabel.PLUS)
        assert ups.purity_defect() < 1e-12


def plus_covariance(n):
    return covariance_from_correlation(ground_state_qp_correlation(n, "plus"))


class TestRotations:
    def test_eigenvalues_preserved(self):
        basis = tetron_basis(4, 0.1)
        plus = plus_covariance(4)
        site = rotate_to_site_basis(plus, basis)
        # i M is Hermitian for real antisymmetric M
        ev_in = np.sort(np.linalg.eigvalsh(1j * plus.matrix))
        ev_out = np.sort(np.linalg.eigvalsh(1j * site.matrix))
        assert np.max(np.abs(ev_in - ev_out)) < 1e-10

    def test_round_trip(self):
        basis = tetron_basis(3, 0.2)
        plus = plus_covariance(3)
        back = rotate_to_qp_basis(rotate_to_site_basis(plus, basis), basis)
        assert np.max(np.abs(back.matrix - plus.matrix)) < 1e-10

    def test_identity_rotation(self):
        from tetronsim.model import ModeBasis

        n = 3
        basis = ModeBasis(params=ChainParams(n, 0.5, 0.5), mu=0.0, energies=np.zeros(n),
                          u=np.eye(n), v=np.eye(n))
        plus = plus_covariance(n)
        site = rotate_to_site_basis(plus, basis)
        assert site.basis == "site"
        assert np.max(np.abs(site.matrix - plus.matrix)) == 0.0

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
        assert m.antisymmetry_defect() < 1e-12

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
