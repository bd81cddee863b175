from dataclasses import replace

import numpy as np
import pytest

from tetronsim.errors import DegenerateSubspaceError, InvalidParameterError
from tetronsim.model import (
    ChainParams,
    RampProtocol,
    band_gap,
    bulk_energy,
    chain_s,
    is_topological,
    require_topological,
    resolved_basis,
)

from reference import (
    build_chain_bdg,
    mzm_pair,
    mzm_vectors,
    orientation,
    ph_conjugate,
    reflected,
    rotation,
)

SWEET = ChainParams(n_sites=4, hopping=0.5, pairing=0.5)


def random_params(rng, resolvable=False):
    """Random chain parameters; with resolvable=True stay in the regime where
    the near-zero pair is cleanly separated from the bulk."""
    n = int(rng.integers(2, 9))
    w = float(rng.uniform(0.2, 1.0))
    if resolvable:
        delta = w * float(rng.uniform(0.7, 1.4))
        mu = float(rng.uniform(-0.5, 0.5)) * w
    else:
        delta = float(rng.uniform(0.2, 1.0))
        mu = float(rng.uniform(-1.0, 1.0)) * 2.0 * w * 0.8
    return ChainParams(n, w, delta), mu


class TestChainParams:
    def test_rejects_single_site(self):
        with pytest.raises(InvalidParameterError):
            ChainParams(1, 0.5, 0.5)

    def test_rejects_degenerate_model(self):
        with pytest.raises(InvalidParameterError):
            ChainParams(4, 0.0, 0.0)

    def test_ramp_duration(self):
        proto = RampProtocol(0.0, 0.03, 2e-2)
        assert proto.duration == pytest.approx(1.5)
        assert proto.mu_at(proto.duration) == pytest.approx(0.03)

    def test_ramp_requires_positive_rate(self):
        with pytest.raises(InvalidParameterError):
            RampProtocol(0.0, 0.03, 0.0)

    @pytest.mark.parametrize("mu_in, mu_fin, rate", [
        (0.0, 0.03, float("nan")), (0.0, 0.03, float("inf")), (float("nan"), 0.03, 1e-2),
        (0.0, float("-inf"), 1e-2)])
    def test_ramp_rejects_non_finite(self, mu_in, mu_fin, rate):
        with pytest.raises(InvalidParameterError, match="finite"):
            RampProtocol(mu_in, mu_fin, rate)

    def test_ramp_topological_guard(self):
        proto = RampProtocol(0.0, 1.2, 1e-2)
        with pytest.raises(InvalidParameterError):
            require_topological(ChainParams(4, 0.5, 0.5), proto.mu_in, proto.mu_fin)


class TestBuildChain:
    def test_sweet_spot_spectrum(self):
        # at mu=0, Delta=w the open chain has one exact zero mode and all
        # bulk energies equal to 2w
        h = build_chain_bdg(SWEET, 0.0)
        evals = np.linalg.eigvalsh(h.matrix)
        positive = evals[4:]
        assert positive == pytest.approx([0.0, 1.0, 1.0, 1.0], abs=1e-12)

    def test_particle_hole_symmetry_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            params, mu = random_params(rng)
            h = build_chain_bdg(params, mu).matrix
            assert np.max(np.abs(ph_conjugate(h) + h)) < 1e-12

    def test_spectrum_symmetric(self):
        h = build_chain_bdg(ChainParams(2, 0.5, 0.5), 0.1)
        evals = np.sort(np.linalg.eigvalsh(h.matrix))
        assert np.max(np.abs(evals + evals[::-1])) < 1e-10

    def test_chain_s_is_a_plus_b(self):
        # byte for byte, -0.0 included: mu = -0.0 and w = Delta give zeros
        for n in (3, 40):
            for w, delta in ((0.5, 0.5), (0.5, 0.3)):
                params = ChainParams(n, w, delta)
                for mu in (0.0, -0.0, 0.03, -0.2, 0.07, -0.4):
                    h = build_chain_bdg(params, mu).matrix
                    assert (chain_s(params, mu).tobytes()
                            == (h[:n, :n] + h[:n, n:]).tobytes()), (n, w, delta, mu)

    def test_long_chain_near_zero_modes(self):
        h = build_chain_bdg(ChainParams(40, 0.5, 0.5), 0.03)
        evals = np.linalg.eigvalsh(h.matrix)
        smallest_positive = np.min(np.abs(evals))
        assert smallest_positive < 1e-10


class TestDiagonalize:
    def test_sweet_spot_energies(self):
        eps = resolved_basis(SWEET, 0.0).energies
        assert abs(eps[0]) < 1e-12
        assert eps[1:] == pytest.approx(np.full(3, 1.0), abs=1e-10)

    def test_unitarity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            params, mu = random_params(rng, resolvable=True)
            v = resolved_basis(params, mu).vectors
            assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0]))) < 1e-12

    def test_unitarity_at_degenerate_pair(self):
        # near mu = 0 the zero-mode pair is degenerate to rounding
        params = ChainParams(7, 0.625, 0.60546875)
        v = resolved_basis(params, -1.0722505367690361e-135).vectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(14))) < 1e-12

    def test_tetron_chains_identical(self):
        left_1, right_1, left_2, right_2 = mzm_vectors(resolved_basis(SWEET, 0.1))
        assert left_1 is left_2 and right_1 is right_2

    def test_mode_completeness(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            params, mu = random_params(rng, resolvable=True)
            h = build_chain_bdg(params, mu)
            basis = resolved_basis(params, mu)
            full = np.concatenate([basis.energies, -basis.energies])
            rebuilt = (basis.vectors * full) @ basis.vectors.conj().T
            assert np.max(np.abs(rebuilt - h.matrix)) < 1e-10

    def test_partner_columns_are_ph_images(self):
        v = resolved_basis(ChainParams(6, 0.5, 0.5), 0.2).vectors
        n = 6
        for k in range(n):
            partner = np.concatenate([v[n:, k], v[:n, k]]).conj()
            assert np.max(np.abs(v[:, n + k] - partner)) < 1e-12

    @pytest.mark.parametrize("mu", [0.0, -0.0])
    def test_no_subnormal_entries_at_zero_mu(self, mu):
        # LAPACK leaves entries down to 1e-321 at the ideal point; they are flushed
        basis = resolved_basis(ChainParams(40, 0.5, 0.5), mu)
        tiny = np.finfo(float).tiny
        r = rotation(basis)
        for x in (basis.u, basis.v, r):
            assert not np.any((x != 0) & (np.abs(x) < tiny))
        assert np.max(np.abs(r @ r.T - np.eye(80))) < 1e-14

    def test_rejects_gapless_chain(self):
        # at mu = 2w the transition closes the gap and no isolated pair exists
        params = ChainParams(30, 0.5, 0.5)
        with pytest.raises(DegenerateSubspaceError):
            resolved_basis(params, 1.0)


class TestRotation:
    @pytest.mark.parametrize("n", [3, 40])
    @pytest.mark.parametrize("pairing", [0.5, 0.3])
    def test_rotation_is_the_block_diagonal_of_vt_and_ut(self, n, pairing):
        basis = resolved_basis(ChainParams(n, 0.5, pairing), 0.05)
        zero = np.zeros_like(basis.v)
        expected = np.block([[basis.v.T, zero], [zero, basis.u.T]])
        assert rotation(basis).tobytes() == expected.tobytes()

    def test_orientation_is_the_sign_of_det_r(self):
        basis = resolved_basis(ChainParams(6, 0.5, 0.4), 0.05)
        assert orientation(basis) == np.sign(np.linalg.det(rotation(basis)))
        # flip u_0 alone, then v_0 alone (u = J v sign(lambda))
        v = basis.v.copy()
        v[:, 0] *= -1.0
        for flipped in (reflected(basis), replace(reflected(basis), v=v)):
            assert orientation(flipped) == -orientation(basis)
            assert orientation(flipped) == np.sign(np.linalg.det(rotation(flipped)))


class TestResolveMzms:
    def test_sweet_spot_single_site(self):
        left, _ = mzm_pair(resolved_basis(SWEET, 0.0))
        n = 4
        weight_site_1 = abs(left[0]) ** 2 + abs(left[n]) ** 2
        assert weight_site_1 == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_pair(self):
        left, right = mzm_pair(resolved_basis(SWEET, 0.0))
        assert abs(left.conj() @ right) < 1e-12
        assert np.linalg.norm(left) == pytest.approx(1.0, abs=1e-12)

    def test_exponential_localization(self):
        params = ChainParams(40, 0.5, 0.5)
        left, _ = mzm_pair(resolved_basis(params, 0.03))
        n = 40
        left_half = np.sum(np.abs(left[:20]) ** 2) + np.sum(np.abs(left[n:n + 20]) ** 2)
        assert left_half > 0.999

    def test_majorana_condition(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params, mu = random_params(rng, resolvable=True)
            basis = resolved_basis(params, mu)
            for gamma in mzm_vectors(basis):
                n = params.n_sites
                image = np.concatenate([gamma[n:], gamma[:n]]).conj()
                assert np.max(np.abs(image - gamma)) < 1e-10

    def test_sweet_spot_exactness_all_lengths(self):
        for n in (2, 3, 5, 12, 41):
            params = ChainParams(n, 0.5, 0.5)
            eps = resolved_basis(params, 0.0).energies
            assert abs(eps[0]) < 1e-12
            assert np.max(np.abs(eps[1:] - 1.0)) < 1e-10


class TestClosedForms:
    def test_bulk_energy_examples(self):
        assert bulk_energy(np.pi / 2, 0.0, 0.5, 0.5) == pytest.approx(1.0)
        assert bulk_energy(0.0, 0.0, 0.5, 0.87) == pytest.approx(1.0)
        ks = np.linspace(-np.pi, np.pi, 2001)
        vals = [bulk_energy(k, 1.0, 0.5, 0.5) for k in ks]
        assert min(vals) < 2e-3

    def test_band_gap_examples(self):
        assert band_gap(0.0, 0.5) == pytest.approx(1.0)
        assert band_gap(1.0, 0.5) == pytest.approx(0.0)
        assert band_gap(0.03, 0.5) == pytest.approx(0.97)

    def test_is_topological(self):
        assert is_topological(0.03, 0.5, 0.5)
        assert not is_topological(1.0, 0.5, 0.5)
        assert not is_topological(0.0, 0.5, 0.0)
