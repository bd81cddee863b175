"""Fermionic Gaussian states of one Kitaev chain as real Majorana covariances.

A state is held as the real antisymmetric covariance M of the rescaled
Majoranas r_i = (c_i + c_i^dag)/sqrt(2), r_{i+N} = (c_i - c_i^dag)/(i sqrt(2))
of a chain (dimension 2N).  Quasiparticle-basis covariances use the same
layout with the site operators replaced by the instantaneous Bogoliubov modes
(zero mode first).  The two bases are related by the real orthogonal rotation
of :class:`tetronsim.model.ModeBasis`, R = diag(V^T, U^T) from the singular
value decomposition S = A + B = U Sigma V^T (held in the one symmetric
``eigh`` J S = Q Lambda Q^T of the persymmetric S, V = Q and
U = J Q sign(Lambda); :func:`tetronsim.model.chain_eigh`),

    M_qp = R M_site R^T,

and a frozen-Hamiltonian time step is the same kind of map, M <- O M O^T,
with O accumulated in the mode frame of the same eigh as one complex N x N
unitary W, O = D [[Re W, -Im W], [Im W, Re W]] D with D = diag(I, J)
(:mod:`tetronsim.dynamics`).
A :class:`CovarianceMatrix` may also hold a stack of chain covariances,
shape (k, 2N, 2N); the rotations and :func:`overlap_sq` then act on each.

The two chains of the tetron are identical and uncoupled, so the dynamics
carries |+> as two single-chain states (:func:`qp_chain_references` gives
them at the start).  :func:`covariance_from_correlation` and
:func:`parity_expectation` convert and measure the 4N covariance of both
chains stacked, the form the chain states are tested against; the tetron
states themselves are built on the test side.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, InvalidParameterError
from .model import ModeBasis

SITE = "site"
QP = "qp"


@dataclass(frozen=True)
class CorrelationMatrix:
    """Two-point function matrix of a Gaussian state, with its basis tag."""

    matrix: np.ndarray
    basis: str
    n_sites: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real antisymmetric Majorana-basis form of a Gaussian state, or a stack of them.

    The purity defect is the largest over the stack.
    """

    matrix: np.ndarray
    basis: str
    n_sites: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def purity_defect(self) -> float:
        m = self.matrix
        return float(np.max(np.abs(m @ m.swapaxes(-1, -2) - np.eye(self.dim))))


def _zero_mode_slots(n: int):
    # diagonal positions of the zero-mode occupations per chain:
    # (d^dag d at 0 and 2N, d d^dag at N and 3N)
    return (0, n, 2 * n, 3 * n)


def _rotate(m: CovarianceMatrix, basis: ModeBasis, inverse: bool) -> np.ndarray:
    """R M R^T, or R^T M R if ``inverse``, for the rotation R of ``basis``.

    ``m`` is a chain covariance or a stack of them.  R = diag(V^T, U^T) acts
    block by block, half the work of the dense product.
    """
    n = basis.params.n_sites
    if m.n_sites != n or m.dim != 2 * n:
        raise BasisMismatchError("%d-site matrix of dimension %d does not match a %d-site basis"
                                 % (m.n_sites, m.dim, n))
    a, b = (basis.v, basis.u) if inverse else (basis.v.T, basis.u.T)
    x = np.empty_like(m.matrix)
    np.matmul(a, m.matrix[..., :n, :], out=x[..., :n, :])
    np.matmul(b, m.matrix[..., n:, :], out=x[..., n:, :])
    out = np.empty_like(x)
    np.matmul(x[..., :n], a.T, out=out[..., :n])
    np.matmul(x[..., n:], b.T, out=out[..., n:])
    return out


def rotate_to_site_basis(m: CovarianceMatrix, basis: ModeBasis) -> CovarianceMatrix:
    """M_site = R^T M_qp R: quasiparticle-basis covariance to site basis."""
    if m.basis != QP:
        raise BasisMismatchError("input must be in the quasiparticle basis")
    return CovarianceMatrix(matrix=_rotate(m, basis, inverse=True), basis=SITE,
                            n_sites=m.n_sites)


def rotate_to_qp_basis(m: CovarianceMatrix, basis: ModeBasis) -> CovarianceMatrix:
    """Inverse rotation of :func:`rotate_to_site_basis`, M_qp = R M_site R^T."""
    if m.basis != SITE:
        raise BasisMismatchError("input must be in the site basis")
    return CovarianceMatrix(matrix=_rotate(m, basis, inverse=False), basis=QP,
                            n_sites=m.n_sites)


def majorana_rotation(n_sites: int) -> np.ndarray:
    """Matrix Omega with r = Omega c for the rescaled Majoranas of both chains."""
    eye = np.eye(n_sites)
    block = np.block([[eye, eye], [-1j * eye, 1j * eye]]) / np.sqrt(2.0)
    return np.kron(np.eye(2), block)


def covariance_from_correlation(g: CorrelationMatrix) -> CovarianceMatrix:
    """M = -i Omega* (2 Gamma - 1) Omega^T in the matching Majorana basis."""
    omega = majorana_rotation(g.n_sites)
    m = -1j * omega.conj() @ (2.0 * g.matrix - np.eye(g.dim)) @ omega.T
    residue = float(np.max(np.abs(m.imag)))
    if residue > 1e-8:
        raise BasisMismatchError("non-physical correlation matrix: imaginary residue %g" % residue)
    return CovarianceMatrix(matrix=np.ascontiguousarray(m.real), basis=g.basis,
                            n_sites=g.n_sites)


@functools.lru_cache(maxsize=16)
def qp_chain_references(n_sites: int) -> CovarianceMatrix:
    """One chain's quasiparticle vacuum and its occupied-zero-mode state, stacked.

    Shape (2, 2N, 2N), in the quasiparticle basis: the vacuum pairs slot i
    with slot i + N, and the occupied state reverses the zero-mode pair.
    The stack is built once per N and is read-only.
    """
    n = n_sites
    i = np.arange(n)
    m = np.zeros((2, 2 * n, 2 * n))
    m[:, i, i + n] = 1.0
    m[:, i + n, i] = -1.0
    m[1, 0, n] = -1.0
    m[1, n, 0] = 1.0
    m.setflags(write=False)
    return CovarianceMatrix(matrix=m, basis=QP, n_sites=n)


def pfaffian4(a: np.ndarray) -> float:
    """Pfaffian of a 4x4 antisymmetric matrix, a12 a34 - a13 a24 + a14 a23."""
    a = np.asarray(a)
    if a.shape != (4, 4):
        raise InvalidParameterError("pfaffian4 expects a 4x4 matrix")
    if np.max(np.abs(a + a.T)) > 1e-10:
        raise InvalidParameterError("matrix is not antisymmetric")
    return float(a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2])


def parity_expectation(m: CovarianceMatrix) -> float:
    """Expectation of the product of the four zero-mode Majoranas.

    Requires the covariance in the instantaneous quasiparticle Majorana basis;
    the relevant rows are the zero-mode Majorana slots of each chain.
    """
    if m.basis != QP:
        raise BasisMismatchError("parity needs the quasiparticle Majorana basis")
    idx = list(_zero_mode_slots(m.n_sites))
    return pfaffian4(m.matrix[np.ix_(idx, idx)])


def overlap_sq(ma: CovarianceMatrix, mb: CovarianceMatrix):
    """Squared overlap of two pure Gaussian states from their covariances.

    |<A|B>|^2 = 2^(-n_modes) sqrt(det(M_A + M_B)), evaluated through slogdet
    so large systems do not overflow.  A significantly negative determinant
    means the two matrices were not expressed in the same basis.  Two stacks
    of the same shape give the array of overlaps of matching entries.
    """
    if ma.matrix.shape != mb.matrix.shape or ma.basis != mb.basis:
        raise BasisMismatchError("covariance matrices disagree in dimension or basis")
    n_modes = ma.dim // 2
    sign, logdet = np.linalg.slogdet(ma.matrix + mb.matrix)
    # normalized determinant det/2^(2 n_modes) = |overlap|^4; 0 where sign == 0
    q = sign * np.exp(logdet - 2.0 * n_modes * np.log(2.0))
    if np.any(q < -1e-10):
        raise BasisMismatchError("negative overlap determinant: %g" % np.min(q))
    f = np.sqrt(np.maximum(q, 0.0))
    return float(f) if f.ndim == 0 else f
