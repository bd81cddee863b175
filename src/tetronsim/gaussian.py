"""Fermionic Gaussian states as real Majorana covariances: the reference form.

A state is held as the real antisymmetric covariance M of the rescaled
Majoranas r_i = (c_i + c_i^dag)/sqrt(2), r_{i+N} = (c_i - c_i^dag)/(i sqrt(2))
of a chain (dimension 2N), or of both chains stacked (4N).
Quasiparticle-basis covariances use the same layout with the site operators
replaced by the instantaneous Bogoliubov modes (zero mode first).  The two
bases are related by the real orthogonal rotation R = diag(V^T, U^T) of a
:class:`tetronsim.model.ModeBasis`, M_qp = R M_site R^T.

:mod:`tetronsim.dynamics` does not use this module: it carries each chain
state as occupied orbitals and measures them with N x N products.  The
covariance form stays in the package as the independent reference those
orbitals are tested against (the tests build the chain and 4N tetron states
from it), and because the benchmark's per-layer tracing names
:func:`rotate_to_qp_basis`, :func:`covariance_from_correlation`,
:func:`overlap_sq` and :func:`parity_expectation`.
"""

from __future__ import annotations

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


def rotate_to_qp_basis(m: CovarianceMatrix, basis: ModeBasis) -> CovarianceMatrix:
    """M_qp = R M_site R^T for one chain covariance or a stack of them.

    R = diag(V^T, U^T) acts block by block, half the work of the dense product.
    """
    if m.basis != SITE:
        raise BasisMismatchError("input must be in the site basis")
    n = basis.params.n_sites
    if m.n_sites != n or m.dim != 2 * n:
        raise BasisMismatchError("%d-site matrix of dimension %d does not match a %d-site basis"
                                 % (m.n_sites, m.dim, n))
    a, b = basis.v.T, basis.u.T
    x = np.empty_like(m.matrix)
    np.matmul(a, m.matrix[..., :n, :], out=x[..., :n, :])
    np.matmul(b, m.matrix[..., n:, :], out=x[..., n:, :])
    out = np.empty_like(x)
    np.matmul(x[..., :n], a.T, out=out[..., :n])
    np.matmul(x[..., n:], b.T, out=out[..., n:])
    return CovarianceMatrix(matrix=out, basis=QP, n_sites=n)


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
