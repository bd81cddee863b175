"""Fermionic Gaussian states of the tetron as real Majorana covariances.

A state is held as the real antisymmetric covariance M of the rescaled
Majoranas r_i = (c_i + c_i^dag)/sqrt(2), r_{i+N} = (c_i - c_i^dag)/(i sqrt(2))
of each chain, chains stacked (dimension 4N).  Quasiparticle-basis
covariances use the same layout with the site operators replaced by the
instantaneous Bogoliubov modes (zero mode first).  The two bases are related
by the real orthogonal per-chain rotation of :class:`tetronsim.model.ModeBasis`,
R = diag(V^T, U^T) from the singular value decomposition S = A + B = U Sigma V^T,

    M_qp = R M_site R^T,

and a frozen-Hamiltonian time step is the same kind of map, M <- O M O^T.

The computational states |0>, |1>, |+> are defined through their complex
correlation matrices in the block layout

    Gamma = [[ <c^dag c>, <c^dag c^dag> ],
             [ <c c>,     <c c^dag>     ]]        (per chain, chains stacked),

matching the operator ordering of :mod:`tetronsim.model`, and converted once
with M = -i Omega* (2 Gamma - 1) Omega^T.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, InvalidParameterError
from .model import ModeBasis

SITE = "site"
QP = "qp"


class QubitStateLabel(str, enum.Enum):
    ZERO = "zero"
    ONE = "one"
    PLUS = "plus"


@dataclass(frozen=True)
class CorrelationMatrix:
    """Two-point function matrix of a Gaussian state, with its basis tag."""

    matrix: np.ndarray
    basis: str
    n_sites: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def purity_defect(self) -> float:
        q = 2.0 * self.matrix - np.eye(self.dim)
        return float(np.max(np.abs(q @ q - np.eye(self.dim))))


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real antisymmetric Majorana-basis form of a Gaussian state."""

    matrix: np.ndarray
    basis: str
    n_sites: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def antisymmetry_defect(self) -> float:
        return float(np.max(np.abs(self.matrix + self.matrix.T)))

    def purity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix @ self.matrix.T - np.eye(self.dim))))


def _zero_mode_slots(n: int):
    # diagonal positions of the zero-mode occupations per chain:
    # (d^dag d at 0 and 2N, d d^dag at N and 3N)
    return (0, n, 2 * n, 3 * n)


def ground_state_qp_correlation(n_sites: int, label) -> CorrelationMatrix:
    """Correlation matrix of |0>, |1> or |+> in the quasiparticle basis.

    |0> is the quasiparticle vacuum, |1> carries the occupied zero mode on
    each chain, and |+> is their equal-weight coherent superposition whose
    cross terms sit in the four zero-mode rows and columns.
    """
    if n_sites < 2:
        raise InvalidParameterError("n_sites must be >= 2")
    label = QubitStateLabel(label)
    n = n_sites
    dim = 4 * n
    u0 = np.zeros((dim, dim), dtype=complex)
    u0[np.arange(n, 2 * n), np.arange(n, 2 * n)] = 1.0
    u0[np.arange(3 * n, 4 * n), np.arange(3 * n, 4 * n)] = 1.0
    if label is QubitStateLabel.ZERO:
        mat = u0
    else:
        u1 = u0.copy()
        a, b, c, d = _zero_mode_slots(n)
        u1[a, a] = 1.0
        u1[b, b] = 0.0
        u1[c, c] = 1.0
        u1[d, d] = 0.0
        if label is QubitStateLabel.ONE:
            mat = u1
        else:
            cross = np.zeros((dim, dim), dtype=complex)
            cross[n, 2 * n] = 1j
            cross[0, 3 * n] = 1j
            mat = 0.5 * (u0 + u1 + cross + cross.conj().T)
    return CorrelationMatrix(matrix=mat, basis=QP, n_sites=n)


def _check_dims(m: CovarianceMatrix, basis: ModeBasis) -> None:
    expected = 4 * basis.params.n_sites
    if m.dim != expected:
        raise BasisMismatchError(
            "matrix dimension %d does not match basis dimension %d" % (m.dim, expected)
        )


def conjugate_chains(o: np.ndarray, m: np.ndarray) -> np.ndarray:
    """O M O^T with O = diag(o, o): the same 2N x 2N map on both chains."""
    n2 = o.shape[0]
    blocks = m.reshape(2, n2, 2, n2).swapaxes(1, 2)
    return (o @ blocks @ o.T).swapaxes(1, 2).reshape(2 * n2, 2 * n2)


def rotate_to_site_basis(m: CovarianceMatrix, basis: ModeBasis) -> CovarianceMatrix:
    """M_site = R^T M_qp R: quasiparticle-basis covariance to site basis."""
    if m.basis != QP:
        raise BasisMismatchError("input must be in the quasiparticle basis")
    _check_dims(m, basis)
    return CovarianceMatrix(matrix=conjugate_chains(basis.rotation.T, m.matrix), basis=SITE,
                            n_sites=m.n_sites)


def rotate_to_qp_basis(m: CovarianceMatrix, basis: ModeBasis) -> CovarianceMatrix:
    """Inverse rotation of :func:`rotate_to_site_basis`, M_qp = R M_site R^T."""
    if m.basis != SITE:
        raise BasisMismatchError("input must be in the site basis")
    _check_dims(m, basis)
    return CovarianceMatrix(matrix=conjugate_chains(basis.rotation, m.matrix), basis=QP,
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


def qp_vacuum_covariance(n_sites: int) -> CovarianceMatrix:
    """Covariance of the quasiparticle vacuum |0> in its own Majorana basis."""
    n = n_sites
    # slot i pairs with slot i + n, per chain
    i = np.concatenate([np.arange(n), np.arange(2 * n, 3 * n)])
    m = np.zeros((4 * n, 4 * n))
    m[i, i + n] = 1.0
    m[i + n, i] = -1.0
    return CovarianceMatrix(matrix=m, basis=QP, n_sites=n)


def qp_occupied_pair_covariance(n_sites: int) -> CovarianceMatrix:
    """Covariance of |1> (zero mode occupied on each chain) in the QP basis."""
    m = qp_vacuum_covariance(n_sites).matrix
    a, b, c, d = _zero_mode_slots(n_sites)
    m[[a, c], [b, d]] = -1.0
    m[[b, d], [a, c]] = 1.0
    return CovarianceMatrix(matrix=m, basis=QP, n_sites=n_sites)


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


def overlap_sq(ma: CovarianceMatrix, mb: CovarianceMatrix) -> float:
    """Squared overlap of two pure Gaussian states from their covariances.

    |<A|B>|^2 = 2^(-n_modes) sqrt(det(M_A + M_B)), evaluated through slogdet
    so large systems do not overflow.  A significantly negative determinant
    means the two matrices were not expressed in the same basis.
    """
    if ma.dim != mb.dim or ma.basis != mb.basis:
        raise BasisMismatchError("covariance matrices disagree in dimension or basis")
    n_modes = ma.dim // 2
    sign, logdet = np.linalg.slogdet(ma.matrix + mb.matrix)
    if sign == 0:
        return 0.0
    # normalized determinant det/2^(2 n_modes) = |overlap|^4
    q = sign * np.exp(logdet - 2.0 * n_modes * np.log(2.0))
    if q < -1e-10:
        raise BasisMismatchError("negative overlap determinant: %g" % q)
    return float(np.sqrt(max(q, 0.0)))
