"""Kitaev-chain BdG Hamiltonian and the mode structure of the tetron.

The single-particle (BdG) matrix of one chain acts on the doubled operator
space ordered as (c_1 .. c_N, c_1^dag .. c_N^dag).  With that ordering

    H = [[ A,  B ],
         [-B*, -A*]],   A_jj = -mu,  A_j,j+1 = -w,  B_j+1,j = +Delta,

which is Hermitian and particle-hole symmetric: (tau_x K) H (tau_x K) = -H,
where tau_x swaps the particle and hole blocks and K conjugates.

A is real symmetric and B real antisymmetric, so the chain is fixed by the
real N x N matrix S = A + B.  Its singular value decomposition
S = U Sigma V^T is the chiral decomposition of Lieb, Schultz & Mattis
(Ann. Phys. 16, 407 (1961)): the columns (P; Q) with P = (v + u)/2 and
Q = (v - u)/2 are the eigenvectors of H at +Sigma, and in the Majorana basis
of :mod:`tetronsim.gaussian` the mode rotation is R = diag(V^T, U^T).  The
zero singular vectors v_0 and u_0 are the two Majorana zero modes.

The tetron is two identical, uncoupled copies of this chain, so its mode
basis holds the decomposition of one chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateSubspaceError, InvalidParameterError

# Lowest pair must sit below this fraction of the first bulk energy to count
# as a resolvable two-dimensional near-zero subspace.
ZERO_MODE_RATIO = 0.25


@dataclass(frozen=True)
class ChainParams:
    """Static Kitaev-chain parameters: site count, hopping w, pairing Delta."""

    n_sites: int
    hopping: float
    pairing: float

    def __post_init__(self):
        if self.n_sites < 2:
            raise InvalidParameterError("n_sites must be >= 2, got %r" % (self.n_sites,))
        if self.hopping == 0.0 and self.pairing == 0.0:
            raise InvalidParameterError("hopping and pairing cannot both vanish")


@dataclass(frozen=True)
class RampProtocol:
    """Linear chemical-potential drive mu(t) = mu_in + sign * rate * t."""

    mu_in: float
    mu_fin: float
    rate: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.mu_in, self.mu_fin, self.rate)):
            raise InvalidParameterError("ramp values must be finite, got %r" % (self,))
        if self.rate <= 0.0:
            raise InvalidParameterError("ramp rate must be positive, got %r" % (self.rate,))

    @property
    def duration(self) -> float:
        return abs(self.mu_fin - self.mu_in) / self.rate

    def mu_at(self, t: float) -> float:
        sign = 1.0 if self.mu_fin >= self.mu_in else -1.0
        return self.mu_in + sign * self.rate * t

    def validate_topological(self, params: ChainParams) -> None:
        """Require the whole mu interval to stay inside the topological phase."""
        for mu in (self.mu_in, self.mu_fin):
            if not is_topological(mu, params.hopping, params.pairing):
                raise InvalidParameterError(
                    "mu=%g leaves the topological phase (|mu| < 2|w| required)" % mu
                )


@dataclass(frozen=True)
class BdGMatrix:
    """Single-particle Hamiltonian matrix with its build context."""

    matrix: np.ndarray
    mu: float
    params: ChainParams

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _chain_matrix(params: ChainParams, mu: float) -> np.ndarray:
    n = params.n_sites
    w, delta = params.hopping, params.pairing
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    a[np.arange(n), np.arange(n)] = -mu
    for j in range(n - 1):
        a[j, j + 1] = a[j + 1, j] = -w
        b[j + 1, j] = delta
        b[j, j + 1] = -delta
    return np.block([[a, b], [-b, -a]])


def build_chain_bdg(params: ChainParams, mu: float) -> BdGMatrix:
    """2N x 2N BdG matrix of a single open Kitaev chain at chemical potential mu."""
    return BdGMatrix(matrix=_chain_matrix(params, mu), mu=mu, params=params)


def ph_conjugate(h: np.ndarray) -> np.ndarray:
    """Return (tau_x K) H (tau_x K)^-1 for a single-chain matrix."""
    n = h.shape[0] // 2
    tx = np.zeros_like(h, dtype=float)
    tx[:n, n:] = np.eye(n)
    tx[n:, :n] = np.eye(n)
    return tx @ h.conj() @ tx


def chain_s(params: ChainParams, mu: float) -> np.ndarray:
    """S = A + B of one chain: -mu on the diagonal, Delta - w below, -(w + Delta) above."""
    n = params.n_sites
    w, delta = params.hopping, params.pairing
    return (np.diag(np.full(n, -mu)) + np.diag(np.full(n - 1, delta - w), -1)
            + np.diag(np.full(n - 1, -(w + delta)), 1))


def chain_svd(params: ChainParams, mu: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, Sigma, V) with S = U diag(Sigma) V^T and Sigma ascending."""
    u, sig, vt = np.linalg.svd(chain_s(params, mu))
    return u[:, ::-1], sig[::-1], vt[::-1].T


def _fix_sign(x: np.ndarray) -> np.ndarray:
    """Flip a real vector so its largest-magnitude entry is positive."""
    return -x if x[np.argmax(np.abs(x))] < 0 else x


@dataclass(frozen=True)
class ModeBasis:
    """Modes of one chain at mu, used for both chains of the tetron.

    ``energies`` holds the N singular values of S in ascending order (the
    near-zero mode first), and the columns of ``u`` and ``v`` the matching
    left and right singular vectors.  ``mzm_left`` and ``mzm_right`` are the
    Majorana zero modes in chain coordinates (c, c^dag).
    """

    params: ChainParams
    mu: float
    energies: np.ndarray
    u: np.ndarray
    v: np.ndarray
    mzm_left: Optional[np.ndarray] = None
    mzm_right: Optional[np.ndarray] = None

    @property
    def vectors(self) -> np.ndarray:
        """Unitary [[P, Q], [Q, P]] with P = (v + u)/2, Q = (v - u)/2.

        The first N columns are the modes of energy +energies, the last N
        their tau_x K partners at -energies.
        """
        p = (self.v + self.u) / 2.0
        q = (self.v - self.u) / 2.0
        return np.block([[p, q], [q, p]])

    @property
    def mzm_vectors(self) -> Tuple[np.ndarray, ...]:
        """Majorana vectors ordered (left, right) per chain, in chain coordinates."""
        if self.mzm_left is None or self.mzm_right is None:
            raise DegenerateSubspaceError("MZMs not resolved; use resolved_basis")
        return (self.mzm_left, self.mzm_right) * 2

    @property
    def rotation(self) -> np.ndarray:
        """Real orthogonal R = diag(V^T, U^T) of one chain.

        R carries a site-basis covariance of the chain into the quasiparticle
        basis, M_qp = R M_site R^T.
        """
        zero = np.zeros_like(self.v)
        return np.block([[self.v.T, zero], [zero, self.u.T]])


def align_mzm_gauge(basis: ModeBasis, previous: ModeBasis) -> ModeBasis:
    """Match MZM pairing and signs to a previous basis for gauge continuity.

    Without this, the deterministic sign convention can hop between samples of
    a ramp and flip the MZM overlaps spuriously.
    """
    pa, pb = previous.mzm_left, previous.mzm_right
    ga, gb = basis.mzm_left, basis.mzm_right
    if abs(pa.conj() @ ga) < abs(pa.conj() @ gb):
        ga, gb = gb, ga
    if (pa.conj() @ ga).real < 0:
        ga = -ga
    if (pb.conj() @ gb).real < 0:
        gb = -gb
    return replace(basis, mzm_left=ga, mzm_right=gb)


def resolved_basis(params: ChainParams, mu: float,
                   previous: Optional[ModeBasis] = None) -> ModeBasis:
    """Tetron mode basis at mu with localized MZMs, optionally gauge-continuous.

    The MZMs are the zero singular vectors, (v_0, v_0)/sqrt(2) and
    (-i u_0, i u_0)/sqrt(2); the one with more weight on the first half of
    the chain is the left one, and each real v_0, u_0 has its largest entry
    positive.
    """
    u, sig, v = chain_svd(params, mu)
    if sig[0] > ZERO_MODE_RATIO * sig[1]:
        raise DegenerateSubspaceError(
            "no isolated near-zero pair: eps0=%g, eps1=%g" % (sig[0], sig[1])
        )
    v0, u0 = _fix_sign(v[:, 0]), _fix_sign(u[:, 0])
    left = np.concatenate([v0, v0]) / np.sqrt(2.0)
    right = np.concatenate([-1j * u0, 1j * u0]) / np.sqrt(2.0)
    half = params.n_sites // 2
    if np.sum(u0[:half] ** 2) > np.sum(v0[:half] ** 2):
        left, right = right, left
    basis = ModeBasis(params=params, mu=mu, energies=sig, u=u, v=v,
                      mzm_left=left, mzm_right=right)
    if previous is not None:
        basis = align_mzm_gauge(basis, previous)
    return basis


def bulk_energy(k: float, mu: float, w: float, delta: float) -> float:
    """Bulk excitation energy at momentum k for the translation-invariant chain."""
    return float(np.sqrt((mu + 2.0 * w * np.cos(k)) ** 2 + 4.0 * delta ** 2 * np.sin(k) ** 2))


def band_gap(mu: float, w: float) -> float:
    """Long-chain band gap |2w - mu|, valid for pairing equal to hopping."""
    return abs(2.0 * w - mu)


def is_topological(mu: float, w: float, delta: float) -> bool:
    """True inside the topological phase: |mu| < 2|w| with nonzero pairing."""
    return bool(abs(mu) < 2.0 * abs(w) and delta != 0.0)
