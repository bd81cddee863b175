"""Kitaev-chain BdG Hamiltonian and the mode structure of the tetron.

The single-particle (BdG) matrix of one chain acts on the doubled operator
space ordered as (c_1 .. c_N, c_1^dag .. c_N^dag).  With that ordering

    H = [[ A,  B ],
         [-B*, -A*]],   A_jj = -mu,  A_j,j+1 = -w,  B_j+1,j = +Delta,

which is Hermitian and particle-hole symmetric: (tau_x K) H (tau_x K) = -H,
where tau_x swaps the particle and hole blocks and K conjugates.

A is real symmetric and B real antisymmetric, so the chain is fixed by the
real N x N matrix S = A + B, and the package builds only S
(:func:`chain_s`), never H itself.  Its singular value decomposition
S = U Sigma V^T is the chiral decomposition of Lieb, Schultz & Mattis
(Ann. Phys. 16, 407 (1961)): the columns (P; Q) with P = (v + u)/2 and
Q = (v - u)/2 are the eigenvectors of H at +Sigma, and in the Majorana basis
of :mod:`tetronsim.gaussian` the mode rotation is R = diag(V^T, U^T).  The
zero singular vectors v_0 and u_0 are the two Majorana zero modes.

S has constant diagonals, so it is Toeplitz and therefore persymmetric,
J S J = S^T with J the exchange matrix (Golub & Van Loan, Matrix
Computations, section 4.7).  J S is then real symmetric, and its one
``eigh``, J S = Q Lambda Q^T (:func:`chain_eigh`), holds the SVD:
Sigma = |Lambda|, V = Q and U = J Q sign(Lambda).  Time steps use Lambda and
Q as they come; a :class:`ModeBasis` keeps them sorted by energy.

The tetron is two identical, uncoupled copies of this chain, so its mode
basis holds the decomposition of one chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DegenerateSubspaceError, InvalidParameterError

# Lowest pair must sit below this fraction of the first bulk energy to count
# as a resolvable two-dimensional near-zero subspace.
ZERO_MODE_RATIO = 0.25

# Singular-vector entries below this are dropped as rounding residue (eps^2).
NEGLIGIBLE = np.finfo(float).eps ** 2


@dataclass(frozen=True)
class ChainParams:
    """Static Kitaev-chain parameters: site count, hopping w, pairing Delta."""

    n_sites: int
    hopping: float
    pairing: float

    def __post_init__(self):
        if self.n_sites < 2:
            raise InvalidParameterError("n_sites must be >= 2, got %r" % (self.n_sites,))
        if not (math.isfinite(self.hopping) and math.isfinite(self.pairing)):
            raise InvalidParameterError("hopping and pairing must be finite, got %r" % (self,))
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


def chain_s(params: ChainParams, mu: float) -> np.ndarray:
    """S = A + B of one chain: -mu on the diagonal, Delta - w below, -(w + Delta) above."""
    n = params.n_sites
    w, delta = params.hopping, params.pairing
    s = np.zeros((n, n))
    flat = s.reshape(-1)
    # + 0.0 turns -0.0 into 0.0, as the sum of three diagonal matrices does
    flat[::n + 1] = -mu + 0.0
    flat[n::n + 1] = (delta - w) + 0.0
    flat[1::n + 1] = -(w + delta) + 0.0
    return s


def _flush_negligible(x: np.ndarray) -> np.ndarray:
    """Zero the entries of orthonormal columns that lie below eps^2 in magnitude.

    At mu = 0 LAPACK leaves singular-vector entries down to 1e-321, and every
    operation on a state built from subnormal numbers runs several times
    slower.  An entry of a unit vector below eps^2 lies far below the
    rounding of any result it enters.
    """
    return np.where(np.abs(x) < NEGLIGIBLE, 0.0, x)


def chain_eigh(params: ChainParams, mus: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """(lambda, Q) per mu, J S(mu) = Q diag(lambda) Q^T (lambda ascending), in one stacked ``eigh``.

    J S(mu) is J S(0) with -mu on the anti-diagonal, so the stack, shape
    (len(mus), N, N), is one copy of J S(0) per mu with that diagonal set.
    Negligible entries of Q are zeroed.
    """
    n = params.n_sites
    js = np.repeat(chain_s(params, 0.0)[None, ::-1], len(mus), axis=0)
    # + 0.0 as in chain_s, so that each J S(mu) is the one chain_s(params, mu) gives
    js[:, np.arange(n), np.arange(n)[::-1]] = -np.asarray(mus, dtype=float)[:, None] + 0.0
    lam, q = np.linalg.eigh(js)
    return lam, _flush_negligible(q)


def _modes_by_energy(params: ChainParams,
                     mu: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(|lambda|, sign(lambda), Q) of :func:`chain_eigh` by ascending |lambda|; sign(0) = 1."""
    [lam], [q] = chain_eigh(params, [mu])
    order = np.argsort(np.abs(lam), kind="stable")
    return np.abs(lam[order]), np.where(lam[order] < 0.0, -1.0, 1.0), q[:, order]


@dataclass(frozen=True)
class ModeBasis:
    """Modes of one chain at mu, used for both chains of the tetron.

    ``energies`` holds the N singular values |lambda| of S in ascending order
    (the near-zero mode first), ``signs`` the signs of the matching
    eigenvalues lambda of J S (+1 for 0), and the columns of ``v`` the
    eigenvectors of J S, the right singular vectors.  Column 0 of ``v`` is
    the zero mode v_0, which fixes both MZMs: u_0 = J v_0 sign(lambda_0).
    """

    params: ChainParams
    mu: float
    energies: np.ndarray
    signs: np.ndarray
    v: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues lambda of J S, in the order of ``energies``."""
        return self.signs * self.energies

    @property
    def u(self) -> np.ndarray:
        """Left singular vectors U = J V sign(lambda)."""
        return self.v[::-1] * self.signs


def resolved_basis(params: ChainParams, mu: float) -> ModeBasis:
    """Mode basis at mu; DegenerateSubspaceError unless its zero mode is isolated."""
    sig, signs, v = _modes_by_energy(params, mu)
    if sig[0] > ZERO_MODE_RATIO * sig[1]:
        raise DegenerateSubspaceError(
            "no isolated near-zero pair: eps0=%g, eps1=%g" % (sig[0], sig[1])
        )
    return ModeBasis(params=params, mu=mu, energies=sig, signs=signs, v=v)


def bulk_energy(k: float, mu: float, w: float, delta: float) -> float:
    """Bulk excitation energy at momentum k for the translation-invariant chain."""
    return float(np.sqrt((mu + 2.0 * w * np.cos(k)) ** 2 + 4.0 * delta ** 2 * np.sin(k) ** 2))


def band_gap(mu: float, w: float) -> float:
    """Long-chain band gap |2w - mu|, valid for pairing equal to hopping."""
    return abs(2.0 * w - mu)


def is_topological(mu: float, w: float, delta: float) -> bool:
    """True inside the topological phase: |mu| < 2|w| with nonzero pairing."""
    return bool(abs(mu) < 2.0 * abs(w) and delta != 0.0)


def require_topological(params: ChainParams, *mus: float) -> None:
    """Raise InvalidParameterError unless every mu lies inside the topological phase."""
    for mu in mus:
        if not is_topological(mu, params.hopping, params.pairing):
            raise InvalidParameterError(
                "mu=%g is outside the topological phase (|mu| < 2|w| required)" % mu
            )
