"""Kitaev-chain BdG Hamiltonian and the mode structure of the tetron.

The single-particle (BdG) matrix of one chain acts on the doubled operator
space ordered as (c_1 .. c_N, c_1^dag .. c_N^dag).  With that ordering

    H = [[ A,  B ],
         [-B*, -A*]],   A_jj = -mu,  A_j,j+1 = -w,  B_j+1,j = +Delta,

which is Hermitian and particle-hole symmetric: (tau_x K) H (tau_x K) = -H,
where tau_x swaps the particle and hole blocks and K conjugates.

The tetron is two identical, uncoupled copies of this chain, so its mode
basis holds the decomposition of one chain.  The basis exposes that chain's
real orthogonal Majorana rotation, which maps site-basis covariances onto the
instantaneous quasiparticle modes.
"""

from __future__ import annotations

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


def ph_apply(v: np.ndarray) -> np.ndarray:
    """Apply the particle-hole operation tau_x K to a single-chain vector."""
    n = v.shape[0] // 2
    return np.concatenate([v[n:], v[:n]]).conj()


def ph_conjugate(h: np.ndarray) -> np.ndarray:
    """Return (tau_x K) H (tau_x K)^-1 for a single-chain matrix."""
    n = h.shape[0] // 2
    tx = np.zeros_like(h, dtype=float)
    tx[:n, n:] = np.eye(n)
    tx[n:, :n] = np.eye(n)
    return tx @ h.conj() @ tx


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip a real-structure vector so its largest-magnitude entry leads positive."""
    i = int(np.argmax(np.abs(v)))
    c = complex(v[i])
    if c.real < 0 or (c.real == 0 and c.imag < 0):
        return -v
    return v


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a complex vector so its largest-magnitude entry is positive real."""
    i = int(np.argmax(np.abs(v)))
    c = complex(v[i])
    if abs(c) == 0.0:
        return v
    return v * (abs(c) / c)


def _majorana_normalize(u: np.ndarray) -> np.ndarray:
    """Project u onto a unit PH-invariant (tau_x K v = v) combination.

    Both u + tau_x K u and i (u - tau_x K u) are PH-invariant, and their
    squared norms add up to 4 |u|^2.  The longer one is taken, so the
    projection never cancels to a short vector that has lost digits.
    """
    su = ph_apply(u)
    m = u + su
    alt = 1j * (u - su)
    if np.linalg.norm(alt) > np.linalg.norm(m):
        m = alt
    return m / np.linalg.norm(m)


@dataclass(frozen=True)
class ChainModes:
    """Eigenmodes of one chain.

    ``energies`` holds the N non-negative eigenvalues in ascending order;
    ``vectors`` the 2N x 2N unitary whose first N columns are the positive
    modes and whose last N columns are their particle-hole partners.  The
    Majorana pair is populated by :func:`resolve_mzms`.
    """

    energies: np.ndarray
    vectors: np.ndarray
    mzm_left: Optional[np.ndarray] = None
    mzm_right: Optional[np.ndarray] = None

    @property
    def n_sites(self) -> int:
        return self.energies.shape[0]


@dataclass(frozen=True)
class ModeBasis:
    """Mode decomposition of the tetron: one chain's modes, used for both chains."""

    params: ChainParams
    mu: float
    modes: ChainModes

    @property
    def mzm_vectors(self) -> Tuple[np.ndarray, ...]:
        """Majorana vectors ordered (left, right) per chain, in chain coordinates."""
        m = self.modes
        if m.mzm_left is None or m.mzm_right is None:
            raise DegenerateSubspaceError("MZMs not resolved; call resolve_mzms first")
        return (m.mzm_left, m.mzm_right) * 2

    @property
    def rotation(self) -> np.ndarray:
        """Real orthogonal R = Omega* V^T Omega^T of one chain.

        Omega maps (c, c^dag) onto the rescaled Majoranas of
        :mod:`tetronsim.gaussian`, so R carries a site-basis covariance of the
        chain into the quasiparticle basis, M_qp = R M_site R^T.  With the
        particle-hole paired columns V = [[P, Q*], [Q, P*]] the product is real:

            R = [[ Re(P + Q)^T, Im(P - Q)^T ],
                 [-Im(P + Q)^T, Re(P - Q)^T ]].
        """
        n = self.params.n_sites
        p = self.modes.vectors[:n, :n]
        q = self.modes.vectors[n:, :n]
        plus = (p + q).T
        minus = (p - q).T
        return np.block([[plus.real, minus.imag], [-plus.imag, minus.real]])


def _pair_subspace_column(m1: np.ndarray, m2: np.ndarray, phi_raw: np.ndarray,
                          eps0: float) -> np.ndarray:
    """Exact positive-energy eigenvector of the near-zero pair subspace.

    For PH-invariant m1, m2 the restricted Hamiltonian is [[0, is], [-is, 0]]
    with real s, so the positive eigenvector is (m1 -/+ i m2)/sqrt(2) with the
    sign of s.  s is recovered from the spectral projector of the raw pair,
    which avoids the partner mixing eigh introduces at small splittings.
    """
    sphi = ph_apply(phi_raw)
    s = eps0 * ((m1.conj() @ phi_raw) * (phi_raw.conj() @ m2)
                - (m1.conj() @ sphi) * (sphi.conj() @ m2))
    sign = 1.0 if s.imag >= 0 else -1.0
    return (m1 - 1j * sign * m2) / np.sqrt(2.0)


def diagonalize_chain(h: BdGMatrix) -> ModeBasis:
    """Particle-hole-consistent eigendecomposition of one chain.

    Each positive-energy eigenvector is stored with its tau_x K partner at the
    mirrored column, so the returned matrix rotates site operators into
    quasiparticle operators ordered (d_0 .. d_{N-1}, d_0^dag .. d_{N-1}^dag).
    """
    n = h.params.n_sites
    evals, evecs = np.linalg.eigh(h.matrix)
    evecs = evecs.astype(complex)
    energies = evals[n:].copy()
    phi = evecs[:, n:].copy()
    scale = max(float(np.abs(evals).max()), 1e-300)

    if energies[0] < -1e-10 * scale:
        raise DegenerateSubspaceError("spectrum not symmetric about zero")
    energies[0] = max(energies[0], 0.0)
    if n >= 2 and energies[0] > ZERO_MODE_RATIO * energies[1]:
        raise DegenerateSubspaceError(
            "no isolated near-zero pair: eps0=%g, eps1=%g" % (energies[0], energies[1])
        )

    for k in range(1, n):
        phi[:, k] = _fix_phase(phi[:, k])

    # The +/- near-zero pair comes back from eigh with some particle-hole
    # partner mixing; rebuild it from PH-invariant vectors of its subspace.
    m1 = _majorana_normalize(evecs[:, n - 1])
    m2_raw = phi[:, 0] - m1 * (m1.conj() @ phi[:, 0])
    m2 = _majorana_normalize(m2_raw)
    if abs(m1.conj() @ m2) > 1e-8:
        raise DegenerateSubspaceError("could not split the near-zero pair")
    phi[:, 0] = _pair_subspace_column(m1, m2, phi[:, 0], energies[0])

    partners = np.column_stack([ph_apply(phi[:, k]) for k in range(n)])
    modes = ChainModes(energies=energies, vectors=np.hstack([phi, partners]))
    return ModeBasis(params=h.params, mu=h.mu, modes=modes)


def _left_weight_operator(n: int) -> np.ndarray:
    half = n // 2
    diag = np.zeros(2 * n)
    diag[:half] = 1.0
    diag[n:n + half] = 1.0
    return diag


def _with_mzms(modes: ChainModes, ga: np.ndarray, gb: np.ndarray) -> ChainModes:
    """Modes whose near-zero column and its partner are rebuilt from an MZM pair."""
    n = modes.n_sites
    vectors = modes.vectors.astype(complex, copy=True)
    vectors[:, 0] = _pair_subspace_column(ga, gb, modes.vectors[:, 0], modes.energies[0])
    vectors[:, n] = ph_apply(vectors[:, 0])
    return ChainModes(energies=modes.energies, vectors=vectors, mzm_left=ga, mzm_right=gb)


def resolve_mzms(basis: ModeBasis) -> ModeBasis:
    """Rotate the chain's near-zero pair onto maximally localized Majoranas.

    The left mode maximizes total weight on the first half of the chain and
    the right mode is its orthogonal complement; signs are fixed so the
    largest-magnitude component of each Majorana vector leads positive.
    """
    modes = basis.modes
    n = modes.n_sites
    u = modes.vectors[:, 0]
    su = ph_apply(u)
    m1 = _majorana_normalize(u)
    m2_raw = su - m1 * (m1.conj() @ su)
    m2 = _majorana_normalize(m2_raw)
    if abs(m1.conj() @ m2) > 1e-8:
        raise DegenerateSubspaceError("near-zero subspace is not particle-hole closed")

    # Left-half weight of cos(t) m1 + sin(t) m2 is c0 + c1 cos(2t) + c2 sin(2t);
    # its maximizer is available in closed form.
    pl = _left_weight_operator(n)
    wa = float(np.sum(pl * np.abs(m1) ** 2))
    wb = float(np.sum(pl * np.abs(m2) ** 2))
    cross = float(np.real(np.sum(pl * m1.conj() * m2)))
    theta = 0.5 * np.arctan2(2.0 * cross, wa - wb)
    ga = np.cos(theta) * m1 + np.sin(theta) * m2
    gb = -np.sin(theta) * m1 + np.cos(theta) * m2

    def left_weight(v):
        return float(np.sum(pl * np.abs(v) ** 2))

    if left_weight(gb) > left_weight(ga):
        ga, gb = gb, ga
    return replace(basis, modes=_with_mzms(modes, _fix_sign(ga), _fix_sign(gb)))


def align_mzm_gauge(basis: ModeBasis, previous: ModeBasis) -> ModeBasis:
    """Match MZM pairing and signs to a previous basis for gauge continuity.

    Without this, the deterministic sign convention can hop between samples of
    a ramp and flip the measured parity spuriously.
    """
    prev = previous.modes
    cur = basis.modes
    if prev.mzm_left is None or cur.mzm_left is None:
        raise DegenerateSubspaceError("both bases must have resolved MZMs")
    ga, gb = cur.mzm_left, cur.mzm_right
    if abs(prev.mzm_left.conj() @ ga) < abs(prev.mzm_left.conj() @ gb):
        ga, gb = gb, ga
    if (prev.mzm_left.conj() @ ga).real < 0:
        ga = -ga
    if (prev.mzm_right.conj() @ gb).real < 0:
        gb = -gb
    if ga is cur.mzm_left and gb is cur.mzm_right:
        return basis
    return replace(basis, modes=_with_mzms(cur, ga, gb))


def resolved_basis(params: ChainParams, mu: float,
                   previous: Optional[ModeBasis] = None) -> ModeBasis:
    """Tetron mode basis at mu with localized MZMs, optionally gauge-continuous."""
    basis = resolve_mzms(diagonalize_chain(build_chain_bdg(params, mu)))
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
