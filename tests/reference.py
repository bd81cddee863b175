"""Test-side references: the 4N tetron states, the chain covariance references and
the site-basis rotation, a 40-digit odd leakage, the dense BdG matrix and
propagator, the realified mode-frame propagators, the sorted SVD of S, a
basis's quasiparticle vectors, the localized MZM vectors and their gauge
alignment, and the dense two-chain Fock space that the oracle's one-chain
factorisation is tested against.

The computational states |0>, |1>, |+> are defined through their complex
correlation matrices in the block layout

    Gamma = [[ <c^dag c>, <c^dag c^dag> ],
             [ <c c>,     <c c^dag>     ]]        (per chain, chains stacked),

matching the operator ordering of :mod:`tetronsim.model`, and converted with
:func:`tetronsim.gaussian.covariance_from_correlation`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from tetronsim.dynamics import LeakageRecord
from tetronsim.errors import BasisMismatchError, InvalidParameterError
from tetronsim.gaussian import (
    QP,
    SITE,
    CorrelationMatrix,
    CovarianceMatrix,
    _zero_mode_slots,
    overlap_sq,
    rotate_to_qp_basis,
)
from tetronsim.model import ChainParams, ModeBasis, _modes_by_energy


class QubitStateLabel(str, enum.Enum):
    ZERO = "zero"
    ONE = "one"
    PLUS = "plus"


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


def rotate_to_site_basis(m: CovarianceMatrix, basis: ModeBasis) -> CovarianceMatrix:
    """M_site = R^T M_qp R for a chain covariance or a stack of them, R = :func:`rotation`."""
    if m.basis != QP:
        raise BasisMismatchError("input must be in the quasiparticle basis")
    n = basis.params.n_sites
    if m.n_sites != n or m.dim != 2 * n:
        raise BasisMismatchError("%d-site matrix of dimension %d does not match a %d-site basis"
                                 % (m.n_sites, m.dim, n))
    r = rotation(basis)
    return CovarianceMatrix(matrix=r.T @ m.matrix @ r, basis=SITE, n_sites=n)


def orientation(basis: ModeBasis) -> int:
    """Sign of det R = det U det V = (-1)^(N(N-1)/2) prod sign(lambda), R = diag(V^T, U^T).

    A pure state's fermion parity is the sign of the Pfaffian of its
    site-basis covariance, and Pf(R^T M R) = det R Pf(M): the
    quasiparticle vacua of two bases have the same parity exactly when
    their orientations agree.  The arbitrary sign of the zero mode's
    lambda, which flips u_0, flips the orientation.
    """
    n = basis.signs.size
    flips = n * (n - 1) // 2 + int(np.count_nonzero(basis.signs < 0.0))
    return -1 if flips % 2 else 1


def _identity_frames(n: int, count: int) -> np.ndarray:
    """``count`` identity propagators in the mode frame, shape (N, count, N)."""
    return np.repeat(np.eye(n, dtype=complex)[:, None], count, axis=1)


def _real_propagators(w: np.ndarray) -> np.ndarray:
    """Every rate's real O = D [[Re W, -Im W], [Im W, Re W]] D, shape (count, 2N, 2N).

    ``w`` stacks the N x N mode-frame propagators as (N, count, N); D = diag(I, J).
    """
    left = np.concatenate([w.real, w.imag[::-1]])
    right = np.concatenate([-w.imag, w.real[::-1]])[..., ::-1]
    return np.concatenate([left, right], axis=-1).swapaxes(0, 1)


def mode_frame_unitary(o: np.ndarray) -> np.ndarray:
    """The N x N complex W with D O D = [[Re W, -Im W], [Im W, Re W]], D = diag(I, J)."""
    n = o.shape[0] // 2
    dod = o.copy()
    dod[n:] = dod[n:][::-1]
    dod[:, n:] = dod[:, n:][:, ::-1]
    return dod[:n, :n] + 1j * dod[n:, :n]


def slater_covariance(c: np.ndarray) -> np.ndarray:
    """Site-basis covariance of the chain state that occupies the orthonormal columns of ``c``.

    In the frame D = diag(I, J) it is the realification of -i (I - 2 C C^H),
    [[Im A, Re A], [-Re A, Im A]] with A = I - 2 C C^H; a basis's vacuum
    occupies its modes with lambda < 0, A = sign(J S).
    """
    n = c.shape[0]
    a = np.eye(n) - 2.0 * c @ c.conj().T
    m = np.block([[a.imag, a.real], [-a.real, a.imag]])
    m[n:] = m[n:][::-1]
    m[:, n:] = m[:, n:][:, ::-1]
    return m


def covariance_leakage(x: np.ndarray, basis: ModeBasis) -> LeakageRecord:
    """The leakage split of |+>, the orbitals ``x``, from the 2N x 2N covariances of E and O.

    With xi = R M R^T per chain state, p = xi[0, N], the MZM parity is
    (p_E^2 + p_O^2)/2 and the ground-state weight (F_E^2 + F_O^2)/2, F the
    determinant overlap with the reference of the state's own parity: the
    vacuum of ``basis`` when the state and that vacuum occupy counts of
    orbitals of the same parity, the occupied-zero-mode state otherwise.
    """
    n, m = x.shape
    chains = CovarianceMatrix(np.array([slater_covariance(x), slater_covariance(x[:, 1:])]),
                              basis=SITE, n_sites=n)
    xi = rotate_to_qp_basis(chains, basis)
    p = xi.matrix[:, 0, n]
    parity = 0.5 * float(p @ p)
    refs = qp_chain_references(n)
    if (m - np.count_nonzero(basis.signs < 0.0)) % 2:
        refs = replace(refs, matrix=refs.matrix[::-1])
    f = overlap_sq(xi, refs)
    l_odd = 0.5 * (1.0 - parity)
    l_g = 1.0 - 0.5 * float(f @ f)
    return LeakageRecord(t=0.0, mu=basis.mu, l_odd=l_odd, l_even=l_g - l_odd, l_g=l_g,
                         parity=parity, purity_defect=xi.purity_defect())


def odd_leakage_mp(orbitals: np.ndarray, basis: ModeBasis, dps: int = 40) -> float:
    """l_odd of |+> in ``basis``, the sum over E and O of n_0 (1 - n_0), at ``dps`` digits.

    n_0 = v_0^T P v_0 / |v_0|^2, with P = X (X^H X)^-1 X^H the projector on the
    span of a state's orbitals X, taken on the float orbitals and v_0 as given.
    """
    import mpmath

    with mpmath.workdps(dps):
        v0 = mpmath.matrix([float(c) for c in basis.v[:, 0]])
        total = mpmath.mpf(0)
        for x in (orbitals, orbitals[:, 1:]):
            xm = mpmath.matrix([[complex(c) for c in row] for row in x])
            a = v0.T * xm
            n0 = mpmath.re((a * mpmath.inverse(xm.H * xm) * a.H)[0]) / (v0.T * v0)[0]
            total += n0 * (1 - n0)
        return float(total)


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


def _fix_sign(x: np.ndarray) -> np.ndarray:
    """Flip a real vector so its largest-magnitude entry is positive."""
    return -x if x[np.argmax(np.abs(x))] < 0 else x


def mzm_pair(basis: ModeBasis) -> Tuple[np.ndarray, np.ndarray]:
    """Localized (left, right) MZM vectors of one chain in chain coordinates (c, c^dag).

    The MZMs are the zero singular vectors, (v_0, v_0)/sqrt(2) and
    (-i u_0, i u_0)/sqrt(2); the one with more weight on the first half of
    the chain is the left one, and each real v_0, u_0 has its largest entry
    positive.
    """
    # u_0 = J v_0 sign(lambda_0); _fix_sign drops the sign
    v0, u0 = _fix_sign(basis.v[:, 0]), _fix_sign(basis.v[::-1, 0])
    left = np.concatenate([v0, v0]) / np.sqrt(2.0)
    right = np.concatenate([-1j * u0, 1j * u0]) / np.sqrt(2.0)
    half = basis.params.n_sites // 2
    if np.sum(u0[:half] ** 2) > np.sum(v0[:half] ** 2):
        left, right = right, left
    return left, right


def mzm_vectors(basis: ModeBasis) -> Tuple[np.ndarray, ...]:
    """Majorana vectors ordered (left, right) per chain, in chain coordinates."""
    return mzm_pair(basis) * 2


def align_mzm_gauge(pair: Tuple[np.ndarray, np.ndarray],
                    previous: Tuple[np.ndarray, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Match an MZM pair's order and signs to a previous pair for gauge continuity.

    Without this, the deterministic sign convention can hop between samples of
    a ramp and flip the MZM overlaps spuriously.
    """
    pa, pb = previous
    ga, gb = pair
    if abs(pa.conj() @ ga) < abs(pa.conj() @ gb):
        ga, gb = gb, ga
    if (pa.conj() @ ga).real < 0:
        ga = -ga
    if (pb.conj() @ gb).real < 0:
        gb = -gb
    return ga, gb


def chain_svd(params: ChainParams, mu: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, Sigma, V) with S = U diag(Sigma) V^T, Sigma ascending: J Q sign(lambda), |lambda|, Q."""
    sig, signs, v = _modes_by_energy(params, mu)
    return v[::-1] * signs, sig, v


def dense_propagator(factors: Tuple[np.ndarray, np.ndarray, np.ndarray],
                     dt: float) -> np.ndarray:
    """Exact one-chain step O = Omega* e^{i H dt} Omega^T as one dense 2N x 2N matrix.

    ``factors`` is an SVD (U, Sigma, V^T) of S = A + B, for the
    H = [[A, B], [-B, -A]] frozen at one mu: ``np.linalg.svd`` returns one,
    and :func:`chain_svd` gives (U, Sigma, V).  It gives the
    real orthogonal

        O = [[ V cos(Sigma dt) V^T, V sin(Sigma dt) U^T ],
             [-U sin(Sigma dt) V^T, U cos(Sigma dt) U^T ]].
    """
    u, sig, vt = factors
    v = vt.T
    cos = np.cos(sig * dt)
    sin = np.sin(sig * dt)
    n = sig.size
    o = np.empty((2 * n, 2 * n))
    np.matmul(v * cos, vt, out=o[:n, :n])
    np.matmul(v * sin, u.T, out=o[:n, n:])
    np.matmul(-(u * sin), vt, out=o[n:, :n])
    np.matmul(u * cos, u.T, out=o[n:, n:])
    return o


def rotation(basis: ModeBasis) -> np.ndarray:
    """Real orthogonal R = diag(V^T, U^T) of one chain.

    R carries a site-basis covariance of the chain into the quasiparticle
    basis, M_qp = R M_site R^T.
    """
    n = basis.v.shape[0]
    r = np.zeros((2 * n, 2 * n))
    r[:n, :n] = basis.v.T
    r[n:, n:] = basis.u.T
    return r


def reflected(basis: ModeBasis) -> ModeBasis:
    """The same basis with the sign of lambda_0 flipped.

    That flips u_0 and keeps v_0: the zero-mode plane of R is reflected and
    the orientation reversed.
    """
    signs = basis.signs.copy()
    signs[0] *= -1.0
    return replace(basis, signs=signs)


def hermiticity_defect(g: CorrelationMatrix) -> float:
    return float(np.max(np.abs(g.matrix - g.matrix.conj().T)))


def correlation_purity_defect(g: CorrelationMatrix) -> float:
    q = 2.0 * g.matrix - np.eye(g.dim)
    return float(np.max(np.abs(q @ q - np.eye(g.dim))))


def antisymmetry_defect(m: CovarianceMatrix) -> float:
    return float(np.max(np.abs(m.matrix + m.matrix.swapaxes(-1, -2))))


# ---------------------------------------------------------------------------
# The dense two-chain Fock space, built here from params alone
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def jordan_wigner(n_modes: int) -> np.ndarray:
    """The real Jordan-Wigner annihilators of ``n_modes`` modes, (n_modes, 2^n, 2^n), read-only."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    zmat = np.diag([1.0, -1.0])
    c = np.array([functools.reduce(np.kron, [zmat] * j + [lower] + [np.eye(2)] * (n_modes - j - 1))
                  for j in range(n_modes)])
    c.setflags(write=False)
    return c


def tetron_annihilators(params: ChainParams) -> np.ndarray:
    """The tetron's 2N annihilators on the two-chain Fock space, chain 1's sites then chain 2's."""
    return jordan_wigner(2 * params.n_sites)


def reference_fock_hamiltonian(params: ChainParams, mu: float) -> np.ndarray:
    """The two-chain H(mu), summed term by term from :func:`tetron_annihilators`."""
    n = params.n_sites
    c = tetron_annihilators(params)
    cdag = c.transpose(0, 2, 1)
    w, delta = params.hopping, params.pairing
    eye = np.eye(c.shape[1])
    h = np.zeros_like(eye)
    for off in (0, n):
        for j in range(off, off + n):
            h += -mu * (cdag[j] @ c[j] - 0.5 * eye)
        for j in range(off, off + n - 1):
            h += -w * (cdag[j] @ c[j + 1] + cdag[j + 1] @ c[j])
            h += delta * (c[j] @ c[j + 1] + cdag[j + 1] @ cdag[j])
    return h


def dense_fock_step(params: ChainParams, psi: np.ndarray, mu: float, dt: float) -> np.ndarray:
    """exp(-i H(mu) dt) psi with a dense ``eigh`` of :func:`reference_fock_hamiltonian`."""
    evals, q = np.linalg.eigh(reference_fock_hamiltonian(params, mu))
    return q @ (np.exp(-1j * evals * dt) * (q.T @ psi))


def basis_vectors(basis: ModeBasis) -> np.ndarray:
    """Unitary [[P, Q], [Q, P]] of a basis, with P = (v + u)/2, Q = (v - u)/2.

    The first N columns are the modes of energy +energies, the last N
    their tau_x K partners at -energies.
    """
    p = (basis.v + basis.u) / 2.0
    q = (basis.v - basis.u) / 2.0
    return np.block([[p, q], [q, p]])


def qp_annihilator(params: ChainParams, column: np.ndarray, chain: int) -> np.ndarray:
    """The quasiparticle annihilator of one :func:`basis_vectors` column on one chain, dense."""
    n = params.n_sites
    c = tetron_annihilators(params)[chain * n:(chain + 1) * n]
    return np.tensordot(column[:n], c, axes=1) + np.tensordot(column[n:], c, axes=1).T


def dense_ground_states(params: ChainParams, basis: ModeBasis) -> Tuple[np.ndarray, np.ndarray]:
    """The tetron's quasiparticle vacuum |0> and d_{0,1}^dag d_{0,2}^dag |0>, dense.

    |0> is the zero eigenvector of the number operator of both chains' N
    quasiparticles; its overall sign is arbitrary.
    """
    n = params.n_sites
    vectors = basis_vectors(basis)
    d = [qp_annihilator(params, vectors[:, k], chain) for chain in (0, 1) for k in range(n)]
    _, evecs = np.linalg.eigh(sum(op.T @ op for op in d))
    vac = evecs[:, 0]
    one = d[0].T @ (d[n].T @ vac)
    return vac, one / np.linalg.norm(one)


def dense_mzm_parity(params: ChainParams, basis: ModeBasis) -> np.ndarray:
    """The MZM parity -g1 g2 g3 g4 as one dense two-chain Fock-space matrix."""
    column = basis_vectors(basis)[:, 0]
    d1 = qp_annihilator(params, column, 0)
    d2 = qp_annihilator(params, column, 1)
    return (d1 + d1.T) @ (d1 - d1.T) @ (d2 + d2.T) @ (d2 - d2.T)


def chain_parities(params: ChainParams) -> np.ndarray:
    """Each two-chain basis state's fermion parity on chain 1 and on chain 2, shape (2, 4^N)."""
    n = params.n_sites
    c = tetron_annihilators(params)
    occupation = np.array([np.diag(a.T @ a) for a in c])
    return np.prod(1.0 - 2.0 * occupation.reshape(2, n, -1), axis=1)


def two_chain_state(x: np.ndarray) -> np.ndarray:
    """(|E>|E> + |O>|O>)/sqrt(2) of one chain's two states, the columns of ``x``, dense."""
    return (np.kron(x[:, 0], x[:, 0]) + np.kron(x[:, 1], x[:, 1])) / np.sqrt(2.0)


def total_parity_op(params: ChainParams) -> np.ndarray:
    """Total fermion parity prod_j (1 - 2 n_j) of both chains, as a diagonal matrix."""
    return np.diag(np.prod(chain_parities(params), axis=0))


def total_parity(params: ChainParams, psi: np.ndarray) -> float:
    return float((psi.conj() @ (total_parity_op(params) @ psi)).real)
