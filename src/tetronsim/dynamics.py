"""Time evolution of the tetron Gaussian state and an exact small-N oracle.

A trajectory starts from the equal superposition of the two even-parity
ground states at mu_in.  Its real site-basis Majorana covariance is
propagated with the frozen Hamiltonian of each step,

    M(t + dt) = O M(t) O^T,   O = Omega* e^{i H(t) dt} Omega^T,

where O is real orthogonal and acts on each chain alike.  Steps and samples
share one decomposition, the real SVD S(mu) = U Sigma V^T of
:func:`tetronsim.model.chain_s`: it gives O in closed form, and a sample
rotates M with R = diag(V^T, U^T) into the instantaneous quasiparticle basis,
where the parity Pfaffian and the ground-state overlaps give the leakage
split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidParameterError, StepSizeTooCoarse
from .gaussian import (
    CovarianceMatrix,
    QubitStateLabel,
    conjugate_chains,
    covariance_from_correlation,
    ground_state_qp_correlation,
    overlap_sq,
    parity_expectation,
    qp_occupied_pair_covariance,
    qp_vacuum_covariance,
    rotate_to_qp_basis,
    rotate_to_site_basis,
)
from .model import ChainParams, ModeBasis, RampProtocol, chain_s, is_topological, resolved_basis

DEFAULT_STEPS_PER_SPAN = 2000
DEFAULT_SAMPLE_COUNT = 200


@dataclass(frozen=True)
class SteppingPolicy:
    """Discretization controls for ramp evolution.

    ``max_dmu_per_step`` defaults to the ramp span divided by
    ``DEFAULT_STEPS_PER_SPAN``.  With ``richardson`` enabled the trajectory is
    recomputed at half the step size and the relative change of the final
    total leakage is exposed as ``Trajectory.richardson_defect``.
    """

    max_dmu_per_step: Optional[float] = None
    purity_tol: float = 1e-6
    richardson: bool = False

    def __post_init__(self):
        for name in ("max_dmu_per_step", "purity_tol"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise InvalidParameterError("%s must be positive and finite, got %r"
                                            % (name, value))

    def resolved_dmu(self, span: float) -> float:
        if self.max_dmu_per_step is not None:
            return self.max_dmu_per_step
        return max(abs(span), 1e-300) / DEFAULT_STEPS_PER_SPAN


@dataclass(frozen=True)
class LeakageRecord:
    """One sampled point of a leakage trajectory."""

    t: float
    mu: float
    l_odd: float
    l_even: float
    l_g: float
    parity: float
    purity_defect: float


class Trajectory(list):
    """Sequence of LeakageRecord with an optional step-halving diagnostic."""

    richardson_defect: Optional[float] = None


def _chain_propagator(params: ChainParams, mu: float, dt: float) -> np.ndarray:
    """Exact one-chain step O = Omega* e^{i H dt} Omega^T in the Majorana basis.

    With H = [[A, B], [-B, -A]] and real A, B, the SVD S = A + B = U Sigma V^T
    gives the real orthogonal

        O = [[ V cos(Sigma dt) V^T, V sin(Sigma dt) U^T ],
             [-U sin(Sigma dt) V^T, U cos(Sigma dt) U^T ]],

    which is cheaper than diagonalizing the full 2N x 2N matrix and agrees
    with it to machine precision.
    """
    u, sig, vt = np.linalg.svd(chain_s(params, mu))
    v = vt.T
    cos = np.cos(sig * dt)
    sin = np.sin(sig * dt)
    return np.block([
        [(v * cos) @ vt, (v * sin) @ u.T],
        [-(u * sin) @ vt, (u * cos) @ u.T],
    ])


def _segment_propagator(params: ChainParams, protocol: RampProtocol,
                        t_a: float, t_b: float, dmu: float) -> np.ndarray:
    """Accumulated one-chain Majorana-basis step over [t_a, t_b].

    The chemical potential is frozen at the left endpoint of each sub-step,
    and the number of sub-steps keeps the per-step mu change below dmu.
    """
    span = abs(protocol.mu_at(t_b) - protocol.mu_at(t_a))
    n_steps = max(1, math.ceil(span / dmu - 1e-12))
    dt = (t_b - t_a) / n_steps
    o = np.eye(2 * params.n_sites)
    for i in range(n_steps):
        mu = protocol.mu_at(t_a + i * dt)
        o = _chain_propagator(params, mu, dt) @ o
    return o


def initial_plus_state(params: ChainParams, mu_in: float) -> Tuple[CovarianceMatrix, ModeBasis]:
    """Site-basis covariance of |+> at mu_in and the basis it was built in."""
    basis = resolved_basis(params, mu_in)
    plus = covariance_from_correlation(
        ground_state_qp_correlation(params.n_sites, QubitStateLabel.PLUS))
    return rotate_to_site_basis(plus, basis), basis


def measure_leakage(state: CovarianceMatrix, basis: ModeBasis,
                    t: float = 0.0) -> LeakageRecord:
    """Leakage split of a site-basis state against an instantaneous basis."""
    xi = rotate_to_qp_basis(state, basis)
    parity = parity_expectation(xi)
    l_odd = 0.5 * (1.0 - parity)
    o0 = overlap_sq(xi, qp_vacuum_covariance(basis.params.n_sites))
    o1 = overlap_sq(xi, qp_occupied_pair_covariance(basis.params.n_sites))
    l_g_raw = 1.0 - o0 - o1
    l_even = l_g_raw - l_odd
    return LeakageRecord(
        t=t,
        mu=basis.mu,
        l_odd=l_odd,
        l_even=l_even,
        l_g=l_odd + l_even,
        parity=parity,
        purity_defect=xi.purity_defect(),
    )


def default_sample_times(duration: float, count: int = DEFAULT_SAMPLE_COUNT) -> np.ndarray:
    return np.linspace(0.0, duration, count + 1)


def _normalize_samples(sample_times, duration: float) -> np.ndarray:
    if sample_times is None:
        return default_sample_times(duration)
    ts = np.atleast_1d(np.asarray(sample_times, dtype=float))
    if ts.size and (ts.min() < -1e-12 or ts.max() > duration * (1 + 1e-12)):
        raise InvalidParameterError("sample times must lie within [0, T]")
    ts = np.clip(ts, 0.0, duration)
    ts = np.union1d(ts, [0.0, duration])
    return ts


def _evolve_once(params: ChainParams, protocol: RampProtocol, dmu: float,
                 samples: np.ndarray, purity_tol: float) -> Trajectory:
    state, basis = initial_plus_state(params, protocol.mu_in)
    records = Trajectory()
    records.append(measure_leakage(state, basis, t=0.0))
    _check_purity(records[-1], purity_tol)
    prev_basis = basis
    for t_a, t_b in zip(samples[:-1], samples[1:]):
        if t_b <= t_a:
            continue
        o = _segment_propagator(params, protocol, t_a, t_b, dmu)
        state = replace(state, matrix=conjugate_chains(o, state.matrix))
        cur_basis = resolved_basis(params, protocol.mu_at(t_b), previous=prev_basis)
        records.append(measure_leakage(state, cur_basis, t=float(t_b)))
        _check_purity(records[-1], purity_tol)
        prev_basis = cur_basis
    return records


def _check_purity(record: LeakageRecord, tol: float) -> None:
    if record.purity_defect > tol:
        raise StepSizeTooCoarse(
            "purity defect %g exceeds tolerance %g at t=%g"
            % (record.purity_defect, tol, record.t)
        )


def evolve_ramp(params: ChainParams, protocol: RampProtocol,
                policy: Optional[SteppingPolicy] = None,
                sample_times: Optional[Sequence[float]] = None) -> Trajectory:
    """Evolve |+> through a linear chemical-potential ramp.

    Returns one LeakageRecord per sample time (t=0 and t=T always included).
    The ramp must stay inside the topological phase throughout.
    """
    policy = policy or SteppingPolicy()
    protocol.validate_topological(params)
    duration = protocol.duration
    samples = _normalize_samples(sample_times, duration)
    dmu = policy.resolved_dmu(protocol.mu_fin - protocol.mu_in)
    records = _evolve_once(params, protocol, dmu, samples, policy.purity_tol)
    if policy.richardson:
        fine = _evolve_once(params, protocol, dmu / 2.0, samples, policy.purity_tol)
        coarse_lg = records[-1].l_g
        fine_lg = fine[-1].l_g
        scale = max(abs(fine_lg), 1e-300)
        records.richardson_defect = abs(coarse_lg - fine_lg) / scale
    return records


def sudden_quench(params: ChainParams, mu_in: float, mu_fin: float) -> LeakageRecord:
    """Leakage of |+> built at mu_in when re-read in the mu_fin basis.

    This is the infinite-rate limit of the ramp: no time evolution happens,
    only the instantaneous computational basis changes.
    """
    for mu in (mu_in, mu_fin):
        if not is_topological(mu, params.hopping, params.pairing):
            raise InvalidParameterError("mu=%g is outside the topological phase" % mu)
    state, basis_in = initial_plus_state(params, mu_in)
    basis_fin = resolved_basis(params, mu_fin, previous=basis_in)
    return measure_leakage(state, basis_fin, t=0.0)


# ---------------------------------------------------------------------------
# Exact Fock-space oracle for small chains
# ---------------------------------------------------------------------------

MAX_ORACLE_SITES = 3


class FockSpace:
    """Dense many-body operators for a tetron with at most 3 sites per chain.

    Jordan-Wigner ordering runs through chain 1's sites then chain 2's, the
    same layout as the single-particle operator vector.
    """

    def __init__(self, params: ChainParams):
        if params.n_sites > MAX_ORACLE_SITES:
            raise InvalidParameterError(
                "Fock oracle limited to n_sites <= %d" % MAX_ORACLE_SITES
            )
        self.params = params
        n_modes = 2 * params.n_sites
        self.dim = 2 ** n_modes
        lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        zmat = np.diag([1.0, -1.0]).astype(complex)
        eye2 = np.eye(2, dtype=complex)
        self.c = []
        for j in range(n_modes):
            ops = [zmat] * j + [lower] + [eye2] * (n_modes - j - 1)
            mat = ops[0]
            for op in ops[1:]:
                mat = np.kron(mat, op)
            self.c.append(mat)
        self.cdag = [m.conj().T for m in self.c]
        parity = np.eye(self.dim, dtype=complex)
        for j in range(n_modes):
            parity = parity @ (np.eye(self.dim) - 2.0 * self.cdag[j] @ self.c[j])
        self.total_parity_op = parity

    def hamiltonian(self, mu: float) -> np.ndarray:
        n = self.params.n_sites
        w, delta = self.params.hopping, self.params.pairing
        h = np.zeros((self.dim, self.dim), dtype=complex)
        eye = np.eye(self.dim)
        for lam in range(2):
            off = lam * n
            for j in range(n):
                h += -mu * (self.cdag[off + j] @ self.c[off + j] - 0.5 * eye)
            for j in range(n - 1):
                h += -w * (self.cdag[off + j] @ self.c[off + j + 1]
                           + self.cdag[off + j + 1] @ self.c[off + j])
                h += delta * (self.c[off + j] @ self.c[off + j + 1]
                              + self.cdag[off + j + 1] @ self.cdag[off + j])
        return h

    def qp_annihilator(self, column: np.ndarray, chain: int) -> np.ndarray:
        n = self.params.n_sites
        off = chain * n
        op = np.zeros((self.dim, self.dim), dtype=complex)
        for i in range(n):
            op += column[i].conj() * self.c[off + i]
            op += column[n + i].conj() * self.cdag[off + i]
        return op

    def ground_states(self, basis: ModeBasis):
        """Vacuum |0_t>, paired-excitation |1_t>, and the MZM-parity operator."""
        v = basis.vectors
        n = self.params.n_sites
        d_ops = [self.qp_annihilator(v[:, k], lam) for lam in range(2) for k in range(n)]
        number = sum(op.conj().T @ op for op in d_ops)
        evals, evecs = np.linalg.eigh(number)
        if evals[0] > 1e-8 or evals[1] < 0.5:
            raise InvalidParameterError("quasiparticle vacuum is not isolated")
        vac = evecs[:, 0]
        d0_1 = d_ops[0]
        d0_2 = d_ops[n]
        one = d0_1.conj().T @ (d0_2.conj().T @ vac)
        one = one / np.linalg.norm(one)
        g1 = d0_1 + d0_1.conj().T
        g2 = 1j * (d0_1 - d0_1.conj().T)
        g3 = d0_2 + d0_2.conj().T
        g4 = 1j * (d0_2 - d0_2.conj().T)
        parity_op = -g1 @ g2 @ g3 @ g4
        return vac, one, parity_op

    def measure(self, psi: np.ndarray, basis: ModeBasis, t: float) -> LeakageRecord:
        vac, one, parity_op = self.ground_states(basis)
        parity = float((psi.conj() @ (parity_op @ psi)).real)
        l_odd = 0.5 * (1.0 - parity)
        l_g_raw = 1.0 - abs(vac.conj() @ psi) ** 2 - abs(one.conj() @ psi) ** 2
        l_even = l_g_raw - l_odd
        return LeakageRecord(
            t=t,
            mu=basis.mu,
            l_odd=l_odd,
            l_even=l_even,
            l_g=l_odd + l_even,
            parity=parity,
            purity_defect=abs(float(np.linalg.norm(psi)) - 1.0),
        )

    def total_parity(self, psi: np.ndarray) -> float:
        return float((psi.conj() @ (self.total_parity_op @ psi)).real)


def fock_oracle(params: ChainParams,
                protocol: Optional[RampProtocol] = None,
                quench: Optional[Tuple[float, float]] = None,
                policy: Optional[SteppingPolicy] = None,
                sample_times: Optional[Sequence[float]] = None) -> Trajectory:
    """Exact state-vector reference computation on the full Fock space.

    Exactly one of ``protocol`` (linear ramp) or ``quench`` ((mu_in, mu_fin))
    must be given.  Ramps use the same left-endpoint frozen-Hamiltonian grid
    as :func:`evolve_ramp`, so the two methods are directly comparable.
    """
    if (protocol is None) == (quench is None):
        raise InvalidParameterError("provide exactly one of protocol or quench")
    space = FockSpace(params)
    policy = policy or SteppingPolicy()

    if quench is not None:
        mu_in, mu_fin = quench
        basis_in = resolved_basis(params, mu_in)
        vac, one, _ = space.ground_states(basis_in)
        psi = (vac + one) / np.sqrt(2.0)
        basis_fin = resolved_basis(params, mu_fin, previous=basis_in)
        records = Trajectory()
        records.append(space.measure(psi, basis_fin, t=0.0))
        return records

    protocol.validate_topological(params)
    duration = protocol.duration
    samples = _normalize_samples(sample_times, duration)
    dmu = policy.resolved_dmu(protocol.mu_fin - protocol.mu_in)
    basis = resolved_basis(params, protocol.mu_in)
    vac, one, _ = space.ground_states(basis)
    psi = (vac + one) / np.sqrt(2.0)
    records = Trajectory()
    records.append(space.measure(psi, basis, t=0.0))
    prev_basis = basis
    for t_a, t_b in zip(samples[:-1], samples[1:]):
        if t_b <= t_a:
            continue
        span = abs(protocol.mu_at(t_b) - protocol.mu_at(t_a))
        n_steps = max(1, math.ceil(span / dmu - 1e-12))
        dt = (t_b - t_a) / n_steps
        for i in range(n_steps):
            mu = protocol.mu_at(t_a + i * dt)
            evals, q = np.linalg.eigh(space.hamiltonian(mu))
            psi = q @ (np.exp(-1j * evals * dt) * (q.conj().T @ psi))
        cur_basis = resolved_basis(params, protocol.mu_at(t_b), previous=prev_basis)
        records.append(space.measure(psi, cur_basis, t=float(t_b)))
        prev_basis = cur_basis
    return records
