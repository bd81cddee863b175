"""Time evolution of the tetron Gaussian state and an exact small-N oracle.

A trajectory starts from the equal superposition |+> of the two even-parity
ground states at mu_in.  The two chains are identical, uncoupled and each
conserves its fermion parity, so the evolution is U x U and the evolved state
stays (|E>|E> + |O>|O>)/sqrt(2): E is one chain's evolved quasiparticle
vacuum and O the same chain with the zero mode occupied.  :class:`PlusState`
carries their real site-basis Majorana covariances, each propagated with the
frozen Hamiltonian of each step,

    M(t + dt) = O M(t) O^T,   O = Omega* e^{i H(t) dt} Omega^T,

where O is real orthogonal.  S(mu) of :func:`tetronsim.model.chain_s` is
persymmetric, so one symmetric ``eigh``, J S = Q Lambda Q^T
(:func:`tetronsim.model.chain_eigh`), gives O with D = diag(I, J) as

    O = D (I_2 x Q) [[cos Lambda dt, sin Lambda dt], [-sin Lambda dt, cos Lambda dt]]
          (I_2 x Q^T) D.

A segment's propagator P is carried in this mode frame, as the complex N x 2N
Z = P~_top + i P~_bottom of P~ = D P D; a step is Z <- Q e^{-i Lambda dt} Q^T Z.
The mu grid does not depend on the ramp rate, so the Z of a sweep's rates are
stacked: a step is one ``eigh``, two real GEMMs and a phase per rate
(:func:`evolve_rates`; :func:`evolve_ramp` is the one-rate case).  At a sample
O = D [Re Z; Im Z] D propagates both covariances, and R = diag(V^T, U^T)
rotates them into the quasiparticle basis, where their zero-mode entries give
the MZM parity and their ground-state overlaps the leakage split
(:func:`measure_leakage`).

The oracle, :func:`fock_oracle`, steps the full two-chain Fock-space state
vector of a chain of at most 3 sites on the same frozen-Hamiltonian grid.  Its
Hamiltonian is real and linear in mu, H(mu) = H0 + mu H1, with both parts
built once per :class:`FockSpace`.  It conserves the fermion parity of each
chain, so each step is one batched real symmetric ``eigh`` of its four
chain-parity blocks (16 x 16 at N = 3), applied block by block to the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InvalidParameterError, StepSizeTooCoarse
from .gaussian import (
    CovarianceMatrix,
    overlap_sq,
    qp_chain_references,
    rotate_to_qp_basis,
    rotate_to_site_basis,
)
from .model import (
    ChainParams,
    ModeBasis,
    RampProtocol,
    chain_eigh,
    require_topological,
    resolved_basis,
)

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
    """Sequence of LeakageRecord with its step count and a step-halving diagnostic."""

    n_steps: Optional[int] = None
    richardson_defect: Optional[float] = None

    @property
    def max_purity_defect(self) -> float:
        """The largest purity defect of the sampled records."""
        return max(r.purity_defect for r in self)


# One rate's result: its trajectory, or the purity failure that stopped it.
Outcome = Union[Trajectory, StepSizeTooCoarse]


def _chain_propagator(lam: np.ndarray, dt: float) -> np.ndarray:
    """One rate's step in the mode frame: the phases exp(-i lambda dt).

    ``lam`` holds the eigenvalues of J S, from :func:`tetronsim.model.chain_eigh`
    or the :attr:`ModeBasis.eigenvalues` of a basis; the order does not matter.
    """
    return np.exp(-1j * dt * lam)


def _identity_frames(n: int, count: int) -> np.ndarray:
    """``count`` identity propagators in the mode frame, shape (N, count, 2N)."""
    eye = np.eye(n)
    return np.repeat(np.hstack([eye, 1j * eye])[:, None], count, axis=1)


def _mode_step(z: np.ndarray, q: np.ndarray, phases: np.ndarray, work: np.ndarray) -> None:
    """Z <- Q (phases * (Q^T Z)) in place, one row of ``phases`` per rate.

    Q is real, so each product is one real GEMM on the complex arrays viewed
    as floats; ``work`` is scratch of the shape of ``z``.
    """
    n = q.shape[0]
    flat, scratch = z.view(float).reshape(n, -1), work.view(float).reshape(n, -1)
    np.matmul(q.T, flat, out=scratch)
    work *= phases.T[:, :, None]
    np.matmul(q, scratch, out=flat)


def _real_propagators(z: np.ndarray) -> np.ndarray:
    """Every rate's real O = D [Re Z; Im Z] D, shape (count, 2N, 2N)."""
    n = z.shape[0]
    rows = np.concatenate([z.real, z.imag[::-1]])
    return np.concatenate([rows[..., :n], rows[..., :n - 1:-1]], axis=-1).swapaxes(0, 1)


def _step_mus(mu_a: float, mu_b: float, dmu: float) -> np.ndarray:
    """Left endpoints of the equal steps from mu_a to mu_b, each at most dmu long.

    The grid depends on mu alone, not on the ramp rate.
    """
    n_steps = max(1, math.ceil(abs(mu_b - mu_a) / dmu - 1e-12))
    return mu_a + np.arange(n_steps) * ((mu_b - mu_a) / n_steps)


def _sample_mus(protocol: RampProtocol, samples: np.ndarray) -> list:
    """mu at each sample time, with the last sample at mu_fin exactly."""
    return [protocol.mu_at(t) for t in samples[:-1]] + [protocol.mu_fin]


@dataclass(frozen=True)
class PlusState:
    """|+> as the two single-chain states E and O that it is made of.

    ``chains`` holds their site-basis covariances as a (2, 2N, 2N) stack, E
    first.  ``orientation`` is the :attr:`ModeBasis.orientation` of the basis
    they were built in: E has the fermion parity of that basis's vacuum, O
    the opposite one.
    """

    chains: CovarianceMatrix
    orientation: int

    def propagated(self, o: np.ndarray) -> "PlusState":
        """Both chain states after the one-chain step O: M <- O M O^T."""
        return replace(self, chains=replace(self.chains, matrix=o @ self.chains.matrix @ o.T))


def initial_plus_state(params: ChainParams, mu_in: float) -> Tuple[PlusState, ModeBasis]:
    """|+> at mu_in, as its two site-basis chain states, and the basis it was built in."""
    basis = resolved_basis(params, mu_in)
    chains = rotate_to_site_basis(qp_chain_references(params.n_sites), basis)
    return PlusState(chains, basis.orientation), basis


def measure_leakage(state: PlusState, basis: ModeBasis, t: float = 0.0) -> LeakageRecord:
    """Leakage split of |+> against an instantaneous basis.

    With xi = R M R^T for each chain state and p = xi[0, N], the MZM parity
    is (p_E^2 + p_O^2)/2 and the ground-state weight (F_E^2 + F_O^2)/2, where
    F is a state's squared overlap with the one reference of its own fermion
    parity: the vacuum of ``basis`` for E when the orientations of the two
    bases agree, the occupied state otherwise, and the other one for O.  The
    purity defect is the larger of the two states' defects.
    """
    n = basis.params.n_sites
    xi = rotate_to_qp_basis(state.chains, basis)
    p = xi.matrix[:, 0, n]
    parity = 0.5 * float(p @ p)
    l_odd = 0.5 * (1.0 - parity)
    refs = qp_chain_references(n)
    if basis.orientation != state.orientation:
        refs = replace(refs, matrix=refs.matrix[::-1])
    f = overlap_sq(xi, refs)
    l_g_raw = 1.0 - 0.5 * float(f @ f)
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
    """Sorted, duplicate-free sample times in [0, T] that include 0 and T."""
    if sample_times is None:
        sample_times = default_sample_times(duration)
    ts = np.atleast_1d(np.asarray(sample_times, dtype=float))
    if ts.size and (ts.min() < -1e-12 or ts.max() > duration * (1 + 1e-12)):
        raise InvalidParameterError("sample times must lie within [0, T]")
    ts = np.clip(ts, 0.0, duration)
    return np.union1d(ts, [0.0, duration])


def _check_purity(record: LeakageRecord, tol: float) -> None:
    if record.purity_defect > tol:
        raise StepSizeTooCoarse(
            "purity defect %g exceeds tolerance %g at t=%g"
            % (record.purity_defect, tol, record.t)
        )


def _evolve_lockstep(params: ChainParams, mus: Sequence[float], times: Sequence[np.ndarray],
                     dmu: float, purity_tol: float) -> List[Outcome]:
    """Step one mu path at several rates together.

    Every rate is sampled at the chemical potentials ``mus``; ``times[j]``
    holds rate j's sample times.  Each step takes one :func:`chain_eigh` of
    S(mu) on the rate-independent grid of :func:`_step_mus` and advances the
    mode-frame propagator of every rate still running, with that rate's own
    dt.  A segment's first step sits at the sample mu just resolved, so it
    takes its eigenvalues and vectors from that basis.  |+>, the basis of each sample and the
    record at t = 0, where every rate starts, are built once for all rates.

    Returns, per rate, its Trajectory, with ``n_steps`` the number of steps
    it took, or the StepSizeTooCoarse that stopped it.  Failures of the
    shared work (|+>, a basis resolve) raise.
    """
    state, basis = initial_plus_state(params, mus[0])
    states = [state] * len(times)

    def checked(record: LeakageRecord, trajectory: Trajectory) -> Outcome:
        try:
            _check_purity(record, purity_tol)
        except StepSizeTooCoarse as exc:
            return exc
        trajectory.append(record)
        return trajectory

    first = measure_leakage(state, basis, t=float(times[0][0]))
    outcomes = [checked(first, Trajectory()) for _ in times]
    n_steps = 0
    for k in range(len(mus) - 1):
        live = [j for j, out in enumerate(outcomes) if isinstance(out, Trajectory)]
        if not live:
            break
        grid = _step_mus(mus[k], mus[k + 1], dmu)
        n_steps += len(grid)
        dts = [(times[j][k + 1] - times[j][k]) / len(grid) for j in live]
        z = _identity_frames(params.n_sites, len(live))
        work = np.empty_like(z)
        for i, mu in enumerate(grid):
            lam, q = (basis.eigenvalues, basis.v) if i == 0 else chain_eigh(params, mu)
            _mode_step(z, q, np.array([_chain_propagator(lam, dt) for dt in dts]), work)
        basis = resolved_basis(params, mus[k + 1])
        for j, o in zip(live, _real_propagators(z)):
            states[j] = states[j].propagated(o)
            record = measure_leakage(states[j], basis, t=float(times[j][k + 1]))
            outcomes[j] = checked(record, outcomes[j])
    for out in outcomes:
        if isinstance(out, Trajectory):
            out.n_steps = n_steps
    return outcomes


def _evolve(params: ChainParams, mus: Sequence[float], times: Sequence[np.ndarray],
            policy: SteppingPolicy) -> List[Outcome]:
    """:func:`_evolve_lockstep` with the policy's step, plus its Richardson rerun.

    A rate whose rerun at half the step fails takes the rerun's failure.
    """
    dmu = policy.resolved_dmu(mus[-1] - mus[0])
    outcomes = _evolve_lockstep(params, mus, times, dmu, policy.purity_tol)
    ok = [j for j, out in enumerate(outcomes) if isinstance(out, Trajectory)]
    if policy.richardson and ok:
        fine = _evolve_lockstep(params, mus, [times[j] for j in ok], dmu / 2.0,
                                policy.purity_tol)
        for j, rerun in zip(ok, fine):
            if not isinstance(rerun, Trajectory):
                outcomes[j] = rerun
                continue
            coarse_lg = outcomes[j][-1].l_g
            fine_lg = rerun[-1].l_g
            scale = max(abs(fine_lg), 1e-300)
            outcomes[j].richardson_defect = abs(coarse_lg - fine_lg) / scale
    return outcomes


def evolve_ramp(params: ChainParams, protocol: RampProtocol,
                policy: Optional[SteppingPolicy] = None,
                sample_times: Optional[Sequence[float]] = None) -> Trajectory:
    """Evolve |+> through a linear chemical-potential ramp.

    Returns one LeakageRecord per sample time (t=0 and t=T always included).
    The ramp must stay inside the topological phase throughout.
    """
    require_topological(params, protocol.mu_in, protocol.mu_fin)
    samples = _normalize_samples(sample_times, protocol.duration)
    [outcome] = _evolve(params, _sample_mus(protocol, samples), [samples],
                        policy or SteppingPolicy())
    if not isinstance(outcome, Trajectory):
        raise outcome
    return outcome


def evolve_rates(params: ChainParams, mu_in: float, mu_fin: float, rates: Sequence[float],
                 policy: Optional[SteppingPolicy] = None) -> List[Outcome]:
    """End-of-ramp leakage of one mu_in -> mu_fin ramp at each of several rates.

    The rates share the mu grid, so one decomposition per step serves all of them.
    Returns one entry per rate, in order: the Trajectory that
    :func:`evolve_ramp` gives for that rate with ``sample_times=[duration]``
    (records at t = 0 and t = T, and ``richardson_defect`` if the policy
    asks for it), or the StepSizeTooCoarse that stopped that rate.
    """
    protocols = [RampProtocol(mu_in, mu_fin, v) for v in rates]
    if not protocols:
        return []
    require_topological(params, mu_in, mu_fin)
    times = [_normalize_samples([p.duration], p.duration) for p in protocols]
    return _evolve(params, _sample_mus(protocols[0], times[0]), times,
                   policy or SteppingPolicy())


def sudden_quench(params: ChainParams, mu_in: float, mu_fin: float) -> LeakageRecord:
    """Leakage of |+> built at mu_in when re-read in the mu_fin basis.

    This is the infinite-rate limit of the ramp: no time evolution happens,
    only the instantaneous computational basis changes.
    """
    require_topological(params, mu_in, mu_fin)
    state, _ = initial_plus_state(params, mu_in)
    return measure_leakage(state, resolved_basis(params, mu_fin), t=0.0)


# ---------------------------------------------------------------------------
# Exact Fock-space oracle for small chains
# ---------------------------------------------------------------------------

MAX_ORACLE_SITES = 3


class FockSpace:
    """Dense many-body operators for a tetron with at most 3 sites per chain.

    Jordan-Wigner ordering runs through chain 1's sites then chain 2's, the
    same layout as the single-particle operator vector.  Every operator is
    real.  The Hamiltonian is linear in mu, H(mu) = H0 + mu H1, with H0 the
    hopping and pairing terms of both chains and H1 = -sum_j (n_j - 1/2);
    both are built once here from the same operator products.

    H0 and H1 conserve the fermion parity of each chain, so in this basis they
    are block-diagonal over the four chain-parity sectors (even/odd on chain 1
    x even/odd on chain 2).  ``sectors[s]`` lists the basis states of sector
    s, 4^(N-1) of them; construction checks that no entry of H0 or H1 joins
    two sectors, and the oracle diagonalizes sector by sector.
    """

    def __init__(self, params: ChainParams):
        if params.n_sites > MAX_ORACLE_SITES:
            raise InvalidParameterError(
                "Fock oracle limited to n_sites <= %d" % MAX_ORACLE_SITES
            )
        self.params = params
        n = params.n_sites
        n_modes = 2 * n
        self.dim = 2 ** n_modes
        lower = np.array([[0.0, 1.0], [0.0, 0.0]])
        zmat = np.diag([1.0, -1.0])
        eye2 = np.eye(2)
        self.c = []
        for j in range(n_modes):
            ops = [zmat] * j + [lower] + [eye2] * (n_modes - j - 1)
            mat = ops[0]
            for op in ops[1:]:
                mat = np.kron(mat, op)
            self.c.append(mat)
        self.cdag = [m.T for m in self.c]
        c, cdag = self.c, self.cdag
        occupation = np.array([np.diag(cdag[j] @ c[j]) for j in range(n_modes)])
        w, delta = params.hopping, params.pairing
        self._h0 = np.zeros((self.dim, self.dim))
        for i, j in self._bonds():
            self._h0 += -w * (cdag[i] @ c[j] + cdag[j] @ c[i])
            self._h0 += delta * (c[i] @ c[j] + cdag[j] @ cdag[i])
        self._h1 = np.diag(-np.sum(occupation - 0.5, axis=0))
        odd = np.sum(occupation.reshape(2, n, self.dim), axis=1) % 2
        label = (2 * odd[0] + odd[1]).astype(int)
        self.sectors = np.argsort(label, kind="stable").reshape(4, -1)
        self._block_index = self.sectors[:, :, None] * self.dim + self.sectors[:, None, :]
        coupling = label[:, None] != label[None, :]
        if np.any(self._h0[coupling] != 0.0) or np.any(self._h1[coupling] != 0.0):
            raise InvalidParameterError("Hamiltonian couples different chain-parity sectors")

    def _bonds(self) -> List[Tuple[int, int]]:
        """Mode pairs (j, j + 1) joined by hopping and pairing, within each chain."""
        n = self.params.n_sites
        return [(j, j + 1) for off in (0, n) for j in range(off, off + n - 1)]

    def hamiltonian(self, mu: float) -> np.ndarray:
        """Real symmetric H(mu) = H0 + mu H1 on the full two-chain Fock space."""
        return self._h0 + mu * self._h1

    def sector_blocks(self, op: np.ndarray) -> np.ndarray:
        """The four diagonal blocks of a sector-conserving operator, shape (4, d, d)."""
        return op.take(self._block_index)

    def step(self, psi: np.ndarray, mu: float, dt: float) -> np.ndarray:
        """exp(-i H(mu) dt) psi, with one batched ``eigh`` of the four sector blocks."""
        evals, q = np.linalg.eigh(self.sector_blocks(self.hamiltonian(mu)))
        blocks = psi[self.sectors, None]
        blocks = q @ (np.exp(-1j * evals * dt)[..., None] * (q.transpose(0, 2, 1) @ blocks))
        out = np.empty(self.dim, dtype=complex)
        out[self.sectors] = blocks[..., 0]
        return out

    def qp_annihilator(self, column: np.ndarray, chain: int) -> np.ndarray:
        n = self.params.n_sites
        off = chain * n
        op = np.zeros((self.dim, self.dim))
        for i in range(n):
            op += column[i] * self.c[off + i]
            op += column[n + i] * self.cdag[off + i]
        return op

    def ground_states(self, basis: ModeBasis):
        """Vacuum |0_t>, paired-excitation |1_t>, and the four zero-mode Majoranas.

        The number operator sum d^dag d conserves each chain's parity, so it
        is diagonalized sector by sector; the vacuum must be its one zero
        eigenvalue across all sectors.  The Majoranas of chain l are returned
        as the real matrices d_l + d_l^T and d_l - d_l^T, the second being
        gamma / i.  The MZM parity -gamma1 gamma2 gamma3 gamma4 is then their
        plain product in order: i * i cancels the minus.
        """
        v = basis.vectors
        n = self.params.n_sites
        d_ops = [self.qp_annihilator(v[:, k], lam) for lam in range(2) for k in range(n)]
        number = sum(op.T @ op for op in d_ops)
        evals, evecs = np.linalg.eigh(self.sector_blocks(number))
        lowest = np.sort(evals, axis=None)
        if lowest[0] > 1e-8 or lowest[1] < 0.5:
            raise InvalidParameterError("quasiparticle vacuum is not isolated")
        sector = int(np.argmin(evals[:, 0]))
        vac = np.zeros(self.dim)
        vac[self.sectors[sector]] = evecs[sector, :, 0]
        d0_1 = d_ops[0]
        d0_2 = d_ops[n]
        one = d0_1.T @ (d0_2.T @ vac)
        one = one / np.linalg.norm(one)
        majoranas = (d0_1 + d0_1.T, d0_1 - d0_1.T, d0_2 + d0_2.T, d0_2 - d0_2.T)
        return vac, one, majoranas

    def measure(self, psi: np.ndarray, basis: ModeBasis, t: float) -> LeakageRecord:
        vac, one, majoranas = self.ground_states(basis)
        image = psi
        for gamma in reversed(majoranas):
            image = gamma @ image
        parity = float((psi.conj() @ image).real)
        l_odd = 0.5 * (1.0 - parity)
        l_g_raw = 1.0 - abs(vac @ psi) ** 2 - abs(one @ psi) ** 2
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


def fock_oracle(params: ChainParams,
                protocol: Optional[RampProtocol] = None,
                quench: Optional[Tuple[float, float]] = None,
                policy: Optional[SteppingPolicy] = None,
                sample_times: Optional[Sequence[float]] = None,
                space: Optional[FockSpace] = None) -> Trajectory:
    """Exact state-vector reference computation on the full Fock space.

    Exactly one of ``protocol`` (linear ramp) or ``quench`` ((mu_in, mu_fin))
    must be given.  Ramps use the same left-endpoint frozen-Hamiltonian grid
    as :func:`evolve_ramp`, so the two methods are directly comparable.
    ``space`` lets several calls share one :class:`FockSpace` of ``params``;
    without it each call builds its own.
    """
    if (protocol is None) == (quench is None):
        raise InvalidParameterError("provide exactly one of protocol or quench")
    if space is None:
        space = FockSpace(params)
    elif space.params != params:
        raise InvalidParameterError("Fock space built for %r, not %r" % (space.params, params))
    policy = policy or SteppingPolicy()

    mu_in, mu_fin = quench if quench is not None else (protocol.mu_in, protocol.mu_fin)
    require_topological(params, mu_in, mu_fin)
    basis = resolved_basis(params, mu_in)
    vac, one, _ = space.ground_states(basis)
    psi = (vac + one) / np.sqrt(2.0)
    records = Trajectory()
    if quench is not None:
        records.append(space.measure(psi, resolved_basis(params, mu_fin), t=0.0))
        return records

    records.append(space.measure(psi, basis, t=0.0))
    samples = _normalize_samples(sample_times, protocol.duration)
    mus = _sample_mus(protocol, samples)
    dmu = policy.resolved_dmu(mu_fin - mu_in)
    for k in range(len(samples) - 1):
        grid = _step_mus(mus[k], mus[k + 1], dmu)
        dt = (samples[k + 1] - samples[k]) / len(grid)
        for mu in grid:
            psi = space.step(psi, mu, dt)
        basis = resolved_basis(params, mus[k + 1])
        records.append(space.measure(psi, basis, t=float(samples[k + 1])))
    return records
