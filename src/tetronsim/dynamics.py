"""Time evolution of the tetron state as occupied orbitals, and an exact small-N oracle.

A trajectory starts from the equal superposition |+> of the two even-parity
ground states at mu_in.  The two chains are identical, uncoupled and each
conserves its fermion parity, so the evolution is U x U and the evolved state
stays (|E>|E> + |O>|O>)/sqrt(2), with E and O two single-chain states of
opposite parity.  Each is a Slater determinant of complex N-dimensional
orbitals (Onishi & Yoshida, Nucl. Phys. 80, 367 (1966)): S(mu) of
:func:`tetronsim.model.chain_s` is persymmetric, so one symmetric ``eigh``,
J S = Q Lambda Q^T (:func:`tetronsim.model.chain_eigh`), gives the modes, and
a basis's vacuum occupies the columns of Q with lambda < 0.  |+> is the (N, m)
matrix X of E's orbitals (:func:`initial_plus_state`): v_0 of the basis at
mu_in, then that basis's bulk modes with lambda < 0.  O occupies X[:, 1:].

A frozen-Hamiltonian step is the N x N unitary W = Q e^{-i Lambda dt} Q^T on
the orbitals, X <- W X: it is the one-chain Majorana step O = D [[Re W, -Im W],
[Im W, Re W]] D, D = diag(I, J), acting on the covariance of a Slater
determinant.  The mu grid does not depend on the ramp rate, so the X of
ramps from one mu_in are stacked, (N, R, m), on one grid: a step is one
decomposition of J S, two real GEMMs and a phase per ramp
(:func:`evolve_ramps`; :func:`evolve_ramp` is the one-ramp case).  A step's
decomposition depends on the grid alone, never on the state, so the steps of
a segment between two samples are decomposed together, one stacked ``eigh``
per batch of at most :data:`BATCH_FLOATS` floats, and then applied in order.
At a fixed step, the grid of a ramp to a nearer mu_fin is the start of the
grid to a farther one on the same side of mu_in, so every ramp whose grid is
a prefix of a longer one rides that lockstep: each mu takes one decomposition
for every ramp on it, and a ramp leaves the stack at its mu_fin.  |+> and its
t = 0 record are built once per call.

:func:`measure_leakage` reads |+> in a sample basis from Y = V^T X alone.  A
state of m orbitals is compared with the reference of the same orbital count,
so of the same parity; the rows of Y for the modes that reference leaves
empty give the squared sines of the principal angles between the two, and
the survival F = prod(1 - s^2) follows with relative accuracy.  Row 0 of the
projector Y Y^H gives n_0 (1 - n_0), n_0 the zero-mode occupation, as the sum
of squares of its off-diagonal entries, so l_odd, the sum over E and O, keeps
relative accuracy too and never reads below 0; the MZM parity is 1 - 2 l_odd.

Both methods run one schedule, :func:`_evolve`, with two engines: the
orbitals above, and :class:`FockSpace`, an exact oracle that steps E and O as
many-body states of a chain of at most :data:`MAX_ORACLE_SITES` = 6 sites
(:func:`fock_oracle`, and :func:`fock_quench` for the sudden limit).  The
schedule alone picks the mu at which each step evaluates h: it hands every
engine a whole segment at once, each step's grid point of every live row and
each row's dt.  So the oracle's ramps take the rows, grids, samples,
Richardson rows and per-row failures of :func:`evolve_ramps`, and its purity
check: a record of either engine whose purity defect exceeds
:data:`PURITY_TOL` = 1e-6 fails its ramp.  The chains are uncoupled and each
conserves its fermion parity, so in Jordan-Wigner order the tetron
Hamiltonian is h x 1 + 1 x h, with h(mu) = h0 + mu h1 one chain's real
Hamiltonian, both parts built once per :class:`FockSpace`.  The oracle holds a
row's |+> as the (2^N, 2) array [E, O], stacked (2^N, R, 2) as the orbitals
are (N, R, m), and a step applies U = exp(-i h dt) to E and O: one real
``eigh`` of h (8 x 8 at N = 3) per row at each of its own grid points, those
of a batch of a segment's row-steps in one stacked call.  At a sample, the
ground states and the MZM parity matrix are built once per distinct mu.  Both
engines read a sample into a record the same way (:func:`_record`): l_even is
the ground-state loss less l_odd, and the MZM parity is 1 - 2 l_odd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BasisMismatchError, InvalidParameterError, StepSizeTooCoarse
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
# A record whose purity defect exceeds this fails its ramp.  Both engines step
# by exact unitaries, so on a sound run the defect is rounding whatever the step.
PURITY_TOL = 1e-6
# The floats of one stack of matrices that a step engine decomposes in one
# ``eigh`` call.  A segment's steps are decomposed in batches of at most this
# size, one step at least: small matrices share the call's overhead, and a
# long segment of large ones does not build a large stack.
BATCH_FLOATS = 2 ** 13


@dataclass(frozen=True)
class SteppingPolicy:
    """Discretization controls for ramp evolution.

    ``max_dmu_per_step`` defaults to the ramp span divided by
    ``DEFAULT_STEPS_PER_SPAN``.  With ``richardson`` enabled the trajectory is
    recomputed at half the step size and the relative change of the final
    total leakage is exposed as ``Trajectory.richardson_defect``.  Every
    record is checked against :data:`PURITY_TOL`, which no policy changes.
    """

    max_dmu_per_step: Optional[float] = None
    richardson: bool = False

    def __post_init__(self):
        value = self.max_dmu_per_step
        if value is not None and not (math.isfinite(value) and value > 0):
            raise InvalidParameterError("max_dmu_per_step must be positive and finite, got %r"
                                        % (value,))

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


def _record(t: float, mu: float, l_odd: float, l_g_raw: float,
            purity_defect: float) -> LeakageRecord:
    """A sample's record from its l_odd (MZM poisoning) and its ground-state loss ``l_g_raw``.

    l_even is the rest of the loss, l_g the sum of the two channels, and the
    MZM parity 1 - 2 l_odd.
    """
    l_even = l_g_raw - l_odd
    return LeakageRecord(t=t, mu=mu, l_odd=l_odd, l_even=l_even, l_g=l_odd + l_even,
                         parity=1.0 - 2.0 * l_odd, purity_defect=purity_defect)


class Trajectory(list):
    """Sequence of LeakageRecord with its step count and a step-halving diagnostic."""

    n_steps: Optional[int] = None
    richardson_defect: Optional[float] = None

    @property
    def max_purity_defect(self) -> float:
        """The largest purity defect of the sampled records."""
        return max(r.purity_defect for r in self)


# One row's result: its trajectory, or the failure that stopped it.
Outcome = Union[Trajectory, Exception]


def _chain_propagator(lam: np.ndarray, dt: float) -> np.ndarray:
    """One rate's step in the mode frame: the phases exp(-i lambda dt).

    ``lam`` holds the eigenvalues of J S, from :func:`tetronsim.model.chain_eigh`
    or the :attr:`ModeBasis.eigenvalues` of a basis; the order does not matter.
    """
    return np.exp(-1j * dt * lam)


def _mode_step(w: np.ndarray, q: np.ndarray, phases: np.ndarray) -> None:
    """X <- Q (phases * (Q^T X)) in place for a stack ``w`` of shape (N, R, m).

    One row of ``phases`` per rate.  Q is real, so each product is one real
    GEMM on the complex arrays viewed as floats.
    """
    n = q.shape[0]
    flat = w.view(float).reshape(n, -1)
    scratch = q.T @ flat
    work = scratch.view(complex).reshape(w.shape)
    work *= phases.T[:, :, None]
    np.matmul(q, scratch, out=flat)


def _batches(n_steps: int, floats_per_step: int) -> List[slice]:
    """Consecutive slices of a segment's steps, each of at most :data:`BATCH_FLOATS` floats."""
    size = max(1, BATCH_FLOATS // floats_per_step)
    return [slice(i, min(i + size, n_steps)) for i in range(0, n_steps, size)]


def _step_mus(mu_a: float, mu_b: float, dmu: float) -> np.ndarray:
    """Left endpoints of the equal steps from mu_a to mu_b, each at most dmu long.

    The grid depends on mu alone, not on the ramp rate.
    """
    n_steps = max(1, math.ceil(abs(mu_b - mu_a) / dmu - 1e-12))
    return mu_a + np.arange(n_steps) * ((mu_b - mu_a) / n_steps)


def _path_steps(mus: Sequence[float], dmu: float) -> Tuple[np.ndarray, List[int]]:
    """Every step's left endpoint on a sample path, and the steps taken before each sample."""
    grids = [_step_mus(a, b, dmu) for a, b in zip(mus[:-1], mus[1:])]
    return np.concatenate([np.empty(0)] + grids), list(accumulate(map(len, grids), initial=0))


# A grid joins a lockstep run when it matches a prefix of the run's lead to
# this times max(1, max |mu| on the lead): absolute on every grid with |mu| < 1.
NEST_TOL = 1e-15


def _lockstep_runs(grids: Sequence[np.ndarray]) -> List[List[int]]:
    """The grids, by index, grouped into lockstep runs, each led by its longest grid.

    A grid joins a run when it equals a prefix of the lead's grid to
    :data:`NEST_TOL` max(1, max |mu| of the lead), an absolute 1e-15 for
    |mu| < 1; otherwise it leads a run of its own.  The grids start at
    one mu, so a grid to the other side of it can join only as the single step
    at that mu, which is the lead's first step too.  The runs come in the order
    of their first grid.
    """
    runs: List[List[int]] = []
    for i in sorted(range(len(grids)), key=lambda i: -len(grids[i])):
        grid = grids[i]
        for run in runs:
            lead = grids[run[0]]
            if np.all(np.abs(grid - lead[:len(grid)])
                      <= NEST_TOL * np.max(np.abs(lead), initial=1.0)):
                run.append(i)
                break
        else:
            runs.append([i])
    return sorted(runs, key=min)


def initial_plus_state(params: ChainParams, mu_in: float) -> Tuple[np.ndarray, ModeBasis]:
    """|+> at mu_in, as (N, m) orbitals v_0 and the bulk modes with lambda < 0, and its basis."""
    basis = resolved_basis(params, mu_in)
    occupied = np.r_[0, 1 + np.flatnonzero(basis.signs[1:] < 0.0)]
    return basis.v[:, occupied].astype(complex), basis


def _loss(y: np.ndarray) -> float:
    """1 - F for the rows ``y`` of a state's orbitals on the modes its reference leaves empty.

    The eigenvalues s^2 of y^H y are the squared sines of the principal
    angles between the state and the reference, and F = prod(1 - s^2).
    """
    s2 = np.clip(np.linalg.eigvalsh(y.conj().T @ y), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        return -float(np.expm1(np.sum(np.log1p(-s2))))


def measure_leakage(orbitals: np.ndarray, basis: ModeBasis, t: float = 0.0) -> LeakageRecord:
    """Leakage split of |+>, the (N, m) array X of ``orbitals``, against an instantaneous basis.

    With Y = V^T X, E (m orbitals) is read against the reference that
    occupies v_0 and the bulk modes with lambda < 0, and O (m - 1 orbitals)
    against the one without v_0.  l_odd is the sum over E and O of
    n_0 (1 - n_0), with n_0 the occupation of v_0: Y Y^H is the projector on a
    state's orbitals, so n_0 (1 - n_0) = sum_{i != 0} |(Y Y^H)_{0i}|^2, a sum
    of squares with relative accuracy.  The MZM parity, the mean over E and O
    of (1 - 2 n_0)^2, is 1 - 2 l_odd; the ground-state weight is the mean of
    F^2.  The purity defect is the orthonormality defect max |X^H X - I| of
    the orbitals.
    """
    n, m = orbitals.shape
    empty = 1 + np.flatnonzero(basis.signs[1:] > 0.0)
    if n != basis.params.n_sites or empty.size != n - m:
        raise BasisMismatchError("%d x %d orbitals do not match the basis at mu=%g"
                                 % (n, m, basis.mu))
    y = basis.v.T @ orbitals
    l_odd = l_g_raw = 0.0
    for y_state, rows in ((y, empty), (y[:, 1:], np.concatenate(([0], empty)))):
        off_diagonal = y_state[1:] @ y_state[0].conj()
        l_odd += float(np.vdot(off_diagonal, off_diagonal).real)
        loss = _loss(y_state[rows])
        l_g_raw += 0.5 * loss * (2.0 - loss)
    return _record(t, basis.mu, l_odd, l_g_raw,
                   float(np.max(np.abs(orbitals.conj().T @ orbitals - np.eye(m)))))


def default_sample_times(duration: float, count: int = DEFAULT_SAMPLE_COUNT) -> np.ndarray:
    return np.linspace(0.0, duration, count + 1)


def sample_points(protocol: RampProtocol,
                  sample_times: Optional[Sequence[float]] = None) -> Tuple[np.ndarray, list]:
    """Sorted, duplicate-free sample times in [0, T] that include 0 and T, and mu at each.

    The last sample sits at mu_fin exactly.  Without ``sample_times`` the ramp
    is sampled at :func:`default_sample_times`.
    """
    duration = protocol.duration
    if sample_times is None:
        sample_times = default_sample_times(duration)
    ts = np.atleast_1d(np.asarray(sample_times, dtype=float))
    if not (np.all(ts >= -1e-12) and np.all(ts <= duration * (1 + 1e-12))):
        raise InvalidParameterError("sample times must be finite and lie within [0, T]")
    ts = np.union1d(np.clip(ts, 0.0, duration), [0.0, duration])
    return ts, [protocol.mu_at(t) for t in ts[:-1]] + [protocol.mu_fin]


@dataclass(frozen=True)
class _Orbitals:
    """The orbital engine of :func:`_evolve`: the rows' orbitals, stacked as (N, R, m).

    The rows' grids are prefixes of one grid, so each step of a segment takes
    one decomposition of J S, at the first live row's grid point, for the
    whole stack.  The first step takes the decomposition of the basis
    resolved at its mu when there is one; the others come from
    :func:`chain_eigh`, one stacked call per batch of :func:`_batches`.  Each
    step then applies its own W by :func:`_mode_step`, in grid order.
    """

    params: ChainParams

    def plus(self, mu: float) -> Tuple[np.ndarray, ModeBasis]:
        return initial_plus_state(self.params, mu)

    def reference(self, mu: float) -> ModeBasis:
        return resolved_basis(self.params, mu)

    def advance(self, x: np.ndarray, points: np.ndarray, dts: Sequence[float],
                reused: Optional[ModeBasis]) -> np.ndarray:
        def step(lam, q):
            _mode_step(x, q, np.array([_chain_propagator(lam, dt) for dt in dts]))

        mus = points[:, 0]
        if reused is not None:
            step(reused.eigenvalues, reused.v)
            mus = mus[1:]
        for batch in _batches(len(mus), self.params.n_sites ** 2):
            for lam, q in zip(*chain_eigh(self.params, mus[batch])):
                step(lam, q)
        return x

    def measure(self, orbitals: np.ndarray, basis: ModeBasis, t: float) -> LeakageRecord:
        return measure_leakage(orbitals, basis, t=t)


def _evolve_lockstep(engine, rows: Sequence[tuple], start: tuple) -> List[Outcome]:
    """Step several ramps together through ``engine``, each on its own grid.

    A row is a ramp's sample times and mus, the left endpoint of each of its
    steps, and the steps taken before each sample; the other rows' grids are
    prefixes of the first row's.  ``start`` is |+> at the rows' first mu, its
    reference and its record at t = 0.  Each step advances every row still
    running, each with its own dt: its segment's duration over the segment's
    step count; the engine takes a whole segment in one ``advance``.  At a
    sample, the reference is built once per mu for the rows sampled there,
    and they are measured; the segment that starts at the mu of a reference
    just built is given it for its first step.  A row leaves the stack after its last sample, or
    when it fails.  Which rows move and which are measured is settled once
    per segment between samples, never per step.

    Returns, per row, its Trajectory, with ``n_steps`` the number of steps it
    took, or the exception that stopped it: a record whose purity defect
    exceeds :data:`PURITY_TOL`, or a reference or measurement that raised at
    one of its samples.
    """
    state, reference, first = start

    def checked(record: LeakageRecord, trajectory: Trajectory) -> Outcome:
        if not record.purity_defect <= PURITY_TOL:
            return StepSizeTooCoarse("purity defect %g exceeds tolerance %g at t=%g"
                                     % (record.purity_defect, PURITY_TOL, record.t))
        trajectory.append(record)
        return trajectory

    outcomes = [checked(first, Trajectory()) for _ in rows]
    live = [i for i, out in enumerate(outcomes) if isinstance(out, Trajectory)]
    x = np.repeat(np.asarray(state, complex)[:, None], len(live), axis=1)
    references = {rows[0][1][0]: reference}  # the references at the last sample
    reached = [1] * len(rows)  # each row's next sample
    begin = 0
    for end in sorted({c for *_, counts in rows for c in counts[1:]}):
        if not live:
            break
        grids, dts = [], []
        for i in live:
            times, _, grid, counts = rows[i]
            k = reached[i]
            grids.append(grid[begin:end])
            dts.append((times[k] - times[k - 1]) / (counts[k] - counts[k - 1]))
        points = np.stack(grids, axis=1)
        x = engine.advance(x, points, dts, references.get(points[0, 0]))
        references = {}
        for slot, i in enumerate(live):
            times, mus, _, counts = rows[i]
            k = reached[i]
            if counts[k] != end:
                continue
            reached[i] += 1
            try:
                if mus[k] not in references:
                    references[mus[k]] = engine.reference(mus[k])
                outcomes[i] = checked(engine.measure(x[:, slot], references[mus[k]],
                                                     float(times[k])), outcomes[i])
            except Exception as exc:  # noqa: BLE001 - fails only this row
                outcomes[i] = exc
        kept = [slot for slot, i in enumerate(live)
                if reached[i] < len(rows[i][3]) and isinstance(outcomes[i], Trajectory)]
        if len(kept) < len(live):
            # contiguous, so that a step's float views write into x itself
            x, live = np.ascontiguousarray(x[:, kept]), [live[slot] for slot in kept]
        begin = end
    for (*_, counts), out in zip(rows, outcomes):
        if isinstance(out, Trajectory):
            out.n_steps = counts[-1]
    return outcomes


def _evolve(engine, protocols: Sequence[RampProtocol], policy: Optional[SteppingPolicy],
            sample_times: Optional[Sequence[Optional[Sequence[float]]]]) -> List[Outcome]:
    """The one schedule of :func:`evolve_ramps` and :func:`fock_oracle`: one outcome per ramp.

    The ramps start at one mu_in and stay in the topological phase;
    ``sample_times`` holds one sequence (or None) per ramp, its end alone
    without it.  Each ramp is a row at the policy's dmu for its span and,
    with Richardson on, one at half of it.  |+>, its reference and its t = 0
    record are built once for every run of :func:`_lockstep_runs`; their
    failure is every ramp's outcome.  Else a ramp takes its coarse row's
    failure, else its fine row's, else the coarse trajectory with its
    ``richardson_defect``.  Mixed mu_in, a non-topological mu or a wrong
    count of ``sample_times`` raise.

    The ``engine`` stacks the rows' states along axis 1 and supplies four
    operations: ``plus(mu)``, |+> at mu and the reference it was built in;
    ``reference(mu)``, what a sample at mu is read against; ``advance(x,
    points, dts, reused)``, which returns the stack ``x`` taken through one
    segment between samples, each row stepped at its own grid points, a
    column of ``points`` (shape (steps, rows)), by its own dt in ``dts``,
    ``reused`` being the reference built at the segment's first mu of the
    first row, for its first step, or None (the oracle, which decomposes h
    and not the sample basis, ignores it); and ``measure(state, reference,
    t)``.  Which mu each step evaluates h at is chosen here alone.
    """
    if not protocols:
        return []
    mu_in = protocols[0].mu_in
    if any(p.mu_in != mu_in for p in protocols):
        raise InvalidParameterError("ramps stepped together must start at one mu_in")
    require_topological(engine.params, mu_in, *(p.mu_fin for p in protocols))
    if sample_times is None:
        sample_times = [[p.duration] for p in protocols]
    if len(sample_times) != len(protocols):
        raise InvalidParameterError("%d sequences of sample times for %d ramps"
                                    % (len(sample_times), len(protocols)))
    policy = policy or SteppingPolicy()
    scales = (1.0, 0.5) if policy.richardson else (1.0,)
    ramps = [sample_points(p, ts) for p, ts in zip(protocols, sample_times)]
    rows = [(times, mus, *_path_steps(mus, scale * policy.resolved_dmu(mus[-1] - mus[0])))
            for scale in scales for times, mus in ramps]
    try:
        state, reference = engine.plus(ramps[0][1][0])
        start = (state, reference, engine.measure(state, reference, 0.0))
    except Exception as exc:  # noqa: BLE001 - every ramp starts from this |+>
        return [exc] * len(protocols)
    outcomes: List[Outcome] = [None] * len(rows)
    for run in _lockstep_runs([grid for _, _, grid, _ in rows]):
        results = _evolve_lockstep(engine, [rows[i] for i in run], start)
        for i, out in zip(run, results):
            outcomes[i] = out
    coarse = outcomes[:len(ramps)]
    for j, rerun in enumerate(outcomes[len(ramps):]):
        if not isinstance(coarse[j], Trajectory):
            continue
        if not isinstance(rerun, Trajectory):
            coarse[j] = rerun
            continue
        coarse_lg, fine_lg = coarse[j][-1].l_g, rerun[-1].l_g
        coarse[j].richardson_defect = abs(coarse_lg - fine_lg) / max(abs(fine_lg), 1e-300)
    return coarse


def _quench(engine, mu_in: float, mu_fin: float) -> LeakageRecord:
    """|+> built at mu_in by an :func:`_evolve` engine, read against its reference at mu_fin."""
    require_topological(engine.params, mu_in, mu_fin)
    state, _ = engine.plus(mu_in)
    return engine.measure(state, engine.reference(mu_fin), 0.0)


def evolve_ramp(params: ChainParams, protocol: RampProtocol,
                policy: Optional[SteppingPolicy] = None,
                sample_times: Optional[Sequence[float]] = None) -> Trajectory:
    """Evolve |+> through a linear chemical-potential ramp.

    Returns one LeakageRecord per sample time (t=0 and t=T always included),
    at :func:`default_sample_times` without ``sample_times``.  The ramp must
    stay inside the topological phase throughout.
    """
    [outcome] = evolve_ramps(params, [protocol], policy, [sample_times])
    if not isinstance(outcome, Trajectory):
        raise outcome
    return outcome


def evolve_ramps(params: ChainParams, protocols: Sequence[RampProtocol],
                 policy: Optional[SteppingPolicy] = None,
                 sample_times: Optional[Sequence[Sequence[float]]] = None) -> List[Outcome]:
    """Several ramps from one mu_in, stepped together.

    ``sample_times`` holds one sequence per protocol; without it each ramp is
    sampled at its end only.  Returns one entry per protocol, in order: the
    Trajectory that :func:`evolve_ramp` gives for it with those sample times
    (``richardson_defect`` set if the policy asks for it), or the exception
    that stopped it: its purity check (StepSizeTooCoarse), a basis resolve or
    measurement at one of its samples, or, for every ramp, a failure to build
    |+> at mu_in.  A ramp whose grid is a prefix of another's rides that
    ramp's lockstep, so each mu takes one decomposition for every ramp on it.
    """
    return _evolve(_Orbitals(params), protocols, policy, sample_times)


def sudden_quench(params: ChainParams, mu_in: float, mu_fin: float) -> LeakageRecord:
    """Leakage of |+> built at mu_in when re-read in the mu_fin basis.

    This is the infinite-rate limit of the ramp: no time evolution happens,
    only the instantaneous computational basis changes.
    """
    return _quench(_Orbitals(params), mu_in, mu_fin)


# ---------------------------------------------------------------------------
# Exact Fock-space oracle for small chains
# ---------------------------------------------------------------------------

MAX_ORACLE_SITES = 6


class FockSpace:
    """Dense many-body operators of one chain of a tetron, at most 6 sites: the oracle's engine.

    The two chains are identical and uncoupled.  In the Jordan-Wigner order of
    the single-particle operator vector, chain 1's sites then chain 2's, chain
    2's annihilators are P x c_j with P chain 1's fermion parity, so each of
    chain 2's bilinears is 1 x (the same bilinear of one chain) and the tetron
    Hamiltonian is H(mu) = h(mu) x 1 + 1 x h(mu).  exp(-i H dt) is then U x U
    with U = exp(-i h dt), and it keeps |+> a sum of two products,
    (|E>|E> + |O>|O>)/sqrt(2), stepping E and O, one chain's states, by U.
    The oracle holds |+> as the (2^N, 2) array [E, O], and its rows' states
    stacked as (2^N, R, 2): this class supplies the engine operations of
    :func:`_evolve`, with a sample reference the basis at mu and its
    :meth:`ground_states`.

    Every operator is real: ``c`` stacks the chain's N annihilators, shape
    (N, 2^N, 2^N).  h is linear in mu, h(mu) = h0 + mu h1, with h0 the hopping
    and pairing terms and h1 = -sum_j (n_j - 1/2), both built once here.
    Construction checks that h0 and h1 conserve the chain's fermion parity,
    which H = h x 1 + 1 x h needs: a parity-odd term of chain 2 would carry the
    string P.
    """

    def __init__(self, params: ChainParams):
        if params.n_sites > MAX_ORACLE_SITES:
            raise InvalidParameterError(
                "Fock oracle limited to n_sites <= %d" % MAX_ORACLE_SITES
            )
        self.params = params
        n = params.n_sites
        lower = np.array([[0.0, 1.0], [0.0, 0.0]])
        zmat = np.diag([1.0, -1.0])
        self.c = np.array([reduce(np.kron, [zmat] * j + [lower] + [np.eye(2)] * (n - j - 1))
                           for j in range(n)])
        # the chain's parity prod_j (1 - 2 n_j) is the string of all its sites
        self._parity = np.diag(reduce(np.kron, [zmat] * n))
        self._flips = self._parity[:, None] != self._parity[None, :]
        self._h0, self._h1 = self._terms()
        if np.any(self._h0[self._flips] != 0.0) or np.any(self._h1[self._flips] != 0.0):
            raise InvalidParameterError("chain Hamiltonian couples the chain's parity sectors")

    def _terms(self) -> Tuple[np.ndarray, np.ndarray]:
        """h0, the hopping and pairing terms of the chain, and h1 = -sum_j (n_j - 1/2)."""
        c, cdag = self.c, self.c.transpose(0, 2, 1)
        w, delta = self.params.hopping, self.params.pairing
        h0 = np.zeros(c.shape[1:])
        for i in range(self.params.n_sites - 1):
            h0 += -w * (cdag[i] @ c[i + 1] + cdag[i + 1] @ c[i])
            h0 += delta * (c[i] @ c[i + 1] + cdag[i + 1] @ cdag[i])
        occupation = np.array([np.diag(cd @ cj) for cd, cj in zip(cdag, c)])
        return h0, np.diag(-np.sum(occupation - 0.5, axis=0))

    def hamiltonian(self, mu: float) -> np.ndarray:
        """Real symmetric h(mu) = h0 + mu h1 of one chain."""
        return self._h0 + mu * self._h1

    def plus(self, mu: float) -> Tuple[np.ndarray, tuple]:
        """|+> at mu, the array [vac, one] of its :meth:`ground_states`, and its reference."""
        reference = self.reference(mu)
        vac, one, _ = reference[1]
        return np.stack((vac, one), axis=1), reference

    def reference(self, mu: float) -> tuple:
        """The basis at mu and its :meth:`ground_states`, which a sample at mu is read against."""
        basis = resolved_basis(self.params, mu)
        return basis, self.ground_states(basis)

    def advance(self, x: np.ndarray, points: np.ndarray, dts: Sequence[float],
                reused: Optional[tuple] = None) -> np.ndarray:
        """The stack ``x`` (2^N, R, 2) through a segment's steps, each row at its own mu and dt.

        ``points`` holds each step's grid point of every row, shape (steps, R),
        and ``dts`` each row's dt.  At a step a row's E and O step by
        U = Q e^{-i Lambda dt} Q^T, from one ``eigh`` of h(mu).  The h of
        every row-step of a batch of :func:`_batches` are decomposed in one
        stacked call, and their U built at once; U conserves the chain's
        parity, and its entries between the parity sectors, rounding alone,
        are set to 0, so E and O stay each in its own sector.  The steps are
        then applied in order, and the stepped stack is returned.
        ``reused``, a sample reference at the first row's first mu, is
        ignored: a step decomposes h, not the sample basis.
        """
        n_steps, n_rows = points.shape
        dim = self._h0.shape[0]
        phase = -1j * np.asarray(dts)[:, None, None]
        for batch in _batches(n_steps, n_rows * dim * dim):
            evals, q = np.linalg.eigh(np.array([[self.hamiltonian(mu) for mu in step]
                                                for step in points[batch]]))
            u = (q * np.exp(phase * evals[:, :, None])) @ q.swapaxes(-1, -2)
            u[:, :, self._flips] = 0.0
            for step_u in u:
                x = (step_u @ x.swapaxes(0, 1)).swapaxes(0, 1)
        return x

    def ground_states(self, basis: ModeBasis) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The chain's vacuum vac, one = d_0^T vac / |d_0^T vac|, and its MZM parity matrix Pi.

        The chain's quasiparticle annihilators, d = sum_i a_i c_i + b_i c_i^T
        with a a column of P = (v + u)/2 and b the same column of
        Q = (v - u)/2 (v and u the basis's right and left singular vectors),
        come from two ``tensordot`` calls, and the number operator
        sum_k d_k^T d_k from one product.  Its one ``eigh`` gives vac, which must be its one
        zero eigenvalue.  The tetron's two ground states are vac x vac and
        d_{0,1}^T d_{0,2}^T of it, which is one x one up to a sign that no
        readout of (|E>|E> + |O>|O>)/sqrt(2) sees.  With the Majoranas of the
        chain as the real matrices d_0 + d_0^T and d_0 - d_0^T, the second
        being gamma / i, Pi = (d_0 + d_0^T)(d_0 - d_0^T) and the MZM parity
        -gamma1 gamma2 gamma3 gamma4 is Pi x Pi: i * i cancels the minus.
        """
        u = basis.u
        top, bottom = ((basis.v + u) / 2.0).T, ((basis.v - u) / 2.0).T
        d_ops = np.tensordot(top, self.c, axes=1)
        d_ops += np.tensordot(bottom, self.c, axes=1).transpose(0, 2, 1)
        flat = d_ops.reshape(-1, d_ops.shape[-1])
        evals, evecs = np.linalg.eigh(flat.T @ flat)
        if evals[0] > 1e-8 or evals[1] < 0.5:
            raise InvalidParameterError("quasiparticle vacuum is not isolated")
        # the vacuum has one chain parity; its entries in the other are rounding
        home = self._parity[np.argmax(np.abs(evecs[:, 0]))]
        vac = np.where(self._parity == home, evecs[:, 0], 0.0)
        d0 = d_ops[0]
        one = d0.T @ vac
        return vac, one / np.linalg.norm(one), (d0 + d0.T) @ (d0 - d0.T)

    def measure(self, x: np.ndarray, reference: tuple, t: float) -> LeakageRecord:
        """Leakage split of |+>, the (2^N, 2) array [E, O], against a :meth:`reference`.

        ``reference`` is the pair (basis, ground) with ground the
        :meth:`ground_states` (vac, one, Pi) of the basis.  E, O, vac and one
        each lie in one chain-parity sector, E and O in different ones, and Pi
        keeps a sector, so every cross term between the two products vanishes.
        The MZM parity Pi x Pi reads [(E^H Pi E)^2 + (O^H Pi O)^2] / 2, and
        l_odd is half of 1 less it; the weight on the two ground states is
        sum |r^T s|^4 / 2 over r in (vac, one) and s in (E, O).  The purity
        defect |(|E|^2 + |O|^2) / 2 - 1| is the norm defect of |+> to first
        order.
        """
        basis, (vac, one, mzm) = reference
        rayleigh = (x.conj() * (mzm @ x)).real.sum(axis=0)
        l_odd = 0.5 * (1.0 - 0.5 * float(np.sum(rayleigh ** 2)))
        l_g_raw = 1.0 - 0.5 * float(np.sum(np.abs(np.array([vac, one]) @ x) ** 4))
        return _record(t, basis.mu, l_odd, l_g_raw, abs(0.5 * float(np.vdot(x, x).real) - 1.0))


def fock_quench(params: ChainParams, mu_in: float, mu_fin: float) -> LeakageRecord:
    """The oracle's :func:`sudden_quench`: |+> built at mu_in, read in the mu_fin basis."""
    return _quench(FockSpace(params), mu_in, mu_fin)


def fock_oracle(params: ChainParams, protocols: Sequence[RampProtocol],
                policy: Optional[SteppingPolicy] = None,
                sample_times: Optional[Sequence[Sequence[float]]] = None) -> List[Outcome]:
    """Exact state-vector reference for :func:`evolve_ramps`: its arguments, its outcomes.

    Both run :func:`_evolve`, so a ramp here has the same grid, samples,
    ``n_steps``, purity check (of its norm defect, against :data:`PURITY_TOL`),
    Richardson row and per-row failures; only the engine, a :class:`FockSpace`
    of ``params``, differs.  Each row's |+>, the two one-chain states E and O,
    steps exactly by U, one chain's propagator (:meth:`FockSpace.advance`).
    """
    return _evolve(FockSpace(params), protocols, policy, sample_times)
