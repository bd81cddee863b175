"""Random-walk model for quasiparticle-pair absorption at the chain ends.

Two excited quasiparticles start at the same lattice point x of [0, L] and
perform independent unbiased +/-1 walks until each is absorbed at an end.
A pair absorbed at opposite ends flips the parities of both end modes, which
is a Pauli error; absorption of both at the same end is harmless.  For a
uniformly distributed starting point the opposite-end probability is
(1/3)(1 - 1/L), approaching 1/3 for long chains.  Walk steps are fetched in
chunks, and the generator is put back where one draw per sweep of the live
walkers would leave it, so a result depends only on length, trials and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

# Trials are walked this many at a time.  Each block loops until its slowest
# walker is absorbed, so small blocks cost Python iterations; one block of all
# trials costs memory instead: at L=40 and 10**6 trials about 43 MB more peak
# RSS, for at most 10 % less time.
BLOCK = 2 ** 16
# Walk steps are drawn this many at a time, so most iterations call no generator.
STEP_CHUNK = 2 ** 12

# Absorbing walks take O(L^2) expected steps; this cap only trips on bugs.
MAX_STEPS_PER_WALKER = 10 ** 9


@dataclass(frozen=True)
class WalkConfig:
    """Domain size, trial count, and RNG seed of a Monte Carlo run."""

    length: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.length < 1:
            raise InvalidParameterError("length must be >= 1")
        if self.trials < 1:
            raise InvalidParameterError("trials must be >= 1")
        if self.seed < 0:
            raise InvalidParameterError("seed must be >= 0")


@dataclass(frozen=True)
class WalkResult:
    """Exact and Monte Carlo opposite-end absorption probabilities."""

    p_opposite_exact: float
    p_opposite_mc: float
    mc_std_error: float


def absorb_prob_right(x: int, length: int) -> float:
    """Probability that a walker from x is absorbed at L rather than 0: x/L."""
    _check_point(x, length)
    return x / length


def prob_opposite_ends(x: int, length: int) -> float:
    """Probability that two independent walkers from x end at opposite ends."""
    _check_point(x, length)
    p = x / length
    return 2.0 * p * (1.0 - p)


def _check_point(x: int, length: int) -> None:
    if length < 1:
        raise InvalidParameterError("length must be >= 1")
    if not 0 <= x <= length:
        raise InvalidParameterError("start point %r outside [0, %d]" % (x, length))


def average_opposite(length: int) -> float:
    """Opposite-end probability averaged over all L+1 starting points.

    Returns the closed form (1/3)(1 - 1/L) after checking it against the
    direct lattice summation to within 1e-14.
    """
    if length < 1:
        raise InvalidParameterError("length must be >= 1")
    closed = (1.0 - 1.0 / length) / 3.0
    direct = math.fsum(prob_opposite_ends(x, length) for x in range(length + 1))
    direct /= (length + 1)
    if abs(closed - direct) > 1e-14:
        raise AssertionError(
            "closed form %.17g disagrees with summation %.17g" % (closed, direct)
        )
    return closed


def _walk_to_ends(rng: np.random.Generator, pos: np.ndarray, length: int) -> np.ndarray:
    """Advance every walker until absorption; returns True where absorbed at L.

    Only the live walkers are kept: their indices, in ascending order, and
    their positions.  Each iteration takes one +/-1 step per live walker in
    index order, and an absorbed walker is written back and dropped.  A live
    walker moves by one site from inside (0, L), so a lookup in
    ``absorbing`` tells whether it has reached an end.  Steps are fetched in
    chunks; as ``integers(0, 2)`` draws concatenate, redrawing the used part
    of the last chunk leaves the generator where one draw per iteration would.
    """
    pos = pos.astype(np.int64, copy=True)
    absorbing = np.zeros(length + 1, dtype=bool)
    absorbing[[0, length]] = True
    live = np.flatnonzero((pos > 0) & (pos < length))
    x = pos[live]
    steps = np.empty(0, dtype=np.int64)
    state, used, carried = rng.bit_generator.state, 0, 0
    sweeps = 0
    while live.size:
        if used + live.size > steps.size:
            state, carried = rng.bit_generator.state, steps.size - used
            fresh = rng.integers(0, 2, size=max(STEP_CHUNK, live.size), dtype=np.int64)
            steps, used = np.concatenate((steps[used:], fresh * 2 - 1)), 0
        x += steps[used:used + live.size]
        used += live.size
        done = absorbing.take(x)
        if np.count_nonzero(done):
            pos[live[done]] = x[done]
            keep = ~done
            live, x = live[keep], x[keep]
        sweeps += 1
        if sweeps > MAX_STEPS_PER_WALKER:
            raise RuntimeError("walker exceeded the %d-step cap" % MAX_STEPS_PER_WALKER)
    rng.bit_generator.state = state
    rng.integers(0, 2, size=used - carried, dtype=np.int64)
    return pos == length


def simulate_pair_walks(config: WalkConfig) -> WalkResult:
    """Monte Carlo estimate of the average opposite-end absorption probability.

    All trials draw from one PCG64 stream seeded with ``config.seed``, in
    consecutive blocks of ``BLOCK`` trials.  Per block the common starting
    points are drawn uniformly on {0..L}, then walker A is advanced until
    every trial's A is absorbed, then walker B.
    """
    length = config.length
    rng = np.random.default_rng(config.seed)
    opposite = 0
    for first in range(0, config.trials, BLOCK):
        n = min(BLOCK, config.trials - first)
        start = rng.integers(0, length + 1, size=n, dtype=np.int64)
        end_a = _walk_to_ends(rng, start, length)
        end_b = _walk_to_ends(rng, start, length)
        opposite += int(np.count_nonzero(end_a != end_b))
    p_hat = opposite / config.trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / config.trials)
    return WalkResult(
        p_opposite_exact=average_opposite(length),
        p_opposite_mc=p_hat,
        mc_std_error=std_err,
    )
