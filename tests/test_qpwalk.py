import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tetronsim import qpwalk
from tetronsim.errors import InvalidParameterError
from tetronsim.qpwalk import (
    BLOCK,
    WalkConfig,
    absorb_prob_right,
    average_opposite,
    prob_opposite_ends,
    simulate_pair_walks,
)


class TestAbsorption:
    def test_boundary_points(self):
        assert absorb_prob_right(0, 25) == 0.0
        assert absorb_prob_right(25, 25) == 1.0

    def test_midpoint(self):
        assert absorb_prob_right(1, 2) == pytest.approx(0.5)

    def test_harmonicity(self):
        for length in (2, 7, 50):
            for x in range(1, length):
                left = absorb_prob_right(x - 1, length)
                right = absorb_prob_right(x + 1, length)
                assert absorb_prob_right(x, length) == pytest.approx((left + right) / 2)

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            absorb_prob_right(-1, 5)
        with pytest.raises(InvalidParameterError):
            absorb_prob_right(6, 5)


class TestOppositeEnds:
    def test_values(self):
        assert prob_opposite_ends(1, 2) == pytest.approx(0.5)
        assert prob_opposite_ends(0, 9) == 0.0

    def test_reflection_symmetry(self):
        for x in range(0, 13):
            assert prob_opposite_ends(x, 12) == pytest.approx(prob_opposite_ends(12 - x, 12))

    def test_bounded_by_half(self):
        assert all(prob_opposite_ends(x, 30) <= 0.5 for x in range(31))


class TestAverage:
    def test_single_site_domain(self):
        assert average_opposite(1) == 0.0

    def test_closed_form(self):
        assert average_opposite(100) == pytest.approx(0.33)

    def test_long_chain_limit(self):
        assert abs(average_opposite(10 ** 6) - 1.0 / 3.0) < 1e-6

    def test_closed_form_equals_summation(self):
        # average_opposite raises internally when the two disagree
        for length in (1, 2, 3, 10, 137, 1000):
            p = average_opposite(length)
            direct = math.fsum(prob_opposite_ends(x, length) for x in range(length + 1))
            assert abs(p - direct / (length + 1)) <= 1e-14


class TestMonteCarlo:
    def test_within_three_sigma(self):
        res = simulate_pair_walks(WalkConfig(length=2, trials=10 ** 6, seed=20240501))
        assert res.p_opposite_exact == pytest.approx(1.0 / 6.0)
        assert abs(res.p_opposite_mc - res.p_opposite_exact) < 3 * res.mc_std_error

    def test_unit_domain_never_opposite(self):
        res = simulate_pair_walks(WalkConfig(length=1, trials=5000, seed=3))
        assert res.p_opposite_mc == 0.0
        assert res.p_opposite_exact == 0.0

    def test_determinism(self):
        a = simulate_pair_walks(WalkConfig(length=10, trials=20000, seed=42))
        b = simulate_pair_walks(WalkConfig(length=10, trials=20000, seed=42))
        assert a == b

    def test_seed_sensitivity(self):
        a = simulate_pair_walks(WalkConfig(length=10, trials=20000, seed=1))
        b = simulate_pair_walks(WalkConfig(length=10, trials=20000, seed=2))
        assert a.p_opposite_mc != b.p_opposite_mc

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            WalkConfig(length=0, trials=10, seed=0)
        with pytest.raises(InvalidParameterError):
            WalkConfig(length=5, trials=0, seed=0)
        with pytest.raises(InvalidParameterError, match="seed"):
            WalkConfig(length=5, trials=10, seed=-1)


def masked_walk_to_ends(rng, pos, length):
    """Reference walk: recompute the live mask over the whole block every step.

    Hands the k-th draw of an iteration to the k-th live walker in index
    order, which fixes the random realisation of every walk result.
    """
    pos = pos.astype(np.int64, copy=True)
    active = (pos > 0) & (pos < length)
    sweeps = 0
    while np.any(active):
        steps = rng.integers(0, 2, size=int(active.sum()), dtype=np.int64) * 2 - 1
        pos[active] += steps
        active = (pos > 0) & (pos < length)
        sweeps += 1
        if sweeps > qpwalk.MAX_STEPS_PER_WALKER:
            raise RuntimeError("walker exceeded the %d-step cap" % qpwalk.MAX_STEPS_PER_WALKER)
    return pos == length


def reference_walks(config):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qpwalk, "_walk_to_ends", masked_walk_to_ends)
        return simulate_pair_walks(config)


class TestWalkRealisation:
    """The compact walk reproduces the masked reference draw for draw."""

    @pytest.mark.parametrize("length", [1, 2, 3, 10, 40])
    def test_matches_reference_across_a_block_boundary(self, length):
        config = WalkConfig(length=length, trials=BLOCK + 3, seed=length)
        assert simulate_pair_walks(config) == reference_walks(config)

    @pytest.mark.parametrize("length", [1, 2, 7])
    def test_absorbed_starts_draw_nothing(self, length):
        # walkers starting at 0 or L take no step and leave the stream alone
        start = np.array([0, length, 0, length], dtype=np.int64)
        rng = np.random.default_rng(5)
        assert list(qpwalk._walk_to_ends(rng, start, length)) == [False, True, False, True]
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([qpwalk.STEP_CHUNK, 1, 2, 3, 7]))
    # a chunk of 1 is used up exactly on every refill
    @example(length=12, n=12, seed=0, chunk=1)
    # 12 walkers outnumber a chunk of 7 and then fall below it; the walk ends
    # with its last buffer used up exactly, after carrying a tail into it
    @example(length=12, n=12, seed=4, chunk=7)
    def test_walk_matches_reference_and_consumes_the_same_stream(self, length, n, seed, chunk):
        # starting points cover the absorbed ends 0 and L as well as the interior;
        # small chunks refill mid-walk, carry a tail and rewind the last draw
        start = np.random.default_rng(seed).integers(0, length + 1, size=n, dtype=np.int64)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qpwalk, "STEP_CHUNK", chunk)
            got = qpwalk._walk_to_ends(rng, start, length)
        assert np.array_equal(got, masked_walk_to_ends(ref_rng, start, length))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_integer_draws_concatenate(self):
        # _walk_to_ends fetches steps in chunks and rewinds the unused tail;
        # that gives the per-iteration realisation only under this property
        for seed in (0, 7, 2 ** 32 - 1):
            for a, b in [(1, 1), (1, 2), (2, 3), (4, 6), (3, 4096), (4096, 7)]:
                whole, split = np.random.default_rng(seed), np.random.default_rng(seed)
                one = whole.integers(0, 2, size=a + b, dtype=np.int64)
                two = np.concatenate([split.integers(0, 2, size=k, dtype=np.int64)
                                      for k in (a, b)])
                message = ("numpy integers(0, 2, dtype=int64) draws of sizes %d and %d no "
                           "longer concatenate to one draw of size %d (seed %d)"
                           % (a, b, a + b, seed))
                assert np.array_equal(one, two), message
                assert whole.bit_generator.state == split.bit_generator.state, message

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(1, 400), st.integers(0, 2 ** 32 - 1))
    def test_estimate_matches_reference(self, length, trials, seed):
        config = WalkConfig(length=length, trials=trials, seed=seed)
        assert simulate_pair_walks(config) == reference_walks(config)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(qpwalk, "MAX_STEPS_PER_WALKER", 3)
        with pytest.raises(RuntimeError, match="3-step cap"):
            simulate_pair_walks(WalkConfig(length=40, trials=100, seed=0))
