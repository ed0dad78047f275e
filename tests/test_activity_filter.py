"""The population's vectorized activity filter and the numpy facts it uses.

:func:`~repro.fleet.population.active_user_streams` skips a user only
when guard bands prove that the exact scalar pass
(:func:`~repro.fleet.population.has_sessions`) would find no session.
The proof rests on numpy internals that numpy does not promise: how
``default_rng`` seeds PCG64 and how PCG64 steps and outputs, the
ziggurat's fast path and tables, ``random()``'s 53-bit uniform and the
Poisson sampler's multiplication method.  Each is checked here against
the installed numpy, so a numpy that changes one of them fails these
tests instead of silently changing populations.  The filter as a whole
is checked against the scalar walk of ``tests/population_oracle.py``
on city-sized sparse populations.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.eval.batch import cell_seeds
from repro.fleet import FleetConfig
from repro.fleet.executor import shard_population
from repro.fleet.population import (
    _KI_GUARD,
    _POISSON_MULT_MAX,
    _RATE_RTOL,
    _Z_RTOL,
    _pcg64_advance,
    _pcg64_output,
    _pcg64_seed,
    _rate_bounds,
    _ziggurat_bounds,
    active_user_streams,
    synthesize_user,
)
from tests import population_oracle

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_INC = 0x5851F42D4C957F2D14057B7EF767814F | 1


def _emitting(r: int, inc: int = _INC) -> np.random.Generator:
    """A generator whose next uint64 is ``r``.

    PCG64 steps ``state = state * MULT + inc`` and then emits
    ``rotr64(high ^ low, high >> 58)``; stepping into ``state == r``
    (high word 0, rotation 0) emits ``r``.
    """
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": (r - inc) * pow(_MULT, -1, 1 << 128) & _MASK128,
            "inc": inc,
        },
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _steps_taken(rng: np.random.Generator, r: int) -> int:
    """How many uint64 draws ``rng`` made since :func:`_emitting` (< 64)."""
    probe = _emitting(r)
    for steps in range(64):
        if probe.bit_generator.state == rng.bit_generator.state:
            return steps
        probe.bit_generator.random_raw()
    raise AssertionError("64 draws or more")


class TestVectorizedPcg64:
    @settings(max_examples=100, deadline=None)
    @given(seeds=st.lists(SEEDS, min_size=1, max_size=30))
    @example(seeds=[0, 2**31 - 1, 2**32 - 1])
    def test_seeding_and_stepping_match_numpy(self, seeds):
        state, inc = _pcg64_seed(seeds)
        for row, seed in enumerate(seeds):
            fresh = np.random.default_rng(seed).bit_generator.state["state"]
            assert int(state[0][row]) << 64 | int(state[1][row]) == (
                fresh["state"]
            )
            assert int(inc[0][row]) << 64 | int(inc[1][row]) == fresh["inc"]
        raw = np.stack(
            [np.random.default_rng(s).bit_generator.random_raw(6) for s in seeds]
        )
        stepped = state
        for k in range(1, 7):
            stepped = _pcg64_advance(stepped, inc, 1)
            assert np.array_equal(_pcg64_output(stepped), raw[:, k - 1])
            assert np.array_equal(
                _pcg64_output(_pcg64_advance(state, inc, k)), raw[:, k - 1]
            )

    def test_crafted_state_emits_the_chosen_word(self):
        for r in (0, 1, 0xDEADBEEF12345678, 2**64 - 1):
            assert _emitting(r).bit_generator.random_raw() == r


class TestNumpyDrawFacts:
    @pytest.mark.parametrize("r", [0, 1 << 11, 0x9E3779B97F4A7C15, 2**64 - 1])
    def test_uniform_is_top_53_bits(self, r):
        assert _emitting(r).random() == (r >> 11) * 2.0**-53

    @pytest.mark.parametrize("layer", range(256))
    def test_ziggurat_fast_path_within_bounds(self, layer):
        wi, ki_lo = _ziggurat_bounds()
        if layer == 1:
            # numpy's ki[1] is 0: layer 1 never takes the fast path.
            assert ki_lo[1] == 0
            return
        rabs = int(ki_lo[layer]) - 1
        assert rabs > 2**51
        for sign in (0, 1):
            r = layer | sign << 8 | rabs << 9
            rng = _emitting(r)
            x = rng.standard_normal()
            assert _steps_taken(rng, r) == 1
            assert math.copysign(1.0, x) == (-1.0 if sign else 1.0)
            assert abs(abs(x) / rabs / wi[layer] - 1.0) < _Z_RTOL / 10
            lognormal = _emitting(r).lognormal(mean=-0.125, sigma=0.5)
            assert lognormal == pytest.approx(
                math.exp(-0.125 + 0.5 * x), rel=1e-15
            )

    @pytest.mark.parametrize("layer", [0, 2, 3, 100, 255])
    def test_ziggurat_guard_band_is_slack(self, layer):
        # The lowered ki sits far below numpy's: the first slow-path
        # rabs is at least half a guard band above it.
        ki_lo = int(_ziggurat_bounds()[1][layer])
        r = layer | (ki_lo + _KI_GUARD // 2) << 9
        rng = _emitting(r)
        rng.standard_normal()
        assert _steps_taken(rng, r) == 1

    @pytest.mark.parametrize("mean", [1e-6, 0.01, 0.5, 3.0, 9.99])
    def test_poisson_zero_count_is_one_uniform_below_exp(self, mean):
        edge = math.exp(-mean)
        below = int(edge * (1 - _RATE_RTOL) * 2.0**53) << 11
        rng = _emitting(below)
        assert rng.poisson(mean) == 0
        assert _steps_taken(rng, below) == 1
        above = int(min(edge * (1 + 1e-6), 1 - 2.0**-53) * 2.0**53) << 11
        if above >> 11 > edge * 2.0**53:
            assert _emitting(above).poisson(mean) >= 1

    def test_poisson_zero_mean_draws_nothing(self):
        rng = _emitting(12345)
        assert rng.poisson(0.0) == 0
        assert _steps_taken(rng, 12345) == 0

    def test_poisson_method_switch(self):
        # Below the switch a zero count is one uniform; from it on,
        # numpy's PTRS sampler draws at least two per trial.
        below = _emitting(0)
        assert below.poisson(np.nextafter(_POISSON_MULT_MAX, 0.0)) == 0
        assert _steps_taken(below, 0) == 1
        at = _emitting(0)
        at.poisson(_POISSON_MULT_MAX)
        assert _steps_taken(at, 0) >= 2


class TestRateBounds:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=-(2**63), max_value=2**63 - 1),
        sessions_per_day=st.floats(min_value=0.01, max_value=1440.0),
        lo=st.integers(min_value=0, max_value=10**6),
    )
    def test_bound_covers_the_exact_personal_rate(
        self, seed, sessions_per_day, lo
    ):
        config = FleetConfig(
            n_users=lo + 64, seed=seed, sessions_per_day=sessions_per_day
        )
        ids = range(lo, lo + 64)
        state, inc = _pcg64_seed(cell_seeds(seed, "user", ids))
        per_hour_hi, proven = _rate_bounds(config, state, inc)
        assert proven.mean() > 0.75
        for row, user_id in enumerate(ids):
            rng = np.random.default_rng(cell_seeds(seed, "user", [user_id])[0])
            per_hour = synthesize_user(config, user_id, rng).sessions_per_day / 24
            if proven[row]:
                assert per_hour <= per_hour_hi[row] <= per_hour * (1 + 1e-6)


class TestSparsePopulations:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("hours", [0.25, 0.5, 2.5])
    def test_matches_oracle_at_city_scale(self, seed, hours):
        config = FleetConfig(
            n_users=20_000, hours=hours, seed=seed, fusion_mix="score"
        )
        expected = population_oracle.shard(config, 0, config.n_users)
        assert shard_population(config, 0, config.n_users) == expected
        reached = sum(1 for _ in active_user_streams(config, 0, config.n_users))
        # The filter did the skipping: few users reach the scalar path.
        assert len(expected) <= reached < config.n_users // 5

    def test_block_edges_do_not_matter(self):
        config = FleetConfig(n_users=9000, hours=0.5, seed=3)
        whole = shard_population(config, 0, config.n_users)
        pieces = [
            user
            for lo in range(0, config.n_users, 1234)
            for user in shard_population(
                config, lo, min(lo + 1234, config.n_users)
            )
        ]
        assert pieces == whole

    def test_zero_rate_reaches_no_scalar_path(self):
        config = FleetConfig(n_users=500, sessions_per_day=0.0)
        assert list(active_user_streams(config, 0, config.n_users)) == []
