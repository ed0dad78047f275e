"""Batched population seeding and fleet config validation.

``shard_population`` derives every user's two generator states for a
block of users at once (:func:`~repro.eval.batch.cell_seeds` plus the
vectorized PCG64 seeding of ``repro.fleet.population``), skips the users
the activity filter proves idle, positions one reused generator per
stream, and skips users without a session after a draw-only pass (the
filter's own tests are in ``tests/test_activity_filter.py``); the
scalar walk of ``tests/population_oracle.py``, one
``default_rng(cell_seed(...))`` per user and stream, is the oracle it
must match bit for bit.  Also covers
:class:`~repro.fleet.population.FleetConfig`'s numeric validation and
the ``fleet run`` CLI's config-error exit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.eval.batch import cell_seed, cell_seeds
from repro.fleet import FleetConfig
from repro.fleet.executor import shard_population
from repro.fleet.population import (
    FUSION_MIXES,
    MAX_SESSIONS_PER_DAY,
    _pcg64_seed,
    _state_dicts,
)
from tests import population_oracle

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def pcg64_states(seeds):
    """The vectorized seeding's ``bit_generator.state`` dict per seed."""
    return _state_dicts(*_pcg64_seed(seeds))


def _positioned(state) -> np.random.Generator:
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


class TestDefaultRngStates:
    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS)
    @example(seed=0)
    @example(seed=2**31 - 1)
    @example(seed=2**32 - 1)
    def test_matches_default_rng(self, seed):
        (state,) = pcg64_states([seed])
        fresh = np.random.default_rng(seed)
        assert state == fresh.bit_generator.state
        rng = _positioned(state)
        assert rng.random() == fresh.random()
        assert rng.lognormal(-0.125, 0.5) == fresh.lognormal(-0.125, 0.5)
        assert rng.poisson(3.7) == fresh.poisson(3.7)

    @settings(max_examples=50, deadline=None)
    @given(seeds=st.lists(SEEDS, max_size=40))
    def test_batch_rows_are_independent(self, seeds):
        assert pcg64_states(seeds) == [
            np.random.default_rng(s).bit_generator.state for s in seeds
        ]

    @pytest.mark.parametrize("seed", [2**32, 2**32 + 1, 2**40, 2**64, -1])
    def test_rejects_multi_word_and_negative_seeds(self, seed):
        with pytest.raises(ValueError):
            pcg64_states([0, seed])


class TestCellSeeds:
    @pytest.mark.parametrize(
        "sweep_seed", [0, 42, -1, -(2**63), 2**63 - 1, 2**40 + 7]
    )
    @pytest.mark.parametrize(
        "tag", ["user", "schedule", "it's", 'say "hi"', "both ' and \"", "é"]
    )
    def test_equals_cell_seed(self, sweep_seed, tag):
        ids = range(-5, 60)
        assert cell_seeds(sweep_seed, tag, ids) == [
            cell_seed(sweep_seed, tag, i) for i in ids
        ]

    def test_bound_is_forwarded(self):
        assert cell_seeds(3, "user", range(10), bound=97) == [
            cell_seed(3, "user", i, bound=97) for i in range(10)
        ]

    @pytest.mark.parametrize("sweep_seed", [3, -1, -(2**63)])
    @pytest.mark.parametrize("bound", [1, 97, 2**31, 2**63, 2**64, 2**70])
    def test_every_bound_folds_as_cell_seed(self, sweep_seed, bound):
        seeds = cell_seeds(sweep_seed, "user", range(-3, 40), bound=bound)
        assert seeds == [
            cell_seed(sweep_seed, "user", i, bound=bound)
            for i in range(-3, 40)
        ]
        assert all(type(s) is int for s in seeds)

    def test_empty_ids(self):
        assert cell_seeds(5, "user", []) == []


#: Mean attempts per day for the population oracle: zero, sparse,
#: moderate, and heavy enough (>= 300) that the hourly Poisson mean
#: reaches 10+, where numpy switches to its PTRS sampler.
RATES = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=1.0, max_value=20.0),
    st.floats(min_value=300.0, max_value=400.0),
)


class TestShardPopulation:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=-(2**63), max_value=2**63 - 1),
        hours=st.one_of(
            st.floats(min_value=0.05, max_value=3.0),
            st.floats(min_value=24.0, max_value=60.0),
        ),
        fusion_mix=st.sampled_from(FUSION_MIXES),
        sessions_per_day=RATES,
        lo=st.integers(min_value=0, max_value=40),
        width=st.integers(min_value=0, max_value=40),
    )
    # User 5 of seed 0 has an empty first hour and a session in the
    # second: the draw-only pass must read past hour 0.
    @example(
        seed=0, hours=3.0, fusion_mix="legacy", sessions_per_day=4.0,
        lo=5, width=1,
    )
    def test_matches_scalar_loop(
        self, seed, hours, fusion_mix, sessions_per_day, lo, width
    ):
        hi = lo + width
        config = FleetConfig(
            n_users=max(hi, 1),
            hours=hours,
            seed=seed,
            fusion_mix=fusion_mix,
            sessions_per_day=sessions_per_day,
        )
        assert shard_population(config, lo, hi) == population_oracle.shard(
            config, lo, hi
        )

    def test_zero_session_users_never_materialize(self, monkeypatch):
        import repro.fleet.executor as executor

        calls = {"synthesize_user": 0, "user_sessions": 0}

        def counted(name):
            real = getattr(executor, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(executor, name, wrapper)

        counted("synthesize_user")
        counted("user_sessions")
        config = FleetConfig(n_users=2000, hours=0.5, seed=0)
        population = shard_population(config, 0, config.n_users)
        assert 0 < len(population) < config.n_users // 10
        assert calls == {
            "synthesize_user": len(population),
            "user_sessions": len(population),
        }


class TestFleetConfigNumbers:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hours": float("nan")},
            {"hours": float("inf")},
            {"sessions_per_day": float("nan")},
            {"sessions_per_day": float("inf")},
            {"sessions_per_day": -1.0},
            {"sessions_per_day": 1440.5},
            {"sessions_per_day": 1e19},
            {"sessions_per_day": 1e300},
            {"scene_density": float("nan")},
            {"scene_density": float("inf")},
            {"seed": 2**63},
            {"seed": -(2**63) - 1},
            {"seed": 2**70},
            {"seed": 1.5},
            {"seed": True},
            {"n_users": 2.5},
            {"n_users": True},
        ],
    )
    def test_rejected_at_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            FleetConfig(**kwargs)

    def test_sessions_per_day_ceiling_is_inclusive(self):
        assert FleetConfig(
            sessions_per_day=MAX_SESSIONS_PER_DAY
        ).sessions_per_day == MAX_SESSIONS_PER_DAY

    def test_seed_range_edges_and_numpy_integers_accepted(self):
        assert FleetConfig(seed=2**63 - 1).seed == 2**63 - 1
        assert FleetConfig(seed=-(2**63)).seed == -(2**63)
        config = FleetConfig(n_users=np.int64(3), seed=np.int32(7))
        assert config == FleetConfig(n_users=3, seed=7)
        assert type(config.seed) is int and type(config.n_users) is int


@pytest.mark.parametrize(
    "flags",
    [
        ["--shard-users", "0"],
        ["--workers", "-1"],
        ["--hours", "nan"],
        ["--sessions-per-day", "1e300"],
    ],
)
def test_fleet_run_cli_reports_bad_config(flags, capsys):
    from repro.cli import main

    assert main(["fleet", "run", "--users", "2", *flags]) == 2
    assert "bad fleet config" in capsys.readouterr().err
