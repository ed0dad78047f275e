"""Work-packed dispatch and the staging row cap.

On contended runs the scheduler packs consecutive shard ranges into one
``run_shard`` call until the call holds enough users with sessions, and
every batched stage step (and so every DTW wavefront) is capped at
:data:`~repro.fleet.executor.STAGING_ROWS` rows.  Neither may change
the aggregate document: it must equal a fold of direct ``run_shard``
calls over the plain :meth:`~repro.fleet.scheduler.FleetScheduler.
shard_bounds`.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import Future
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.stages import StageEngine
from repro.errors import ConfigurationError
from repro.fleet import FleetAggregate, FleetConfig, FleetScheduler, run_shard
from repro.fleet import executor, scheduler
from repro.protocol import stages


def _doc(aggregate, hours) -> str:
    return json.dumps(aggregate.to_dict(hours=hours), sort_keys=True, indent=2)


class _InlinePool:
    """A stand-in process pool that runs each submission at once, so the
    dispatched calls of a ``workers > 1`` run can be observed."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _traced_run(config, shard_users, workers, staging_rows):
    """Run the scheduler with the staging cap set to ``staging_rows``;
    return the result, the dispatched ``(lo, hi, population)`` calls and
    the row count of every batched stage step, DTW wavefront and OTP
    receive block."""
    calls = []
    rows = []

    def dispatched(config, lo, hi, staging, contention, population):
        calls.append((lo, hi, population))
        return run_shard(config, lo, hi, staging, contention, population)

    def counted(fn, rows_of):
        def wrapper(*args):
            rows.append(rows_of(args))
            return fn(*args)

        return wrapper

    with ExitStack() as stack:
        for target, attr, value in (
            (scheduler, "run_shard", dispatched),
            (scheduler, "ProcessPoolExecutor", _InlinePool),
            (executor, "STAGING_ROWS", staging_rows),
            (
                stages,
                "normalized_dtw_batch",
                counted(stages.normalized_dtw_batch, lambda a: len(a[0])),
            ),
            (
                StageEngine,
                "step_paused",
                staticmethod(
                    counted(StageEngine.step_paused, lambda a: len(a[0]))
                ),
            ),
            (
                executor,
                "precompute_otp",
                counted(executor.precompute_otp, lambda a: len(a[0])),
            ),
        ):
            stack.enter_context(mock.patch.object(target, attr, value))
        result = FleetScheduler(
            config, workers=workers, shard_users=shard_users, staging="otp"
        ).run()
    return result, calls, rows


class TestPackingProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_users=st.integers(1, 80),
        hours=st.floats(0.05, 1.0),
        scene_density=st.one_of(st.just(0.0), st.floats(1.0, 60.0)),
        shard_users=st.integers(1, 40),
        workers=st.sampled_from([1, 2]),
        staging_rows=st.integers(1, 4),
    )
    def test_packed_dispatch(
        self, seed, n_users, hours, scene_density, shard_users, workers,
        staging_rows,
    ):
        config = FleetConfig(
            n_users=n_users,
            hours=hours,
            seed=seed,
            scene_density=scene_density,
            fusion_mix="score",
            # Dense enough that a night-time hour still holds sessions.
            sessions_per_day=160.0,
        )
        result, calls, rows = _traced_run(
            config, shard_users, workers, staging_rows
        )
        bounds = FleetScheduler(config, shard_users=shard_users).shard_bounds()

        # The document equals a fold of direct calls over the plain split.
        folded = FleetAggregate()
        for lo, hi in bounds:
            folded.merge_records(run_shard(config, lo, hi, staging="otp"))
        assert _doc(result.aggregate, hours) == _doc(folded, hours)

        # Dispatched ranges cover [0, n_users) contiguously, on shard
        # boundaries, and are what FleetResult.shards counts.
        ranges = [(lo, hi) for lo, hi, _ in calls]
        assert result.shards == len(ranges)
        assert ranges[0][0] == 0 and ranges[-1][1] == n_users
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert {hi for _, hi in ranges} <= {hi for _, hi in bounds}

        if scene_density == 0.0:
            # Uncontended: no population exists before dispatch.
            assert ranges == bounds
            assert all(population is None for _, _, population in calls)
        else:
            active = [len(population) for _, _, population in calls]
            for lo, hi, population in calls:
                assert all(lo <= user.user_id < hi for user, _ in population)
            target = shard_users
            if workers > 1:
                target = min(shard_users, math.ceil(sum(active) / workers))
            # Every range but the last holds at least `target` active
            # users, and packing stops at the first shard that gets there.
            assert all(n >= target for n in active[:-1])
            for lo, hi, population in calls[:-1]:
                last_lo = max(lo, hi - shard_users)
                before = sum(user.user_id < last_lo for user, _ in population)
                assert before < max(1, target)

        # No staged DSP call ever exceeds the row cap.
        assert all(0 < n <= staging_rows for n in rows)


class TestPackingOnASparseDay:
    # Sparse and contended: most 25-user ranges hold one or two users
    # with sessions.
    CONFIG = FleetConfig(
        n_users=600, hours=0.5, seed=3, scene_density=40.0,
        sessions_per_day=24.0,
    )

    def test_fewer_dispatched_shards_same_document(self):
        packed = FleetScheduler(self.CONFIG, shard_users=25).run()
        bounds = FleetScheduler(self.CONFIG, shard_users=25).shard_bounds()
        assert packed.sessions > 0
        assert packed.shards < len(bounds)
        whole = FleetScheduler(self.CONFIG, shard_users=600).run()
        assert whole.shards == 1
        assert _doc(packed.aggregate, self.CONFIG.hours) == _doc(
            whole.aggregate, self.CONFIG.hours
        )

    def test_dispatch_target(self):
        inline = FleetScheduler(self.CONFIG, shard_users=25)
        assert inline.dispatch_target(7) == 25
        pooled = FleetScheduler(self.CONFIG, workers=4, shard_users=25)
        assert pooled.dispatch_target(40) == 10
        assert pooled.dispatch_target(400) == 25
        assert pooled.dispatch_target(0) == 1


class TestSchedulerArguments:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shard_users": 2.5},
            {"shard_users": True},
            {"shard_users": float("nan")},
            {"shard_users": "25"},
            {"shard_users": 0},
            {"workers": 1.5},
            {"workers": False},
            {"workers": float("nan")},
            {"workers": "2"},
            {"workers": -1},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FleetScheduler(FleetConfig(n_users=2), **kwargs)

    def test_numpy_integers_accepted(self):
        sched = FleetScheduler(
            FleetConfig(n_users=2),
            workers=np.int64(2),
            shard_users=np.int32(5),
        )
        assert type(sched.workers) is int and sched.workers == 2
        assert type(sched.shard_users) is int and sched.shard_users == 5

    @pytest.mark.parametrize(
        "flags",
        [
            ["--shard-users", "2.5"],
            ["--shard-users", "nan"],
            ["--shard-users", "true"],
            ["--workers", "1.5"],
            ["--workers", "nan"],
            ["--workers", "two"],
        ],
    )
    def test_fleet_run_cli_exits_2(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "run", "--users", "2", *flags])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
