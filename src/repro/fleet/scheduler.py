"""Shard scheduling: fan a population out, fold records back in order.

The scheduler slices the population into contiguous user-range shards
(users never straddle shards — their OTP/keyguard state lives in the
executor), runs them inline or on a :class:`~concurrent.futures.
ProcessPoolExecutor`, and **folds each shard's records into the
aggregate the moment they arrive, in shard-index order, then drops
them**.  Peak memory is therefore one shard's records plus the
constant-size aggregate, regardless of population size.

On contended runs every user is synthesized before dispatch, by one
:func:`~repro.fleet.executor.shard_population` call over the whole
population that is then cut at the shard bounds.  The scheduler
therefore batches by *work*, not by user range: consecutive ranges are
packed into one dispatched shard until it holds enough users with
sessions (:meth:`FleetScheduler.dispatch_target`).  A sparse day then
hands the staging primitives a few full batches instead of many
near-empty ones.

Every shard runs at the scheduler's ``staging`` level: ``"none"`` runs
each session live, ``"otp"`` stages every protocol phase under any
fault plan (:func:`~repro.fleet.executor.run_shard`).  Either way a
shard's records are the same.

Folding in shard-index order (not completion order) is what pins the
float-summation order and makes the aggregate document byte-identical
for any ``workers`` value — the property CI checks on every push.
Wall-clock numbers live on :class:`FleetResult`, never inside the
aggregate document.
"""

from __future__ import annotations

import math
import numbers
import time
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.trace import NullTracer, Tracer
from ..errors import ConfigurationError
from .aggregate import FleetAggregate
from .events import build_contention_plan
from .executor import (
    STAGING_LEVELS,
    ShardPopulation,
    run_shard,
    shard_population,
)
from .population import FleetConfig

__all__ = ["FleetResult", "FleetScheduler"]


@dataclass(frozen=True)
class FleetResult:
    """Aggregate + runtime telemetry of one fleet run.

    Only :attr:`aggregate` is deterministic; the wall-clock fields
    describe *this* execution and are deliberately kept out of the
    aggregate document.
    """

    aggregate: FleetAggregate
    config: FleetConfig
    sessions: int
    #: Dispatched shards (``run_shard`` calls); on contended runs packing
    #: can make this fewer than :meth:`FleetScheduler.shard_bounds`.
    shards: int
    workers: int
    wall_s: float

    @property
    def sessions_per_sec(self) -> float:
        return self.sessions / self.wall_s if self.wall_s > 0 else 0.0


class FleetScheduler:
    """Runs a :class:`~repro.fleet.population.FleetConfig` to completion.

    Parameters
    ----------
    config:
        The population/run description.
    workers:
        ``<= 1`` runs shards inline; ``> 1`` fans shards out on a
        process pool (``run_shard`` is module-level and the config is
        tiny, so pickling costs are negligible).
    shard_users:
        Users per shard.  Larger shards amortize population seeding,
        the probe/OTP staging batches and the DTW wavefront over more
        users and sessions; smaller shards parallelize and stream
        better.  The default (25) keeps a shard's records in the
        low hundreds.  On contended runs it bounds users *with
        sessions* per dispatched shard instead: consecutive ranges are
        packed until a shard holds :meth:`dispatch_target` of them.
        Staging memory is bounded separately, by
        :data:`~repro.fleet.executor.STAGING_ROWS`.
    tracer:
        Optional :class:`~repro.core.trace.Tracer`; the run is wrapped
        in a ``fleet.run`` span carrying session/shard/user counters.
    staging:
        Shard staging level (see :data:`~repro.fleet.executor.
        STAGING_LEVELS`): ``"none"`` runs every stage live, ``"otp"``
        (the default) stages the prefilter, the Phase-1 probe and the
        Phase-2 OTP waves under any fault plan.  Both levels produce a
        byte-identical aggregate.
    """

    def __init__(
        self,
        config: FleetConfig,
        workers: int = 1,
        shard_users: int = 25,
        tracer: Optional[Tracer] = None,
        staging: str = "otp",
    ):
        for name, value in (
            ("shard_users", shard_users),
            ("workers", workers),
        ):
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral
            ):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
        if shard_users <= 0:
            raise ConfigurationError("shard_users must be positive")
        if workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if staging not in STAGING_LEVELS:
            raise ConfigurationError(
                f"staging must be one of {STAGING_LEVELS}, got {staging!r}"
            )
        self.config = config
        self.workers = int(workers)
        self.shard_users = int(shard_users)
        self.tracer = tracer if tracer is not None else NullTracer()
        self.staging = staging

    def shard_bounds(self) -> List[Tuple[int, int]]:
        """Contiguous ``[lo, hi)`` user ranges covering the population."""
        n = self.config.n_users
        return [
            (lo, min(lo + self.shard_users, n))
            for lo in range(0, n, self.shard_users)
        ]

    def dispatch_target(self, active_users: int) -> int:
        """Users with sessions a packed contended shard must hold.

        ``shard_users`` inline; on a pool, no more than an even split
        of ``active_users`` over the workers, so packing never leaves a
        worker idle.  Never below one.
        """
        target = self.shard_users
        if self.workers > 1:
            target = min(target, math.ceil(active_users / self.workers))
        return max(1, target)

    def _split(self, population: ShardPopulation) -> List[ShardPopulation]:
        """Cut a whole-run population (in user-id order) at the shard
        bounds."""
        user_ids = [user.user_id for user, _ in population]
        return [
            population[bisect_left(user_ids, lo) : bisect_left(user_ids, hi)]
            for lo, hi in self.shard_bounds()
        ]

    def _packed(
        self, populations: List[ShardPopulation]
    ) -> Tuple[List[Tuple[int, int]], List[ShardPopulation]]:
        """Merge consecutive shard ranges (and their populations) until
        each holds :meth:`dispatch_target` active users; the last takes
        the remainder."""
        target = self.dispatch_target(sum(map(len, populations)))
        ranges: List[Tuple[int, int]] = []
        packed: List[ShardPopulation] = []
        lo: Optional[int] = None
        merged: ShardPopulation = []
        for (b_lo, b_hi), population in zip(self.shard_bounds(), populations):
            lo = b_lo if lo is None else lo
            merged.extend(population)
            if len(merged) >= target:
                ranges.append((lo, b_hi))
                packed.append(merged)
                lo, merged = None, []
        if lo is not None:
            ranges.append((lo, self.config.n_users))
            packed.append(merged)
        return ranges, packed

    def run(self) -> FleetResult:
        """Execute every shard and return the folded result."""
        bounds = self.shard_bounds()
        agg = FleetAggregate()
        t0 = time.perf_counter()
        with self.tracer.span("fleet.run"):
            # The contention kernel is global by nature (scenes span
            # shards), so its plan is computed once here and sliced per
            # shard — each worker receives only its users' annotations.
            # The kernel needs every user's schedule, so the population
            # is synthesized once, here, in one call over every user
            # (its activity filter works through large blocks; a call
            # per shard would pay the filter's array work per shard).
            # It feeds the plan, is cut at the shard bounds, and each
            # piece is handed to its shard instead of being synthesized
            # again.  The plan is a pure function of the config, which
            # is what keeps the aggregate byte-identical for any worker
            # count.  With every population in hand, sparse ranges are
            # packed into fuller shards; the records cannot depend on
            # the split, so neither can the document.
            populations: List[Optional[ShardPopulation]] = [None] * len(bounds)
            plan = None
            if self.config.scene_density > 0.0:
                population = shard_population(
                    self.config, 0, self.config.n_users
                )
                plan = build_contention_plan(
                    self.config,
                    (spec for _, specs in population for spec in specs),
                )
                bounds, populations = self._packed(self._split(population))
                del population

            def _shard_args(i: int):
                lo, hi = bounds[i]
                # Hand the shard its population and drop ours, so each
                # shard's users are freed as soon as it is consumed.
                population, populations[i] = populations[i], None
                return (
                    self.config,
                    lo,
                    hi,
                    self.staging,
                    plan.for_user_range(lo, hi) if plan else None,
                    population,
                )

            if self.workers > 1:
                with ProcessPoolExecutor(max_workers=self.workers) as pool:
                    futures = [
                        pool.submit(run_shard, *_shard_args(i))
                        for i in range(len(bounds))
                    ]
                    # Fold in shard-index order: future[i] may finish
                    # after future[j>i], but we consume in order so the
                    # aggregate's float folds are canonical.  Completed
                    # shards ahead of the cursor wait inside the pool,
                    # bounding live records to O(workers * shard).
                    for future in futures:
                        agg.merge_records(future.result())
            else:
                for i in range(len(bounds)):
                    agg.merge_records(run_shard(*_shard_args(i)))
            self.tracer.counter("users", float(self.config.n_users))
            self.tracer.counter("shards", float(len(bounds)))
            self.tracer.counter("sessions", float(agg.sessions))
            self.tracer.counter("pin_fallbacks", float(agg.pin_fallbacks))
        wall = time.perf_counter() - t0
        return FleetResult(
            aggregate=agg,
            config=self.config,
            sessions=agg.sessions,
            shards=len(bounds),
            workers=self.workers,
            wall_s=wall,
        )
