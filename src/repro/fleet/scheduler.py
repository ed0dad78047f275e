"""Shard scheduling: fan a population out, fold records back in order.

The scheduler slices the population into contiguous user-range shards
(users never straddle shards — their OTP/keyguard state lives in the
executor), runs them inline or on a :class:`~concurrent.futures.
ProcessPoolExecutor`, and **folds each shard's records into the
aggregate the moment they arrive, in shard-index order, then drops
them**.  Peak memory is therefore one shard's records plus the
constant-size aggregate, regardless of population size.

Folding in shard-index order (not completion order) is what pins the
float-summation order and makes the aggregate document byte-identical
for any ``workers`` value — the property CI checks on every push.
Wall-clock numbers live on :class:`FleetResult`, never inside the
aggregate document.
"""

from __future__ import annotations

import time
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
        Users per shard.  Larger shards amortize the batched-DTW
        wavefront over more sessions; smaller shards parallelize and
        stream better.  The default (25) keeps a shard's records in the
        low hundreds.
    tracer:
        Optional :class:`~repro.core.trace.Tracer`; the run is wrapped
        in a ``fleet.run`` span carrying session/shard/user counters.
    batched:
        Legacy switch: ``False`` forces the all-live path (staging
        ``"none"``), ``True`` the full fast path (staging ``"probe"``).
        Ignored when ``staging`` is given explicitly.
    staging:
        Shard staging level (see :data:`~repro.fleet.executor.
        STAGING_LEVELS`): ``"none"`` runs every stage live, ``"dtw"``
        batches the motion DTW per shard, ``"probe"`` additionally
        batches the Phase-1 probe DSP, and ``"otp"`` additionally
        wave-batches the Phase-2 OTP transmit/receive (acoustic levels
        degrade to ``"dtw"`` under fault injection).  Every level
        produces a byte-identical aggregate.
    """

    def __init__(
        self,
        config: FleetConfig,
        workers: int = 1,
        shard_users: int = 25,
        tracer: Optional[Tracer] = None,
        batched: bool = True,
        staging: Optional[str] = None,
    ):
        if shard_users <= 0:
            raise ConfigurationError("shard_users must be positive")
        if workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if staging is None:
            staging = "probe" if batched else "none"
        if staging not in STAGING_LEVELS:
            raise ConfigurationError(
                f"staging must be one of {STAGING_LEVELS}, got {staging!r}"
            )
        self.config = config
        self.workers = int(workers)
        self.shard_users = int(shard_users)
        self.tracer = tracer if tracer is not None else NullTracer()
        self.staging = staging
        self.batched = staging != "none"

    def shard_bounds(self) -> List[Tuple[int, int]]:
        """Contiguous ``[lo, hi)`` user ranges covering the population."""
        n = self.config.n_users
        return [
            (lo, min(lo + self.shard_users, n))
            for lo in range(0, n, self.shard_users)
        ]

    def run(self) -> FleetResult:
        """Execute every shard and return the folded result."""
        bounds = self.shard_bounds()
        agg = FleetAggregate()
        t0 = time.perf_counter()
        with self.tracer.span("fleet.run"):
            # The contention kernel is global by nature (scenes span
            # shards), so its plan is computed once here and sliced per
            # shard — each worker receives only its users' annotations.
            # The kernel needs every user's schedule, so each shard's
            # population is synthesized once, here, feeds the plan, and
            # is handed to its shard instead of being synthesized again.
            # The plan is a pure function of the config, which is what
            # keeps the aggregate byte-identical for any worker count.
            populations: List[Optional[ShardPopulation]] = [None] * len(bounds)
            plan = None
            if self.config.scene_density > 0.0:
                populations = [
                    shard_population(self.config, lo, hi) for lo, hi in bounds
                ]
                plan = build_contention_plan(
                    self.config,
                    (
                        spec
                        for population in populations
                        for _, specs in population
                        for spec in specs
                    ),
                )

            def _shard_args(i: int):
                lo, hi = bounds[i]
                # Hand the shard its population and drop ours, so each
                # shard's users are freed as soon as it is consumed.
                population, populations[i] = populations[i], None
                return (
                    self.config,
                    lo,
                    hi,
                    self.batched,
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
