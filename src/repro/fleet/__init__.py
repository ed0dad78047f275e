"""Fleet-scale population simulation with streaming aggregation.

The rest of the repo drives *one* session (``WearLock.unlock_attempt``)
or *one* parameter grid (:class:`~repro.eval.batch.BatchRunner`) at a
time.  This package models what the ROADMAP's north star actually
serves: a **population** of users unlocking their phones over a day —
the paper's §8 "day in the life" case study at Sound-Proof cohort
scale.

Pipeline (see DESIGN.md §10)::

    population.py   N users ── device mix, scenario habits, diurnal
                    schedule ──> per-user SessionSpec streams
    events.py       all schedules ── one time-ordered stream, shared
                    scenes, CSMA backoff ──> per-session contention
                    annotations (opt-in via scene_density)
    scheduler.py    users ── contiguous shards ──> worker pool
    executor.py     one shard ── batched prefilter + per-user security
                    state ──> compact SessionRecords
    aggregate.py    records ── constant-memory mergeable accumulators
                    ──> FleetAggregate (rates, quantiles, drains)

Determinism contract: the same ``FleetConfig`` (seed, users, hours)
produces **byte-identical** aggregate documents for any worker count
and any shard size.  Every stochastic choice is drawn from a SHA-256
derived per-user or per-session stream (the :func:`repro.eval.batch.
cell_seed` construction), records fold in canonical ``(user, session)``
order, and the live motion score is the one-row call of the batched
DTW wavefront the fast path runs.
"""

from .aggregate import FleetAggregate, Histogram
from .events import (
    ContentionPlan,
    SceneAnnotation,
    build_contention_plan,
    scene_of,
)
from .population import (
    DIURNAL_WEIGHTS,
    FleetConfig,
    SessionSpec,
    UserProfile,
    build_population,
    synthesize_user,
    user_sessions,
)
from .executor import run_shard
from .report import render_fleet_report
from .scheduler import FleetResult, FleetScheduler

__all__ = [
    "DIURNAL_WEIGHTS",
    "ContentionPlan",
    "FleetAggregate",
    "FleetConfig",
    "FleetResult",
    "FleetScheduler",
    "Histogram",
    "SceneAnnotation",
    "SessionSpec",
    "UserProfile",
    "build_contention_plan",
    "build_population",
    "render_fleet_report",
    "run_shard",
    "scene_of",
    "synthesize_user",
    "user_sessions",
]
