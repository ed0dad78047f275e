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
DTW wavefront the fast path runs.  The population has one path: the
batched :func:`~repro.fleet.executor.shard_population`, which serves
the shards, the scheduler's contention plan and a direct
:func:`run_shard` caller's plan alike.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "DIURNAL_WEIGHTS": (".population", "DIURNAL_WEIGHTS"),
        "ContentionPlan": (".events", "ContentionPlan"),
        "FleetAggregate": (".aggregate", "FleetAggregate"),
        "FleetConfig": (".population", "FleetConfig"),
        "FleetResult": (".scheduler", "FleetResult"),
        "FleetScheduler": (".scheduler", "FleetScheduler"),
        "Histogram": (".aggregate", "Histogram"),
        "SceneAnnotation": (".events", "SceneAnnotation"),
        "SessionSpec": (".population", "SessionSpec"),
        "UserProfile": (".population", "UserProfile"),
        "build_contention_plan": (".events", "build_contention_plan"),
        "render_fleet_report": (".report", "render_fleet_report"),
        "run_shard": (".executor", "run_shard"),
        "scene_of": (".events", "scene_of"),
        "synthesize_user": (".population", "synthesize_user"),
        "user_sessions": (".population", "user_sessions"),
    },
)
