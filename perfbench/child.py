"""One fleet run in a fresh interpreter; prints one JSON line.

Usage (``run.py`` spawns it; the arguments are positional)::

    python3 perfbench/child.py WORKLOAD SEED STAGING MODE SPAWN_T

``SPAWN_T`` is the parent's ``time.monotonic()`` just before the spawn
(a system-wide clock on Linux), so ``setup_s`` covers interpreter start,
imports and config up to a constructed ``FleetScheduler``.  ``MODE`` is
``run``, ``trace`` (wrap the layers of :mod:`tracer` around
``FleetScheduler.run``) or ``setup`` (stop once the scheduler exists).
``setup_s`` and a ``run``'s ``work_s`` are stated at the host's
reference speed (:class:`hostspeed.Sampler`); ``wall_s`` is the raw
wall less the probes.  A traced run is not sampled, so the probes stay
out of the layers' self times.
The aggregate-doc digest is the SHA-256 of the same canonical document
``python -m repro fleet run`` writes.
"""

from __future__ import annotations

import sys
import time


def fingerprint() -> dict:
    """Machine and runtime fingerprint of this process."""
    import os
    import platform

    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "cpu_model": cpu,
        "os_cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv) -> int:
    workload_name, seed, staging, mode, spawn_t = argv
    from pathlib import Path

    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))

    from hostspeed import SETUP_TICK_S, Sampler

    with Sampler(SETUP_TICK_S) as sampler:
        from repro.fleet import FleetScheduler

        from workloads import SHARD_USERS, WORKLOADS, document_digest

        config = WORKLOADS[workload_name].config(int(seed))
        scheduler = FleetScheduler(
            config, workers=1, shard_users=SHARD_USERS, staging=staging
        )
    setup_wall = time.monotonic() - float(spawn_t)

    import json
    import resource

    out: dict = {"setup_s": sampler.work_s(setup_wall)}
    if mode == "setup":
        print(json.dumps(out))
        return 0
    if mode == "trace":
        from repro.dsp.plane import all_cache_stats

        from tracer import LayerTracer

        before = all_cache_stats().values()
        hits0 = sum(s.hits for s in before)
        misses0 = sum(s.misses for s in before)
        with LayerTracer() as tracer:
            t0 = time.perf_counter()
            result = scheduler.run()
            wall = time.perf_counter() - t0
        after = all_cache_stats().values()
        layers = tracer.metrics()
        layers["dsp.plane.cache_hits"] = sum(s.hits for s in after) - hits0
        layers["dsp.plane.cache_misses"] = (
            sum(s.misses for s in after) - misses0
        )
        out["layers"] = layers
        out["self_s_sum"] = tracer.self_time()
        out["missing_sites"] = tracer.missing
    else:
        t0 = time.perf_counter()
        with Sampler() as sampler:
            result = scheduler.run()
        wall = time.perf_counter() - t0
        out["work_s"] = sampler.work_s(wall)
        wall -= sampler.probe_s

    aggregate = result.aggregate.to_dict(hours=config.hours)
    out.update(
        wall_s=wall,
        sessions=result.sessions,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digest=document_digest(config, result.aggregate),
        doc={
            k: aggregate[k]
            for k in (
                "sessions",
                "unlocked",
                "attempts",
                "success_rate",
                "latency_p50_s",
                "latency_p95_s",
                "modes",
            )
        },
        fingerprint=fingerprint(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
