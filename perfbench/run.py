"""Fleet benchmark: end-to-end metrics per workload, or a per-layer trace.

Usage::

    python3 perfbench/run.py --workload fleet-day --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each invocation, for the chosen workload and seed:

1. computes the **reference** aggregate-doc digest on the all-live path
   (``staging="none"``, same config, untimed) in a fresh child process;
2. runs the workload at ``staging="otp"`` in fresh child processes
   (``workers=1``, BLAS/OpenMP threads pinned to 1) until ``--seconds``
   have passed and at least :data:`MIN_RUNS` runs are done; one of them
   runs before the reference and the rest after it, so the timed runs
   span the whole invocation.  Every run's digest must equal the
   reference byte for byte;
3. with ``--trace 1``, adds one traced run (:mod:`tracer`) and reports
   per-layer self time, calls and rows instead of the end-to-end
   metrics, plus the tracing overhead and coverage.

End-to-end metrics (``--trace 0``): ``sessions_per_s`` (simulated
sessions per host second, median over the timed runs),
``setup_s`` (child interpreter start to a constructed
``FleetScheduler``; median over the timed runs plus
:data:`SETUP_RUNS` children that stop there), and the simulated
``unlock_success_rate`` / ``unlock_latency_p50_s`` /
``unlock_latency_p95_s`` read from the aggregate doc (simulated
seconds; identical for a given seed).  ``peak_rss_mb`` (``ru_maxrss``
of the timed children) is printed with them and reported as the
per-layer metric ``process.peak_rss_mb``: on ``fleet-day`` it swings
by a fifth from seed to seed, so it cannot carry a regression bound.
The error rate is the result's ``failed / attempted`` sessions: a run
that raises or whose digest differs from the reference fails all its
sessions, and the benchmark then exits 1.

Both timings are stated at the host's reference speed
(:mod:`hostspeed`): the shared host's vCPUs run up to 1.7x slower
while neighbours load their cores, in episodes of a second to a
minute.  Each child samples the host's speed while it sets up and
while it runs, and states both times, less the probes, at the
reference speed.  The raw walls are printed with the report.  The
traced run is not sampled, so ``trace.overhead_s`` compares raw walls.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name with its unit and the machine fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metric_names  # noqa: E402
from workloads import REFERENCE_STAGING, STAGING, WORKLOADS  # noqa: E402

#: Fewest timed runs per invocation, so every median has company.
MIN_RUNS = 3
#: Extra children that stop once the scheduler exists, for ``setup_s``.
SETUP_RUNS = 3
#: Wall-clock budget of one invocation; no child starts after it.
BUDGET_S = 170.0
#: Thread pools pinned to one thread in every child.
PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("sessions_per_s", "1/s"),
    ("setup_s", "s"),
    ("unlock_success_rate", "ratio"),
    ("unlock_latency_p50_s", "sim_s"),
    ("unlock_latency_p95_s", "sim_s"),
)


def spawn(workload: str, seed: int, staging: str, mode: str, deadline: float) -> dict:
    """One child (:mod:`child`); ``{"error": ...}`` if it fails or overruns."""
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"error": "invocation budget exhausted"}
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), staging, mode]
    spawn_t = time.monotonic()
    try:
        proc = subprocess.run(
            argv + [repr(spawn_t)],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(ROOT),
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> Tuple[dict, List[str]]:
    """Run one workload; returns (result object, report lines)."""
    deadline = time.monotonic() + BUDGET_S
    t_start = time.monotonic()
    runs = [spawn(name, seed, STAGING, "run", deadline)]
    ref = spawn(name, seed, REFERENCE_STAGING, "run", deadline)
    report = [f"workload {name} seed {seed}"]
    if "error" in ref:
        report.append(f"reference run failed: {ref['error']}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, report
    report.append(f"reference digest {ref['digest']} ({ref['sessions']} sessions, all-live)")
    report.append("fingerprint " + json.dumps(ref["fingerprint"], sort_keys=True))

    while "error" not in runs[-1] and (
        len(runs) < MIN_RUNS or time.monotonic() - t_start < seconds
    ):
        runs.append(spawn(name, seed, STAGING, "run", deadline))
    setups = [
        spawn(name, seed, STAGING, "setup", deadline)
        for _ in range(0 if trace else SETUP_RUNS)
    ]
    traced = [spawn(name, seed, STAGING, "trace", deadline)] if trace else []

    attempted = failed = 0
    for run in runs + traced:
        sessions = run.get("sessions", ref["sessions"])
        attempted += sessions
        if "error" in run:
            report.append(f"run failed: {run['error']}")
            failed += sessions
        elif run["digest"] != ref["digest"]:
            report.append(f"run digest {run['digest']} differs from the reference")
            failed += sessions
    setup_errors = [s["error"] for s in setups if "error" in s]
    report.extend(f"set-up run failed: {e}" for e in setup_errors)
    report.append(
        f"error_rate {failed / attempted:.4f} ({failed}/{attempted} sessions); "
        f"timed walls " + " ".join(f"{r.get('wall_s', 0.0):.2f}" for r in runs)
        + f" s; reference {ref['wall_s']:.2f} s; at reference speed "
        + " ".join(f"{r.get('work_s', 0.0):.2f}" for r in runs) + " s"
    )
    if failed or setup_errors:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}, report

    doc = ref["doc"]
    peak_rss_mb = statistics.median(r["peak_rss_mb"] for r in runs)
    report.append(f"peak_rss_mb {peak_rss_mb:.1f} MB (median of the timed runs)")
    if trace:
        values = layer_metrics(traced[0], runs, doc, peak_rss_mb)
        units = {n: u for n, u, _ in layer_metric_names()}
        missing = traced[0].get("missing_sites") or []
        if missing:
            report.append("trace sites not found: " + ", ".join(missing))
    else:
        values = {
            "sessions_per_s": statistics.median(r["sessions"] / r["work_s"] for r in runs),
            "setup_s": statistics.median(r["setup_s"] for r in runs + setups),
            "unlock_success_rate": doc["success_rate"],
            "unlock_latency_p50_s": doc["latency_p50_s"],
            "unlock_latency_p95_s": doc["latency_p95_s"],
        }
        units = dict(END_TO_END)
    report.append(
        f"{'metric':52s} {'value':>14s}  unit  "
        f"({len(runs)} timed runs, {len(runs) + len(setups)} set-ups)"
    )
    for key, value in values.items():
        report.append(f"{key:52s} {value:14.6g}  {units[key]}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}, report


def layer_metrics(
    traced: dict, runs: List[dict], doc: dict, peak_rss_mb: float
) -> Dict[str, float]:
    """Per-layer metrics of the traced run, plus useful-work ratios."""
    layers = dict(traced["layers"])
    reached_phase2 = sum(doc["modes"].values())
    otp_rows = layers["fleet.executor.precompute_otp.rows"]
    layers["protocol.session.attempts_per_session"] = doc["attempts"] / doc["sessions"]
    layers["protocol.session.unlocked_per_attempt"] = (
        doc["unlocked"] / doc["attempts"] if doc["attempts"] else 0.0
    )
    layers["fleet.executor.otp_rows_per_session"] = (
        otp_rows / reached_phase2 if reached_phase2 else 0.0
    )
    layers["process.peak_rss_mb"] = peak_rss_mb
    untraced_wall = statistics.median(r["wall_s"] for r in runs)
    layers["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    layers["trace.coverage"] = traced["self_s_sum"] / traced["wall_s"]
    return {name: layers[name] for name, _, _ in layer_metric_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Fleet benchmark (see module docstring).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "fleet").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result, report = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(report), flush=True)
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
