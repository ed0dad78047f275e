"""Tests of the fleet benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run as bench  # noqa: E402
from tracer import EXTRA_MAP, LAYERS, LayerTracer, _resolve, layer_metric_names  # noqa: E402
from workloads import SHARD_USERS, STAGING, WORKLOADS, document_digest  # noqa: E402

from repro.fleet import FleetScheduler  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: ``(n_users, hours)`` small enough for a unit test, large enough to
#: produce sessions (and, for the city, shared scenes).
TINY = {"fleet-day": (4, 24.0), "faulted-day": (3, 24.0), "city-halfhour": (1500, 0.5)}


def tiny_config(name: str, seed: int):
    n_users, hours = TINY[name]
    return replace(WORKLOADS[name].config(seed), n_users=n_users, hours=hours)


def run_digest(config, traced: bool):
    scheduler = FleetScheduler(
        config, workers=1, shard_users=SHARD_USERS, staging=STAGING
    )
    if not traced:
        return document_digest(config, scheduler.run().aggregate), None
    with LayerTracer() as tracer:
        result = scheduler.run()
    return document_digest(config, result.aggregate), tracer


def test_names_are_well_formed_and_match_the_code():
    workloads = [w["name"] for w in SPEC["workloads"]]
    metrics = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names = workloads + metrics
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    assert sorted(workloads) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == layer_metric_names()
    predictions = [p for l in LAYERS for p in l.moves + l.unchanged]
    predictions += [p for moves in EXTRA_MAP.values() for p in moves]
    assert {p.split("@")[0] for p in predictions} <= set(metrics)
    assert {p.split("@")[1] for p in predictions} <= set(WORKLOADS)
    assert set(EXTRA_MAP) <= set(metrics)


def test_wrap_unwrap_leaves_module_attributes_as_found():
    sites = [site for layer in LAYERS for site in layer.sites]
    found = {}
    for site in sites:
        owner, attr = _resolve(site)
        found[site] = (owner, attr, vars(owner)[attr])
    with LayerTracer() as tracer:
        assert tracer.missing == []
        for owner, attr, original in found.values():
            assert vars(owner)[attr] is not original
    for owner, attr, original in found.values():
        assert vars(owner)[attr] is original


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_digests_match(name):
    config = tiny_config(name, 0)
    plain, _ = run_digest(config, traced=False)
    traced, tracer = run_digest(config, traced=True)
    assert traced == plain
    assert tracer.stats["fleet.scheduler.run_shard"].calls >= 1


def test_host_speed_sampler_ticks_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.samples
    assert 0.0 < sampler.work_s(0.5) < 1.0


def test_seed_argument_reaches_the_workload():
    a, _ = run_digest(tiny_config("fleet-day", 0), traced=False)
    b, _ = run_digest(tiny_config("fleet-day", 1), traced=False)
    assert a != b
