"""Fleet simulator: population determinism, batched DTW bit-identity,
streaming aggregation, and the any-worker-count byte-identity contract."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.metrics import TailStats
from repro.core.stages import StageRng
from repro.core.trace import Tracer
from repro.errors import ConfigurationError, WearLockError
from repro.fleet import (
    FleetAggregate,
    FleetConfig,
    FleetScheduler,
    Histogram,
    run_shard,
    render_fleet_report,
)
from repro.fleet.aggregate import SessionRecord
from repro.fleet.executor import precompute_prefilter, shard_population
from repro.protocol.session import (
    PrecomputedStages,
    SessionConfig,
    UnlockSession,
)
from repro.sensors.dtw import dtw_distance_batch, normalized_dtw_batch
from repro.sensors.traces import ActivityKind, co_located_pair, magnitude
from repro.verifiers import PrecomputedVerifierEvidence
from tests import kernel_oracle as oracle
from tests import population_oracle


SMALL = FleetConfig(n_users=12, hours=24.0, seed=42)


def _doc(result, hours):
    return json.dumps(
        result.aggregate.to_dict(hours=hours), sort_keys=True, indent=2
    )


class TestBatchedDtw:
    def test_batched_dtw_matches_scalar(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((7, 40))
        ys = rng.standard_normal((7, 55))
        batch = dtw_distance_batch(xs, ys)
        scalar = np.array(
            [oracle.dtw_distance(x, y) for x, y in zip(xs, ys)]
        )
        # Bit-identical, not approximately equal: the wavefront runs
        # the oracle loop's |x-y| + min(three neighbours) float ops per
        # cell.
        assert np.array_equal(batch, scalar)

    def test_normalized_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((5, 60))
        ys = rng.standard_normal((5, 60))
        batch = normalized_dtw_batch(xs, ys)
        scalar = np.array(
            [oracle.normalized_dtw(x, y) for x, y in zip(xs, ys)]
        )
        assert np.array_equal(batch, scalar)

    def test_batch_rejects_bad_shapes(self):
        with pytest.raises(WearLockError):
            dtw_distance_batch(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(WearLockError):
            dtw_distance_batch(np.zeros(3), np.zeros((1, 3)))


class TestPrecomputedStages:
    def test_precomputed_path_bit_identical(self):
        """Staged sensor pair + batched score == in-stage computation."""
        for seed in (7, 42):
            cfg = SessionConfig(seed=seed)
            base = UnlockSession(cfg).run()
            rng = StageRng(seed=seed).for_stage("sensor-capture")
            pair = co_located_pair(cfg.activity, rng=rng)
            score = float(
                normalized_dtw_batch(
                    magnitude(pair[0])[None, :],
                    magnitude(pair[1])[None, :],
                )[0]
            )
            pre = PrecomputedStages(
                sensor_pair=pair,
                evidence=PrecomputedVerifierEvidence(motion_score=score),
            )
            fast = UnlockSession(SessionConfig(seed=seed)).run(
                precomputed=pre
            )
            assert fast.unlocked == base.unlocked
            assert fast.total_delay_s == base.total_delay_s
            assert fast.raw_ber == base.raw_ber
            assert fast.motion_score == base.motion_score
            assert fast.watch_energy_j == base.watch_energy_j


class TestPopulation:
    def test_user_synthesis_deterministic_and_order_free(self):
        (alone,) = shard_population(SMALL, 3, 4)
        assert alone == shard_population(SMALL, 3, 4)[0]
        # Synthesizing other users first must not perturb user 3.
        whole = shard_population(SMALL, 0, SMALL.n_users)
        assert alone in whole
        assert alone[0] == population_oracle.user(SMALL, 3)

    def test_seed_changes_population(self):
        other = FleetConfig(n_users=12, hours=24.0, seed=43)
        users_a = shard_population(SMALL, 0, SMALL.n_users)
        users_b = shard_population(other, 0, other.n_users)
        assert users_a != users_b

    def test_sessions_sorted_and_self_seeded(self):
        user = population_oracle.user(SMALL, 0)
        specs = population_oracle.sessions(SMALL, user)
        assert [s.session_index for s in specs] == list(range(len(specs)))
        assert all(s.user_id == 0 for s in specs)
        hours = [s.hour for s in specs]
        assert hours == sorted(hours)
        assert len({s.seed for s in specs}) == len(specs)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(n_users=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(hours=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(stranger_rate=1.5)


class TestHistogram:
    def test_add_merge_quantile(self):
        a = Histogram(0.0, 10.0, 100)
        b = Histogram(0.0, 10.0, 100)
        for v in (1.0, 2.0, 3.0):
            a.add(v)
        for v in (7.0, 8.0, 9.0, 11.0, -1.0):
            b.add(v)
        a.merge(b)
        assert a.total == 8
        assert a.underflow == 1 and a.overflow == 1
        assert a.quantile(0.5) == pytest.approx(3.05)
        assert Histogram(0.0, 10.0, 100).quantile(0.5) is None

    def test_roundtrip(self):
        h = Histogram(0.0, 1.0, 10)
        for v in (0.05, 0.95, 0.95, 2.0):
            h.add(v)
        again = Histogram.from_dict(h.to_dict())
        assert np.array_equal(again.counts, h.counts)
        assert again.overflow == h.overflow

    def test_merge_rejects_mismatched_bins(self):
        with pytest.raises(ConfigurationError):
            Histogram(0.0, 1.0, 10).merge(Histogram(0.0, 1.0, 20))

    def test_tailstats_from_counts_matches_histogram(self):
        h = Histogram(0.0, 10.0, 100)
        values = np.linspace(0.1, 9.9, 200)
        for v in values:
            h.add(v)
        tail = TailStats.from_counts(h.counts, 0.0, 10.0)
        assert tail.p50 == h.quantile(0.50)
        assert tail.p95 == h.quantile(0.95)
        assert tail.n == 200


class TestFleetRun:
    def test_worker_count_invariance(self):
        """The headline contract: byte-identical aggregates for any
        worker count and shard size."""
        base = FleetScheduler(SMALL, workers=1, shard_users=5).run()
        pooled = FleetScheduler(SMALL, workers=2, shard_users=3).run()
        assert _doc(base, SMALL.hours) == _doc(pooled, SMALL.hours)

    def test_batched_prefilter_invariance(self):
        fast = FleetScheduler(SMALL, workers=1, staging="otp").run()
        slow = FleetScheduler(SMALL, workers=1, staging="none").run()
        assert _doc(fast, SMALL.hours) == _doc(slow, SMALL.hours)

    def test_shard_merge_equals_whole(self):
        """Merging per-shard aggregates equals folding the whole stream:
        exactly for all integral state (counters, histograms), to float
        tolerance for the sums (addition regrouping moves the last
        ulp — which is why the *scheduler* folds records in canonical
        order instead of merging sub-aggregates; see the aggregate
        module docstring)."""
        whole = FleetAggregate().merge_records(
            run_shard(SMALL, 0, SMALL.n_users)
        )
        parts = FleetAggregate()
        for lo in range(0, SMALL.n_users, 4):
            part = FleetAggregate().merge_records(
                run_shard(SMALL, lo, min(lo + 4, SMALL.n_users))
            )
            parts.merge(part)

        def split(doc):
            ints, floats = {}, {}
            for key, value in doc.items():
                if isinstance(value, dict):
                    si, sf = split(value)
                    ints[key], floats[key] = si, sf
                elif isinstance(value, float):
                    floats[key] = value
                else:
                    ints[key] = value
            return ints, floats

        whole_i, whole_f = split(whole.to_dict())
        parts_i, parts_f = split(parts.to_dict())
        assert whole_i == parts_i

        def assert_close(a, b):
            for key, value in a.items():
                if isinstance(value, dict):
                    assert_close(value, b[key])
                else:
                    assert b[key] == pytest.approx(value, rel=1e-12)

        assert_close(whole_f, parts_f)

    def test_aggregate_content(self):
        result = FleetScheduler(SMALL, workers=1).run()
        doc = result.aggregate.to_dict(hours=SMALL.hours)
        assert doc["sessions"] == result.sessions > 0
        assert 0.0 < doc["success_rate"] <= 1.0
        assert doc["latency_p50_s"] <= doc["latency_p95_s"]
        assert set(doc["per_band"]) <= {"audible", "ultrasound"}
        assert all(
            g["sessions"] > 0 for g in doc["per_scenario"].values()
        )
        # Runtime telemetry must never leak into the document.
        flat = json.dumps(doc)
        assert "wall" not in flat and "workers" not in flat

    def test_tracer_counters(self):
        tracer = Tracer()
        result = FleetScheduler(SMALL, workers=1, tracer=tracer).run()
        totals = tracer.report().counter_totals()
        assert totals["sessions"] == float(result.sessions)
        assert totals["users"] == float(SMALL.n_users)

    def test_precompute_prefilter_covers_all_specs(self):
        specs = [
            spec
            for _, user_specs in shard_population(SMALL, 0, 4)
            for spec in user_specs
        ]
        assert specs
        staged = precompute_prefilter(specs)
        assert len(staged) == len(specs)
        assert all(s.sensor_pair is not None for s in staged)
        assert all(isinstance(s.evidence.motion_score, float) for s in staged)


class TestReport:
    def test_render_covers_sections(self):
        result = FleetScheduler(SMALL, workers=1).run()
        doc = result.aggregate.to_dict(hours=SMALL.hours)
        text = render_fleet_report(
            doc, {"n_users": 12, "hours": 24.0, "seed": 42}
        )
        assert "# Fleet simulation report" in text
        assert "## Per-scenario breakdown" in text
        assert "| scenario |" in text
        assert "success rate" in text

    def test_render_from_empty_aggregate(self):
        doc = FleetAggregate().to_dict()
        text = render_fleet_report(doc)
        assert "# Fleet simulation report" in text


def test_session_record_is_compact():
    rec = SessionRecord(
        user_id=0,
        session_index=0,
        environment="office",
        phone="Nexus 6",
        band="audible",
        activity="sitting",
        co_located=True,
        unlocked=True,
        abort_reason="",
        mode="QPSK",
        delay_s=1.2,
        raw_ber=0.01,
        attempts=1,
        reprobes=0,
        recovered=False,
        faults_injected=0,
        watch_energy_j=0.5,
        phone_energy_j=0.4,
        pin_fallback=False,
    )
    agg = FleetAggregate()
    agg.observe(rec)
    assert agg.sessions == 1 and agg.unlocked == 1
    assert agg.per_scenario["office"].sessions == 1
