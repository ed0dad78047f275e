"""Shared-channel contention kernel: scene purity, CSMA determinism,
the zero-density reduction, abort→keyguard coupling — plus the
satellite hardening (Histogram.from_dict validation, the stats None
convention, P999 tails, similarity clamping)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.colocation import AmbientComparator
from repro.core.metrics import BerStats, DelayStats, TailStats
from repro.errors import ConfigurationError, WearLockError
from repro.fleet import (
    FleetAggregate,
    FleetConfig,
    FleetScheduler,
    Histogram,
    build_contention_plan,
    build_population,
    render_fleet_report,
    run_shard,
    scene_of,
    user_sessions,
)
from repro.fleet.aggregate import density_bucket
from repro.fleet.events import (
    MAX_BACKOFFS,
    SceneAnnotation,
    scene_slots,
)
from repro.protocol.session import AbortReason

# Small but genuinely contended: 16 users packed into few scenes, a
# whole day so the daytime public environments actually appear (before
# 08:00 everyone is in their private quiet_room and nothing contends).
CONTENDED = FleetConfig(
    n_users=16,
    hours=24.0,
    seed=7,
    sessions_per_day=10.0,
    scene_density=20.0,
)


def _specs_by_key(config):
    return {
        (s.user_id, s.session_index): s
        for u in build_population(config)
        for s in user_sessions(config, u)
    }


def _doc(result):
    return json.dumps(
        result.aggregate.to_dict(hours=result.config.hours),
        sort_keys=True,
        indent=2,
    )


class TestScenes:
    def test_private_environment_has_no_scene(self):
        assert scene_slots(CONTENDED, "quiet_room") == 0
        assert scene_of(CONTENDED, "quiet_room", 0) is None

    def test_assignment_is_pure_and_in_range(self):
        n = scene_slots(CONTENDED, "office")
        assert n >= 1
        for uid in range(CONTENDED.n_users):
            slot = scene_of(CONTENDED, "office", uid)
            assert slot == scene_of(CONTENDED, "office", uid)
            assert 0 <= slot < n

    def test_crowding_packs_denser_environments(self):
        # cafe crowding (2.0) > grocery (0.75): same config, fewer
        # (therefore fuller) cafe scenes.
        cfg = FleetConfig(n_users=100, seed=0, scene_density=5.0)
        assert scene_slots(cfg, "cafe") <= scene_slots(cfg, "grocery_store")


class TestContentionPlan:
    def test_zero_density_plan_is_empty(self):
        cfg = FleetConfig(n_users=8, hours=24.0, seed=7)
        assert build_contention_plan(cfg).annotations == {}

    def test_negative_density_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(n_users=8, scene_density=-1.0)

    def test_plan_is_deterministic(self):
        a = build_contention_plan(CONTENDED)
        b = build_contention_plan(CONTENDED)
        assert a.annotations == b.annotations

    def test_plan_covers_exactly_the_public_sessions(self):
        plan = build_contention_plan(CONTENDED)
        specs = _specs_by_key(CONTENDED)
        public = {
            k for k, s in specs.items() if s.environment != "quiet_room"
        }
        assert set(plan.annotations) == public

    def test_backoffs_bounded_and_aborts_consistent(self):
        plan = build_contention_plan(CONTENDED)
        assert any(a.backoffs > 0 for a in plan.annotations.values())
        for ann in plan.annotations.values():
            assert 0 <= ann.backoffs <= MAX_BACKOFFS
            assert ann.backoff_delay_s >= 0.0
            assert ann.noise_penalty_db >= 0.0
            if ann.aborted:
                assert ann.backoffs == MAX_BACKOFFS

    def test_backoffs_scale_with_density(self):
        def total_backoffs(density):
            # Plan-only (never executed), so a busy population is cheap;
            # collisions need arrival *rate*, not just scene membership.
            cfg = FleetConfig(
                n_users=40,
                hours=24.0,
                seed=7,
                sessions_per_day=60.0,
                scene_density=density,
            )
            plan = build_contention_plan(cfg)
            return sum(a.backoffs for a in plan.annotations.values())

        assert total_backoffs(2.0) < total_backoffs(40.0)

    def test_shard_slices_partition_the_plan(self):
        plan = build_contention_plan(CONTENDED)
        merged = {}
        for lo in range(0, CONTENDED.n_users, 5):
            merged.update(
                plan.for_user_range(lo, min(lo + 5, CONTENDED.n_users))
            )
        assert merged == plan.annotations


class TestContendedFleetRun:
    def test_worker_shard_and_staging_invariance(self):
        """The headline contract survives contention: byte-identical
        aggregates for any worker count, shard size, staging level."""
        base = FleetScheduler(
            CONTENDED, workers=1, shard_users=5, staging="otp"
        ).run()
        pooled = FleetScheduler(
            CONTENDED, workers=2, shard_users=3, staging="otp"
        ).run()
        live = FleetScheduler(
            CONTENDED, workers=1, shard_users=16, staging="none"
        ).run()
        assert _doc(base) == _doc(pooled) == _doc(live)
        doc = base.aggregate.to_dict(hours=CONTENDED.hours)
        assert doc["backoffs"] > 0  # the kernel actually engaged
        assert doc["per_scene_density"]

    def test_zero_density_reduces_to_legacy(self):
        cfg = FleetConfig(n_users=8, hours=24.0, seed=7)
        records = run_shard(cfg, 0, cfg.n_users)
        assert all(r.scene_members == 0 for r in records)
        assert all(r.backoffs == 0 for r in records)
        doc = FleetAggregate().merge_records(records).to_dict()
        assert doc["per_scene_density"] == {}
        assert doc["backoffs"] == 0

    def test_contention_abort_strikes_keyguard(self):
        """Three starved probes are three failed trusted attempts: the
        keyguard's three-strike rule must force the next session to a
        PIN fallback, exactly as for any other failure mode."""
        cfg = FleetConfig(
            n_users=4, hours=24.0, seed=7, sessions_per_day=10.0,
            scene_density=20.0,
        )
        uid = next(
            u.user_id
            for u in build_population(cfg)
            if len(user_sessions(cfg, u)) >= 4
        )
        spec_map = _specs_by_key(cfg)
        contention = {
            (uid, idx): SceneAnnotation(
                environment=spec_map[(uid, idx)].environment,
                slot=0,
                members=30,
                backoffs=MAX_BACKOFFS if idx < 3 else 0,
                backoff_delay_s=2.5 if idx < 3 else 0.0,
                noise_penalty_db=6.0 if idx < 3 else 0.0,
                # Session 3 keeps its scene identity (annotated, not
                # aborted) so its PIN fallback lands in the bucket.
                aborted=idx < 3,
            )
            for idx in range(4)
        }
        records = run_shard(cfg, uid, uid + 1, contention=contention)
        by_idx = {r.session_index: r for r in records}
        for idx in range(3):
            rec = by_idx[idx]
            assert not rec.unlocked
            assert rec.abort_reason == AbortReason.CHANNEL_CONTENTION.value
            assert rec.delay_s == pytest.approx(2.5)
            assert rec.scene_members == 30
        assert by_idx[3].pin_fallback

        agg = FleetAggregate().merge_records(records)
        doc = agg.to_dict()
        assert doc["abort_reasons"][AbortReason.CHANNEL_CONTENTION.value] == 3
        dense = doc["per_scene_density"][density_bucket(30)]
        assert dense["contention_aborts"] == 3
        assert dense["lockout_rate"] > 0.0

    def test_report_renders_contention_section(self):
        result = FleetScheduler(CONTENDED, workers=1).run()
        text = render_fleet_report(
            result.aggregate.to_dict(hours=CONTENDED.hours)
        )
        assert "## Contention by scene density" in text
        assert "backoffs/session" in text


@pytest.fixture
def pass_counts(monkeypatch):
    """Count population synthesis calls at every lookup site.

    The executor's globals serve the shards and the scheduler's one
    pass; ``population.synthesize_user`` and ``events.user_sessions``
    serve the contention kernel's own walk over ``build_population``.
    The direct-caller plan memo starts empty.
    """
    from repro.fleet import events, executor, population

    counts = {"synthesize_user": 0, "user_sessions": 0, "plans": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    synth = counted("synthesize_user", population.synthesize_user)
    sessions = counted("user_sessions", population.user_sessions)
    monkeypatch.setattr(executor, "synthesize_user", synth)
    monkeypatch.setattr(population, "synthesize_user", synth)
    monkeypatch.setattr(executor, "user_sessions", sessions)
    monkeypatch.setattr(events, "user_sessions", sessions)
    monkeypatch.setattr(
        executor,
        "build_contention_plan",
        counted("plans", executor.build_contention_plan),
    )
    executor._contention_plan.cache_clear()
    yield counts
    executor._contention_plan.cache_clear()


class TestOnePopulationPass:
    SHARD = 5

    def _bounds(self, config):
        return [
            (lo, min(lo + self.SHARD, config.n_users))
            for lo in range(0, config.n_users, self.SHARD)
        ]

    def test_scheduler_synthesizes_each_user_once(self, pass_counts):
        """A contended run feeds the plan and the shards from a single
        population pass, and matches direct run_shard calls."""
        result = FleetScheduler(
            CONTENDED, workers=1, shard_users=self.SHARD, staging="otp"
        ).run()
        assert pass_counts["synthesize_user"] == CONTENDED.n_users
        assert pass_counts["user_sessions"] == CONTENDED.n_users
        assert result.aggregate.to_dict(hours=CONTENDED.hours)["backoffs"] > 0

        agg = FleetAggregate()
        for lo, hi in self._bounds(CONTENDED):
            agg.merge_records(run_shard(CONTENDED, lo, hi, staging="otp"))
        assert json.dumps(
            agg.to_dict(hours=CONTENDED.hours), sort_keys=True, indent=2
        ) == _doc(result)

    def test_direct_shard_calls_build_the_plan_once(self, pass_counts):
        """N direct shard calls over a contended config pay for one
        whole-population plan pass, not N."""
        bounds = self._bounds(CONTENDED)
        assert len(bounds) > 1
        for lo, hi in bounds:
            run_shard(CONTENDED, lo, hi, staging="otp")
        assert pass_counts["plans"] == 1
        # One pass for the plan plus each shard's own synthesis.
        assert pass_counts["user_sessions"] == 2 * CONTENDED.n_users

    def test_given_population_is_not_resynthesized(self, pass_counts):
        from repro.fleet.executor import shard_population

        population = shard_population(CONTENDED, 0, 8)
        contention = build_contention_plan(CONTENDED).for_user_range(0, 8)
        before = dict(pass_counts)
        given = run_shard(
            CONTENDED, 0, 8, staging="otp",
            contention=contention, population=population,
        )
        assert pass_counts == before
        assert given == run_shard(CONTENDED, 0, 8, staging="otp")


class TestHistogramFromDictValidation:
    def _doc(self):
        h = Histogram(0.0, 1.0, 10)
        for v in (0.05, 0.95):
            h.add(v)
        return h.to_dict()

    def test_out_of_range_index_rejected(self):
        doc = self._doc()
        doc["counts"]["10"] = 1
        with pytest.raises(ConfigurationError):
            Histogram.from_dict(doc)

    def test_negative_index_rejected(self):
        """A negative key must not wrap around and silently corrupt
        another bin's count (the numpy negative-index trap)."""
        doc = self._doc()
        doc["counts"]["-1"] = 7
        with pytest.raises(ConfigurationError):
            Histogram.from_dict(doc)

    def test_non_integer_index_rejected(self):
        doc = self._doc()
        doc["counts"]["p95"] = 1
        with pytest.raises(ConfigurationError):
            Histogram.from_dict(doc)

    def test_negative_count_rejected(self):
        doc = self._doc()
        doc["counts"]["0"] = -3
        with pytest.raises(ConfigurationError):
            Histogram.from_dict(doc)

    def test_valid_roundtrip_still_exact(self):
        h = Histogram(0.0, 1.0, 10)
        for v in (0.05, 0.95, 0.95, 2.0, -1.0):
            h.add(v)
        again = Histogram.from_dict(h.to_dict())
        assert np.array_equal(again.counts, h.counts)
        assert again.underflow == h.underflow
        assert again.overflow == h.overflow
        assert again.to_dict() == h.to_dict()


class TestStatsNoneConvention:
    """All ``from_values`` constructors share one convention: ``None``
    means "not measured" and is dropped, an all-``None`` stream raises."""

    def test_delay_stats_skips_none(self):
        stats = DelayStats.from_values([1.0, None, 3.0])
        assert stats.n == 2
        assert stats.mean == pytest.approx(2.0)

    def test_delay_stats_rejects_all_none(self):
        with pytest.raises(WearLockError):
            DelayStats.from_values([None, None])

    def test_ber_and_tail_agree_with_delay(self):
        for ctor in (BerStats.from_values, TailStats.from_values):
            assert ctor([0.5, None]).n == 1
            with pytest.raises(WearLockError):
                ctor([None])


class TestP999:
    def test_small_n_p999_is_the_maximum(self):
        values = list(np.linspace(0.0, 10.0, 100))
        tail = TailStats.from_values(values)
        assert tail.p999 == max(values)
        assert tail.p50 <= tail.p95 <= tail.p99 <= tail.p999

    def test_from_counts_p999_matches_histogram_quantile(self):
        h = Histogram(0.0, 10.0, 100)
        for v in np.linspace(0.1, 9.9, 500):
            h.add(v)
        tail = TailStats.from_counts(h.counts, 0.0, 10.0)
        assert tail.p999 == h.quantile(0.999)

    def test_merged_histogram_p999_equals_whole(self):
        """Streaming shards must agree with a single-pass fold on the
        SLO tail, bin-exactly — merging is pure integer addition."""
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 10.0, 400)
        whole = Histogram(0.0, 10.0, 100)
        a = Histogram(0.0, 10.0, 100)
        b = Histogram(0.0, 10.0, 100)
        for i, v in enumerate(values):
            whole.add(v)
            (a if i % 2 else b).add(v)
        a.merge(b)
        assert whole.quantile(0.999) == a.quantile(0.999)
        assert (
            TailStats.from_counts(a.counts, 0.0, 10.0).p999
            == whole.quantile(0.999)
        )


class TestSimilarityClamp:
    def test_identical_recordings_score_exactly_one(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(4096)
        comp = AmbientComparator()
        s = comp.similarity(x, x)
        assert s == 1.0  # clamped, never 1.0000000000000002

    def test_constant_recording_scores_zero(self):
        comp = AmbientComparator()
        rng = np.random.default_rng(12)
        s = comp.similarity(np.zeros(4096), rng.standard_normal(4096))
        assert s == 0.0

    def test_all_scores_in_range(self):
        comp = AmbientComparator()
        rng = np.random.default_rng(13)
        for _ in range(5):
            s = comp.similarity(
                rng.standard_normal(4096), rng.standard_normal(4096)
            )
            assert -1.0 <= s <= 1.0

    def test_batch_matches_scalar_bitwise(self):
        comp = AmbientComparator()
        rng = np.random.default_rng(14)
        a = rng.standard_normal((4, 4096))
        b = rng.standard_normal((4, 4096))
        batch = comp.similarity_batch(a, b)
        scalar = np.array(
            [comp.similarity(a[i], b[i]) for i in range(4)]
        )
        assert np.array_equal(batch, scalar)
