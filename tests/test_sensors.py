"""Tests for trace synthesis, DTW and the Alg. 1 motion filter."""

import numpy as np
import pytest

from repro.config import MotionFilterConfig
from repro.errors import WearLockError
from repro.sensors.dtw import (
    dtw_distance,
    dtw_distance_batch,
    normalized_dtw,
    normalized_dtw_batch,
)
from repro.sensors.motion_filter import MotionDecision, MotionFilter
from repro.sensors.traces import (
    GRAVITY,
    ActivityKind,
    accelerometer_trace,
    co_located_pair,
    different_devices_pair,
    magnitude,
    normalize_trace,
)


class TestTraces:
    def test_shape(self):
        t = accelerometer_trace(ActivityKind.WALKING, 120, rng=0)
        assert t.shape == (120, 3)

    def test_magnitude_near_gravity_when_sitting(self):
        t = accelerometer_trace(ActivityKind.SITTING, 200, rng=1)
        m = magnitude(t)
        assert np.median(m) == pytest.approx(GRAVITY, rel=0.2)

    def test_jogging_more_energetic_than_sitting(self):
        rng = np.random.default_rng(2)
        sit = magnitude(accelerometer_trace(ActivityKind.SITTING, 200, rng=rng))
        jog = magnitude(accelerometer_trace(ActivityKind.JOGGING, 200, rng=rng))
        assert np.std(jog) > 2 * np.std(sit)

    def test_walking_has_gait_periodicity(self):
        rng = np.random.default_rng(3)
        m = magnitude(
            accelerometer_trace(ActivityKind.WALKING, 400, 50.0, rng=rng)
        )
        m = m - np.mean(m)
        spec = np.abs(np.fft.rfft(m))
        freqs = np.fft.rfftfreq(m.size, 1 / 50.0)
        peak = freqs[1 + np.argmax(spec[1:])]
        assert 1.0 < peak < 6.5  # gait fundamental or harmonic

    def test_magnitude_rejects_bad_shape(self):
        with pytest.raises(WearLockError):
            magnitude(np.ones((10, 2)))

    def test_normalize_trace(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        n = normalize_trace(x)
        assert np.mean(n) == pytest.approx(0.0, abs=1e-12)
        assert np.std(n) == pytest.approx(1.0)

    def test_normalize_constant_gives_zeros(self):
        assert np.all(normalize_trace(np.full(10, 5.0)) == 0.0)

    def test_pairs_have_requested_length(self):
        p, w = co_located_pair(ActivityKind.WALKING, n_samples=80, rng=4)
        assert p.shape == (80, 3) and w.shape == (80, 3)


class TestDtw:
    def test_identical_series_zero_distance(self):
        x = np.sin(np.linspace(0, 10, 50))
        assert dtw_distance(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_series_small_distance(self):
        t = np.linspace(0, 10, 100)
        a = np.sin(t)
        b = np.sin(t - 0.3)
        shifted = dtw_distance(a, b)
        euclidean = float(np.sum(np.abs(a - b)))
        assert shifted < euclidean  # warping absorbs the lag

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal(40), rng.standard_normal(35)
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a))

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        assert dtw_distance(rng.standard_normal(30), rng.standard_normal(30)) >= 0

    def test_rejects_empty(self):
        with pytest.raises(WearLockError):
            dtw_distance(np.zeros(0), np.ones(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_one_row(self, bad):
        x = np.linspace(0.0, 1.0, 20)
        y = x.copy()
        y[7] = bad
        for fn in (dtw_distance, normalized_dtw):
            with pytest.raises(WearLockError, match="finite"):
                fn(x, y)
            with pytest.raises(WearLockError, match="finite"):
                fn(y, x)

    def test_rejects_non_finite_in_any_row(self):
        """One poisoned pair refuses the whole batch: a ``nan`` score
        would otherwise read as CONTINUE in the motion filter."""
        rng = np.random.default_rng(11)
        xs = rng.standard_normal((4, 30))
        ys = rng.standard_normal((4, 25))
        ys[2, 3] = np.nan
        for fn in (dtw_distance_batch, normalized_dtw_batch):
            with pytest.raises(WearLockError, match="finite"):
                fn(xs, ys)
            with pytest.raises(WearLockError, match="finite"):
                fn(ys[:, :20], xs[:, :20] * np.inf)

    def test_rejects_non_1d(self):
        with pytest.raises(WearLockError, match="1-D"):
            dtw_distance(np.zeros((2, 3)), np.ones(3))
        with pytest.raises(WearLockError, match="1-D"):
            normalized_dtw(np.ones(3), np.zeros((3, 1)))

    def test_normalized_score_scale_invariant(self):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(60), rng.standard_normal(60)
        assert normalized_dtw(a, b) == pytest.approx(
            normalized_dtw(10 * a, 0.1 * b)
        )


class TestMotionFilterTableII:
    """Reproduces the shape of the paper's Table II."""

    def _mean_score(self, pair_fn, n=12, seed=0):
        rng = np.random.default_rng(seed)
        mf = MotionFilter()
        return float(
            np.mean([mf.score(*pair_fn(rng)) for _ in range(n)])
        )

    def test_co_located_scores_low(self):
        for kind in ActivityKind:
            score = self._mean_score(
                lambda rng, k=kind: co_located_pair(k, rng=rng)
            )
            assert score < 0.12, kind

    def test_different_bodies_score_high(self):
        score = self._mean_score(
            lambda rng: different_devices_pair(ActivityKind.WALKING, rng=rng)
        )
        assert score > 0.15

    def test_separation_factor(self):
        """Paper: different ≈ 0.20 vs co-located ≈ 0.02-0.06 — at least
        a factor of two of separation must hold."""
        co = self._mean_score(
            lambda rng: co_located_pair(ActivityKind.WALKING, rng=rng)
        )
        diff = self._mean_score(
            lambda rng: different_devices_pair(ActivityKind.WALKING, rng=rng)
        )
        assert diff > 2.0 * co

    def test_decisions(self):
        mf = MotionFilter(MotionFilterConfig(dtw_low=0.1, dtw_high=0.15))
        rng = np.random.default_rng(9)
        co_decisions = [
            mf.evaluate(*co_located_pair(ActivityKind.WALKING, rng=rng)).decision
            for _ in range(10)
        ]
        assert MotionDecision.ABORT not in co_decisions
        diff_decisions = [
            mf.evaluate(
                *different_devices_pair(ActivityKind.WALKING, rng=rng)
            ).decision
            for _ in range(10)
        ]
        assert diff_decisions.count(MotionDecision.ABORT) >= 5

    def test_fast_path_on_near_identical_motion(self):
        mf = MotionFilter()
        rng = np.random.default_rng(10)
        p, w = co_located_pair(
            ActivityKind.WALKING, device_noise=0.02, lag_samples=0, rng=rng
        )
        report = mf.evaluate(p, w)
        assert report.decision is MotionDecision.FAST_PATH
