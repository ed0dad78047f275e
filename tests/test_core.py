"""Tests for the WearLock facade and metrics."""

import numpy as np
import pytest

from repro import WearLock
from repro.core.metrics import (
    BerStats,
    SuccessStats,
    summarize_outcomes,
)
from repro.errors import WearLockError


class TestWearLockFacade:
    def test_pair_and_unlock(self):
        wl = WearLock.pair(secret=b"secret")
        outcome = wl.unlock_attempt(
            environment="office", distance_m=0.4, seed=100
        )
        assert outcome.unlocked
        assert not wl.keyguard.is_locked
        assert wl.pairing.counter == 1

    def test_history_and_success_rate(self):
        wl = WearLock.pair(secret=b"secret")
        for i in range(3):
            wl.unlock_attempt(environment="office", seed=200 + i)
            wl.lock()
        assert len(wl.history) == 3
        assert wl.success_rate() == pytest.approx(1.0)

    def test_lock_relocks(self):
        wl = WearLock.pair(secret=b"secret")
        wl.unlock_attempt(environment="office", seed=300)
        wl.lock()
        assert wl.keyguard.is_locked

    def test_pin_unlock_clears_state(self):
        wl = WearLock.pair(secret=b"secret")
        wl.pin_unlock()
        assert not wl.keyguard.is_locked
        assert wl.pairing.failures == 0

    def test_rejects_empty_secret(self):
        with pytest.raises(WearLockError):
            WearLock.pair(secret=b"")

    def test_counter_advances_only_on_success(self):
        wl = WearLock.pair(secret=b"secret")
        wl.unlock_attempt(environment="office", distance_m=7.0, seed=400,
                          co_located=True)
        # Whether aborted or token-rejected, a failed attempt must not
        # advance the verified counter.
        if not wl.history[-1].unlocked:
            assert wl.pairing.counter == 0


class TestMetrics:
    def test_ber_stats(self):
        stats = BerStats.from_values([0.0, 0.1, 0.2, 0.3])
        assert stats.mean == pytest.approx(0.15)
        assert stats.median == pytest.approx(0.15)
        assert stats.n == 4

    def test_ber_stats_skips_none(self):
        stats = BerStats.from_values([0.1, None, 0.3])
        assert stats.n == 2

    def test_ber_stats_rejects_empty(self):
        with pytest.raises(WearLockError):
            BerStats.from_values([None])

    def test_success_stats(self):
        s = SuccessStats(successes=9, attempts=10)
        assert s.rate == pytest.approx(0.9)
        assert SuccessStats(0, 0).rate == 0.0

    def test_summarize_outcomes(self):
        wl = WearLock.pair(secret=b"secret")
        outcomes = []
        for i in range(3):
            outcomes.append(
                wl.unlock_attempt(environment="office", seed=500 + i)
            )
            wl.lock()
        summary = summarize_outcomes(outcomes)
        assert summary["success"].attempts == 3
        assert summary["delay"].median > 0

    def test_summarize_rejects_empty(self):
        with pytest.raises(WearLockError):
            summarize_outcomes([])
