"""Tests for the timing guard, NLOS detector and attack simulators."""

import numpy as np
import pytest

from repro.config import SecurityConfig
from repro.errors import ReplayDetectedError, SecurityError
from repro.security.attacks import (
    BruteForceAttacker,
    CoLocatedAttacker,
    RelayAttacker,
    ReplayAttacker,
)
from repro.security.nlos import NlosDetector
from repro.security.otp import OtpManager
from repro.security.timing import TimingGuard, TimingObservation


def _legit_obs(extra: float = 0.0) -> TimingObservation:
    obs = TimingObservation(
        wireless_rtt=0.09, stack_delay=0.12, acoustic_onset=0.0
    )
    return TimingObservation(
        wireless_rtt=obs.wireless_rtt,
        stack_delay=obs.stack_delay,
        acoustic_onset=obs.expected_onset() + 0.05 + extra,
    )


class TestTimingGuard:
    def test_accepts_legitimate_round(self):
        guard = TimingGuard(budget=0.35)
        guard.check(_legit_obs())  # must not raise

    def test_rejects_replay_latency(self):
        guard = TimingGuard(budget=0.35)
        with pytest.raises(ReplayDetectedError):
            guard.check(_legit_obs(extra=0.8))

    def test_rejects_too_early_onset(self):
        guard = TimingGuard(budget=0.35, calibration_margin=0.05)
        early = TimingObservation(
            wireless_rtt=0.09, stack_delay=0.12, acoustic_onset=0.0
        )
        with pytest.raises(ReplayDetectedError):
            guard.check(early)

    def test_is_legitimate_nonraising(self):
        guard = TimingGuard()
        assert guard.is_legitimate(_legit_obs())
        assert not guard.is_legitimate(_legit_obs(extra=2.0))

    def test_history_recorded(self):
        guard = TimingGuard()
        guard.is_legitimate(_legit_obs())
        guard.is_legitimate(_legit_obs())
        assert len(guard.history) == 2

    def test_rejects_bad_budget(self):
        with pytest.raises(SecurityError):
            TimingGuard(budget=0.0)


class TestNlosDetector:
    def test_low_score_aborts(self):
        det = NlosDetector(score_threshold=0.05)
        verdict = det.classify(0.02, np.ones(10), 44100.0)
        assert not verdict.preamble_ok
        assert verdict.nlos

    def test_tight_profile_is_los(self):
        det = NlosDetector(tau_threshold=4e-4)
        profile = np.zeros(200)
        profile[0] = 1.0
        profile[3] = 0.2
        verdict = det.classify(0.8, profile, 44100.0)
        assert verdict.preamble_ok
        assert not verdict.nlos

    def test_spread_profile_is_nlos(self):
        det = NlosDetector(tau_threshold=4e-4)
        profile = np.zeros(200)
        profile[::10] = 1.0  # energy smeared over ~4.5 ms
        verdict = det.classify(0.8, profile, 44100.0)
        assert verdict.nlos

    def test_rejects_bad_thresholds(self):
        with pytest.raises(SecurityError):
            NlosDetector(score_threshold=0.0)
        with pytest.raises(SecurityError):
            NlosDetector(tau_threshold=-1.0)


class TestBruteForce:
    def test_lockout_stops_attack(self):
        mgr = OtpManager(b"victim-key", SecurityConfig(max_failures=3))
        attacker = BruteForceAttacker(token_bits=31, rng=0)
        outcome = attacker.attack(mgr)
        assert not outcome.succeeded
        assert mgr.locked_out

    def test_success_probability_bounded(self):
        """With 31-bit tokens and 3 tries, P(success) <= 3/2^31 —
        run many sessions against a tiny token space to validate the
        mechanism instead (4-bit space, expect some successes)."""
        rng = np.random.default_rng(1)
        wins = 0
        for i in range(200):
            mgr = OtpManager(
                b"victim-key",
                SecurityConfig(
                    otp_bits=4, max_failures=3, counter_look_ahead=0
                ),
                initial_counter=i,
            )
            attacker = BruteForceAttacker(token_bits=4, rng=rng)
            wins += attacker.attack(mgr).succeeded
        # Per guess p = 1/16; three tries ≈ 17.7% per session.
        assert 15 <= wins <= 65

    def test_rejects_bad_bits(self):
        with pytest.raises(SecurityError):
            BruteForceAttacker(token_bits=0)


class TestReplayAttacker:
    def test_capture_and_replay_bit_exact(self):
        attacker = ReplayAttacker()
        wave = np.sin(np.linspace(0, 10, 1000))
        attacker.capture(wave)
        assert np.array_equal(attacker.replay(), wave)

    def test_replay_without_capture_raises(self):
        with pytest.raises(SecurityError):
            ReplayAttacker().replay()

    def test_replay_defeated_by_timing_guard(self):
        guard = TimingGuard(budget=0.35)
        attacker = ReplayAttacker(replay_latency=0.8)
        legit = _legit_obs()
        assert guard.is_legitimate(legit)
        assert not guard.is_legitimate(attacker.timing_observation(legit))

    def test_replay_defeated_by_otp_freshness(self):
        """Even an instant replay fails: the token was consumed."""
        mgr = OtpManager(b"key")
        token = mgr.generate()
        assert mgr.verify(token).ok
        assert not mgr.verify(token).ok


class TestRelayAttacker:
    def test_distortion_changes_signal(self):
        attacker = RelayAttacker()
        x = np.sin(2 * np.pi * 3000 * np.arange(4096) / 44100.0)
        y = attacker.distort(x, 44100.0)
        assert y.size == x.size
        assert not np.allclose(x, y, atol=1e-3)

    def test_relay_adds_timing_delay(self):
        attacker = RelayAttacker(relay_latency=0.25)
        legit = _legit_obs()
        relayed = attacker.timing_observation(legit)
        assert relayed.acoustic_onset == pytest.approx(
            legit.acoustic_onset + 0.25
        )

    def test_fast_relay_evades_loose_guard(self):
        """The paper's acknowledged limitation: an ideal low-latency
        relay slips under a generous timing budget."""
        guard = TimingGuard(budget=0.35)
        attacker = RelayAttacker(relay_latency=0.1)
        assert guard.is_legitimate(attacker.timing_observation(_legit_obs()))


class TestCoLocatedAttacker:
    def test_channel_kwargs(self):
        a = CoLocatedAttacker(distance_m=2.0, concealed=True)
        kwargs = a.channel_kwargs()
        assert kwargs["distance_m"] == 2.0
        assert kwargs["los"] is False

    def test_rejects_bad_distance(self):
        with pytest.raises(SecurityError):
            CoLocatedAttacker(distance_m=0.0)
