"""Tests for timeline, keyguard, controllers and the unlock session."""

import numpy as np
import pytest

from repro.config import SecurityConfig, SystemConfig
from repro.errors import LockedOutError, ProtocolError
from repro.modem.coding import RepetitionCode
from repro.offload.planner import Placement
from repro.protocol.controllers import (
    PhoneController,
    WatchController,
)
from repro.protocol.events import SimClock, Timeline
from repro.protocol.keyguard import Keyguard, LockState
from repro.protocol.session import (
    AbortReason,
    SessionConfig,
    UnlockSession,
    ambient_similarity,
)
from repro.security.otp import OtpManager
from repro.sensors.traces import ActivityKind


class TestSimClockTimeline:
    def test_clock_advances(self):
        clock = SimClock()
        clock.advance(0.5)
        clock.advance(0.25)
        assert clock.now == pytest.approx(0.75)

    def test_clock_rejects_negative(self):
        with pytest.raises(ProtocolError):
            SimClock().advance(-1.0)

    def test_timeline_records_and_rolls_up(self):
        tl = Timeline()
        tl.record("msg_a", 0.1, "comm")
        tl.record("compute_x", 0.2, "compute")
        tl.record("msg_b", 0.3, "comm")
        assert tl.total == pytest.approx(0.6)
        cats = tl.by_category()
        assert cats["comm"] == pytest.approx(0.4)
        assert cats["compute"] == pytest.approx(0.2)

    def test_events_are_contiguous(self):
        tl = Timeline()
        tl.record("a", 0.1, "x")
        e = tl.record("b", 0.2, "x")
        assert e.start == pytest.approx(0.1)
        assert e.end == pytest.approx(0.3)


class TestKeyguard:
    def test_starts_locked(self):
        kg = Keyguard()
        assert kg.is_locked
        assert kg.state is LockState.LOCKED

    def test_trusted_unlock(self):
        kg = Keyguard()
        kg.trusted_unlock()
        assert not kg.is_locked

    def test_three_failures_require_pin(self):
        kg = Keyguard(SecurityConfig(max_failures=3))
        for _ in range(3):
            kg.trusted_failure()
        assert kg.pin_required
        with pytest.raises(LockedOutError):
            kg.trusted_unlock()

    def test_pin_clears_lockout(self):
        kg = Keyguard(SecurityConfig(max_failures=1))
        kg.trusted_failure()
        kg.pin_unlock()
        assert not kg.pin_required
        assert not kg.is_locked
        kg.lock()
        kg.trusted_unlock()
        assert not kg.is_locked

    def test_success_resets_failures(self):
        kg = Keyguard()
        kg.trusted_failure()
        kg.trusted_unlock()
        assert kg.failures == 0


class TestRepetitionCoding:
    """The token's code as the phone controller runs it."""

    def test_repeat_and_decode_roundtrip(self):
        code = RepetitionCode(5)
        bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        coded = code.encode(bits)
        assert coded.size == 25
        assert np.array_equal(code.decode(coded, 5), bits)

    def test_majority_corrects_minority_errors(self):
        code = RepetitionCode(5)
        bits = np.array([1, 0, 1], dtype=np.uint8)
        coded = code.encode(bits)
        corrupted = coded.copy()
        corrupted[[0, 6, 11, 12]] ^= 1  # ≤2 errors per group of 5
        assert np.array_equal(code.decode(corrupted, 3), bits)


class TestControllers:
    def test_phone_choose_volume_meets_rule(self, system_config):
        phone = PhoneController(system_config, OtpManager(b"k"))
        step, spl = phone.choose_volume(noise_spl=45.0)
        from repro.channel.acoustics import required_tx_spl

        target = required_tx_spl(45.0, system_config.min_snr_db, 1.0)
        assert spl >= min(target, phone.volume.max_spl)

    def test_phone_rejects_even_repetition(self, system_config):
        with pytest.raises(ProtocolError):
            PhoneController(system_config, OtpManager(b"k"), repetition=4)

    def test_prepare_token_uses_selected_mode(self, system_config):
        phone = PhoneController(system_config, OtpManager(b"k"))
        decision = phone.modulator.select(ebn0_db=40.0, max_ber=0.1)
        tt = phone.prepare_token(decision, None, tx_spl=75.0)
        assert tt.mode == "8PSK"
        assert tt.coded_bits == 31 * 5
        assert tt.result.waveform.size > 0

    def test_verify_token_bits_success_unlocks(self, system_config):
        phone = PhoneController(system_config, OtpManager(b"k"))
        decision = phone.modulator.select(40.0, 0.1)
        tt = phone.prepare_token(decision, None, 75.0)
        coded = RepetitionCode(phone.repetition).encode(
            np.array(
                [(tt.token >> (30 - i)) & 1 for i in range(31)],
                dtype=np.uint8,
            )
        )
        ok, ber = phone.verify_token_bits(tt, coded)
        assert ok
        assert ber == 0.0
        assert not phone.keyguard.is_locked

    def test_verify_wrong_bits_counts_failure(self, system_config):
        phone = PhoneController(system_config, OtpManager(b"k"))
        decision = phone.modulator.select(40.0, 0.1)
        tt = phone.prepare_token(decision, None, 75.0)
        garbage = np.ones(tt.coded_bits, dtype=np.uint8)
        ok, ber = phone.verify_token_bits(tt, garbage)
        assert not ok
        assert phone.keyguard.failures == 1

    def test_watch_demodulates_phone_frame(self, system_config):
        phone = PhoneController(system_config, OtpManager(b"k"))
        watch = WatchController(system_config)
        decision = phone.modulator.select(40.0, 0.1)
        tt = phone.prepare_token(decision, None, 75.0)
        cfg_msg = phone.channel_config_message(tt)
        bits = watch.demodulate(tt.result.waveform, cfg_msg)
        ok, ber = phone.verify_token_bits(tt, bits)
        assert ok and ber == 0.0


class TestAmbientSimilarity:
    def test_same_scene_high_similarity(self, office_link, rng):
        a = office_link.record_ambient(0.3, rng=rng)
        b = office_link.record_ambient(0.3, rng=rng)
        assert ambient_similarity(a, b, 44100.0) > 0.6

    def test_different_scenes_lower_similarity(self, rng):
        from repro.channel.link import AcousticLink
        from repro.channel.scenarios import get_environment

        cafe = get_environment("cafe")
        quiet = get_environment("quiet_room")
        a = AcousticLink(noise=cafe.noise, room=cafe.room).record_ambient(
            0.3, rng=rng
        )
        b = AcousticLink(noise=quiet.noise, room=quiet.room).record_ambient(
            0.3, rng=rng
        )
        same_a = AcousticLink(
            noise=cafe.noise, room=cafe.room
        ).record_ambient(0.3, rng=rng)
        assert ambient_similarity(a, b, 44100.0) < ambient_similarity(
            a, same_a, 44100.0
        )


class TestUnlockSession:
    def test_successful_unlock(self):
        cfg = SessionConfig(environment="office", distance_m=0.4, seed=42)
        outcome = UnlockSession(cfg, otp=OtpManager(b"k")).run()
        assert outcome.unlocked
        assert outcome.abort_reason is AbortReason.NONE
        assert outcome.mode in ("8PSK", "QPSK", "QASK")
        assert outcome.raw_ber is not None and outcome.raw_ber < 0.2
        assert outcome.total_delay_s > 0.3

    def test_motion_mismatch_aborts_early(self):
        cfg = SessionConfig(
            environment="office", co_located=False, seed=43
        )
        outcomes = [
            UnlockSession(cfg, otp=OtpManager(b"k")).run(
                rng=np.random.default_rng(1000 + i)
            )
            for i in range(8)
        ]
        aborted = [
            o for o in outcomes
            if o.abort_reason is AbortReason.MOTION_MISMATCH
        ]
        assert len(aborted) >= 4
        for o in aborted:
            assert o.mode is None  # phase 2 never ran

    def test_far_away_fails(self):
        cfg = SessionConfig(
            environment="office", distance_m=6.0, seed=44,
            use_motion_filter=False, use_noise_filter=False,
        )
        outcome = UnlockSession(cfg, otp=OtpManager(b"k")).run()
        assert not outcome.unlocked

    def test_timeline_has_expected_categories(self):
        cfg = SessionConfig(environment="office", seed=45)
        outcome = UnlockSession(cfg, otp=OtpManager(b"k")).run()
        cats = outcome.timeline.by_category()
        for expected in ("stack", "comm", "audio"):
            assert expected in cats

    def test_offload_moves_compute_to_phone(self):
        base = dict(environment="office", seed=46)
        local = UnlockSession(
            SessionConfig(offload=Placement.WATCH_LOCAL, **base),
            otp=OtpManager(b"k"),
        ).run()
        off = UnlockSession(
            SessionConfig(offload=Placement.PHONE_OFFLOAD, **base),
            otp=OtpManager(b"k"),
        ).run()
        local_labels = [e.label for e in local.timeline.events]
        off_labels = [e.label for e in off.timeline.events]
        assert any("watch" in l for l in local_labels if "processing" in l)
        assert any("phone" in l for l in off_labels if "processing" in l)
        assert any("audio_transfer" in l for l in off_labels)

    def test_energy_charged_to_both_devices(self):
        cfg = SessionConfig(environment="office", seed=47)
        outcome = UnlockSession(cfg, otp=OtpManager(b"k")).run()
        assert outcome.watch_energy_j > 0
        assert outcome.phone_energy_j > 0

    def test_security_state_persists_across_attempts(self):
        otp = OtpManager(b"k")
        cfg = SessionConfig(environment="office", seed=48)
        phone = PhoneController(cfg.system, otp)
        for i in range(3):
            outcome = UnlockSession(cfg, otp=otp, phone=phone).run(
                rng=np.random.default_rng(2000 + i)
            )
            assert outcome.unlocked
        assert otp.counter == 3

    def test_ultrasound_band_session(self):
        cfg = SessionConfig(
            environment="office", band="ultrasound", distance_m=0.3,
            seed=49,
        )
        outcome = UnlockSession(cfg, otp=OtpManager(b"k")).run()
        assert outcome.unlocked

    def test_invalid_wireless_rejected(self):
        from repro.errors import WearLockError

        with pytest.raises(WearLockError):
            SessionConfig(wireless="carrier-pigeon")
