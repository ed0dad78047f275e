"""Edge-case and failure-injection tests for the unlock session."""

import numpy as np
import pytest

from repro.config import SecurityConfig, SystemConfig
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.modem.coding import ConvolutionalCode, HammingCode
from repro.protocol.controllers import PhoneController
from repro.protocol.session import (
    AbortReason,
    RetryPolicy,
    SessionConfig,
    UnlockSession,
)
from repro.security.otp import OtpManager
from repro.sensors.traces import ActivityKind


class TestSessionConfigValidation:
    """Each out-of-domain value fails at construction with a
    :class:`ConfigurationError`, not deep inside the channel or modem."""

    @pytest.mark.parametrize(
        "field, bad, good",
        [
            ("distance_m", (float("nan"), float("inf"), 0.0, -1.0), 0.4),
            ("max_ber", (float("nan"), 0.0, 0.5, 2.0, -0.1), 0.1),
            ("nlos_blocking_db", (float("nan"), float("inf"), -1.0), 0.0),
            ("environment", ("moon", ""), "cafe"),
            ("retry", (True, 3, "yes"), RetryPolicy(max_attempts=2)),
            (
                "faults",
                (123, True, ["msg_drop@otp-tx"]),
                FaultPlan.parse("msg_drop@otp-tx"),
            ),
            ("repetition", (0, -1, 2, 2.5, True, np.int64(4)), np.int64(3)),
            ("seed", (-1, 1.5, True, np.int64(-2)), np.uint32(7)),
        ],
    )
    def test_rejected_at_construction(self, field, bad, good):
        for value in bad:
            with pytest.raises(ConfigurationError, match=field):
                SessionConfig(**{field: value})
        assert getattr(SessionConfig(**{field: good}), field) == good


class TestRetryPolicyValidation:
    """Counts must be integers (not bools) in range and the latency
    budget finite and positive: a NaN budget or re-probe cap would
    silently lift the bound it sets."""

    @pytest.mark.parametrize(
        "field, bad, good",
        [
            ("max_attempts", (2.5, True, float("nan"), 0), 2),
            ("max_reprobes", (float("nan"), 0.5, False, -1), 0),
            ("latency_budget_s", (float("nan"), float("inf"), 0.0, -1.0), 2.5),
            ("nack_bytes", (float("nan"), 1.5, True, -1), 0),
        ],
    )
    def test_rejected_at_construction(self, field, bad, good):
        for value in bad:
            with pytest.raises(ConfigurationError, match=field):
                RetryPolicy(**{field: value})
        assert getattr(RetryPolicy(**{field: good}), field) == good


class TestWirelessGate:
    def test_no_bluetooth_aborts_immediately(self):
        """Paper §V: no Bluetooth link → no protocol, no DSP at all."""
        cfg = SessionConfig(
            environment="office", wireless_connected=False, seed=1
        )
        outcome = UnlockSession(cfg, otp=OtpManager(b"k")).run()
        assert not outcome.unlocked
        assert outcome.abort_reason is AbortReason.NO_WIRELESS_LINK
        # Only the button-press stack delay was spent.
        assert outcome.total_delay_s < 0.2
        assert outcome.watch_energy_j == 0.0


class TestNlosRelaxation:
    def _blocked_cfg(self, **overrides):
        base = dict(
            environment="classroom",
            distance_m=0.25,
            los=False,
            nlos_blocking_db=8.0,
            use_motion_filter=False,
            use_noise_filter=False,
        )
        base.update(overrides)
        return SessionConfig(**base)

    def test_blocked_sessions_partially_survive(self):
        """Mild body blocking degrades but does not kill the protocol,
        and the NLOS detector fires on a fraction of attempts (the
        case study observed 3/10)."""
        successes = 0
        nlos_seen = 0
        for i in range(8):
            cfg = self._blocked_cfg(seed=50 + i)
            outcome = UnlockSession(cfg, otp=OtpManager(b"k")).run(
                rng=np.random.default_rng(700 + i)
            )
            nlos_seen += bool(outcome.nlos)
            successes += outcome.unlocked
        assert successes >= 3
        assert nlos_seen >= 1

    def test_heavy_blocking_defeats_unlock(self):
        """Severe blocking (the covered-speaker grip) mostly fails —
        the co-located-attacker self-defeat property."""
        successes = 0
        for i in range(6):
            cfg = self._blocked_cfg(nlos_blocking_db=26.0, seed=70 + i)
            outcome = UnlockSession(cfg, otp=OtpManager(b"k")).run(
                rng=np.random.default_rng(750 + i)
            )
            successes += outcome.unlocked
        assert successes <= 2


class TestCodedSessions:
    @pytest.mark.parametrize(
        "code", [ConvolutionalCode(), HammingCode()],
        ids=["conv-k7", "hamming74"],
    )
    def test_alternative_codes_unlock(self, code):
        # Hamming(7,4) only corrects one error per block, so give it
        # the quiet room; the Viterbi code handles the office too.
        otp = OtpManager(b"k")
        cfg = SessionConfig(
            environment="quiet_room", distance_m=0.3, seed=9
        )
        phone = PhoneController(cfg.system, otp, code=code)
        outcome = UnlockSession(cfg, otp=otp, phone=phone).run(
            rng=np.random.default_rng(800)
        )
        assert outcome.unlocked

    def test_conv_code_shortens_airtime_vs_repetition(self):
        """conv-k7 (rate 1/2) needs fewer coded bits than 5x repetition
        for the same 31-bit token → a shorter Phase 2."""
        otp_a = OtpManager(b"k")
        otp_b = OtpManager(b"k")
        system = SystemConfig()
        rep = PhoneController(system, otp_a, repetition=5)
        conv = PhoneController(system, otp_b, code=ConvolutionalCode())
        d_rep = rep.modulator.select(40.0, 0.1)
        d_conv = conv.modulator.select(40.0, 0.1)
        tt_rep = rep.prepare_token(d_rep, None, 75.0)
        tt_conv = conv.prepare_token(d_conv, None, 75.0)
        assert tt_conv.coded_bits < tt_rep.coded_bits
        assert tt_conv.result.waveform.size < tt_rep.result.waveform.size


class TestLockoutThroughSessions:
    def _bad_channel_outcome(self, otp, phone, seed):
        """A channel bad enough to corrupt the token beyond repair but
        often good enough to demodulate *something*."""
        cfg = SessionConfig(
            environment="grocery_store",
            distance_m=3.0,
            use_motion_filter=False,
            use_noise_filter=False,
            use_nlos_check=False,
            seed=seed,
        )
        return UnlockSession(cfg, otp=otp, phone=phone).run(
            rng=np.random.default_rng(seed)
        )

    def test_failed_tokens_accumulate_toward_lockout(self):
        system = SystemConfig(security=SecurityConfig(max_failures=3))
        otp = OtpManager(b"key", config=system.security)
        phone = PhoneController(system, otp)
        rejections = 0
        for i in range(12):
            if otp.locked_out:
                break
            outcome = self._bad_channel_outcome(otp, phone, 910 + i)
            assert not outcome.unlocked
            if outcome.abort_reason is AbortReason.TOKEN_REJECTED:
                rejections += 1
        # Every completed transmission on this channel fails the token
        # check; rejected tokens count toward the keyguard policy.
        if rejections:
            assert phone.keyguard.failures > 0 or otp.locked_out

    def test_token_rejection_recorded_with_ber(self):
        system = SystemConfig()
        otp = OtpManager(b"key")
        phone = PhoneController(system, otp)
        for i in range(10):
            outcome = self._bad_channel_outcome(otp, phone, 930 + i)
            if outcome.abort_reason is AbortReason.TOKEN_REJECTED:
                assert outcome.raw_ber is not None
                assert outcome.raw_ber > 0.1
                break
            if otp.locked_out:
                break


class TestFilterToggles:
    def test_disabling_filters_skips_their_events(self):
        cfg = SessionConfig(
            environment="office",
            use_motion_filter=False,
            use_noise_filter=False,
            seed=13,
        )
        outcome = UnlockSession(cfg, otp=OtpManager(b"k")).run()
        labels = [e.label for e in outcome.timeline.events]
        assert not any("dtw" in l for l in labels)
        assert outcome.motion_score is None
        assert outcome.noise_similarity is None

    def test_activity_affects_motion_scores_not_success(self):
        for activity in ActivityKind:
            cfg = SessionConfig(
                environment="office", activity=activity, seed=14
            )
            outcome = UnlockSession(cfg, otp=OtpManager(b"k")).run(
                rng=np.random.default_rng(950)
            )
            assert outcome.motion_score is not None
            assert outcome.motion_score < 0.15, activity


class TestEvalExperimentSmokes:
    """Cheap-parameter smokes of the experiment harness functions."""

    def test_fig4_shape(self):
        from repro.eval.experiments import fig4_propagation

        result = fig4_propagation(
            distances=(0.5, 1.0), volume_steps=(10,), n_trials=1
        )
        assert len(result["rows"]) == 2
        assert result["rows"][0]["measured_spl"] > result["rows"][1][
            "measured_spl"
        ]

    def test_fig10_shape(self):
        from repro.eval.experiments import fig10_compute_delay

        result = fig10_compute_delay()
        assert len(result["rows"]) == 9

    def test_fig11_shape(self):
        from repro.eval.experiments import fig11_comm_delay

        result = fig11_comm_delay(n_trials=5)
        assert result["wifi"]["file_ms"] < result["bluetooth"]["file_ms"]

    def test_table2_shape(self):
        from repro.eval.experiments import table2_dtw

        result = table2_dtw(n_trials=4)
        assert set(result["scores"]) == {
            "sitting", "walking", "jogging", "different"
        }

    def test_band_noise_spl_ultrasound_below_broadband(self):
        from repro.channel.hardware import MicrophoneModel
        from repro.channel.scenarios import get_environment
        from repro.config import ModemConfig
        from repro.eval.experiments import band_noise_spl

        env = get_environment("office")
        us = ModemConfig().near_ultrasound()
        in_band = band_noise_spl(
            env, us, MicrophoneModel.wide_band(us.sample_rate)
        )
        assert in_band < env.noise.effective_spl() - 8.0
