"""Tests for room impulse responses, delay spread, speaker/mic models."""

import numpy as np
import pytest

from repro.channel.hardware import MicrophoneModel, SpeakerModel
from repro.channel.multipath import RoomImpulseResponse, rms_delay_spread
from repro.dsp.spectrum import band_power
from repro.errors import ChannelError

FS = 44_100.0


class TestRmsDelaySpread:
    def test_single_tap_has_zero_spread(self):
        p = np.zeros(100)
        p[0] = 1.0
        assert rms_delay_spread(p, FS) == 0.0

    def test_two_equal_taps(self):
        p = np.zeros(100)
        p[0] = 1.0
        p[44] = 1.0  # ~1 ms later
        # Mean halfway between the taps, spread = half the separation.
        assert rms_delay_spread(p, FS) == pytest.approx(
            22.0 / FS, rel=1e-9
        )

    def test_empty_profile_rejected(self):
        with pytest.raises(ChannelError):
            rms_delay_spread(np.zeros(0), FS)

    def test_all_zero_profile_is_zero(self):
        assert rms_delay_spread(np.zeros(50), FS) == 0.0

    def test_negative_values_clipped(self):
        p = np.array([1.0, -5.0, 0.0])
        assert rms_delay_spread(p, FS) == 0.0


class TestRoomImpulseResponse:
    def test_direct_tap_dominates_los(self):
        room = RoomImpulseResponse()
        ir = room.sample(np.random.default_rng(0))
        assert abs(ir[0]) == pytest.approx(room.direct_gain)
        assert abs(ir[0]) > np.max(np.abs(ir[1:]))

    def test_nlos_attenuates_direct_path(self):
        room = RoomImpulseResponse()
        blocked = room.nlos(blocking_db=20.0)
        assert blocked.direct_gain == pytest.approx(
            room.direct_gain * 0.1
        )

    def test_nlos_raises_delay_spread(self):
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        room = RoomImpulseResponse()
        los_tau = rms_delay_spread(room.delay_profile(rng_a), FS)
        nlos_tau = rms_delay_spread(
            room.nlos(24.0).delay_profile(rng_b), FS
        )
        assert nlos_tau > los_tau

    def test_apply_convolves(self):
        room = RoomImpulseResponse()
        x = np.zeros(100)
        x[0] = 1.0
        y = room.apply(x, rng=np.random.default_rng(2))
        assert y.size == 100 + room.tail_length - 1
        assert abs(y[0]) == pytest.approx(room.direct_gain)

    def test_rejects_bad_params(self):
        with pytest.raises(ChannelError):
            RoomImpulseResponse(rt60=0.0)
        with pytest.raises(ChannelError):
            RoomImpulseResponse(tail_length=2)


class TestSpeakerModel:
    def test_output_longer_than_input_when_ringing(self):
        sp = SpeakerModel()
        x = np.sin(np.linspace(0, 100, 1000))
        y = sp.play(x)
        assert y.size > x.size  # the paper's ringing observation

    def test_rise_effect_attenuates_head(self):
        sp = SpeakerModel(ringing_gain=0.0, phase_ripple_rad=0.0)
        x = np.ones(2000)
        y = sp.play(x)
        assert abs(y[0]) < 0.1
        assert y[1500] == pytest.approx(1.0, abs=0.05)

    def test_clipping(self):
        sp = SpeakerModel(clip_level=0.5)
        y = sp.play(np.ones(500) * 10.0)
        assert np.max(np.abs(y)) <= 0.5

    def test_phase_ripple_preserves_magnitude_spectrum(self):
        sp = SpeakerModel(
            rise_time=0.0, ringing_gain=0.0, clip_level=100.0
        )
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4096) * 0.01
        y = sp.play(x)
        mx = np.abs(np.fft.rfft(x))
        my = np.abs(np.fft.rfft(y[: x.size]))
        # All-pass: magnitudes match within numerical tolerance.
        assert np.allclose(mx[10:-10], my[10:-10], rtol=1e-6)

    @pytest.mark.parametrize(
        "field", ["rise_time", "ringing_time"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1e-3])
    def test_rejects_bad_time_constants(self, field, value):
        with pytest.raises(ChannelError, match="time constants"):
            SpeakerModel(**{field: value})

    def test_empty_signal_plays_empty(self):
        sp = SpeakerModel()
        assert sp.play(np.zeros(0)).size == 0
        with pytest.raises(ChannelError):
            sp.play_batch(np.zeros((1, 0)))

    def test_phase_response_deterministic_per_device(self):
        a = SpeakerModel(device_seed=5)
        b = SpeakerModel(device_seed=5)
        f = np.linspace(1000, 6000, 50)
        assert np.allclose(a.phase_response(f), b.phase_response(f))

    def test_different_devices_differ(self):
        a = SpeakerModel(device_seed=5)
        b = SpeakerModel(device_seed=6)
        f = np.linspace(1000, 6000, 50)
        assert not np.allclose(a.phase_response(f), b.phase_response(f))


class TestMicrophoneModel:
    def _tone(self, freq, n=8192):
        return 0.01 * np.sin(2 * np.pi * freq * np.arange(n) / FS)

    def test_watch_lowpass_kills_ultrasound(self):
        mic = MicrophoneModel(noise_floor_spl=-np.inf)
        passed = mic.record(self._tone(3000.0))
        killed = mic.record(self._tone(16000.0))
        assert band_power(killed, FS, 15000.0, 17000.0) < 0.01 * band_power(
            passed, FS, 2000.0, 4000.0
        )

    def test_knee_fades_5_to_7khz(self):
        mic = MicrophoneModel(noise_floor_spl=-np.inf)
        low = mic.record(self._tone(3000.0))
        knee = mic.record(self._tone(6500.0))
        p_low = band_power(low, FS, 2500.0, 3500.0)
        p_knee = band_power(knee, FS, 6000.0, 7000.0)
        assert p_knee < 0.7 * p_low

    def test_wide_band_passes_ultrasound(self):
        mic = MicrophoneModel.wide_band(FS)
        x = self._tone(17000.0)
        y = mic.record(x, rng=np.random.default_rng(0))
        assert band_power(y, FS, 16000.0, 18000.0) > 0.5 * band_power(
            x, FS, 16000.0, 18000.0
        )

    def test_noise_floor_added(self):
        mic = MicrophoneModel(noise_floor_spl=30.0)
        y = mic.record(np.zeros(44100), rng=np.random.default_rng(1))
        from repro.dsp.energy import signal_spl

        assert signal_spl(y) == pytest.approx(30.0, abs=1.5)

    def test_rejects_bad_lowpass(self):
        with pytest.raises(ChannelError):
            MicrophoneModel(lowpass_hz=30_000.0)
