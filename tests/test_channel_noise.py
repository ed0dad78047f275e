"""Tests for noise generation: white, pink, shaped, jammers, scenes."""

import numpy as np
import pytest

from repro.channel.noise import (
    NoiseScene,
    pink_noise,
    shaped_noise,
    shaped_noise_batch,
    tone_jammer,
    white_noise,
)
from repro.channel.scenarios import ENVIRONMENTS
from repro.dsp.energy import signal_spl
from repro.dsp.spectrum import band_power
from repro.errors import ChannelError

FS = 44_100.0


class TestWhiteNoise:
    def test_calibrated_spl(self):
        x = white_noise(44100, 50.0, rng=np.random.default_rng(0))
        assert signal_spl(x) == pytest.approx(50.0, abs=0.1)

    def test_roughly_flat_spectrum(self):
        x = white_noise(44100 * 2, 60.0, rng=np.random.default_rng(1))
        low = band_power(x, FS, 100.0, 5000.0)
        high = band_power(x, FS, 10000.0, 14900.0)
        assert 0.3 < low / high < 3.0

    def test_zero_samples(self):
        assert white_noise(0, 40.0).size == 0

    def test_rejects_negative_count(self):
        with pytest.raises(ChannelError):
            white_noise(-1, 40.0)


class TestPinkNoise:
    def test_calibrated_spl(self):
        x = pink_noise(44100, 45.0, rng=np.random.default_rng(2))
        assert signal_spl(x) == pytest.approx(45.0, abs=0.1)

    def test_energy_concentrated_low(self):
        x = pink_noise(44100 * 2, 60.0, rng=np.random.default_rng(3))
        low = band_power(x, FS, 50.0, 1000.0)
        high = band_power(x, FS, 5000.0, 15000.0)
        assert low > high


class TestShapedNoise:
    def test_respects_band_shape(self):
        x = shaped_noise(
            44100 * 2, 55.0, FS,
            bands=[(100.0, 2000.0, 1.0)],
            rng=np.random.default_rng(4),
        )
        inside = band_power(x, FS, 100.0, 2000.0)
        outside = band_power(x, FS, 6000.0, 15000.0)
        assert inside > 20 * outside

    def test_calibrated_spl(self):
        x = shaped_noise(
            44100, 48.0, FS,
            bands=[(200.0, 3000.0, 1.0), (30.0, 150.0, 0.5)],
            rng=np.random.default_rng(5),
        )
        assert signal_spl(x) == pytest.approx(48.0, abs=0.1)

    def test_rejects_empty_bands(self):
        with pytest.raises(ChannelError):
            shaped_noise(100, 40.0, FS, bands=[])

    def test_rejects_negative_count(self):
        bands = [(100.0, 2000.0, 1.0)]
        with pytest.raises(ChannelError, match="non-negative"):
            shaped_noise(-1, 40.0, FS, bands)
        with pytest.raises(ChannelError, match="non-negative"):
            shaped_noise_batch(
                -1, 40.0, FS, bands, [np.random.default_rng(0)]
            )


class TestToneJammer:
    def test_energy_at_tone_frequencies(self):
        x = tone_jammer(44100, FS, [3000.0], 60.0, rng=np.random.default_rng(6))
        on = band_power(x, FS, 2900.0, 3100.0)
        off = band_power(x, FS, 5000.0, 6000.0)
        assert on > 100 * off

    def test_supports_up_to_six_tones(self):
        freqs = [1000.0 * k for k in range(1, 7)]
        x = tone_jammer(4410, FS, freqs, 60.0)
        assert x.size == 4410

    def test_rejects_seven_tones(self):
        with pytest.raises(ChannelError):
            tone_jammer(100, FS, [1000.0 * k for k in range(1, 8)], 60.0)

    def test_empty_freqs_silent(self):
        assert np.all(tone_jammer(100, FS, [], 60.0) == 0.0)

    @pytest.mark.parametrize("freqs", [[], [1000.0]])
    def test_rejects_negative_count(self, freqs):
        with pytest.raises(ChannelError, match="non-negative"):
            tone_jammer(-1, FS, freqs, 60.0)


class TestNoiseScene:
    def test_sample_is_reproducible_with_seed(self):
        scene = NoiseScene(spl_db=50.0, seed=7)
        a = scene.sample(1000)
        b = scene.sample(1000)
        assert np.allclose(a, b)

    def test_with_jammer_adds_tone(self):
        scene = NoiseScene(spl_db=30.0, seed=8)
        jammed = scene.with_jammer([4000.0], 55.0)
        x = jammed.sample(44100)
        on = band_power(x, FS, 3900.0, 4100.0)
        off = band_power(x, FS, 8000.0, 9000.0)
        assert on > 10 * off

    def test_effective_spl_power_sums(self):
        scene = NoiseScene(spl_db=50.0).with_jammer([1000.0], 50.0)
        # Two equal powers sum to +3 dB.
        assert scene.effective_spl() == pytest.approx(53.01, abs=0.1)

    def test_effective_spl_without_jammer(self):
        assert NoiseScene(spl_db=42.0).effective_spl() == pytest.approx(42.0)

    @pytest.mark.parametrize(
        "scene",
        [
            NoiseScene(spl_db=40.0),
            NoiseScene(spl_db=40.0, bands=((100.0, 2000.0, 1.0),)),
            NoiseScene(spl_db=40.0).with_jammer([3000.0], 50.0),
        ],
    )
    def test_sample_rejects_negative_count(self, scene):
        with pytest.raises(ChannelError, match="non-negative"):
            scene.sample(-1, rng=np.random.default_rng(0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(jam_tones_hz=tuple(1000.0 * k for k in range(1, 8))),
            dict(jam_tones_hz=(0.0,)),
            dict(jam_tones_hz=(FS / 2,)),
            dict(bands=((100.0, FS / 2, 1.0),)),
            dict(bands=((100.0, 30_000.0, 1.0),)),
            dict(bands=((-10.0, 2000.0, 1.0),)),
            dict(bands=((2000.0, 2000.0, 1.0),)),
            dict(bands=((100.0, 2000.0, -0.5),)),
            dict(bands=((100.0, 2000.0, np.nan),)),
        ],
    )
    def test_construction_rejects_bad_bands_and_tones(self, kwargs):
        with pytest.raises(ChannelError):
            NoiseScene(spl_db=40.0, **kwargs)

    def test_with_jammer_validates(self):
        with pytest.raises(ChannelError):
            NoiseScene(spl_db=40.0).with_jammer([25_000.0], 50.0)

    def test_builtin_environments_construct(self):
        assert "grocery_store" in ENVIRONMENTS  # the one with jam tones
        for env in ENVIRONMENTS.values():
            NoiseScene(**vars(env.noise))
