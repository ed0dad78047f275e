"""Tests for FFT interpolation, spectrum access and Goertzel power."""

import numpy as np
import pytest

from repro.dsp.fftops import (
    fft_interpolate_rows,
    goertzel_power,
    spectrum_bins,
)
from repro.errors import DspError


def fft_interpolate(values, factor):
    """One-row call of :func:`fft_interpolate_rows`."""
    return fft_interpolate_rows(np.asarray(values)[None, :], factor)[0]


class TestFftInterpolate:
    def test_factor_one_is_identity(self):
        v = np.array([1 + 1j, 2 - 1j, 3, 4j])
        assert np.allclose(fft_interpolate(v, 1), v)

    def test_preserves_original_samples(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        out = fft_interpolate(v, 4)
        assert np.allclose(out[::4], v, atol=1e-10)

    def test_exact_for_bandlimited_signal(self):
        # One cycle of a complex exponential is band-limited; the
        # interpolant must reproduce the dense sampling exactly.
        m, factor = 16, 4
        dense = np.exp(2j * np.pi * 2 * np.arange(m * factor) / (m * factor))
        sparse = dense[::factor]
        out = fft_interpolate(sparse, factor)
        assert np.allclose(out, dense, atol=1e-9)

    def test_real_input_yields_real_interpolant(self):
        v = np.cos(2 * np.pi * np.arange(8) / 8)
        out = fft_interpolate(v, 2)
        assert np.max(np.abs(out.imag)) < 1e-9

    def test_output_length(self):
        assert fft_interpolate(np.ones(5), 3).size == 15

    def test_rejects_bad_factor(self):
        with pytest.raises(DspError):
            fft_interpolate(np.ones(4), 0)

    def test_rejects_empty(self):
        with pytest.raises(DspError):
            fft_interpolate(np.zeros(0), 2)


class TestSpectrumBins:
    def test_pure_tone_lands_on_its_bin(self):
        n = 256
        k = 16
        x = np.cos(2 * np.pi * k * np.arange(n) / n)
        spec = spectrum_bins(x, n)
        mags = np.abs(spec[: n // 2])
        assert np.argmax(mags) == k

    def test_truncates_long_input(self):
        x = np.ones(1000)
        assert spectrum_bins(x, 256).size == 256

    def test_pads_short_input(self):
        x = np.ones(100)
        assert spectrum_bins(x, 256).size == 256

    def test_rejects_bad_fft_size(self):
        with pytest.raises(DspError):
            spectrum_bins(np.ones(10), 0)


class TestGoertzelPower:
    def test_detects_tone_at_frequency(self):
        fs = 44100.0
        t = np.arange(4096) / fs
        x = np.sin(2 * np.pi * 3000.0 * t)
        on = goertzel_power(x, fs, 3000.0)
        off = goertzel_power(x, fs, 9000.0)
        assert on > 100 * off

    def test_agrees_with_fft(self):
        fs = 1024.0
        n = 1024
        x = np.sin(2 * np.pi * 100.0 * np.arange(n) / fs)
        g = goertzel_power(x, fs, 100.0)
        spec = np.fft.rfft(x)
        f = (np.abs(spec[100]) ** 2) / (n * n)
        assert g == pytest.approx(f, rel=1e-6)

    def test_rejects_frequency_beyond_nyquist(self):
        with pytest.raises(DspError):
            goertzel_power(np.ones(100), 1000.0, 600.0)

    def test_rejects_empty_signal(self):
        with pytest.raises(DspError):
            goertzel_power(np.zeros(0), 1000.0, 100.0)
