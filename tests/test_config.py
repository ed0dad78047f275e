"""Tests for configuration dataclasses and their validation."""

import pytest

from repro.config import (
    DEFAULT_DATA_CHANNELS,
    DEFAULT_PILOT_CHANNELS,
    ModemConfig,
    MotionFilterConfig,
    SecurityConfig,
    SystemConfig,
)
from repro.errors import ConfigurationError


def _bin_frequency(cfg: ModemConfig, index: int) -> float:
    """Center frequency in Hz of FFT bin ``index``."""
    return index * cfg.subchannel_bandwidth


class TestModemConfig:
    def test_paper_defaults(self):
        cfg = ModemConfig()
        assert cfg.sample_rate == 44_100.0
        assert cfg.fft_size == 256
        assert cfg.cp_length == 128
        assert cfg.preamble_length == 256
        assert cfg.guard_length == 1024
        assert cfg.data_channels == DEFAULT_DATA_CHANNELS
        assert cfg.pilot_channels == DEFAULT_PILOT_CHANNELS

    def test_subchannel_bandwidth_is_about_172hz(self):
        cfg = ModemConfig()
        assert cfg.subchannel_bandwidth == pytest.approx(172.27, abs=0.1)

    def test_symbol_length_includes_cp_and_guard(self):
        cfg = ModemConfig()
        assert cfg.symbol_length == 256 + 128 + cfg.symbol_guard

    def test_bin_frequency(self):
        cfg = ModemConfig()
        assert _bin_frequency(cfg, 16) == pytest.approx(16 * 44100 / 256)

    def test_default_band_is_audible_1_to_6khz(self):
        cfg = ModemConfig()
        freqs = [_bin_frequency(cfg, b) for b in cfg.data_channels]
        assert min(freqs) >= 1_000.0
        assert max(freqs) <= 6_000.0

    def test_near_ultrasound_shifts_into_15_20khz(self):
        cfg = ModemConfig().near_ultrasound()
        freqs = [_bin_frequency(cfg, b) for b in cfg.data_channels]
        assert min(freqs) >= 15_000.0
        assert max(freqs) <= 20_000.0
        assert cfg.preamble_band == (15_000.0, 20_000.0)

    def test_near_ultrasound_preserves_plan_shape(self):
        base = ModemConfig()
        shifted = base.near_ultrasound()
        base_gaps = [
            b - a
            for a, b in zip(base.data_channels, base.data_channels[1:])
        ]
        shifted_gaps = [
            b - a
            for a, b in zip(shifted.data_channels, shifted.data_channels[1:])
        ]
        assert base_gaps == shifted_gaps

    def test_rejects_non_power_of_two_fft(self):
        with pytest.raises(ConfigurationError):
            ModemConfig(fft_size=100)

    def test_rejects_cp_longer_than_fft(self):
        with pytest.raises(ConfigurationError):
            ModemConfig(cp_length=512)

    def test_rejects_overlapping_data_and_pilots(self):
        with pytest.raises(ConfigurationError):
            ModemConfig(data_channels=(7, 16), pilot_channels=(7, 11))

    def test_rejects_out_of_range_bins(self):
        with pytest.raises(ConfigurationError):
            ModemConfig(data_channels=(0,))
        with pytest.raises(ConfigurationError):
            ModemConfig(data_channels=(128,))

    def test_rejects_empty_channels(self):
        with pytest.raises(ConfigurationError):
            ModemConfig(data_channels=())

    def test_rejects_inverted_preamble_band(self):
        with pytest.raises(ConfigurationError):
            ModemConfig(preamble_band=(6000.0, 1000.0))

    def test_rejects_preamble_band_beyond_nyquist(self):
        with pytest.raises(ConfigurationError):
            ModemConfig(preamble_band=(1000.0, 30_000.0))


class TestSecurityConfig:
    def test_paper_defaults(self):
        cfg = SecurityConfig()
        assert cfg.otp_bits == 32
        assert cfg.max_failures == 3
        assert cfg.max_ber == pytest.approx(0.1)
        assert cfg.nlos_relaxed_max_ber == pytest.approx(0.25)

    def test_rejects_bad_otp_bits(self):
        with pytest.raises(ConfigurationError):
            SecurityConfig(otp_bits=0)
        with pytest.raises(ConfigurationError):
            SecurityConfig(otp_bits=200)

    def test_rejects_bad_max_ber(self):
        with pytest.raises(ConfigurationError):
            SecurityConfig(max_ber=0.7)

    def test_rejects_zero_max_failures(self):
        with pytest.raises(ConfigurationError):
            SecurityConfig(max_failures=0)


class TestMotionFilterConfig:
    def test_thresholds_ordered(self):
        with pytest.raises(ConfigurationError):
            MotionFilterConfig(dtw_low=0.2, dtw_high=0.1)

    def test_sample_count_bounds(self):
        with pytest.raises(ConfigurationError):
            MotionFilterConfig(sample_count=5)


class TestSystemConfig:
    def test_composes_defaults(self):
        cfg = SystemConfig()
        assert cfg.modem.fft_size == 256
        assert cfg.security.max_failures == 3
        assert cfg.target_range_m == pytest.approx(1.0)

    def test_rejects_nonpositive_range(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(target_range_m=0.0)
