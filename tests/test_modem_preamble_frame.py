"""Tests for preamble detection and OFDM frame construction."""

import numpy as np
import pytest

from repro.config import ModemConfig
from repro.errors import ModemError, PreambleNotFoundError
from repro.modem.frame import (
    PILOT_VALUE,
    assemble_frame,
    demodulate_block,
    frame_layout,
    modulate_symbol,
)
from repro.modem.preamble import PreambleDetector, build_preamble
from repro.modem.subchannels import ChannelPlan


@pytest.fixture
def config():
    return ModemConfig()


@pytest.fixture
def plan(config):
    return ChannelPlan.from_config(config)


class TestPreambleDetector:
    def test_detects_clean_preamble(self, config):
        det = PreambleDetector(config)
        preamble = build_preamble(config)
        recording = np.concatenate(
            [np.zeros(1000), preamble, np.zeros(500)]
        )
        match = det.detect(recording)
        assert match.start == 1000 + config.preamble_length
        assert match.score > 0.95

    def test_detects_in_noise(self, config, rng):
        det = PreambleDetector(config)
        preamble = build_preamble(config)
        recording = np.concatenate(
            [np.zeros(800), preamble, np.zeros(400)]
        ) + 0.1 * rng.standard_normal(800 + 256 + 400)
        match = det.detect(recording)
        assert abs(match.start - (800 + 256)) <= 2

    def test_raises_on_pure_noise(self, config, rng):
        det = PreambleDetector(config, threshold=0.5)
        with pytest.raises(PreambleNotFoundError) as exc:
            det.detect(rng.standard_normal(5000))
        assert exc.value.score < 0.5

    def test_raises_on_short_recording(self, config):
        det = PreambleDetector(config)
        with pytest.raises(PreambleNotFoundError):
            det.detect(np.zeros(10))

    def test_delay_profile_peaks_at_zero_for_clean(self, config):
        det = PreambleDetector(config)
        preamble = build_preamble(config)
        recording = np.concatenate([np.zeros(500), preamble, np.zeros(500)])
        match = det.detect(recording)
        assert np.argmax(match.delay_profile) == 0

    def test_threshold_default_from_config(self, config):
        det = PreambleDetector(config)
        assert det.threshold == config.detection_threshold == 0.05


class TestFrameConstruction:
    def test_symbol_length(self, config, plan):
        symbol = modulate_symbol(
            config, plan, np.ones(len(plan.data), dtype=complex)
        )
        assert symbol.size == config.cp_length + config.fft_size + config.symbol_guard

    def test_cyclic_prefix_is_copy_of_tail(self, config, plan):
        symbol = modulate_symbol(
            config, plan, np.ones(len(plan.data), dtype=complex)
        )
        cp = symbol[: config.cp_length]
        body = symbol[config.cp_length: config.cp_length + config.fft_size]
        assert np.allclose(cp, body[-config.cp_length:])

    def test_signal_is_real(self, config, plan):
        symbol = modulate_symbol(
            config, plan, (1 + 1j) * np.ones(len(plan.data))
        )
        assert symbol.dtype == np.float64

    def test_clean_roundtrip_recovers_bins(self, config, plan):
        rng = np.random.default_rng(0)
        data = np.exp(2j * np.pi * rng.uniform(size=len(plan.data)))
        symbol = modulate_symbol(config, plan, data)
        body = symbol[config.cp_length: config.cp_length + config.fft_size]
        spectrum = demodulate_block(config, body)
        # Re(IFFT) construction halves every occupied bin uniformly, so
        # data/pilot ratios are preserved exactly.
        pilots = spectrum[list(plan.pilots)]
        assert np.allclose(pilots, pilots[0])
        recovered = spectrum[sorted(plan.data)] / pilots[0] * PILOT_VALUE
        assert np.allclose(recovered, data, atol=1e-9)

    def test_hermitian_variant_also_real_and_decodable(self, config, plan):
        rng = np.random.default_rng(1)
        data = np.exp(2j * np.pi * rng.uniform(size=len(plan.data)))
        symbol = modulate_symbol(config, plan, data, hermitian=True)
        body = symbol[config.cp_length: config.cp_length + config.fft_size]
        spectrum = demodulate_block(config, body)
        pilots = spectrum[list(plan.pilots)]
        recovered = spectrum[sorted(plan.data)] / pilots[0]
        assert np.allclose(recovered, data, atol=1e-9)

    def test_rejects_wrong_symbol_count(self, config, plan):
        with pytest.raises(ModemError):
            modulate_symbol(config, plan, np.ones(3, dtype=complex))

    def test_demodulate_rejects_short_block(self, config):
        with pytest.raises(ModemError):
            demodulate_block(config, np.zeros(10))


class TestFrameLayout:
    def test_offsets(self, config):
        layout = frame_layout(config, 3)
        offsets = layout.symbol_offsets()
        assert offsets[0] == config.preamble_length + config.guard_length
        stride = config.cp_length + config.fft_size + config.symbol_guard
        assert offsets[1] - offsets[0] == stride
        assert layout.total_length == offsets[-1] + stride

    def test_rejects_zero_symbols(self, config):
        with pytest.raises(ModemError):
            frame_layout(config, 0)

    def test_assemble_frame_structure(self, config, plan):
        preamble = build_preamble(config)
        symbol = modulate_symbol(
            config, plan, np.ones(len(plan.data), dtype=complex)
        )
        frame = assemble_frame(config, preamble, symbol)
        assert frame.size == (
            config.preamble_length + config.guard_length + symbol.size
        )
        guard = frame[config.preamble_length: config.preamble_length
                      + config.guard_length]
        assert np.allclose(guard, 0.0)

    def test_assemble_rejects_wrong_preamble_length(self, config):
        with pytest.raises(ModemError):
            assemble_frame(config, np.zeros(100), np.zeros(500))
