"""Transmitter/receiver chain tests: loopback, sync, equalization."""

import numpy as np
import pytest

from repro.config import ModemConfig
from repro.errors import DemodulationError, ModemError, PreambleNotFoundError
from repro.modem.bits import bit_error_rate, random_bits
from repro.modem.constellation import PSK8, QAM16, QASK, QPSK
from repro.modem.equalizer import (
    equalize_rows,
    estimate_channel_linear_rows,
    estimate_channel_magnitude_rows,
    estimate_channel_rows,
)
from repro.modem.frame import demodulate_block
from repro.modem.receiver import OfdmReceiver
from repro.modem.subchannels import ChannelPlan
from repro.modem.synchronizer import Synchronizer, fine_sync_offsets_rows
from repro.modem.transmitter import OfdmTransmitter


@pytest.fixture
def config():
    return ModemConfig()


@pytest.fixture
def plan(config):
    return ChannelPlan.from_config(config)


class TestTransmitter:
    def test_bits_per_symbol(self, config):
        tx = OfdmTransmitter(config, QPSK)
        assert tx.bits_per_symbol == 12 * 2

    def test_symbols_for_bits_rounds_up(self, config):
        tx = OfdmTransmitter(config, QPSK)
        assert tx.symbols_for_bits(24) == 1
        assert tx.symbols_for_bits(25) == 2

    def test_waveform_length_matches_layout(self, config):
        tx = OfdmTransmitter(config, QPSK)
        result = tx.modulate(random_bits(60, rng=0))
        assert result.waveform.size == result.layout.total_length
        assert result.layout.n_symbols == 3

    def test_padding_preserves_payload(self, config):
        tx = OfdmTransmitter(config, QPSK)
        bits = random_bits(30, rng=1)
        result = tx.modulate(bits)
        assert np.array_equal(result.padded_bits[:30], bits)
        assert np.all(result.padded_bits[30:] == 0)

    def test_rejects_empty_payload(self, config):
        tx = OfdmTransmitter(config, QPSK)
        with pytest.raises(ModemError):
            tx.modulate(np.zeros(0, dtype=np.uint8))

    @pytest.mark.parametrize(
        "payload",
        [[256, 1, 0, 1], [0.7, 1, 0, 1], [2, 0, 1, 1], [-1, 0, 1, 1]],
    )
    def test_rejects_payload_that_is_not_bits(self, config, payload):
        """A value outside {0, 1} is refused before the ``uint8`` cast
        could wrap 256 to 0, truncate 0.7 to 0 or index past the
        constellation."""
        tx = OfdmTransmitter(config, QPSK)
        with pytest.raises(ModemError, match="0 or 1"):
            tx.modulate(np.asarray(payload))
        with pytest.raises(ModemError, match="0 or 1"):
            tx.modulate_batch([np.array([0, 1, 0, 1]), np.asarray(payload)])

    def test_accepts_bool_and_float_bits(self, config):
        tx = OfdmTransmitter(config, QPSK)
        want = tx.modulate(np.array([0, 1, 1, 0], dtype=np.uint8)).waveform
        for bits in ([False, True, True, False], [0.0, 1.0, 1.0, 0.0]):
            assert np.array_equal(tx.modulate(np.asarray(bits)).waveform, want)

    def test_probe_waveform_has_layout(self, config):
        tx = OfdmTransmitter(config, QPSK)
        wave, layout = tx.probe_waveform(2)
        assert layout.n_symbols == 2
        assert wave.size == layout.total_length


class TestLoopback:
    @pytest.mark.parametrize(
        "constellation", [QASK, QPSK, PSK8, QAM16],
        ids=lambda c: c.name,
    )
    def test_clean_loopback_zero_ber(self, config, constellation):
        tx = OfdmTransmitter(config, constellation)
        rx = OfdmReceiver(config, constellation)
        bits = random_bits(96, rng=2)
        result = tx.modulate(bits)
        out = rx.receive(result.waveform, expected_bits=96)
        assert bit_error_rate(bits, out.bits) == 0.0

    def test_loopback_with_offset_and_noise(self, config, rng):
        tx = OfdmTransmitter(config, QPSK)
        rx = OfdmReceiver(config, QPSK)
        bits = random_bits(48, rng=3)
        wave = tx.modulate(bits).waveform
        recording = np.concatenate(
            [np.zeros(3000), wave, np.zeros(1000)]
        ) + 1e-4 * rng.standard_normal(4000 + wave.size)
        out = rx.receive(recording, expected_bits=48)
        assert bit_error_rate(bits, out.bits) == 0.0
        assert out.preamble_score > 0.9

    def test_loopback_through_quiet_channel(self, config, quiet_link, rng):
        tx = OfdmTransmitter(config, QPSK)
        rx = OfdmReceiver(config, QPSK)
        bits = random_bits(96, rng=4)
        wave = tx.modulate(bits).waveform
        recording, _ = quiet_link.transmit(wave, tx_spl=70.0, rng=rng)
        out = rx.receive(recording, expected_bits=96)
        assert bit_error_rate(bits, out.bits) <= 0.02

    def test_receiver_reports_high_psnr_on_clean_signal(self, config):
        tx = OfdmTransmitter(config, QPSK)
        rx = OfdmReceiver(config, QPSK)
        bits = random_bits(48, rng=5)
        out = rx.receive(tx.modulate(bits).waveform, expected_bits=48)
        assert out.psnr_db > 30.0

    def test_near_ultrasound_band_loopback(self):
        config = ModemConfig().near_ultrasound()
        tx = OfdmTransmitter(config, QPSK)
        rx = OfdmReceiver(config, QPSK)
        bits = random_bits(48, rng=6)
        out = rx.receive(tx.modulate(bits).waveform, expected_bits=48)
        assert bit_error_rate(bits, out.bits) == 0.0

    def test_receive_raises_without_preamble(self, config, rng):
        # Over a long noise recording, random NCC peaks can reach ~0.25,
        # so a strict receiver threshold is needed to refuse noise (the
        # deployed system additionally gates on energy first).
        rx = OfdmReceiver(config, QPSK, detection_threshold=0.5)
        with pytest.raises(PreambleNotFoundError):
            rx.receive(0.001 * rng.standard_normal(20000), expected_bits=24)



def _one_anchor(signal, cp_start, config, search_range):
    """One-row, one-anchor call of the fine-sync kernel."""
    rows = fine_sync_offsets_rows(
        np.asarray(signal)[None, :], [[cp_start]], config, search_range
    )
    return int(rows[0, 0])


class TestFineSync:
    def test_finds_injected_offset(self, config, plan):
        tx = OfdmTransmitter(config, QPSK)
        result = tx.modulate(random_bits(24, rng=7))
        wave = result.waveform
        cp_start = result.layout.first_symbol_offset
        # Perfect alignment: offset 0 must win.
        assert _one_anchor(wave, cp_start, config, 8) == 0
        # Shift the nominal position by +5: search should recover -5.
        assert _one_anchor(wave, cp_start + 5, config, 8) == -5

    def test_zero_cp_returns_zero(self, plan):
        config = ModemConfig(cp_length=0)
        assert _one_anchor(np.zeros(1000), 100, config, 8) == 0

    def test_synchronizer_extracts_all_bodies(self, config):
        tx = OfdmTransmitter(config, QPSK)
        result = tx.modulate(random_bits(72, rng=8))
        sync = Synchronizer(config)
        match = sync.locate(result.waveform)
        bodies, offsets = sync.extract_bodies(
            result.waveform, match, result.layout
        )
        assert bodies.shape == (3, config.fft_size)
        assert len(offsets) == 3


def _at_bin(estimate, k):
    """Row 0 of a one-row estimate at bin ``k``."""
    return estimate.response[0, k - estimate.band_start]


def _equalized(spectrum, plan, estimate):
    """``{data bin: equalized symbol}`` of one spectrum."""
    row = equalize_rows(spectrum[None, :], plan, estimate)[0]
    return dict(zip(sorted(plan.data), row))


class TestEqualizer:
    """One-row calls of the ``*_rows`` estimators and ``equalize_rows``."""

    def _spectrum_with_channel(self, config, plan, gain):
        """Build a received spectrum: unit pilots through channel `gain`."""
        spectrum = np.zeros(config.fft_size, dtype=complex)
        for k in plan.pilots:
            spectrum[k] = gain(k)
        for k in plan.data:
            spectrum[k] = gain(k) * (0.7 + 0.7j)
        return spectrum

    def test_flat_channel_recovered(self, config, plan):
        spectrum = self._spectrum_with_channel(
            config, plan, lambda k: 0.5 * np.exp(1j * 0.3)
        )
        est = estimate_channel_rows(spectrum[None, :], plan)
        eq = _equalized(spectrum, plan, est)
        for k in plan.data:
            assert eq[k] == pytest.approx(0.7 + 0.7j, abs=1e-9)

    def test_smooth_channel_recovered(self, config, plan):
        gain = lambda k: (0.4 + 0.01 * k) * np.exp(1j * 0.02 * k)
        spectrum = self._spectrum_with_channel(config, plan, gain)
        est = estimate_channel_rows(spectrum[None, :], plan)
        eq = _equalized(spectrum, plan, est)
        for k in plan.data:
            assert eq[k] == pytest.approx(0.7 + 0.7j, abs=0.05)

    def test_pilots_pinned_exactly(self, config, plan):
        gain = lambda k: (0.3 + 0.02 * k) * np.exp(1j * 0.05 * k)
        spectrum = self._spectrum_with_channel(config, plan, gain)
        est = estimate_channel_rows(spectrum[None, :], plan)
        for k in plan.pilots:
            assert _at_bin(est, k) == spectrum[k]

    def test_magnitude_estimate_is_real_positive(self, config, plan):
        gain = lambda k: 0.5 * np.exp(1j * np.sin(k))  # wild phase
        spectrum = self._spectrum_with_channel(config, plan, gain)
        est = estimate_channel_magnitude_rows(spectrum[None, :], plan)
        assert np.all(est.response.imag == 0.0)
        assert np.all(est.response.real > 0.0)
        # Magnitude tracked despite the wild phase.
        for k in plan.data:
            assert abs(_at_bin(est, k)) == pytest.approx(0.5, abs=0.05)

    def test_linear_estimate_interpolates(self, config, plan):
        gain = lambda k: 0.2 + 0.01 * k
        spectrum = self._spectrum_with_channel(config, plan, gain)
        est = estimate_channel_linear_rows(spectrum[None, :], plan)
        for k in plan.data:
            assert _at_bin(est, k).real == pytest.approx(gain(k), abs=1e-9)

    def test_at_bin_out_of_band_raises(self, config, plan):
        """A data bin outside the estimated band is refused by
        ``equalize_rows``."""
        spectrum = self._spectrum_with_channel(config, plan, lambda k: 1.0)
        est = estimate_channel_rows(spectrum[None, :], plan)
        narrow = type(est)(est.band_start, est.response[:, :1])
        with pytest.raises(DemodulationError, match="outside estimated band"):
            equalize_rows(spectrum[None, :], plan, narrow)

    @pytest.mark.parametrize(
        "estimator",
        [
            estimate_channel_rows,
            estimate_channel_magnitude_rows,
            estimate_channel_linear_rows,
        ],
    )
    def test_estimators_reject_spectra_narrower_than_the_fft(
        self, config, plan, estimator
    ):
        spectrum = self._spectrum_with_channel(config, plan, lambda k: 1.0)
        for bad in (spectrum[None, :10], spectrum[None, :-1], spectrum):
            with pytest.raises(DemodulationError, match="fft_size"):
                estimator(bad, plan)
