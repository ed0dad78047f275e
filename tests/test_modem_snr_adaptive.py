"""Tests for SNR estimation and adaptive modulation."""

import numpy as np
import pytest

from repro.config import ModemConfig
from repro.errors import ModemError
from repro.modem.adaptive import (
    AdaptiveModulator,
    BerModel,
    TRANSMISSION_MODES,
)
from repro.modem.constellation import QPSK, get_constellation
from repro.modem.snr import (
    data_rate,
    ebn0_db_from_psnr,
    occupied_bandwidth,
    pilot_snr_db_rows,
    pilot_snr_linear_rows,
)
from repro.modem.subchannels import ChannelPlan


@pytest.fixture
def config():
    return ModemConfig()


@pytest.fixture
def plan(config):
    return ChannelPlan.from_config(config)


def pilot_snr_linear(spectrum, plan):
    """One-row call of :func:`pilot_snr_linear_rows`."""
    return float(pilot_snr_linear_rows(spectrum[None, :], plan)[0])


def pilot_snr_db(spectrum, plan):
    """One-row call of :func:`pilot_snr_db_rows`."""
    return float(pilot_snr_db_rows(spectrum[None, :], plan)[0])


class TestPilotSnr:
    def _spectrum(self, config, plan, pilot_amp, noise_amp, rng):
        spectrum = noise_amp * (
            rng.standard_normal(config.fft_size)
            + 1j * rng.standard_normal(config.fft_size)
        )
        for k in plan.pilots:
            spectrum[k] += pilot_amp
        return spectrum

    def test_estimates_known_ratio(self, config, plan):
        rng = np.random.default_rng(0)
        # Per-bin noise power = 2 * noise_amp^2.
        noise_amp = 0.1
        pilot_amp = 10.0
        estimates = [
            pilot_snr_linear(
                self._spectrum(config, plan, pilot_amp, noise_amp, rng),
                plan,
            )
            for _ in range(50)
        ]
        expected = pilot_amp**2 / (2 * noise_amp**2)
        assert np.median(estimates) == pytest.approx(expected, rel=0.5)

    def test_zero_noise_returns_large_finite(self, config, plan):
        spectrum = np.zeros(config.fft_size, dtype=complex)
        for k in plan.pilots:
            spectrum[k] = 1.0
        assert pilot_snr_linear(spectrum, plan) == 1e12

    def test_noise_only_clamped_positive(self, config, plan):
        rng = np.random.default_rng(1)
        spectrum = rng.standard_normal(config.fft_size) + 0j
        assert pilot_snr_linear(spectrum, plan) >= 1e-12
        # Pilots weaker than the nulls: clamped to the floor, not negative.
        spectrum[list(plan.pilots)] = 0.0
        assert pilot_snr_linear(spectrum, plan) == 1e-12

    def test_db_conversion(self, config, plan):
        rng = np.random.default_rng(2)
        s = self._spectrum(config, plan, 10.0, 0.1, rng)
        assert pilot_snr_db(s, plan) == pytest.approx(
            10 * np.log10(pilot_snr_linear(s, plan))
        )


class TestRates:
    def test_data_rate_formula(self, config, plan):
        # R = |D| log2(M) / (Tg + Ts)
        r = data_rate(config, plan, QPSK)
        expected = 12 * 2 / config.symbol_duration
        assert r == pytest.approx(expected)

    def test_higher_order_higher_rate(self, config, plan):
        assert data_rate(config, plan, get_constellation("8PSK")) > data_rate(
            config, plan, QPSK
        )

    def test_coding_rate_scales(self, config, plan):
        assert data_rate(config, plan, QPSK, coding_rate=0.5) == pytest.approx(
            0.5 * data_rate(config, plan, QPSK)
        )

    def test_occupied_bandwidth(self, config, plan):
        assert occupied_bandwidth(config, plan) == pytest.approx(
            12 * config.subchannel_bandwidth
        )

    def test_ebn0_additive_correction(self, config, plan):
        psnr = 20.0
        e = ebn0_db_from_psnr(psnr, config, plan, QPSK)
        b = occupied_bandwidth(config, plan)
        r = data_rate(config, plan, QPSK)
        assert e == pytest.approx(psnr + 10 * np.log10(b / r))


class TestBerModel:
    def test_monotone_decreasing_in_ebn0(self):
        model = BerModel()
        for mode in TRANSMISSION_MODES:
            bers = [model.ber(mode, e) for e in range(0, 50, 5)]
            assert all(a >= b for a, b in zip(bers, bers[1:]))

    def test_floors_respected(self):
        model = BerModel()
        assert model.ber("8PSK", 80.0) == pytest.approx(model.floor("8PSK"))
        assert model.ber("16QAM", 80.0) == pytest.approx(model.floor("16QAM"))

    def test_8psk_floor_blocks_tight_maxber(self):
        model = BerModel()
        assert model.min_ebn0_db("8PSK", 0.01) == float("inf")

    def test_min_ebn0_is_inverse_of_ber(self):
        model = BerModel()
        for mode in ("QPSK", "QASK"):
            threshold = model.min_ebn0_db(mode, 0.05)
            assert model.ber(mode, threshold) <= 0.05 + 1e-6
            assert model.ber(mode, threshold - 1.0) > 0.05

    def test_ber_approaches_half_at_low_snr(self):
        model = BerModel()
        assert model.ber("QPSK", -30.0) == pytest.approx(0.5, abs=0.02)
        assert model.ber("QPSK", -80.0) == pytest.approx(0.5, abs=1e-4)

    def test_rejects_bad_maxber(self):
        with pytest.raises(ModemError):
            BerModel().min_ebn0_db("QPSK", 0.7)

    def test_unknown_mode_raises(self):
        with pytest.raises(ModemError):
            BerModel().ber("64APSK", 10.0)


class TestAdaptiveModulator:
    def test_deployed_modes(self):
        assert TRANSMISSION_MODES == ("8PSK", "QPSK", "QASK")

    def test_high_snr_picks_highest_order(self):
        mod = AdaptiveModulator()
        decision = mod.select(ebn0_db=40.0, max_ber=0.1)
        assert decision.mode == "8PSK"

    def test_tight_constraint_steps_down(self):
        mod = AdaptiveModulator()
        decision = mod.select(ebn0_db=40.0, max_ber=0.01)
        assert decision.mode == "QPSK"  # 8PSK floor exceeds 0.01

    def test_low_snr_infeasible(self):
        mod = AdaptiveModulator()
        decision = mod.select(ebn0_db=-20.0, max_ber=0.01)
        assert decision.mode is None
        assert not decision.feasible

    def test_constellation_for_feasible(self):
        mod = AdaptiveModulator()
        decision = mod.select(40.0, 0.1)
        assert mod.constellation_for(decision).name == "8PSK"

    def test_constellation_for_infeasible_raises(self):
        mod = AdaptiveModulator()
        decision = mod.select(-20.0, 0.01)
        with pytest.raises(ModemError):
            mod.constellation_for(decision)

    def test_eavesdropper_penalty(self):
        """A receiver further away (lower Eb/N0) sees a predicted BER
        above the in-range receiver's constraint — the security rationale
        for picking the highest-order feasible mode."""
        mod = AdaptiveModulator()
        decision = mod.select(ebn0_db=12.0, max_ber=0.1)
        assert decision.feasible
        in_range_ber = mod.model.ber(decision.mode, 12.0)
        # 2.5 m away ≈ 8 dB less SNR than 1 m.
        eavesdropper_ber = mod.model.ber(decision.mode, 12.0 - 8.0)
        assert eavesdropper_ber > 2.0 * in_range_ber

    def test_rejects_empty_modes(self):
        with pytest.raises(ModemError):
            AdaptiveModulator(modes=())
