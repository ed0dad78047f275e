"""Tests for RMS/SPL conversions and the energy detector."""

import numpy as np
import pytest

from repro.dsp.energy import (
    P_REF,
    EnergyDetector,
    amplitude_to_spl,
    db,
    from_db,
    rms,
    signal_spl,
    spl_to_amplitude,
)
from repro.errors import DspError


class TestConversions:
    def test_rms_of_constant(self):
        assert rms(np.full(100, 0.5)) == pytest.approx(0.5)

    def test_rms_of_sine(self):
        x = np.sin(np.linspace(0, 200 * np.pi, 100_000))
        assert rms(x) == pytest.approx(1 / np.sqrt(2), rel=1e-3)

    def test_rms_empty_is_zero(self):
        assert rms(np.zeros(0)) == 0.0

    def test_spl_roundtrip(self):
        for spl in (0.0, 20.0, 60.0, 94.0):
            assert amplitude_to_spl(spl_to_amplitude(spl)) == pytest.approx(spl)

    def test_reference_is_zero_spl(self):
        assert amplitude_to_spl(P_REF) == pytest.approx(0.0)

    def test_full_scale_is_about_94_spl(self):
        assert amplitude_to_spl(1.0) == pytest.approx(93.98, abs=0.01)

    def test_db_roundtrip(self):
        assert from_db(db(0.25)) == pytest.approx(0.25)

    def test_db_of_nonpositive_is_neg_inf(self):
        assert db(0.0) == -np.inf

    def test_six_db_per_doubling(self):
        assert db(2.0) == pytest.approx(6.0206, abs=1e-3)

    def test_signal_spl_matches_rms_conversion(self):
        x = np.full(1000, spl_to_amplitude(40.0))
        assert signal_spl(x) == pytest.approx(40.0)


class TestEnergyDetector:
    def _burst(self, spl, start, length, total, fs_scale=1.0):
        x = np.zeros(total)
        rng = np.random.default_rng(0)
        x[start: start + length] = spl_to_amplitude(spl) * np.sqrt(2) * np.sin(
            np.linspace(0, 50 * np.pi, length)
        )
        return x

    def test_detects_loud_burst(self):
        x = self._burst(60.0, 1000, 2000, 5000)
        det = EnergyDetector(frame_size=256, threshold_spl=40.0)
        regions = det.active_regions(x)
        assert len(regions) == 1
        start, end = regions[0]
        assert start <= 1000 < end
        assert end >= 3000 - 256

    def test_silence_is_silent(self):
        det = EnergyDetector(threshold_spl=30.0)
        assert det.active_regions(np.zeros(5000)) == []

    def test_quiet_signal_below_threshold(self):
        x = self._burst(20.0, 0, 5000, 5000)
        det = EnergyDetector(threshold_spl=40.0)
        assert det.active_regions(x) == []

    def test_hangover_merges_brief_gaps(self):
        x = np.concatenate(
            [
                self._burst(60.0, 0, 1024, 1024),
                np.zeros(256),
                self._burst(60.0, 0, 1024, 1024),
            ]
        )
        det = EnergyDetector(
            frame_size=256, threshold_spl=40.0, hangover_frames=2
        )
        assert len(det.active_regions(x)) == 1

    def test_frame_spl_length(self):
        det = EnergyDetector(frame_size=100)
        assert det.frame_spl(np.zeros(1000)).size == 10
        assert det.frame_spl(np.zeros(1050)).size == 11

    def test_rejects_bad_frame_size(self):
        with pytest.raises(DspError):
            EnergyDetector(frame_size=0)
