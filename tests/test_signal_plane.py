"""Tests for the signal plane: keyed caches, shared templates, guards."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.config import ModemConfig
from repro.dsp.energy import SILENCE_FLOOR_SPL_DB
from repro.dsp.fftops import goertzel_power
from repro.dsp.plane import CacheStats, KeyedCache, all_cache_stats
from repro.errors import DspError
from repro.modem import (
    OfdmReceiver,
    OfdmTransmitter,
    get_constellation,
    signal_plane,
)
from repro.modem.bits import random_bits
from repro.modem.context import SignalPlane, plane_cache_stats
import repro.modem.receiver as receiver_module


class TestKeyedCache:
    def test_hit_miss_accounting(self):
        cache = KeyedCache("test.hitmiss", maxsize=8)
        builds = []
        assert cache.get("a", lambda: builds.append(1) or 1) == 1
        assert cache.get("a", lambda: builds.append(1) or 2) == 1
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.size == 1
        assert len(builds) == 1

    def test_lru_eviction(self):
        cache = KeyedCache("test.lru", maxsize=2)
        cache.get("a", lambda: "A")
        cache.get("b", lambda: "B")
        cache.get("a", lambda: "A2")  # refresh "a"
        cache.get("c", lambda: "C")  # evicts "b", the least recent
        assert len(cache) == 2
        assert cache.get("a", lambda: "A3") == "A"
        rebuilt = cache.get("b", lambda: "B2")
        assert rebuilt == "B2"

    def test_rejects_bad_maxsize(self):
        with pytest.raises(DspError):
            KeyedCache("test.bad", maxsize=0)

    def test_thread_safety_single_identity(self):
        cache = KeyedCache("test.threads", maxsize=4)
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(50):
                results.append(cache.get("k", lambda: object()))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # First insert wins: every caller saw the same object.
        assert len({id(r) for r in results}) == 1
        stats = cache.stats()
        assert stats.hits + stats.misses == len(results)

    def test_registry_lists_cache(self):
        KeyedCache("test.registry.entry", maxsize=4)
        names = set(all_cache_stats())
        assert "test.registry.entry" in names
        assert "modem.signal_plane" in names


class TestSignalPlane:
    def test_identity_shared_across_lookups(self, modem_config):
        con = get_constellation("QPSK")
        a = signal_plane(modem_config, None, con)
        b = signal_plane(modem_config, None, con)
        assert a is b

    def test_distinct_constellations_distinct_planes(self, modem_config):
        a = signal_plane(modem_config, None, get_constellation("QPSK"))
        b = signal_plane(modem_config, None, get_constellation("8PSK"))
        assert a is not b

    def test_arrays_are_readonly(self, modem_config):
        plane = signal_plane(modem_config, None, get_constellation("QPSK"))
        for arr in (plane.preamble, plane.data_bins, plane.pilot_bins,
                    plane.points):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_build_matches_legacy_values(self, modem_config, plan):
        con = get_constellation("QPSK")
        plane = SignalPlane.build(modem_config, plan, con)
        assert list(plane.data_bins) == sorted(plan.data)
        assert list(plane.pilot_bins) == list(plan.pilots)
        assert plane.quiet_nulls == plan.quiet_null_channels(min_distance=2)
        sorted_pilots = sorted(plan.pilots)
        assert plane.band_start == sorted_pilots[0]
        assert plane.band_len == sorted_pilots[-1] - sorted_pilots[0] + 1

    def test_shared_through_tx_rx(self, modem_config):
        con = get_constellation("QPSK")
        plane = signal_plane(modem_config, None, con)
        tx = OfdmTransmitter(plane=plane)
        rx = OfdmReceiver(plane=plane)
        assert tx.config is plane.config
        assert rx.plan is plane.plan
        before = plane_cache_stats()
        OfdmTransmitter(modem_config, con)
        after = plane_cache_stats()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses


class TestReceiverConstruction:
    def test_single_synchronizer_with_threshold(
        self, modem_config, monkeypatch
    ):
        """Regression: a custom detection_threshold used to construct the
        Synchronizer (and its detector stack) twice."""
        sync_calls = []
        detector_calls = []
        real_sync = receiver_module.Synchronizer
        real_detector = receiver_module.PreambleDetector

        def counting_sync(*args, **kwargs):
            sync_calls.append(1)
            return real_sync(*args, **kwargs)

        def counting_detector(*args, **kwargs):
            detector_calls.append(1)
            return real_detector(*args, **kwargs)

        monkeypatch.setattr(receiver_module, "Synchronizer", counting_sync)
        monkeypatch.setattr(
            receiver_module, "PreambleDetector", counting_detector
        )
        rx = OfdmReceiver(
            modem_config,
            get_constellation("QPSK"),
            detection_threshold=0.2,
        )
        assert len(sync_calls) == 1
        assert len(detector_calls) == 1
        assert rx._sync.detector.threshold == 0.2

    def test_default_threshold_reuses_plane_detector(self, modem_config):
        con = get_constellation("QPSK")
        plane = signal_plane(modem_config, None, con)
        rx = OfdmReceiver(plane=plane)
        assert rx._sync.detector is plane.detector


class TestNoiseFloorGuard:
    def test_no_leading_silence_gives_finite_noise_spl(self, modem_config):
        """A recording that starts right at the preamble has no ambient
        slice; the receiver must report the finite silence floor, never
        -inf (which poisoned downstream SNR arithmetic with NaNs)."""
        con = get_constellation("QPSK")
        tx = OfdmTransmitter(modem_config, con)
        bits = random_bits(240, rng=np.random.default_rng(3))
        waveform = tx.modulate(bits).waveform
        rx = OfdmReceiver(modem_config, con)
        result = rx.receive(waveform, expected_bits=240)
        assert np.isfinite(result.noise_spl)
        assert result.noise_spl == SILENCE_FLOOR_SPL_DB
        # The guard's purpose: SNR arithmetic stays NaN-free.
        assert not np.isnan(result.noise_spl - result.psnr_db)

    def test_all_zero_ambient_clamped(self, modem_config):
        """A digitally silent (all-zero) ambient slice has -inf SPL;
        the guard clamps it to the same finite floor."""
        con = get_constellation("QPSK")
        tx = OfdmTransmitter(modem_config, con)
        bits = random_bits(240, rng=np.random.default_rng(4))
        waveform = tx.modulate(bits).waveform
        recording = np.concatenate([np.zeros(4000), waveform])
        rx = OfdmReceiver(modem_config, con)
        result = rx.receive(recording, expected_bits=240)
        assert np.isfinite(result.noise_spl)
        assert result.noise_spl == SILENCE_FLOOR_SPL_DB


class TestGoertzel:
    def test_matches_fft_bin(self):
        rng = np.random.default_rng(11)
        fs = 44_100.0
        n = 512
        x = rng.standard_normal(n)
        spectrum = np.fft.fft(x)
        for k in (3, 17, 100):
            freq = k * fs / n
            expected = float(np.abs(spectrum[k]) ** 2) / (n * n)
            assert goertzel_power(x, fs, freq) == pytest.approx(
                expected, rel=1e-9
            )

    def test_pure_tone_peak(self):
        fs = 44_100.0
        n = 1024
        t = np.arange(n) / fs
        freq = 20 * fs / n
        x = np.sin(2 * np.pi * freq * t)
        on_bin = goertzel_power(x, fs, freq)
        off_bin = goertzel_power(x, fs, freq * 2.0)
        assert on_bin > 100.0 * off_bin
