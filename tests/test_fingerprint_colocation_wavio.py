"""Tests for hardware fingerprinting, ambient co-location, WAV I/O."""

import numpy as np
import pytest

from repro.channel.hardware import SpeakerModel
from repro.channel.link import AcousticLink
from repro.channel.scenarios import get_environment
from repro.config import ModemConfig
from repro.core.colocation import AmbientComparator
from repro.errors import ModemError, SecurityError, WearLockError
from repro.modem.subchannels import ChannelPlan
from repro.modem.wavio import read_wav, write_wav
from repro.security.attacks import RelayAttacker
from repro.security.fingerprint import (
    HardwareFingerprint,
    phase_signature,
    probe_spectrum,
    signature_distance,
)


@pytest.fixture
def config():
    return ModemConfig()


@pytest.fixture
def plan(config):
    return ChannelPlan.from_config(config)


class TestPhaseSignature:
    def test_bulk_delay_invariance(self, config, plan):
        spectrum = probe_spectrum(config, 1)
        # A pure delay multiplies bin k by exp(-2πi k d / N).
        k = np.arange(config.fft_size)
        delayed = spectrum * np.exp(-2j * np.pi * k * 3.0 / config.fft_size)
        a = phase_signature(spectrum, plan)
        b = phase_signature(delayed, plan)
        assert signature_distance(a, b) < 0.05

    def test_distance_zero_for_identical(self, plan, config):
        s = probe_spectrum(config, 2)
        sig = phase_signature(s, plan)
        assert signature_distance(sig, sig) == 0.0

    def test_rejects_short_spectrum(self, plan):
        with pytest.raises(SecurityError):
            phase_signature(np.zeros(8, dtype=complex), plan)

    def test_rejects_mismatched_signatures(self):
        with pytest.raises(SecurityError):
            signature_distance(np.zeros(3), np.zeros(4))


class TestHardwareFingerprint:
    def test_genuine_device_verifies(self, config, plan):
        enroll = [probe_spectrum(config, s) for s in range(4)]
        fp = HardwareFingerprint.enroll(enroll, plan)
        ok, distance = fp.verify(probe_spectrum(config, 20), plan)
        assert ok
        assert distance < 0.05

    def test_relay_detected(self, config, plan):
        enroll = [probe_spectrum(config, s) for s in range(4)]
        fp = HardwareFingerprint.enroll(enroll, plan)
        relay = RelayAttacker(extra_phase_ripple_rad=0.6)
        ok, distance = fp.verify(
            probe_spectrum(
                config,
                21,
                distort=lambda r: relay.distort(r, config.sample_rate),
            ),
            plan,
        )
        assert not ok
        assert distance > 0.08

    def test_different_speaker_detected(self, config, plan):
        """A different physical device (another phase ripple) fails."""
        enroll = [probe_spectrum(config, s) for s in range(4)]
        fp = HardwareFingerprint.enroll(enroll, plan)
        other = SpeakerModel(device_seed=999)
        ok, distance = fp.verify(
            probe_spectrum(config, 22, speaker=other), plan
        )
        assert not ok

    def test_enroll_rejects_empty(self, plan):
        with pytest.raises(SecurityError):
            HardwareFingerprint.enroll([], plan)


class TestAmbientComparator:
    def test_same_scene_co_located(self, rng):
        env = get_environment("cafe")
        link = AcousticLink(room=env.room, noise=env.noise, seed=1)
        a = link.record_ambient(0.3, rng=rng)
        b = link.record_ambient(0.3, rng=rng)
        comparator = AmbientComparator()
        decided, score = comparator.co_located(a, b)
        assert decided
        assert score > 0.5

    def test_different_scenes_less_similar(self, rng):
        cafe = get_environment("cafe")
        quiet = get_environment("quiet_room")
        a = AcousticLink(
            room=cafe.room, noise=cafe.noise, seed=2
        ).record_ambient(0.3, rng=rng)
        b = AcousticLink(
            room=quiet.room, noise=quiet.noise, seed=3
        ).record_ambient(0.3, rng=rng)
        c = AcousticLink(
            room=cafe.room, noise=cafe.noise, seed=4
        ).record_ambient(0.3, rng=rng)
        comparator = AmbientComparator()
        assert comparator.similarity(a, c) > comparator.similarity(a, b)

    def test_rejects_tiny_recording(self):
        comparator = AmbientComparator()
        with pytest.raises(WearLockError):
            comparator.band_profile_batch(np.zeros((1, 10)))

    def test_rejects_bad_band(self):
        with pytest.raises(WearLockError):
            AmbientComparator(low_hz=5000.0, high_hz=100.0)

    @pytest.mark.parametrize("rows_a, rows_b", [(3, 2), (2, 3)])
    def test_similarity_batch_rejects_unequal_row_counts(
        self, rows_a, rows_b
    ):
        rng = np.random.default_rng(0)
        comparator = AmbientComparator()
        with pytest.raises(WearLockError, match="same number of rows"):
            comparator.similarity_batch(
                rng.standard_normal((rows_a, 2048)),
                rng.standard_normal((rows_b, 2048)),
            )


class TestWavIo:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "frame.wav"
        wave = np.sin(2 * np.pi * 1000 * np.arange(4410) / 44100.0)
        write_wav(path, wave, 44100.0)
        recovered, rate = read_wav(path)
        assert rate == 44100.0
        assert recovered.size == wave.size
        assert np.corrcoef(wave, recovered)[0, 1] > 0.9999

    def test_normalization_to_peak(self, tmp_path):
        path = tmp_path / "loud.wav"
        write_wav(path, 100.0 * np.sin(np.linspace(0, 50, 1000)), peak=0.5)
        recovered, _ = read_wav(path)
        assert np.max(np.abs(recovered)) == pytest.approx(0.5, abs=0.01)

    def test_modem_frame_survives_wav(self, tmp_path):
        from repro.modem.bits import bit_error_rate, random_bits
        from repro.modem.constellation import QPSK
        from repro.modem.receiver import OfdmReceiver
        from repro.modem.transmitter import OfdmTransmitter

        config = ModemConfig()
        tx = OfdmTransmitter(config, QPSK)
        rx = OfdmReceiver(config, QPSK)
        bits = random_bits(96, rng=11)
        path = tmp_path / "modem.wav"
        write_wav(path, tx.modulate(bits).waveform, config.sample_rate)
        samples, _ = read_wav(path)
        out = rx.receive(samples, expected_bits=96)
        assert bit_error_rate(bits, out.bits) == 0.0

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ModemError):
            write_wav(tmp_path / "x.wav", np.zeros(0))


class TestCli:
    def test_info(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "44100" in out
        assert "grocery_store" in out

    def test_unlock(self, capsys):
        from repro.cli import main

        rc = main([
            "unlock", "--environment", "office",
            "--distance", "0.4", "--seed", "77",
        ])
        out = capsys.readouterr().out
        assert "unlocked:" in out
        assert rc in (0, 1)

    def test_encode_decode_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        wav = tmp_path / "payload.wav"
        assert main(["encode", "deadbeef", str(wav)]) == 0
        capsys.readouterr()
        assert main(["decode", str(wav), "--bits", "32"]) == 0
        out = capsys.readouterr().out.strip().splitlines()[0]
        assert out == "deadbeef"

    def test_experiment_json(self, capsys):
        from repro.cli import main

        assert main(["experiment", "fig11"]) == 0
        out = capsys.readouterr().out
        assert "bluetooth" in out

    def test_unknown_experiment(self, capsys):
        from repro.cli import main

        assert main(["experiment", "fig99"]) == 2
