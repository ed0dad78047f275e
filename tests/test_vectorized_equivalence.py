"""Golden equivalence: vectorized modem vs the frozen sequential reference.

The signal-plane refactor batched the per-symbol transmit and receive
paths (stacked FFTs, batched pilot estimation/equalization).  These
tests pin the refactor's contract: under fixed seeds, every observable
output — bits, waveforms, pilot SNR, Eb/N0, fine-sync offsets, delay
profiles, equalized symbols — is **bit-identical** (``==``, not
``approx``) to the pre-refactor implementation preserved verbatim in
``tests/modem_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.link import AcousticLink
from repro.channel.scenarios import get_environment
from repro.config import ModemConfig
from repro.modem import (
    OfdmReceiver,
    OfdmTransmitter,
    get_constellation,
)
from repro.modem.bits import random_bits
from repro.modem import synchronizer
from repro.modem.synchronizer import fine_sync_offsets_rows
from tests.modem_oracle import (
    reference_fine_sync_offset,
    reference_modulate,
    reference_receive,
)

MODES = ("QASK", "QPSK", "8PSK")
EQUALIZERS = (False, True)  # linear_equalizer ablation flag


def _fixed_recording(config, constellation, seed):
    """One deterministic transmit → channel → recording round trip."""
    bits = random_bits(240, rng=np.random.default_rng(seed))
    tx = OfdmTransmitter(config, constellation)
    modulated = tx.modulate(bits)
    env = get_environment("quiet_room")
    link = AcousticLink(
        room=env.room, noise=env.noise, distance_m=0.3, seed=seed
    )
    recording, _ = link.transmit(
        modulated.waveform, tx_spl=72.0, rng=np.random.default_rng(seed)
    )
    return bits, modulated, recording


class TestTransmitEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("hermitian", (False, True))
    def test_waveform_bit_identical(self, modem_config, mode, hermitian):
        constellation = get_constellation(mode)
        bits = random_bits(240, rng=np.random.default_rng(99))
        ref = reference_modulate(
            modem_config, constellation, bits, hermitian=hermitian
        )
        tx = OfdmTransmitter(
            modem_config, constellation, hermitian=hermitian
        )
        new = tx.modulate(bits)
        assert np.array_equal(ref.waveform, new.waveform)
        assert np.array_equal(ref.padded_bits, new.padded_bits)
        assert ref.n_payload_bits == new.n_payload_bits

    @pytest.mark.parametrize("mode", MODES)
    def test_single_symbol_payload(self, modem_config, mode):
        constellation = get_constellation(mode)
        tx = OfdmTransmitter(modem_config, constellation)
        bits = random_bits(
            tx.bits_per_symbol, rng=np.random.default_rng(5)
        )
        ref = reference_modulate(modem_config, constellation, bits)
        assert np.array_equal(ref.waveform, tx.modulate(bits).waveform)


class TestReceiveEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("linear_eq", EQUALIZERS)
    def test_receive_bit_identical(self, modem_config, mode, linear_eq):
        constellation = get_constellation(mode)
        _, _, recording = _fixed_recording(modem_config, constellation, 42)
        ref = reference_receive(
            modem_config,
            constellation,
            recording,
            240,
            linear_equalizer=linear_eq,
        )
        rx = OfdmReceiver(
            modem_config, constellation, linear_equalizer=linear_eq
        )
        new = rx.receive(recording, expected_bits=240)

        assert np.array_equal(ref.bits, new.bits)
        assert ref.psnr_db == new.psnr_db
        assert ref.ebn0_db == new.ebn0_db
        assert ref.preamble_score == new.preamble_score
        assert ref.fine_offsets == new.fine_offsets
        assert ref.noise_spl == new.noise_spl
        assert np.array_equal(ref.delay_profile, new.delay_profile)
        assert np.array_equal(
            ref.equalized_symbols, new.equalized_symbols
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_fine_sync_disabled(self, modem_config, mode):
        constellation = get_constellation(mode)
        _, _, recording = _fixed_recording(modem_config, constellation, 17)
        ref = reference_receive(
            modem_config, constellation, recording, 240, fine_sync=False
        )
        rx = OfdmReceiver(modem_config, constellation, fine_sync=False)
        new = rx.receive(recording, expected_bits=240)
        assert np.array_equal(ref.bits, new.bits)
        assert ref.psnr_db == new.psnr_db
        assert ref.fine_offsets == new.fine_offsets

    def test_multiple_seeds_end_to_end(self, modem_config):
        constellation = get_constellation("QPSK")
        for seed in (1, 2, 3, 11):
            _, _, recording = _fixed_recording(
                modem_config, constellation, seed
            )
            ref = reference_receive(
                modem_config, constellation, recording, 240
            )
            new = OfdmReceiver(modem_config, constellation).receive(
                recording, 240
            )
            assert np.array_equal(ref.bits, new.bits), seed
            assert ref.psnr_db == new.psnr_db, seed


def _one_row(x, cp_start, config):
    """The fine-sync kernel called on one signal with one anchor."""
    return int(fine_sync_offsets_rows(x[None, :], [[cp_start]], config)[0, 0])


class TestFineSyncEquivalence:
    """The one banded fine-sync kernel must reproduce the scalar loop
    exactly, called with one row or many."""

    def test_fuzz_against_reference(self, modem_config):
        rng = np.random.default_rng(2024)
        n = modem_config.fft_size + modem_config.cp_length
        signals, anchors, wants = [], [], []
        for trial in range(50):
            x = rng.standard_normal(6 * n)
            # Plant a genuine CP structure at a random spot so the
            # search has something to lock onto.
            body = rng.standard_normal(modem_config.fft_size)
            start = int(rng.integers(2 * n, 3 * n))
            cp = body[-modem_config.cp_length:]
            x[start: start + cp.size] += 3.0 * cp
            x[start + cp.size: start + cp.size + body.size] += 3.0 * body
            # The last two anchors sit within the search range of either
            # end, so the signal clips part of their candidate window.
            starts = (start - 5, start, start + 7, 3, x.size - n - 10)
            want = [
                reference_fine_sync_offset(x, s, modem_config)
                for s in starts
            ]
            for cp_start, w in zip(starts, want):
                assert _one_row(x, cp_start, modem_config) == w, (
                    trial, cp_start,
                )
            signals.append(x)
            anchors.append(starts)
            wants.append(want)
        many = fine_sync_offsets_rows(
            np.stack(signals), np.array(anchors), modem_config
        )
        assert many.tolist() == wants

    def test_edges_match_reference(self, modem_config):
        rng = np.random.default_rng(7)
        n = modem_config.fft_size + modem_config.cp_length
        x = rng.standard_normal(3 * n)
        cp_starts = (-100, 0, 5, x.size - n, x.size + 50)
        row = fine_sync_offsets_rows(x[None, :], [cp_starts], modem_config)
        for cp_start, got in zip(cp_starts, row[0]):
            assert got == reference_fine_sync_offset(
                x, cp_start, modem_config
            ), cp_start

    def test_all_zero_signal(self, modem_config):
        x = np.zeros(4 * (modem_config.fft_size + modem_config.cp_length))
        assert _one_row(x, 100, modem_config) == 0
        assert reference_fine_sync_offset(x, 100, modem_config) == 0

    def test_silent_row_nominates_no_candidate(
        self, modem_config, monkeypatch
    ):
        """Windows without energy never enter the nomination band, so a
        silent row makes no exact re-score at all."""
        calls = []
        exact = synchronizer._select_exact

        def counted(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(synchronizer, "_select_exact", counted)
        n = modem_config.fft_size + modem_config.cp_length
        x = np.zeros((1, 8 * n))
        anchors = [[n, 2 * n, 3 * n, 4 * n]]
        out = fine_sync_offsets_rows(x, anchors, modem_config, 24)
        assert out.tolist() == [[0, 0, 0, 0]]
        assert calls == []

    def test_batch_matches_scalar(self, modem_config):
        """A many-row call equals its one-row calls and the loop."""
        rng = np.random.default_rng(31)
        n = modem_config.fft_size + modem_config.cp_length
        xs = rng.standard_normal((3, 8 * n))
        xs[1, : 4 * n] = 0.0  # half-silent row
        # An FFT-periodic row: every candidate's head equals its tail up
        # to rounding, so wide bands go to the exact re-score.
        t = np.arange(8 * n) / modem_config.fft_size
        xs[2] = np.sin(2 * np.pi * 5 * t)
        cp_starts = [-50, 0, n, 2 * n + 3, 5 * n, xs.shape[1] - n,
                     xs.shape[1]]
        batch = fine_sync_offsets_rows(
            xs, [cp_starts] * 3, modem_config
        )
        for r, x in enumerate(xs):
            one_row = fine_sync_offsets_rows(
                x[None, :], [cp_starts], modem_config
            )
            assert np.array_equal(one_row[0], batch[r])
            for start, got in zip(cp_starts, batch[r]):
                assert got == reference_fine_sync_offset(
                    x, start, modem_config
                ), (r, start)
