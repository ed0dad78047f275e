"""Tests for channel coding: repetition, Hamming, convolutional."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModemError
from repro.modem.bits import bit_error_rate, random_bits
from repro.modem.coding import (
    BlockInterleaver,
    ConvolutionalCode,
    HammingCode,
    RepetitionCode,
    get_code,
)

ALL_CODES = [RepetitionCode(3), RepetitionCode(5), HammingCode(),
             ConvolutionalCode()]


class TestRoundtrips:
    @pytest.mark.parametrize(
        "code", ALL_CODES, ids=lambda c: type(c).__name__
    )
    def test_clean_roundtrip(self, code):
        bits = random_bits(120, rng=0)
        assert np.array_equal(code.decode(code.encode(bits), 120), bits)

    @pytest.mark.parametrize(
        "code", ALL_CODES, ids=lambda c: type(c).__name__
    )
    def test_rate_in_unit_interval(self, code):
        assert 0 < code.rate <= 1.0

    @pytest.mark.parametrize(
        "code", ALL_CODES, ids=lambda c: type(c).__name__
    )
    def test_rejects_non_binary(self, code):
        with pytest.raises(ModemError):
            code.encode(np.array([0, 1, 2]))


class TestRepetition:
    def test_corrects_minority_errors(self):
        code = RepetitionCode(5)
        bits = random_bits(40, rng=1)
        coded = code.encode(bits)
        rng = np.random.default_rng(2)
        corrupted = coded.copy()
        # Flip at most 2 of every 5 repeats.
        for i in range(bits.size):
            positions = rng.choice(5, size=2, replace=False)
            corrupted[i * 5 + positions] ^= 1
        assert np.array_equal(code.decode(corrupted, 40), bits)

    def test_rejects_even_factor(self):
        with pytest.raises(ModemError):
            RepetitionCode(4)

    def test_short_received_vector_padded(self):
        code = RepetitionCode(3)
        bits = np.array([1, 1], dtype=np.uint8)
        coded = code.encode(bits)[:4]  # truncated in flight
        decoded = code.decode(coded, 2)
        assert decoded.size == 2
        # The missing copies decode as zeros: 1 of 3 votes for bit 1.
        assert decoded.tolist() == [1, 0]


class TestHamming:
    def test_corrects_one_error_per_block(self):
        code = HammingCode()
        bits = random_bits(64, rng=3)
        coded = code.encode(bits)
        corrupted = coded.copy()
        # Flip exactly one bit in every 7-bit codeword.
        rng = np.random.default_rng(4)
        for block in range(coded.size // 7):
            corrupted[block * 7 + rng.integers(0, 7)] ^= 1
        assert np.array_equal(code.decode(corrupted, 64), bits)

    def test_two_errors_per_block_not_corrected(self):
        code = HammingCode()
        bits = np.zeros(4, dtype=np.uint8)
        coded = code.encode(bits)
        corrupted = coded.copy()
        corrupted[0] ^= 1
        corrupted[1] ^= 1
        assert not np.array_equal(code.decode(corrupted, 4), bits)

    def test_codeword_length(self):
        code = HammingCode()
        assert code.encode(np.zeros(8, dtype=np.uint8)).size == 14

    def test_pads_partial_block(self):
        code = HammingCode()
        bits = random_bits(6, rng=5)  # not a multiple of 4
        assert np.array_equal(code.decode(code.encode(bits), 6), bits)


class TestConvolutional:
    def test_corrects_scattered_errors(self):
        code = ConvolutionalCode()
        bits = random_bits(100, rng=6)
        coded = code.encode(bits)
        rng = np.random.default_rng(7)
        corrupted = coded.copy()
        idx = rng.choice(coded.size, size=coded.size // 20, replace=False)
        corrupted[idx] ^= 1  # 5% channel BER
        decoded = code.decode(corrupted, 100)
        assert bit_error_rate(bits, decoded) < 0.02

    def test_outperforms_uncoded_at_same_channel_ber(self):
        code = ConvolutionalCode()
        bits = random_bits(200, rng=8)
        coded = code.encode(bits)
        p = 0.06
        post_fec = []
        for trial in range(6):
            rng = np.random.default_rng(100 + trial)
            noise = (rng.uniform(size=coded.size) < p).astype(np.uint8)
            decoded = code.decode(coded ^ noise, 200)
            post_fec.append(bit_error_rate(bits, decoded))
        # On average the Viterbi decoder crushes a 6% channel BER.
        assert np.mean(post_fec) < p / 3

    def test_coded_length(self):
        code = ConvolutionalCode()
        assert code.encode(np.zeros(10, dtype=np.uint8)).size == 2 * (10 + 6)

    def test_zero_termination_decodes_trailing_bits(self):
        """Without termination the last K-1 bits are unreliable; with
        it they decode exactly."""
        code = ConvolutionalCode()
        bits = np.ones(20, dtype=np.uint8)
        assert np.array_equal(code.decode(code.encode(bits), 20), bits)


class TestInterleaver:
    def test_roundtrip(self):
        il = BlockInterleaver(8, 16)
        bits = random_bits(300, rng=9)
        assert np.array_equal(
            il.deinterleave(il.interleave(bits), 300), bits
        )

    def test_burst_becomes_scattered(self):
        il = BlockInterleaver(rows=8, cols=16)
        bits = np.zeros(128, dtype=np.uint8)
        inter = il.interleave(bits)
        # A burst of 8 consecutive errors on the channel...
        inter[:8] ^= 1
        recovered = il.deinterleave(inter, 128)
        error_positions = np.flatnonzero(recovered)
        # ...lands at least `cols` apart after deinterleaving.
        gaps = np.diff(error_positions)
        assert np.all(gaps >= il.cols)

    def test_burst_plus_hamming_recovers(self):
        """The classic pairing: interleaving turns a burst into
        isolated single errors that Hamming can fix."""
        code = HammingCode()
        il = BlockInterleaver(rows=7, cols=10)
        bits = random_bits(40, rng=10)
        stream = il.interleave(code.encode(bits))
        stream[:7] ^= 1  # 7-bit burst (an entire codeword's worth)
        decoded = code.decode(il.deinterleave(stream, 70), 40)
        assert np.array_equal(decoded, bits)

    def test_rejects_bad_dims(self):
        with pytest.raises(ModemError):
            BlockInterleaver(0, 5)


class TestRegistry:
    def test_lookup(self):
        assert isinstance(get_code("repetition-7"), RepetitionCode)
        assert isinstance(get_code("hamming74"), HammingCode)
        assert isinstance(get_code("conv-k7"), ConvolutionalCode)

    def test_unknown_raises(self):
        with pytest.raises(ModemError):
            get_code("turbo-9000")


class TestCodingProperties:
    @given(
        st.integers(1, 80),
        st.integers(0, 2**31 - 1),
        st.sampled_from(["repetition-3", "hamming74", "conv-k7"]),
    )
    @settings(deadline=None, max_examples=30)
    def test_roundtrip_property(self, n_bits, seed, name):
        code = get_code(name)
        bits = random_bits(n_bits, rng=seed)
        assert np.array_equal(
            code.decode(code.encode(bits), n_bits), bits
        )
