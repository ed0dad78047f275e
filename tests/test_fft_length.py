"""The one FFT-length policy and the kernels that pad through it.

:func:`repro.dsp.fftops.fft_length` picks the padded transform length
of every FFT convolution and correlation.  These tests pin the policy
itself (hypothesis properties plus an exhaustive minimality check),
the accuracy of every kernel against a direct ``np.convolve`` /
``np.correlate`` at lengths on both sides of the power-of-two and
5-smooth boundaries, and bit-identity of each batch row with the 1-D
bodies in ``tests/kernel_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.multipath import RoomImpulseResponse, convolve_ir_rows
from repro.dsp.correlation import (
    sliding_normalized_correlation,
    sliding_normalized_correlation_batch,
)
from repro.dsp.fftops import fft_length
from repro.dsp.filters import (
    fir_filter,
    fir_filter_batch,
    fir_filter_batch_pair,
)
from repro.errors import DspError
from tests import kernel_oracle as oracle

#: Transform input lengths straddling boundaries: 16 and 8192 are both
#: powers of two and 5-smooth, 4608 = 2^9·3^2 and 6000 = 2^4·3·5^3 are
#: 5-smooth only; each is paired with its successor.
BOUNDARY_LENGTHS = (16, 17, 4096, 4097, 4608, 4609, 6000, 6001, 8192, 8193)

RTOL = 1e-12


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _is_5_smooth(k: int) -> bool:
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def _assert_close(got: np.ndarray, want: np.ndarray) -> None:
    """Norm-wise relative agreement: max error ≤ RTOL · max |want|."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


class TestFftLength:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=1 << 22))
    def test_bounds_and_smoothness(self, n):
        k = fft_length(n)
        assert n <= k <= _next_pow2(n)
        assert _is_5_smooth(k)
        if n > 16:
            assert k % 16 == 0

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=1 << 22),
        st.integers(min_value=1, max_value=1 << 22),
    )
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert fft_length(lo) <= fft_length(hi)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=1 << 22))
    def test_fixed_point(self, n):
        k = fft_length(n)
        assert fft_length(k) == k

    def test_smallest_admissible_length(self):
        admissible = [
            k for k in range(1, 20_001)
            if _is_5_smooth(k) and (k % 16 == 0 or k == _next_pow2(k))
        ]
        j = 0
        for n in range(1, 16_385):
            while admissible[j] < n:
                j += 1
            assert fft_length(n) == admissible[j], n

    def test_typical_recordings_pad_less_than_pow2(self):
        assert fft_length(8397) == 8640  # 8141-sample bed + 257 taps
        assert fft_length(8193) == 8640
        assert fft_length(6001) == 6144

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_empty(self, n):
        with pytest.raises(DspError):
            fft_length(n)


def _taps(k: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(k)


def _fir_direct(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    delay = (h.size - 1) // 2
    return np.convolve(x, h)[delay: delay + x.size]


def _ncc_direct(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    m = t.size
    raw = np.correlate(x, t, "valid")
    local = np.convolve(x * x, np.ones(m), "valid")
    denom = np.sqrt(local * np.dot(t, t))
    out = np.zeros_like(raw)
    np.divide(raw, denom, out=out, where=denom > 0)
    return np.clip(out, -1.0, 1.0)


@pytest.mark.parametrize("n", BOUNDARY_LENGTHS)
class TestKernelsAgainstDirect:
    """``n`` is the length each kernel hands to :func:`fft_length`."""

    def test_fir_kernels(self, n):
        k = 9 if n < 512 else 257
        rows = np.random.default_rng(n).standard_normal((3, n - k + 1))
        ha, hb = _taps(k, 1), _taps(k, 2)
        batch = fir_filter_batch(rows, ha)
        pair_a, pair_b = fir_filter_batch_pair(rows, ha, hb)
        for i, row in enumerate(rows):
            want_a = _fir_direct(row, ha)
            _assert_close(fir_filter(row, ha), want_a)
            _assert_close(batch[i], want_a)
            _assert_close(pair_a[i], want_a)
            _assert_close(pair_b[i], _fir_direct(row, hb))
            assert np.array_equal(batch[i], oracle.fir_filter(row, ha))
            assert np.array_equal(pair_b[i], oracle.fir_filter(row, hb))

    def test_room_ir_kernels(self, n):
        room = RoomImpulseResponse(tail_length=8 if n < 512 else 128)
        L = n - room.tail_length + 1
        signals = np.random.default_rng(n).standard_normal((3, L))
        irs = np.stack(
            [room.sample(np.random.default_rng(s)) for s in range(3)]
        )
        shared = convolve_ir_rows(signals[:1], irs)
        pairwise = convolve_ir_rows(signals, irs)
        for i in range(3):
            applied = room.apply(signals[i], rng=np.random.default_rng(i))
            _assert_close(applied, np.convolve(signals[i], irs[i]))
            _assert_close(shared[i], np.convolve(signals[0], irs[i]))
            _assert_close(pairwise[i], np.convolve(signals[i], irs[i]))
            assert np.array_equal(
                shared[i], oracle.convolve(signals[0], irs[i])
            )
            assert np.array_equal(
                pairwise[i], oracle.convolve(signals[i], irs[i])
            )

    @pytest.mark.parametrize("m", ["one", "mid", "full"])
    def test_correlation_kernels(self, n, m):
        """Small integer samples make the cumulative-sum energy pass
        exact, so the comparison isolates the FFT correlation; the NCC
        is scale-free, so its tolerance is absolute."""
        m = {"one": 1, "mid": min(300, n // 2), "full": n}[m]
        rng = np.random.default_rng(n + m)
        rows = rng.integers(-8, 9, size=(3, n)).astype(np.float64)
        template = rng.integers(-8, 9, size=m).astype(np.float64)
        template[0] = 5.0  # never all-zero
        batch = sliding_normalized_correlation_batch(rows, template)
        for i, row in enumerate(rows):
            want = _ncc_direct(row, template)
            got = sliding_normalized_correlation(row, template)
            assert got.shape == want.shape == (n - m + 1,)
            assert np.max(np.abs(got - want)) <= RTOL
            assert np.max(np.abs(batch[i] - want)) <= RTOL
            assert np.array_equal(
                batch[i], oracle.sliding_normalized_correlation(row, template)
            )
