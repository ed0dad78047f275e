"""Windowed-sinc FIR design and filtering.

Used to emulate the Moto 360's mandatory microphone low-pass (the paper
found signal fading sharply above ~5-7 kHz) and for band-limiting noise
scenes.  Filtering is a linear convolution (:func:`numpy.convolve`
semantics) computed with rFFTs zero-padded to
:func:`~repro.dsp.fftops.fft_length`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import DspError
from .fftops import fft_length
from .plane import KeyedCache
from .windows import hamming_window

#: Windowed-sinc designs are pure functions of (cutoffs, rate, taps) and
#: every noise-scene sample re-designed them from scratch — ~20 designs
#: per unlock session.  Cached entries are returned read-only.
_FIR_DESIGNS = KeyedCache("dsp.fir_designs", maxsize=64)

#: Taps spectra ``rfft(h, nfft)`` reused by :func:`fir_filter_batch`.
#: Every caller filters with the same few designs at the same few
#: transform sizes, so the taps transform — one of the three FFTs per
#: call — is memoized by value.
_TAPS_SPECTRA = KeyedCache("dsp.fir_taps_spectra", maxsize=64)


def design_lowpass_fir(
    cutoff_hz: float, sample_rate: float, num_taps: int = 129
) -> np.ndarray:
    """Design a linear-phase low-pass FIR via the windowed-sinc method.

    Parameters
    ----------
    cutoff_hz:
        -6 dB cutoff frequency in Hz.
    sample_rate:
        Sampling rate in Hz.
    num_taps:
        Filter length; odd values give an integer group delay of
        ``(num_taps - 1) / 2`` samples.

    Designs are memoized in a :class:`~repro.dsp.plane.KeyedCache`; the
    returned array is shared and read-only (``.copy()`` to mutate).
    """
    if num_taps < 3:
        raise DspError("num_taps must be >= 3")
    if num_taps % 2 == 0:
        raise DspError("num_taps must be odd for a symmetric low-pass")
    if sample_rate <= 0:
        raise DspError("sample_rate must be positive")
    if not 0 < cutoff_hz < sample_rate / 2:
        raise DspError("cutoff must lie strictly inside (0, Nyquist)")
    key = ("lowpass", float(cutoff_hz), float(sample_rate), int(num_taps))
    return _FIR_DESIGNS.get(
        key, lambda: _design_lowpass(cutoff_hz, sample_rate, num_taps)
    )


def _design_lowpass(
    cutoff_hz: float, sample_rate: float, num_taps: int
) -> np.ndarray:
    fc = cutoff_hz / sample_rate
    mid = (num_taps - 1) / 2.0
    n = np.arange(num_taps) - mid
    taps = 2.0 * fc * np.sinc(2.0 * fc * n)
    taps *= hamming_window(num_taps)
    taps /= np.sum(taps)
    taps.setflags(write=False)
    return taps


def design_bandpass_fir(
    low_hz: float, high_hz: float, sample_rate: float, num_taps: int = 129
) -> np.ndarray:
    """Design a linear-phase band-pass FIR (difference of two low-passes).

    Memoized like :func:`design_lowpass_fir`; the returned array is
    shared and read-only.
    """
    if not 0 < low_hz < high_hz < sample_rate / 2:
        raise DspError("need 0 < low < high < Nyquist")

    def build() -> np.ndarray:
        hi = design_lowpass_fir(high_hz, sample_rate, num_taps)
        lo = design_lowpass_fir(low_hz, sample_rate, num_taps)
        taps = hi - lo
        taps.setflags(write=False)
        return taps

    key = (
        "bandpass",
        float(low_hz),
        float(high_hz),
        float(sample_rate),
        int(num_taps),
    )
    return _FIR_DESIGNS.get(key, build)


def fir_filter(signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Filter ``signal`` with FIR ``taps``; output has the input's length.

    Group delay is compensated (the output is time-aligned with the
    input) so hardware models can be inserted into the channel chain
    without shifting frame timing.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or np.ndim(taps) != 1:
        raise DspError("signal and taps must be 1-D")
    return fir_filter_batch(x[None, :], taps)[0]


def fir_filter_batch(signals: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Filter each row of ``signals`` with FIR ``taps`` in one pass.

    This is the one FIR kernel: :func:`fir_filter` is its one-row call.
    Rows are independent — the stacked rFFT/irFFT transforms each row
    with the same plan, and the spectrum multiply broadcasts the
    identical taps spectrum across rows — so row ``i`` does not depend
    on the batch it sits in.
    """
    x = np.asarray(signals, dtype=np.float64)
    h = np.asarray(taps, dtype=np.float64)
    if x.ndim != 2 or h.ndim != 1:
        raise DspError("signals must be 2-D and taps 1-D")
    if h.size == 0:
        raise DspError("taps must be non-empty")
    if x.shape[0] == 0 or x.shape[1] == 0:
        return x.copy()
    n = x.shape[1] + h.size - 1
    nfft = fft_length(n)
    spec_h = _TAPS_SPECTRA.get(
        (h.tobytes(), nfft), lambda: np.fft.rfft(h, nfft)
    )
    y = np.fft.irfft(
        np.fft.rfft(x, nfft, axis=1) * spec_h,
        nfft,
        axis=1,
    )[:, :n]
    delay = (h.size - 1) // 2
    return y[:, delay: delay + x.shape[1]]


def fir_filter_batch_pair(
    signals: np.ndarray, taps_a: np.ndarray, taps_b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Filter each row with two FIRs, sharing one forward transform.

    Returns ``(fir_filter_batch(signals, taps_a),
    fir_filter_batch(signals, taps_b))`` bit-for-bit — the rows'
    forward spectrum is identical for both filters, so computing it
    once is pure common-subexpression elimination.  Both taps must
    share a length (so the padded transform size and the group-delay
    compensation agree); the microphone model's sharp/knee pair does.
    """
    x = np.asarray(signals, dtype=np.float64)
    ha = np.asarray(taps_a, dtype=np.float64)
    hb = np.asarray(taps_b, dtype=np.float64)
    if x.ndim != 2 or ha.ndim != 1 or hb.ndim != 1:
        raise DspError("signals must be 2-D and taps 1-D")
    if ha.size == 0 or hb.size == 0:
        raise DspError("taps must be non-empty")
    if ha.size != hb.size:
        raise DspError("paired taps must share a length")
    if x.shape[0] == 0 or x.shape[1] == 0:
        return x.copy(), x.copy()
    n = x.shape[1] + ha.size - 1
    nfft = fft_length(n)
    spec_x = np.fft.rfft(x, nfft, axis=1)
    delay = (ha.size - 1) // 2
    outs = []
    for h in (ha, hb):
        spec_h = _TAPS_SPECTRA.get(
            (h.tobytes(), nfft), lambda h=h: np.fft.rfft(h, nfft)
        )
        y = np.fft.irfft(spec_x * spec_h, nfft, axis=1)[:, :n]
        outs.append(y[:, delay: delay + x.shape[1]])
    return outs[0], outs[1]
