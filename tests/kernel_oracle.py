"""Independent one-signal FFT kernels: the bit-identity oracle.

:func:`repro.dsp.filters.fir_filter`,
:func:`repro.dsp.correlation.sliding_normalized_correlation` and
:meth:`repro.channel.multipath.RoomImpulseResponse.apply` are one-row
calls of their stacked kernels (``fir_filter_batch``,
``sliding_normalized_correlation_batch``, ``convolve_ir_rows``).  This
module keeps the straight 1-D bodies those functions used to carry, so
the equivalence suites can compare every row of every stacked kernel
bit for bit against an implementation that shares nothing with it but
the transform length :func:`repro.dsp.fftops.fft_length` — the role
``repro.modem.reference`` plays for the modem.

Do not route these through the package kernels: that would destroy the
oracle.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.fftops import fft_length


def convolve(signal: np.ndarray, ir: np.ndarray) -> np.ndarray:
    """Full linear convolution of one signal with one impulse response."""
    x = np.asarray(signal, dtype=np.float64)
    h = np.asarray(ir, dtype=np.float64)
    if x.size == 0:
        return x.copy()
    n = x.size + h.size - 1
    nfft = fft_length(n)
    return np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(h, nfft), nfft)[:n]


def fir_filter(signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Group-delay-compensated FIR filtering of one signal."""
    x = np.asarray(signal, dtype=np.float64)
    delay = (np.size(taps) - 1) // 2
    return convolve(x, taps)[delay: delay + x.size]


def sliding_normalized_correlation(
    signal: np.ndarray, template: np.ndarray
) -> np.ndarray:
    """NCC of ``template`` against every ``valid`` lag of one signal."""
    x = np.asarray(signal, dtype=np.float64)
    t = np.asarray(template, dtype=np.float64)
    te = float(np.dot(t, t))
    n = x.size
    m = t.size
    nfft = fft_length(n)
    spec = np.fft.rfft(x, nfft) * np.conj(np.fft.rfft(t, nfft))
    raw = np.fft.irfft(spec, nfft)[: n - m + 1]

    csum = np.concatenate(([0.0], np.cumsum(x * x)))
    local = csum[m:] - csum[: n - m + 1]
    denom = np.sqrt(np.maximum(local * te, 0.0))
    out = np.zeros_like(raw)
    nonzero = denom > 1e-300
    out[nonzero] = raw[nonzero] / denom[nonzero]
    return np.clip(out, -1.0, 1.0)
