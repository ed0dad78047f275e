"""Cross-correlation primitives used for preamble detection and sync.

The receiver slides the known chirp template over the recording and
computes a *normalized* cross-correlation (NCC) score in [-1, 1] at every
lag.  Normalization by the local energy of the recording makes the
detection threshold volume-independent — essential because WearLock
adapts its speaker volume to the ambient noise level.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import DspError
from .fftops import fft_length
from .plane import KeyedCache

#: Conjugated template spectra reused by
#: :func:`sliding_normalized_correlation_batch`.  Every caller scores
#: recordings against the same few preamble templates at the same few
#: transform sizes, so the template transform is memoized by value.
_TEMPLATE_SPECTRA = KeyedCache("dsp.ncc_template_spectra", maxsize=32)


def normalized_cross_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Return the NCC of two equal-length vectors in [-1, 1].

    Zero-energy inputs yield a score of 0 rather than NaN so detection
    loops can treat silence gracefully.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DspError("inputs must be 1-D arrays of equal length")
    ex = float(np.dot(x, x))
    ey = float(np.dot(y, y))
    if ex <= 0.0 or ey <= 0.0:
        return 0.0
    return float(np.dot(x, y) / np.sqrt(ex * ey))


def sliding_normalized_correlation(
    signal: np.ndarray, template: np.ndarray
) -> np.ndarray:
    """NCC of ``template`` against every lag of ``signal``.

    Returns an array of length ``len(signal) - len(template) + 1`` whose
    ``i``-th entry is the NCC between ``template`` and
    ``signal[i : i + len(template)]``.  Implemented with one FFT-backed
    correlation plus a cumulative-sum local-energy pass, so it is
    O(n log n) rather than the naive O(n·m).
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or np.ndim(template) != 1:
        raise DspError("signal and template must be 1-D")
    return sliding_normalized_correlation_batch(x[None, :], template)[0]


def sliding_normalized_correlation_batch(
    signals: np.ndarray, template: np.ndarray
) -> np.ndarray:
    """Sliding NCC of ``template`` against every row of ``signals``.

    This is the one NCC kernel: :func:`sliding_normalized_correlation`
    is its one-row call.  Rows are independent — stacked rFFT/irFFT
    rows share one plan, the template spectrum broadcasts unchanged,
    and the energy cumulative sum runs sequentially along each row — so
    row ``i`` does not depend on the batch it sits in.

    Only the ``valid`` lags ``0 … n-m`` are kept, and a circular
    correlation of any length ≥ ``n`` computes those exactly (lag ``k``
    reads samples ``k … k+m-1 < n``, so nothing wraps); the transform
    is therefore ``fft_length(n)``, not the full linear ``n + m - 1``.
    """
    x = np.asarray(signals, dtype=np.float64)
    t = np.asarray(template, dtype=np.float64)
    if x.ndim != 2 or t.ndim != 1:
        raise DspError("signals must be 2-D and template 1-D")
    if t.size == 0:
        raise DspError("template must be non-empty")
    if x.shape[1] < t.size:
        raise DspError(
            f"signals shorter ({x.shape[1]}) than template ({t.size})"
        )
    te = float(np.dot(t, t))
    if te <= 0.0:
        raise DspError("template has zero energy")

    n = x.shape[1]
    m = t.size
    nfft = fft_length(n)
    spec_t = _TEMPLATE_SPECTRA.get(
        (t.tobytes(), nfft), lambda: np.conj(np.fft.rfft(t, nfft))
    )
    spec = np.fft.rfft(x, nfft, axis=1) * spec_t
    raw = np.fft.irfft(spec, nfft, axis=1)[:, : n - m + 1]

    csum = np.concatenate(
        (np.zeros((x.shape[0], 1)), np.cumsum(x * x, axis=1)), axis=1
    )
    local = csum[:, m:] - csum[:, : n - m + 1]
    denom = np.sqrt(np.maximum(local * te, 0.0))
    out = np.zeros_like(raw)
    # Masked divide: silent placements keep the pre-filled zeros.
    np.divide(raw, denom, out=out, where=denom > 1e-300)
    return np.clip(out, -1.0, 1.0)


def best_alignment(
    signal: np.ndarray, template: np.ndarray
) -> Tuple[int, float]:
    """Return ``(lag, score)`` of the best NCC placement of ``template``."""
    scores = sliding_normalized_correlation(signal, template)
    lag = int(np.argmax(scores))
    return lag, float(scores[lag])
