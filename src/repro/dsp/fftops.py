"""FFT helpers: padded lengths, interpolation, spectrum bins, Goertzel power.

:func:`fft_interpolate_rows` is the paper's channel-estimation
interpolator (§III-6): pilot tones are equispaced in frequency, so the
pilot vector can be expanded to the full band by zero-padding its
inverse transform — exact for channels whose impulse response is
shorter than the pilot spacing allows, and smooth otherwise.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import DspError


def fft_length(n: int) -> int:
    """Padded transform length for an FFT convolution of ``n`` samples.

    Returns the smallest 5-smooth length (``2^a 3^b 5^c``) ≥ ``n`` that
    is a multiple of 16, and never more than the next power of two (so
    ``n ≤ 16`` gets the power of two itself).  Every FFT convolution
    and correlation in the simulator pads through this one policy:
    pocketfft's radix-3 and radix-5 passes cost about what radix-2
    passes do per sample, so the tighter pad beats the up-to-2x larger
    power of two, and the factor 16 keeps radix-4 passes in every
    length.
    """
    if n < 1:
        raise DspError("transform length must be >= 1")
    return _fft_length(int(n))


@lru_cache(maxsize=None)
def _fft_length(n: int) -> int:
    if n <= 16:
        return 1 << (n - 1).bit_length()
    # Search the 5-smooth cofactor m of 16 * m: for each 3^b 5^c below
    # the best so far, the smallest power-of-two multiple ≥ ceil(n/16).
    target = -(-n // 16)
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p2 = 1 << (-(-target // p35) - 1).bit_length()
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return 16 * best


def fft_interpolate_rows(values: np.ndarray, factor: int) -> np.ndarray:
    """Interpolate every row of ``values`` by ``factor`` (FFT zero-padding).

    Given ``M`` equispaced samples of a band-limited function per row,
    returns ``M * factor`` samples of the same function on the refined
    grid; the first output sample of a row coincides with its first
    input sample.  Rows are independent (one stacked transform), and a
    single sequence is a one-row batch.

    Parameters
    ----------
    values:
        Complex (or real) ``(rows, M)`` array with ``M >= 1``.
    factor:
        Integer interpolation factor ≥ 1.
    """
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 2 or v.shape[1] == 0:
        raise DspError("values must be a 2-D array with non-empty rows")
    if factor < 1:
        raise DspError("interpolation factor must be >= 1")
    if factor == 1:
        return v.copy()
    m = v.shape[1]
    spec = np.fft.fft(v, axis=1)
    padded = np.zeros((v.shape[0], m * factor), dtype=np.complex128)
    half = m // 2
    padded[:, : half + 1] = spec[:, : half + 1]
    if half:
        tail = m - half - 1
        if tail:
            padded[:, -tail:] = spec[:, half + 1:]
        # Split the Nyquist coefficient if m is even to keep the
        # interpolant real-valued for real inputs.
        if m % 2 == 0:
            padded[:, half] *= 0.5
            padded[:, m * factor - half] = padded[:, half]
    return np.fft.ifft(padded, axis=1) * factor


def spectrum_bins(block: np.ndarray, fft_size: int) -> np.ndarray:
    """FFT a time-domain OFDM block and return all complex bins.

    The block is truncated or zero-padded to ``fft_size``.  This is the
    receiver's time-to-frequency step; bin ``k`` corresponds to the
    sub-channel ``k`` of :class:`repro.config.ModemConfig`.
    """
    x = np.asarray(block, dtype=np.float64)
    if x.ndim != 1:
        raise DspError("block must be 1-D")
    if fft_size <= 0:
        raise DspError("fft_size must be positive")
    if x.size >= fft_size:
        x = x[:fft_size]
    else:
        x = np.pad(x, (0, fft_size - x.size))
    return np.fft.fft(x)


def goertzel_power(signal: np.ndarray, sample_rate: float, freq: float) -> float:
    """Single-bin DFT power at ``freq`` (Goertzel's single-tone DFT).

    Cheaper than a full FFT when only one tone matters — used by the
    channel prober to measure jammer power on individual sub-channels.
    Returns the squared magnitude normalized by the signal length.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DspError("signal must be a non-empty 1-D array")
    if sample_rate <= 0:
        raise DspError("sample_rate must be positive")
    if not 0 <= freq <= sample_rate / 2:
        raise DspError("freq outside [0, Nyquist]")
    n = x.size
    k = freq * n / sample_rate
    omega = 2.0 * np.pi * k / n
    # The Goertzel recurrence computes |sum_n x_n e^{-j omega n}|^2; the
    # equivalent direct projection vectorizes (two dot products instead
    # of a per-sample Python loop) at the same O(n) cost.
    phase = omega * np.arange(n)
    re = float(np.dot(x, np.cos(phase)))
    im = float(np.dot(x, np.sin(phase)))
    power = re * re + im * im
    return float(max(power, 0.0)) / (n * n)
