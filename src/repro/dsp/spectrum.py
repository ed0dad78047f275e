"""Power-spectral-density estimation and band power measurement.

The channel prober ranks candidate sub-channels by noise power
(§III-7, "Channel probing and sub-channel selection").  These helpers
provide the PSD estimate it ranks from, plus band-power integration used
by the ambient-noise similarity filter.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import DspError
from .windows import hann_window


def welch_psd(
    signal: np.ndarray,
    sample_rate: float,
    segment_size: int = 256,
    overlap: float = 0.5,
) -> Tuple[np.ndarray, np.ndarray]:
    """Welch-averaged one-sided PSD estimate.

    Returns ``(freqs, psd)`` where ``psd[k]`` is power per Hz at
    ``freqs[k]``.  Hann-tapered segments with fractional ``overlap`` are
    averaged; a signal shorter than one segment is zero-padded into a
    single segment.  One-row call of :func:`welch_psd_batch`.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DspError("signal must be a non-empty 1-D array")
    freqs, psds = welch_psd_batch(
        x[None, :], sample_rate, segment_size=segment_size, overlap=overlap
    )
    return freqs, psds[0]


def welch_psd_batch(
    signals: np.ndarray,
    sample_rate: float,
    segment_size: int = 256,
    overlap: float = 0.5,
) -> Tuple[np.ndarray, np.ndarray]:
    """Welch PSD of each row of ``signals`` in one stacked pass.

    Returns ``(freqs, psds)``; ``psds[i]`` is the :func:`welch_psd` of
    row ``i``.  All segments of all rows go through one stacked rFFT
    (the per-segment plan of a 1-D transform), and each row's segment
    powers are summed in segment order, so a row's PSD does not depend
    on the rows beside it.
    """
    x = np.asarray(signals, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
        raise DspError("signals must be a non-empty 2-D array")
    if sample_rate <= 0:
        raise DspError("sample_rate must be positive")
    if segment_size < 8:
        raise DspError("segment_size must be >= 8")
    if not 0.0 <= overlap < 1.0:
        raise DspError("overlap must be in [0, 1)")

    if x.shape[1] < segment_size:
        x = np.pad(x, ((0, 0), (0, segment_size - x.shape[1])))
    window = hann_window(segment_size)
    win_power = float(np.sum(window * window))
    step = max(1, int(segment_size * (1.0 - overlap)))
    n_segments = 1 + (x.shape[1] - segment_size) // step

    # Overlapping segments as a strided view — the window multiply is
    # the only materialization (the fancy-index gather would add a
    # second full copy before it).
    s0, s1 = x.strides
    segs = np.lib.stride_tricks.as_strided(
        x,
        shape=(x.shape[0], n_segments, segment_size),
        strides=(s0, s1 * step, s1),
        writeable=False,
    ) * window
    spec = np.fft.rfft(segs, axis=2)
    power = spec.real ** 2 + spec.imag ** 2

    acc = np.zeros((x.shape[0], segment_size // 2 + 1))
    for s in range(n_segments):
        acc += power[:, s, :]
    psds = acc / (n_segments * win_power * sample_rate)
    psds[:, 1:-1] *= 2.0
    freqs = np.fft.rfftfreq(segment_size, d=1.0 / sample_rate)
    return freqs, psds


def band_power(
    signal: np.ndarray,
    sample_rate: float,
    low_hz: float,
    high_hz: float,
    segment_size: int = 256,
) -> float:
    """Integrated signal power inside ``[low_hz, high_hz]``."""
    if not 0 <= low_hz < high_hz <= sample_rate / 2:
        raise DspError("need 0 <= low < high <= Nyquist")
    freqs, psd = welch_psd(signal, sample_rate, segment_size=segment_size)
    mask = (freqs >= low_hz) & (freqs <= high_hz)
    if not np.any(mask):
        return 0.0
    if np.count_nonzero(mask) == 1:
        # A single PSD sample: integrate over one bin width.
        return float(psd[mask][0] * (freqs[1] - freqs[0]))
    return float(np.trapezoid(psd[mask], freqs[mask]))


def noise_power_per_bin(
    signal: np.ndarray, sample_rate: float, fft_size: int
) -> np.ndarray:
    """Average noise power in each OFDM sub-channel of width Fs/N.

    Returns an array of length ``fft_size // 2 + 1``; entry ``k`` is the
    mean power observed in sub-channel ``k``.  This is what the channel
    prober ranks when selecting data sub-channels.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DspError("signal must be a non-empty 1-D array")
    if fft_size < 8:
        raise DspError("fft_size must be >= 8")
    n_blocks = x.size // fft_size
    if n_blocks == 0:
        x = np.pad(x, (0, fft_size - x.size))
        n_blocks = 1
    half = fft_size // 2 + 1
    # One stacked transform over all blocks (row-wise identical to the
    # per-block 1-D calls), but the block sum stays a sequential loop:
    # its accumulation order is part of the bit-identity contract.
    specs = np.fft.rfft(x[: n_blocks * fft_size].reshape(n_blocks, fft_size))
    powers = specs.real ** 2 + specs.imag ** 2
    acc = np.zeros(half)
    for b in range(n_blocks):
        acc += powers[b]
    return acc / (n_blocks * fft_size)
