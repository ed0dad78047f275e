"""SNR estimation: pilot-based PSNR (eq. 3) and Eb/N0 conversion.

The receiver cannot measure transmit power; it estimates the carrier-to-
noise ratio from the spectrum itself, comparing average power on pilot
bins against average power on null bins::

    PSNR = (E_{k∈P}[X·X*] − E_{k∈N}[X·X*]) / E_{k∈N}[X·X*]

and converts to the normalized per-bit metric::

    Eb/N0 = (C/N) · (B/R)

with ``B`` the occupied bandwidth and ``R`` the data rate
``R = |D| · r_c · log2(M) / (Tg + Ts)``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..config import ModemConfig
from ..errors import DemodulationError
from .constellation import Constellation
from .subchannels import ChannelPlan


def _row_means(power: np.ndarray) -> np.ndarray:
    """Per-row means via 1-D reductions.

    ``np.mean(power, axis=1)`` associates the sum differently from the
    1-D reduction of ``np.mean`` over one row (NumPy's pairwise/unrolled
    accumulation), which drifts by an ULP on some inputs.  Reducing each
    contiguous row separately keeps every row bit-identical to the
    scalar estimator in ``tests/modem_oracle.py`` (and so keeps every
    recorded digest); the row count is the symbol count, so the Python
    loop is negligible next to the FFTs.
    """
    n_rows, width = power.shape
    out = np.empty(n_rows)
    div = float(width)
    reduce_ = np.add.reduce  # what np.mean's 1-D sum resolves to
    for i in range(n_rows):
        out[i] = reduce_(power[i]) / div
    return out


def pilot_snr_linear_rows(
    spectra: np.ndarray,
    plan: ChannelPlan,
    null_bins: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """PSNR (linear) of every received OFDM spectrum — eq. (3).

    ``spectra`` is ``(n_symbols, fft_size)``; a single spectrum is a
    one-row stack.  ``null_bins`` overrides the plan's own null set
    (useful for the block-pilot probe symbol where only the margin bins
    stay silent).  Clamped below at a small positive value: a spectrum
    where pilots are weaker than nulls means "no usable signal", not a
    negative ratio.
    """
    x = np.asarray(spectra, dtype=np.complex128)
    if x.ndim != 2 or x.shape[1] < plan.fft_size:
        raise DemodulationError("spectra must be 2-D covering the full FFT")
    nulls = tuple(null_bins) if null_bins is not None else plan.null_channels()
    if not nulls:
        raise DemodulationError("no null bins available for noise estimate")
    p = x[:, list(plan.pilots)]
    q = x[:, list(nulls)]
    p_pilot = _row_means(p.real ** 2 + p.imag ** 2)
    p_null = _row_means(q.real ** 2 + q.imag ** 2)
    out = np.empty(x.shape[0])
    clean = p_null <= 0.0
    # Perfectly clean simulation: very high but finite SNR.
    out[clean] = 1e12
    live = ~clean
    out[live] = np.maximum(
        (p_pilot[live] - p_null[live]) / p_null[live], 1e-12
    )
    return out


def pilot_snr_db_rows(
    spectra: np.ndarray,
    plan: ChannelPlan,
    null_bins: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """PSNR in dB of every row of ``spectra``."""
    return 10.0 * np.log10(pilot_snr_linear_rows(spectra, plan, null_bins))


def data_rate(
    config: ModemConfig,
    plan: ChannelPlan,
    constellation: Constellation,
    coding_rate: float = 1.0,
) -> float:
    """Payload data rate in bits/second: ``|D| r_c log2(M) / (Tg+Ts)``."""
    if not 0 < coding_rate <= 1.0:
        raise DemodulationError("coding_rate must be in (0, 1]")
    bits = len(plan.data) * constellation.bits_per_symbol * coding_rate
    return bits / config.symbol_duration


def occupied_bandwidth(config: ModemConfig, plan: ChannelPlan) -> float:
    """Bandwidth (Hz) spanned by the plan's data bins."""
    return len(plan.data) * config.subchannel_bandwidth


def ebn0_db_from_psnr(
    psnr_db: float,
    config: ModemConfig,
    plan: ChannelPlan,
    constellation: Constellation,
    coding_rate: float = 1.0,
) -> float:
    """Convert a pilot-based C/N estimate into Eb/N0 in dB.

    ``Eb/N0 = C/N · B/R``; in dB this is an additive correction of
    ``10 log10(B/R)``.
    """
    b = occupied_bandwidth(config, plan)
    r = data_rate(config, plan, constellation, coding_rate)
    return float(psnr_db + 10.0 * np.log10(b / r))
