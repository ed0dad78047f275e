"""Pilot-based channel estimation and one-tap equalization (§III-6).

Pilot tones are unit-power and equispaced in frequency, so the sampled
channel response at the pilots can be expanded over the whole occupied
band with FFT interpolation.  Equalization divides every occupied bin by
the interpolated response: by construction the pilots come out at unit
power, and the data bins are corrected by the same factors — including
the global ``1/2`` from the paper's real-part OFDM construction.

Every function here works on a stack of ``(n_symbols, fft_size)``
spectra, one row per received symbol; a single spectrum is a one-row
stack.  Their scalar pre-refactor bodies are the oracle in
``tests/modem_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DemodulationError
from ..dsp.fftops import fft_interpolate_rows
from .subchannels import ChannelPlan


@dataclass(frozen=True)
class ChannelEstimate:
    """Frequency response over the plan's occupied band.

    ``response[i, k - band_start]`` is the estimated complex channel
    gain of row ``i`` at bin ``k`` for ``band_start <= k <= band_end``.
    """

    band_start: int
    response: np.ndarray


def _spectra(spectra: np.ndarray, plan: ChannelPlan) -> np.ndarray:
    """``spectra`` as a complex stack, checked to cover the full FFT."""
    x = np.asarray(spectra, dtype=np.complex128)
    if x.ndim != 2 or x.shape[1] < plan.fft_size:
        raise DemodulationError(
            f"spectra must be 2-D with at least fft_size={plan.fft_size} bins"
        )
    return x


def estimate_channel_rows(
    spectra: np.ndarray, plan: ChannelPlan
) -> ChannelEstimate:
    """Estimate the channel of every received OFDM spectrum.

    Extracts the pilot bins ``z(k), k ∈ P`` of each row, FFT-interpolates
    by the pilot spacing, and returns the ``(n_symbols, band_len)``
    response over ``[min(P), max(P)]``.  ``H(k) = z(k)`` exactly at the
    pilots.  Raises :class:`~repro.errors.DemodulationError` if any row's
    pilot bins are all empty.
    """
    x = _spectra(spectra, plan)
    pilots = sorted(plan.pilots)
    z = x[:, pilots]
    if np.any(np.all(np.abs(z) < 1e-300, axis=1)):
        raise DemodulationError("all pilot bins are empty — no signal")
    spacing = plan.pilot_spacing
    interpolated = fft_interpolate_rows(z, spacing)
    # interpolated[:, i] estimates bin pilots[0] + i for
    # i in [0, len(pilots)*spacing); keep only up to the last pilot.
    band_len = pilots[-1] - pilots[0] + 1
    response = interpolated[:, :band_len].copy()
    # Pin the exact pilot measurements (interpolation is exact there up
    # to numeric noise, but pinning keeps the equalized pilots at
    # exactly unit power).
    for i, p in enumerate(pilots):
        response[:, p - pilots[0]] = z[:, i]
    return ChannelEstimate(band_start=pilots[0], response=response)


def estimate_channel_magnitude_rows(
    spectra: np.ndarray, plan: ChannelPlan
) -> ChannelEstimate:
    """Magnitude-only channel estimate for envelope (ASK) detection.

    Interpolating the *complex* pilot response under fast phase ripple
    shrinks the interpolated magnitude (rotating phasors average toward
    zero).  An envelope detector never uses phase, so for ASK we
    interpolate ``|z(k)|`` — smooth on real audio hardware, where the
    ugliness lives in the phase response — and return a real, positive
    estimate.
    """
    x = _spectra(spectra, plan)
    pilots = sorted(plan.pilots)
    z = np.abs(x[:, pilots])
    if np.any(np.all(z < 1e-300, axis=1)):
        raise DemodulationError("all pilot bins are empty — no signal")
    spacing = plan.pilot_spacing
    interpolated = np.abs(
        fft_interpolate_rows(z.astype(np.complex128), spacing)
    )
    band_len = pilots[-1] - pilots[0] + 1
    response = interpolated[:, :band_len].astype(np.complex128)
    for i, p in enumerate(pilots):
        response[:, p - pilots[0]] = z[:, i]
    return ChannelEstimate(band_start=pilots[0], response=response)


def estimate_channel_linear_rows(
    spectra: np.ndarray, plan: ChannelPlan
) -> ChannelEstimate:
    """Ablation: linear interpolation between pilots instead of FFT.

    ``np.interp`` is 1-D only, so each row interpolates separately —
    still one estimate object and no per-row Python in the equalize
    step.  This is the ablation path; the FFT interpolator above is the
    hot one.
    """
    x = _spectra(spectra, plan)
    pilots = sorted(plan.pilots)
    z = x[:, pilots]
    band = np.arange(pilots[0], pilots[-1] + 1)
    response = np.empty((x.shape[0], band.size), dtype=np.complex128)
    for i in range(x.shape[0]):
        real = np.interp(band, pilots, z[i].real)
        imag = np.interp(band, pilots, z[i].imag)
        response[i] = real + 1j * imag
    return ChannelEstimate(band_start=pilots[0], response=response)


def equalize_rows(
    spectra: np.ndarray,
    plan: ChannelPlan,
    estimate: ChannelEstimate,
    regularization: float = 1e-9,
) -> np.ndarray:
    """Equalize the data bins of every row: ``ŝ(k) = z(k) / H(k)``.

    ``estimate.response`` must be 2-D (from the ``*_rows`` estimators).
    Returns ``(n_symbols, n_data)`` equalized symbols with columns in
    ascending data-bin order.  ``regularization`` avoids division
    blow-ups on bins the channel has nulled out (those bins will demap
    to garbage, surfacing as bit errors — which is honest: the channel
    destroyed them).  A data bin outside the estimated band raises
    :class:`~repro.errors.DemodulationError`.
    """
    x = np.asarray(spectra, dtype=np.complex128)
    response = np.asarray(estimate.response)
    if x.ndim != 2 or response.ndim != 2:
        raise DemodulationError("equalize_rows needs 2-D spectra and response")
    data_bins = np.asarray(sorted(plan.data), dtype=np.intp)
    cols = data_bins - estimate.band_start
    if cols.size and (cols.min() < 0 or cols.max() >= response.shape[1]):
        k = int(data_bins[int(np.argmax((cols < 0) | (cols >= response.shape[1])))])
        raise DemodulationError(
            f"bin {k} outside estimated band "
            f"[{estimate.band_start}, "
            f"{estimate.band_start + response.shape[1]})"
        )
    h = response[:, cols]
    denom = np.where(np.abs(h) > regularization, h, complex(regularization))
    return x[:, data_bins] / denom
