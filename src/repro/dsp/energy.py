"""Energy, SPL and dB utilities plus the silence/energy detector.

The paper measures sound with the *sound pressure level*::

    SPL = 20 * log10(p / p_ref)

where ``p`` is the RMS pressure.  In this reproduction the digital
amplitude in a float array plays the role of pressure, with the standard
reference ``p_ref = 2e-5`` — so an RMS amplitude of ``2e-5`` is 0 dB SPL
and a full-scale RMS of 1.0 is ≈94 dB SPL, which keeps realistic room
SPLs (15-80 dB) comfortably inside float range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import DspError

#: Digital "pressure" reference for 0 dB SPL.
P_REF: float = 2.0e-5

#: Finite SPL floor reported for silent/empty ambient measurements.
#: An all-zero (or missing) pre-preamble slice has no defined SPL;
#: reporting ``-inf`` poisons downstream SNR arithmetic
#: (``-inf - x = nan`` in the adaptive-modulation stage), so consumers
#: clamp to this floor — far below any audible scene (quietest room in
#: the paper ≈ 15 dB SPL) yet still finite.
SILENCE_FLOOR_SPL_DB: float = -120.0


def rms(signal: np.ndarray) -> float:
    """Root-mean-square amplitude of a signal (0.0 for empty input)."""
    x = np.asarray(signal, dtype=np.float64)
    if x.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(x * x)))


def db(ratio: float) -> float:
    """Convert an amplitude ratio to decibels (``20 log10``)."""
    if ratio <= 0:
        return -np.inf
    return 20.0 * np.log10(ratio)


def from_db(decibels: float) -> float:
    """Convert decibels to an amplitude ratio."""
    return float(10.0 ** (decibels / 20.0))


def amplitude_to_spl(amplitude_rms: float) -> float:
    """Convert an RMS digital amplitude to dB SPL (re ``P_REF``)."""
    if amplitude_rms <= 0.0:
        return -np.inf
    return 20.0 * np.log10(amplitude_rms / P_REF)


def spl_to_amplitude(spl_db: float) -> float:
    """Convert dB SPL to the corresponding RMS digital amplitude."""
    return P_REF * 10.0 ** (spl_db / 20.0)


def signal_spl(signal: np.ndarray) -> float:
    """SPL of a signal computed from its RMS amplitude."""
    return amplitude_to_spl(rms(signal))


@dataclass
class EnergyDetector:
    """Energy-based silence/activity detector (paper §III-4).

    Splits a recording into fixed-size frames and flags frames whose SPL
    exceeds ``threshold_spl``.  The detector is the cheap first stage of
    the receive chain: only active regions are handed to the (expensive)
    preamble correlator.

    Attributes
    ----------
    frame_size:
        Analysis frame length in samples.
    threshold_spl:
        Activity threshold in dB SPL; the paper sets this just above the
        measured ambient-noise SPL.
    hangover_frames:
        Number of trailing frames kept active after the last loud frame,
        so a frame boundary never splits a detected signal.
    """

    frame_size: int = 256
    threshold_spl: float = 30.0
    hangover_frames: int = 2

    def __post_init__(self) -> None:
        if self.frame_size < 1:
            raise DspError("frame_size must be >= 1")
        if self.hangover_frames < 0:
            raise DspError("hangover_frames must be >= 0")

    def frame_spl(self, signal: np.ndarray) -> np.ndarray:
        """Per-frame SPL of ``signal`` (last partial frame included)."""
        x = np.asarray(signal, dtype=np.float64)
        if x.ndim != 1:
            raise DspError("signal must be 1-D")
        n_frames = int(np.ceil(x.size / self.frame_size)) if x.size else 0
        out = np.full(n_frames, -np.inf)
        for i in range(n_frames):
            frame = x[i * self.frame_size: (i + 1) * self.frame_size]
            out[i] = signal_spl(frame)
        return out

    def active_regions(self, signal: np.ndarray) -> List[Tuple[int, int]]:
        """Return ``[(start, end), ...]`` sample ranges of active audio.

        Adjacent/overlapping active frames merge into one region;
        ``hangover_frames`` extends each region past its last loud frame.
        """
        levels = self.frame_spl(signal)
        x_len = int(np.asarray(signal).size)
        regions: List[Tuple[int, int]] = []
        current_start = None
        quiet_run = 0
        for i, level in enumerate(levels):
            if level >= self.threshold_spl:
                if current_start is None:
                    current_start = i * self.frame_size
                quiet_run = 0
            elif current_start is not None:
                quiet_run += 1
                if quiet_run > self.hangover_frames:
                    end = min((i + 1) * self.frame_size, x_len)
                    regions.append((current_start, end))
                    current_start = None
                    quiet_run = 0
        if current_start is not None:
            regions.append((current_start, x_len))
        return regions
