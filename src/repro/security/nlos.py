"""NLOS (body-blocking) detection from the preamble delay profile.

Paper §III-7, "NLOS filtering": after cross-correlating the received
chirp preamble, (1) a maximum normalized score below 0.05 aborts the
transmission outright; (2) otherwise the RMS delay spread τ_rms of the
approximate delay profile is computed, and a value beyond τ* indicates
severe body blocking.  The protocol can then abort, or relax the
required BER (the §VI case study relaxes MaxBER from 0.1 to 0.25 for
NLOS cases).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel.multipath import rms_delay_spread
from ..errors import SecurityError


@dataclass(frozen=True)
class NlosVerdict:
    """Outcome of NLOS analysis on one preamble."""

    score: float
    tau_rms: float
    preamble_ok: bool
    nlos: bool


class NlosDetector:
    """Classifies a preamble match as LOS / NLOS / no-signal.

    Parameters
    ----------
    score_threshold:
        Minimum acceptable normalized cross-correlation score
        (paper: 0.05).
    tau_threshold:
        τ* — RMS delay spread (seconds) above which the path is deemed
        blocked.  With the short-range channel model, LOS spreads sit
        well below a millisecond while blocked paths (direct tap
        suppressed, energy in the tail) rise past it.
    """

    def __init__(
        self,
        score_threshold: float = 0.05,
        tau_threshold: float = 4.0e-4,
    ):
        if score_threshold <= 0:
            raise SecurityError("score_threshold must be positive")
        if tau_threshold <= 0:
            raise SecurityError("tau_threshold must be positive")
        self._score_threshold = score_threshold
        self._tau_threshold = tau_threshold

    @property
    def tau_threshold(self) -> float:
        return self._tau_threshold

    def classify(
        self,
        score: float,
        delay_profile: np.ndarray,
        sample_rate: float,
    ) -> NlosVerdict:
        """Classify one preamble detection result."""
        if score < self._score_threshold:
            return NlosVerdict(
                score=score,
                tau_rms=float("inf"),
                preamble_ok=False,
                nlos=True,
            )
        tau = rms_delay_spread(delay_profile, sample_rate)
        return NlosVerdict(
            score=score,
            tau_rms=tau,
            preamble_ok=True,
            nlos=tau > self._tau_threshold,
        )
