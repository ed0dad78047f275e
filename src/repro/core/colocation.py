"""Ambient-noise co-location detection (the Sound-Proof-style filter).

Paper §V: "the technique used in Sound-Proof is complementary to
WearLock by leveraging the similarity of ambient noise, to eliminate
unnecessary acoustic transmission...  If the ambient noise similarity
is below a threshold, we believe those two devices are not co-located
with a high confidence and then the transmission is aborted."

:class:`AmbientComparator` compares two ambient recordings by the
correlation of their log band powers over quasi-third-octave bands —
two microphones in the same room hear the same spectral fingerprint
(the HVAC hum, the babble, the espresso machine), while rooms apart
decorrelate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..dsp.spectrum import welch_psd_batch
from ..errors import WearLockError


@dataclass
class AmbientComparator:
    """Spectral-fingerprint similarity between two ambient recordings.

    Attributes
    ----------
    sample_rate:
        Sampling rate of both recordings.
    low_hz / high_hz:
        Analysis band.  Sound-Proof uses 50 Hz-4 kHz where ambient
        energy lives; we default to 80 Hz up to just below Nyquist so
        the same comparator serves both of WearLock's bands.
    n_bands:
        Number of log-spaced bands (quasi-third-octave at the default).
    threshold:
        Similarity at/above which the devices are deemed co-located.
    """

    sample_rate: float = 44_100.0
    low_hz: float = 80.0
    high_hz: float = 18_000.0
    n_bands: int = 18
    threshold: float = 0.25

    def __post_init__(self) -> None:
        if not 0 < self.low_hz < self.high_hz <= self.sample_rate / 2:
            raise WearLockError("need 0 < low < high <= Nyquist")
        if self.n_bands < 3:
            raise WearLockError("need at least 3 bands")
        if not -1.0 <= self.threshold <= 1.0:
            raise WearLockError("threshold must be a correlation value")

    def band_profile(self, recording: np.ndarray) -> np.ndarray:
        """Log band-power fingerprint of one recording.

        One-row call of :meth:`band_profile_batch`.
        """
        x = np.asarray(recording, dtype=np.float64)
        if x.ndim != 1 or x.size < 64:
            raise WearLockError(
                "recording must be 1-D with at least 64 samples"
            )
        return self.band_profile_batch(x[None, :])[0]

    def band_profile_batch(self, recordings: np.ndarray) -> np.ndarray:
        """Band-power fingerprints of many equal-length recordings.

        Row ``i`` is the fingerprint of ``recordings[i]``: the log10
        mean Welch PSD in each of the ``n_bands`` log-spaced bands that
        holds at least one PSD bin.  The Welch PSDs run as one stacked
        pass.
        """
        x = np.asarray(recordings, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] < 64:
            raise WearLockError(
                "recordings must be 2-D with at least 64 samples per row"
            )
        freqs, psds = welch_psd_batch(x, self.sample_rate, segment_size=512)
        edges = np.geomspace(self.low_hz, self.high_hz, self.n_bands + 1)
        masks = [
            mask
            for lo, hi in zip(edges[:-1], edges[1:])
            if np.any(mask := (freqs >= lo) & (freqs < hi))
        ]
        if len(masks) < 3:
            raise WearLockError("too few usable bands — recording too short")
        profiles = np.empty((x.shape[0], len(masks)))
        # One reduction per band, all rows at once.  A column-mask
        # gather comes back Fortran-ordered, whose axis-1 reduction
        # rounds differently from a 1-D sum; re-laying the band as
        # C-order gives every row the pairwise summation of
        # ``np.mean(psd[mask])``, whatever the row count.
        for j, mask in enumerate(masks):
            band = np.ascontiguousarray(psds[:, mask])
            profiles[:, j] = np.log10(np.mean(band, axis=1) + 1e-20)
        return profiles

    def similarity_batch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`similarity` of two equal-height stacks.

        The fingerprints are batched; the (cheap, 18-point) correlation
        tail runs per pair.  ``np.corrcoef`` can drift a hair past ±1 by
        float rounding and returns NaN when a profile is near-constant
        *just above* the std guard (the normalization divides by a
        denormal variance), so each score is NaN-mapped to 0.0 ("no
        evidence either way", matching the constant-profile guard) and
        clamped.
        """
        pa = self.band_profile_batch(a)
        pb = self.band_profile_batch(b)
        if pa.shape[0] != pb.shape[0]:
            raise WearLockError(
                "similarity_batch needs the same number of rows in a and b"
            )
        n = min(pa.shape[1], pb.shape[1])
        out = np.zeros(pa.shape[0])
        for i in range(pa.shape[0]):
            ra, rb = pa[i, :n], pb[i, :n]
            if np.std(ra) < 1e-12 or np.std(rb) < 1e-12:
                continue
            r = float(np.corrcoef(ra, rb)[0, 1])
            if np.isfinite(r):
                out[i] = min(1.0, max(-1.0, r))
        return out

    def similarity(self, a: np.ndarray, b: np.ndarray) -> float:
        """Pearson correlation of the two band profiles, in [-1, 1].

        The recordings may differ in length.  One-row call of
        :meth:`similarity_batch`.
        """
        x = np.asarray(a, dtype=np.float64)
        y = np.asarray(b, dtype=np.float64)
        return float(self.similarity_batch(x[None, :], y[None, :])[0])

    def co_located(self, a: np.ndarray, b: np.ndarray) -> Tuple[bool, float]:
        """Decision + score: are these two recordings from one place?"""
        score = self.similarity(a, b)
        return score >= self.threshold, score
