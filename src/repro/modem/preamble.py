"""Chirp preamble construction and detection (paper §III-3/4/5).

The preamble is a linear chirp sweeping the signal band.  Detection
slides the known template over the recording with a normalized
cross-correlator; the best lag is the *coarse* frame start, and the
normalized score doubles as the NLOS sanity check (the paper aborts
below a score of 0.05).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..config import ModemConfig
from ..errors import DspError, PreambleNotFoundError
from ..dsp.chirp import linear_chirp
from ..dsp.correlation import (
    sliding_normalized_correlation,
    sliding_normalized_correlation_batch,
)
from ..dsp.plane import KeyedCache

_PREAMBLES = KeyedCache("modem.preamble", maxsize=32)


def preamble_template(
    config: ModemConfig, amplitude: float = 1.0
) -> np.ndarray:
    """The cached, read-only chirp template for ``config``.

    Built once per (length, rate, band, amplitude) key and shared by
    every detector/transmitter on that configuration.  The array is
    write-protected; use :func:`build_preamble` for a mutable copy.
    """
    key = (
        config.preamble_length,
        config.sample_rate,
        config.preamble_band,
        amplitude,
    )

    def build() -> np.ndarray:
        f_lo, f_hi = config.preamble_band
        chirp = linear_chirp(
            length=config.preamble_length,
            sample_rate=config.sample_rate,
            f_start=f_lo,
            f_end=f_hi,
            amplitude=amplitude,
        )
        chirp.setflags(write=False)
        return chirp

    return _PREAMBLES.get(key, build)


def build_preamble(config: ModemConfig, amplitude: float = 1.0) -> np.ndarray:
    """Synthesize the chirp preamble described by ``config``."""
    return preamble_template(config, amplitude).copy()


@dataclass(frozen=True)
class PreambleMatch:
    """Result of a successful preamble search."""

    start: int
    score: float
    delay_profile: np.ndarray

    @property
    def frame_start(self) -> int:
        """First sample *after* the preamble."""
        return self.start


class PreambleDetector:
    """Sliding-correlator preamble detector.

    Parameters
    ----------
    config:
        Modem configuration (defines the chirp and the threshold).
    threshold:
        Override for the NCC acceptance threshold; defaults to
        ``config.detection_threshold`` (paper: 0.05).
    template:
        Pre-built chirp template to share (must equal
        ``preamble_template(config)``); defaults to the cached template.
    """

    def __init__(
        self,
        config: ModemConfig,
        threshold: Optional[float] = None,
        template: Optional[np.ndarray] = None,
    ):
        self._config = config
        self._template = (
            template if template is not None else preamble_template(config)
        )
        self._threshold = (
            threshold if threshold is not None else config.detection_threshold
        )

    @property
    def template(self) -> np.ndarray:
        """The reference chirp (a copy, callers can't corrupt state)."""
        return self._template.copy()

    @property
    def threshold(self) -> float:
        return self._threshold

    def scores(self, recording: np.ndarray) -> np.ndarray:
        """NCC score at every lag of ``recording``."""
        return sliding_normalized_correlation(recording, self._template)

    def scores_batch(self, recordings: np.ndarray) -> np.ndarray:
        """NCC scores for every row of ``recordings`` in one pass.

        Row ``i`` equals ``scores(recordings[i])`` bit-for-bit (stacked
        row FFTs share the 1-D plan).  Rows must share one length.
        """
        return sliding_normalized_correlation_batch(
            recordings, self._template
        )

    def detect(self, recording: np.ndarray) -> PreambleMatch:
        """Locate the preamble; raise PreambleNotFoundError below threshold.

        The returned :class:`PreambleMatch` carries the approximate
        delay profile around the peak (squared correlation over a window
        after the main peak), which the NLOS filter turns into an RMS
        delay spread.
        """
        x = np.asarray(recording, dtype=np.float64)
        if x.size < self._template.size:
            raise PreambleNotFoundError(0.0, self._threshold)
        try:
            scores = self.scores(x)
        except DspError:
            raise PreambleNotFoundError(0.0, self._threshold) from None
        return self.match_from_scores(scores)

    def match_from_scores(self, scores: np.ndarray) -> PreambleMatch:
        """Turn one score trace into a :class:`PreambleMatch`.

        The thresholding/peak/delay-profile tail of :meth:`detect`,
        split out so batched callers can score many recordings in one
        stacked correlation and finish each row here.  Raises
        :class:`PreambleNotFoundError` below the threshold, exactly as
        :meth:`detect` does.
        """
        peak = int(np.argmax(scores))
        best = float(scores[peak])
        if best < self._threshold:
            raise PreambleNotFoundError(best, self._threshold)

        profile = self._delay_profile(scores, peak)
        return PreambleMatch(
            start=peak + self._template.size,
            score=best,
            delay_profile=profile,
        )

    def matches_from_scores(
        self, scores: np.ndarray
    ) -> Tuple[Tuple[Optional[PreambleMatch], float], ...]:
        """Finish a whole stack of score traces in one pass.

        Entry ``i`` is ``(match, peak_score)`` where ``match`` equals
        ``match_from_scores(scores[i])`` bit-for-bit and is ``None``
        where that call would have raised
        :class:`~repro.errors.PreambleNotFoundError` (``peak_score`` is
        then the score the exception would carry).  The peak argmax and
        the noise-floor median — the two full-trace reductions — run
        batched over the stack; ``np.argmax``/``np.median`` along a row
        of a C-ordered stack select exactly the elements the 1-D calls
        do.
        """
        stack = np.asarray(scores, dtype=np.float64)
        if stack.ndim != 2:
            raise DspError("scores must be a 2-D stack of traces")
        if stack.shape[0] == 0:
            return ()
        peaks = np.argmax(stack, axis=1)
        # The noise-floor median only feeds the delay profile, which
        # below-threshold rows never build — so run the (partition-
        # heavy) median over the locked rows only.
        locked = [
            row
            for row in range(stack.shape[0])
            if float(stack[row, peaks[row]]) >= self._threshold
        ]
        baselines = dict(
            zip(locked, np.median(np.abs(stack[locked]), axis=1))
        ) if locked else {}
        out = []
        for row in range(stack.shape[0]):
            peak = int(peaks[row])
            best = float(stack[row, peak])
            if best < self._threshold:
                out.append((None, best))
                continue
            profile = self._delay_profile(
                stack[row], peak, baseline=float(baselines[row])
            )
            out.append(
                (
                    PreambleMatch(
                        start=peak + self._template.size,
                        score=best,
                        delay_profile=profile,
                    ),
                    best,
                )
            )
        return tuple(out)

    def detect_rows(
        self, recordings: np.ndarray
    ) -> Tuple[Tuple[Optional[PreambleMatch], float], ...]:
        """:meth:`matches_from_scores` of a stack of equal-length rows.

        Rows too short for the template all fail with peak score 0.0,
        exactly as :meth:`detect` reports them.
        """
        try:
            return self.matches_from_scores(self.scores_batch(recordings))
        except DspError:
            return ((None, 0.0),) * len(recordings)

    def _delay_profile(
        self,
        scores: np.ndarray,
        peak: int,
        baseline: Optional[float] = None,
    ) -> np.ndarray:
        """Approximate power delay profile from the correlation trace.

        Correlation values from the peak onward (echoes arrive after
        the direct path), squared, with the noise floor gated out:
        values below 15% of the peak are correlation noise, not
        arrivals, and would otherwise smear τ_rms across the whole
        window regardless of the actual channel.  The window is one
        chirp length — the echo horizon the modem's cyclic prefix is
        designed around; later correlation peaks are spurious (noise or
        the following OFDM symbols, which share the band).
        """
        window = min(scores.size - peak, self._template.size // 2)
        segment = np.maximum(scores[peak: peak + window], 0.0)
        if not segment.size:
            return segment
        # Two-part gate.  Relative part: under LOS the direct tap towers
        # over reflections, so arrivals below a quarter of the peak are
        # sidelobes; under NLOS the "peak" is itself an echo and its
        # siblings pass the gate, inflating τ_rms — which is exactly the
        # signature the detector needs.  Absolute part: the correlation
        # noise floor, so loud scenes don't masquerade as echoes.
        if baseline is None:
            baseline = float(np.median(np.abs(scores)))
        gate = max(0.25 * segment[0], 3.0 * baseline)
        segment = np.where(segment >= gate, segment, 0.0)
        return segment * segment

    def detect_all(
        self, recording: np.ndarray, min_gap: Optional[int] = None
    ) -> Tuple[PreambleMatch, ...]:
        """Find every preamble occurrence (for multi-packet recordings).

        Peaks closer than ``min_gap`` samples (default: one preamble
        length) to a stronger peak are suppressed.
        """
        x = np.asarray(recording, dtype=np.float64)
        if x.size < self._template.size:
            return ()
        gap = min_gap if min_gap is not None else self._template.size
        scores = self.scores(x)
        order = np.argsort(scores)[::-1]
        kept = []
        for idx in order:
            if scores[idx] < self._threshold:
                break
            if all(abs(idx - k) >= gap for k in kept):
                kept.append(int(idx))
        matches = []
        for peak in sorted(kept):
            matches.append(
                PreambleMatch(
                    start=peak + self._template.size,
                    score=float(scores[peak]),
                    delay_profile=self._delay_profile(scores, peak),
                )
            )
        return tuple(matches)
