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
from ..dsp.correlation import sliding_normalized_correlation_batch
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

    def scores_batch(self, recordings: np.ndarray) -> np.ndarray:
        """NCC scores for every row of ``recordings`` in one pass.

        Rows must share one length; row ``i`` does not depend on the
        other rows (stacked row FFTs share one plan).
        """
        return sliding_normalized_correlation_batch(
            recordings, self._template
        )

    def detect(self, recording: np.ndarray) -> PreambleMatch:
        """Locate the preamble; raise PreambleNotFoundError below threshold.

        The one-row call of :meth:`detect_rows`.  The returned
        :class:`PreambleMatch` carries the approximate delay profile
        around the peak (squared correlation over a window after the
        main peak), which the NLOS filter turns into an RMS delay
        spread.  Recordings that are not 1-D, or shorter than the
        template, fail with peak score 0.0.
        """
        x = np.asarray(recording, dtype=np.float64)
        if x.ndim != 1:
            raise PreambleNotFoundError(0.0, self._threshold)
        match, peak = self.detect_rows(x[None, :])[0]
        if match is None:
            raise PreambleNotFoundError(peak, self._threshold)
        return match

    def matches_from_scores(
        self, scores: np.ndarray
    ) -> Tuple[Tuple[Optional[PreambleMatch], float], ...]:
        """Finish a whole stack of score traces in one pass.

        Entry ``i`` is ``(match, peak_score)``: ``match`` is ``None``
        where the trace's peak falls below the threshold
        (``peak_score`` is then the score a
        :class:`~repro.errors.PreambleNotFoundError` carries).  The peak
        argmax and the noise-floor median — the two full-trace
        reductions — run batched over the stack; ``np.argmax``/
        ``np.median`` along a row of a C-ordered stack select exactly
        the elements the 1-D calls do.
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

        This is the one detection kernel; :meth:`detect` is its one-row
        call.  Rows too short for the template all fail with peak score
        0.0.
        """
        try:
            return self.matches_from_scores(self.scores_batch(recordings))
        except DspError:
            return ((None, 0.0),) * len(recordings)

    def _delay_profile(
        self, scores: np.ndarray, peak: int, baseline: float
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
        # noise floor (the median ``|score|``), so loud scenes don't
        # masquerade as echoes.
        gate = max(0.25 * segment[0], 3.0 * baseline)
        segment = np.where(segment >= gate, segment, 0.0)
        return segment * segment
