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
        argmax and the delay-profile gates run batched over the stack;
        the noise-floor median behind a gate is taken only for the rows
        where it can win the gate (:func:`_profile_gates`).
        """
        stack = np.asarray(scores, dtype=np.float64)
        if stack.ndim != 2:
            raise DspError("scores must be a 2-D stack of traces")
        if stack.shape[0] == 0:
            return ()
        peaks = np.argmax(stack, axis=1)
        bests = stack[np.arange(stack.shape[0]), peaks]
        # A NaN peak is not below the threshold, so it locks (with the
        # all-zero profile its NaN gate gives).
        locked = np.flatnonzero(~(bests < self._threshold))
        traces = stack if locked.size == stack.shape[0] else stack[locked]
        row_gates = _profile_gates(traces, bests[locked]).tolist()
        gates = dict(zip(locked.tolist(), row_gates))
        out = []
        for row, peak in enumerate(peaks.tolist()):
            best = float(bests[row])
            if row not in gates:
                out.append((None, best))
                continue
            out.append(
                (
                    PreambleMatch(
                        start=peak + self._template.size,
                        score=best,
                        delay_profile=self._delay_profile(
                            stack[row], peak, gate=gates[row]
                        ),
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
        self, scores: np.ndarray, peak: int, gate: float
    ) -> np.ndarray:
        """Approximate power delay profile from the correlation trace.

        Correlation values from the peak onward (echoes arrive after
        the direct path), squared, with everything below ``gate`` (see
        :func:`_profile_gates`) zeroed: values under it are correlation
        noise, not arrivals, and would otherwise smear τ_rms across the
        whole window regardless of the actual channel.  The window is
        one chirp length — the echo horizon the modem's cyclic prefix
        is designed around; later correlation peaks are spurious (noise
        or the following OFDM symbols, which share the band).
        """
        window = min(scores.size - peak, self._template.size // 2)
        segment = np.maximum(scores[peak: peak + window], 0.0)
        if not segment.size:
            return segment
        segment = np.where(segment >= gate, segment, 0.0)
        return segment * segment


def _profile_gates(traces: np.ndarray, best: np.ndarray) -> np.ndarray:
    """The delay-profile gate ``max(rel, 3·median|trace|)`` of every row.

    ``rel = 0.25·max(best, 0)``, ``best`` being the row's peak score.
    Relative part: under LOS the direct tap towers over reflections, so
    arrivals below a quarter of the peak are sidelobes; under NLOS the
    "peak" is itself an echo and its siblings pass the gate, inflating
    τ_rms — which is exactly the signature the detector needs.
    Absolute part: three times the correlation noise floor (the median
    ``|score|``), so loud scenes don't masquerade as echoes.

    The median wins only where ``3·median > rel``.  If more than
    ``n // 2`` entries have ``3·|s| ≤ rel``, both middle order
    statistics do (``3·x`` rounds monotonically), and so does their
    mean, which never exceeds the larger of the two: the gate is
    ``rel`` without a median.  Only the other rows sort
    (:func:`_exact_medians`).  NaN entries never pass the count, and a
    NaN median loses ``max`` to ``rel``, as ``np.median``'s NaN did.
    """
    rel = 0.25 * np.maximum(best, 0.0)
    scaled = np.abs(traces)
    scaled *= 3.0
    quiet = np.count_nonzero(scaled <= rel[:, None], axis=1)
    loud = np.flatnonzero(quiet <= traces.shape[1] // 2)
    if loud.size:
        floors = 3.0 * _exact_medians(np.abs(traces[loud]))
        # Python's ``max(rel, floor)``: ``floor`` only where it is larger.
        rel[loud] = np.where(floors > rel[loud], floors, rel[loud])
    return rel


def _exact_medians(rows: np.ndarray) -> np.ndarray:
    """``np.median(rows, axis=1)``, bit for bit, NaN rows giving NaN.

    The same partition and middle-pair mean, without the NaN check
    that imports ``numpy.ma``.
    """
    n = rows.shape[1]
    half = n // 2
    kth = [half, n - 1] if n % 2 else [half - 1, half, n - 1]
    part = np.partition(rows, kth, axis=1)
    medians = part[:, half - 1 + n % 2: half + 1].mean(axis=1)
    medians[np.isnan(part[:, -1])] = np.nan
    return medians
