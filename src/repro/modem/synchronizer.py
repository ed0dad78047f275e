"""Time synchronization: coarse via preamble, fine via cyclic prefix.

Coarse synchronization happens as a side effect of preamble detection
(the NCC peak lag).  Fine synchronization implements the paper's eq. (2):
around the nominal symbol position, slide a window and find the offset
where the cyclic prefix best matches the symbol tail — the CP is a copy
of the body's last samples, so their correlation peaks at perfect
alignment even under residual clock skew and reverberation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from ..config import ModemConfig
from ..errors import SynchronizationError
from .frame import FrameLayout
from .preamble import PreambleDetector, PreambleMatch


#: Width of the nomination band in :func:`fine_sync_offsets_rows`.  The
#: batched window sums differ from the sequential ``np.dot`` scores by
#: summation order only (≲1e-13 relative); any candidate whose exact
#: score could tie the exact maximum lies within this much of the batch
#: maximum, so re-scoring just that band with the original arithmetic
#: provably reproduces the sequential selection.
_FINE_SYNC_SCORE_BAND = 1e-9

#: (frame, symbol) pairs scored per chunk in
#: :func:`fine_sync_offsets_rows`: bounds the working set to about
#: ``5 * pairs * (2 * search_range + cp_length)`` samples.
_FINE_SYNC_CHUNK = 64


@lru_cache(maxsize=8)
def _window_matrix(search_range: int, cp: int) -> np.ndarray:
    """``(span, candidates)`` 0/1 matrix: column ``k`` sums the ``cp``
    samples of candidate ``k``'s window within a span."""
    lag = np.arange(2 * search_range + cp)[:, None] - np.arange(
        2 * search_range + 1
    )
    windows = ((lag >= 0) & (lag < cp)).astype(np.float64)
    windows.setflags(write=False)
    return windows


def _select_exact(
    x: np.ndarray, anchor: int, taus: np.ndarray, n: int, cp: int
) -> int:
    """Exact re-score of the nominated offsets ``taus`` (ascending).

    The batch scores only nominate candidates; the returned offset
    comes from the sequential per-candidate ``np.dot`` arithmetic (first
    strict maximum in ascending order), so it is independent of how the
    batch scores were accumulated.
    """
    best_offset = 0
    best_score = -np.inf
    for tf in taus:
        a0 = anchor + int(tf)
        head = x[a0: a0 + cp]
        tail = x[a0 + n: a0 + n + cp]
        he = float(np.dot(head, head))
        te = float(np.dot(tail, tail))
        if he <= 0.0 or te <= 0.0:
            continue
        score = float(np.dot(head, tail)) / np.sqrt(he * te)
        if score > best_score:
            best_score = score
            best_offset = int(tf)
    return best_offset


def fine_sync_offsets_rows(
    signals: np.ndarray,
    cp_starts: np.ndarray,
    config: ModemConfig,
    search_range: int = 32,
) -> np.ndarray:
    """Fine-sync offset (eq. 2) for every coarse CP start of every row.

    Entry ``(r, s)`` is the ``tf`` in ``[-search_range, +search_range]``
    that maximizes the normalized correlation between the
    CP window at ``cp_starts[r, s] + tf`` of ``signals[r]`` and the
    window one FFT-size later (the symbol tail) — the sliding-window
    matching of eq. (2).  It is 0 when no candidate window lies inside
    the signal and carries energy (callers keep the coarse estimate).
    Each entry equals the sequential per-candidate loop
    (``reference_fine_sync_offset`` in ``tests/modem_oracle.py``, first
    strict maximum in ascending ``tf`` order) bit-for-bit.

    Every (frame, symbol) pair is scored in one flat pass,
    :data:`_FINE_SYNC_CHUNK` pairs at a time; candidates outside the
    signal or without energy score ``-inf`` and never nominate.
    A pair whose band (within :data:`_FINE_SYNC_SCORE_BAND` of its
    maximum) holds one candidate takes it — every exact tie of the
    exact maximum lands inside the band by construction, so a lone
    candidate is the unique exact maximizer — and wider bands are
    re-scored by :func:`_select_exact`.
    """
    xs = np.asarray(signals, dtype=np.float64)
    anchors = np.asarray(cp_starts, dtype=np.intp)
    if xs.ndim != 2 or anchors.ndim != 2 or anchors.shape[0] != xs.shape[0]:
        raise SynchronizationError(
            "signals must be 2-D with one row of cp_starts per signal row"
        )
    out = np.zeros(anchors.size, dtype=int)
    n = config.fft_size
    cp = config.cp_length
    last_start = xs.shape[1] - n - cp
    if cp == 0 or anchors.size == 0 or last_start < 0:
        return out.reshape(anchors.shape)
    # A pair's candidate heads all lie in one span of
    # ``2 * search_range + cp`` samples and its tails in the span ``n``
    # later, so each chunk gathers just those two spans per pair,
    # clipped into the pair's own row, and sums every candidate's
    # products with one band-matrix product.  Out-of-range candidates
    # read clipped samples and are masked below; in-range ones never
    # touch a clipped sample.
    width = xs.shape[1]
    flat = np.ascontiguousarray(xs).reshape(-1)
    taus = np.arange(-search_range, search_range + 1)
    spans = np.array([0, n])[:, None] + np.arange(2 * search_range + cp)
    windows = _window_matrix(search_range, cp)
    pair_rows = np.repeat(np.arange(xs.shape[0]) * width, anchors.shape[1])
    pair_anchors = anchors.reshape(-1)
    for lo in range(0, pair_anchors.size, _FINE_SYNC_CHUNK):
        chunk = slice(lo, lo + _FINE_SYNC_CHUNK)
        starts = pair_anchors[chunk, None] + taus
        idx = np.clip(starts[:, :1, None] + spans, 0, width - 1)
        ends = flat[idx + pair_rows[chunk, None, None]]
        heads, tails = ends[:, 0], ends[:, 1]
        he = (heads * heads) @ windows
        te = (tails * tails) @ windows
        num = (heads * tails) @ windows
        inside = (starts >= 0) & (starts <= last_start)
        ok = inside & (he > 0.0) & (te > 0.0)
        scores = np.full(he.shape, -np.inf)
        scores[ok] = num[ok] / np.sqrt(he[ok] * te[ok])
        vmax = scores.max(axis=1)
        tolerance = _FINE_SYNC_SCORE_BAND * np.maximum(1.0, np.abs(vmax))
        band = ok & (scores >= (vmax - tolerance)[:, None])
        counts = band.sum(axis=1)
        single = np.flatnonzero(counts == 1)
        out[lo + single] = taus[band[single].argmax(axis=1)]
        for p in np.flatnonzero(counts > 1):
            out[lo + p] = _select_exact(
                xs[(lo + p) // anchors.shape[1]],
                int(pair_anchors[lo + p]), taus[band[p]], n, cp,
            )
    return out.reshape(anchors.shape)


class Synchronizer:
    """Locates frames and walks their symbols with fine timing.

    Parameters
    ----------
    config:
        Modem configuration.
    fine:
        Enable CP-based fine synchronization (ablation switch; the
        paper's design includes it).
    search_range:
        Fine-search half-width τ in samples.
    detector:
        Optional pre-built preamble detector (shared across calls).
    """

    def __init__(
        self,
        config: ModemConfig,
        fine: bool = True,
        search_range: int = 24,
        detector: Optional[PreambleDetector] = None,
    ):
        if search_range < 0:
            raise SynchronizationError("search_range must be non-negative")
        self._config = config
        self._fine = fine
        self._search_range = search_range
        self._detector = detector or PreambleDetector(config)

    @property
    def detector(self) -> PreambleDetector:
        return self._detector

    def locate(self, recording: np.ndarray) -> PreambleMatch:
        """Find the frame's preamble (coarse synchronization)."""
        return self._detector.detect(recording)

    def extract_bodies_rows(
        self,
        recordings: np.ndarray,
        matches: "Sequence[Optional[PreambleMatch]]",
        layout: FrameLayout,
    ) -> list:
        """Fine-synced symbol bodies of many equal-length recordings.

        Entry ``i`` is the ``(bodies, offsets)`` pair of
        ``recordings[i]`` — the stacked ``(n_symbols, fft_size)`` bodies
        and the fine offsets used — or ``None`` where ``matches[i]`` is
        ``None``.  A frame whose bodies run outside the recording gets
        the :class:`~repro.errors.SynchronizationError` instance instead
        (returned, not raised, so each caller keeps its own tolerance:
        the receiver fails the frame, the prober scores it at zero
        bodies).  Fine synchronization for every locked frame runs
        through one :func:`fine_sync_offsets_rows` call.
        """
        xs = np.asarray(recordings, dtype=np.float64)
        if xs.ndim != 2:
            raise SynchronizationError("recordings must be 2-D")
        out: list = [None] * len(matches)
        live = [i for i, m in enumerate(matches) if m is not None]
        if not live:
            return out
        sub = xs if len(live) == xs.shape[0] else xs[live]
        anchors = (
            np.array([matches[i].start for i in live], dtype=np.intp)[
                :, None
            ]
            - layout.preamble_length
            + layout.symbol_offsets()[None, :]
        )
        if self._fine and self._config.cp_length:
            fine = fine_sync_offsets_rows(
                sub, anchors, self._config,
                search_range=self._search_range,
            )
        else:
            fine = np.zeros(anchors.shape, dtype=int)
        body_starts = anchors + fine + layout.cp_length
        width = xs.shape[1]
        outside = (body_starts < 0) | (body_starts + layout.fft_size > width)
        failed = outside.any(axis=1)
        body = np.arange(layout.fft_size)
        for j, i in enumerate(live):
            if failed[j]:
                s = int(np.argmax(outside[j]))
                start = int(body_starts[j, s])
                out[i] = SynchronizationError(
                    f"symbol {s} body [{start}, "
                    f"{start + layout.fft_size}) exceeds recording "
                    f"of {width} samples"
                )
            else:
                out[i] = (
                    sub[j, body_starts[j][:, None] + body],
                    tuple(fine[j].tolist()),
                )
        return out

    def extract_bodies(
        self,
        recording: np.ndarray,
        match: PreambleMatch,
        layout: FrameLayout,
    ) -> Tuple[np.ndarray, Tuple[int, ...]]:
        """Return stacked symbol bodies and the fine offsets used.

        The one-row call of :meth:`extract_bodies_rows`; raises
        :class:`~repro.errors.SynchronizationError` if a body runs past
        the end of the recording.
        """
        x = np.asarray(recording, dtype=np.float64)
        res = self.extract_bodies_rows(x[None, :], (match,), layout)[0]
        if isinstance(res, Exception):
            raise res
        return res
