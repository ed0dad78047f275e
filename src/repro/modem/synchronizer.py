"""Time synchronization: coarse via preamble, fine via cyclic prefix.

Coarse synchronization happens as a side effect of preamble detection
(the NCC peak lag).  Fine synchronization implements the paper's eq. (2):
around the nominal symbol position, slide a window and find the offset
where the cyclic prefix best matches the symbol tail — the CP is a copy
of the body's last samples, so their correlation peaks at perfect
alignment even under residual clock skew and reverberation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from ..config import ModemConfig
from ..errors import SynchronizationError
from .frame import FrameLayout
from .preamble import PreambleDetector, PreambleMatch


#: Width of the re-scoring band in :func:`fine_sync_offset`.  The
#: strided batch scores differ from the sequential ``np.dot`` scores by
#: summation order only (≲1e-13 relative); any candidate whose exact
#: score could tie the exact maximum lies within this much of the batch
#: maximum, so re-scoring just that band with the original arithmetic
#: provably reproduces the sequential selection.
_FINE_SYNC_SCORE_BAND = 1e-9


def fine_sync_offset(
    signal: np.ndarray,
    cp_start: int,
    config: ModemConfig,
    search_range: int = 32,
) -> int:
    """Best fine-sync offset ``tf`` in ``[-search_range, +search_range]``.

    Maximizes the normalized correlation between the CP window and the
    window one FFT-size later (the symbol tail) — the sliding-window
    matching of eq. (2).  Returns 0 when the search window falls outside
    the signal (callers keep the coarse estimate).

    All candidate scores are computed in one strided batch; the few
    candidates within :data:`_FINE_SYNC_SCORE_BAND` of the batch maximum
    are then re-scored with the sequential per-candidate arithmetic, so
    the returned offset is bit-identical to the original scalar loop
    (first strict maximum in ascending ``tf`` order).
    """
    x = np.asarray(signal, dtype=np.float64)
    n = config.fft_size
    cp = config.cp_length
    if cp == 0:
        return 0
    offsets = np.arange(-search_range, search_range + 1)
    starts = cp_start + offsets
    valid = (starts >= 0) & (starts + n + cp <= x.size)
    if not np.any(valid):
        return 0
    cand = offsets[valid]
    starts = starts[valid]
    lo = int(starts[0])
    seg = x[lo: int(starts[-1]) + n + cp]
    windows = np.lib.stride_tricks.sliding_window_view(seg, cp)
    heads = windows[starts - lo]
    tails = windows[starts - lo + n]
    # he/te are sums of squares: zero in the batch iff zero in the
    # sequential loop (non-negative terms cannot cancel), so the skip
    # conditions agree exactly even though the sums round differently.
    he = np.einsum("ij,ij->i", heads, heads)
    te = np.einsum("ij,ij->i", tails, tails)
    ok = (he > 0.0) & (te > 0.0)
    if not np.any(ok):
        return 0
    num = np.einsum("ij,ij->i", heads, tails)
    scores = np.full(cand.size, -np.inf)
    scores[ok] = num[ok] / np.sqrt(he[ok] * te[ok])
    vmax = float(scores.max())
    band = np.flatnonzero(
        scores >= vmax - _FINE_SYNC_SCORE_BAND * max(1.0, abs(vmax))
    )
    best_offset = 0
    best_score = -np.inf
    for i in band:
        tf = int(cand[i])
        a0 = cp_start + tf
        head = x[a0: a0 + cp]
        tail = x[a0 + n: a0 + n + cp]
        he_exact = float(np.dot(head, head))
        te_exact = float(np.dot(tail, tail))
        if he_exact <= 0.0 or te_exact <= 0.0:
            continue
        score = float(np.dot(head, tail)) / np.sqrt(he_exact * te_exact)
        if score > best_score:
            best_score = score
            best_offset = tf
    return best_offset


def _select_exact(
    x: np.ndarray,
    anchor: int,
    lo: int,
    scores: np.ndarray,
    n: int,
    cp: int,
) -> int:
    """Band + exact re-score selection shared by the batch paths.

    The approximate batch ``scores`` only nominate candidates; the
    returned offset comes from the sequential ``np.dot`` arithmetic, so
    it is independent of how the batch scores were accumulated.
    """
    vmax = float(scores.max())
    band = np.flatnonzero(
        scores >= vmax - _FINE_SYNC_SCORE_BAND * max(1.0, abs(vmax))
    )
    best_offset = 0
    best_score = -np.inf
    for i in band:
        tf = lo + int(i)
        a0 = anchor + tf
        head = x[a0: a0 + cp]
        tail = x[a0 + n: a0 + n + cp]
        he_exact = float(np.dot(head, head))
        te_exact = float(np.dot(tail, tail))
        if he_exact <= 0.0 or te_exact <= 0.0:
            continue
        score = float(np.dot(head, tail)) / np.sqrt(he_exact * te_exact)
        if score > best_score:
            best_score = score
            best_offset = tf
    return best_offset


def fine_sync_offsets_batch(
    signal: np.ndarray,
    cp_starts: "np.ndarray",
    config: ModemConfig,
    search_range: int = 32,
) -> np.ndarray:
    """Batched :func:`fine_sync_offset` over many coarse CP starts.

    Entry ``i`` equals ``fine_sync_offset(signal, cp_starts[i], ...)``
    bit-for-bit: the symbols of a frame search independently, so their
    candidate scores stack into one ``(n_symbols, n_candidates)`` batch,
    and each row goes through the same band + exact-re-score selection
    as the single-start version.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = config.fft_size
    cp = config.cp_length
    anchors = np.asarray(cp_starts, dtype=np.intp)
    out = np.zeros(anchors.size, dtype=int)
    if cp == 0 or anchors.size == 0 or x.size < n + cp:
        return out
    # One strided window table over the whole recording; each symbol's
    # candidate windows are rows of it.
    windows = np.lib.stride_tricks.sliding_window_view(x, cp)
    last_start = x.size - n - cp

    def _select(anchor: int, lo: int, scores: np.ndarray) -> int:
        return _select_exact(x, anchor, lo, scores, n, cp)

    def _scores(he: np.ndarray, te: np.ndarray, num: np.ndarray):
        # he/te are sums of squares: zero in the batch iff zero in the
        # sequential loop (non-negative terms cannot cancel), so the
        # skip conditions agree exactly even though the sums round
        # differently.
        if he.min() > 0.0 and te.min() > 0.0:
            return num / np.sqrt(he * te)
        ok = (he > 0.0) & (te > 0.0)
        if not np.any(ok):
            return None
        scores = np.full(he.size, -np.inf)
        scores[ok] = num[ok] / np.sqrt(he[ok] * te[ok])
        return scores

    # A candidate start ``anchor + tf`` is valid iff it lies in
    # ``[0, last_start]``; the valid ``tf`` form one contiguous run.
    los = np.maximum(-search_range, -anchors)
    his = np.minimum(search_range, last_start - anchors)
    # Interior symbols — almost all of them — see the full candidate
    # range, so their window gathers share one shape and their energy/
    # correlation reductions stack into three einsum calls per frame
    # instead of three per symbol.
    full = np.flatnonzero(
        (los == -search_range) & (his == search_range)
    )
    if full.size:
        k = 2 * search_range + 1
        idx = (anchors[full] - search_range)[:, None] + np.arange(k)
        heads = windows[idx]
        tails = windows[idx + n]
        he = np.einsum("ski,ski->sk", heads, heads)
        te = np.einsum("ski,ski->sk", tails, tails)
        num = np.einsum("ski,ski->sk", heads, tails)
        for row, s in enumerate(full):
            scores = _scores(he[row], te[row], num[row])
            if scores is not None:
                out[s] = _select(int(anchors[s]), -search_range, scores)
    for s in np.flatnonzero((los != -search_range) | (his != search_range)):
        anchor = int(anchors[s])
        lo = int(los[s])
        hi = int(his[s])
        if hi < lo:
            continue
        s0 = anchor + lo
        k = hi - lo + 1
        heads = windows[s0: s0 + k]
        tails = windows[s0 + n: s0 + n + k]
        he = np.einsum("ij,ij->i", heads, heads)
        te = np.einsum("ij,ij->i", tails, tails)
        num = np.einsum("ij,ij->i", heads, tails)
        scores = _scores(he, te, num)
        if scores is not None:
            out[s] = _select(anchor, lo, scores)
    return out


def fine_sync_offsets_rows(
    signals: np.ndarray,
    cp_starts: np.ndarray,
    config: ModemConfig,
    search_range: int = 32,
) -> np.ndarray:
    """Batched :func:`fine_sync_offsets_batch` across equal-length rows.

    Entry ``(r, s)`` equals
    ``fine_sync_offset(signals[r], cp_starts[r, s], ...)`` bit-for-bit.
    The frames of a staged wave search independently, so the candidate
    energy/correlation reductions of *every* frame's symbol ``s`` stack
    into three einsum calls — three per symbol position instead of
    three per frame.  Selection reuses the band + exact-re-score rule:
    when the nomination band holds a single candidate it must be the
    unique exact maximizer (every exact tie of the exact maximum lands
    inside the band by construction), so it is picked vectorized; wider
    bands fall back to the per-candidate ``np.dot`` arithmetic, and
    rows whose anchors clip the search window anywhere delegate to the
    per-frame function wholesale.
    """
    xs = np.asarray(signals, dtype=np.float64)
    anchors = np.asarray(cp_starts, dtype=np.intp)
    if xs.ndim != 2 or anchors.ndim != 2 or anchors.shape[0] != xs.shape[0]:
        raise SynchronizationError(
            "signals must be 2-D with one row of cp_starts per signal row"
        )
    out = np.zeros(anchors.shape, dtype=int)
    n = config.fft_size
    cp = config.cp_length
    width = xs.shape[1]
    if cp == 0 or anchors.size == 0 or width < n + cp:
        return out
    last_start = width - n - cp
    interior = (
        (anchors >= search_range) & (anchors <= last_start - search_range)
    ).all(axis=1)
    for r in np.flatnonzero(~interior):
        out[r] = fine_sync_offsets_batch(
            xs[r], anchors[r], config, search_range=search_range
        )
    fast = np.flatnonzero(interior)
    if not fast.size:
        return out
    windows = np.lib.stride_tricks.sliding_window_view(xs, cp, axis=1)
    k = 2 * search_range + 1
    taus = np.arange(k)
    rows3 = fast[:, None]
    # One symbol position at a time bounds the gather working set to
    # ``frames * candidates * cp_length`` samples.
    for s in range(anchors.shape[1]):
        idx = (anchors[fast, s] - search_range)[:, None] + taus
        heads = windows[rows3, idx]
        tails = windows[rows3, idx + n]
        he = np.einsum("fki,fki->fk", heads, heads)
        te = np.einsum("fki,fki->fk", tails, tails)
        num = np.einsum("fki,fki->fk", heads, tails)
        # he/te are sums of squares: zero in the batch iff zero in the
        # sequential loop, so the skip conditions agree exactly.
        ok = (he > 0.0) & (te > 0.0)
        scores = np.full(he.shape, -np.inf)
        scores[ok] = num[ok] / np.sqrt(he[ok] * te[ok])
        vmax = scores.max(axis=1)
        with np.errstate(invalid="ignore"):
            # An all-invalid row has ``vmax = -inf`` and a NaN
            # threshold: no candidate passes, the offset stays 0 —
            # exactly the per-frame no-scores short-circuit.
            thresh = vmax - _FINE_SYNC_SCORE_BAND * np.maximum(
                1.0, np.abs(vmax)
            )
            band = scores >= thresh[:, None]
        counts = band.sum(axis=1)
        single = counts == 1
        out[fast[single], s] = band.argmax(axis=1)[single] - search_range
        for f in np.flatnonzero(counts > 1):
            r = int(fast[f])
            out[r, s] = _select_exact(
                xs[r], int(anchors[r, s]), -search_range, scores[f], n, cp
            )
    return out


@dataclass(frozen=True)
class SymbolTiming:
    """Resolved timing of one OFDM symbol within a recording."""

    index: int
    body_start: int
    fine_offset: int


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

    def symbol_timings(
        self,
        recording: np.ndarray,
        match: PreambleMatch,
        layout: FrameLayout,
    ) -> Iterator[SymbolTiming]:
        """Yield fine-adjusted timing for each symbol of the frame."""
        x = np.asarray(recording, dtype=np.float64)
        frame_anchor = match.start - layout.preamble_length
        cp_starts = [
            frame_anchor + int(nominal)
            for nominal in layout.symbol_offsets()
        ]
        if self._fine and self._config.cp_length:
            fine = fine_sync_offsets_batch(
                x, cp_starts, self._config,
                search_range=self._search_range,
            )
        else:
            fine = np.zeros(len(cp_starts), dtype=int)
        for i, cp_start in enumerate(cp_starts):
            offset = int(fine[i])
            body_start = cp_start + offset + layout.cp_length
            if body_start + layout.fft_size > x.size:
                raise SynchronizationError(
                    f"symbol {i} body [{body_start}, "
                    f"{body_start + layout.fft_size}) exceeds recording "
                    f"of {x.size} samples"
                )
            yield SymbolTiming(
                index=i, body_start=body_start, fine_offset=offset
            )

    def extract_bodies_rows(
        self,
        recordings: np.ndarray,
        matches: "Tuple[Optional[PreambleMatch], ...]",
        layout: FrameLayout,
    ) -> list:
        """Batched :meth:`extract_bodies` over equal-length recordings.

        Entry ``i`` is what ``extract_bodies(recordings[i], matches[i],
        layout)`` produces bit-for-bit: the ``(bodies, offsets)`` pair
        on success, the *exception instance* that call would raise on
        failure (returned, not raised, so each caller keeps its own
        tolerance — the receiver drops the frame, the prober scores it
        at zero bodies), or ``None`` where ``matches[i]`` is ``None``.
        Fine synchronization for every locked frame runs through one
        :func:`fine_sync_offsets_rows` call; rows whose resolved bodies
        would fall outside the recording delegate to the scalar method
        wholesale.
        """
        xs = np.asarray(recordings, dtype=np.float64)
        if xs.ndim != 2:
            raise SynchronizationError("recordings must be 2-D")
        out: list = [None] * len(matches)
        live = [i for i, m in enumerate(matches) if m is not None]
        if not live:
            return out
        sub = xs[live]
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
        good = (body_starts >= 0).all(axis=1) & (
            body_starts + layout.fft_size <= xs.shape[1]
        ).all(axis=1)
        for j in np.flatnonzero(~good):
            try:
                out[live[j]] = self.extract_bodies(
                    sub[j], matches[live[j]], layout
                )
            except Exception as exc:
                # Stored without its traceback: the traceback would pin
                # the callers' frames (and their batch matrices) in a
                # reference cycle until the cyclic collector runs.
                out[live[j]] = exc.with_traceback(None)
        if good.any():
            bview = np.lib.stride_tricks.sliding_window_view(
                sub, layout.fft_size, axis=1
            )
            for j in np.flatnonzero(good):
                out[live[j]] = (
                    bview[j, body_starts[j]],
                    tuple(int(v) for v in fine[j]),
                )
        return out

    def extract_bodies(
        self,
        recording: np.ndarray,
        match: PreambleMatch,
        layout: FrameLayout,
    ) -> Tuple[np.ndarray, Tuple[int, ...]]:
        """Return stacked symbol bodies and the fine offsets used."""
        x = np.asarray(recording, dtype=np.float64)
        bodies = np.empty((layout.n_symbols, layout.fft_size))
        offsets = []
        for timing in self.symbol_timings(x, match, layout):
            bodies[timing.index] = x[
                timing.body_start: timing.body_start + layout.fft_size
            ]
            offsets.append(timing.fine_offset)
        return bodies, tuple(offsets)
