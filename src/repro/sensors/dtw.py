"""Dynamic Time Warping for motion-trace similarity (paper §V, Alg. 1).

DTW finds the best monotone alignment between two series, so the phone
and watch traces need no clock synchronization — the paper cites
uWave [27] for this property.  Complexity is O(n·m); the paper notes
this is cheap at n ∈ [50, 150].  Warping is unconstrained.

Each score has one implementation, the batched wavefront
(:func:`dtw_distance_batch`, :func:`normalized_dtw_batch`);
:func:`dtw_distance` and :func:`normalized_dtw` are its one-row calls.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import WearLockError


def _check_pairs(X: np.ndarray, Y: np.ndarray) -> None:
    """Validate a ``(batch, n)``/``(batch, m)`` pair stack."""
    if X.ndim != 2 or Y.ndim != 2:
        raise WearLockError("batched DTW inputs must be 2-D (batch, n)")
    if X.shape[0] != Y.shape[0]:
        raise WearLockError("batched DTW inputs must have equal batch size")
    if X.shape[1] == 0 or Y.shape[1] == 0:
        raise WearLockError("DTW inputs must be non-empty")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise WearLockError("DTW inputs must be finite")


def _one_row(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Two 1-D series as a one-row pair stack."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise WearLockError("DTW inputs must be 1-D")
    return x[None, :], y[None, :]


def dtw_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Raw DTW distance between two 1-D series (absolute difference cost).

    The series need not be the same length.  One-row call of
    :func:`dtw_distance_batch`.
    """
    return float(dtw_distance_batch(*_one_row(a, b))[0])


def dtw_distance_batch(
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """Raw DTW distances for a whole batch of same-length pairs at once.

    ``xs`` and ``ys`` have shape ``(batch, n)`` and ``(batch, m)``;
    pair ``k`` is ``(xs[k], ys[k])``.  The dynamic program is evaluated
    as an anti-diagonal wavefront: every cell ``(i, j)`` depends only on
    ``(i-1, j)``, ``(i, j-1)`` and ``(i-1, j-1)``, so all cells on one
    anti-diagonal — across the whole batch — are independent and can be
    filled by vectorized ``minimum``/``add`` steps.  Each cell computes
    ``|x_i - y_j| + min(...)`` over the same three operands as the
    textbook row-by-row loop, so every row is **bit-identical** to that
    loop run on its pair alone, whatever else shares the batch (the
    fleet executor's determinism contract rests on this; the loop lives
    on as the test oracle).  Non-finite inputs are refused.
    """
    X = np.asarray(xs, dtype=np.float64)
    Y = np.asarray(ys, dtype=np.float64)
    _check_pairs(X, Y)
    batch, n = X.shape
    m = Y.shape[1]
    if batch == 0:
        return np.zeros(0)
    cost = np.abs(X[:, :, None] - Y[:, None, :])  # (batch, n, m)
    # Rolling anti-diagonal buffers indexed by ``i`` (0..n): cell
    # ``(i, j)`` of diagonal ``d = i + j`` reads ``(i-1, j)`` and
    # ``(i, j-1)`` from diagonal ``d-1`` (buffer slots ``i-1``/``i``)
    # and ``(i-1, j-1)`` from diagonal ``d-2`` (slot ``i-1``) — all
    # contiguous slices, no 3-D gather/scatter.  Slot values outside a
    # diagonal's valid ``i`` range stay +inf, exactly like the unfilled
    # border of the full accumulator matrix.
    prev2 = np.full((batch, n + 1), np.inf)  # diagonal d-2
    prev1 = np.full((batch, n + 1), np.inf)  # diagonal d-1
    prev2[:, 0] = 0.0  # acc[0, 0] on diagonal d=0; borders stay +inf
    flipped = cost[:, ::-1, :]  # anti-diagonals become np.diagonal views
    for d in range(2, n + m + 1):
        lo = max(1, d - m)
        hi = min(n, d - 1)
        cur = np.full((batch, n + 1), np.inf)
        best = np.minimum(
            np.minimum(prev1[:, lo - 1: hi], prev1[:, lo: hi + 1]),
            prev2[:, lo - 1: hi],
        )
        # ``cost[:, i-1, d-i-1]`` for ``i = lo..hi`` is exactly the
        # anti-diagonal ``ci + cj = d - 2`` of the cost tensor: a
        # diagonal of the row-flipped view, reversed so entries follow
        # ascending ``i``.
        diag = np.diagonal(
            flipped, offset=(d - 2) - (n - 1), axis1=1, axis2=2
        )[:, ::-1]
        cur[:, lo: hi + 1] = diag + best
        prev2 = prev1
        prev1 = cur
    return prev1[:, n]


def normalized_dtw(a: np.ndarray, b: np.ndarray) -> float:
    """DTW distance normalized by path-length scale: score in ~[0, ∞).

    Both inputs are z-normalized first (the paper normalizes magnitude
    traces), and the raw distance is divided by ``n + m`` so scores are
    comparable across window sizes.  Identical series score 0;
    independent unit-variance noise scores around 0.2-0.5.  One-row
    call of :func:`normalized_dtw_batch`.
    """
    return float(normalized_dtw_batch(*_one_row(a, b))[0])


def normalized_dtw_batch(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """:func:`normalized_dtw` of every ``(xs[k], ys[k])`` pair.

    Each row is z-normalized on its own, then all pairs share
    :func:`dtw_distance_batch`'s wavefront.
    """
    from .traces import normalize_trace  # late import avoids cycle

    X = np.asarray(xs, dtype=np.float64)
    Y = np.asarray(ys, dtype=np.float64)
    _check_pairs(X, Y)
    Xn = np.stack([normalize_trace(row) for row in X]) if X.shape[0] else X
    Yn = np.stack([normalize_trace(row) for row in Y]) if Y.shape[0] else Y
    return dtw_distance_batch(Xn, Yn) / (X.shape[1] + Y.shape[1])
