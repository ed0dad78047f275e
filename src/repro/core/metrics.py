"""Aggregation of unlock outcomes into the paper's reported metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from ..errors import WearLockError
from ..protocol.session import UnlockOutcome


def _finite_values(values: Sequence[float], what: str) -> np.ndarray:
    """Drop ``None`` entries and build the float array every stats
    constructor reduces.

    Outcome streams legitimately interleave measured and absent values
    (a session that aborts before Phase 2 has no BER; a staged record
    can carry ``raw_ber=None``), so all ``from_values`` constructors
    share one convention: ``None`` is "not measured", never a crash.
    """
    v = [x for x in values if x is not None]
    if not v:
        raise WearLockError(f"no {what} values to aggregate")
    return np.asarray(v, dtype=np.float64)


@dataclass(frozen=True)
class BerStats:
    """Bit-error-rate statistics over a set of transmissions."""

    mean: float
    median: float
    p90: float
    n: int

    @staticmethod
    def from_values(values: Sequence[float]) -> "BerStats":
        arr = _finite_values(values, "BER")
        return BerStats(
            mean=float(np.mean(arr)),
            median=float(np.median(arr)),
            p90=float(np.percentile(arr, 90)),
            n=arr.size,
        )


@dataclass(frozen=True)
class DelayStats:
    """End-to-end delay statistics (seconds)."""

    mean: float
    median: float
    p90: float
    n: int

    @staticmethod
    def from_values(values: Sequence[float]) -> "DelayStats":
        arr = _finite_values(values, "delay")
        return DelayStats(
            mean=float(np.mean(arr)),
            median=float(np.median(arr)),
            p90=float(np.percentile(arr, 90)),
            n=arr.size,
        )


@dataclass(frozen=True)
class SuccessStats:
    """Unlock success counts."""

    successes: int
    attempts: int

    @property
    def rate(self) -> float:
        if self.attempts == 0:
            return 0.0
        return self.successes / self.attempts


@dataclass(frozen=True)
class TailStats:
    """Tail-latency summary (P50/P95/P99/P999) over a value stream.

    Both constructors estimate the *nearest-rank* sample quantile (the
    value at rank ``ceil(q * n)``): :meth:`from_values` reads it off
    the sorted samples exactly, while the fleet's streaming path builds
    it from fixed-bin histogram counts via :meth:`from_counts` —
    deterministic, mergeable, and within half a bin width of the
    :meth:`from_values` answer (see
    :class:`repro.fleet.aggregate.Histogram`).  Sharing the quantile
    convention is what makes that error bound hold; an interpolated
    percentile can sit arbitrarily far from any bin midpoint when two
    adjacent order statistics straddle many bins.
    """

    p50: float
    p95: float
    p99: float
    #: The SLO tail: below ``n = 1000`` samples the nearest-rank P999
    #: collapses onto the sample maximum, which is exactly what an SLO
    #: burn-down wants from a small window.
    p999: float
    n: int

    @staticmethod
    def from_values(values: Sequence[float]) -> "TailStats":
        """Nearest-rank quantiles of the raw samples (``None`` entries
        mean "not measured" and are dropped, like every stats
        constructor here)."""
        arr = np.sort(_finite_values(values, "tail"))

        def rank_value(q: float) -> float:
            rank = max(1, int(np.ceil(q * arr.size)))
            return float(arr[rank - 1])

        return TailStats(
            p50=rank_value(0.50),
            p95=rank_value(0.95),
            p99=rank_value(0.99),
            p999=rank_value(0.999),
            n=arr.size,
        )

    @staticmethod
    def from_counts(
        counts: Sequence[int], lo: float, hi: float
    ) -> "TailStats":
        """Nearest-rank quantiles from equal-width histogram counts.

        Each quantile maps to the midpoint of the bin containing its
        rank, so the result is a pure function of the integer counts —
        the property the fleet's byte-identity contract needs.
        """
        arr = np.asarray(counts, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise WearLockError("counts must be a non-empty 1-D sequence")
        if not hi > lo:
            raise WearLockError("need hi > lo")
        total = int(arr.sum())
        if total == 0:
            raise WearLockError("no values to aggregate")
        cum = np.cumsum(arr)
        width = (hi - lo) / arr.size

        def rank_value(q: float) -> float:
            rank = max(1, int(np.ceil(q * total)))
            idx = int(np.searchsorted(cum, rank))
            return lo + (min(idx, arr.size - 1) + 0.5) * width

        return TailStats(
            p50=rank_value(0.50),
            p95=rank_value(0.95),
            p99=rank_value(0.99),
            p999=rank_value(0.999),
            n=total,
        )


def summarize_outcomes(outcomes: Iterable[UnlockOutcome]) -> dict:
    """Roll a batch of outcomes into the headline numbers."""
    outcome_list: List[UnlockOutcome] = list(outcomes)
    if not outcome_list:
        raise WearLockError("no outcomes to summarize")
    bers = [o.raw_ber for o in outcome_list if o.raw_ber is not None]
    delays = [o.total_delay_s for o in outcome_list]
    successes = sum(1 for o in outcome_list if o.unlocked)
    summary = {
        "success": SuccessStats(successes, len(outcome_list)),
        "delay": DelayStats.from_values(delays),
    }
    if bers:
        summary["ber"] = BerStats.from_values(bers)
    return summary
