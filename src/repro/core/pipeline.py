"""The computation-reduction filter chain (paper §V).

WearLock avoids acoustic transmissions (and their heavy DSP) with a
cascade of cheap gates — Bluetooth presence, ambient-noise similarity,
motion DTW.  :class:`FilterChain` composes arbitrary named predicates
and reports which gate (if any) stopped an attempt, so the reduction in
downstream computation can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import WearLockError

#: A filter takes an opaque context and returns (passed, detail_score).
FilterFn = Callable[[object], Tuple[bool, Optional[float]]]


@dataclass(frozen=True)
class FilterResult:
    """Outcome of running the chain on one attempt."""

    passed: bool
    stopped_by: Optional[str]
    scores: Tuple[Tuple[str, Optional[float]], ...]


class FilterChain:
    """Ordered cascade of cheap co-location gates."""

    def __init__(self):
        self._filters: List[Tuple[str, FilterFn]] = []

    def add(self, name: str, fn: FilterFn) -> "FilterChain":
        """Append a filter; returns self for chaining."""
        if not name:
            raise WearLockError("filter name must be non-empty")
        if any(existing == name for existing, _ in self._filters):
            raise WearLockError(f"duplicate filter name {name!r}")
        self._filters.append((name, fn))
        return self

    @property
    def names(self) -> Sequence[str]:
        return [name for name, _ in self._filters]

    def evaluate(self, context: object) -> FilterResult:
        """Run filters in order; stop at the first failure."""
        scores: List[Tuple[str, Optional[float]]] = []
        for name, fn in self._filters:
            passed, score = fn(context)
            scores.append((name, score))
            if not passed:
                return FilterResult(
                    passed=False,
                    stopped_by=name,
                    scores=tuple(scores),
                )
        return FilterResult(passed=True, stopped_by=None, scores=tuple(scores))
