"""Simulated clock and event timeline for protocol runs.

Every protocol step (wireless message, audio playback, DSP burst)
advances a :class:`SimClock` and appends to a :class:`Timeline`, so a
finished session can be dissected into the delay components of
Figs. 10-12 without re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ProtocolError


@dataclass(frozen=True)
class TimelineEvent:
    """One timed protocol step."""

    start: float
    duration: float
    label: str
    category: str

    @property
    def end(self) -> float:
        return self.start + self.duration


class SimClock:
    """A monotonically advancing simulated clock (seconds)."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; negative advances are a logic error."""
        if seconds < 0:
            raise ProtocolError(
                f"cannot advance clock by negative time ({seconds})"
            )
        self._now += seconds
        return self._now


class Timeline:
    """Ordered record of protocol events with category roll-ups."""

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock if clock is not None else SimClock()
        self._events: List[TimelineEvent] = []

    def record(self, label: str, duration: float, category: str) -> TimelineEvent:
        """Append an event starting now and advance the clock past it."""
        event = TimelineEvent(
            start=self.clock.now,
            duration=duration,
            label=label,
            category=category,
        )
        self.clock.advance(duration)
        self._events.append(event)
        return event

    def mark(self, label: str, category: str = "marker") -> TimelineEvent:
        """Zero-duration annotation."""
        return self.record(label, 0.0, category)

    @property
    def events(self) -> List[TimelineEvent]:
        return list(self._events)

    @property
    def total(self) -> float:
        """Total elapsed simulated time."""
        return self.clock.now

    def by_category(self) -> Dict[str, float]:
        """Total duration per category."""
        out: Dict[str, float] = {}
        for e in self._events:
            out[e.category] = out.get(e.category, 0.0) + e.duration
        return out
