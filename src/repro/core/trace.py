"""Lightweight tracing: spans, counters, pluggable sinks, JSON export.

The stage engine (:mod:`repro.core.stages`) opens one :class:`Span` per
stage; protocol, offload and modem code open nested child spans around
their expensive calls.  A span records both *wall* time (how long the
Python simulation took) and *simulated* time (how long the modelled
hardware took, read from the session's :class:`~repro.protocol.events.
SimClock`), plus per-span energy deltas and free-form counters — enough
to dissect one unlock attempt, or a million, without re-running them.

Design notes
------------
* :class:`Tracer` is cheap when unused: :class:`NullTracer` implements
  the same interface with no-ops, so hot paths can call
  ``tracer.span(...)`` unconditionally.
* Sinks observe finished spans (:class:`TraceSink` protocol); the
  default sink is an in-memory list exported via :meth:`Tracer.report`
  / :meth:`Tracer.export_json`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

__all__ = [
    "Span",
    "TraceSink",
    "ListSink",
    "Tracer",
    "NullTracer",
    "TraceReport",
]


@dataclass
class Span:
    """One traced operation (a stage, a DSP call, a transfer)."""

    name: str
    parent: Optional[str] = None
    wall_start_s: float = 0.0
    wall_end_s: float = 0.0
    sim_start_s: float = 0.0
    sim_end_s: float = 0.0
    watch_energy_j: float = 0.0
    phone_energy_j: float = 0.0
    status: str = "ok"
    counters: Dict[str, float] = field(default_factory=dict)
    tags: Dict[str, str] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.wall_end_s - self.wall_start_s

    @property
    def sim_s(self) -> float:
        return self.sim_end_s - self.sim_start_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parent": self.parent,
            "wall_s": self.wall_s,
            "sim_start_s": self.sim_start_s,
            "sim_end_s": self.sim_end_s,
            "sim_s": self.sim_s,
            "watch_energy_j": self.watch_energy_j,
            "phone_energy_j": self.phone_energy_j,
            "status": self.status,
            "counters": dict(self.counters),
            "tags": dict(self.tags),
        }


class TraceSink:
    """Observer of finished spans; subclass or duck-type ``on_span``."""

    def on_span(self, span: Span) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class ListSink(TraceSink):
    """Default sink: keeps every finished span in order."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def on_span(self, span: Span) -> None:
        self.spans.append(span)


@dataclass(frozen=True)
class TraceReport:
    """Immutable snapshot of a finished trace."""

    spans: tuple

    def to_dict(self) -> dict:
        return {"spans": [s.to_dict() for s in self.spans]}

    def stage_names(self) -> List[str]:
        """Names of top-level (parentless) spans, in order."""
        return [s.name for s in self.spans if s.parent is None]

    def find(self, name: str) -> Optional[Span]:
        for s in self.spans:
            if s.name == name:
                return s
        return None

    def counter_totals(self, prefix: str = "") -> dict:
        """Sum every span's counters by name, optionally filtered.

        Fleet runs hang run-level counters (``sessions``, ``shards``,
        ``pin_fallbacks``…) off the ``fleet.run`` span; this rolls them
        up — across nested spans too — into one ``{name: total}`` map
        for reporting.  ``prefix`` keeps only counters whose name
        starts with it.
        """
        totals: dict = {}
        for span in self.spans:
            for name, value in span.counters.items():
                if prefix and not name.startswith(prefix):
                    continue
                totals[name] = totals.get(name, 0.0) + float(value)
        return totals


class Tracer:
    """Collects :class:`Span` records with optional nesting.

    Parameters
    ----------
    sim_clock:
        Zero-argument callable returning the current *simulated* time in
        seconds (usually ``timeline.clock`` → ``lambda: clock.now``).
        Defaults to a constant 0 so the tracer works standalone.
    sinks:
        Extra :class:`TraceSink` observers; an internal
        :class:`ListSink` is always present.
    """

    def __init__(
        self,
        sim_clock: Optional[Callable[[], float]] = None,
        sinks: Optional[List[TraceSink]] = None,
    ):
        self._sim_clock = sim_clock if sim_clock is not None else (lambda: 0.0)
        self._list_sink = ListSink()
        self._sinks: List[TraceSink] = [self._list_sink] + list(sinks or [])
        self._stack: List[Span] = []

    @property
    def enabled(self) -> bool:
        return True

    def bind_sim_clock(self, sim_clock: Callable[[], float]) -> None:
        """Late-bind the simulated clock (sessions create their own)."""
        self._sim_clock = sim_clock

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **tags: str) -> Iterator[Span]:
        """Open a (possibly nested) span around a block of work."""
        span = Span(
            name=name,
            parent=self._stack[-1].name if self._stack else None,
            wall_start_s=time.perf_counter(),
            sim_start_s=float(self._sim_clock()),
            tags={k: str(v) for k, v in tags.items()},
        )
        self._stack.append(span)
        try:
            yield span
        except Exception:
            span.status = "error"
            raise
        finally:
            self._stack.pop()
            span.wall_end_s = time.perf_counter()
            span.sim_end_s = float(self._sim_clock())
            for sink in self._sinks:
                sink.on_span(span)

    def counter(self, name: str, value: float) -> None:
        """Add to a counter on the innermost open span (or drop it)."""
        if self._stack:
            counters = self._stack[-1].counters
            counters[name] = counters.get(name, 0.0) + float(value)

    def report(self) -> TraceReport:
        """Snapshot of all finished spans so far."""
        return TraceReport(spans=tuple(self._list_sink.spans))

    def export_json(self, path: Union[str, Path]) -> None:
        """Write the trace as an indented JSON document."""
        Path(path).write_text(
            json.dumps(self.report().to_dict(), indent=2)
        )


class NullTracer(Tracer):
    """Zero-overhead tracer: same interface, records nothing."""

    def __init__(self) -> None:
        super().__init__()

    @property
    def enabled(self) -> bool:
        return False

    @contextmanager
    def span(self, name: str, **tags: str) -> Iterator[Span]:
        yield Span(name=name)

    def counter(self, name: str, value: float) -> None:
        pass

    def report(self) -> TraceReport:
        return TraceReport(spans=())
