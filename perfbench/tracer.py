"""Outside-in per-layer tracing: wrap module attributes, time, restore.

The tracer never edits the program.  For each layer it replaces the
attribute *where the caller looks it up* — e.g.
``repro.fleet.executor.receive_batch_grouped`` (the executor's own
global, not the defining module's), or ``AcousticLink.transmit`` on
the class — with a timing wrapper, and puts the original object back
afterwards.  A call stack of open spans gives each layer its self time:
a span's duration minus the time covered by the wrapped calls it made.

:data:`LAYERS` is also the benchmark's layer -> end-to-end metric ->
workload map: each layer names the metric it should move, on which
workload, and where the prediction is *no change*.  Peak memory is the
per-layer ``process.peak_rss_mb`` (see :mod:`run` for why it carries
no bound).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

_STAGE_CLASSES = (
    ("wireless-check", "WirelessCheckStage"),
    ("sensor-capture", "SensorCaptureStage"),
    ("probe-tx", "ProbeTxStage"),
    ("probe-process", "ProbeProcessStage"),
    ("prefilter", "PrefilterStage"),
    ("mode-select", "ModeSelectStage"),
    ("otp-tx", "OtpTxStage"),
    ("verify", "VerifyStage"),
)


@dataclass(frozen=True)
class Layer:
    """One traced layer.

    ``sites`` are ``"module:attribute.path"`` lookup sites; all of them
    feed the same statistics.  ``rows_arg`` is the positional index of
    the batch argument whose length counts as the call's rows.
    ``moves`` / ``unchanged`` are ``metric@workload`` predictions.
    """

    name: str
    sites: Tuple[str, ...]
    moves: Tuple[str, ...]
    unchanged: Tuple[str, ...] = ()
    rows_arg: Optional[int] = None
    total: bool = False


_PRIMITIVE = dict(
    moves=("sessions_per_s@fleet-day", "process.peak_rss_mb@fleet-day"),
    unchanged=("sessions_per_s@faulted-day",),
)
_LIVE = dict(moves=("sessions_per_s@faulted-day",))
_DRIVER = dict(
    moves=("sessions_per_s@fleet-day",),
    unchanged=("sessions_per_s@faulted-day",),
)
_POPULATION = dict(moves=("sessions_per_s@city-halfhour",))
_VERIFIER = dict(
    moves=("sessions_per_s@faulted-day", "sessions_per_s@city-halfhour")
)

LAYERS: Tuple[Layer, ...] = (
    # Shard-batched staging primitives.
    Layer(
        "fleet.executor.precompute_probe",
        ("repro.fleet.executor:precompute_probe",),
        rows_arg=0,
        **_PRIMITIVE,
    ),
    Layer(
        "fleet.executor.precompute_otp",
        ("repro.fleet.executor:precompute_otp",),
        rows_arg=0,
        **_PRIMITIVE,
    ),
    Layer(
        "modem.receiver.receive_batch_grouped",
        ("repro.fleet.executor:receive_batch_grouped",),
        rows_arg=0,
        **_PRIMITIVE,
    ),
    Layer(
        "sensors.dtw.normalized_dtw_batch",
        ("repro.fleet.executor:normalized_dtw_batch",),
        rows_arg=0,
        **_PRIMITIVE,
    ),
    Layer(
        "fleet.executor.precompute_prefilter",
        ("repro.fleet.executor:precompute_prefilter",),
        rows_arg=0,
        **_PRIMITIVE,
    ),
    # Live acoustic modem and the Fig. 2 stages.
    Layer(
        "channel.link.AcousticLink.transmit",
        ("repro.channel.link:AcousticLink.transmit",),
        **_LIVE,
    ),
    Layer(
        "modem.receiver.OfdmReceiver.receive",
        ("repro.modem.receiver:OfdmReceiver.receive",),
        **_LIVE,
    ),
    Layer(
        "modem.transmitter.OfdmTransmitter.modulate",
        ("repro.modem.transmitter:OfdmTransmitter.modulate",),
        **_LIVE,
    ),
    *(
        Layer(f"protocol.stages.{stage}", (f"repro.protocol.stages:{cls}.run",), **_LIVE)
        for stage, cls in _STAGE_CLASSES
    ),
    # Session driver and the shard's scalar glue (Amdahl remainder).
    *(
        Layer(f"protocol.session.{method}", (f"repro.protocol.session:{owner}.{method}",), **_DRIVER)
        for owner, method in (
            ("UnlockSession", "begin"),
            ("UnlockSession", "run"),
            ("PendingSession", "feed"),
            ("PendingSession", "finish"),
        )
    ),
    Layer("fleet.scheduler.run_shard", ("repro.fleet.scheduler:run_shard",), **_DRIVER),
    # Per-user and per-shard overhead.
    Layer(
        "fleet.population.synthesize_user",
        (
            "repro.fleet.population:synthesize_user",
            "repro.fleet.executor:synthesize_user",
        ),
        **_POPULATION,
    ),
    Layer(
        "fleet.population.user_sessions",
        (
            "repro.fleet.events:user_sessions",
            "repro.fleet.executor:user_sessions",
        ),
        **_POPULATION,
    ),
    Layer(
        "fleet.events.build_contention_plan",
        (
            "repro.fleet.scheduler:build_contention_plan",
            "repro.fleet.executor:build_contention_plan",
        ),
        total=True,
        **_POPULATION,
    ),
    Layer(
        "fleet.aggregate.FleetAggregate.merge_records",
        ("repro.fleet.aggregate:FleetAggregate.merge_records",),
        rows_arg=1,
        moves=("sessions_per_s@city-halfhour", "process.peak_rss_mb@city-halfhour"),
    ),
    # Proximity verifiers (staged and live call sites).
    Layer(
        "verifiers.multiband_similarity",
        (
            "repro.fleet.executor:multiband_similarity",
            "repro.verifiers.multiband:multiband_similarity",
        ),
        **_VERIFIER,
    ),
    Layer(
        "verifiers.vibration_similarity",
        (
            "repro.fleet.executor:vibration_similarity",
            "repro.verifiers.vibration:vibration_similarity",
        ),
        **_VERIFIER,
    ),
)

#: Counters read outside the wrappers, with the metrics they should move.
EXTRA_MAP: Dict[str, Tuple[str, ...]] = {
    "dsp.plane.cache_hits": _VERIFIER["moves"],
    "dsp.plane.cache_misses": _VERIFIER["moves"],
}


def layer_metric_names() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in order."""
    out: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer.name}.self_s", "s", "lower"))
        if layer.total:
            out.append((f"{layer.name}.total_s", "s", "lower"))
        out.append((f"{layer.name}.calls", "count", "lower"))
        if layer.rows_arg is not None:
            out.append((f"{layer.name}.rows", "count", "lower"))
            out.append((f"{layer.name}.rows_p50", "count", "higher"))
            out.append((f"{layer.name}.rows_max", "count", "higher"))
    out += [
        ("dsp.plane.cache_hits", "count", "higher"),
        ("dsp.plane.cache_misses", "count", "lower"),
        ("protocol.session.attempts_per_session", "ratio", "lower"),
        ("protocol.session.unlocked_per_attempt", "ratio", "higher"),
        ("fleet.executor.otp_rows_per_session", "ratio", "lower"),
        ("process.peak_rss_mb", "MB", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
    return out


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    rows: List[int] = field(default_factory=list)


def _resolve(site: str):
    """``"pkg.mod:Cls.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class LayerTracer:
    """Installs timing wrappers on :data:`LAYERS`; restores them on exit.

    Use as a context manager around the traced run.  Sites missing from
    the program (a refactor renamed them) are skipped and listed in
    :attr:`missing`; their layers then report zero calls.
    """

    def __init__(self, layers: Tuple[Layer, ...] = LAYERS):
        self.layers = layers
        self.stats: Dict[str, LayerStats] = {l.name: LayerStats() for l in layers}
        self.missing: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._stack: List[List[float]] = []

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        stats = self.stats[layer.name]
        stack = self._stack
        rows_arg = layer.rows_arg
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame[0]
                if rows_arg is not None:
                    stats.rows.append(len(args[rows_arg]))

        return wrapper

    def __enter__(self) -> "LayerTracer":
        for layer in self.layers:
            for site in layer.sites:
                try:
                    owner, attr = _resolve(site)
                except (ImportError, AttributeError):
                    self.missing.append(site)
                    continue
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.append(site)
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self) -> Dict[str, float]:
        """Per-layer self time, calls and row statistics."""
        out: Dict[str, float] = {}
        for layer in self.layers:
            s = self.stats[layer.name]
            out[f"{layer.name}.self_s"] = s.self_s
            if layer.total:
                out[f"{layer.name}.total_s"] = s.total_s
            out[f"{layer.name}.calls"] = s.calls
            if layer.rows_arg is not None:
                out[f"{layer.name}.rows"] = sum(s.rows)
                out[f"{layer.name}.rows_p50"] = (
                    statistics.median(s.rows) if s.rows else 0
                )
                out[f"{layer.name}.rows_max"] = max(s.rows, default=0)
        return out

    def self_time(self) -> float:
        """Summed self time of every layer (the trace's coverage)."""
        return sum(s.self_s for s in self.stats.values())
