"""Deterministic fault schedules for chaos-testing unlock sessions.

The acoustic channel the paper builds on fails *routinely* — bursts of
cafeteria noise land on an OTP frame, the user's sleeve muffles the
speaker mid-transmission, Android Wear drops a MessageAPI packet — and
the two-phase protocol is adaptive precisely because of that.  To test
the recovery machinery we need those failures **on demand and on
replay**: a :class:`FaultPlan` is a declarative list of
:class:`FaultSpec` entries ("inject a noise burst during ``otp-tx``
with probability 0.5, at most once"), and the
:class:`~repro.faults.injector.FaultInjector` turns a plan plus a
session seed into a byte-reproducible schedule, using the same SHA-256
derivation that :func:`repro.eval.batch.cell_seed` uses for sweep
cells.

Spec strings (CLI ``unlock --faults``) look like::

    burst_noise@otp-tx
    msg_drop@sensor-capture:p=0.5
    snr_collapse@probe-tx:severity=2,hits=1;latency_spike@verify

i.e. ``kind@stage[:key=value,...]`` entries joined by ``;``.  The
stage may be ``*`` to arm the fault at every stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..errors import WearLockError


class FaultError(WearLockError):
    """A fault plan or spec string was malformed."""


#: Faults applied to the acoustic link (inside ``AcousticLink.transmit``).
ACOUSTIC_FAULTS: Tuple[str, ...] = (
    "burst_noise",
    "frame_truncation",
    "snr_collapse",
    "jammer_onset",
    "mic_dropout",
)

#: Faults applied to the wireless control channel (``WirelessLink``).
WIRELESS_FAULTS: Tuple[str, ...] = ("msg_drop", "msg_late")

#: Faults applied by the stage engine itself (latency/energy spikes).
STAGE_FAULTS: Tuple[str, ...] = ("latency_spike", "energy_spike")

#: Every known fault kind.
FAULT_KINDS: Tuple[str, ...] = ACOUSTIC_FAULTS + WIRELESS_FAULTS + STAGE_FAULTS


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what, where, how often, how hard.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    stage:
        Stage name the fault is armed in, or ``"*"`` for every stage.
    probability:
        Chance the fault fires at each armed opportunity, drawn from
        the spec's own derived stream (so a 0.5-probability fault does
        not perturb any other fault's schedule).
    severity:
        Dimensionless knob scaling the fault's magnitude (burst
        amplitude, truncation depth, latency seconds, ...); 1.0 is the
        calibrated "clearly disruptive" level.  Must be finite and
        positive.
    max_hits:
        Cap on how many times the fault fires per session; ``None``
        means unlimited.  ``max_hits=1`` models a single-frame
        corruption.
    """

    kind: str
    stage: str = "*"
    probability: float = 1.0
    severity: float = 1.0
    max_hits: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(FAULT_KINDS)}"
            )
        if not self.stage:
            raise FaultError("fault stage must be non-empty (use '*')")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultError("probability must be in [0, 1]")
        if not 0.0 < self.severity < math.inf:
            raise FaultError("severity must be finite and positive")
        if self.max_hits is not None and self.max_hits < 1:
            raise FaultError("max_hits must be >= 1 (or None)")

    def matches(self, stage: Optional[str]) -> bool:
        """Is this fault armed while ``stage`` is executing?"""
        return self.stage == "*" or self.stage == stage

    def label(self) -> str:
        """Stable human-readable id (also the RNG stream name)."""
        return f"{self.kind}@{self.stage}"


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable collection of :class:`FaultSpec` entries."""

    specs: Tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    @staticmethod
    def single(
        kind: str,
        stage: str = "*",
        probability: float = 1.0,
        severity: float = 1.0,
        max_hits: Optional[int] = 1,
    ) -> "FaultPlan":
        """A plan holding exactly one fault."""
        return FaultPlan(
            specs=(
                FaultSpec(
                    kind=kind,
                    stage=stage,
                    probability=probability,
                    severity=severity,
                    max_hits=max_hits,
                ),
            )
        )

    @staticmethod
    def of(specs: Iterable[FaultSpec]) -> "FaultPlan":
        return FaultPlan(specs=tuple(specs))

    @staticmethod
    def parse(text: str) -> "FaultPlan":
        """Parse the CLI spec grammar (see module docstring)."""
        specs = []
        for entry in filter(None, (e.strip() for e in text.split(";"))):
            head, _, opts = entry.partition(":")
            kind, _, stage = head.partition("@")
            kind = kind.strip()
            stage = stage.strip() or "*"
            kwargs: Dict[str, object] = {}
            if opts:
                for pair in filter(None, (p.strip() for p in opts.split(","))):
                    key, sep, value = pair.partition("=")
                    if not sep:
                        raise FaultError(
                            f"bad fault option {pair!r} in {entry!r} "
                            "(expected key=value)"
                        )
                    key = key.strip()
                    value = value.strip()
                    try:
                        if key in ("p", "probability"):
                            kwargs["probability"] = float(value)
                        elif key == "severity":
                            kwargs["severity"] = float(value)
                        elif key in ("hits", "max_hits"):
                            kwargs["max_hits"] = (
                                None
                                if value in ("none", "inf")
                                else int(value)
                            )
                        else:
                            raise FaultError(
                                f"unknown fault option {key!r} in {entry!r}"
                            )
                    except ValueError as exc:
                        raise FaultError(
                            f"bad value {value!r} for fault option "
                            f"{key!r} in {entry!r}"
                        ) from exc
            specs.append(FaultSpec(kind=kind, stage=stage, **kwargs))
        if not specs:
            raise FaultError(f"fault spec {text!r} contains no faults")
        return FaultPlan(specs=tuple(specs))

    def check_stages(self, stages: Iterable[str]) -> "FaultPlan":
        """Reject any spec armed at a stage outside ``stages`` (or ``*``).

        The plan grammar accepts any stage name, so a typo such as
        ``burst_noise@otp_tx`` would parse and silently never fire.
        Callers that know their engine's stage names (the unlock
        session, the fleet config, the CLI) pass them here; the stage
        list is an argument so this module never imports the protocol.
        Returns the plan itself, for chaining.
        """
        known = tuple(stages)
        for spec in self.specs:
            if spec.stage != "*" and spec.stage not in known:
                raise FaultError(
                    f"unknown fault stage {spec.stage!r} in "
                    f"{spec.label()!r}; known: *, {', '.join(known)}"
                )
        return self

    def describe(self) -> str:
        """Round-trippable textual form of the plan."""
        parts = []
        for s in self.specs:
            opts = []
            if s.probability != 1.0:
                opts.append(f"p={s.probability:g}")
            if s.severity != 1.0:
                opts.append(f"severity={s.severity:g}")
            if s.max_hits != 1:
                opts.append(
                    "hits=none" if s.max_hits is None else f"hits={s.max_hits}"
                )
            suffix = ":" + ",".join(opts) if opts else ""
            parts.append(f"{s.kind}@{s.stage}{suffix}")
        return ";".join(parts)
