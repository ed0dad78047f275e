"""Seeded fault injection into a live unlock session.

The :class:`FaultInjector` is the runtime half of :mod:`repro.faults.
plan`: the session builds one per attempt (when ``SessionConfig.faults``
is set) and hands it to the acoustic link, the wireless link and the
stage engine, each of which asks it — at its own hook point — whether a
fault fires *here and now*.

Determinism contract
--------------------
Every ``(spec, occurrence)`` decision and every corrupted sample is
drawn from a stream derived as ``SeedSequence(entropy=seed,
spawn_key=(sha256(spec label),))`` — the same construction
:class:`repro.core.stages.StageRng` and :func:`repro.eval.batch.
cell_seed` use — so:

* the same session seed and plan replay byte-identically, serial or
  fanned out across workers in any order;
* enabling one fault never perturbs another fault's schedule, nor any
  of the session's own per-stage streams (faults draw no randomness
  from stage generators).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .plan import (
    ACOUSTIC_FAULTS,
    STAGE_FAULTS,
    WIRELESS_FAULTS,
    FaultPlan,
    FaultSpec,
)

__all__ = ["InjectedFault", "InjectorState", "FaultInjector"]

#: dB of extra path loss a severity-1.0 SNR collapse applies.
SNR_COLLAPSE_DB_PER_SEVERITY = 25.0
#: Burst amplitude as a multiple of the recording RMS at severity 1.0.
BURST_RMS_FACTOR = 8.0
#: Fraction of the frame a severity-1.0 burst covers.
BURST_FRACTION = 0.18
#: Fraction of the frame tail a severity-1.0 truncation removes.
TRUNCATION_FRACTION = 0.45
#: Jammer tone amplitude as a multiple of recording RMS at severity 1.0.
JAMMER_RMS_FACTOR = 5.0
#: Fraction of the frame a severity-1.0 microphone dropout silences.
DROPOUT_FRACTION = 0.25
#: Seconds of extra stage latency per unit severity.
LATENCY_SPIKE_SECONDS = 0.25
#: Seconds of idle-power drain an energy spike charges per unit severity.
ENERGY_SPIKE_IDLE_SECONDS = 1.0
#: Multiplier applied to a late wireless message per unit severity.
MSG_LATE_FACTOR_PER_SEVERITY = 9.0


def _stream_key(label: str) -> int:
    """Stable 64-bit spawn key from a spec label (no salted hash())."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class InjectedFault:
    """Record of one fault that actually fired."""

    kind: str
    stage: str
    hit: int
    detail: str = ""

    def label(self) -> str:
        return f"{self.kind}@{self.stage}#{self.hit}"


@dataclass(frozen=True)
class InjectorState:
    """An injector's spec stream states, hit counts and fired events.

    Taken by :meth:`FaultInjector.snapshot`, carried into another
    injector by :meth:`FaultInjector.restore`."""

    streams: Tuple[Tuple[int, dict], ...] = ()
    hits: Tuple[Tuple[int, int], ...] = ()
    events: Tuple[InjectedFault, ...] = ()


class FaultInjector:
    """Applies a :class:`FaultPlan` to one session, deterministically.

    Parameters
    ----------
    plan:
        The fault schedule.
    seed:
        Root entropy, usually derived from the session seed (the
        session uses ``StageRng.seed_for("fault-injector")``).
    observer:
        Optional callback invoked with each :class:`InjectedFault` as
        it fires — the session wires this to a ``fault.injected``
        tracer counter.
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: int,
        observer: Optional[Callable[[InjectedFault], None]] = None,
    ):
        self.plan = plan
        self.observer = observer
        self._seed = int(seed)
        self._stage: Optional[str] = None
        self._rngs: Dict[int, np.random.Generator] = {}
        self._hits: Dict[int, int] = {}
        self.events: List[InjectedFault] = []

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    @property
    def stage(self) -> Optional[str]:
        """Name of the stage currently executing (engine-maintained)."""
        return self._stage

    @property
    def injected(self) -> int:
        """Total faults fired so far."""
        return len(self.events)

    def enter_stage(self, name: str) -> None:
        """Stage-engine hook: scope subsequent faults to ``name``."""
        self._stage = name

    def snapshot(self) -> InjectorState:
        """The streams this injector drew from, their hit counts and the
        events it fired."""
        return InjectorState(
            streams=tuple(
                (index, rng.bit_generator.state)
                for index, rng in self._rngs.items()
            ),
            hits=tuple(
                (index, self._hits[index])
                for index in self._rngs
                if index in self._hits
            ),
            events=tuple(self.events),
        )

    def restore(self, state: InjectorState) -> None:
        """Carry a replayed injector's :meth:`snapshot` into this one.

        Its streams and hit counts overwrite this injector's, other
        specs are left alone, and its events are appended in order,
        each passed to the observer — as if the replayed calls had run
        here, which holds when the replay started from this injector's
        state for those specs.
        """
        for index, bits in state.streams:
            rng = self._rng_for(index, self.plan.specs[index])
            rng.bit_generator.state = bits
        self._hits.update(state.hits)
        for event in state.events:
            self.events.append(event)
            if self.observer is not None:
                self.observer(event)

    def _rng_for(self, index: int, spec: FaultSpec) -> np.random.Generator:
        if index not in self._rngs:
            child = np.random.SeedSequence(
                entropy=self._seed,
                spawn_key=(_stream_key(f"{index}:{spec.label()}"),),
            )
            self._rngs[index] = np.random.default_rng(child)
        return self._rngs[index]

    def _armed(self, kinds: Tuple[str, ...]):
        for index, spec in enumerate(self.plan):
            if spec.kind in kinds and spec.matches(self._stage):
                yield index, spec

    def _fire(
        self, index: int, spec: FaultSpec, detail: str = ""
    ) -> Optional[np.random.Generator]:
        """Decide whether ``spec`` fires now; return its RNG if so."""
        if spec.max_hits is not None:
            if self._hits.get(index, 0) >= spec.max_hits:
                return None
        rng = self._rng_for(index, spec)
        if spec.probability < 1.0 and rng.random() >= spec.probability:
            return None
        self._hits[index] = self._hits.get(index, 0) + 1
        event = InjectedFault(
            kind=spec.kind,
            stage=self._stage or "*",
            hit=self._hits[index],
            detail=detail,
        )
        self.events.append(event)
        if self.observer is not None:
            self.observer(event)
        return rng

    # ------------------------------------------------------------------
    # acoustic hooks (called by AcousticLink.transmit)
    # ------------------------------------------------------------------

    def apply_signal(self, signal: np.ndarray) -> np.ndarray:
        """Pre-noise hook: faults that attenuate the *signal* itself."""
        out = signal
        for index, spec in self._armed(("snr_collapse",)):
            rng = self._fire(index, spec, detail="signal attenuated")
            if rng is None:
                continue
            drop_db = SNR_COLLAPSE_DB_PER_SEVERITY * spec.severity
            out = out * 10.0 ** (-drop_db / 20.0)
        return out

    def apply_recording(
        self, recorded: np.ndarray, sample_rate: float
    ) -> np.ndarray:
        """Post-microphone hook: faults that corrupt the recording."""
        out = recorded
        additive = tuple(k for k in ACOUSTIC_FAULTS if k != "snr_collapse")
        for index, spec in self._armed(additive):
            rng = self._fire(index, spec)
            if rng is None:
                continue
            out = self._corrupt(out, spec, rng, sample_rate)
        return out

    def _corrupt(
        self,
        recorded: np.ndarray,
        spec: FaultSpec,
        rng: np.random.Generator,
        sample_rate: float,
    ) -> np.ndarray:
        n = recorded.size
        if n == 0:
            return recorded
        level = float(np.sqrt(np.mean(recorded**2))) or 1e-6
        if spec.kind == "burst_noise":
            length = max(1, int(n * min(0.9, BURST_FRACTION * spec.severity)))
            start = int(rng.integers(0, max(1, n - length)))
            out = recorded.copy()
            out[start: start + length] += (
                level * BURST_RMS_FACTOR * spec.severity
            ) * rng.standard_normal(length)
            return out
        if spec.kind == "frame_truncation":
            keep = 1.0 - min(0.75, TRUNCATION_FRACTION * spec.severity)
            return recorded[: max(1, int(n * keep))].copy()
        if spec.kind == "jammer_onset":
            # A jammer keying on mid-frame: a strong in-band tone from a
            # random onset to the end of the recording.
            onset = int(rng.integers(n // 8, max(n // 8 + 1, n // 2)))
            freq = float(rng.uniform(0.05, 0.4)) * sample_rate / 2.0
            t = np.arange(n - onset) / sample_rate
            tone = (
                level * JAMMER_RMS_FACTOR * spec.severity * np.sqrt(2.0)
            ) * np.sin(2.0 * np.pi * freq * t + float(rng.uniform(0, 2 * np.pi)))
            out = recorded.copy()
            out[onset:] += tone
            return out
        if spec.kind == "mic_dropout":
            length = max(1, int(n * min(0.9, DROPOUT_FRACTION * spec.severity)))
            start = int(rng.integers(0, max(1, n - length)))
            out = recorded.copy()
            out[start: start + length] = 0.0
            return out
        return recorded

    # ------------------------------------------------------------------
    # wireless hook (called by WirelessLink.send_message/send_file)
    # ------------------------------------------------------------------

    def wireless_verdict(self) -> Tuple[Optional[str], float]:
        """Fate of the wireless operation about to run.

        Returns ``(None, 1.0)`` for clean delivery, ``("drop", _)`` for
        a lost message, or ``("late", factor)`` for a delayed one.
        """
        for index, spec in self._armed(WIRELESS_FAULTS):
            rng = self._fire(index, spec)
            if rng is None:
                continue
            if spec.kind == "msg_drop":
                return "drop", 1.0
            return "late", 1.0 + MSG_LATE_FACTOR_PER_SEVERITY * spec.severity
        return None, 1.0

    # ------------------------------------------------------------------
    # stage hook (called by StageEngine)
    # ------------------------------------------------------------------

    def stage_spikes(self) -> List[Tuple[str, float]]:
        """Latency/energy spikes to charge to the current stage."""
        out: List[Tuple[str, float]] = []
        for index, spec in self._armed(STAGE_FAULTS):
            rng = self._fire(index, spec)
            if rng is None:
                continue
            if spec.kind == "latency_spike":
                out.append((spec.kind, LATENCY_SPIKE_SECONDS * spec.severity))
            else:
                out.append(
                    (spec.kind, ENERGY_SPIKE_IDLE_SECONDS * spec.severity)
                )
        return out
