"""Generic stage-graph engine for composable, traceable pipelines.

The paper's Fig. 2 flow — and, per PAPERS.md, Sound-Proof's staged
similarity checks and WearID's verification cascades — all share one
shape: an ordered graph of stages where cheap gates run first, any
stage may abort the attempt, and every stage should be independently
measurable.  This module provides that shape, free of protocol
specifics so eval harnesses can reuse it:

* :class:`Stage` — the protocol a pipeline step implements;
* :class:`SessionContext` — the mutable state one attempt carries
  between stages;
* :class:`StageEngine` — executes stages in order, short-circuits on
  abort, and emits one trace span per stage (simulated time + energy).
  :meth:`StageEngine.step_paused` is its one stage runner: it runs one
  stage for a batch of paused passes, and a single pass is a batch of
  one (:meth:`StageEngine.resume`).

The engine result names the stage that stopped the attempt
(``stopped_by``) next to the domain-level ``abort_reason``, so
stage-graph and verifier-level diagnostics read the same way.
"""

from __future__ import annotations

import hashlib
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from ..errors import WearLockError
from .trace import NullTracer, Tracer

__all__ = [
    "Stage",
    "StageResult",
    "StageRng",
    "SessionContext",
    "EngineResult",
    "EnginePause",
    "StageEngine",
]


@dataclass(frozen=True)
class StageResult:
    """What one stage tells the engine: continue, abort, or jump back.

    ``retry_to`` names an earlier stage to re-enter — the recovery
    loop's backward edge (NACK → retransmit, re-probe escalation).  The
    engine bounds total jumps so a pathological stage can never loop
    forever.
    """

    ok: bool = True
    abort_reason: Optional[str] = None
    detail: Optional[float] = None
    retry_to: Optional[str] = None

    @staticmethod
    def proceed() -> "StageResult":
        return StageResult(ok=True)

    @staticmethod
    def abort(reason: str, detail: Optional[float] = None) -> "StageResult":
        if not reason:
            raise WearLockError("abort reason must be non-empty")
        return StageResult(ok=False, abort_reason=reason, detail=detail)

    @staticmethod
    def retry(
        to: str, reason: str, detail: Optional[float] = None
    ) -> "StageResult":
        """Jump back to stage ``to`` and re-run the graph from there."""
        if not to:
            raise WearLockError("retry target must be non-empty")
        if not reason:
            raise WearLockError("retry reason must be non-empty")
        return StageResult(
            ok=False, abort_reason=reason, detail=detail, retry_to=to
        )


@runtime_checkable
class Stage(Protocol):
    """One named step of a pipeline.

    A stage may also define ``run_rows(ctxs)``: its body over many
    contexts at once, returning one result per context.
    :meth:`StageEngine.step_paused` runs it for a batch of paused
    passes, and runs ``run`` on each context of a stage without one.
    """

    name: str

    def run(self, ctx: "SessionContext") -> StageResult:
        """Advance the attempt; return proceed() or abort(reason)."""
        ...  # pragma: no cover - protocol


def _stable_stream_key(name: str) -> int:
    """A stable 64-bit integer derived from a stage name.

    ``hash()`` is salted per interpreter run, which would make
    per-stage generators irreproducible across processes — exactly what
    batch replay must avoid — so derive from SHA-256 instead.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class StageRng:
    """Deterministic per-stage random generators from one root seed.

    Every stage gets its *own* :class:`numpy.random.Generator`, derived
    from ``(root entropy, sha256(stage name))``.  Consequences:

    * the same seed always produces the same per-stage streams, no
      matter how many draws other stages make or where the pipeline
      aborts — stages are statistically isolated;
    * a ``None`` seed draws OS entropy **once**, at construction, so a
      run is internally consistent and there is no implicit
      ``np.random.default_rng()`` fallback mid-run;
    * passing ``shared`` (an existing Generator) reproduces the legacy
      single-stream behaviour where every stage consumes from one
      sequence in execution order — kept for callers that thread an
      explicit ``rng`` through a session.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        shared: Optional[np.random.Generator] = None,
    ):
        self._shared = shared
        self._children: Dict[str, np.random.Generator] = {}
        if shared is None:
            self._root = np.random.SeedSequence(seed)
        else:
            self._root = None

    @property
    def entropy(self) -> Optional[int]:
        """Root entropy (None in legacy shared-generator mode)."""
        if self._root is None:
            return None
        e = self._root.entropy
        return int(e) if not isinstance(e, (list, tuple)) else None

    @property
    def shared(self) -> bool:
        """Whether every stage draws from one legacy shared generator."""
        return self._shared is not None

    def for_stage(self, name: str) -> np.random.Generator:
        """The generator owned by ``name`` (memoized)."""
        if self._shared is not None:
            return self._shared
        if name not in self._children:
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=(_stable_stream_key(name),),
            )
            self._children[name] = np.random.default_rng(child)
        return self._children[name]

    def seed_for(self, name: str, bound: int = 2**31) -> int:
        """A deterministic integer seed owned by ``name``.

        Used to seed sub-simulators (wireless link, acoustic channel)
        that take integer seeds rather than Generators.
        """
        if self._shared is not None:
            return int(self._shared.integers(0, bound))
        child = np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=(_stable_stream_key("seed:" + name),),
        )
        return int(np.random.default_rng(child).integers(0, bound))


@dataclass
class SessionContext:
    """All mutable state one unlock attempt carries between stages.

    The typed core (config, timeline, meters, rng) is what the engine
    itself reads; the remaining fields are the protocol's working set,
    declared here so every stage shares one explicit schema instead of
    smuggling state through closures.  Fields are loosely typed to keep
    ``repro.core`` free of upward imports.  Each field is written by
    the stage that computes it, never by a batch driver.
    """

    config: Any = None
    system: Any = None
    rng: Optional[StageRng] = None
    timeline: Any = None
    watch_meter: Any = None
    phone_meter: Any = None
    tracer: Optional[Tracer] = None

    # actors and channels
    phone: Any = None
    watch: Any = None
    wireless: Any = None
    link: Any = None
    planner: Any = None
    sample_rate: float = 0.0

    # chaos + recovery machinery (None = both disabled)
    faults: Any = None  # repro.faults.FaultInjector, duck-typed
    retry: Any = None  # repro.protocol.session.RetryPolicy
    retry_state: Any = None  # repro.protocol.session.RetryState

    # attempt working set (filled in by successive stages)
    phone_ambient: Any = None
    noise_spl_estimate: Optional[float] = None
    tx_spl: Optional[float] = None
    probe_recording: Any = None
    probe_samples: int = 0
    report: Any = None
    noise_similarity: Optional[float] = None
    motion_score: Optional[float] = None
    #: Proximity-verifier scores keyed by verifier name, written by the
    #: stage that holds each score's inputs (sensor capture: the motion
    #: scores; the prefilter: the ambient fingerprints) and read by the
    #: verifiers' ``verify``.
    verifier_scores: Dict[str, float] = field(default_factory=dict)
    #: Per-verifier verdicts from the latest prefilter pass (tuple of
    #: ``repro.verifiers.VerifierResult``, duck-typed to keep
    #: ``repro.core`` free of upward imports).
    verifier_results: Tuple[Any, ...] = ()
    fast_path: bool = False
    nlos_verdict: Any = None
    mode_decision: Any = None
    token_tx: Any = None
    config_msg: Any = None
    #: The Phase-2 recording: written by ``otp-tx``, dropped by
    #: ``verify`` once it is received.
    data_recording: Any = None
    unlocked: bool = False
    raw_ber: Optional[float] = None

    # free-form extras (experiment harnesses may stash state here)
    extras: Dict[str, Any] = field(default_factory=dict)

    def rng_for(self, stage_name: str) -> np.random.Generator:
        if self.rng is None:
            raise WearLockError("SessionContext has no StageRng bound")
        return self.rng.for_stage(stage_name)

    def trace_span(self, name: str, **tags: str):
        """A child span on the bound tracer (no-op when untraced)."""
        if self.tracer is None:
            return NullTracer().span(name)
        return self.tracer.span(name, **tags)


@dataclass
class EnginePause:
    """A suspended engine pass, stopped just before a named stage.

    :meth:`StageEngine.start` returns one before the first stage, and
    :meth:`StageEngine.step_paused` returns one for every pass that
    goes on — to its next stage or to the target of a retry edge.  It
    holds everything the engine needs to continue: the context, the
    index of the not-yet-run stage, the stages executed so far and the
    jump budget spent.
    """

    ctx: SessionContext
    next_index: int
    next_stage: str
    stages_run: List[str]
    jumps: int


@dataclass(frozen=True)
class EngineResult:
    """How one engine pass ended.

    ``stages_run`` lists every stage *execution* in order — with
    backward retry edges a stage name can appear more than once.
    ``jumps`` counts how many retry edges were taken.
    """

    stages_run: Tuple[str, ...]
    stopped_by: Optional[str]
    abort_reason: Optional[str]
    detail: Optional[float] = None
    jumps: int = 0

    @property
    def completed(self) -> bool:
        return self.stopped_by is None


class StageEngine:
    """Executes an ordered list of stages with abort short-circuit.

    A pass begins paused before the first stage (:meth:`start`).
    :meth:`step_paused` runs the stage a batch of paused passes waits
    before and leaves each paused before its next stage or finished;
    :meth:`resume` steps a single pass up to a named stage or to its
    end.

    One trace span is emitted per stage *execution*, carrying the
    stage's simulated duration (via the tracer's bound sim clock) and
    the watch/phone energy it charged.  Aborting stages get
    ``status="abort"`` plus an ``abort_reason`` tag; retrying stages
    get ``status="retry"`` plus a ``retry_to`` tag, so a trace alone
    tells the whole story.

    Recovery edges: a stage may return ``StageResult.retry(to, ...)``
    naming an **earlier** (or the same) stage; execution re-enters the
    graph there.  Total backward jumps are bounded by ``max_jumps`` —
    when exhausted the attempt aborts with ``retries_exhausted`` — so
    no retry policy bug can hang an attempt.

    Fault hooks: when ``ctx.faults`` is bound (a :class:`repro.faults.
    FaultInjector`, duck-typed to keep ``repro.core`` dependency-free),
    the engine scopes it to each stage before running it and charges
    any scheduled latency/energy spikes to the stage's timeline span
    and energy meters.
    """

    #: Engine-level backstop on backward jumps per attempt.
    DEFAULT_MAX_JUMPS = 16

    def __init__(
        self,
        stages: Sequence[Stage],
        tracer: Optional[Tracer] = None,
        max_jumps: int = DEFAULT_MAX_JUMPS,
    ):
        names = [s.name for s in stages]
        if len(names) != len(set(names)):
            raise WearLockError(f"duplicate stage names in {names}")
        if not stages:
            raise WearLockError("engine needs at least one stage")
        if max_jumps < 0:
            raise WearLockError("max_jumps must be non-negative")
        self._stages: List[Stage] = list(stages)
        self._index = {s.name: i for i, s in enumerate(self._stages)}
        self._max_jumps = max_jumps
        self.tracer: Tracer = tracer if tracer is not None else NullTracer()

    @property
    def stage_names(self) -> List[str]:
        return [s.name for s in self._stages]

    @staticmethod
    def _joules(meter: Any) -> float:
        return float(meter.total_joules) if meter is not None else 0.0

    def _apply_stage_faults(self, ctx: SessionContext, stage_name: str) -> None:
        """Charge scheduled latency/energy spikes to the current stage."""
        for kind, magnitude in ctx.faults.stage_spikes():
            if kind == "latency_spike":
                if ctx.timeline is not None:
                    ctx.timeline.record(
                        f"fault_{kind}", magnitude, "fault"
                    )
            else:  # energy_spike: idle-power drain on both devices
                if ctx.watch_meter is not None:
                    ctx.watch_meter.record_idle(magnitude)
                if ctx.phone_meter is not None:
                    ctx.phone_meter.record_idle(magnitude)

    def start(self, ctx: SessionContext) -> EnginePause:
        """Bind the tracer; a pass paused before the first stage.

        Nothing runs yet: :meth:`step_paused` (or :meth:`resume`)
        executes the stages.
        """
        ctx.tracer = self.tracer
        return EnginePause(
            ctx=ctx,
            next_index=0,
            next_stage=self._stages[0].name,
            stages_run=[],
            jumps=0,
        )

    def resume(self, pause: EnginePause, until: Optional[str] = None):
        """Step one pass until it waits before ``until`` or finishes.

        Each step is a one-pass :meth:`step_paused`, so the stage the
        pass waits before always runs: a pass already paused before
        ``until`` runs it and stops at the *next* arrival there.  With
        ``until=None`` the pass runs to its :class:`EngineResult`.
        """
        if until is not None and until not in self._index:
            raise WearLockError(
                f"{until!r} is not a stage of this engine "
                f"({self.stage_names})"
            )
        state: Any = pause
        while True:
            (state,) = self.step_paused([(self, state)])
            if isinstance(state, EngineResult) or state.next_stage == until:
                return state

    @staticmethod
    def step_paused(
        passes: Sequence[Tuple["StageEngine", EnginePause]],
    ) -> List[Any]:
        """Run the stage many paused passes wait before, as one batch.

        This is the only code that runs a stage.  Every ``(engine,
        pause)`` pass must be suspended in front of the same stage, and
        no two passes may share a recording tracer (the stage spans are
        open side by side).  The first pass's stage object runs
        ``run_rows`` on every pass's context, or ``run`` on each in turn
        when it has no batch body.  Around it each pass gets its
        injector scoping, its stage span, energy deltas, stage fault
        spikes and ``stages_run``.  Each pass comes back paused before
        its next stage — the target of a retry edge included — as an
        :class:`EnginePause`, or finished, as an :class:`EngineResult`.
        """
        if not passes:
            return []
        names = {pause.next_stage for _, pause in passes}
        if len(names) > 1:
            raise WearLockError(
                f"paused passes wait before different stages: {sorted(names)}"
            )
        tracers = [id(e.tracer) for e, _ in passes if e.tracer.enabled]
        if len(tracers) != len(set(tracers)):
            raise WearLockError("paused passes share a recording tracer")
        first, pause0 = passes[0]
        stage = first._stages[pause0.next_index]
        ctxs = [pause.ctx for _, pause in passes]
        with ExitStack() as spans:
            opened = []
            for engine, pause in passes:
                joules = engine._enter(pause.ctx, stage)
                span = spans.enter_context(
                    engine.tracer.span(stage.name, kind="stage")
                )
                opened.append((span, joules))
            if hasattr(stage, "run_rows"):
                results = stage.run_rows(ctxs)
            else:
                results = [stage.run(ctx) for ctx in ctxs]
            for (engine, pause), (span, joules), result in zip(
                passes, opened, results
            ):
                engine._settle(pause.ctx, stage, span, joules, result)
        return [
            engine._next(stage, pause, result)
            for (engine, pause), result in zip(passes, results)
        ]

    def _enter(self, ctx: SessionContext, stage: Stage) -> Tuple[float, float]:
        """Scope the injector to ``stage``; the meters' joules before it."""
        if ctx.faults is not None:
            ctx.faults.enter_stage(stage.name)
        return self._joules(ctx.watch_meter), self._joules(ctx.phone_meter)

    def _settle(
        self,
        ctx: SessionContext,
        stage: Stage,
        span: Any,
        joules: Tuple[float, float],
        result: StageResult,
    ) -> None:
        """Charge stage spikes and tag ``stage``'s span with its outcome."""
        if ctx.faults is not None:
            self._apply_stage_faults(ctx, stage.name)
        span.watch_energy_j = self._joules(ctx.watch_meter) - joules[0]
        span.phone_energy_j = self._joules(ctx.phone_meter) - joules[1]
        if not result.ok:
            if result.retry_to is not None:
                span.status = "retry"
                span.tags["retry_to"] = result.retry_to
                span.tags["retry_reason"] = result.abort_reason or ""
            else:
                span.status = "abort"
                span.tags["abort_reason"] = result.abort_reason or ""

    def _next(self, stage: Stage, pause: EnginePause, result: StageResult):
        """Log ``stage`` as run; the pass's next state: paused before
        the stage it goes to next, or the :class:`EngineResult` it
        stops with."""
        run, jumps = pause.stages_run, pause.jumps
        run.append(stage.name)
        end = len(self._stages)
        stopped_by = reason = None
        if result.ok:
            i = pause.next_index + 1
        elif result.retry_to is not None:
            i = self._index.get(result.retry_to)
            if i is None:
                raise WearLockError(
                    f"retry target {result.retry_to!r} is not a stage "
                    f"of this engine ({self.stage_names})"
                )
            if i > pause.next_index:
                raise WearLockError(
                    f"retry target {result.retry_to!r} is ahead of "
                    f"{stage.name!r}; only backward edges are allowed"
                )
            jumps += 1
            if jumps > self._max_jumps:
                i, stopped_by, reason = end, stage.name, "retries_exhausted"
        else:
            i, stopped_by, reason = end, stage.name, result.abort_reason
        if i < end:
            return EnginePause(
                ctx=pause.ctx,
                next_index=i,
                next_stage=self._stages[i].name,
                stages_run=run,
                jumps=jumps,
            )
        return EngineResult(
            stages_run=tuple(run),
            stopped_by=stopped_by,
            abort_reason=reason,
            detail=None if stopped_by is None else result.detail,
            jumps=jumps,
        )
