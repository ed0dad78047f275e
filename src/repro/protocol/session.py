"""End-to-end unlock sessions: the full two-phase protocol, timed.

An :class:`UnlockSession` wires a :class:`PhoneController` and a
:class:`WatchController` to a simulated acoustic link and wireless
link, then executes the paper's Fig. 2 flow as a **stage graph** (see
:mod:`repro.protocol.stages` for the stage-by-stage mapping):

    wireless-check → sensor-capture → probe-tx → probe-process →
    prefilter → mode-select → otp-tx → verify

The :class:`repro.core.stages.StageEngine` short-circuits on abort and
emits one trace span per stage, so a finished attempt can be dissected
— per-stage simulated time, wall time, and energy — without re-running
anything.  Every step still charges the :class:`Timeline` (for
Figs. 10-12) and the devices' :class:`EnergyMeter`\\ s (for Fig. 6).

Randomness: a :class:`SessionConfig`-supplied ``seed`` deterministically
derives one independent generator per stage (via
:class:`repro.core.stages.StageRng`), so attempts replay bit-exactly
and can be fanned out across workers in any order.  Passing an explicit
``numpy`` Generator to :meth:`UnlockSession.run` instead threads that
single stream through the stages in execution order (the legacy
behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np

from ..channel.hardware import MicrophoneModel, SpeakerModel
from ..channel.link import AcousticLink
from ..channel.scenarios import Environment, get_environment
from ..config import SystemConfig
from ..core.stages import (
    EnginePause,
    EngineResult,
    SessionContext,
    StageEngine,
    StageRng,
)
from ..core.trace import TraceReport, Tracer
from ..devices.battery import EnergyMeter
from ..devices.profiles import DeviceProfile, MOTO360, NEXUS6
from ..errors import WearLockError
from ..faults import FaultInjector, FaultPlan
from ..offload.planner import OffloadPlanner, Placement
from ..security.otp import OtpManager
from ..sensors.traces import ActivityKind
from ..verifiers import (
    FusionPolicy,
    PrecomputedVerifierEvidence,
    VerifierResult,
    resolve_verifier_names,
)
from ..wireless.radio import BleLink, WifiLink
from .controllers import PhoneController, WatchController
from .events import Timeline
from .stages import (
    AUDIO_PATH_START_DELAY,
    BUTTON_TO_APP_DELAY,
    KEYGUARD_DISMISS_DELAY,
    SENSOR_WINDOW_SECONDS,
    UNLOCK_STAGE_NAMES,
    build_unlock_stages,
)

__all__ = [
    "AbortReason",
    "PendingSession",
    "PrecomputedProbe",
    "PrecomputedStages",
    "RetryPolicy",
    "RetryState",
    "SessionConfig",
    "UnlockOutcome",
    "UnlockSession",
    "ambient_similarity",
    "session_link",
    "BUTTON_TO_APP_DELAY",
    "AUDIO_PATH_START_DELAY",
    "KEYGUARD_DISMISS_DELAY",
    "SENSOR_WINDOW_SECONDS",
]


class AbortReason(str, Enum):
    """Why a session ended without an unlock.

    Values double as the stage engine's abort-reason strings, so a
    stage's ``StageResult.abort(...)`` and a ``FilterChain``'s
    ``stopped_by`` both round-trip through this enum.
    """

    NONE = "none"
    NO_WIRELESS_LINK = "no_wireless_link"
    MOTION_MISMATCH = "motion_mismatch"
    NOISE_MISMATCH = "noise_mismatch"
    MULTIBAND_MISMATCH = "multiband_mismatch"
    VIBRATION_MISMATCH = "vibration_mismatch"
    #: OR / score fusion rejected the combined evidence (no single
    #: verifier owns the verdict, so no per-verifier reason applies).
    VERIFIER_REJECTED = "verifier_rejected"
    PROBE_NOT_DETECTED = "probe_not_detected"
    NLOS_ABORT = "nlos_abort"
    NO_FEASIBLE_MODE = "no_feasible_mode"
    TOKEN_REJECTED = "token_rejected"
    DATA_NOT_DETECTED = "data_not_detected"
    LOCKED_OUT = "locked_out"
    RETRIES_EXHAUSTED = "retries_exhausted"
    #: The fleet's CSMA kernel exhausted its backoff budget: a
    #: co-channel neighbor held the scene through every retry window
    #: (see :mod:`repro.fleet.events`).  Counts as a failed
    #: trusted-unlock attempt toward the keyguard's three-strike rule.
    CHANNEL_CONTENTION = "channel_contention"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on the NACK → downgrade → retransmit recovery loop.

    The paper's protocol is adaptive *because* the acoustic channel
    fails often: a corrupt OTP frame is NACKed over the wireless
    channel and retransmitted at a lower-order modulation, and when the
    modulation ladder is exhausted the phone re-probes the channel
    (Phase 1 again) before giving up.  This policy bounds that loop so
    an attempt can never hang: at most ``max_attempts`` Phase-2
    transmissions, at most ``max_reprobes`` Phase-1 escalations, and no
    retry once the simulated clock passes ``latency_budget_s``.
    """

    max_attempts: int = 3
    max_reprobes: int = 1
    latency_budget_s: float = 8.0
    nack_bytes: int = 16

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise WearLockError("max_attempts must be >= 1")
        if self.max_reprobes < 0:
            raise WearLockError("max_reprobes must be >= 0")
        if self.latency_budget_s <= 0:
            raise WearLockError("latency_budget_s must be positive")
        if self.nack_bytes < 0:
            raise WearLockError("nack_bytes must be non-negative")


@dataclass
class RetryState:
    """Mutable recovery-loop bookkeeping for one attempt.

    ``mode_ceiling`` is the highest-order modulation the next
    (re)selection may pick — it only ever moves *down* the ladder, so
    the downgrade sequence is monotone even across a re-probe.
    """

    attempt: int = 1
    reprobes: int = 0
    nacks: int = 0
    mode_ceiling: Optional[str] = None
    modes_tried: Tuple[str, ...] = ()

    def note_mode(self, mode: Optional[str]) -> None:
        if mode is not None:
            self.modes_tried = self.modes_tried + (mode,)


@dataclass(frozen=True)
class PrecomputedProbe:
    """One session's probe-tx stage, replayed out of band.

    Built by :mod:`repro.fleet.executor`: the executor re-derives the
    session's ``probe-tx`` :class:`~repro.core.stages.StageRng` stream,
    synthesizes the ambient capture, channel IR and probe recording in
    shard-wide batches, and analyzes the recording through the batched
    signal-plane path.  ``rng_state`` is the generator's bit state
    *after* those draws — the consuming stage restores it so that a
    later re-probe retry continues the stream exactly where the live
    stage would have.

    ``report`` is ``None`` when the batched analysis hit the condition
    under which the live ``analyze_probe`` would have raised a
    :class:`~repro.errors.ModemError` (the stage then aborts with
    ``probe_not_detected``, exactly as the live path does).

    ``faults`` is the :class:`~repro.faults.injector.InjectorState` the
    session's own fault injector, scoped to ``probe-tx``, has after the
    replayed transmit (``None`` without a fault plan); the consuming
    stage restores it next to ``rng_state``.

    The waveforms themselves are *not* retained: everything downstream
    of the probe-tx stage consumes either the analysis ``report``, the
    staged ambient-similarity score, or the clip *length* (timing and
    offload-transfer sizing) — so staging stores ``recording_samples``
    and lets the shard-wide synthesis matrices be freed immediately.
    Keeping per-session recordings alive through a whole shard costs
    tens of megabytes of resident set and measurably slows the
    unrelated Phase-2 stages on small-cache machines.
    """

    tx_spl: float
    recording_samples: int
    report: Optional[object]
    rng_state: dict
    faults: Optional[object] = None


@dataclass(frozen=True)
class PrecomputedStages:
    """Shard-level precomputed stage inputs for one attempt.

    Built by :mod:`repro.fleet.executor`, which derives each session's
    per-stage :class:`~repro.core.stages.StageRng` streams itself (same
    construction), draws the stage inputs once, and computes the
    expensive DSP for the whole shard in stacked batches: motion DTW
    (PR 4) plus the Phase-1 probe synthesis/analysis and the ambient
    similarity scores.  The stages that consume it
    (:class:`~repro.protocol.stages.SensorCaptureStage`,
    :class:`~repro.protocol.stages.ProbeTxStage`,
    :class:`~repro.protocol.stages.ProbeProcessStage`,
    :class:`~repro.protocol.stages.PrefilterStage`) produce
    bit-identical outcomes with or without it.  Probe results are
    consumed at most once per session: a re-probe retry recomputes
    live, with the rng stream positioned exactly as if the first pass
    had run live too.

    Verifier scores live in ``evidence``, a typed
    :class:`~repro.verifiers.PrecomputedVerifierEvidence` with one
    field per registered verifier (per-field consumption semantics are
    documented there).

    Phase 2 is not staged here: the OTP token depends on the user's
    counter state *at* the otp-tx stage, so the fleet executor pauses
    each session in front of ``otp-tx`` (:meth:`UnlockSession.begin`)
    and runs that stage for a whole wave (:meth:`PendingSession.step`).
    """

    sensor_pair: Optional[Tuple[np.ndarray, np.ndarray]] = None
    probe: Optional[PrecomputedProbe] = None
    evidence: Optional[PrecomputedVerifierEvidence] = None


@dataclass
class SessionConfig:
    """Everything one unlock attempt depends on."""

    system: SystemConfig = field(default_factory=SystemConfig)
    environment: str = "office"
    distance_m: float = 0.4
    los: bool = True
    nlos_blocking_db: float = 18.0
    wireless: str = "ble"
    wireless_connected: bool = True
    phone_device: DeviceProfile = NEXUS6
    watch_device: DeviceProfile = MOTO360
    offload: Optional[Placement] = None
    max_ber: Optional[float] = None
    activity: ActivityKind = ActivityKind.SITTING
    co_located: bool = True
    band: str = "audible"
    use_motion_filter: bool = True
    use_noise_filter: bool = True
    use_nlos_check: bool = True
    repetition: int = 5
    seed: Optional[int] = None
    #: Proximity-verifier names the prefilter runs, in order; ``None``
    #: resolves to the legacy ambient + motion-DTW pair (see
    #: :func:`repro.verifiers.resolve_verifier_names`).
    verifiers: Optional[Tuple[str, ...]] = None
    #: Fusion-policy spec: ``"and"`` / ``"or"`` / ``"score"`` /
    #: ``"score:0.6"`` (see :class:`repro.verifiers.FusionPolicy`).
    fusion: str = "and"
    #: Optional :class:`repro.faults.FaultPlan` (or a spec string) —
    #: deterministic fault injection for this attempt.
    faults: Optional[object] = None
    #: Optional :class:`RetryPolicy`; ``None`` keeps the legacy
    #: run-each-stage-once, abort-on-first-failure behaviour.
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if isinstance(self.faults, str):
            self.faults = FaultPlan.parse(self.faults)
        if self.faults:
            self.faults.check_stages(UNLOCK_STAGE_NAMES)
        if self.wireless not in ("ble", "wifi"):
            raise WearLockError("wireless must be 'ble' or 'wifi'")
        if self.band not in ("audible", "ultrasound"):
            raise WearLockError("band must be 'audible' or 'ultrasound'")
        if self.verifiers is not None:
            self.verifiers = resolve_verifier_names(tuple(self.verifiers))
        # Validate the fusion spec eagerly so a bad string fails at
        # configuration time, not mid-attempt.
        FusionPolicy.from_spec(self.fusion)


@dataclass(frozen=True)
class UnlockOutcome:
    """Result + full diagnostics of one unlock attempt."""

    unlocked: bool
    abort_reason: AbortReason
    total_delay_s: float
    mode: Optional[str]
    raw_ber: Optional[float]
    psnr_db: Optional[float]
    motion_score: Optional[float]
    noise_similarity: Optional[float]
    nlos: Optional[bool]
    timeline: Timeline
    watch_energy_j: float
    phone_energy_j: float
    stages_run: Tuple[str, ...] = ()
    stopped_by: Optional[str] = None
    trace: Optional[TraceReport] = None
    #: Phase-2 transmissions performed (1 = no retransmission needed).
    attempts: int = 1
    #: Phase-1 re-probe escalations taken by the retry loop.
    reprobes: int = 0
    #: Labels of every injected fault that fired, in order.
    faults_injected: Tuple[str, ...] = ()
    #: Per-verifier verdicts from the deciding prefilter pass (empty
    #: when the attempt aborted before the prefilter).
    verifier_results: Tuple[VerifierResult, ...] = ()

    @property
    def succeeded(self) -> bool:
        return self.unlocked

    @property
    def recovered(self) -> bool:
        """Unlocked despite needing at least one retransmission."""
        return self.unlocked and self.attempts > 1


def ambient_similarity(
    a: np.ndarray,
    b: np.ndarray,
    sample_rate: float,
    spectra: Optional[Tuple[np.ndarray, ...]] = None,
) -> float:
    """Sound-Proof-style ambient similarity in [−1, 1].

    Thin wrapper over :class:`repro.core.colocation.AmbientComparator`
    (kept as a function because the session only needs the score).
    ``spectra`` is the pair's ``(freqs, psd_a, psd_b)`` Welch pass when
    the caller holds it (:func:`repro.verifiers.ambient.probe_spectra`);
    ``None`` runs it here.

    An empty or all-silence segment — at or below
    :data:`~repro.dsp.energy.SILENCE_FLOOR_SPL_DB` — scores a defined
    0.0: silence carries no spectral fingerprint, so it is evidence of
    nothing, in either direction.
    """
    from ..core.colocation import AmbientComparator
    from ..dsp.energy import SILENCE_FLOOR_SPL_DB, signal_spl

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if (
        a.size == 0
        or b.size == 0
        or signal_spl(a) <= SILENCE_FLOOR_SPL_DB
        or signal_spl(b) <= SILENCE_FLOOR_SPL_DB
    ):
        return 0.0
    comparator = AmbientComparator(
        sample_rate=sample_rate,
        high_hz=min(18_000.0, sample_rate / 2.2),
    )
    try:
        if spectra is None:
            freqs, psd_a = comparator.psd_batch(a[None, :])
            _, psd_b = comparator.psd_batch(b[None, :])
        else:
            freqs, psd_a, psd_b = spectra
        return float(
            comparator.profile_similarity(
                comparator.band_profiles(freqs, psd_a),
                comparator.band_profiles(freqs, psd_b),
            )[0]
        )
    except WearLockError:
        return 0.0


def session_link(config: SessionConfig, stage_rng: StageRng) -> AcousticLink:
    """The acoustic link an attempt transmits over, as sessions build it.

    It carries the attempt's :class:`~repro.faults.FaultInjector` when
    the config has a fault plan (seeded *after* the link, so fault-free
    sessions replay bit-identically).  The fleet's probe replay builds
    its links here too, so the replayed channel and injector are the
    session's.

    Sessions pass every transmission its stage's generator, so the
    link's own stream is drawn from only by a caller that passes none;
    its seed is derived at that first draw.  A legacy shared-generator
    session still draws the seed here, which keeps every later stage's
    draws where they were."""
    modem = config.system.modem
    if config.band == "ultrasound":
        modem = modem.near_ultrasound()
    fs = modem.sample_rate
    env = get_environment(config.environment)
    link = AcousticLink(
        sample_rate=fs,
        speaker=SpeakerModel(sample_rate=fs),
        microphone=(
            MicrophoneModel(sample_rate=fs)
            if config.band == "audible"
            else MicrophoneModel.wide_band(fs)
        ),
        room=env.room,
        noise=env.noise,
        distance_m=config.distance_m,
        los=config.los,
        nlos_blocking_db=config.nlos_blocking_db,
        seed=(
            stage_rng.seed_for("acoustic-link")
            if stage_rng.shared
            else partial(stage_rng.seed_for, "acoustic-link")
        ),
    )
    if config.faults:
        link.injector = FaultInjector(
            config.faults, seed=stage_rng.seed_for("fault-injector")
        )
    return link


class UnlockSession:
    """Runs one complete unlock attempt against the simulated world."""

    #: The Fig. 2 stage order this session executes.
    stage_names = UNLOCK_STAGE_NAMES

    def __init__(
        self,
        config: SessionConfig,
        otp: Optional[OtpManager] = None,
        phone: Optional[PhoneController] = None,
    ):
        self.config = config
        system = config.system
        if config.band == "ultrasound":
            from dataclasses import replace

            system = replace(system, modem=system.modem.near_ultrasound())
        self._system = system
        self.otp = otp if otp is not None else OtpManager(b"wearlock-demo-key")
        self.phone = (
            phone
            if phone is not None
            else PhoneController(
                system, self.otp, repetition=config.repetition
            )
        )
        self.watch = WatchController(system)
        self._env: Environment = get_environment(config.environment)
        self._link_cls = BleLink if config.wireless == "ble" else WifiLink

    def _build_context(self, rng) -> SessionContext:
        """Assemble the immutable actors + fresh per-attempt state."""
        if isinstance(rng, np.random.Generator):
            stage_rng = StageRng(shared=rng)
        else:
            stage_rng = StageRng(
                seed=rng if rng is not None else self.config.seed
            )
        wireless = self._link_cls(
            connected=self.config.wireless_connected,
            seed=stage_rng.seed_for("wireless"),
        )
        link = session_link(self.config, stage_rng)
        injector = wireless.injector = link.injector
        ctx = SessionContext(
            config=self.config,
            system=self._system,
            rng=stage_rng,
            timeline=Timeline(),
            watch_meter=EnergyMeter(device=self.config.watch_device),
            phone_meter=EnergyMeter(device=self.config.phone_device),
            phone=self.phone,
            watch=self.watch,
            wireless=wireless,
            link=link,
            planner=OffloadPlanner(
                self.config.watch_device,
                self.config.phone_device,
                wireless,
                prefer=self.config.offload,
            ),
            sample_rate=self._system.modem.sample_rate,
            noise_spl_estimate=float(self._env.noise.effective_spl()),
            faults=injector,
            retry=self.config.retry,
            retry_state=RetryState(),
        )
        if injector is not None:
            # Late-bound: ctx.tracer is attached by the engine at
            # execute() time; every fired fault lands as a counter on
            # whichever span is innermost when it fires.
            def _observe(fault, _ctx=ctx):
                if _ctx.tracer is not None:
                    _ctx.tracer.counter("fault.injected", 1.0)

            injector.observer = _observe
        return ctx

    # ------------------------------------------------------------------
    # the protocol
    # ------------------------------------------------------------------

    def run(
        self,
        rng=None,
        tracer: Optional[Tracer] = None,
        precomputed: Optional[PrecomputedStages] = None,
    ) -> UnlockOutcome:
        """Execute the full protocol once via the stage engine.

        ``precomputed`` (see :class:`PrecomputedStages`) lets the
        fleet executor supply shard-batched sensor/motion, probe and
        ambient-similarity results; the outcome is bit-identical to
        computing them in-stage.
        """
        return self.begin(
            rng, tracer, precomputed, pause_before=None
        ).finish()

    def begin(
        self,
        rng=None,
        tracer: Optional[Tracer] = None,
        precomputed: Optional[PrecomputedStages] = None,
        pause_before: Optional[str] = "otp-tx",
    ) -> "PendingSession":
        """Start an attempt, suspending just before ``pause_before``.

        The wave-batching fleet executor runs Phase 1, collects every
        paused session of a wave, runs their ``otp-tx`` stage as one
        batch (:meth:`PendingSession.step`), then resumes each via
        :meth:`PendingSession.feed`.  An attempt that aborts before
        reaching the pause point comes back already finished
        (``paused`` is ``False``); ``finish`` then simply packages the
        outcome.  ``pause_before=None`` runs the attempt to completion
        (exactly :meth:`run`).
        """
        ctx = self._build_context(rng)
        ctx.precomputed = precomputed
        engine = StageEngine(build_unlock_stages(), tracer=tracer)
        engine.tracer.bind_sim_clock(lambda: ctx.timeline.clock.now)
        state = engine.execute(ctx, pause_before=pause_before)
        if isinstance(state, EnginePause):
            return PendingSession(self, ctx, engine, pause=state)
        return PendingSession(self, ctx, engine, result=state)

    def _outcome(
        self, ctx: SessionContext, result: EngineResult, engine: StageEngine
    ) -> UnlockOutcome:
        """Package a finished engine pass into an :class:`UnlockOutcome`."""
        reason = (
            AbortReason(result.abort_reason)
            if result.abort_reason is not None
            else AbortReason.NONE
        )
        return UnlockOutcome(
            unlocked=ctx.unlocked,
            abort_reason=reason,
            total_delay_s=ctx.timeline.total,
            mode=ctx.token_tx.mode if ctx.token_tx is not None else None,
            raw_ber=ctx.raw_ber,
            psnr_db=(
                ctx.report.psnr_db if ctx.nlos_verdict is not None else None
            ),
            motion_score=ctx.motion_score,
            noise_similarity=ctx.noise_similarity,
            nlos=(
                ctx.nlos_verdict.nlos
                if ctx.nlos_verdict is not None
                else None
            ),
            timeline=ctx.timeline,
            watch_energy_j=ctx.watch_meter.total_joules,
            phone_energy_j=ctx.phone_meter.total_joules,
            stages_run=result.stages_run,
            stopped_by=result.stopped_by,
            trace=engine.tracer.report() if engine.tracer.enabled else None,
            attempts=ctx.retry_state.attempt,
            reprobes=ctx.retry_state.reprobes,
            faults_injected=tuple(
                f.label() for f in (ctx.faults.events if ctx.faults else ())
            ),
            verifier_results=tuple(ctx.verifier_results),
        )


class PendingSession:
    """An unlock attempt suspended (or already finished) mid-protocol.

    Returned by :meth:`UnlockSession.begin`.  A *paused* pending
    session stopped just before the ``otp-tx`` stage with all of
    Phase 1 complete: its :attr:`ctx` holds the mode decision, channel
    report and transmit level, and the phone's OTP counter is exactly
    where the stage will read it.  A *finished* one aborted before the
    pause point; ``finish`` just packages its outcome.

    :meth:`step` runs the stage many paused sessions wait before as one
    batch (:meth:`~repro.core.stages.StageEngine.step_paused`), leaving
    each paused before its next stage or finished.  ``feed()`` resumes
    and re-arms the pause: the next arrival at ``otp-tx`` — a NACK
    retransmission or the tail of a re-probe — suspends again, so an
    orchestrator can batch every retransmission wave instead of only
    the first attempts.  ``finish()`` runs the pass to its outcome.
    """

    def __init__(
        self,
        session: UnlockSession,
        ctx: SessionContext,
        engine: StageEngine,
        pause: Optional[EnginePause] = None,
        result: Optional[EngineResult] = None,
    ):
        if (pause is None) == (result is None):
            raise WearLockError(
                "PendingSession needs exactly one of pause/result"
            )
        self.session = session
        self.ctx = ctx
        self.engine = engine
        # The stage ``feed`` re-arms the pause in front of.
        self._pause_before = pause.next_stage if pause is not None else None
        self._pause = pause
        self._result = result

    @property
    def paused(self) -> bool:
        """True while the engine is suspended awaiting a resume."""
        return self._result is None

    def _settle(self, state) -> None:
        """Keep the engine's new state: paused again, or finished."""
        if isinstance(state, EnginePause):
            self._pause = state
        else:
            self._result = state
            self._pause = None

    @staticmethod
    def step(pendings: Sequence["PendingSession"]) -> None:
        """Run the stage every paused session waits before, as a batch.

        Each session's pass does exactly what running that stage alone
        would (see :meth:`~repro.core.stages.StageEngine.step_paused`),
        and is left paused before its next stage or finished.
        """
        states = StageEngine.step_paused(
            [(p.engine, p._pause) for p in pendings]
        )
        for pending, state in zip(pendings, states):
            pending._settle(state)

    def feed(self) -> bool:
        """Resume, pausing again on the next arrival at ``otp-tx``.

        Returns ``True`` when the session suspended again in front of
        ``otp-tx`` (it NACKed and will retransmit, or re-probed); the
        stage's generator and injector are where the retransmission
        draws.  ``False`` means the pass has finished; read the outcome
        with :meth:`finish`.
        """
        if self._result is None:
            self._settle(
                self.engine.resume(
                    self._pause, pause_before=self._pause_before
                )
            )
        return self.paused

    def finish(self) -> UnlockOutcome:
        """Resume (if paused) and package the attempt's outcome."""
        if self._result is None:
            self._settle(self.engine.resume(self._pause))
        return self.session._outcome(self.ctx, self._result, self.engine)
