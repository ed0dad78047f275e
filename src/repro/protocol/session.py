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

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np

from ..channel.hardware import MicrophoneModel, SpeakerModel
from ..channel.link import AcousticLink
from ..channel.scenarios import ENVIRONMENTS, Environment, get_environment
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
from ..errors import ConfigurationError, WearLockError
from ..faults import FaultInjector, FaultPlan
from ..offload.planner import OffloadPlanner, Placement
from ..security.otp import OtpManager
from ..sensors.traces import ActivityKind
from ..verifiers import FusionPolicy, VerifierResult, resolve_verifier_names
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
    stage's ``StageResult.abort(...)`` and a verifier's
    ``abort_reason`` both round-trip through this enum.
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


def _is_int(value) -> bool:
    """An integer that is not a bool (numpy integers count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        for name, lowest in (
            ("max_attempts", 1),
            ("max_reprobes", 0),
            ("nack_bytes", 0),
        ):
            value = getattr(self, name)
            if not _is_int(value) or value < lowest:
                raise ConfigurationError(
                    f"{name} must be an integer >= {lowest}, got {value!r}"
                )
        budget = self.latency_budget_s
        if not (
            isinstance(budget, numbers.Real)
            and math.isfinite(budget)
            and budget > 0
        ):
            raise ConfigurationError(
                f"latency_budget_s must be finite and positive, got {budget!r}"
            )


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
        if not (math.isfinite(self.distance_m) and self.distance_m > 0):
            raise ConfigurationError(
                "distance_m must be finite and positive, got "
                f"{self.distance_m!r}"
            )
        if self.max_ber is not None and not 0.0 < self.max_ber < 0.5:
            raise ConfigurationError(
                f"max_ber must be None or in (0, 0.5), got {self.max_ber!r}"
            )
        if not (
            math.isfinite(self.nlos_blocking_db) and self.nlos_blocking_db >= 0
        ):
            raise ConfigurationError(
                "nlos_blocking_db must be finite and non-negative, got "
                f"{self.nlos_blocking_db!r}"
            )
        if self.environment not in ENVIRONMENTS:
            raise ConfigurationError(
                f"unknown environment {self.environment!r}; known: "
                f"{', '.join(sorted(ENVIRONMENTS))}"
            )
        if not (
            _is_int(self.repetition)
            and self.repetition > 0
            and self.repetition % 2
        ):
            raise ConfigurationError(
                "repetition must be a positive odd integer, got "
                f"{self.repetition!r}"
            )
        if self.seed is not None and not (
            _is_int(self.seed) and self.seed >= 0
        ):
            raise ConfigurationError(
                f"seed must be None or an integer >= 0, got {self.seed!r}"
            )
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise ConfigurationError(
                f"retry must be None or a RetryPolicy, got {self.retry!r}"
            )
        if isinstance(self.faults, str):
            self.faults = FaultPlan.parse(self.faults)
        elif self.faults is not None and not isinstance(
            self.faults, FaultPlan
        ):
            raise ConfigurationError(
                "faults must be None, a spec string or a FaultPlan, got "
                f"{self.faults!r}"
            )
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
    a: np.ndarray, b: np.ndarray, sample_rate: float
) -> float:
    """Sound-Proof-style ambient similarity in [−1, 1].

    Thin wrapper over :class:`repro.core.colocation.AmbientComparator`
    (kept as a function because the session only needs the score).  The
    offline scorer (:meth:`~repro.verifiers.AmbientNoiseVerifier.score`)
    calls it; a session's prefilter scores its batch with
    :func:`~repro.verifiers.ambient_scores_rows`, whose one-row call
    equals it.

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
        freqs, psd_a = comparator.psd_batch(a[None, :])
        _, psd_b = comparator.psd_batch(b[None, :])
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
    sessions replay bit-identically).

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
            # start() time; every fired fault lands as a counter on
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
        self, rng=None, tracer: Optional[Tracer] = None
    ) -> UnlockOutcome:
        """Execute the full protocol once via the stage engine."""
        return self.begin(rng, tracer).finish()

    def begin(
        self, rng=None, tracer: Optional[Tracer] = None
    ) -> "PendingSession":
        """Start an attempt, paused before its first stage.

        Nothing runs yet.  :meth:`PendingSession.feed` steps the pass up
        to a named stage, :meth:`PendingSession.step` runs one stage for
        a batch of paused sessions (the fleet executor steps every stage
        this way), and :meth:`PendingSession.finish` runs the pass to
        its outcome.
        """
        ctx = self._build_context(rng)
        engine = StageEngine(build_unlock_stages(), tracer=tracer)
        engine.tracer.bind_sim_clock(lambda: ctx.timeline.clock.now)
        return PendingSession(self, ctx, engine, engine.start(ctx))

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
    """An unlock attempt suspended mid-protocol, or finished.

    Returned by :meth:`UnlockSession.begin`, paused before the first
    stage.  A *paused* pending session waits before a stage
    (:attr:`next_stage`); its :attr:`ctx` holds everything the stages
    before it wrote.  A *finished* one holds its engine result, and
    ``finish`` just packages the outcome.

    :meth:`step` runs the stage many paused sessions wait before as one
    batch (:meth:`~repro.core.stages.StageEngine.step_paused`), leaving
    each paused before its next stage or finished — a NACK leaves it
    before ``otp-tx``, a re-probe before ``probe-tx``.  :meth:`feed`
    steps one session up to a named stage, and :meth:`finish` steps it
    to its outcome.
    """

    def __init__(
        self,
        session: UnlockSession,
        ctx: SessionContext,
        engine: StageEngine,
        pause: EnginePause,
    ):
        self.session = session
        self.ctx = ctx
        self.engine = engine
        self._pause: Optional[EnginePause] = pause
        self._result: Optional[EngineResult] = None

    @property
    def paused(self) -> bool:
        """True while the engine is suspended awaiting a step."""
        return self._result is None

    @property
    def next_stage(self) -> Optional[str]:
        """The stage a paused session waits before; ``None`` if done."""
        return self._pause.next_stage if self._pause is not None else None

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

    def feed(self, until: Optional[str] = None) -> None:
        """Step a paused session until it waits before ``until``,
        having run at least one stage, or to its end when ``until`` is
        ``None`` (:meth:`~repro.core.stages.StageEngine.resume`); a
        finished session is left as it is."""
        if self._result is None:
            self._settle(self.engine.resume(self._pause, until))

    def finish(self) -> UnlockOutcome:
        """Step the session to its end and package its outcome."""
        self.feed()
        return self.session._outcome(self.ctx, self._result, self.engine)
