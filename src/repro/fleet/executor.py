"""Shard execution: per-user security state + batched stages.

A shard is a contiguous range of users.  :func:`run_shard` is the
module-level (picklable) unit of work the scheduler hands to worker
processes; it owns everything that must *not* cross shard boundaries:

* **Per-user pairing state.**  Each user gets one
  :class:`~repro.security.otp.OtpManager` + :class:`~repro.protocol.
  controllers.PhoneController` whose OTP counters, failure counts and
  keyguard lockout persist across that user's sessions — which is why
  the scheduler never splits a user across shards.  When a user is
  locked out at the start of an attempt, the attempt is modelled as a
  manual PIN fallback (the paper's three-strike rule): lockout clears,
  the attempt counts as ``pin_fallback`` and not as a trusted unlock.

* **The batched staging fast path.**  ``staging="otp"`` runs every
  batchable stage of the Fig. 2 flow for blocks of sessions at once —
  each stage's own ``run_rows`` body through :meth:`~repro.protocol.
  session.PendingSession.step`, in live order on every session's own
  generators, links and fault injector, with only the pure DSP
  stacked.  ``"none"`` runs every session one stage at a time (the
  oracle):

  - **Phase A** (:func:`_begin_phase1`) begins every live session of
    the shard paused before its first stage.  The stages before
    ``otp-tx`` read only the session's own state, so they run up front
    for the whole shard: :func:`precompute_prefilter` steps the
    wireless check and sensor capture (the accelerometer pairs, then
    the motion DTW as anti-diagonal wavefronts,
    :func:`repro.sensors.dtw.normalized_dtw_batch`), and
    :func:`precompute_probe` steps the probe transmit, the probe
    analysis and the prefilter per (band, environment) block (one
    :meth:`~repro.channel.link.AcousticLink.transmit_rows`, stacked
    synchronizer correlations and pilot receive FFTs, one Welch pass
    for both ambient fingerprints), then drops the recordings and
    steps ``mode-select``, leaving each session paused before
    ``otp-tx``;
  - **Phase B**, the Phase-2 OTP transmit/receive.  Tokens depend on
    per-user OTP counter state (each session's counter position depends
    on earlier outcomes), so this phase cannot run up front: it runs
    in *waves* — every user advances by at most one Phase-2-reaching
    session, paused just before ``otp-tx``; each wave block steps the
    ``otp-tx`` stage (frames, channel convolutions) and the ``verify``
    stage (stacked receive FFTs and pilot equalizations) as batches,
    then its re-probes (:func:`precompute_otp`).

  Every batch holds at most :data:`STAGING_ROWS` rows, so staging
  memory does not grow with the shard (the paused contexts do, by
  about 15 kB each).  Phase B has one driver (:func:`_run_waves`); at
  ``"none"`` it begins and finishes each session alone, running each
  user's day straight through.  Every stage's batch body is exact per
  row, so the aggregate document is byte-identical across staging
  levels (CI ``cmp``-checks this), under any fault plan.

The output is a list of compact :class:`~repro.fleet.aggregate.
SessionRecord`\\ s in canonical ``(user_id, session_index)`` order.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..channel.link import partition_indices
from ..config import SystemConfig
from ..devices.profiles import DEVICES
from ..errors import ConfigurationError
from ..faults import FaultPlan
from ..protocol.controllers import PhoneController
from ..protocol.session import (
    AbortReason,
    PendingSession,
    RetryPolicy,
    SessionConfig,
    UnlockSession,
)
from ..security.otp import OtpManager
from ..sensors.traces import ActivityKind

# Not called here since the stages run the prefilter scores and the
# Phase-2 receive in their batch bodies; the names stay bound because
# perfbench's tracer wraps them at these sites.
from ..modem.receiver import receive_batch_grouped  # noqa: F401
from ..sensors.dtw import normalized_dtw_batch  # noqa: F401
from ..verifiers import multiband_similarity  # noqa: F401
from ..verifiers import vibration_similarity  # noqa: F401
from .aggregate import SessionRecord
from .events import ContentionPlan, SceneAnnotation, build_contention_plan
from .population import (
    FleetConfig,
    SessionSpec,
    UserProfile,
    active_user_streams,
    has_sessions,
    synthesize_user,
    user_sessions,
)

__all__ = [
    "run_shard",
    "shard_population",
    "precompute_prefilter",
    "precompute_probe",
    "precompute_otp",
    "partition_indices",
    "PIN_FALLBACK_DELAY_S",
    "STAGING_LEVELS",
    "STAGING_ROWS",
]

#: Nominal wall time a manual PIN entry costs the user (recorded as the
#: attempt's delay when a lockout forces the fallback).
PIN_FALLBACK_DELAY_S = 2.5

#: Valid shard staging levels: the all-live oracle and full staging.
STAGING_LEVELS = ("none", "otp")

#: Row cap of every batched stage step: each sensor-capture block (and
#: so each DTW wavefront), each probe (band, environment) block and
#: each OTP wave block.  Every stage's batch body is row-independent,
#: so the cap never changes a value; it bounds the batch matrices (and
#: so peak memory) however many sessions one shard holds.
STAGING_ROWS = 64

#: The stage a re-probe re-enters Phase 1 at (must match
#: ``ProbeTxStage.name``).
_PROBE_STAGE = "probe-tx"


def _staging_blocks(items: Sequence) -> Iterator[Sequence]:
    """Consecutive slices of ``items``, each at most :data:`STAGING_ROWS`
    long (the cap is read at call time)."""
    for lo in range(0, len(items), STAGING_ROWS):
        yield items[lo:lo + STAGING_ROWS]


def _user_secret(fleet_seed: int, user_id: int) -> bytes:
    """Stable per-user pairing secret (independent of rng streams)."""
    return hashlib.sha256(
        b"fleet-pairing:"
        + fleet_seed.to_bytes(8, "big", signed=True)
        + user_id.to_bytes(8, "big")
    ).digest()


def _step_live(block: Sequence[PendingSession], steps: int) -> None:
    """Step ``block``'s still-paused sessions ``steps`` times, one
    stage each time (a session that finishes drops out)."""
    for _ in range(steps):
        live = [p for p in block if p.paused]
        if live:
            PendingSession.step(live)


def precompute_prefilter(pendings: Sequence[PendingSession]) -> None:
    """Phase A, first steps: ``wireless-check``, ``sensor-capture``.

    Every live session of the shard was begun paused before its first
    stage.  Each block of at most :data:`STAGING_ROWS` of them steps
    ``wireless-check``, then ``sensor-capture`` (:meth:`~repro.
    protocol.session.PendingSession.step`; the latter is :meth:`~repro.
    protocol.stages.SensorCaptureStage.run_rows`): each session's
    handshake and sensor pair in live order on its own streams, then
    the block's motion DTW as one anti-diagonal wavefront per window
    shape.  Each session is left paused before ``probe-tx``, or
    finished (a dead link).
    """
    for block in _staging_blocks(pendings):
        _step_live(block, 2)


def precompute_probe(pendings: Sequence[PendingSession]) -> None:
    """Phase A's probe and prefilter stages, and each wave's re-probes.

    The sessions paused before ``probe-tx`` are grouped by
    (band, environment) — the keys that fix the probe waveform,
    transmit level and recording length — and cut into blocks of at
    most :data:`STAGING_ROWS`.  Each block steps ``probe-tx``,
    ``probe-process`` and ``prefilter`` as batches (one speaker render,
    one channel pass, stacked receive FFTs, one Welch pass per
    recording stack; see the stages' ``run_rows``), each session on its
    own link, generators and fault injector.  The block's recordings
    are then dropped — the report, the scores and the clip length are
    all any later stage reads — and the block steps ``mode-select``,
    leaving each session paused before ``otp-tx`` or finished.
    """
    paused = [p for p in pendings if p.next_stage == _PROBE_STAGE]
    groups = partition_indices(
        (p.session.config.band, p.session.config.environment) for p in paused
    )
    for rows in groups.values():
        for block in _staging_blocks([paused[i] for i in rows]):
            _step_live(block, 3)
            for pending in block:
                pending.ctx.probe_recording = pending.ctx.phone_ambient = None
            _step_live(block, 1)


def precompute_otp(pendings: Sequence[PendingSession]) -> None:
    """One OTP wave block: ``otp-tx``, ``verify``, then its re-probes.

    Each session is paused just before ``otp-tx``; each step runs the
    stage's own ``run_rows`` (:meth:`~repro.protocol.session.
    PendingSession.step`) on the sessions still paused.  Each comes
    back paused before ``otp-tx`` (a NACK retransmission, or a
    re-probe's tail, run by :func:`precompute_probe`) or finished.
    """
    _step_live(pendings, 2)
    reprobes = [p for p in pendings if p.next_stage == _PROBE_STAGE]
    if reprobes:
        precompute_probe(reprobes)


def _scene_fields(ann: Optional[SceneAnnotation]) -> Dict[str, object]:
    """The contention-kernel residue a record carries (all defaults when
    the session ran outside any shared scene)."""
    if ann is None:
        return {}
    return {
        "scene_slot": ann.slot,
        "scene_members": ann.members,
        "backoffs": ann.backoffs,
        "backoff_delay_s": ann.backoff_delay_s,
        "noise_penalty_db": ann.noise_penalty_db,
    }


def _spec_fields(spec: SessionSpec) -> Dict[str, object]:
    """The record fields a session's spec fixes."""
    return {
        "user_id": spec.user_id,
        "session_index": spec.session_index,
        "environment": spec.environment,
        "phone": spec.phone,
        "band": spec.band,
        "activity": spec.activity,
        "co_located": spec.co_located,
    }


def _record(
    spec: SessionSpec, outcome, ann: Optional[SceneAnnotation] = None
) -> SessionRecord:
    # Carrier-sense wait is wall time the user spent staring at a
    # locked screen; it lands in the recorded latency, never in the
    # session's own DSP (see repro.fleet.events).
    extra_delay = ann.backoff_delay_s if ann is not None else 0.0
    return SessionRecord(
        **_spec_fields(spec),
        unlocked=outcome.unlocked,
        abort_reason=(
            outcome.abort_reason.value
            if outcome.abort_reason is not AbortReason.NONE
            else ""
        ),
        mode=outcome.mode or "",
        delay_s=outcome.total_delay_s + extra_delay,
        raw_ber=outcome.raw_ber,
        attempts=outcome.attempts,
        reprobes=outcome.reprobes,
        recovered=outcome.recovered,
        faults_injected=len(outcome.faults_injected),
        watch_energy_j=outcome.watch_energy_j,
        phone_energy_j=outcome.phone_energy_j,
        pin_fallback=False,
        verifier_results=tuple(
            (r.name, r.score, bool(r.passed), bool(r.skipped))
            for r in outcome.verifier_results
        ),
        **_scene_fields(ann),
    )


def _unexecuted_record(
    spec: SessionSpec,
    reason: AbortReason,
    ann: Optional[SceneAnnotation],
) -> SessionRecord:
    """An attempt that never ran the protocol.

    ``LOCKED_OUT``: a lockout turned it into a manual PIN entry.  A
    locked-out attempt never probes, so it contends with nobody — the
    scene identity is kept (the lockout belongs to this scene's density
    bucket) but the channel tallies are zeroed.

    ``CHANNEL_CONTENTION``: the CSMA kernel exhausted the session's
    backoff budget, so the probe never got airtime; the wait is its
    latency, and the caller strikes the keyguard.
    """
    scene = _scene_fields(ann)
    pin_fallback = reason is AbortReason.LOCKED_OUT
    if pin_fallback and scene:
        scene.update(backoffs=0, backoff_delay_s=0.0, noise_penalty_db=0.0)
    return SessionRecord(
        **_spec_fields(spec),
        unlocked=False,
        abort_reason=reason.value,
        mode="",
        delay_s=PIN_FALLBACK_DELAY_S if pin_fallback else ann.backoff_delay_s,
        raw_ber=None,
        attempts=0,
        reprobes=0,
        recovered=False,
        faults_injected=0,
        watch_energy_j=0.0,
        phone_energy_j=0.0,
        pin_fallback=pin_fallback,
        **scene,
    )


def _session_config(
    system: SystemConfig,
    spec: SessionSpec,
    faults: Optional[FaultPlan],
    retry: Optional[RetryPolicy],
) -> SessionConfig:
    """The session configuration one spec describes."""
    return SessionConfig(
        system=system,
        environment=spec.environment,
        distance_m=spec.distance_m,
        los=spec.los,
        wireless=spec.wireless,
        phone_device=DEVICES[spec.phone],
        watch_device=DEVICES[spec.watch],
        activity=ActivityKind(spec.activity),
        co_located=spec.co_located,
        band=spec.band,
        seed=spec.seed,
        faults=faults,
        retry=retry,
        verifiers=spec.verifiers,
        fusion=spec.fusion,
    )


def _user_phone(
    config: FleetConfig, system: SystemConfig, user
) -> Tuple[OtpManager, PhoneController]:
    """One user's persistent security state (OTP counters + keyguard)."""
    otp = OtpManager(
        _user_secret(config.seed, user.user_id), config=system.security
    )
    phone_system = system
    if user.band == "ultrasound":
        phone_system = replace(system, modem=system.modem.near_ultrasound())
    return otp, PhoneController(phone_system, otp)


#: One user of a shard: profile, schedule, offset of the first session
#: in the shard's flat session list, OTP manager and phone controller.
_ShardUser = Tuple[
    UserProfile, List[SessionSpec], int, OtpManager, PhoneController
]


def _begin(
    system: SystemConfig,
    faults: Optional[FaultPlan],
    retry: Optional[RetryPolicy],
    user: _ShardUser,
    spec: SessionSpec,
) -> PendingSession:
    """Start ``spec``'s session on its user's phone and OTP state,
    paused before its first stage."""
    _, _, _, otp, phone = user
    session = UnlockSession(
        _session_config(system, spec, faults, retry), otp=otp, phone=phone
    )
    return session.begin()


def _begin_phase1(
    system: SystemConfig,
    faults: Optional[FaultPlan],
    retry: Optional[RetryPolicy],
    shard: Sequence[_ShardUser],
    anns_flat: Sequence[Optional[SceneAnnotation]],
) -> List[Optional[PendingSession]]:
    """Phase A: every stage before ``otp-tx`` of every live session.

    Each session the contention plan lets onto the air is begun paused
    before its first stage; :func:`precompute_prefilter` and
    :func:`precompute_probe` then step the shard's Phase-1 stages as
    batches and leave each session paused before ``otp-tx`` or
    finished.  Those stages read only the session's own state — its
    streams, links, injector and the phone's immutable policies, never
    the OTP counter or the keyguard — so running them ahead of the
    user's earlier sessions is exact.  A contention-aborted session
    never executes and gets no entry.
    """
    pendings: List[Optional[PendingSession]] = [None] * len(anns_flat)
    for user in shard:
        _, specs, offset, _, _ = user
        for j, spec in enumerate(specs):
            ann = anns_flat[offset + j]
            if ann is None or not ann.aborted:
                pendings[offset + j] = _begin(
                    system, faults, retry, user, spec
                )
    live = [p for p in pendings if p is not None]
    precompute_prefilter(live)
    precompute_probe(live)
    return pendings


def _run_waves(
    system: SystemConfig,
    faults: Optional[FaultPlan],
    retry: Optional[RetryPolicy],
    shard: Sequence[_ShardUser],
    pendings_flat: List[Optional[PendingSession]],
    anns_flat: Sequence[Optional[SceneAnnotation]],
) -> List[SessionRecord]:
    """Phase B: run every session, wave-batching Phase 2.

    A session's OTP token depends on its user's counter state, which
    depends on the *outcomes* of that user's earlier sessions — so
    Phase 2 cannot run up front the way Phase 1 does.  Instead sessions
    run in **waves**: each user holds at most one *active* session,
    paused just before ``otp-tx``; every round steps the wave in blocks
    of at most :data:`STAGING_ROWS` sessions (:func:`precompute_otp`:
    ``otp-tx``, ``verify`` and the block's re-probes).  A session
    either completes — freeing its user to start the next session,
    which joins the following round — or comes back paused in front of
    ``otp-tx`` (a NACK retransmission, or the tail of a re-probe) and
    is batched again: retransmissions and re-probes ride the waves
    too, their generators already positioned mid-stream.  Sessions
    that aborted in Phase 1 finish inside the top-up sweep without
    occupying a wave slot.
    Tokens are exact by construction: each is read from the paused
    session's own OTP counter at its own attempt.  Faulted sessions
    ride the waves as well, each transmitting under its own fault
    injector.

    ``pendings_flat`` holds each session's Phase-A pending
    (:func:`_begin_phase1`); a locked-out session's is dropped.  A
    session without one (staging ``"none"``) is begun and finished
    alone in the sweep, so no wave forms.  Records are sorted to
    the canonical ``(user_id, session_index)`` order.
    """
    cursors = [0] * len(shard)
    records: List[SessionRecord] = []
    active: Dict[int, Tuple[SessionSpec, Optional[SceneAnnotation], PendingSession]] = {}
    while True:
        # Top-up sweep: every user without an in-flight session starts
        # sessions until one pauses at otp-tx or their day runs out.
        for ui, user in enumerate(shard):
            if ui in active:
                continue
            _, specs, offset, otp, phone = user
            cursor = cursors[ui]
            while cursor < len(specs):
                spec = specs[cursor]
                # Take the pending (dropping the shard's reference, so
                # the sweep frees each context once it finishes).
                pending = pendings_flat[offset + cursor]
                pendings_flat[offset + cursor] = None
                ann = anns_flat[offset + cursor]
                cursor += 1
                if otp.locked_out or phone.keyguard.pin_required:
                    phone.keyguard.pin_unlock()
                    otp.unlock_with_pin()
                    records.append(
                        _unexecuted_record(spec, AbortReason.LOCKED_OUT, ann)
                    )
                    continue
                if ann is not None and ann.aborted:
                    # The CSMA kernel starved this probe: a failed
                    # trusted-unlock attempt that never reached the
                    # air, striking the keyguard like any other.
                    phone.keyguard.lock()
                    phone.keyguard.trusted_failure()
                    records.append(
                        _unexecuted_record(
                            spec, AbortReason.CHANNEL_CONTENTION, ann
                        )
                    )
                    continue
                phone.keyguard.lock()
                if pending is None:
                    # Staging "none": the session runs alone, start to end.
                    pending = _begin(system, faults, retry, user, spec)
                    records.append(_record(spec, pending.finish(), ann))
                    continue
                if pending.paused:
                    active[ui] = (spec, ann, pending)
                    break  # one in-flight session per user
                # Finished without pausing: the outcome is already final.
                records.append(_record(spec, pending.finish(), ann))
            cursors[ui] = cursor
        if not active:
            break
        # One batched round: every in-flight transmission (first
        # attempts and retransmissions alike) goes on air block by
        # block, and each block settles before the next transmits.
        for block in _staging_blocks(list(active.items())):
            precompute_otp([p for _, (_, _, p) in block])
            for ui, (spec, ann, pending) in block:
                if pending.paused:
                    continue  # paused again: next round batches the retry
                records.append(_record(spec, pending.finish(), ann))
                del active[ui]
    records.sort(key=lambda r: (r.user_id, r.session_index))
    return records


#: One shard's synthesized users: ``(profile, specs)`` for every user in
#: the range with at least one session, in user-id order.
ShardPopulation = List[Tuple[UserProfile, List[SessionSpec]]]


def shard_population(
    config: FleetConfig, user_lo: int, user_hi: int
) -> ShardPopulation:
    """Synthesize users ``[user_lo, user_hi)`` and their schedules.

    A vectorized activity filter
    (:func:`~repro.fleet.population.active_user_streams`) first drops
    every user that guard bands prove idle, working on blocks of users
    at once; it also derives each remaining user's two generator states.
    One reused generator per stream is then positioned at each of those
    users in turn — bit-identical to the per-user ``default_rng``
    construction.

    The exact scalar path decides the rest.  A draw-only pass
    (:func:`~repro.fleet.population.has_sessions`) replays just the
    draws that decide whether the user schedules anything: the profile
    draws and the hourly Poisson counts up to the first non-zero one.
    Users without a session are skipped before any profile or spec is
    built; the others are repositioned and materialized in full.  Both
    skips are bit-exact: the filter skips only users the exact pass
    would skip, a zero count consumes only its own draw (the
    per-session draws run ``count`` times), and a user with an empty
    schedule is left out of the population either way.
    """
    profile_rng = np.random.Generator(np.random.PCG64())
    schedule_rng = np.random.Generator(np.random.PCG64())
    population: ShardPopulation = []
    for user_id, profile_state, schedule_state in active_user_streams(
        config, user_lo, user_hi
    ):
        profile_rng.bit_generator.state = profile_state
        schedule_rng.bit_generator.state = schedule_state
        if not has_sessions(config, profile_rng, schedule_rng):
            continue
        profile_rng.bit_generator.state = profile_state
        schedule_rng.bit_generator.state = schedule_state
        user = synthesize_user(config, user_id, rng=profile_rng)
        population.append((user, user_sessions(config, user, rng=schedule_rng)))
    return population


@lru_cache(maxsize=1)
def _contention_plan(config: FleetConfig) -> ContentionPlan:
    """The whole-fleet plan, built once per process per config.

    Serves direct :func:`run_shard` callers that pass no ``contention``
    slice: N such calls over one config cost one population pass, not
    N.  The pass is :func:`shard_population` over every user, the
    scheduler's own path (population synthesis is order-free, so the
    plan is the scheduler's).  One entry bounds the memory a finished
    run leaves behind.
    """
    return build_contention_plan(
        config,
        (
            spec
            for _, specs in shard_population(config, 0, config.n_users)
            for spec in specs
        ),
    )


def run_shard(
    config: FleetConfig,
    user_lo: int,
    user_hi: int,
    staging: str = "otp",
    contention: Optional[Dict[Tuple[int, int], SceneAnnotation]] = None,
    population: Optional[ShardPopulation] = None,
) -> List[SessionRecord]:
    """Simulate users ``[user_lo, user_hi)`` and return their records.

    The range must lie within ``[0, config.n_users]`` with
    ``user_lo <= user_hi``; anything else raises
    :class:`~repro.errors.ConfigurationError`.

    ``population`` is the shard's :func:`shard_population`.  The
    scheduler passes it on contended runs, where it has already
    synthesized every user to build the contention plan; otherwise it
    is synthesized in-worker (population synthesis is order-free), so
    only the :class:`~repro.fleet.population.FleetConfig` and the range
    cross the process boundary.

    ``staging`` is one of :data:`STAGING_LEVELS`: ``"none"`` runs every
    session one stage at a time (the oracle), ``"otp"`` batches every
    phase under any fault plan — the stages before ``otp-tx`` in Phase
    A (:func:`_begin_phase1`), the OTP waves with their verify steps
    and re-probes in Phase B (:func:`_run_waves`).  The plan is parsed once per shard
    and shared by every session.  Both levels produce byte-identical
    aggregates.

    ``contention`` is this shard's slice of the discrete-event kernel's
    plan (:func:`~repro.fleet.events.build_contention_plan`).  The
    scheduler computes the plan once and passes slices; a direct caller
    may omit it — when ``scene_density > 0`` the shard slices the
    identical plan from :func:`_contention_plan`, built once per
    process from :func:`shard_population` over every user (a pure
    function, so the records cannot depend on who computed it).
    """
    if not 0 <= user_lo <= user_hi <= config.n_users:
        raise ConfigurationError(
            f"user range [{user_lo}, {user_hi}) is not within "
            f"[0, {config.n_users}]"
        )
    if staging not in STAGING_LEVELS:
        raise ConfigurationError(
            f"staging must be one of {STAGING_LEVELS}, got {staging!r}"
        )
    # Parsed once per shard; every session shares the immutable plan.
    faults = config.fault_plan()
    system = SystemConfig()
    retry = RetryPolicy() if config.retry else None
    if contention is None and config.scene_density > 0.0:
        contention = _contention_plan(config).for_user_range(user_lo, user_hi)
    if population is None:
        population = shard_population(config, user_lo, user_hi)

    # The whole shard's sessions, flattened, so Phase A batches across
    # *users*, not just within one user's sessions.
    shard: List[_ShardUser] = []
    flat: List[SessionSpec] = []
    for user, specs in population:
        otp, phone = _user_phone(config, system, user)
        shard.append((user, specs, len(flat), otp, phone))
        flat.extend(specs)
    anns_flat: List[Optional[SceneAnnotation]] = [
        contention.get((spec.user_id, spec.session_index))
        if contention
        else None
        for spec in flat
    ]
    pendings_flat = (
        _begin_phase1(system, faults, retry, shard, anns_flat)
        if staging == "otp"
        else [None] * len(flat)
    )
    return _run_waves(system, faults, retry, shard, pendings_flat, anns_flat)
