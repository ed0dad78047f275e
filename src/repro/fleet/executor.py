"""Shard execution: per-user security state + batched prefilter.

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

* **The batched staging fast path.**  Phase A replays each session's
  stage rng streams (the exact :class:`~repro.core.stages.StageRng`
  construction the session itself would use) and computes the shard's
  expensive DSP as stacked batches, staged onto
  :class:`~repro.protocol.session.PrecomputedStages`.  ``staging="otp"``
  stages every protocol phase the fault plan leaves bit-exact
  (:func:`staged_phases`); ``"none"`` runs every stage live:

  - the **prefilter**: the accelerometer pairs and the whole shard's
    motion DTW in anti-diagonal wavefronts
    (:func:`repro.sensors.dtw.normalized_dtw_batch`, whose one-row
    call is the live score; see ``tests/test_fleet.py``);
  - the **Phase-1 probe**: each session's ``probe-tx`` stream and
    fault injector — the shard's ambient captures and probe channels
    (:meth:`~repro.channel.link.AcousticLink.transmit_rows`, the
    kernel of the live transmit), synchronizer cross-correlations,
    pilot receive FFTs and ambient fingerprints run as stacked batches
    (:func:`precompute_probe`), with the generator's and injector's
    states captured so a re-probe continues both where live would;
  - the **Phase-2 OTP transmit/receive**.  Tokens depend on per-user
    OTP counter state (each session's counter position depends on
    earlier outcomes), so this phase cannot be staged up front: Phase B
    instead runs in *waves* — every user advances by at most one
    Phase-2-reaching session, paused just before ``otp-tx``; the wave's
    frames, channel convolutions, receive FFTs and pilot equalizations
    run as stacked batches (:func:`precompute_otp`); then each session
    resumes with its staged result and exact rng bit-state restore.

  Every staged batch holds at most :data:`STAGING_ROWS` rows, so
  staging memory does not grow with the shard.  Phase B has one driver
  (:func:`_run_waves`); with the OTP phase unstaged no session pauses
  and it runs each user's day straight through.  Every staged value is
  bit-identical to what the live stage would compute, so the aggregate
  document is byte-identical across staging levels (CI ``cmp``-checks
  this).  Under fault injection each session's own injector rides
  both batched channels; only a wireless fault armed at ``otp-tx``,
  which the plan reaches out of band, drops the OTP waves.

The output is a list of compact :class:`~repro.fleet.aggregate.
SessionRecord`\\ s in canonical ``(user_id, session_index)`` order.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from functools import lru_cache
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..channel.link import AcousticLink, partition_indices
from ..channel.scenarios import get_environment
from ..config import SystemConfig
from ..core.colocation import AmbientComparator
from ..core.stages import StageRng
from ..devices.profiles import DEVICES
from ..errors import ConfigurationError, ModemError, WearLockError
from ..faults import WIRELESS_FAULTS, FaultPlan
from ..modem.constellation import get_constellation
from ..modem.context import signal_plane
from ..modem.probe import ChannelProber
from ..modem.receiver import OfdmReceiver, receive_batch_grouped
from ..modem.subchannels import ChannelPlan
from ..modem.transmitter import OfdmTransmitter
from ..protocol.controllers import (
    PhoneController,
    TokenTransmission,
    choose_volume_spl,
)
from ..protocol.session import (
    AbortReason,
    PendingSession,
    PrecomputedOtp,
    PrecomputedPrefilter,
    PrecomputedProbe,
    RetryPolicy,
    SessionConfig,
    UnlockSession,
    session_link,
)
from ..security.tokens import token_to_bits
from ..protocol.stages import NOISE_FILTER_MIN_SPL, ProbeTxStage
from ..security.otp import OtpManager
from ..sensors.dtw import normalized_dtw_batch
from ..sensors.traces import (
    ActivityKind,
    co_located_pair,
    different_devices_pair,
    magnitude,
)
from ..verifiers import (
    PrecomputedVerifierEvidence,
    multiband_similarity_batch,
    needs_sensor_pair,
    probe_head_samples,
    resolve_verifier_names,
    vibration_similarity,
)

# Not called here since the probe group stages the multi-band score as
# a batch; the name stays bound because perfbench's tracer wraps it at
# both its staged and live sites.
from ..verifiers import multiband_similarity  # noqa: F401
from .aggregate import SessionRecord
from .events import ContentionPlan, SceneAnnotation, build_contention_plan
from .population import (
    FleetConfig,
    SessionSpec,
    UserProfile,
    has_sessions,
    synthesize_user,
    user_sessions,
    user_stream_states,
)

__all__ = [
    "run_shard",
    "shard_population",
    "precompute_prefilter",
    "precompute_probe",
    "precompute_otp",
    "staged_phases",
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

#: Row cap of every staged DSP batch: each DTW wavefront, each probe
#: (band, environment) group and each OTP wave block.  Every staging
#: primitive is row-independent, so the cap never changes a value; it
#: bounds the batch matrices (and so peak memory) however many sessions
#: one shard holds.
STAGING_ROWS = 64

#: The stage whose rng stream feeds the sensor pair (must match
#: ``SensorCaptureStage.name``).
_SENSOR_STAGE = "sensor-capture"

#: The stage whose rng stream feeds the Phase-1 probe (must match
#: ``ProbeTxStage.name``).
_PROBE_STAGE = "probe-tx"

#: The stage whose rng stream feeds the Phase-2 transmit (must match
#: ``OtpTxStage.name``) — also the stage the wave executor pauses
#: sessions in front of.
_OTP_STAGE = "otp-tx"


def _staging_blocks(items: Sequence) -> Iterator[Sequence]:
    """Consecutive slices of ``items``, each at most :data:`STAGING_ROWS`
    long (the cap is read at call time)."""
    for lo in range(0, len(items), STAGING_ROWS):
        yield items[lo:lo + STAGING_ROWS]


def staged_phases(staging: str, faults: Optional[FaultPlan]) -> FrozenSet[str]:
    """The protocol phases a shard stages out of band.

    ``"none"`` stages nothing.  ``"otp"`` stages every phase the fault
    plan cannot make diverge from its live run.  Every fault spec draws
    from its own stream, and both acoustic replays run each session's
    own injector, so ``"prefilter"`` and ``"probe"`` are always staged.
    ``"otp"`` is dropped when a wireless spec is armed at ``otp-tx``:
    the channel-config message is delivered *before* the live
    transmit, so a wave-staged transmit would add or reorder injector
    events.  Adding specs to a plan never adds a phase.
    """
    if staging not in STAGING_LEVELS:
        raise ConfigurationError(
            f"staging must be one of {STAGING_LEVELS}, got {staging!r}"
        )
    if staging == "none":
        return frozenset()
    phases = {"prefilter", "probe"}
    if not any(
        s.kind in WIRELESS_FAULTS and s.matches(_OTP_STAGE)
        for s in faults or ()
    ):
        phases.add("otp")
    return frozenset(phases)


def _user_secret(fleet_seed: int, user_id: int) -> bytes:
    """Stable per-user pairing secret (independent of rng streams)."""
    return hashlib.sha256(
        b"fleet-pairing:"
        + fleet_seed.to_bytes(8, "big", signed=True)
        + user_id.to_bytes(8, "big")
    ).digest()


def _draw_pair(spec: SessionSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Replay the session's own sensor-capture draw, out of band."""
    rng = StageRng(seed=spec.seed).for_stage(_SENSOR_STAGE)
    kind = ActivityKind(spec.activity)
    if spec.co_located:
        return co_located_pair(kind, rng=rng)
    return different_devices_pair(kind, rng=rng)


def precompute_prefilter(
    specs: Sequence[SessionSpec],
) -> List[PrecomputedPrefilter]:
    """Phase A: sensor pairs + batched DTW wavefronts per shard.

    Sensor windows are fixed-length (100 samples at 50 Hz), so every
    session whose verifier set runs the DTW channel stacks into
    ``(batch, n) × (batch, m)`` wavefronts of at most
    :data:`STAGING_ROWS` rows.  Scores are grouped by window shape
    anyway, as a guard against future variable-length windows.  Sessions whose verifier set includes the vibration
    channel additionally stage its cross-correlation score; sessions
    whose set touches no motion-domain verifier skip the sensor draw
    entirely, exactly like the live ``sensor-capture`` stage.
    """
    resolved = [resolve_verifier_names(spec.verifiers) for spec in specs]
    pairs: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [
        _draw_pair(spec) if needs_sensor_pair(names) else None
        for spec, names in zip(specs, resolved)
    ]
    dtw_idx = [i for i, names in enumerate(resolved) if "motion-dtw" in names]
    mags = {
        i: (magnitude(pairs[i][0]), magnitude(pairs[i][1])) for i in dtw_idx
    }
    scores: Dict[int, float] = {}
    by_shape = partition_indices(
        (mags[i][0].size, mags[i][1].size) for i in dtw_idx
    )
    for positions in by_shape.values():
        for block in _staging_blocks([dtw_idx[p] for p in positions]):
            xs = np.stack([mags[i][0] for i in block])
            ys = np.stack([mags[i][1] for i in block])
            batch = normalized_dtw_batch(xs, ys)
            for j, i in enumerate(block):
                scores[i] = float(batch[j])
    return [
        PrecomputedPrefilter(
            sensor_pair=pairs[i],
            evidence=PrecomputedVerifierEvidence(
                motion_score=scores.get(i),
                vibration_similarity=(
                    vibration_similarity(pairs[i][0], pairs[i][1])
                    if "vibration" in resolved[i]
                    else None
                ),
            ),
        )
        for i in range(len(specs))
    ]


def _ambient_scores(
    fs: float,
    ambients: np.ndarray,
    heads: np.ndarray,
    amb_rows: Sequence[int],
    mb_rows: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Both ambient fingerprints' scores from one Welch pass per matrix.

    Returns the 18-band similarity of the (ambient, probe head) row
    pairs in ``amb_rows`` and the 24-band multi-band score of those in
    ``mb_rows``.  The two fingerprints differ only in their band
    layout, so both reduce the same two :meth:`~repro.core.colocation.
    AmbientComparator.psd_batch` spectra.  Mirrors the live scalars:
    recordings too short to fingerprint score every pair 0.0, and so
    does an all-zero (silent) head.
    """
    comparator = AmbientComparator(
        sample_rate=fs, high_hz=min(18_000.0, fs / 2.2)
    )
    sims = np.zeros(len(amb_rows))
    mb = np.zeros(len(mb_rows))
    try:
        freqs, psds_a = comparator.psd_batch(ambients)
        _, psds_b = comparator.psd_batch(heads)
    except WearLockError:
        return sims, mb
    if amb_rows:
        try:
            sims = comparator.profile_similarity(
                comparator.band_profiles(freqs, psds_a[amb_rows]),
                comparator.band_profiles(freqs, psds_b[amb_rows]),
            )
        except WearLockError:
            pass
    if mb_rows:
        mb = multiband_similarity_batch(
            freqs, psds_a[mb_rows], psds_b[mb_rows], fs
        )
    return sims, mb


def _stage_probe_group(
    system: SystemConfig,
    band: str,
    env_name: str,
    group: Sequence[SessionSpec],
    faults: Optional[FaultPlan] = None,
) -> Tuple[
    List[PrecomputedProbe], List[Optional[float]], List[Optional[float]]
]:
    """Replay one (band, environment) group's probe-tx stages batched.

    Every session in the group emits the same probe at the same level,
    so the group is one :meth:`~repro.channel.link.AcousticLink.
    record_ambient_rows` and one :meth:`~repro.channel.link.
    AcousticLink.transmit_rows` call (one speaker render, one signal
    spectrum) on the sessions' own links and fault injectors
    (:func:`~repro.protocol.session.session_link`), then one
    :meth:`~repro.modem.probe.ChannelProber.analyze_batch` per
    recording length.  Each staged probe carries its generator's and
    its injector's post-draw states.

    When the scene is loud enough for the ambient gate, the detected
    rows' ambient scores come from one Welch pass over the ambient
    recordings and one over the probe heads (:func:`_ambient_scores`):
    the 18-band similarity for the rows whose verifier set runs
    ``ambient``, the 24-band multi-band score for the rows whose set
    runs ``multiband``.
    """
    env = get_environment(env_name)
    modem_system = system
    if band == "ultrasound":
        modem_system = replace(system, modem=system.modem.near_ultrasound())
    modem = modem_system.modem
    fs = modem.sample_rate
    stage_rngs = [StageRng(seed=spec.seed) for spec in group]
    gens = [rng.for_stage(_PROBE_STAGE) for rng in stage_rngs]
    links = [
        session_link(_session_config(system, spec, faults, None), rng)
        for spec, rng in zip(group, stage_rngs)
    ]
    for link in links:
        if link.injector is not None:
            link.injector.enter_stage(_PROBE_STAGE)
    prober = ChannelProber(modem)
    noise_spl_est = float(env.noise.effective_spl())
    _, tx_spl = choose_volume_spl(modem_system, noise_spl_est)

    # Draw 1 — the phone's ambient self-recording.  Its samples feed
    # only the noise-similarity gate; when the scene is too quiet for
    # the gate to fire, advance the streams without the shaping DSP.
    need_sims = noise_spl_est >= NOISE_FILTER_MIN_SPL
    ambients = AcousticLink.record_ambient_rows(
        links, ProbeTxStage.AMBIENT_SECONDS, gens, values=need_sims
    )
    # Draws 2-4 — the probe through each session's channel.
    probe = prober.build_probe()
    recordings = AcousticLink.transmit_rows(
        links, [probe] * len(group), [tx_spl] * len(group), gens
    )
    states = [gen.bit_generator.state for gen in gens]

    # A row whose live analysis would raise aborts the live stage as
    # ``probe_not_detected``; the staged report marks it ``None``.
    reports: List[Optional[object]] = [None] * len(group)
    for rows in partition_indices(r.size for r in recordings).values():
        analyzed = prober.analyze_batch(
            np.stack([recordings[i] for i in rows])
        )
        for i, report in zip(rows, analyzed):
            if not isinstance(report, ModemError):
                reports[i] = report

    sims: List[Optional[float]] = [None] * len(group)
    mb_sims: List[Optional[float]] = [None] * len(group)
    if need_sims:
        # Sessions whose probe analysis failed abort before the noise
        # gate ever reads a similarity score, and a score is staged
        # only for sessions whose verifier set runs its channel.  Heads
        # cut short by a fault take their own Welch pass.
        sets = [resolve_verifier_names(spec.verifiers) for spec in group]
        head_n = probe_head_samples(fs, modem)
        heads = [recording[:head_n] for recording in recordings]
        scored = [
            i
            for i, r in enumerate(reports)
            if r is not None
            and r.detected
            and ("ambient" in sets[i] or "multiband" in sets[i])
        ]
        for rows in partition_indices(heads[i].size for i in scored).values():
            live = [scored[j] for j in rows]
            amb_rows = [j for j, i in enumerate(live) if "ambient" in sets[i]]
            mb_rows = [j for j, i in enumerate(live) if "multiband" in sets[i]]
            scores, mb_scores = _ambient_scores(
                fs,
                np.stack([ambients[i] for i in live]),
                np.stack([heads[i] for i in live]),
                amb_rows,
                mb_rows,
            )
            for j, score in zip(amb_rows, scores):
                sims[live[j]] = float(score)
            for j, score in zip(mb_rows, mb_scores):
                mb_sims[live[j]] = float(score)

    # Only the clip length survives staging: every downstream consumer
    # of the recording is itself staged (report, similarity) or needs
    # the sample count alone, so the group synthesis matrices are freed
    # here instead of being pinned through the whole shard.
    probes = [
        PrecomputedProbe(
            tx_spl=tx_spl,
            recording_samples=int(recordings[i].size),
            report=reports[i],
            rng_state=states[i],
            faults=(
                None if link.injector is None else link.injector.snapshot()
            ),
        )
        for i, link in enumerate(links)
    ]
    return probes, sims, mb_sims


def precompute_probe(
    specs: Sequence[SessionSpec],
    faults: Optional[FaultPlan] = None,
) -> Tuple[
    List[PrecomputedProbe], List[Optional[float]], List[Optional[float]]
]:
    """Phase A: replay every session's probe-tx stage, shard-batched.

    Groups the shard by (band, environment) — the keys that fix the
    probe waveform, transmit level and recording length — and replays
    each group's ``probe-tx`` rng streams out of band, in blocks of at
    most :data:`STAGING_ROWS` sessions (see :func:`_stage_probe_group`),
    each session under its own injector for the shard's fault plan
    ``faults``.  Returns per-spec
    :class:`~repro.protocol.session.PrecomputedProbe` results plus the
    ambient-similarity and multi-band scores for the verifiers
    (``None`` where the live verifier would not compute one); both
    scores of a group share its Welch spectra.
    """
    probes: List[Optional[PrecomputedProbe]] = [None] * len(specs)
    sims: List[Optional[float]] = [None] * len(specs)
    mb_sims: List[Optional[float]] = [None] * len(specs)
    system = SystemConfig()
    groups = partition_indices(
        (spec.band, spec.environment) for spec in specs
    )
    for (band, env_name), indices in groups.items():
        for block in _staging_blocks(indices):
            group_probes, group_sims, group_mb = _stage_probe_group(
                system, band, env_name, [specs[i] for i in block], faults
            )
            for j, i in enumerate(block):
                probes[i] = group_probes[j]
                sims[i] = group_sims[j]
                mb_sims[i] = group_mb[j]
    return probes, sims, mb_sims


def precompute_otp(
    pendings: Sequence[PendingSession],
) -> List[Optional[PrecomputedOtp]]:
    """Batch one wave's Phase-2 transmit + receive, bit-exactly.

    Each pending session is paused just before ``otp-tx`` with its mode
    decision, probe report and transmit level already fixed, so the
    token each phone *will* send is fully determined — ``prepare_token``
    reads the OTP counter without advancing it.  Three stacked passes
    replay what the live stages would compute:

    1. **Frames.**  Token bits are encoded per session, then sessions
       sharing a signal plane and coded length go through one
       :meth:`~repro.modem.transmitter.OfdmTransmitter.modulate_batch`.
    2. **Channel.**  One :meth:`~repro.channel.link.AcousticLink.
       transmit_rows` call — the live transmit's kernel — on every
       session's own link, fault injector (scoped to ``otp-tx``) and
       ``otp-tx`` generator (the memoized :meth:`~repro.core.stages.
       SessionContext.rng_for` stream, so the live stage sees the
       advanced state).
    3. **Receive.**  The watch-side plane is rebuilt exactly the way
       :meth:`~repro.protocol.controllers.WatchController.demodulate`
       rebuilds it from the channel-config message, and sessions
       sharing sync geometry (modem config, mode, data-channel count,
       recording length, bit count) go through one
       :func:`~repro.modem.receiver.receive_batch_grouped` whatever
       their plans.  It returns the
       :class:`~repro.errors.ModemError` instance for each frame whose
       live :meth:`~repro.modem.receiver.OfdmReceiver.receive` raises;
       those frames get ``None`` bits (→ ``data_not_detected``
       downstream).

    Recordings are dropped here: only the sample count survives (for
    the offload arithmetic), plus the post-draw generator state so a
    NACK retransmission continues the stream exactly where live would.
    """
    n = len(pendings)
    results: List[Optional[PrecomputedOtp]] = [None] * n
    if not n:
        return results

    # Pass 1 — tokens + frame assembly, bucketed by signal plane (a
    # cached singleton, so identity is the key) and coded bit count.
    prepared: List[Tuple] = [None] * n
    planes: List[object] = [None] * n
    coded: List[np.ndarray] = [None] * n
    for i, pending in enumerate(pendings):
        ctx = pending.ctx
        phone = ctx.phone
        decision = ctx.mode_decision
        use_plan = ctx.report.recommended_plan or phone.plan
        constellation = phone.modulator.constellation_for(decision)
        token = phone.otp.generate()
        bits = token_to_bits(token, phone.otp.token_bits)
        coded[i] = phone.code.encode(bits)
        planes[i] = signal_plane(phone.config.modem, use_plan, constellation)
        prepared[i] = (decision.mode, use_plan, token)
    tts: List[Optional[TokenTransmission]] = [None] * n
    for key, idxs in partition_indices(
        (id(planes[i]), coded[i].size) for i in range(n)
    ).items():
        tx = OfdmTransmitter(plane=planes[idxs[0]])
        frames = tx.modulate_batch([coded[i] for i in idxs])
        for frame, i in zip(frames, idxs):
            mode, use_plan, token = prepared[i]
            tts[i] = TokenTransmission(
                result=frame,
                mode=mode,
                plan=use_plan,
                tx_spl=pendings[i].ctx.tx_spl,
                token=token,
                coded_bits=coded[i].size,
            )

    # Pass 2 — the acoustic channel, on each session's own stage
    # stream and link, fault injector included.
    gens = [p.ctx.rng_for(_OTP_STAGE) for p in pendings]
    links = [p.ctx.link for p in pendings]
    for link in links:
        if link.injector is not None:
            # The engine paused *before* entering otp-tx, so the
            # injector is still scoped to the previous stage.
            link.injector.enter_stage(_OTP_STAGE)
    recordings = AcousticLink.transmit_rows(
        links,
        [tt.result.waveform for tt in tts],
        [tt.tx_spl for tt in tts],
        gens,
    )
    states = [gen.bit_generator.state for gen in gens]

    # Pass 3 — watch-side receive, planes rebuilt from the config
    # message exactly like WatchController.demodulate.
    msgs = [
        pendings[i].ctx.phone.channel_config_message(tts[i])
        for i in range(n)
    ]
    rx_planes: List[object] = [None] * n
    plane_memo: Dict[Tuple, object] = {}
    for i, pending in enumerate(pendings):
        modem = pending.ctx.watch.config.modem
        # Keyed by the frozen config's *value*, not identity: every
        # session builds its own ModemConfig object, and an id() key
        # would rebuild the ChannelPlan and re-probe the plane cache
        # once per session instead of once per (config, plan, mode).
        memo_key = (
            modem,
            msgs[i].mode,
            tuple(msgs[i].data_channels),
            tuple(msgs[i].pilot_channels),
        )
        plane = plane_memo.get(memo_key)
        if plane is None:
            rx_plan = ChannelPlan(
                fft_size=modem.fft_size,
                data=tuple(msgs[i].data_channels),
                pilots=tuple(msgs[i].pilot_channels),
            )
            plane = signal_plane(
                modem, rx_plan, get_constellation(msgs[i].mode)
            )
            plane_memo[memo_key] = plane
        rx_planes[i] = plane
    bits_out: List[Optional[np.ndarray]] = [None] * n
    # Grouped by sync geometry, not by plane: sessions rarely share a
    # probe-selected plan, so an id(plane) partition would shatter the
    # wave into near-singleton stacks.  The modem config plus the
    # (mode, data-channel count) pair fix everything the shared sync
    # front-half depends on; the per-plan tail runs inside
    # receive_batch_grouped.
    rx_memo: Dict[int, OfdmReceiver] = {}

    def _rx(plane) -> OfdmReceiver:
        receiver = rx_memo.get(id(plane))
        if receiver is None:
            receiver = OfdmReceiver(plane=plane)
            rx_memo[id(plane)] = receiver
        return receiver

    for key, idxs in partition_indices(
        (
            pendings[i].ctx.watch.config.modem,
            msgs[i].mode,
            len(msgs[i].data_channels),
            recordings[i].size,
            msgs[i].n_bits,
        )
        for i in range(n)
    ).items():
        received = receive_batch_grouped(
            [_rx(rx_planes[i]) for i in idxs],
            [recordings[i] for i in idxs],
            expected_bits=msgs[idxs[0]].n_bits,
        )
        for res, i in zip(received, idxs):
            # A failed row carries the ModemError the live receive
            # raises; its staged bits are None (→ data_not_detected).
            bits_out[i] = None if isinstance(res, ModemError) else res.bits

    for i in range(n):
        lite = replace(
            tts[i], result=replace(tts[i].result, waveform=None)
        )
        results[i] = PrecomputedOtp(
            token_tx=lite,
            recording_samples=int(recordings[i].size),
            received_bits=bits_out[i],
            rng_state=states[i],
        )
    return results


def _stage_shard(
    specs: Sequence[SessionSpec],
    phases: FrozenSet[str],
    anns: Sequence[Optional[SceneAnnotation]],
    faults: Optional[FaultPlan] = None,
) -> List[Optional[PrecomputedPrefilter]]:
    """Phase A for a whole shard: the prefilter, plus the probe replay
    under the shard's fault plan when ``phases`` (from
    :func:`staged_phases`) holds it.

    A contention-aborted session never executes, so staging its DSP
    would be pure waste.  Every staged value is bit-identical per row
    regardless of batch composition (the staging contract), so carving
    aborted rows out of the batches cannot perturb the survivors.
    """
    staged: List[Optional[PrecomputedPrefilter]] = [None] * len(specs)
    if not phases:
        return staged
    live = [i for i, ann in enumerate(anns) if ann is None or not ann.aborted]
    live_specs = [specs[i] for i in live]
    prefilters = precompute_prefilter(live_specs)
    if "probe" in phases:
        probes, sims, mb_sims = precompute_probe(live_specs, faults)
        prefilters = [
            replace(
                pre,
                probe=probes[j],
                evidence=replace(
                    pre.evidence,
                    noise_similarity=sims[j],
                    multiband_similarity=mb_sims[j],
                ),
            )
            for j, pre in enumerate(prefilters)
        ]
    for i, pre in zip(live, prefilters):
        staged[i] = pre
    return staged


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


def _run_waves(
    config: FleetConfig,
    system: SystemConfig,
    faults: Optional[FaultPlan],
    retry: Optional[RetryPolicy],
    shard: Sequence[Tuple[UserProfile, List[SessionSpec], int]],
    staged_flat: List[Optional[PrecomputedPrefilter]],
    anns_flat: Sequence[Optional[SceneAnnotation]],
    pause_before: Optional[str],
) -> List[SessionRecord]:
    """Phase B: run every session, wave-batching Phase 2.

    A session's OTP token depends on its user's counter state, which
    depends on the *outcomes* of that user's earlier sessions — so the
    Phase-2 DSP cannot be staged up front the way the probe can.
    Instead sessions run in **waves**: each user holds at most one
    *active* session, paused just before ``pause_before``
    (:meth:`~repro.protocol.session.UnlockSession.begin`); every
    round, the wave's transmit/receive DSP runs as batches of at most
    :data:`STAGING_ROWS` sessions (:func:`precompute_otp`) and each
    session is *fed* its staged result
    (:meth:`~repro.protocol.session.PendingSession.feed`).  A
    fed session either completes — freeing its user to start the next
    session, which joins the following round — or pauses again in
    front of ``otp-tx`` (a NACK retransmission, or the tail of a
    re-probe) and is batched again: retransmissions ride the waves
    too, their generators already positioned mid-stream.  Sessions
    that abort before Phase 2 (prefilter rejections, probe failures)
    finish inside the top-up sweep without occupying a wave slot.
    Tokens are exact by construction: each is staged from the paused
    session's own OTP counter at its own attempt.  Faulted sessions
    ride the waves as well, each with its own fault injector applied
    inside :func:`precompute_otp`.

    With ``pause_before=None`` no session pauses, so the first top-up
    sweep runs every user's whole day live and no wave forms.  Records
    are sorted to the canonical ``(user_id, session_index)`` order.
    """
    states = []
    for user, specs, offset in shard:
        otp, phone = _user_phone(config, system, user)
        states.append([otp, phone, specs, offset, 0])

    records: List[SessionRecord] = []
    active: Dict[int, Tuple[SessionSpec, Optional[SceneAnnotation], PendingSession]] = {}
    while True:
        # Top-up sweep: every user without an in-flight session starts
        # sessions until one pauses at otp-tx or their day runs out.
        for ui, state in enumerate(states):
            if ui in active:
                continue
            otp, phone, specs, offset, cursor = state
            while cursor < len(specs):
                spec = specs[cursor]
                # Consume the staged entry (drop the reference at once,
                # so staged results are freed as the sweep walks them).
                staged = staged_flat[offset + cursor]
                staged_flat[offset + cursor] = None
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
                session = UnlockSession(
                    _session_config(system, spec, faults, retry),
                    otp=otp,
                    phone=phone,
                )
                pending = session.begin(
                    precomputed=staged, pause_before=pause_before
                )
                if pending.paused:
                    active[ui] = (spec, ann, pending)
                    break  # one in-flight session per user
                # Finished without pausing: the outcome is already final.
                records.append(_record(spec, pending.finish(), ann))
            state[4] = cursor
        if not active:
            break
        # One batched round: stage every in-flight transmission (first
        # attempts and retransmissions alike) block by block, and feed
        # each block back before staging the next.
        for block in _staging_blocks(list(active.items())):
            staged_otps = precompute_otp([p for _, (_, _, p) in block])
            for (ui, (spec, ann, pending)), staged_otp in zip(
                block, staged_otps
            ):
                if pending.feed(staged_otp):
                    continue  # paused again: next round stages the retry
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

    Every user's two generator states are derived for the whole range
    in one batch (:func:`~repro.fleet.population.user_stream_states`);
    one reused generator per stream is then positioned at each user in
    turn — bit-identical to the per-user ``default_rng`` construction.

    A draw-only pass (:func:`~repro.fleet.population.has_sessions`)
    first replays just the draws that decide whether the user schedules
    anything: the profile draws and the hourly Poisson counts up to the
    first non-zero one.  Users without a session are skipped before any
    profile or spec is built; the rest are repositioned and materialized
    in full.  The skip is bit-exact: a zero count consumes only its own
    draw (the per-session draws run ``count`` times), and a user with an
    empty schedule is left out of the population either way.
    """
    user_ids = range(user_lo, user_hi)
    profile_states, schedule_states = user_stream_states(config, user_ids)
    profile_rng = np.random.Generator(np.random.PCG64())
    schedule_rng = np.random.Generator(np.random.PCG64())
    population: ShardPopulation = []
    for user_id, profile_state, schedule_state in zip(
        user_ids, profile_states, schedule_states
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
    stage live (the oracle), ``"otp"`` stages every phase
    :func:`staged_phases` allows for the config's fault plan — the
    prefilter and probe in Phase A, the OTP waves in Phase B
    (:func:`_run_waves`).  The plan is parsed once per shard and shared
    by every session.  Both levels produce byte-identical aggregates.

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
    # Parsed once per shard; every session shares the immutable plan.
    faults = config.fault_plan()
    phases = staged_phases(staging, faults)
    system = SystemConfig()
    retry = RetryPolicy() if config.retry else None
    if contention is None and config.scene_density > 0.0:
        contention = _contention_plan(config).for_user_range(user_lo, user_hi)
    if population is None:
        population = shard_population(config, user_lo, user_hi)

    # The whole shard's specs, flattened, so Phase A batches across
    # *users*, not just within one user's sessions.
    shard: List[Tuple[UserProfile, List[SessionSpec], int]] = []
    flat: List[SessionSpec] = []
    for user, specs in population:
        shard.append((user, specs, len(flat)))
        flat.extend(specs)
    anns_flat: List[Optional[SceneAnnotation]] = [
        contention.get((spec.user_id, spec.session_index))
        if contention
        else None
        for spec in flat
    ]
    return _run_waves(
        config,
        system,
        faults,
        retry,
        shard,
        _stage_shard(flat, phases, anns_flat, faults),
        anns_flat,
        pause_before=_OTP_STAGE if "otp" in phases else None,
    )
