"""The Fig. 2 unlock flow as named stages for the stage-graph engine.

Each stage maps one box of the paper's protocol diagram onto a
:class:`repro.core.stages.Stage`:

================  ====================================================
stage             paper step (Fig. 2)
================  ====================================================
wireless-check    power-button click → Bluetooth/WiFi link presence
sensor-capture    RTS/ACK handshake; both devices capture the 2 s
                  accelerometer window during Phase 1
probe-tx          Phase 1 on air: volume rule, probe transmission
probe-process     probe DSP (local or offloaded) + CTS channel report
prefilter         computation-reduction gates: pluggable proximity
                  verifiers under a per-session fusion policy
mode-select       NLOS verdict, MaxBER policy, adaptive modulation
otp-tx            channel-config message + Phase 2 OTP on air
verify            Phase 2 DSP (local or offloaded), demodulation,
                  token verification, keyguard update
================  ====================================================

Cheap gates run first and every stage may abort; the engine's
``stopped_by`` plus the domain :class:`~repro.protocol.session.
AbortReason` make the two reporting schemes (stage graph and
verifier-level results) read identically.

The stages the fleet batches — sensor capture, probe transmit, probe
analysis, the prefilter, the OTP transmit and verify — each have one
body, ``run_rows(ctxs)``, that runs every row in live order on the
row's own wireless link, stage generator and fault injector and stacks
only the pure DSP; ``run(ctx)`` is its one-row call.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from ..channel.link import AcousticLink, partition_indices
from ..core.stages import SessionContext, Stage, StageResult
from ..devices.compute import (
    demodulation_workload,
    probe_processing_workload,
)
from ..errors import ModemError
from ..modem.adaptive import ModeDecision
from ..modem.context import plane_cache_stats
from ..modem.receiver import OfdmReceiver, receive_batch_grouped
from ..modem.transmitter import OfdmTransmitter
from ..sensors.dtw import normalized_dtw_batch
from ..sensors.traces import co_located_pair, different_devices_pair, magnitude
from ..verifiers import (
    AMBIENT_DOMAIN,
    FusionPolicy,
    ambient_gate_open,
    ambient_scores_rows,
    get_verifier,
    needs_sensor_pair,
    probe_head,
    resolve_verifier_names,
    vibration_similarity,
)

__all__ = [
    "WirelessCheckStage",
    "SensorCaptureStage",
    "ProbeTxStage",
    "ProbeProcessStage",
    "PrefilterStage",
    "ModeSelectStage",
    "OtpTxStage",
    "VerifyStage",
    "build_unlock_stages",
    "deliver_message",
    "deliver_file",
    "UNLOCK_STAGE_NAMES",
    "MSG_RESEND_LIMIT",
]

# Android-stack latency constants (seconds), calibrated to the paper's
# measured end-to-end delays (Fig. 12 regime).
BUTTON_TO_APP_DELAY = 0.05
AUDIO_PATH_START_DELAY = 0.12
KEYGUARD_DISMISS_DELAY = 0.08
SENSOR_WINDOW_SECONDS = 2.0  # 100 samples at 50 Hz

#: Bounded resends for control-plane traffic when a message is dropped
#: (fault injection); the wireless layer reports the loss via
#: ``TransferStats.delivered`` after a timeout.
MSG_RESEND_LIMIT = 2


def _deliver(ctx, send, label: str, category: str, meter=None):
    """Send with bounded resends; returns the delivered stats or None.

    Every attempt — including a dropped one, which costs a timeout —
    lands on the timeline (``label``, then ``label_resendN``).  Callers
    treat ``None`` (all attempts dropped) as a dead wireless link.
    """
    for attempt in range(MSG_RESEND_LIMIT + 1):
        stats = send()
        suffix = "" if attempt == 0 else f"_resend{attempt}"
        ctx.timeline.record(label + suffix, stats.seconds, category)
        if meter is not None:
            meter.record_radio(stats.seconds)
        if getattr(stats, "delivered", True):
            return stats
        ctx.tracer.counter("wireless.resend", 1.0)
    return None


def deliver_message(ctx, n_bytes: int, label: str, category: str = "comm"):
    """Control message with drop-recovery (see :func:`_deliver`)."""
    return _deliver(ctx, lambda: ctx.wireless.send_message(n_bytes), label, category)


def deliver_file(
    ctx, n_bytes: int, label: str, category: str = "comm", meter=None
):
    """Bulk transfer with drop-recovery (see :func:`_deliver`)."""
    return _deliver(
        ctx, lambda: ctx.wireless.send_file(n_bytes), label, category, meter
    )


class WirelessCheckStage:
    """Power button pressed; is the watch even in wireless range?"""

    name = "wireless-check"

    def run(self, ctx: SessionContext) -> StageResult:
        ctx.timeline.record("button_to_app", BUTTON_TO_APP_DELAY, "stack")
        if not ctx.wireless.connected:
            return StageResult.abort("no_wireless_link")
        return StageResult.proceed()


def _verifier_names(ctx: SessionContext):
    """The verifier set this attempt's prefilter runs."""
    return resolve_verifier_names(
        ctx.config.verifiers,
        use_motion_filter=ctx.config.use_motion_filter,
        use_noise_filter=ctx.config.use_noise_filter,
    )


def _reads_ambient(ctx: SessionContext, names) -> bool:
    """Will a verifier of ``names`` read this attempt's ambient capture?"""
    return ambient_gate_open(ctx) and bool(AMBIENT_DOMAIN & set(names))


class SensorCaptureStage:
    """RTS handshake; both devices record their accelerometer window.

    The sensor window is captured *concurrently* with Phase 1 (the
    paper's Fig. 2), so it adds no simulated delay of its own — only
    the RTS/ACK messages hit the timeline here.  The window's motion
    scores go into ``ctx.verifier_scores`` for the prefilter: the
    motion DTW (``motion-dtw``) and the resonance peak (``vibration``),
    each only where the verifier set runs it.

    :meth:`run_rows` is the body: per row, in live order, the handshake
    on the session's own wireless link and the pair drawn from its own
    ``sensor-capture`` generator; then the DTW of every row as one
    anti-diagonal wavefront per window shape
    (:func:`~repro.sensors.dtw.normalized_dtw_batch`).  :meth:`run` is
    its one-row call.
    """

    name = "sensor-capture"

    def run(self, ctx: SessionContext) -> StageResult:
        return self.run_rows([ctx])[0]

    def run_rows(self, ctxs: Sequence[SessionContext]) -> List[StageResult]:
        results: List[StageResult] = []
        dtw_rows: List[SessionContext] = []
        mags = []
        for ctx in ctxs:
            if deliver_message(ctx, 24, "msg_rts") is None or (
                deliver_message(ctx, 16, "msg_rts_ack") is None
            ):
                results.append(StageResult.abort("no_wireless_link"))
                continue
            results.append(StageResult.proceed())
            names = _verifier_names(ctx)
            if not needs_sensor_pair(names, ctx.config.use_motion_filter):
                continue
            draw = (
                co_located_pair
                if ctx.config.co_located
                else different_devices_pair
            )
            phone_xyz, watch_xyz = draw(
                ctx.config.activity, rng=ctx.rng_for(self.name)
            )
            if "motion-dtw" in names:
                dtw_rows.append(ctx)
                mags.append((magnitude(phone_xyz), magnitude(watch_xyz)))
            if "vibration" in names:
                ctx.verifier_scores["vibration"] = vibration_similarity(
                    phone_xyz, watch_xyz
                )

        for rows in partition_indices(
            (x.size, y.size) for x, y in mags
        ).values():
            scores = normalized_dtw_batch(
                np.stack([mags[j][0] for j in rows]),
                np.stack([mags[j][1] for j in rows]),
            )
            for j, score in zip(rows, scores):
                dtw_rows[j].verifier_scores["motion-dtw"] = float(score)
        return results


class ProbeTxStage:
    """Phase 1 on air: ambient self-recording, volume rule, probe.

    :meth:`run_rows` is the body: per row the phone's ambient
    self-recording, then the probe, each on the session's own link,
    ``probe-tx`` generator and fault injector — one
    :meth:`~repro.channel.link.AcousticLink.record_ambient_rows` per
    shaping rule and one :meth:`~repro.channel.link.AcousticLink.
    transmit_rows` for every row, rows sharing a probe waveform and
    level sharing its speaker render.  The ambient samples are shaped
    only where a verifier will read them (the draws advance either
    way).  :meth:`run` is its one-row call.
    """

    name = "probe-tx"

    #: Seconds of phone self-recorded ambient before the probe.
    AMBIENT_SECONDS = 0.15

    def run(self, ctx: SessionContext) -> StageResult:
        return self.run_rows([ctx])[0]

    def run_rows(self, ctxs: Sequence[SessionContext]) -> List[StageResult]:
        gens = [ctx.rng_for(self.name) for ctx in ctxs]
        for ctx in ctxs:
            ctx.timeline.record(
                "audio_start_p1", AUDIO_PATH_START_DELAY, "stack"
            )
        # The phone self-records ambient noise before transmitting
        # (used for the noise-similarity filters).
        for shaped, rows in partition_indices(
            _reads_ambient(ctx, _verifier_names(ctx)) for ctx in ctxs
        ).items():
            ambients = AcousticLink.record_ambient_rows(
                [ctxs[i].link for i in rows],
                self.AMBIENT_SECONDS,
                [gens[i] for i in rows],
                values=shaped,
            )
            for i, ambient in zip(rows, ambients):
                ctxs[i].phone_ambient = ambient
        # One probe object per modem config, so rows at one level share
        # a speaker render.
        probes = {}
        for ctx in ctxs:
            _, ctx.tx_spl = ctx.phone.choose_volume(ctx.noise_spl_estimate)
            modem = ctx.system.modem
            if modem not in probes:
                probes[modem] = ctx.watch.prober.build_probe()
        recordings = AcousticLink.transmit_rows(
            [ctx.link for ctx in ctxs],
            [probes[ctx.system.modem] for ctx in ctxs],
            [ctx.tx_spl for ctx in ctxs],
            gens,
        )
        for ctx, recording in zip(ctxs, recordings):
            ctx.probe_recording = recording
            ctx.probe_samples = recording.size
            probe_air_s = ctx.probe_samples / ctx.sample_rate
            ctx.timeline.record("probe_on_air", probe_air_s, "audio")
            ctx.watch_meter.record_audio(probe_air_s)
            ctx.phone_meter.record_audio(probe_air_s)
        return [StageResult.proceed() for _ in ctxs]


class ProbeProcessStage:
    """Phase-1 DSP — locally or offloaded — and the CTS report.

    :meth:`run_rows` is the body: per row the offload plan and, when
    offloaded, the clip's transfer on the session's own wireless link;
    then one :meth:`~repro.modem.probe.ChannelProber.analyze_batch` per
    (modem config, recording length); then per row the CTS report.
    :meth:`run` is its one-row call.
    """

    name = "probe-process"

    def run(self, ctx: SessionContext) -> StageResult:
        return self.run_rows([ctx])[0]

    def run_rows(self, ctxs: Sequence[SessionContext]) -> List[StageResult]:
        results: List[Optional[StageResult]] = [None] * len(ctxs)
        for i, ctx in enumerate(ctxs):
            modem = ctx.system.modem
            clip_bytes = int(ctx.probe_samples * 2)
            work = probe_processing_workload(
                ctx.probe_samples,
                modem.preamble_length,
                modem.fft_size,
            )
            plan = ctx.planner.plan(work, clip_bytes)
            ctx.tracer.counter("offloaded", float(plan.offloaded))
            ctx.tracer.counter("transfer_bytes", plan.transfer_bytes)
            if plan.offloaded:
                xfer = deliver_file(
                    ctx, clip_bytes, "p1_audio_transfer", meter=ctx.watch_meter
                )
                if xfer is None:
                    results[i] = StageResult.abort("no_wireless_link")
                    continue
                compute_s = ctx.phone_meter.record_compute(work.mops)
                ctx.timeline.record(
                    "p1_processing_phone", compute_s, "compute_p1"
                )
            else:
                compute_s = ctx.watch_meter.record_compute(work.mops)
                ctx.timeline.record(
                    "p1_processing_watch", compute_s, "compute_p1"
                )

        analyzed = [i for i, result in enumerate(results) if result is None]
        for group in partition_indices(
            (ctxs[i].system.modem, ctxs[i].probe_recording.size)
            for i in analyzed
        ).values():
            rows = [analyzed[j] for j in group]
            # Each row's span covers the batch it was analyzed in.
            with ExitStack() as spans:
                for i in rows:
                    spans.enter_context(
                        ctxs[i].trace_span("modem.analyze_probe")
                    )
                cache_before = plane_cache_stats()
                reports = ctxs[rows[0]].watch.prober.analyze_batch(
                    np.stack([ctxs[i].probe_recording for i in rows])
                )
                cache_after = plane_cache_stats()
                for i, report in zip(rows, reports):
                    if isinstance(report, ModemError):
                        # A probe mangled beyond synchronization reads as
                        # "no probe heard" — same outcome as a failed
                        # preamble.
                        results[i] = StageResult.abort("probe_not_detected")
                        continue
                    ctxs[i].report = report
                    _count_plane_cache(ctxs[i], cache_before, cache_after)

        for i in analyzed:
            if results[i] is not None:
                continue
            ctx = ctxs[i]
            cts = ctx.watch.cts_message(ctx.report)
            if deliver_message(ctx, cts.size_bytes(), "msg_cts") is None:
                results[i] = StageResult.abort("no_wireless_link")
            elif not ctx.report.detected:
                results[i] = StageResult.abort("probe_not_detected")
            else:
                results[i] = StageResult.proceed()
        return results


class PrefilterStage:
    """The §V computation-reduction gates as pluggable verifiers.

    ``SessionConfig.verifiers`` names the :class:`~repro.verifiers.
    ProximityVerifier` set this attempt runs (``None`` = the legacy
    ambient + motion-DTW pair) and ``SessionConfig.fusion`` picks the
    :class:`~repro.verifiers.FusionPolicy` that combines their
    verdicts.  A rejecting verifier's ``abort_reason`` becomes the
    session's abort reason (``noise_mismatch`` / ``motion_mismatch`` /
    ...), so verifier-level and stage-graph diagnostics agree without a
    translation table — and the default AND walk short-circuits at the
    first rejection, reproducing the seeded goldens bit-identically.

    :meth:`run_rows` is the body: both ambient fingerprints of every
    row whose verifiers read them, from one Welch pass per recording
    stack (:func:`~repro.verifiers.ambient_scores_rows`), into
    ``ctx.verifier_scores``; then each row's fusion walk.  :meth:`run`
    is its one-row call.  A re-probe re-enters this stage, so its fresh
    recording is scored afresh.
    """

    name = "prefilter"

    def run(self, ctx: SessionContext) -> StageResult:
        return self.run_rows([ctx])[0]

    def run_rows(self, ctxs: Sequence[SessionContext]) -> List[StageResult]:
        names = [_verifier_names(ctx) for ctx in ctxs]
        scored = [
            i for i, ctx in enumerate(ctxs) if _reads_ambient(ctx, names[i])
        ]
        scores = ambient_scores_rows(
            [ctxs[i].phone_ambient for i in scored],
            [probe_head(ctxs[i]) for i in scored],
            [ctxs[i].sample_rate for i in scored],
            [names[i] for i in scored],
        )
        for i, row in zip(scored, scores):
            ctxs[i].verifier_scores.update(row)
        return [self._fuse(ctx, row) for ctx, row in zip(ctxs, names)]

    @staticmethod
    def _fuse(ctx: SessionContext, names) -> StageResult:
        # A re-probe retry re-enters this stage; clearing the flag makes
        # the motion-domain verifiers pay for a fresh sensor delivery on
        # every pass, exactly like the legacy gate.
        ctx.extras.pop("sensor_msg_delivered", None)
        policy = FusionPolicy.from_spec(ctx.config.fusion)
        decision = policy.run([get_verifier(n) for n in names], ctx)
        ctx.verifier_results = decision.results
        if decision.link_failed:
            # Fail closed: without the watch's evidence no verifier can
            # vouch for co-location, regardless of fusion mode.
            return StageResult.abort("no_wireless_link")
        if not decision.passed:
            return StageResult.abort(
                decision.abort_reason, detail=decision.detail
            )
        return StageResult.proceed()


class ModeSelectStage:
    """NLOS policy and the adaptive modulation decision (Alg. 1)."""

    name = "mode-select"

    def run(self, ctx: SessionContext) -> StageResult:
        ctx.nlos_verdict = ctx.phone.evaluate_nlos(ctx.report)
        security = ctx.system.security
        max_ber = (
            ctx.config.max_ber
            if ctx.config.max_ber is not None
            else security.max_ber
        )
        if ctx.nlos_verdict.nlos and ctx.config.use_nlos_check:
            # The case study relaxes the BER requirement under NLOS
            # rather than refusing outright.
            max_ber = max(max_ber, security.nlos_relaxed_max_ber)
        if ctx.fast_path:
            # Motion fast path: high confidence of co-location, accept a
            # tighter packet (reduce MaxBER, per Alg. 1's comment).
            max_ber = min(max_ber, security.max_ber)

        allowed = None
        st = ctx.retry_state
        if st is not None and st.mode_ceiling is not None:
            # Monotone downgrade: a re-probe may never climb back above
            # the modulation that just failed.
            modes = ctx.phone.modulator.modes
            allowed = modes[modes.index(st.mode_ceiling):]
        ctx.mode_decision = ctx.phone.select_mode(
            ctx.report, max_ber, allowed_modes=allowed
        )
        if not ctx.mode_decision.feasible:
            return StageResult.abort("no_feasible_mode")
        return StageResult.proceed()


class OtpTxStage:
    """Channel-config message, then the OTP frame over the air.

    :meth:`run_rows` is the body: per row, in live order, the token,
    the config message, the frame on the session's own link,
    ``otp-tx`` generator and fault injector, and the stop message.
    :meth:`run` is its one-row call; the fleet's OTP waves run it on a
    whole block of paused sessions.
    """

    name = "otp-tx"

    def run(self, ctx: SessionContext) -> StageResult:
        return self.run_rows([ctx])[0]

    def run_rows(self, ctxs: Sequence[SessionContext]) -> List[StageResult]:
        results: List[Optional[StageResult]] = [None] * len(ctxs)
        on_air: List[int] = []
        coded = []
        planes = []
        for i, ctx in enumerate(ctxs):
            ctx.token_tx, bits, plane = ctx.phone.encode_token(
                ctx.mode_decision, ctx.report.recommended_plan, ctx.tx_spl
            )
            if ctx.retry_state is not None:
                ctx.retry_state.note_mode(ctx.token_tx.mode)
            ctx.config_msg = ctx.phone.channel_config_message(ctx.token_tx)
            cfg_xfer = deliver_message(
                ctx, ctx.config_msg.size_bytes(), "msg_channel_config"
            )
            if cfg_xfer is None:
                results[i] = StageResult.abort("no_wireless_link")
                continue
            ctx.timeline.record(
                "audio_start_p2", AUDIO_PATH_START_DELAY, "stack"
            )
            on_air.append(i)
            coded.append(bits)
            planes.append(plane)

        # One frame assembly per (signal plane, coded size) — a plane is
        # a cached singleton, so identity is the key — then one channel
        # pass over every row on air.
        for rows in partition_indices(
            (id(planes[j]), coded[j].size) for j in range(len(on_air))
        ).values():
            frames = OfdmTransmitter(plane=planes[rows[0]]).modulate_batch(
                [coded[j] for j in rows]
            )
            for j, frame in zip(rows, frames):
                ctx = ctxs[on_air[j]]
                ctx.token_tx = replace(ctx.token_tx, result=frame)
        live = [ctxs[i] for i in on_air]
        recordings = AcousticLink.transmit_rows(
            [ctx.link for ctx in live],
            [ctx.token_tx.result.waveform for ctx in live],
            [ctx.tx_spl for ctx in live],
            [ctx.rng_for(self.name) for ctx in live],
        )

        for i, ctx, recording in zip(on_air, live, recordings):
            ctx.data_recording = recording
            data_air_s = recording.size / ctx.sample_rate
            ctx.timeline.record("token_on_air", data_air_s, "audio")
            ctx.watch_meter.record_audio(data_air_s)
            ctx.phone_meter.record_audio(data_air_s)
            stop_xfer = deliver_message(ctx, 16, "msg_stop_recording")
            results[i] = (
                StageResult.proceed()
                if stop_xfer is not None
                else StageResult.abort("no_wireless_link")
            )
        return results


def _count_plane_cache(ctx: SessionContext, before, after) -> None:
    """Charge a row the plane-cache lookups of the batch that served it."""
    ctx.tracer.counter("plane_cache_hits", float(after.hits - before.hits))
    ctx.tracer.counter(
        "plane_cache_misses", float(after.misses - before.misses)
    )


def _receive_rows(
    ctxs: Sequence[SessionContext],
) -> List[Optional[np.ndarray]]:
    """Each row's Phase-2 bits (``None`` where the receive fails), one
    :func:`~repro.modem.receiver.receive_batch_grouped` per sync
    geometry: sessions rarely share a probe-selected plan."""
    bits: List[Optional[np.ndarray]] = [None] * len(ctxs)
    receivers = {}  # keyed by value: each session builds its own config
    for group in partition_indices(
        (
            ctx.watch.config.modem,
            ctx.config_msg.mode,
            len(ctx.config_msg.data_channels),
            ctx.data_recording.size,
            ctx.config_msg.n_bits,
        )
        for ctx in ctxs
    ).values():
        # Each row's span covers the batch it was received in, plane
        # lookup included.
        with ExitStack() as stack:
            spans = [
                stack.enter_context(ctxs[i].trace_span("modem.demodulate"))
                for i in group
            ]
            cache_before = plane_cache_stats()
            rxs = []
            for i in group:
                key = (ctxs[i].watch.config.modem, ctxs[i].config_msg)
                if key not in receivers:
                    receivers[key] = OfdmReceiver(
                        plane=ctxs[i].watch.signal_plane_for(key[1])
                    )
                rxs.append(receivers[key])
            outcomes = receive_batch_grouped(
                rxs,
                [ctxs[i].data_recording for i in group],
                expected_bits=ctxs[group[0]].config_msg.n_bits,
            )
            cache_after = plane_cache_stats()
            for i, span, outcome in zip(group, spans, outcomes):
                ctxs[i].data_recording = None
                if isinstance(outcome, ModemError):
                    # PreambleNotFoundError, SynchronizationError,
                    # DemodulationError: a frame the receiver cannot
                    # lock onto — the Phase-2 data never arrived.
                    span.status = "error"
                    continue
                bits[i] = outcome.bits
                _count_plane_cache(ctxs[i], cache_before, cache_after)
    return bits


class VerifyStage:
    """Phase-2 DSP, demodulation and token verification.

    :meth:`run_rows` is the body: per row the offload plan and transfer,
    then the stacked receive of every recording still held
    (:func:`_receive_rows`), then per row the token checks and retry
    planning.  :meth:`run` is its one-row call.
    """

    name = "verify"

    def run(self, ctx: SessionContext) -> StageResult:
        return self.run_rows([ctx])[0]

    def run_rows(self, ctxs: Sequence[SessionContext]) -> List[StageResult]:
        results = [self._process(ctx) for ctx in ctxs]
        held = [i for i, result in enumerate(results) if result is None]
        received = _receive_rows([ctxs[i] for i in held])
        for i, bits in zip(held, received):
            results[i] = self._verify(ctxs[i], bits)
        return results

    @staticmethod
    def _process(ctx: SessionContext) -> Optional[StageResult]:
        """Charge the Phase-2 DSP; an abort if the transfer fails."""
        modem = ctx.system.modem
        tt = ctx.token_tx
        data_bytes = int(ctx.data_recording.size * 2)
        pre_work = probe_processing_workload(
            ctx.data_recording.size,
            modem.preamble_length,
            modem.fft_size,
        )
        demod_work = demodulation_workload(
            tt.result.layout.n_symbols,
            modem.fft_size,
            len(tt.plan.data),
            len(tt.plan.pilots),
        )
        plan = ctx.planner.plan(pre_work + demod_work, data_bytes)
        ctx.tracer.counter("offloaded", float(plan.offloaded))
        ctx.tracer.counter("transfer_bytes", plan.transfer_bytes)
        if plan.offloaded:
            xfer = deliver_file(
                ctx, data_bytes, "p2_audio_transfer", meter=ctx.watch_meter
            )
            if xfer is None:
                return StageResult.abort("no_wireless_link")
            pre_s = ctx.phone_meter.record_compute(pre_work.mops)
            ctx.timeline.record("p2_preprocessing_phone", pre_s, "compute_p2pre")
            demod_s = ctx.phone_meter.record_compute(demod_work.mops)
            ctx.timeline.record(
                "p2_demodulation_phone", demod_s, "compute_p2demod"
            )
        else:
            pre_s = ctx.watch_meter.record_compute(pre_work.mops)
            ctx.timeline.record("p2_preprocessing_watch", pre_s, "compute_p2pre")
            demod_s = ctx.watch_meter.record_compute(demod_work.mops)
            ctx.timeline.record(
                "p2_demodulation_watch", demod_s, "compute_p2demod"
            )
        return None

    def _verify(
        self, ctx: SessionContext, bits: Optional[np.ndarray]
    ) -> StageResult:
        if bits is None:
            return self._resolve_failure(ctx, "data_not_detected", None, None)
        tt = ctx.token_tx
        if ctx.retry is None:
            # Legacy single-shot path: verification commits immediately.
            ok, ctx.raw_ber = ctx.phone.verify_token_bits(tt, bits)
            ctx.timeline.record("keyguard", KEYGUARD_DISMISS_DELAY, "stack")
            ctx.unlocked = ok
            if not ok:
                return StageResult.abort("token_rejected", detail=ctx.raw_ber)
            return StageResult.proceed()

        # Recovery-enabled path: peek at the decode first so a frame the
        # phone itself chooses to retransmit never burns an OTP failure.
        ok, ctx.raw_ber = ctx.phone.check_token_bits(tt, bits)
        if ok:
            unlocked, _ = ctx.phone.verify_token_bits(tt, bits)
            ctx.timeline.record("keyguard", KEYGUARD_DISMISS_DELAY, "stack")
            ctx.unlocked = unlocked
            if not unlocked:
                return StageResult.abort("token_rejected", detail=ctx.raw_ber)
            return StageResult.proceed()
        return self._resolve_failure(ctx, "token_rejected", ctx.raw_ber, bits)

    def _resolve_failure(
        self,
        ctx: SessionContext,
        reason: str,
        ber: Optional[float],
        bits: Optional[np.ndarray],
    ) -> StageResult:
        """Retry if the policy allows it; otherwise commit the failure."""
        policy = ctx.retry
        st = ctx.retry_state
        if policy is not None and st is not None:
            planned = self._plan_retry(ctx, policy, st, reason, ber)
            if planned is not None:
                return planned
        # Terminal: now the failure hits the security state machines.
        if reason == "data_not_detected":
            ctx.phone.keyguard.trusted_failure()
        else:
            ctx.phone.verify_token_bits(ctx.token_tx, bits)
            ctx.timeline.record("keyguard", KEYGUARD_DISMISS_DELAY, "stack")
        final = "retries_exhausted" if policy is not None else reason
        return StageResult.abort(final, detail=ber)

    def _plan_retry(
        self,
        ctx: SessionContext,
        policy,
        st,
        reason: str,
        ber: Optional[float],
    ) -> Optional[StageResult]:
        """NACK → modulation downgrade → retransmit, else re-probe.

        Returns ``None`` when the policy's bounds (attempts, re-probes,
        latency budget) leave no recovery move.
        """
        if ctx.timeline.total >= policy.latency_budget_s:
            return None
        if st.attempt >= policy.max_attempts:
            return None
        mode = ctx.token_tx.mode
        downgrade = ctx.phone.modulator.next_lower(mode)
        if downgrade is None and st.reprobes >= policy.max_reprobes:
            return None
        with ctx.trace_span(
            "retry.attempt",
            attempt=str(st.attempt),
            reason=reason,
            failed_mode=mode,
        ) as span:
            nack = deliver_message(ctx, policy.nack_bytes, "msg_nack")
            if nack is None:
                return StageResult.abort("no_wireless_link")
            ctx.tracer.counter("retry.attempt", 1.0)
            st.nacks += 1
            st.attempt += 1
            if downgrade is not None:
                st.mode_ceiling = downgrade
                ctx.mode_decision = ModeDecision(
                    mode=downgrade,
                    ebn0_db=ctx.mode_decision.ebn0_db,
                    max_ber=ctx.mode_decision.max_ber,
                    required_ebn0_db=ctx.mode_decision.required_ebn0_db,
                )
                span.tags["action"] = f"downgrade:{downgrade}"
                return StageResult.retry("otp-tx", reason, detail=ber)
            st.reprobes += 1
            st.mode_ceiling = mode
            span.tags["action"] = "reprobe"
            return StageResult.retry("probe-tx", reason, detail=ber)


def build_unlock_stages() -> List[Stage]:
    """The Fig. 2 flow, in order, as fresh stage instances."""
    return [
        WirelessCheckStage(),
        SensorCaptureStage(),
        ProbeTxStage(),
        ProbeProcessStage(),
        PrefilterStage(),
        ModeSelectStage(),
        OtpTxStage(),
        VerifyStage(),
    ]


UNLOCK_STAGE_NAMES = tuple(s.name for s in build_unlock_stages())
