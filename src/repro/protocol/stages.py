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
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from ..channel.link import AcousticLink, partition_indices
from ..core.stages import SessionContext, Stage, StageResult
from ..devices.compute import (
    demodulation_workload,
    probe_processing_workload,
)
from ..errors import ModemError
from ..modem.adaptive import ModeDecision
from ..modem.context import plane_cache_stats
from ..modem.transmitter import OfdmTransmitter
from ..sensors.traces import co_located_pair, different_devices_pair
from ..verifiers import (
    FusionPolicy,
    get_verifier,
    needs_sensor_pair,
    resolve_verifier_names,
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


class SensorCaptureStage:
    """RTS handshake; both devices record their accelerometer window.

    The sensor window is captured *concurrently* with Phase 1 (the
    paper's Fig. 2), so it adds no simulated delay of its own — only
    the RTS/ACK messages hit the timeline here.  The traces are staged
    into the context for the prefilter's DTW gate.
    """

    name = "sensor-capture"

    def run(self, ctx: SessionContext) -> StageResult:
        rts = deliver_message(ctx, 24, "msg_rts")
        if rts is None:
            return StageResult.abort("no_wireless_link")
        ack = deliver_message(ctx, 16, "msg_rts_ack")
        if ack is None:
            return StageResult.abort("no_wireless_link")

        names = resolve_verifier_names(
            ctx.config.verifiers,
            use_motion_filter=ctx.config.use_motion_filter,
            use_noise_filter=ctx.config.use_noise_filter,
        )
        if needs_sensor_pair(names, ctx.config.use_motion_filter):
            pre = ctx.precomputed
            if pre is not None and getattr(pre, "sensor_pair", None) is not None:
                # The fleet executor already drew this pair from the
                # stage's own stream (same seed, same draw order), so
                # regenerating it here would only repeat the work.
                ctx.sensor_pair = pre.sensor_pair
            else:
                rng = ctx.rng_for(self.name)
                if ctx.config.co_located:
                    ctx.sensor_pair = co_located_pair(
                        ctx.config.activity, rng=rng
                    )
                else:
                    ctx.sensor_pair = different_devices_pair(
                        ctx.config.activity, rng=rng
                    )
        return StageResult.proceed()


class ProbeTxStage:
    """Phase 1 on air: ambient self-recording, volume rule, probe."""

    name = "probe-tx"

    #: Seconds of phone self-recorded ambient before the probe; the
    #: fleet staging path replays this draw, so it lives in one place.
    AMBIENT_SECONDS = 0.15

    def run(self, ctx: SessionContext) -> StageResult:
        ctx.timeline.record("audio_start_p1", AUDIO_PATH_START_DELAY, "stack")
        staged = getattr(ctx.precomputed, "probe", None)
        if staged is not None and not ctx.extras.get("probe_tx_staged"):
            # First pass with a staged probe: the fleet executor already
            # replayed this stage's stream out of band (same seed, same
            # draw order, the session's own fault injector) and
            # synthesized ambient + recording in shard batches.  Restore
            # the generator and the injector to their post-draw states
            # so a later re-probe retry continues both exactly where the
            # live stage would have left them.
            ctx.extras["probe_tx_staged"] = True
            rng = ctx.rng_for(self.name)
            rng.bit_generator.state = staged.rng_state
            if ctx.faults is not None and staged.faults is not None:
                ctx.faults.restore(staged.faults)
            ctx.tx_spl = staged.tx_spl
            ctx.probe_samples = staged.recording_samples
        else:
            rng = ctx.rng_for(self.name)
            probe_wave = ctx.watch.prober.build_probe()

            # The phone self-records ambient noise before transmitting
            # (used for the volume rule and the noise-similarity filter).
            ctx.phone_ambient = ctx.link.record_ambient(
                self.AMBIENT_SECONDS, rng=rng
            )
            _, ctx.tx_spl = ctx.phone.choose_volume(ctx.noise_spl_estimate)

            ctx.probe_recording, _ = ctx.link.transmit(
                probe_wave, tx_spl=ctx.tx_spl, rng=rng
            )
            ctx.probe_samples = ctx.probe_recording.size
        probe_air_s = ctx.probe_samples / ctx.sample_rate
        ctx.timeline.record("probe_on_air", probe_air_s, "audio")
        ctx.watch_meter.record_audio(probe_air_s)
        ctx.phone_meter.record_audio(probe_air_s)
        return StageResult.proceed()


class ProbeProcessStage:
    """Phase-1 DSP — locally or offloaded — and the CTS report."""

    name = "probe-process"

    def run(self, ctx: SessionContext) -> StageResult:
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
                return StageResult.abort("no_wireless_link")
            compute_s = ctx.phone_meter.record_compute(work.mops)
            ctx.timeline.record("p1_processing_phone", compute_s, "compute_p1")
        else:
            compute_s = ctx.watch_meter.record_compute(work.mops)
            ctx.timeline.record("p1_processing_watch", compute_s, "compute_p1")

        staged = getattr(ctx.precomputed, "probe", None)
        use_staged = staged is not None and not ctx.extras.get(
            "probe_report_staged"
        )
        cache_before = plane_cache_stats()
        with ctx.trace_span("modem.analyze_probe"):
            if use_staged:
                # Batched shard-level analysis, bit-identical to the
                # in-stage call; consumed once so a re-probe retry
                # analyzes its fresh recording live.
                ctx.extras["probe_report_staged"] = True
                if staged.report is None:
                    # The batched path hit the condition under which the
                    # live analyze_probe would have raised a ModemError.
                    return StageResult.abort("probe_not_detected")
                ctx.report = staged.report
            else:
                try:
                    ctx.report = ctx.watch.analyze_probe(ctx.probe_recording)
                except ModemError:
                    # A probe mangled beyond synchronization reads as "no
                    # probe heard" — same outcome as a failed preamble.
                    return StageResult.abort("probe_not_detected")
            cache_after = plane_cache_stats()
            ctx.tracer.counter(
                "plane_cache_hits",
                float(cache_after.hits - cache_before.hits),
            )
            ctx.tracer.counter(
                "plane_cache_misses",
                float(cache_after.misses - cache_before.misses),
            )
        cts = ctx.watch.cts_message(ctx.report)
        cts_xfer = deliver_message(ctx, cts.size_bytes(), "msg_cts")
        if cts_xfer is None:
            return StageResult.abort("no_wireless_link")

        if not ctx.report.detected:
            return StageResult.abort("probe_not_detected")
        return StageResult.proceed()


class PrefilterStage:
    """The §V computation-reduction gates as pluggable verifiers.

    ``SessionConfig.verifiers`` names the :class:`~repro.verifiers.
    ProximityVerifier` set this attempt runs (``None`` = the legacy
    ambient + motion-DTW pair) and ``SessionConfig.fusion`` picks the
    :class:`~repro.verifiers.FusionPolicy` that combines their
    verdicts.  A rejecting verifier's ``abort_reason`` becomes the
    session's abort reason (``noise_mismatch`` / ``motion_mismatch`` /
    ...), so verifier-level and stage-graph diagnostics agree without a
    translation table — and the default AND walk short-circuits exactly
    like the FilterChain it replaced, reproducing the seeded goldens
    bit-identically.
    """

    name = "prefilter"

    def run(self, ctx: SessionContext) -> StageResult:
        # A re-probe retry re-enters this stage; clearing the flag makes
        # the motion-domain verifiers pay for a fresh sensor delivery on
        # every pass, exactly like the legacy gate.
        ctx.extras.pop("sensor_msg_delivered", None)
        names = resolve_verifier_names(
            ctx.config.verifiers,
            use_motion_filter=ctx.config.use_motion_filter,
            use_noise_filter=ctx.config.use_noise_filter,
        )
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
            ctx.data_samples = recording.size
            data_air_s = ctx.data_samples / ctx.sample_rate
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


class VerifyStage:
    """Phase-2 DSP, demodulation and token verification."""

    name = "verify"

    def run(self, ctx: SessionContext) -> StageResult:
        modem = ctx.system.modem
        tt = ctx.token_tx
        data_bytes = int(ctx.data_samples * 2)
        pre_work = probe_processing_workload(
            ctx.data_samples,
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

        # The fleet's OTP waves receive a block's frames in one batch
        # and leave only the bits (``None`` where the receive raised a
        # ModemError); a recording still here is demodulated now.
        if ctx.data_recording is not None:
            try:
                cache_before = plane_cache_stats()
                with ctx.trace_span("modem.demodulate"):
                    ctx.received_bits = ctx.watch.demodulate(
                        ctx.data_recording, ctx.config_msg
                    )
                    cache_after = plane_cache_stats()
                    ctx.tracer.counter(
                        "plane_cache_hits",
                        float(cache_after.hits - cache_before.hits),
                    )
                    ctx.tracer.counter(
                        "plane_cache_misses",
                        float(cache_after.misses - cache_before.misses),
                    )
            except ModemError:
                # PreambleNotFoundError, SynchronizationError, Demodu-
                # lationError: a corrupt frame the receiver cannot lock
                # onto is one protocol event — the Phase-2 data never
                # arrived.
                ctx.received_bits = None
        if ctx.received_bits is None:
            return self._resolve_failure(ctx, "data_not_detected", None)

        if ctx.retry is None:
            # Legacy single-shot path: verification commits immediately.
            ok, ctx.raw_ber = ctx.phone.verify_token_bits(
                tt, ctx.received_bits
            )
            ctx.timeline.record("keyguard", KEYGUARD_DISMISS_DELAY, "stack")
            ctx.unlocked = ok
            if not ok:
                return StageResult.abort("token_rejected", detail=ctx.raw_ber)
            return StageResult.proceed()

        # Recovery-enabled path: peek at the decode first so a frame the
        # phone itself chooses to retransmit never burns an OTP failure.
        ok, ctx.raw_ber = ctx.phone.check_token_bits(tt, ctx.received_bits)
        if ok:
            unlocked, _ = ctx.phone.verify_token_bits(tt, ctx.received_bits)
            ctx.timeline.record("keyguard", KEYGUARD_DISMISS_DELAY, "stack")
            ctx.unlocked = unlocked
            if not unlocked:
                return StageResult.abort("token_rejected", detail=ctx.raw_ber)
            return StageResult.proceed()
        return self._resolve_failure(ctx, "token_rejected", ctx.raw_ber)

    def _resolve_failure(
        self, ctx: SessionContext, reason: str, ber: Optional[float]
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
            ctx.phone.verify_token_bits(ctx.token_tx, ctx.received_bits)
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
