"""WearLock Controllers: the agents on each device (paper Fig. 1).

The :class:`PhoneController` owns the OTP state, the adaptive
modulator, volume control and the keyguard; the :class:`WatchController`
is the thin client that records, optionally processes, and reports.
Both consume/produce the typed messages of
:mod:`repro.wireless.messages`; the :class:`~repro.protocol.session.
UnlockSession` moves those messages (and the sound) between them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ..channel.acoustics import VolumeControl, required_tx_spl
from ..config import SystemConfig
from ..errors import ProtocolError
from ..modem.adaptive import AdaptiveModulator, ModeDecision
from ..modem.coding import Code, RepetitionCode
from ..modem.constellation import get_constellation
from ..modem.context import SignalPlane, signal_plane
from ..modem.probe import ChannelProber, ProbeReport
from ..modem.receiver import OfdmReceiver
from ..modem.subchannels import ChannelPlan
from ..modem.transmitter import OfdmTransmitter, TransmitResult
from ..security.nlos import NlosDetector, NlosVerdict
from ..security.otp import OtpManager
from ..security.tokens import bits_to_token, token_to_bits
from ..sensors.motion_filter import MotionFilter, MotionReport
from ..wireless.messages import ChannelConfigMessage, CtsMessage
from .keyguard import Keyguard


@dataclass(frozen=True)
class TokenTransmission:
    """A Phase-2 transmission as prepared by the phone."""

    #: The modulated frame (``None`` straight out of
    #: :meth:`PhoneController.encode_token`).
    result: Optional[TransmitResult]
    mode: str
    plan: ChannelPlan
    tx_spl: float
    token: int
    coded_bits: int


def choose_volume_spl(
    config: SystemConfig,
    noise_spl: float,
    volume: Optional[VolumeControl] = None,
) -> Tuple[int, float]:
    """Volume step + SPL meeting the 1-m SNR rule (paper §III-7).

    The pure volume-selection rule behind
    :meth:`PhoneController.choose_volume`, shared with the fleet
    staging path so a precomputed probe uses the exact transmit level
    the live phone controller would pick.
    """
    control = volume if volume is not None else VolumeControl()
    target = required_tx_spl(
        noise_spl=max(noise_spl, 0.0),
        min_snr_db=config.min_snr_db,
        range_m=config.target_range_m,
    )
    step = control.step_for_spl(target)
    return step, control.spl_for_step(step)


class PhoneController:
    """Phone-side agent: decides, transmits, verifies, unlocks.

    Parameters
    ----------
    config:
        Full system configuration.
    otp:
        OTP manager for this phone-watch pairing.
    repetition:
        Repetition-coding factor on the token bits — the "heavy error
        correction" headroom the paper mentions for noisy channels.
        Ignored when an explicit ``code`` is supplied.
    code:
        Channel code for the token (any :class:`repro.modem.coding.
        Code`); defaults to ``RepetitionCode(repetition)``, which is
        what the deployed system uses, but e.g. ``ConvolutionalCode``
        drops the airtime for the same robustness.
    """

    def __init__(
        self,
        config: SystemConfig,
        otp: OtpManager,
        repetition: int = 5,
        volume: Optional[VolumeControl] = None,
        code: Optional[Code] = None,
    ):
        if repetition < 1 or repetition % 2 == 0:
            raise ProtocolError("repetition must be a positive odd integer")
        self.config = config
        self.otp = otp
        self.keyguard = Keyguard(config.security)
        self.modulator = AdaptiveModulator()
        self.motion_filter = MotionFilter(config.motion)
        self.nlos_detector = NlosDetector(
            tau_threshold=config.security.nlos_tau_threshold
        )
        self.volume = volume if volume is not None else VolumeControl()
        self.repetition = repetition
        self.code: Code = (
            code if code is not None else RepetitionCode(repetition)
        )
        self._plan = ChannelPlan.from_config(config.modem)

    @property
    def plan(self) -> ChannelPlan:
        return self._plan

    def choose_volume(self, noise_spl: float) -> Tuple[int, float]:
        """Pick the volume step meeting the 1-m SNR rule (§III-7)."""
        return choose_volume_spl(self.config, noise_spl, self.volume)

    def evaluate_motion(
        self, phone_xyz: np.ndarray, watch_xyz: np.ndarray
    ) -> MotionReport:
        """Run the Alg. 1 motion filter on both sensor windows."""
        return self.motion_filter.evaluate(phone_xyz, watch_xyz)

    def evaluate_nlos(self, report: ProbeReport) -> NlosVerdict:
        """Classify the probe's preamble as LOS/NLOS."""
        sample_rate = self.config.modem.sample_rate
        if not report.detected:
            return self.nlos_detector.classify(
                report.preamble_score, np.zeros(1), sample_rate
            )
        # tau_rms was computed watch-side; rebuild the verdict from it.
        return NlosVerdict(
            score=report.preamble_score,
            tau_rms=report.tau_rms,
            preamble_ok=report.preamble_score
            >= self.config.modem.detection_threshold,
            nlos=report.tau_rms > self.nlos_detector.tau_threshold,
        )

    def select_mode(
        self,
        report: ProbeReport,
        max_ber: float,
        allowed_modes: Optional[Tuple[str, ...]] = None,
    ) -> ModeDecision:
        """Adaptive modulation decision from the probe's pilot SNR.

        ``allowed_modes`` restricts the candidates (highest order
        first) — the retry loop uses it to keep downgrades monotone: a
        re-probe may never re-select a higher-order constellation than
        the attempt that just failed.
        """
        plan = report.recommended_plan or self._plan
        candidates = (
            tuple(allowed_modes)
            if allowed_modes is not None
            else self.modulator.modes
        )
        if not candidates:
            raise ProtocolError("allowed_modes must name at least one mode")
        # Eb/N0 depends on the candidate mode's rate; evaluate each mode
        # at its own rate and let the modulator pick.
        decisions = {}
        for mode in candidates:
            ebn0 = report.ebn0_db(self.config.modem, plan, mode)
            decisions[mode] = ebn0
        # Use the highest-order feasible mode, honouring per-mode Eb/N0.
        required = {
            m: self.modulator.model.min_ebn0_db(m, max_ber)
            for m in candidates
        }
        chosen = None
        for m in candidates:
            if decisions[m] >= required[m]:
                chosen = m
                break
        return ModeDecision(
            mode=chosen,
            ebn0_db=decisions[chosen] if chosen else max(decisions.values()),
            max_ber=max_ber,
            required_ebn0_db=required,
        )

    def encode_token(
        self,
        decision: ModeDecision,
        plan: Optional[ChannelPlan],
        tx_spl: float,
    ) -> Tuple[TokenTransmission, np.ndarray, SignalPlane]:
        """Everything of a Phase-2 transmission but its frame.

        Returns the transmission with ``result=None``, the channel-coded
        token bits and the signal plane that modulates them.  The OTP
        counter is read, not advanced, so the fleet's OTP waves can
        encode a paused session's token ahead of its ``otp-tx`` stage.
        """
        constellation = self.modulator.constellation_for(decision)
        use_plan = plan if plan is not None else self._plan
        token = self.otp.generate()
        bits = token_to_bits(token, self.otp.token_bits)
        coded = self.code.encode(bits)
        plane = signal_plane(self.config.modem, use_plan, constellation)
        tt = TokenTransmission(
            result=None,
            mode=decision.mode,
            plan=use_plan,
            tx_spl=tx_spl,
            token=token,
            coded_bits=coded.size,
        )
        return tt, coded, plane

    def prepare_token(
        self,
        decision: ModeDecision,
        plan: Optional[ChannelPlan],
        tx_spl: float,
    ) -> TokenTransmission:
        """Generate the OTP and modulate it for Phase 2."""
        tt, coded, plane = self.encode_token(decision, plan, tx_spl)
        return replace(tt, result=OfdmTransmitter(plane=plane).modulate(coded))

    def channel_config_message(
        self, tt: TokenTransmission, session_id: int = 0
    ) -> ChannelConfigMessage:
        """The Phase-2 configuration sent to the watch."""
        return ChannelConfigMessage(
            session_id=session_id,
            mode=tt.mode,
            data_channels=tt.plan.data,
            pilot_channels=tt.plan.pilots,
            n_bits=tt.coded_bits,
        )

    def check_token_bits(
        self, tt: TokenTransmission, received_bits: np.ndarray
    ) -> Tuple[bool, float]:
        """Non-committal decode check; returns (ok, raw BER).

        The retry loop peeks at the decode *before* deciding whether to
        NACK and retransmit: a corrupted frame the phone itself chose
        to re-send must not burn one of the three OTP failures that
        lock the scheme out (§IV).  Only :meth:`verify_token_bits`
        advances the OTP/keyguard state machines.
        """
        decoded = self.code.decode(
            np.asarray(received_bits, dtype=np.uint8),
            self.otp.token_bits,
        )
        return (
            bits_to_token(decoded) == tt.token,
            self._raw_ber(tt, received_bits),
        )

    def _raw_ber(
        self, tt: TokenTransmission, received_bits: np.ndarray
    ) -> float:
        """Pre-decode BER of the received coded stream."""
        raw_sent = self.code.encode(
            token_to_bits(tt.token, self.otp.token_bits)
        )
        usable = min(raw_sent.size, np.asarray(received_bits).size)
        if usable == 0:
            return 1.0
        return float(
            np.mean(
                raw_sent[:usable]
                != np.asarray(received_bits, dtype=np.uint8)[:usable]
            )
        )

    def verify_token_bits(
        self, tt: TokenTransmission, received_bits: np.ndarray
    ) -> Tuple[bool, float]:
        """Decode + verify the received bits; returns (ok, raw BER)."""
        decoded = self.code.decode(
            np.asarray(received_bits, dtype=np.uint8),
            self.otp.token_bits,
        )
        ber = self._raw_ber(tt, received_bits)
        verification = self.otp.verify(bits_to_token(decoded))
        if verification.ok:
            self.keyguard.trusted_unlock()
        else:
            self.keyguard.trusted_failure()
        return verification.ok, ber


class WatchController:
    """Watch-side thin client: record, analyze (or ship), report."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self._prober = ChannelProber(config.modem)

    @property
    def prober(self) -> ChannelProber:
        return self._prober

    def analyze_probe(self, recording: np.ndarray) -> ProbeReport:
        """Phase-1 processing on the watch (or offloaded — same code)."""
        return self._prober.analyze(recording)

    def cts_message(
        self, report: ProbeReport, session_id: int = 0
    ) -> CtsMessage:
        """Summarize a probe report for the phone."""
        return CtsMessage(
            session_id=session_id,
            psnr_db=report.psnr_db,
            preamble_score=report.preamble_score,
            noise_spl=report.noise_spl,
            tau_rms=report.tau_rms,
            detected=report.detected,
        )

    def signal_plane_for(
        self, config_msg: ChannelConfigMessage
    ) -> SignalPlane:
        """The Phase-2 signal plane the phone's config message names."""
        plan = ChannelPlan(
            fft_size=self.config.modem.fft_size,
            data=tuple(config_msg.data_channels),
            pilots=tuple(config_msg.pilot_channels),
        )
        return signal_plane(
            self.config.modem, plan, get_constellation(config_msg.mode)
        )

    def demodulate(
        self,
        recording: np.ndarray,
        config_msg: ChannelConfigMessage,
    ) -> np.ndarray:
        """Phase-2 demodulation with the phone-supplied configuration."""
        receiver = OfdmReceiver(plane=self.signal_plane_for(config_msg))
        result = receiver.receive(recording, expected_bits=config_msg.n_bits)
        return result.bits
