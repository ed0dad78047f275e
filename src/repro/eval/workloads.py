"""Reusable trial machinery for BER experiments.

Every BER figure in the paper is some sweep over {modulation, distance,
noise, jamming, band} of the same core trial: modulate known bits,
push them through an :class:`AcousticLink`, demodulate, count errors.
:func:`ber_trial` is that core, with every knob exposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..channel.hardware import MicrophoneModel, SpeakerModel
from ..channel.link import AcousticLink
from ..channel.multipath import RoomImpulseResponse
from ..channel.noise import NoiseScene
from ..config import ModemConfig
from ..errors import PreambleNotFoundError, SynchronizationError
from ..modem.bits import bit_error_rate, random_bits
from ..modem.constellation import get_constellation
from ..modem.context import signal_plane
from ..modem.receiver import OfdmReceiver
from ..modem.subchannels import ChannelPlan
from ..modem.transmitter import OfdmTransmitter


@dataclass
class TrialSpec:
    """Full description of one BER trial."""

    mode: str = "QPSK"
    n_bits: int = 240
    distance_m: float = 0.4
    tx_spl: float = 78.0
    los: bool = True
    band: str = "audible"
    noise: Optional[NoiseScene] = None
    room: Optional[RoomImpulseResponse] = field(
        default_factory=RoomImpulseResponse
    )
    plan: Optional[ChannelPlan] = None
    modem: Optional[ModemConfig] = None
    nlos_blocking_db: float = 18.0
    seed: Optional[int] = None

    def config(self) -> ModemConfig:
        base = self.modem if self.modem is not None else ModemConfig()
        if self.band == "ultrasound":
            return base.near_ultrasound()
        return base


@dataclass(frozen=True)
class BerTrialResult:
    """Outcome of one trial."""

    ber: float
    detected: bool
    psnr_db: float
    ebn0_db: float
    preamble_score: float


def ber_trial(spec: TrialSpec, rng=None) -> BerTrialResult:
    """Run one modulate→channel→demodulate trial and measure BER.

    A failed preamble detection or synchronization counts as BER 1.0 —
    an undetectable frame delivers no bits, which is the honest failure
    mode of the real system.
    """
    generator = (
        rng
        if isinstance(rng, np.random.Generator)
        else np.random.default_rng(rng if rng is not None else spec.seed)
    )
    config = spec.config()
    constellation = get_constellation(spec.mode)
    plan = spec.plan if spec.plan is not None else ChannelPlan.from_config(config)

    plane = signal_plane(config, plan, constellation)
    tx = OfdmTransmitter(plane=plane)
    rx = OfdmReceiver(plane=plane)

    bits = random_bits(spec.n_bits, rng=generator)
    modulated = tx.modulate(bits)

    mic = (
        MicrophoneModel(sample_rate=config.sample_rate)
        if spec.band == "audible"
        else MicrophoneModel.wide_band(config.sample_rate)
    )
    link = AcousticLink(
        sample_rate=config.sample_rate,
        speaker=SpeakerModel(sample_rate=config.sample_rate),
        microphone=mic,
        room=spec.room,
        noise=spec.noise,
        distance_m=spec.distance_m,
        los=spec.los,
        nlos_blocking_db=spec.nlos_blocking_db,
    )
    recording, _budget = link.transmit(
        modulated.waveform, tx_spl=spec.tx_spl, rng=generator
    )
    try:
        result = rx.receive(recording, expected_bits=spec.n_bits)
    except (PreambleNotFoundError, SynchronizationError):
        return BerTrialResult(
            ber=1.0,
            detected=False,
            psnr_db=float("-inf"),
            ebn0_db=float("-inf"),
            preamble_score=0.0,
        )
    return BerTrialResult(
        ber=bit_error_rate(bits, result.bits),
        detected=True,
        psnr_db=result.psnr_db,
        ebn0_db=result.ebn0_db,
        preamble_score=result.preamble_score,
    )


def average_ber(
    spec: TrialSpec, n_trials: int, seed: int = 0
) -> BerTrialResult:
    """Average :func:`ber_trial` over ``n_trials`` seeded repetitions."""
    rng = np.random.default_rng(seed)
    bers, psnrs, ebn0s, scores = [], [], [], []
    detected = 0
    for _ in range(n_trials):
        r = ber_trial(spec, rng=rng)
        bers.append(r.ber)
        if r.detected:
            detected += 1
            psnrs.append(r.psnr_db)
            ebn0s.append(r.ebn0_db)
            scores.append(r.preamble_score)
    return BerTrialResult(
        ber=float(np.mean(bers)),
        detected=detected == n_trials,
        psnr_db=float(np.mean(psnrs)) if psnrs else float("-inf"),
        ebn0_db=float(np.mean(ebn0s)) if ebn0s else float("-inf"),
        preamble_score=float(np.mean(scores)) if scores else 0.0,
    )
