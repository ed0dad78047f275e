"""Acoustic hardware fingerprinting — the paper's relay countermeasure.

§IV, relay attack: "we can use fingerprinting method to unique identify
those acoustic hardware to check if there are relays."  Every speaker
has a stable, device-specific phase/frequency response (modeled in
:class:`repro.channel.hardware.SpeakerModel` as the phase ripple);
a relay inserts *its own* ADC/DAC chain whose response stacks on top of
the genuine device's, so the received fingerprint no longer matches the
enrolled one.

The fingerprint is the phase of the deconvolved channel observed on the
pilot bins: during enrollment (a trusted pairing session, quiet room,
known distance) the verifier records the per-bin phase signature; at
verification it compares the *phase-difference profile* — phase
differences between adjacent pilot bins, which cancel the unknown bulk
delay — using a circular distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..channel.hardware import SpeakerModel
from ..channel.link import AcousticLink
from ..channel.scenarios import get_environment
from ..config import ModemConfig
from ..errors import SecurityError
from ..modem.frame import demodulate_block, frame_layout
from ..modem.probe import ChannelProber
from ..modem.subchannels import ChannelPlan
from ..modem.synchronizer import Synchronizer


def probe_spectrum(
    config: ModemConfig,
    seed: int,
    distort: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    speaker: Optional[SpeakerModel] = None,
) -> np.ndarray:
    """Capture one enrollment or verification spectrum.

    Plays the block-pilot probe at 72 dB SPL across a quiet room at
    0.3 m (the trusted pairing setup), optionally passes the recording
    through ``distort`` (a relay chain), then locates the frame and
    returns the FFT of its first body.  ``seed`` seeds both the link
    and its noise; ``speaker`` replaces the default speaker model.
    """
    env = get_environment("quiet_room")
    kwargs = {} if speaker is None else {"speaker": speaker}
    link = AcousticLink(
        room=env.room, noise=env.noise, distance_m=0.3, seed=seed, **kwargs
    )
    recording, _ = link.transmit(
        ChannelProber(config).build_probe(),
        tx_spl=72.0,
        rng=np.random.default_rng(seed),
    )
    if distort is not None:
        recording = distort(recording)
    sync = Synchronizer(config)
    match = sync.locate(recording)
    bodies, _ = sync.extract_bodies(
        recording, match, frame_layout(config, 2)
    )
    return demodulate_block(config, bodies[0])


def phase_signature(
    spectrum: np.ndarray, plan: ChannelPlan
) -> np.ndarray:
    """Bulk-delay-invariant phase signature from one OFDM spectrum.

    Uses every occupied bin of the plan (the enrollment spectra come
    from the block-pilot probe, where data bins carry unit pilots too —
    ~20 bins instead of 8, which makes device collisions unlikely).
    The wrapped phase difference between consecutive occupied bins is
    divided by their bin gap — a pure delay contributes a *constant*
    per-bin slope, removed by subtracting the mean — leaving only the
    device's phase texture.  Residual timing after fine sync is a
    sample or two, so the per-gap differences stay far from ±π.
    """
    x = np.asarray(spectrum, dtype=np.complex128)
    occupied = sorted(set(plan.pilots) | set(plan.data))
    if x.size <= max(occupied):
        raise SecurityError("spectrum does not cover the plan's bins")
    bins = np.asarray(occupied)
    phases = np.angle(x[bins])
    gaps = np.diff(bins).astype(np.float64)
    slopes = np.angle(np.exp(1j * np.diff(phases))) / gaps
    centered = slopes - np.average(slopes, weights=gaps)
    return np.angle(np.exp(1j * centered))


def signature_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean circular distance (radians) between two signatures."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise SecurityError("signatures must have equal length")
    if x.size == 0:
        raise SecurityError("signatures must be non-empty")
    return float(np.mean(np.abs(np.angle(np.exp(1j * (x - y))))))


@dataclass
class HardwareFingerprint:
    """Enrolled device signature with a decision threshold.

    Attributes
    ----------
    signature:
        Mean phase-difference signature over the enrollment spectra.
    threshold:
        Maximum accepted circular distance (radians per bin).  Genuine
        re-measurements of the default models land near 0.01; a relay
        chain or a different device lands at 0.2-0.4, so 0.08 gives
        an order-of-magnitude margin on both sides.
    """

    signature: np.ndarray
    threshold: float = 0.08

    @staticmethod
    def enroll(
        spectra: Sequence[np.ndarray],
        plan: ChannelPlan,
        threshold: float = 0.08,
    ) -> "HardwareFingerprint":
        """Average the signature over several enrollment spectra."""
        if not spectra:
            raise SecurityError("enrollment needs at least one spectrum")
        sigs = np.stack(
            [phase_signature(s, plan) for s in spectra]
        )
        # Circular mean per bin.
        mean = np.angle(np.mean(np.exp(1j * sigs), axis=0))
        return HardwareFingerprint(
            signature=mean, threshold=threshold
        )

    def verify(
        self, spectrum: np.ndarray, plan: ChannelPlan
    ) -> Tuple[bool, float]:
        """Check one received spectrum; returns ``(genuine, distance)``."""
        candidate = phase_signature(spectrum, plan)
        distance = signature_distance(self.signature, candidate)
        return distance <= self.threshold, distance
