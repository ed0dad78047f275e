"""Room impulse responses, LOS/NLOS and delay-spread measurement.

The paper's NLOS filter (§III-7) computes the RMS delay spread of the
received preamble's delay profile and flags severe body blocking when it
exceeds a threshold τ*.  To exercise that code path we synthesize room
impulse responses with a controllable direct-path-to-reverb ratio:

* LOS: strong direct tap followed by an exponentially decaying sparse
  reverberation tail;
* NLOS (body blocking, same-hand case): the direct tap is attenuated
  heavily, so energy arrives mostly via the (longer) reverb tail, which
  inflates the delay spread — exactly the statistic the detector keys on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ChannelError
from ..dsp.fftops import fft_length
from ..dsp.plane import KeyedCache

#: Read-only decay envelopes keyed by (sample_rate, rt60, tail_length) —
#: the deterministic part of every IR draw, shared across realizations.
_IR_KERNELS = KeyedCache("channel.ir_kernels", maxsize=64)


def _ir_envelope(
    sample_rate: float, rt60: float, tail_length: int
) -> np.ndarray:
    key = (sample_rate, rt60, tail_length)

    def build() -> np.ndarray:
        decay_rate = 6.9078 / rt60  # ln(10^3) => -60 dB at rt60
        t = np.arange(tail_length) / sample_rate
        envelope = np.exp(-decay_rate * t)
        envelope.setflags(write=False)
        return envelope

    return _IR_KERNELS.get(key, build)


def rms_delay_spread(profile: np.ndarray, sample_rate: float) -> float:
    """RMS delay spread (seconds) of a power delay profile.

    Implements the paper's τ_rms::

        tau_hat = sum_n t_n A(t_n) / sum_n A(t_n)
        tau_rms = sqrt( sum_n (t_n - tau_hat)^2 A(t_n) / sum_n A(t_n) )

    ``profile`` is the (non-negative) delay profile ``A(t_n)``.
    """
    a = np.asarray(profile, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ChannelError("profile must be a non-empty 1-D array")
    if sample_rate <= 0:
        raise ChannelError("sample_rate must be positive")
    a = np.maximum(a, 0.0)
    peak = float(np.max(a))
    if peak <= 0.0:
        return 0.0
    # Rescale by a power of two so the peak sits in [0.5, 1).  Exact
    # for normal-range profiles (power-of-two scaling commutes with
    # every operation below), but rescues subnormal profiles, whose
    # ``t * a`` products would otherwise lose mantissa bits and break
    # the statistic's scale invariance.
    a = np.ldexp(a, -math.frexp(peak)[1])
    total = float(np.sum(a))
    if total <= 0.0:
        return 0.0
    t = np.arange(a.size) / sample_rate
    tau_hat = float(np.sum(t * a) / total)
    var = float(np.sum((t - tau_hat) ** 2 * a) / total)
    return float(np.sqrt(max(var, 0.0)))


def convolve_ir_rows(signals: np.ndarray, irs: np.ndarray) -> np.ndarray:
    """Convolve signal rows with a stack of IR draws.

    A ``(1, n)`` signal broadcasts over the IR rows (one spectrum for a
    shared waveform); a ``(k, n)`` signal pairs row ``i`` with
    ``irs[i]``.  Row ``i`` is ``irfft(rfft(signal_i, nfft) * rfft(irs[i],
    nfft), nfft)[:n]`` with ``nfft = fft_length(n)``, independent of the
    rows beside it.  :meth:`RoomImpulseResponse.apply` is the one-row
    call.
    """
    x = np.asarray(signals, dtype=np.float64)
    h = np.asarray(irs, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] == 0:
        raise ChannelError("irs must be 2-D with non-empty rows")
    if x.ndim != 2 or x.shape[0] not in (1, h.shape[0]):
        raise ChannelError("signals must be 2-D with one row or one per IR")
    if x.shape[1] == 0:
        return np.zeros((h.shape[0], 0))
    n = x.shape[1] + h.shape[1] - 1
    nfft = fft_length(n)
    return np.fft.irfft(
        np.fft.rfft(x, nfft, axis=1) * np.fft.rfft(h, nfft, axis=1),
        nfft,
        axis=1,
    )[:, :n]


@dataclass
class RoomImpulseResponse:
    """Synthetic room impulse response generator.

    Attributes
    ----------
    sample_rate:
        Sampling rate in Hz.
    rt60:
        Decay time (seconds) of the *effective short-range channel*: at
        WearLock's sub-meter distances the direct path dominates and the
        audible channel is the direct tap plus early reflections off the
        desk, hand and torso, which die out within a few milliseconds.
        This is NOT the room's architectural RT60 — the diffuse far
        field is tens of dB below the direct path at 1 m and is absorbed
        into the ambient noise scene instead.
    direct_gain:
        Linear gain of the direct path (1.0 = unobstructed LOS).
    reverb_gain:
        Linear gain of the first reflections relative to an unobstructed
        direct path.
    tail_length:
        Length of the generated IR in samples.
    echo_density:
        Expected number of discrete reflections per millisecond.
    """

    sample_rate: float = 44_100.0
    rt60: float = 0.0025
    direct_gain: float = 1.0
    reverb_gain: float = 0.25
    tail_length: int = 128
    echo_density: float = 3.0

    def __post_init__(self) -> None:
        if self.rt60 <= 0:
            raise ChannelError("rt60 must be positive")
        if self.tail_length < 8:
            raise ChannelError("tail_length must be >= 8")
        if self.direct_gain < 0 or self.reverb_gain < 0:
            raise ChannelError("gains must be non-negative")

    def sample(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw one impulse response realization."""
        generator = rng if rng is not None else np.random.default_rng()
        ir = np.zeros(self.tail_length)
        ir[0] = self.direct_gain

        # Sparse early reflections + dense late tail, both under an
        # exponential envelope with the configured RT60.  The envelope
        # is deterministic per (rate, rt60, length) and read-only, so
        # realizations share it; all randomness stays below.
        envelope = _ir_envelope(
            self.sample_rate, self.rt60, self.tail_length
        )

        n_echoes = max(
            1,
            int(self.echo_density * self.tail_length / self.sample_rate * 1e3),
        )
        # First reflection can't arrive before ~0.5 ms (path difference).
        min_delay = max(2, int(0.5e-3 * self.sample_rate))
        if min_delay < self.tail_length - 1:
            positions = generator.integers(
                min_delay, self.tail_length, size=n_echoes
            )
            signs = generator.choice([-1.0, 1.0], size=n_echoes)
            amps = generator.uniform(0.3, 1.0, size=n_echoes)
            for pos, sign, amp in zip(positions, signs, amps):
                ir[pos] += sign * amp * self.reverb_gain * envelope[pos]

        # Diffuse late field (kept weak: at <1 m the diffuse room field
        # is far below the direct path; its audible effect is absorbed
        # into the ambient noise scene).
        diffuse = generator.standard_normal(self.tail_length)
        diffuse *= envelope * self.reverb_gain * 0.08
        diffuse[:min_delay] = 0.0
        ir += diffuse
        return ir

    def nlos(self, blocking_db: float = 18.0) -> "RoomImpulseResponse":
        """Return an NLOS variant with the direct path attenuated.

        ``blocking_db`` is the extra loss on the direct path caused by a
        hand/body obstruction; reflections are left untouched (they
        travel around the obstruction), so relative reverb energy — and
        hence delay spread — rises.
        """
        if blocking_db < 0:
            raise ChannelError("blocking_db must be non-negative")
        factor = 10.0 ** (-blocking_db / 20.0)
        # Blocking doesn't destroy energy so much as redirect it: the
        # hand/torso scatters sound into additional, longer paths, so
        # the reflected field grows and persists while the direct tap
        # collapses — which is what raises the RMS delay spread.
        return RoomImpulseResponse(
            sample_rate=self.sample_rate,
            rt60=self.rt60 * 1.6,
            direct_gain=self.direct_gain * factor,
            reverb_gain=min(self.reverb_gain * 1.6, 0.9),
            tail_length=self.tail_length,
            echo_density=self.echo_density * 1.5,
        )

    def apply(
        self, signal: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Convolve ``signal`` with one IR draw (output keeps tail).

        A one-row call of :func:`convolve_ir_rows`.
        """
        x = np.asarray(signal, dtype=np.float64)[None, :]
        return convolve_ir_rows(x, self.sample(rng)[None, :])[0]

    def delay_profile(
        self, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Power delay profile (|IR|^2) of one realization."""
        ir = self.sample(rng)
        return ir * ir
