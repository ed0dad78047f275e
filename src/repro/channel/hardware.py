"""Speaker and microphone hardware models.

§III of the paper identifies the hardware impairments the modem must
survive:

* **rise effect** — the speaker cannot reach full power instantly;
* **ringing effect** — the speaker output outlasts its input with a
  slowly decaying reverberation tail (motivating the symbol guard Tg);
* the **Moto 360 microphone low-pass** — a mandatory built-in filter
  limiting the usable band to <7 kHz with heavy fade from 5 to 7 kHz
  (which forced the audible 1-6 kHz phone-watch design);
* amplitude clipping in the DAC/amplifier;
* an uneven amplitude-vs-phase response that makes ASK cheaper in SNR
  than PSK on these devices (visible in the Fig. 5 ordering).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from ..errors import ChannelError
from ..dsp.filters import (
    design_lowpass_fir,
    fir_filter_batch_pair,
)
from ..dsp.plane import KeyedCache
from ..dsp.windows import raised_cosine_ramp

#: A speaker's phase-ripple spectral factor ``exp(j*phi(f))`` is a pure
#: function of its ripple realization and the transform length.  The
#: fleet's batched stages send thousands of equal-length frames through
#: identically configured speakers, so the factors are memoized
#: module-wide; the from-scratch reference body lives in the test
#: oracle (``tests/kernel_oracle.py``).
_RIPPLE_FACTORS = KeyedCache("channel.ripple_factors", maxsize=32)

#: The ripple realization itself is a pure function of ``device_seed``
#: and the ripple parameters; every session, and every probe row the
#: fleet batches, builds its own speaker, so it is memoized as well.
_RIPPLES = KeyedCache("channel.ripples", maxsize=32)


@dataclass
class SpeakerModel:
    """Phone speaker: rise ramp, ringing tail, clipping.

    Attributes
    ----------
    sample_rate:
        Sampling rate in Hz.
    rise_time:
        Seconds for the driver to reach full output (rise effect).
    ringing_time:
        Decay constant, in seconds, of the exponential ringing tail.
    ringing_gain:
        Linear gain of the ringing feedback (0 disables ringing).
    clip_level:
        Absolute amplitude above which the output hard-clips.
    phase_ripple_rad:
        RMS amplitude (radians) of the speaker's *phase-response ripple*
        — an all-pass distortion from driver resonances.  The ripple's
        frequency detail is finer than the OFDM pilot spacing, so the
        receiver's interpolated channel estimate cannot fully track it:
        phase-keyed constellations pay for it, amplitude-keyed ones do
        not.  This is the hardware asymmetry behind the paper's Fig. 5
        finding that ASK needs *less* SNR per bit than PSK on phone
        audio hardware (and that 16QAM is unusable).
    phase_ripple_detail_hz:
        Characteristic frequency scale of the ripple (smaller = finer
        detail = harder to equalize).
    device_seed:
        Seed fixing this speaker's ripple realization; a given device
        has one stable (if ugly) response.
    """

    sample_rate: float = 44_100.0
    rise_time: float = 1.0e-3
    ringing_time: float = 0.4e-3
    ringing_gain: float = 0.15
    clip_level: float = 1.0
    phase_ripple_rad: float = 0.25
    phase_ripple_detail_hz: float = 500.0
    device_seed: int = 1717

    def __post_init__(self) -> None:
        for value in (self.rise_time, self.ringing_time):
            if not 0.0 <= value < np.inf:
                raise ChannelError(
                    "time constants must be finite and non-negative"
                )
        if self.clip_level <= 0:
            raise ChannelError("clip_level must be positive")
        if self.phase_ripple_rad < 0:
            raise ChannelError("phase_ripple_rad must be non-negative")
        key = (
            int(self.device_seed),
            float(self.phase_ripple_rad),
            float(self.phase_ripple_detail_hz),
        )
        self._ripple_delays, self._ripple_phases, self._ripple_amps = (
            _RIPPLES.get(key, self._draw_ripple)
        )

    def _draw_ripple(self) -> tuple:
        # The ripple is a fixed random Fourier series in frequency —
        # equivalent to a sparse all-pass with echo delays up to
        # ~1/detail_hz, i.e. a stable per-device response.
        rng = np.random.default_rng(self.device_seed)
        n_terms = 24
        max_delay = 1.0 / max(self.phase_ripple_detail_hz, 1e-6)
        delays = rng.uniform(0.2 * max_delay, max_delay, n_terms)
        phases = rng.uniform(0.0, 2.0 * np.pi, n_terms)
        amps = rng.uniform(0.5, 1.0, n_terms)
        norm = np.sqrt(0.5 * np.sum(amps ** 2))
        amps = amps * (self.phase_ripple_rad / norm if norm > 0 else 0.0)
        for values in (delays, phases, amps):
            values.setflags(write=False)
        return delays, phases, amps

    def phase_response(self, freqs_hz: np.ndarray) -> np.ndarray:
        """The device's phase ripple φ(f) in radians at ``freqs_hz``."""
        f = np.asarray(freqs_hz, dtype=np.float64)
        phi = np.zeros_like(f)
        for a, tau, theta in zip(
            self._ripple_amps, self._ripple_delays, self._ripple_phases
        ):
            phi += a * np.cos(2.0 * np.pi * f * tau + theta)
        return phi

    def fingerprint(self) -> tuple:
        """Hashable identity of the rendering: speakers with equal
        fingerprints render any input identically (``device_seed`` fixes
        the ripple), so their rows share one :meth:`play_batch`."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def _ripple_factor(self, n: int) -> np.ndarray:
        """Memoized ``exp(j*phi(f))`` for an ``n``-sample transform."""
        key = (
            int(self.device_seed),
            float(self.phase_ripple_rad),
            float(self.phase_ripple_detail_hz),
            float(self.sample_rate),
            int(n),
        )

        def build() -> np.ndarray:
            freqs = np.fft.rfftfreq(n, d=1.0 / self.sample_rate)
            factor = np.exp(1j * self.phase_response(freqs))
            factor.setflags(write=False)
            return factor

        return _RIPPLE_FACTORS.get(key, build)

    def play_batch(self, signals: np.ndarray) -> np.ndarray:
        """Render each row of ``signals`` through the speaker, in one pass.

        The rise ramp and the final clip broadcast row-wise, the
        ringing convolution runs per row (a short direct convolution),
        and the phase ripple applies one stacked rFFT/irFFT whose
        spectral factor is memoized in :data:`_RIPPLE_FACTORS`; no row
        depends on the rows beside it.  Used by the fleet staging path
        to render a whole wave's frames at once.
        """
        x = np.asarray(signals, dtype=np.float64)
        if x.ndim != 2:
            raise ChannelError("signals must be 2-D")
        if x.shape[0] == 0 or x.shape[1] == 0:
            raise ChannelError("signals must be non-empty")

        out = x.copy()
        rise_samples = int(self.rise_time * self.sample_rate)
        if rise_samples > 1:
            n = min(rise_samples, out.shape[1])
            out[:, :n] *= raised_cosine_ramp(n, rising=True)

        if self.ringing_gain > 0 and self.ringing_time > 0:
            tail_len = int(4 * self.ringing_time * self.sample_rate)
            tail_len = max(tail_len, 1)
            t = np.arange(1, tail_len + 1) / self.sample_rate
            tail = self.ringing_gain * np.exp(-t / self.ringing_time)
            ir = np.concatenate(([1.0], tail))
            out = np.stack([np.convolve(row, ir) for row in out])

        if self.phase_ripple_rad > 0 and out.shape[1] >= 2:
            spec = np.fft.rfft(out, axis=1)
            spec *= self._ripple_factor(out.shape[1])
            out = np.fft.irfft(spec, out.shape[1], axis=1)
        return np.clip(out, -self.clip_level, self.clip_level)

    def play(self, signal: np.ndarray) -> np.ndarray:
        """Render ``signal`` through the speaker model.

        The output is longer than the input by the ringing tail —
        matching the paper's observation that the speaker "generates a
        longer output than the real length of input".  One-row call of
        :meth:`play_batch`; an empty signal plays as an empty output.
        """
        x = np.asarray(signal, dtype=np.float64)
        if x.ndim != 1:
            raise ChannelError("signal must be 1-D")
        if x.size == 0:
            return x.copy()
        return self.play_batch(x[None, :])[0]


@dataclass
class MicrophoneModel:
    """Receiver microphone: low-pass filter, noise floor, saturation.

    ``lowpass_hz=7000`` with a soft knee starting near 5 kHz reproduces
    the Moto 360's mandatory filter; set ``lowpass_hz=None`` for the
    phone-phone near-ultrasound pair (whose mics pass 20 kHz).
    """

    sample_rate: float = 44_100.0
    lowpass_hz: Optional[float] = 7_000.0
    knee_hz: float = 5_000.0
    knee_loss_db: float = 8.0
    noise_floor_spl: float = 30.0
    clip_level: float = 1.0
    num_taps: int = 257

    def __post_init__(self) -> None:
        if self.lowpass_hz is not None:
            if not 0 < self.lowpass_hz < self.sample_rate / 2:
                raise ChannelError("lowpass_hz must be inside (0, Nyquist)")
            if not 0 < self.knee_hz <= self.lowpass_hz:
                raise ChannelError("knee_hz must be in (0, lowpass_hz]")
        if self.clip_level <= 0:
            raise ChannelError("clip_level must be positive")
        self._taps: Optional[np.ndarray] = None
        self._knee_taps: Optional[np.ndarray] = None

    def fingerprint(self) -> tuple:
        """Hashable identity of the capture: microphones with equal
        fingerprints record any input through identical filters and
        noise-floor scaling, so their rows share a :meth:`record_batch`."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def _ensure_filters(self) -> None:
        if self.lowpass_hz is None or self._taps is not None:
            return
        self._taps = design_lowpass_fir(
            self.lowpass_hz, self.sample_rate, num_taps=self.num_taps
        )
        # Soft knee: an extra gentle low-pass blended in to fade
        # 5-7 kHz progressively rather than brick-walling at 7 kHz.
        self._knee_taps = design_lowpass_fir(
            self.knee_hz, self.sample_rate, num_taps=self.num_taps
        )

    def record(
        self,
        signal: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Record ``signal`` through the microphone model.

        One-row call of :meth:`record_batch`; without ``rng`` the noise
        floor comes from a fresh unseeded generator.
        """
        x = np.asarray(signal, dtype=np.float64)
        if x.ndim != 1:
            raise ChannelError("signal must be 1-D")
        generator = rng if rng is not None else np.random.default_rng()
        return self.record_batch(x[None, :], [generator])[0]

    def record_batch(
        self,
        signals: np.ndarray,
        rngs,
        values: bool = True,
    ) -> np.ndarray:
        """Record each row of ``signals`` with its own generator.

        The low-pass/knee FIRs run as stacked row transforms, and
        generator ``i`` draws row ``i``'s noise floor (one
        ``standard_normal`` of the row length), so row ``i`` depends
        only on ``signals[i]`` and ``rngs[i]``.  Used by the fleet
        staging path to run a whole shard's microphone captures in one
        pass.

        ``values=False`` draws each row's noise floor (so the
        generators advance exactly as a real capture would) but skips
        the filtering; the returned samples must not be read.
        """
        from ..dsp.energy import spl_to_amplitude  # local to avoid cycle

        x = np.asarray(signals, dtype=np.float64)
        if x.ndim != 2:
            raise ChannelError("signals must be 2-D")
        generators = list(rngs)
        if len(generators) != x.shape[0]:
            raise ChannelError("need one generator per signal row")
        if not values:
            if self.noise_floor_spl > -np.inf and x.shape[1]:
                for generator in generators:
                    generator.standard_normal(x.shape[1])
            return np.zeros_like(x)
        if self.lowpass_hz is not None and x.shape[1]:
            self._ensure_filters()
            # The FIR pair reads ``x`` and returns fresh arrays, so no
            # defensive copy is needed.
            sharp, soft = fir_filter_batch_pair(
                x, self._taps, self._knee_taps
            )
            blend = 10.0 ** (-self.knee_loss_db / 20.0)
            # ``blend*sharp + (1-blend)*soft`` evaluated in place: two
            # rounded products and their rounded sum.
            sharp *= blend
            soft *= 1.0 - blend
            sharp += soft
            out = sharp
        else:
            out = x.copy()
        if self.noise_floor_spl > -np.inf and out.shape[1]:
            level = spl_to_amplitude(self.noise_floor_spl)
            # Each generator fills its own row; the RMS calibration
            # then reduces along the last axis, the pairwise summation
            # ``np.mean(floor ** 2)`` applies to a 1-D floor.
            floors = np.empty_like(out)
            for i, generator in enumerate(generators):
                generator.standard_normal(out=floors[i])
            norms = np.maximum(
                np.sqrt(np.mean(floors * floors, axis=1)), 1e-300
            )
            floors *= (level / norms)[:, None]
            out += floors
        return np.clip(out, -self.clip_level, self.clip_level)

    @staticmethod
    def wide_band(sample_rate: float = 44_100.0) -> "MicrophoneModel":
        """A phone-grade microphone without the wearable low-pass."""
        return MicrophoneModel(
            sample_rate=sample_rate,
            lowpass_hz=None,
            noise_floor_spl=28.0,
        )
