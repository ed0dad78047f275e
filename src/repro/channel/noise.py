"""Ambient-noise generation: white/pink/shaped noise, jammers, scenes.

The paper's field test runs in offices, classrooms, cafes and grocery
stores — environments whose noise is colored (energy concentrated below
a few kHz: voices, HVAC, machinery) and occasionally narrowband (tones
from appliances, or the Audacity tone-jammer in Fig. 9).  A
:class:`NoiseScene` composes these ingredients at a calibrated SPL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ChannelError
from ..dsp.energy import rms, spl_to_amplitude
from ..dsp.filters import (
    design_bandpass_fir,
    design_lowpass_fir,
    fir_filter_batch,
)


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def _scale_to_spl(signal: np.ndarray, spl_db: float) -> np.ndarray:
    """Rescale ``signal`` so its RMS corresponds to ``spl_db`` SPL."""
    level = rms(signal)
    if level <= 0.0:
        return signal
    return signal * (spl_to_amplitude(spl_db) / level)


def white_noise(
    n_samples: int, spl_db: float, rng=None
) -> np.ndarray:
    """Gaussian white noise with RMS calibrated to ``spl_db`` SPL."""
    if n_samples < 0:
        raise ChannelError("n_samples must be non-negative")
    generator = _rng(rng)
    noise = generator.standard_normal(n_samples)
    return _scale_to_spl(noise, spl_db)


def pink_noise(
    n_samples: int, spl_db: float, rng=None
) -> np.ndarray:
    """Approximate 1/f (pink) noise via the Voss-style FFT method.

    Pink noise matches broadband room ambience better than white noise:
    most real ambient energy sits at low frequency, which is the premise
    behind WearLock's choice of signal bands.
    """
    if n_samples < 0:
        raise ChannelError("n_samples must be non-negative")
    if n_samples == 0:
        return np.zeros(0)
    generator = _rng(rng)
    white = generator.standard_normal(n_samples)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n_samples)
    shaping = np.ones_like(freqs)
    nonzero = freqs > 0
    shaping[nonzero] = 1.0 / np.sqrt(freqs[nonzero])
    shaping[0] = 0.0
    colored = np.fft.irfft(spec * shaping, n_samples)
    return _scale_to_spl(colored, spl_db)


def shaped_noise(
    n_samples: int,
    spl_db: float,
    sample_rate: float,
    bands: Sequence[Tuple[float, float, float]],
    rng=None,
) -> np.ndarray:
    """Noise composed of band-limited components.

    ``bands`` is a sequence of ``(low_hz, high_hz, relative_weight)``;
    each band contributes white noise filtered to that band, weighted,
    and the sum is calibrated to ``spl_db``.  One-row call of
    :func:`shaped_noise_batch`.
    """
    return shaped_noise_batch(
        n_samples, spl_db, sample_rate, bands, [_rng(rng)]
    )[0]


def shaped_noise_batch(
    n_samples: int,
    spl_db: float,
    sample_rate: float,
    bands: Sequence[Tuple[float, float, float]],
    rngs: Sequence[np.random.Generator],
    values: bool = True,
) -> np.ndarray:
    """One :func:`shaped_noise` realization per generator, in one pass.

    Row ``i`` depends only on generator ``i``, and each generator draws
    one ``standard_normal(n_samples)`` per weighted band, in band order:
    the band loop stays outermost, while the FIR shaping runs as
    stacked row transforms.

    ``values=False`` consumes exactly the same draws but skips the FIR
    shaping and returns zeros — for callers that must advance the
    generators' streams past a bed whose samples they will never read
    (e.g. staging a group whose noise gate cannot fire).
    """
    if not bands:
        raise ChannelError("bands must be non-empty")
    if n_samples < 0:
        raise ChannelError("n_samples must be non-negative")
    generators = list(rngs)
    total = np.zeros((len(generators), n_samples))
    for low, high, weight in bands:
        if weight < 0:
            raise ChannelError("band weights must be non-negative")
        if weight == 0.0 or n_samples == 0:
            continue
        # Each generator fills its own row (out= skips the stack copy);
        # the reductions below run along the last axis, which applies
        # the pairwise summation :func:`rms` does to a 1-D signal.
        raw = np.empty((len(generators), n_samples))
        for i, generator in enumerate(generators):
            generator.standard_normal(out=raw[i])
        if not values:
            continue
        if low <= 0.0:
            taps = design_lowpass_fir(high, sample_rate, num_taps=257)
        else:
            taps = design_bandpass_fir(low, high, sample_rate, num_taps=257)
        component = fir_filter_batch(raw, taps)
        levels = np.sqrt(np.mean(component * component, axis=1))
        # ``row / level * weight`` (divide, then scale).  Every level is
        # positive in practice (filtered white noise), so the masked
        # variant only materializes on the degenerate path.
        if np.all(levels > 0.0):
            component /= levels[:, None]
            component *= weight
            total += component
        else:
            safe = np.where(levels > 0.0, levels, 1.0)[:, None]
            total += np.where(
                levels[:, None] > 0.0, component / safe * weight, component
            )
    if n_samples == 0 or not values:
        return total
    levels = np.sqrt(np.mean(total * total, axis=1))
    # :func:`_scale_to_spl` per row: ``signal * (amplitude / level)``,
    # the quotient formed first, then broadcast-multiplied.
    factors = np.where(
        levels > 0.0,
        spl_to_amplitude(spl_db) / np.where(levels > 0.0, levels, 1.0),
        1.0,
    )
    return total * factors[:, None]


def tone_jammer(
    n_samples: int,
    sample_rate: float,
    freqs_hz: Sequence[float],
    spl_db: float,
    rng=None,
) -> np.ndarray:
    """Sum of pure tones at ``freqs_hz``, calibrated to ``spl_db`` SPL.

    Emulates the paper's Fig. 9 jammer: an external tone generator
    (Audacity) playing up to 6 simultaneous mono tracks.  One-row call
    of :func:`_tone_jammer_rows`.
    """
    return _tone_jammer_rows(
        n_samples, sample_rate, freqs_hz, spl_db, [_rng(rng)]
    )[0]


def _tone_jammer_rows(
    n_samples: int,
    sample_rate: float,
    freqs_hz: Sequence[float],
    spl_db: float,
    generators: Sequence[np.random.Generator],
    values: bool = True,
) -> np.ndarray:
    """One :func:`tone_jammer` realization per generator, stacked.

    Each generator draws its tone phases (one uniform per tone, in
    order); the sine synthesis and the RMS calibration then run across
    the stack.  The per-row mean reduces along the last axis of a
    C-ordered stack, the pairwise summation of a 1-D signal, so row
    ``i`` depends only on generator ``i``.  With ``values=False`` only
    the phase draws happen (stream advance) and the rows are zeros.
    """
    if n_samples < 0:
        raise ChannelError("n_samples must be non-negative")
    if len(freqs_hz) > 6:
        raise ChannelError(
            "the paper's jammer (Audacity) supports at most 6 tones"
        )
    phases = np.empty((len(generators), len(freqs_hz)))
    for j, f in enumerate(freqs_hz):
        if not 0 < f < sample_rate / 2:
            raise ChannelError(f"jammer tone {f} Hz outside (0, Nyquist)")
        for i, generator in enumerate(generators):
            phases[i, j] = generator.uniform(0, 2 * np.pi)
    total = np.zeros((len(generators), n_samples))
    if not values or len(freqs_hz) == 0 or n_samples == 0:
        return total
    t = np.arange(n_samples) / sample_rate
    for j, f in enumerate(freqs_hz):
        total += np.sin(2 * np.pi * f * t + phases[:, j][:, None])
    levels = np.sqrt(np.mean(total * total, axis=1))
    factors = np.where(
        levels > 0.0,
        spl_to_amplitude(spl_db) / np.where(levels > 0.0, levels, 1.0),
        1.0,
    )
    return total * factors[:, None]


@dataclass
class NoiseScene:
    """A reproducible ambient-noise source for one environment.

    Attributes
    ----------
    spl_db:
        Long-term ambient SPL of the scene.
    sample_rate:
        Sampling rate of generated noise.
    bands:
        Spectral shape as ``(low, high, weight)`` triples; empty means
        plain white noise.
    jam_tones_hz:
        Optional persistent narrowband interferers (e.g. an HVAC whine
        or an intentional jammer) and their SPL.
    jam_spl_db:
        SPL of the combined jam tones (independent of the broadband bed).
    """

    spl_db: float
    sample_rate: float = 44_100.0
    bands: Tuple[Tuple[float, float, float], ...] = ()
    jam_tones_hz: Tuple[float, ...] = ()
    jam_spl_db: float = -np.inf
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        nyquist = self.sample_rate / 2
        for low, high, weight in self.bands:
            if not 0.0 <= low < high < nyquist:
                raise ChannelError(
                    f"band ({low}, {high}) Hz needs 0 <= low < high < Nyquist"
                )
            if not weight >= 0.0:
                raise ChannelError("band weights must be non-negative")
        if len(self.jam_tones_hz) > 6:
            raise ChannelError(
                "the paper's jammer (Audacity) supports at most 6 tones"
            )
        for f in self.jam_tones_hz:
            if not 0 < f < nyquist:
                raise ChannelError(f"jammer tone {f} Hz outside (0, Nyquist)")

    def sample(self, n_samples: int, rng=None) -> np.ndarray:
        """Generate ``n_samples`` of scene noise.

        One-row call of :meth:`sample_batch`; without ``rng`` the
        scene's own ``seed`` fixes the draw.
        """
        generator = _rng(rng if rng is not None else self.seed)
        return self.sample_batch(n_samples, [generator])[0]

    def sample_batch(
        self,
        n_samples: int,
        rngs: Sequence[np.random.Generator],
        values: bool = True,
    ) -> np.ndarray:
        """Generate one scene realization per generator, in one pass.

        Row ``i`` depends only on generator ``i``, which draws its band
        beds first and its jam-tone phases last, so a staged caller can
        hand the generators back to live code afterwards.  Used by the
        fleet executor to synthesize a whole shard's ambient noise at
        once.

        ``values=False`` advances every generator through the identical
        draw sequence but skips the expensive spectral shaping; the
        returned samples are then meaningless and must not be read.
        """
        if n_samples < 0:
            raise ChannelError("n_samples must be non-negative")
        generators = [_rng(r) for r in rngs]
        if self.bands:
            bed = shaped_noise_batch(
                n_samples, self.spl_db, self.sample_rate,
                self.bands, generators, values=values,
            )
        else:
            bed = np.stack(
                [
                    white_noise(n_samples, self.spl_db, rng=generator)
                    for generator in generators
                ]
            ) if generators else np.zeros((0, n_samples))
        if self.jam_tones_hz and np.isfinite(self.jam_spl_db):
            bed = bed + _tone_jammer_rows(
                n_samples, self.sample_rate, self.jam_tones_hz,
                self.jam_spl_db, generators, values=values,
            )
        return bed

    def with_jammer(
        self, freqs_hz: Sequence[float], jam_spl_db: float
    ) -> "NoiseScene":
        """Return a copy of the scene with an added tone jammer."""
        return NoiseScene(
            spl_db=self.spl_db,
            sample_rate=self.sample_rate,
            bands=self.bands,
            jam_tones_hz=tuple(freqs_hz),
            jam_spl_db=jam_spl_db,
            seed=self.seed,
        )

    def effective_spl(self) -> float:
        """Total scene SPL including jam tones (power sum in dB)."""
        powers: List[float] = [10.0 ** (self.spl_db / 10.0)]
        if self.jam_tones_hz and np.isfinite(self.jam_spl_db):
            powers.append(10.0 ** (self.jam_spl_db / 10.0))
        return float(10.0 * np.log10(sum(powers)))
