"""Independent one-signal kernels: the bit-identity oracle.

Every scalar entry point below is a one-row call of its stacked kernel
in the package:

* FFT convolutions — :func:`repro.dsp.filters.fir_filter`,
  :func:`repro.dsp.correlation.sliding_normalized_correlation`,
  :meth:`repro.channel.multipath.RoomImpulseResponse.apply`;
* channel synthesis — :func:`repro.channel.noise.shaped_noise`,
  :func:`repro.channel.noise.tone_jammer`,
  :meth:`repro.channel.noise.NoiseScene.sample`,
  :meth:`repro.channel.hardware.SpeakerModel.play`,
  :meth:`repro.channel.hardware.MicrophoneModel.record`;
* sensing — :func:`repro.sensors.dtw.dtw_distance`,
  :func:`repro.sensors.dtw.normalized_dtw`,
  :func:`repro.dsp.spectrum.welch_psd`,
  :meth:`repro.core.colocation.AmbientComparator.band_profile`,
  :meth:`~repro.core.colocation.AmbientComparator.similarity` and
  :func:`repro.verifiers.multiband.multiband_similarity`.

This module keeps the straight 1-D bodies those functions used to
carry, so the equivalence suites can compare every row of every stacked
kernel bit for bit (values and generator stream positions) against an
implementation that shares nothing with it but the transform length
:func:`repro.dsp.fftops.fft_length`, the window and FIR tap designs,
and model parameters — the role ``repro.modem.reference`` plays for
the modem.

Do not route these through the package kernels: that would destroy the
oracle.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.colocation import AmbientComparator
from repro.dsp.fftops import fft_length
from repro.dsp.filters import design_bandpass_fir, design_lowpass_fir
from repro.dsp.windows import hann_window, raised_cosine_ramp
from repro.verifiers.multiband import MULTIBAND_N_BANDS, MULTIBAND_N_GROUPS


def convolve(signal: np.ndarray, ir: np.ndarray) -> np.ndarray:
    """Full linear convolution of one signal with one impulse response."""
    x = np.asarray(signal, dtype=np.float64)
    h = np.asarray(ir, dtype=np.float64)
    if x.size == 0:
        return x.copy()
    n = x.size + h.size - 1
    nfft = fft_length(n)
    return np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(h, nfft), nfft)[:n]


def fir_filter(signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Group-delay-compensated FIR filtering of one signal."""
    x = np.asarray(signal, dtype=np.float64)
    delay = (np.size(taps) - 1) // 2
    return convolve(x, taps)[delay: delay + x.size]


def sliding_normalized_correlation(
    signal: np.ndarray, template: np.ndarray
) -> np.ndarray:
    """NCC of ``template`` against every ``valid`` lag of one signal."""
    x = np.asarray(signal, dtype=np.float64)
    t = np.asarray(template, dtype=np.float64)
    te = float(np.dot(t, t))
    n = x.size
    m = t.size
    nfft = fft_length(n)
    spec = np.fft.rfft(x, nfft) * np.conj(np.fft.rfft(t, nfft))
    raw = np.fft.irfft(spec, nfft)[: n - m + 1]

    csum = np.concatenate(([0.0], np.cumsum(x * x)))
    local = csum[m:] - csum[: n - m + 1]
    denom = np.sqrt(np.maximum(local * te, 0.0))
    out = np.zeros_like(raw)
    nonzero = denom > 1e-300
    out[nonzero] = raw[nonzero] / denom[nonzero]
    return np.clip(out, -1.0, 1.0)


# -- sensing: DTW, Welch PSD, ambient fingerprint ---------------------


def dtw_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Row-by-row DTW recurrence with absolute-difference cost."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    n, m = x.size, y.size
    prev = np.full(m + 1, np.inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = np.full(m + 1, np.inf)
        for j in range(1, m + 1):
            cost = abs(x[i - 1] - y[j - 1])
            cur[j] = cost + min(prev[j], cur[j - 1], prev[j - 1])
        prev = cur
    return float(prev[m])


def _zscore(series: np.ndarray) -> np.ndarray:
    centered = series - np.mean(series)
    std = float(np.std(centered))
    if std < 1e-12:
        return np.zeros_like(centered)
    return centered / std


def normalized_dtw(a: np.ndarray, b: np.ndarray) -> float:
    """DTW of the z-scored series over ``n + m``."""
    x = _zscore(np.asarray(a, dtype=np.float64))
    y = _zscore(np.asarray(b, dtype=np.float64))
    return dtw_distance(x, y) / (x.size + y.size)


def welch_psd(
    signal: np.ndarray,
    sample_rate: float,
    segment_size: int = 256,
    overlap: float = 0.5,
) -> Tuple[np.ndarray, np.ndarray]:
    """Welch PSD, one Hann-tapered segment at a time."""
    x = np.asarray(signal, dtype=np.float64)
    if x.size < segment_size:
        x = np.pad(x, (0, segment_size - x.size))
    window = hann_window(segment_size)
    win_power = float(np.sum(window * window))
    step = max(1, int(segment_size * (1.0 - overlap)))
    n_segments = 1 + (x.size - segment_size) // step
    acc = np.zeros(segment_size // 2 + 1)
    for s in range(n_segments):
        spec = np.fft.rfft(x[s * step: s * step + segment_size] * window)
        acc += spec.real ** 2 + spec.imag ** 2
    psd = acc / (n_segments * win_power * sample_rate)
    psd[1:-1] *= 2.0
    return np.fft.rfftfreq(segment_size, d=1.0 / sample_rate), psd


def band_profile(comparator, recording: np.ndarray) -> np.ndarray:
    """``comparator``'s log band-power fingerprint of one recording."""
    freqs, psd = welch_psd(recording, comparator.sample_rate, segment_size=512)
    edges = np.geomspace(
        comparator.low_hz, comparator.high_hz, comparator.n_bands + 1
    )
    profile = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (freqs >= lo) & (freqs < hi)
        if np.any(mask):
            profile.append(np.log10(float(np.mean(psd[mask])) + 1e-20))
    return np.asarray(profile)


def similarity(comparator, a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two fingerprints: NaN → 0, clamped."""
    pa = band_profile(comparator, a)
    pb = band_profile(comparator, b)
    n = min(pa.size, pb.size)
    pa, pb = pa[:n], pb[:n]
    if np.std(pa) < 1e-12 or np.std(pb) < 1e-12:
        return 0.0
    r = float(np.corrcoef(pa, pb)[0, 1])
    if not np.isfinite(r):
        return 0.0
    return min(1.0, max(-1.0, r))


def multiband_similarity(
    a: np.ndarray, b: np.ndarray, sample_rate: float
) -> float:
    """Mean per-group correlation of two 24-band fingerprints.

    A recording too short to fingerprint, or one whose spectrum fills
    fewer than three bands, scores 0.0; so does a flat group.  The
    comparator only carries the band layout into :func:`band_profile`.
    """
    comparator = AmbientComparator(
        sample_rate=sample_rate,
        high_hz=min(18_000.0, sample_rate / 2.2),
        n_bands=MULTIBAND_N_BANDS,
    )
    profiles = []
    for x in (np.asarray(a, dtype=float), np.asarray(b, dtype=float)):
        if x.ndim != 1 or x.size < 64:
            return 0.0
        profile = band_profile(comparator, x)
        if profile.size < 3:
            return 0.0
        profiles.append(profile)
    pa, pb = profiles
    n = min(pa.size, pb.size)
    corrs = []
    for ga, gb in zip(
        np.array_split(pa[:n], MULTIBAND_N_GROUPS),
        np.array_split(pb[:n], MULTIBAND_N_GROUPS),
    ):
        if ga.size < 2 or np.std(ga) < 1e-12 or np.std(gb) < 1e-12:
            corrs.append(0.0)
        else:
            corrs.append(float(np.corrcoef(ga, gb)[0, 1]))
    return float(np.mean(corrs))


# -- channel synthesis: noise, jammer, scene, speaker, microphone ------


def _amplitude(spl_db: float) -> float:
    return 2.0e-5 * 10.0 ** (spl_db / 20.0)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x * x))) if x.size else 0.0


def _scale_to_spl(signal: np.ndarray, spl_db: float) -> np.ndarray:
    level = _rms(signal)
    if level <= 0.0:
        return signal
    return signal * (_amplitude(spl_db) / level)


def shaped_noise(
    n_samples: int,
    spl_db: float,
    sample_rate: float,
    bands: Sequence[Tuple[float, float, float]],
    rng: np.random.Generator,
) -> np.ndarray:
    """Weighted sum of band-filtered white noise, calibrated to SPL."""
    total = np.zeros(n_samples)
    for low, high, weight in bands:
        if weight == 0.0 or n_samples == 0:
            continue
        raw = rng.standard_normal(n_samples)
        if low <= 0.0:
            taps = design_lowpass_fir(high, sample_rate, num_taps=257)
        else:
            taps = design_bandpass_fir(low, high, sample_rate, num_taps=257)
        component = fir_filter(raw, taps)
        level = _rms(component)
        if level > 0:
            component = component / level * weight
        total = total + component
    return _scale_to_spl(total, spl_db)


def tone_jammer(
    n_samples: int,
    sample_rate: float,
    freqs_hz: Sequence[float],
    spl_db: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sum of random-phase tones, calibrated to SPL."""
    if len(freqs_hz) == 0:
        return np.zeros(n_samples)
    t = np.arange(n_samples) / sample_rate
    total = np.zeros(n_samples)
    for f in freqs_hz:
        phase = rng.uniform(0, 2 * np.pi)
        total += np.sin(2 * np.pi * f * t + phase)
    return _scale_to_spl(total, spl_db)


def scene_sample(scene, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """One realization of ``scene``: bed (shaped or white), then jam."""
    if scene.bands:
        bed = shaped_noise(
            n_samples, scene.spl_db, scene.sample_rate, scene.bands, rng
        )
    else:
        bed = _scale_to_spl(rng.standard_normal(n_samples), scene.spl_db)
    if scene.jam_tones_hz and np.isfinite(scene.jam_spl_db):
        bed = bed + tone_jammer(
            n_samples, scene.sample_rate, scene.jam_tones_hz,
            scene.jam_spl_db, rng,
        )
    return bed


def speaker_play(speaker, signal: np.ndarray) -> np.ndarray:
    """Rise ramp, ringing tail, phase ripple (recomputed), clip."""
    out = np.asarray(signal, dtype=np.float64).copy()
    if out.size == 0:
        return out
    rise_samples = int(speaker.rise_time * speaker.sample_rate)
    if rise_samples > 1:
        n = min(rise_samples, out.size)
        out[:n] *= raised_cosine_ramp(n, rising=True)
    if speaker.ringing_gain > 0 and speaker.ringing_time > 0:
        tail_len = max(int(4 * speaker.ringing_time * speaker.sample_rate), 1)
        t = np.arange(1, tail_len + 1) / speaker.sample_rate
        tail = speaker.ringing_gain * np.exp(-t / speaker.ringing_time)
        out = np.convolve(out, np.concatenate(([1.0], tail)))
    if speaker.phase_ripple_rad > 0 and out.size >= 2:
        spec = np.fft.rfft(out)
        freqs = np.fft.rfftfreq(out.size, d=1.0 / speaker.sample_rate)
        phi = np.zeros_like(freqs)
        for a, tau, theta in zip(
            speaker._ripple_amps,
            speaker._ripple_delays,
            speaker._ripple_phases,
        ):
            phi += a * np.cos(2.0 * np.pi * freqs * tau + theta)
        spec *= np.exp(1j * phi)
        out = np.fft.irfft(spec, out.size)
    return np.clip(out, -speaker.clip_level, speaker.clip_level)


def mic_record(mic, signal: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Low-pass with soft knee, calibrated noise floor, clip."""
    out = np.asarray(signal, dtype=np.float64).copy()
    if mic.lowpass_hz is not None and out.size:
        sharp = fir_filter(
            out,
            design_lowpass_fir(mic.lowpass_hz, mic.sample_rate, mic.num_taps),
        )
        soft = fir_filter(
            out,
            design_lowpass_fir(mic.knee_hz, mic.sample_rate, mic.num_taps),
        )
        blend = 10.0 ** (-mic.knee_loss_db / 20.0)
        out = blend * sharp + (1.0 - blend) * soft
    if mic.noise_floor_spl > -np.inf and out.size:
        floor = rng.standard_normal(out.size)
        level = _amplitude(mic.noise_floor_spl)
        floor *= level / max(np.sqrt(np.mean(floor ** 2)), 1e-300)
        out = out + floor
    return np.clip(out, -mic.clip_level, mic.clip_level)
