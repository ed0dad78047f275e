"""Frozen pre-refactor modem path: the modem's bit-identity oracle.

The signal-plane refactor vectorized the transmitter's symbol assembly,
the receiver's per-body demodulation loop and the CP fine-sync search,
and every scalar modem call in the package is now a one-row call of its
stacked kernel.  This module preserves the *sequential* implementations
exactly as they stood before, so that

* ``tests/test_vectorized_equivalence.py``, the staging equivalence
  suites and ``tests/test_one_row_kernels.py`` can assert the kernels
  reproduce the original outputs bit for bit, and
* ``benchmarks/bench_signal_plane.py`` can measure before/after
  throughput of the same workload inside one process.

The loops that the refactor *replaced* (fine sync, per-bin symbol
assembly, edge fading, frame concatenation) are duplicated here
verbatim, and so are the scalar bodies the package dropped when they
became one-row calls: preamble detection (:func:`detect`, scored by
:func:`tests.kernel_oracle.sliding_normalized_correlation`), the block
FFT, pilot PSNR, the three channel estimators, equalization and FFT
interpolation.  Do not "clean them up" or re-route them through the
package kernels: an oracle never imports the kernel it checks
(``tests/test_oracle_independence.py`` enforces it).

One deliberate deviation: the empty/zero-ambient noise floor is clamped
to :data:`~repro.dsp.energy.SILENCE_FLOOR_SPL_DB` exactly as in the new
receiver, so equivalence tests can compare every field of the results.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.config import ModemConfig
from repro.dsp.energy import SILENCE_FLOOR_SPL_DB, rms, signal_spl
from repro.errors import (
    DemodulationError,
    DspError,
    ModemError,
    PreambleNotFoundError,
    SynchronizationError,
)
from repro.modem.constellation import Constellation
from repro.modem.equalizer import ChannelEstimate
from repro.modem.frame import PILOT_VALUE, frame_layout
from repro.modem.preamble import PreambleMatch, build_preamble
from repro.modem.receiver import ReceiveResult
from repro.modem.snr import ebn0_db_from_psnr
from repro.modem.subchannels import ChannelPlan
from repro.modem.transmitter import TransmitResult
from tests import kernel_oracle

__all__ = [
    "demodulate_block",
    "detect",
    "equalize",
    "estimate_channel",
    "estimate_channel_linear",
    "estimate_channel_magnitude",
    "fft_interpolate",
    "pilot_snr_db",
    "pilot_snr_linear",
    "reference_fine_sync_offset",
    "reference_modulate",
    "reference_receive",
]


def reference_fine_sync_offset(
    signal: np.ndarray,
    cp_start: int,
    config: ModemConfig,
    search_range: int = 32,
) -> int:
    """The original per-candidate fine-sync loop (eq. 2), verbatim."""
    x = np.asarray(signal, dtype=np.float64)
    n = config.fft_size
    cp = config.cp_length
    if cp == 0:
        return 0
    best_offset = 0
    best_score = -np.inf
    for tf in range(-search_range, search_range + 1):
        a0 = cp_start + tf
        a1 = a0 + cp
        b0 = a0 + n
        b1 = b0 + cp
        if a0 < 0 or b1 > x.size:
            continue
        head = x[a0:a1]
        tail = x[b0:b1]
        he = float(np.dot(head, head))
        te = float(np.dot(tail, tail))
        if he <= 0.0 or te <= 0.0:
            continue
        score = float(np.dot(head, tail)) / np.sqrt(he * te)
        if score > best_score:
            best_score = score
            best_offset = tf
    return best_offset


# -- preamble detection ------------------------------------------------


def _delay_profile(scores: np.ndarray, peak: int, m: int) -> np.ndarray:
    """The gated, squared correlation window after the peak."""
    window = min(scores.size - peak, m // 2)
    segment = np.maximum(scores[peak: peak + window], 0.0)
    if not segment.size:
        return segment
    baseline = float(np.median(np.abs(scores)))
    gate = max(0.25 * segment[0], 3.0 * baseline)
    segment = np.where(segment >= gate, segment, 0.0)
    return segment * segment


def match_from_scores(
    scores: np.ndarray, m: int, threshold: float
) -> PreambleMatch:
    """Peak, threshold and delay profile of one score trace."""
    peak = int(np.argmax(scores))
    best = float(scores[peak])
    if best < threshold:
        raise PreambleNotFoundError(best, threshold)
    return PreambleMatch(
        start=peak + m,
        score=best,
        delay_profile=_delay_profile(scores, peak, m),
    )


def detect(
    config: ModemConfig,
    recording: np.ndarray,
    threshold: Optional[float] = None,
) -> PreambleMatch:
    """Pre-refactor ``PreambleDetector.detect`` on one recording."""
    if threshold is None:
        threshold = config.detection_threshold
    template = build_preamble(config)
    x = np.asarray(recording, dtype=np.float64)
    if x.ndim != 1 or x.size < template.size:
        raise PreambleNotFoundError(0.0, threshold)
    scores = kernel_oracle.sliding_normalized_correlation(x, template)
    return match_from_scores(scores, template.size, threshold)


# -- block FFT, pilot SNR, channel estimate, equalization -------------


def demodulate_block(config: ModemConfig, block: np.ndarray) -> np.ndarray:
    """FFT one received OFDM body (CP already stripped) to all bins."""
    x = np.asarray(block, dtype=np.float64)
    if x.size < config.fft_size:
        raise ModemError(
            f"block of {x.size} samples shorter than FFT size "
            f"{config.fft_size}"
        )
    return np.fft.fft(x[: config.fft_size])


def _mean_power(spectrum: np.ndarray, bins: Iterable[int]) -> float:
    idx = list(bins)
    if not idx:
        raise DemodulationError("bin set is empty")
    x = spectrum[idx]
    return float(np.mean(x.real ** 2 + x.imag ** 2))


def pilot_snr_linear(
    spectrum: np.ndarray,
    plan: ChannelPlan,
    null_bins: Optional[Sequence[int]] = None,
) -> float:
    """PSNR (linear) from one received OFDM spectrum — eq. (3)."""
    x = np.asarray(spectrum, dtype=np.complex128)
    if x.ndim != 1 or x.size < plan.fft_size:
        raise DemodulationError("spectrum must cover the full FFT")
    nulls = tuple(null_bins) if null_bins is not None else plan.null_channels()
    if not nulls:
        raise DemodulationError("no null bins available for noise estimate")
    p_pilot = _mean_power(x, plan.pilots)
    p_null = _mean_power(x, nulls)
    if p_null <= 0.0:
        return 1e12
    return max((p_pilot - p_null) / p_null, 1e-12)


def pilot_snr_db(
    spectrum: np.ndarray,
    plan: ChannelPlan,
    null_bins: Optional[Sequence[int]] = None,
) -> float:
    """PSNR in dB."""
    return float(10.0 * np.log10(pilot_snr_linear(spectrum, plan, null_bins)))


def fft_interpolate(values: np.ndarray, factor: int) -> np.ndarray:
    """Interpolate a complex sequence by ``factor`` using FFT zero-padding."""
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise DspError("values must be a non-empty 1-D array")
    if factor < 1:
        raise DspError("interpolation factor must be >= 1")
    if factor == 1:
        return v.copy()
    m = v.size
    spec = np.fft.fft(v)
    padded = np.zeros(m * factor, dtype=np.complex128)
    half = m // 2
    padded[: half + 1] = spec[: half + 1]
    if half:
        tail = m - half - 1
        if tail:
            padded[-tail:] = spec[half + 1:]
        if m % 2 == 0:
            padded[half] *= 0.5
            padded[m * factor - half] = padded[half]
    return np.fft.ifft(padded) * factor


def estimate_channel(
    spectrum: np.ndarray, plan: ChannelPlan
) -> ChannelEstimate:
    """FFT-interpolated pilot estimate, pilots pinned exactly."""
    x = np.asarray(spectrum, dtype=np.complex128)
    if x.ndim != 1 or x.size < plan.fft_size:
        raise DemodulationError(
            f"spectrum must have at least fft_size={plan.fft_size} bins"
        )
    pilots = sorted(plan.pilots)
    z = x[pilots]
    if np.all(np.abs(z) < 1e-300):
        raise DemodulationError("all pilot bins are empty — no signal")
    spacing = plan.pilot_spacing
    interpolated = fft_interpolate(z, spacing)
    band_len = pilots[-1] - pilots[0] + 1
    response = interpolated[:band_len].copy()
    for i, p in enumerate(pilots):
        response[p - pilots[0]] = z[i]
    return ChannelEstimate(band_start=pilots[0], response=response)


def estimate_channel_magnitude(
    spectrum: np.ndarray, plan: ChannelPlan
) -> ChannelEstimate:
    """Magnitude-only estimate for envelope (ASK) detection."""
    x = np.asarray(spectrum, dtype=np.complex128)
    pilots = sorted(plan.pilots)
    z = np.abs(x[pilots])
    if np.all(z < 1e-300):
        raise DemodulationError("all pilot bins are empty — no signal")
    spacing = plan.pilot_spacing
    interpolated = np.abs(fft_interpolate(z.astype(np.complex128), spacing))
    band_len = pilots[-1] - pilots[0] + 1
    response = interpolated[:band_len].astype(np.complex128)
    for i, p in enumerate(pilots):
        response[p - pilots[0]] = z[i]
    return ChannelEstimate(band_start=pilots[0], response=response)


def estimate_channel_linear(
    spectrum: np.ndarray, plan: ChannelPlan
) -> ChannelEstimate:
    """Ablation: linear interpolation between pilots instead of FFT."""
    x = np.asarray(spectrum, dtype=np.complex128)
    pilots = sorted(plan.pilots)
    z = x[pilots]
    band = np.arange(pilots[0], pilots[-1] + 1)
    real = np.interp(band, pilots, z.real)
    imag = np.interp(band, pilots, z.imag)
    return ChannelEstimate(
        band_start=pilots[0], response=real + 1j * imag
    )


def _at_bin(estimate: ChannelEstimate, k: int) -> complex:
    idx = k - estimate.band_start
    if not 0 <= idx < estimate.response.size:
        raise DemodulationError(
            f"bin {k} outside estimated band "
            f"[{estimate.band_start}, "
            f"{estimate.band_start + estimate.response.size})"
        )
    return complex(estimate.response[idx])


def equalize(
    spectrum: np.ndarray,
    plan: ChannelPlan,
    estimate: ChannelEstimate,
    regularization: float = 1e-9,
) -> Dict[int, complex]:
    """Equalize the data bins: ``ŝ(k) = z(k) / H(k)``."""
    x = np.asarray(spectrum, dtype=np.complex128)
    out: Dict[int, complex] = {}
    for k in sorted(plan.data):
        h = _at_bin(estimate, k)
        denom = h if abs(h) > regularization else complex(regularization)
        out[k] = complex(x[k] / denom)
    return out


# -- transmit and receive ---------------------------------------------


def _sequential_modulate_symbol(
    config: ModemConfig,
    plan: ChannelPlan,
    data_symbols: np.ndarray,
    hermitian: bool = False,
) -> np.ndarray:
    """The original per-bin OFDM symbol assembly, verbatim."""
    s = np.asarray(data_symbols, dtype=np.complex128)
    if s.size != len(plan.data):
        raise ModemError(
            f"expected {len(plan.data)} data symbols, got {s.size}"
        )
    n = config.fft_size
    spectrum = np.zeros(n, dtype=np.complex128)
    for bin_index, value in zip(sorted(plan.data), s):
        spectrum[bin_index] = value
    for bin_index in plan.pilots:
        spectrum[bin_index] = PILOT_VALUE

    if hermitian:
        for k in range(1, n // 2):
            if spectrum[k] != 0:
                spectrum[n - k] = np.conj(spectrum[k])
        body = np.fft.ifft(spectrum).real
    else:
        body = np.real(np.fft.ifft(spectrum))

    cp = body[-config.cp_length:] if config.cp_length else body[:0]
    guard = np.zeros(config.symbol_guard)
    return np.concatenate([cp, body, guard])


def _sequential_fade_edges(signal: np.ndarray, fade_samples: int) -> np.ndarray:
    """The original raised-cosine edge fade, ramps computed in place."""
    out = np.asarray(signal, dtype=np.float64).copy()
    n = min(fade_samples, out.size // 2)
    if n == 0:
        return out
    m = np.arange(n)
    ramp = 0.5 - 0.5 * np.cos(np.pi * m / max(n - 1, 1))
    out[:n] *= ramp
    out[-n:] *= ramp[::-1]
    return out


def reference_modulate(
    config: ModemConfig,
    constellation: Constellation,
    bits: np.ndarray,
    plan: Optional[ChannelPlan] = None,
    hermitian: bool = False,
) -> TransmitResult:
    """Pre-refactor ``OfdmTransmitter.modulate``: one symbol at a time.

    Builds every template fresh per call — exactly what each sweep cell
    paid before the signal plane existed.
    """
    plan = plan if plan is not None else ChannelPlan.from_config(config)
    b = np.asarray(bits).astype(np.uint8)
    if b.ndim != 1 or b.size == 0:
        raise ModemError("bits must be a non-empty 1-D array")
    per = len(plan.data) * constellation.bits_per_symbol
    if b.size < 1:
        raise ModemError("payload must contain at least one bit")
    n_symbols = (b.size + per - 1) // per
    padded = np.concatenate(
        [b, np.zeros(n_symbols * per - b.size, dtype=np.uint8)]
    )

    blocks = []
    for i in range(n_symbols):
        chunk = padded[i * per: (i + 1) * per]
        data_symbols = constellation.map(chunk)
        blocks.append(
            _sequential_modulate_symbol(
                config, plan, data_symbols, hermitian=hermitian
            )
        )
    train = np.concatenate(blocks)

    preamble = build_preamble(config)
    train_rms = rms(train)
    target = rms(preamble)
    if train_rms > 0:
        train = train * (target / train_rms)

    guard = np.zeros(config.guard_length)
    waveform = np.concatenate(
        [preamble, guard, np.asarray(train, dtype=np.float64)]
    )
    waveform = _sequential_fade_edges(waveform, 32)
    return TransmitResult(
        waveform=waveform,
        layout=frame_layout(config, n_symbols),
        padded_bits=padded,
        n_payload_bits=b.size,
    )


def reference_receive(
    config: ModemConfig,
    constellation: Constellation,
    recording: np.ndarray,
    expected_bits: int,
    plan: Optional[ChannelPlan] = None,
    fine_sync: bool = True,
    linear_equalizer: bool = False,
    detection_threshold: Optional[float] = None,
    search_range: int = 24,
) -> ReceiveResult:
    """Pre-refactor ``OfdmReceiver.receive``: one body at a time."""
    plan = plan if plan is not None else ChannelPlan.from_config(config)
    x = np.asarray(recording, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DemodulationError("recording must be a non-empty 1-D array")
    per = len(plan.data) * constellation.bits_per_symbol
    if expected_bits < 1:
        raise DemodulationError("n_bits must be >= 1")
    n_symbols = (expected_bits + per - 1) // per
    layout = frame_layout(config, n_symbols)

    match = detect(config, x, detection_threshold)

    noise_start = max(0, match.start - layout.preamble_length)
    ambient = x[:noise_start]
    noise_spl = signal_spl(ambient) if ambient.size else SILENCE_FLOOR_SPL_DB
    if not np.isfinite(noise_spl):
        noise_spl = SILENCE_FLOOR_SPL_DB

    frame_anchor = match.start - layout.preamble_length
    bodies = np.empty((layout.n_symbols, layout.fft_size))
    offsets = []
    for i, nominal in enumerate(layout.symbol_offsets()):
        cp_start = frame_anchor + int(nominal)
        offset = 0
        if fine_sync and config.cp_length:
            offset = reference_fine_sync_offset(
                x, cp_start, config, search_range=search_range
            )
        body_start = cp_start + offset + layout.cp_length
        if body_start + layout.fft_size > x.size:
            raise SynchronizationError(
                f"symbol {i} body [{body_start}, "
                f"{body_start + layout.fft_size}) exceeds recording "
                f"of {x.size} samples"
            )
        bodies[i] = x[body_start: body_start + layout.fft_size]
        offsets.append(offset)

    all_bits = []
    psnrs = []
    symbols = []
    quiet_nulls = plan.quiet_null_channels(min_distance=2)
    for body in bodies:
        spectrum = demodulate_block(config, body)
        psnrs.append(pilot_snr_db(spectrum, plan, null_bins=quiet_nulls))
        if constellation.decision == "magnitude":
            estimate = estimate_channel_magnitude(spectrum, plan)
        elif linear_equalizer:
            estimate = estimate_channel_linear(spectrum, plan)
        else:
            estimate = estimate_channel(spectrum, plan)
        eq = equalize(spectrum, plan, estimate)
        ordered = np.array(
            [eq[k] for k in sorted(plan.data)], dtype=np.complex128
        )
        symbols.append(ordered)
        all_bits.append(constellation.demap(ordered))

    bits = np.concatenate(all_bits)[:expected_bits]
    psnr = float(np.mean(psnrs))
    ebn0 = ebn0_db_from_psnr(psnr, config, plan, constellation)
    return ReceiveResult(
        bits=bits,
        preamble_score=match.score,
        psnr_db=psnr,
        ebn0_db=ebn0,
        fine_offsets=tuple(offsets),
        delay_profile=match.delay_profile,
        equalized_symbols=np.concatenate(symbols),
        noise_spl=noise_spl,
    )
