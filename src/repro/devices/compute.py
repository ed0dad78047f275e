"""Operation-count models for the WearLock processing stages.

The paper breaks computation into Phase-1 channel-probing processing,
Phase-2 preprocessing (silence detection + sliding correlator), and
Phase-2 demodulation (FFT, interpolation, equalization, de-mapping).
These functions translate workload shapes (recording length, FFT size,
symbol count) into millions of operations, which
:class:`repro.devices.profiles.DeviceProfile` converts into seconds and
joules.  Constant factors fold in the Java-library overheads the paper
mentions; relative stage costs follow the algorithms' asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

from ..errors import ConfigurationError


@dataclass(frozen=True)
class Workload:
    """A named bag of work in millions of operations."""

    name: str
    mops: float

    def __post_init__(self) -> None:
        if self.mops < 0:
            raise ConfigurationError("mops must be non-negative")

    def __add__(self, other: "Workload") -> "Workload":
        return Workload(
            name=f"{self.name}+{other.name}", mops=self.mops + other.mops
        )


def _next_pow2(n: int) -> int:
    # Models the phone's radix-2 Java FFT, not the host: the simulator's
    # own transforms pad to repro.dsp.fftops.fft_length, but the cost a
    # device is charged must keep the power-of-two size it would run.
    if n < 1:
        return 1
    return 1 << ceil(log2(n))


#: Java DSP overhead multiplier (boxing, bounds checks, no SIMD).
_JAVA_FACTOR = 6.0


def correlation_workload(
    n_samples: int, template_length: int
) -> Workload:
    """Sliding normalized cross-correlation over a recording.

    FFT-based: three transforms of the padded length plus the
    local-energy pass.
    """
    if n_samples < 1 or template_length < 1:
        raise ConfigurationError("sample counts must be >= 1")
    nfft = _next_pow2(n_samples + template_length)
    fft_ops = 3 * 5 * nfft * log2(nfft)
    energy_ops = 4 * n_samples
    return Workload(
        name="correlation",
        mops=_JAVA_FACTOR * (fft_ops + energy_ops) / 1e6,
    )


def silence_detection_workload(n_samples: int) -> Workload:
    """Energy detector pass (cheap, linear)."""
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    return Workload(name="silence", mops=_JAVA_FACTOR * 3 * n_samples / 1e6)


def demodulation_workload(
    n_symbols: int, fft_size: int, n_data: int, n_pilots: int
) -> Workload:
    """Per-frame OFDM demodulation: sync + FFT + estimate + demap."""
    if n_symbols < 1 or fft_size < 8:
        raise ConfigurationError("invalid demodulation shape")
    per_symbol = (
        5 * fft_size * log2(fft_size)            # FFT
        + 50 * (2 * 24 + 1)                      # CP fine-sync search
        + 5 * n_pilots * 8 * log2(max(n_pilots * 8, 2))  # interpolation
        + 12 * (n_data + n_pilots)               # equalize
        + 24 * n_data                            # demap
    )
    return Workload(
        name="demodulation",
        mops=_JAVA_FACTOR * n_symbols * per_symbol / 1e6,
    )


def probe_processing_workload(
    n_samples: int, template_length: int, fft_size: int
) -> Workload:
    """Phase-1 processing: silence + preamble search + noise analysis."""
    corr = correlation_workload(n_samples, template_length)
    silence = silence_detection_workload(n_samples)
    n_blocks = max(1, n_samples // fft_size)
    noise_ops = 5 * fft_size * log2(fft_size) * n_blocks
    noise = Workload(name="noise", mops=_JAVA_FACTOR * noise_ops / 1e6)
    total = corr.mops + silence.mops + noise.mops
    return Workload(name="probe_processing", mops=total)


def dtw_workload(n: int, m: int) -> Workload:
    """DTW over two magnitude windows: O(n·m) cell updates.

    The paper reports ≈46 ms for 50-150-sample windows on-device —
    tiny next to the acoustic DSP, which is why the motion filter is a
    cheap gate.
    """
    if n < 1 or m < 1:
        raise ConfigurationError("window lengths must be >= 1")
    return Workload(name="dtw", mops=_JAVA_FACTOR * 10 * n * m / 1e6)
