"""Configuration dataclasses shared across the WearLock reproduction.

The defaults follow the paper's implementation section (§VI):

* sampling rate 44.1 kHz, FFT size 256 (≈172 Hz sub-channel spacing);
* preamble of 256 samples, post-preamble guard of 1024 samples,
  cyclic prefix of 128 samples;
* default data sub-channels ``{16,17,18,20,21,22,24,25,26,28,29,30}`` and
  pilot sub-channels ``{7,11,15,19,23,27,31,35}`` for the audible
  1–6 kHz band, shifted upward for the 15–20 kHz near-ultrasound band.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from .errors import ConfigurationError

#: Default data sub-channel indices (paper §VI, audible band).
DEFAULT_DATA_CHANNELS: Tuple[int, ...] = (
    16, 17, 18, 20, 21, 22, 24, 25, 26, 28, 29, 30,
)

#: Default pilot sub-channel indices (paper §VI, audible band).
DEFAULT_PILOT_CHANNELS: Tuple[int, ...] = (7, 11, 15, 19, 23, 27, 31, 35)

#: Index shift that moves the audible plan into the 15-20 kHz band.
#: Bin 16 (≈2.76 kHz) + 81 = bin 97 (≈16.7 kHz); the whole plan lands
#: inside 15-20 kHz while keeping the pilot/data spacing intact.
NEAR_ULTRASOUND_SHIFT: int = 81


@dataclass(frozen=True)
class ModemConfig:
    """Static parameters of the acoustic OFDM modem.

    Attributes
    ----------
    sample_rate:
        Audio sampling rate in Hz.  The paper uses 44.1 kHz.
    fft_size:
        OFDM FFT size ``N``; sub-channel spacing is ``sample_rate / N``.
    cp_length:
        Cyclic-prefix length in samples (guard against ISI, and the
        anchor for fine time synchronization).
    preamble_length:
        Length of the chirp preamble in samples.
    guard_length:
        Zero-padded gap between the preamble and the first OFDM symbol,
        sized to outlast speaker ringing (paper: 1024 samples).
    symbol_guard:
        Zero padding appended after every OFDM symbol (``Tg`` in the
        paper) to absorb reverberation tails.
    data_channels / pilot_channels:
        Sub-channel (FFT bin) indices used for payload and pilots.
    preamble_band:
        ``(f_min, f_max)`` of the linear chirp preamble in Hz.
    detection_threshold:
        Minimum normalized cross-correlation score to accept a preamble
        (the paper aborts below 0.05).
    """

    sample_rate: float = 44_100.0
    fft_size: int = 256
    cp_length: int = 128
    preamble_length: int = 256
    guard_length: int = 1024
    symbol_guard: int = 64
    data_channels: Tuple[int, ...] = DEFAULT_DATA_CHANNELS
    pilot_channels: Tuple[int, ...] = DEFAULT_PILOT_CHANNELS
    preamble_band: Tuple[float, float] = (1_000.0, 6_000.0)
    detection_threshold: float = 0.05

    def __post_init__(self) -> None:
        if self.fft_size <= 0 or self.fft_size & (self.fft_size - 1):
            raise ConfigurationError(
                f"fft_size must be a positive power of two, got {self.fft_size}"
            )
        if not 0 <= self.cp_length <= self.fft_size:
            raise ConfigurationError(
                f"cp_length must lie in [0, fft_size], got {self.cp_length}"
            )
        if self.sample_rate <= 0:
            raise ConfigurationError("sample_rate must be positive")
        half = self.fft_size // 2
        for name, bins in (
            ("data_channels", self.data_channels),
            ("pilot_channels", self.pilot_channels),
        ):
            if not bins:
                raise ConfigurationError(f"{name} must not be empty")
            for b in bins:
                if not 1 <= b < half:
                    raise ConfigurationError(
                        f"{name} index {b} outside valid range [1, {half - 1}]"
                    )
        overlap = set(self.data_channels) & set(self.pilot_channels)
        if overlap:
            raise ConfigurationError(
                f"data and pilot channels overlap: {sorted(overlap)}"
            )
        if self.preamble_band[0] >= self.preamble_band[1]:
            raise ConfigurationError("preamble_band must be (low, high)")
        if self.preamble_band[1] > self.sample_rate / 2:
            raise ConfigurationError("preamble_band exceeds Nyquist")

    @property
    def subchannel_bandwidth(self) -> float:
        """Width of one sub-channel in Hz (``sample_rate / fft_size``)."""
        return self.sample_rate / self.fft_size

    @property
    def symbol_length(self) -> int:
        """Samples per OFDM symbol including CP and trailing guard."""
        return self.fft_size + self.cp_length + self.symbol_guard

    @property
    def symbol_duration(self) -> float:
        """Seconds per OFDM symbol including CP and trailing guard."""
        return self.symbol_length / self.sample_rate

    def near_ultrasound(self) -> "ModemConfig":
        """Return a copy of this config shifted to the 15-20 kHz band.

        Mirrors the paper's phone-phone pair: the whole sub-channel
        assignment and the chirp preamble move up in frequency.
        """
        shift = NEAR_ULTRASOUND_SHIFT
        return replace(
            self,
            data_channels=tuple(c + shift for c in self.data_channels),
            pilot_channels=tuple(c + shift for c in self.pilot_channels),
            preamble_band=(15_000.0, 20_000.0),
        )


@dataclass(frozen=True)
class SecurityConfig:
    """Security policy knobs (paper §IV)."""

    otp_bits: int = 32
    otp_digits: int = 6
    counter_look_ahead: int = 3
    max_failures: int = 3
    max_ber: float = 0.1
    nlos_relaxed_max_ber: float = 0.25
    nlos_tau_threshold: float = 4.0e-4
    timing_budget: float = 0.35

    def __post_init__(self) -> None:
        if self.otp_bits <= 0 or self.otp_bits > 160:
            raise ConfigurationError("otp_bits must be in (0, 160]")
        if not 0 < self.max_ber < 0.5:
            raise ConfigurationError("max_ber must be in (0, 0.5)")
        if self.max_failures < 1:
            raise ConfigurationError("max_failures must be >= 1")


@dataclass(frozen=True)
class MotionFilterConfig:
    """Thresholds of the sensor-based pre-filter (paper Alg. 1).

    ``dtw_low`` (``dl``): below it the devices move so similarly that the
    second phase can be skipped / MaxBER reduced.  ``dtw_high`` (``dh``):
    above it the devices are assumed not co-located and the protocol
    aborts.  The paper sets the decision threshold at 0.1.
    """

    dtw_low: float = 0.1
    dtw_high: float = 0.15
    sample_count: int = 100

    def __post_init__(self) -> None:
        if self.dtw_low >= self.dtw_high:
            raise ConfigurationError("dtw_low must be < dtw_high")
        if not 10 <= self.sample_count <= 1000:
            raise ConfigurationError("sample_count must be in [10, 1000]")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level WearLock system configuration."""

    modem: ModemConfig = field(default_factory=ModemConfig)
    security: SecurityConfig = field(default_factory=SecurityConfig)
    motion: MotionFilterConfig = field(default_factory=MotionFilterConfig)
    target_range_m: float = 1.0
    min_snr_db: float = 8.0

    def __post_init__(self) -> None:
        if self.target_range_m <= 0:
            raise ConfigurationError("target_range_m must be positive")
