"""Digital signal processing substrate for the WearLock acoustic modem.

Everything here is plain NumPy — no audio hardware, no global state —
so the same routines run on the "phone", the "watch", and inside the
channel simulator, mirroring the paper's shared Java DSP library.
"""

from .windows import fade_edges, hann_window, hamming_window, raised_cosine_ramp
from .chirp import linear_chirp, chirp_matched_filter
from .correlation import (
    normalized_cross_correlation,
    sliding_normalized_correlation,
    best_alignment,
)
from .fftops import (
    fft_interpolate_rows,
    spectrum_bins,
    goertzel_power,
)
from .plane import CacheStats, KeyedCache, all_cache_stats
from .filters import (
    design_lowpass_fir,
    design_bandpass_fir,
    fir_filter,
)
from .energy import (
    SILENCE_FLOOR_SPL_DB,
    rms,
    amplitude_to_spl,
    spl_to_amplitude,
    signal_spl,
    db,
    from_db,
    EnergyDetector,
)
from .spectrum import welch_psd, band_power, noise_power_per_bin
from .resample import linear_resample, apply_clock_skew

__all__ = [
    "fade_edges",
    "hann_window",
    "hamming_window",
    "raised_cosine_ramp",
    "linear_chirp",
    "chirp_matched_filter",
    "normalized_cross_correlation",
    "sliding_normalized_correlation",
    "best_alignment",
    "fft_interpolate_rows",
    "spectrum_bins",
    "goertzel_power",
    "CacheStats",
    "KeyedCache",
    "all_cache_stats",
    "design_lowpass_fir",
    "design_bandpass_fir",
    "fir_filter",
    "SILENCE_FLOOR_SPL_DB",
    "rms",
    "amplitude_to_spl",
    "spl_to_amplitude",
    "signal_spl",
    "db",
    "from_db",
    "EnergyDetector",
    "welch_psd",
    "band_power",
    "noise_power_per_bin",
    "linear_resample",
    "apply_clock_skew",
]
