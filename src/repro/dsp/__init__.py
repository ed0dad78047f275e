"""Digital signal processing substrate for the WearLock acoustic modem.

Everything here is plain NumPy — no audio hardware, no global state —
so the same routines run on the "phone", the "watch", and inside the
channel simulator, mirroring the paper's shared Java DSP library.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "fade_edges": (".windows", "fade_edges"),
        "hann_window": (".windows", "hann_window"),
        "hamming_window": (".windows", "hamming_window"),
        "raised_cosine_ramp": (".windows", "raised_cosine_ramp"),
        "linear_chirp": (".chirp", "linear_chirp"),
        "chirp_matched_filter": (".chirp", "chirp_matched_filter"),
        "normalized_cross_correlation": (
            ".correlation",
            "normalized_cross_correlation",
        ),
        "sliding_normalized_correlation": (
            ".correlation",
            "sliding_normalized_correlation",
        ),
        "best_alignment": (".correlation", "best_alignment"),
        "fft_interpolate_rows": (".fftops", "fft_interpolate_rows"),
        "spectrum_bins": (".fftops", "spectrum_bins"),
        "goertzel_power": (".fftops", "goertzel_power"),
        "CacheStats": (".plane", "CacheStats"),
        "KeyedCache": (".plane", "KeyedCache"),
        "all_cache_stats": (".plane", "all_cache_stats"),
        "design_lowpass_fir": (".filters", "design_lowpass_fir"),
        "design_bandpass_fir": (".filters", "design_bandpass_fir"),
        "fir_filter": (".filters", "fir_filter"),
        "SILENCE_FLOOR_SPL_DB": (".energy", "SILENCE_FLOOR_SPL_DB"),
        "rms": (".energy", "rms"),
        "amplitude_to_spl": (".energy", "amplitude_to_spl"),
        "spl_to_amplitude": (".energy", "spl_to_amplitude"),
        "signal_spl": (".energy", "signal_spl"),
        "db": (".energy", "db"),
        "from_db": (".energy", "from_db"),
        "EnergyDetector": (".energy", "EnergyDetector"),
        "welch_psd": (".spectrum", "welch_psd"),
        "band_power": (".spectrum", "band_power"),
        "noise_power_per_bin": (".spectrum", "noise_power_per_bin"),
        "linear_resample": (".resample", "linear_resample"),
        "apply_clock_skew": (".resample", "apply_clock_skew"),
    },
)
