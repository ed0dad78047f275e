"""Motion-sensor substrate: trace synthesis, DTW, the Alg. 1 filter."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "ActivityKind": (".traces", "ActivityKind"),
        "accelerometer_trace": (".traces", "accelerometer_trace"),
        "co_located_pair": (".traces", "co_located_pair"),
        "different_devices_pair": (".traces", "different_devices_pair"),
        "magnitude": (".traces", "magnitude"),
        "normalize_trace": (".traces", "normalize_trace"),
        "dtw_distance": (".dtw", "dtw_distance"),
        "normalized_dtw": (".dtw", "normalized_dtw"),
        "MotionFilter": (".motion_filter", "MotionFilter"),
        "MotionDecision": (".motion_filter", "MotionDecision"),
    },
)
