"""Public facade of the WearLock reproduction."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "WearLock": (".system", "WearLock"),
        "PairingInfo": (".system", "PairingInfo"),
        "BerStats": (".metrics", "BerStats"),
        "DelayStats": (".metrics", "DelayStats"),
        "SuccessStats": (".metrics", "SuccessStats"),
        "summarize_outcomes": (".metrics", "summarize_outcomes"),
        "AmbientComparator": (".colocation", "AmbientComparator"),
        "Stage": (".stages", "Stage"),
        "StageResult": (".stages", "StageResult"),
        "StageRng": (".stages", "StageRng"),
        "SessionContext": (".stages", "SessionContext"),
        "EngineResult": (".stages", "EngineResult"),
        "StageEngine": (".stages", "StageEngine"),
        "Tracer": (".trace", "Tracer"),
        "NullTracer": (".trace", "NullTracer"),
        "Span": (".trace", "Span"),
        "TraceReport": (".trace", "TraceReport"),
    },
)
