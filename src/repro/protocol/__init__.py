"""The smartwatch-assisted unlocking protocol (paper §II, Fig. 2)."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "SimClock": (".events", "SimClock"),
        "Timeline": (".events", "Timeline"),
        "TimelineEvent": (".events", "TimelineEvent"),
        "Keyguard": (".keyguard", "Keyguard"),
        "LockState": (".keyguard", "LockState"),
        "PhoneController": (".controllers", "PhoneController"),
        "WatchController": (".controllers", "WatchController"),
        "UnlockSession": (".session", "UnlockSession"),
        "SessionConfig": (".session", "SessionConfig"),
        "UnlockOutcome": (".session", "UnlockOutcome"),
        "AbortReason": (".session", "AbortReason"),
        "UNLOCK_STAGE_NAMES": (".stages", "UNLOCK_STAGE_NAMES"),
        "build_unlock_stages": (".stages", "build_unlock_stages"),
    },
)
