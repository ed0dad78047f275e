"""WearLock reproduction: acoustic smartwatch-assisted phone unlocking.

A full-system reproduction of *WearLock: Unlocking Your Phone via
Acoustics using Smartwatch* (Yi, Qin, Carter, Li — ICDCS 2017), built
on a calibrated simulation of the acoustic world (speakers, rooms,
microphones, noise) in place of the paper's physical testbed.

Quickstart::

    from repro import WearLock

    wl = WearLock.pair(secret=b"shared-secret")
    outcome = wl.unlock_attempt(environment="office", distance_m=0.4)
    print(outcome.unlocked, outcome.mode, outcome.raw_ber)

Subpackages
-----------
``repro.dsp``       signal-processing primitives
``repro.channel``   acoustic world simulator (speaker→room→mic, noise)
``repro.modem``     the acoustic OFDM modem (paper §III)
``repro.security``  HOTP tokens, replay/NLOS defenses (paper §IV)
``repro.sensors``   accelerometer traces, DTW, motion filter (paper §V)
``repro.wireless``  BLE/WiFi control-channel models
``repro.devices``   device compute/power profiles
``repro.offload``   computation offloading (paper §V)
``repro.protocol``  the two-phase unlocking protocol (paper §II)
``repro.core``      the WearLock facade and metrics
``repro.eval``      experiment harness reproducing every figure/table
"""

import importlib
import sys
from typing import Callable, Dict, List, Optional, Tuple

__version__ = "1.0.0"


def _lazy_exports(
    package: str, exports: Dict[str, Tuple[str, Optional[str]]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """PEP 562 re-exports of ``package``: ``(__getattr__, __dir__, __all__)``.

    ``exports`` maps each public name to ``(module, attribute)``: a
    module relative to ``package`` and the attribute it exports, or
    ``None`` for the module itself.  A name's module is imported on the
    name's first access and the value cached in the package namespace,
    so importing one submodule never loads its siblings: a fleet run
    loads only the code it executes.

    A name that is also its source module's name (``repro.security.
    hotp``) is bound at once.  Importing a submodule sets the package
    attribute of that name to the module, and ``__getattr__`` is never
    consulted for an attribute that exists.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module, attribute = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = importlib.import_module(module, package)
        if attribute is not None:
            value = getattr(value, attribute)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    for name, (module, attribute) in exports.items():
        if attribute is not None and module == f".{name}":
            __getattr__(name)
    return __getattr__, __dir__, list(exports)


__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "ModemConfig": (".config", "ModemConfig"),
        "MotionFilterConfig": (".config", "MotionFilterConfig"),
        "SecurityConfig": (".config", "SecurityConfig"),
        "SystemConfig": (".config", "SystemConfig"),
        "WearLock": (".core.system", "WearLock"),
        "PairingInfo": (".core.system", "PairingInfo"),
        "summarize_outcomes": (".core.metrics", "summarize_outcomes"),
        "AbortReason": (".protocol.session", "AbortReason"),
        "SessionConfig": (".protocol.session", "SessionConfig"),
        "UnlockOutcome": (".protocol.session", "UnlockOutcome"),
        "UnlockSession": (".protocol.session", "UnlockSession"),
        "WearLockError": (".errors", "WearLockError"),
        "ConfigurationError": (".errors", "ConfigurationError"),
        "DspError": (".errors", "DspError"),
        "ModemError": (".errors", "ModemError"),
        "PreambleNotFoundError": (".errors", "PreambleNotFoundError"),
        "SynchronizationError": (".errors", "SynchronizationError"),
        "DemodulationError": (".errors", "DemodulationError"),
        "ChannelError": (".errors", "ChannelError"),
        "ProtocolError": (".errors", "ProtocolError"),
        "TransmissionAborted": (".errors", "TransmissionAborted"),
        "SecurityError": (".errors", "SecurityError"),
        "TokenMismatchError": (".errors", "TokenMismatchError"),
        "LockedOutError": (".errors", "LockedOutError"),
        "ReplayDetectedError": (".errors", "ReplayDetectedError"),
    },
)
__all__.append("__version__")
