"""Deterministic fault injection for chaos-testing the unlock protocol.

See :mod:`repro.faults.plan` for the declarative schedule language and
:mod:`repro.faults.injector` for the runtime hooks the channel,
wireless and stage-engine layers call.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "ACOUSTIC_FAULTS": (".plan", "ACOUSTIC_FAULTS"),
        "FAULT_KINDS": (".plan", "FAULT_KINDS"),
        "STAGE_FAULTS": (".plan", "STAGE_FAULTS"),
        "WIRELESS_FAULTS": (".plan", "WIRELESS_FAULTS"),
        "FaultError": (".plan", "FaultError"),
        "FaultInjector": (".injector", "FaultInjector"),
        "FaultPlan": (".plan", "FaultPlan"),
        "FaultSpec": (".plan", "FaultSpec"),
        "InjectedFault": (".injector", "InjectedFault"),
    },
)
