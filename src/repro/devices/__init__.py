"""Device substrate: compute-speed and power profiles of the testbed.

The paper's hardware: Nexus 6 (high-end phone), Galaxy Nexus (low-end
phone), Moto 360 (smartwatch).  Profiles drive the delay and energy
models behind Figs. 6, 10 and 12.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "DeviceProfile": (".profiles", "DeviceProfile"),
        "NEXUS6": (".profiles", "NEXUS6"),
        "GALAXY_NEXUS": (".profiles", "GALAXY_NEXUS"),
        "MOTO360": (".profiles", "MOTO360"),
        "DEVICES": (".profiles", "DEVICES"),
        "Workload": (".compute", "Workload"),
        "correlation_workload": (".compute", "correlation_workload"),
        "demodulation_workload": (".compute", "demodulation_workload"),
        "probe_processing_workload": (".compute", "probe_processing_workload"),
        "dtw_workload": (".compute", "dtw_workload"),
        "EnergyMeter": (".battery", "EnergyMeter"),
    },
)
