"""Experiment harness reproducing every figure and table of the paper."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "ber_trial": (".workloads", "ber_trial"),
        "BerTrialResult": (".workloads", "BerTrialResult"),
        "TrialSpec": (".workloads", "TrialSpec"),
        "PinEntryModel": (".pin_entry", "PinEntryModel"),
        "format_table": (".reporting", "format_table"),
        "format_series": (".reporting", "format_series"),
        "BatchRunner": (".batch", "BatchRunner"),
        "BatchTask": (".batch", "BatchTask"),
        "BatchResult": (".batch", "BatchResult"),
        "grid_tasks": (".batch", "grid_tasks"),
        "cell_seed": (".batch", "cell_seed"),
        "cell_seeds": (".batch", "cell_seeds"),
        "experiments": (".experiments", None),
    },
)
