"""Experiment harness reproducing every figure and table of the paper."""

from .workloads import ber_trial, BerTrialResult, TrialSpec
from .pin_entry import PinEntryModel
from .reporting import format_table, format_series
from .batch import (
    BatchResult,
    BatchRunner,
    BatchTask,
    cell_seed,
    cell_seeds,
    grid_tasks,
)
from . import experiments

__all__ = [
    "ber_trial",
    "BerTrialResult",
    "TrialSpec",
    "PinEntryModel",
    "format_table",
    "format_series",
    "BatchRunner",
    "BatchTask",
    "BatchResult",
    "grid_tasks",
    "cell_seed",
    "cell_seeds",
    "experiments",
]
