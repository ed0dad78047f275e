"""Computation offloading (paper §V): planner and executor."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "OffloadPlanner": (".planner", "OffloadPlanner"),
        "ProcessingPlan": (".planner", "ProcessingPlan"),
        "Placement": (".planner", "Placement"),
        "OffloadExecutor": (".executor", "OffloadExecutor"),
        "ExecutionReport": (".executor", "ExecutionReport"),
    },
)
