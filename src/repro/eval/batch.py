"""Batch replay of unlock attempts and experiment cells.

The experiment functions in :mod:`repro.eval.experiments` used to
re-drive their parameter sweeps with hand-rolled nested ``for`` loops,
each threading one shared RNG serially — impossible to parallelize and
observable only through the final aggregate.  :class:`BatchRunner`
replaces those loops:

* a **grid** of :class:`BatchTask`\\ s is built once (shared immutable
  setup — configs, environments, device profiles — is captured in the
  task params, not rebuilt per cell);
* every task is **self-seeded** (derive the cell seed from the sweep
  seed + the cell coordinates), so results are bit-identical whether
  the grid runs serially, on a thread pool, or on a process pool, and
  in any order;
* results come back **in task order**, so downstream aggregation code
  is oblivious to how the grid was executed.

``python -m repro experiment <name> --workers N`` threads a worker
count through to every ported experiment.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import WearLockError

__all__ = [
    "BatchTask",
    "BatchResult",
    "BatchRunner",
    "grid_tasks",
    "cell_seed",
    "cell_seeds",
]


def cell_seed(sweep_seed: int, *coordinates: Any, bound: int = 2**31) -> int:
    """Deterministic per-cell seed from a sweep seed + cell coordinates.

    Stable across processes and Python versions (no salted ``hash``):
    the coordinates are rendered to text and folded into the seed with
    SHA-256, exactly once per cell.
    """
    text = repr(tuple(coordinates)).encode("utf-8")
    digest = hashlib.sha256(
        sweep_seed.to_bytes(8, "big", signed=True) + text
    ).digest()
    return int.from_bytes(digest[:8], "big") % bound


def cell_seeds(
    sweep_seed: int, tag: Any, ids: Iterable[int], bound: int = 2**31
) -> List[int]:
    """``[cell_seed(sweep_seed, tag, i, bound=bound) for i in ids]``, batched.

    The hashed text ``repr((tag, i))`` is ``"(" + repr(tag) + ", "``
    followed by ``"%d)" % i``, so the sweep-seed bytes and the tag are
    rendered once and only the integer suffix is formatted per id —
    about half the per-cell cost of :func:`cell_seed`.  The whole
    digests are joined and read as one big-endian ``uint64`` array whose
    every fourth word is a digest's 8-byte prefix, so the fold is one
    array ``%`` rather than an int per id.
    """
    prefix = sweep_seed.to_bytes(8, "big", signed=True) + (
        f"({tag!r}, ".encode("utf-8")
    )
    sha256 = hashlib.sha256
    values = np.frombuffer(
        b"".join([sha256(prefix + b"%d)" % i).digest() for i in ids]),
        ">u8",
    )[::4]
    if 0 < bound < 2**64:
        return (values % np.uint64(bound)).tolist()
    return [value % bound for value in values.tolist()]


@dataclass(frozen=True)
class BatchTask:
    """One cell of a parameter grid."""

    key: Tuple[Any, ...]
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class BatchResult:
    """One task's outcome, in task order."""

    key: Tuple[Any, ...]
    value: Any


def grid_tasks(
    sweep_seed: int,
    /,
    **axes: Sequence[Any],
) -> List[BatchTask]:
    """Cartesian-product grid with per-cell derived seeds.

    ``grid_tasks(7, mode=("QPSK", "8PSK"), distance_m=(0.25, 0.5))``
    yields 4 tasks whose params carry the axis values plus a ``seed``
    derived from the sweep seed and the cell's coordinates.
    """
    names = list(axes)
    tasks: List[BatchTask] = []
    for values in itertools.product(*(axes[n] for n in names)):
        params = dict(zip(names, values))
        params["seed"] = cell_seed(sweep_seed, *values)
        tasks.append(BatchTask(key=tuple(values), params=params))
    return tasks


class BatchRunner:
    """Replays a cell function over a task grid, serially or fanned out.

    Parameters
    ----------
    fn:
        The cell function, called as ``fn(**task.params)``.  For
        process pools it must be a module-level callable (picklable);
        thread pools and serial execution take anything.
    workers:
        ``None``/``0``/``1`` → serial in-process execution.  ``>1`` →
        a pool of that many workers.
    executor:
        ``"thread"`` (default — the DSP stack releases the GIL inside
        FFTs) or ``"process"``.
    tracer:
        Optional :class:`repro.core.trace.Tracer`; when given, each
        :meth:`run` is wrapped in a ``batch.run`` span carrying the
        grid size and the signal-plane cache hit/miss deltas the sweep
        produced (how much template construction the cells shared).
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        workers: Optional[int] = None,
        executor: str = "thread",
        tracer: Optional[Any] = None,
    ):
        if executor not in ("thread", "process"):
            raise WearLockError("executor must be 'thread' or 'process'")
        if workers is not None and workers < 0:
            raise WearLockError("workers must be >= 0")
        self._fn = fn
        self._workers = int(workers or 0)
        self._executor = executor
        self._tracer = tracer

    @property
    def parallel(self) -> bool:
        return self._workers > 1

    def run(self, tasks: Iterable[BatchTask]) -> List[BatchResult]:
        """Execute every task; results return in task order."""
        task_list = list(tasks)
        if self._tracer is not None:
            # Imported here: the eval layer stays importable without
            # pulling the whole modem stack in for untraced runs.
            from ..modem.context import plane_cache_stats

            before = plane_cache_stats()
            with self._tracer.span("batch.run"):
                results = self._run(task_list)
                after = plane_cache_stats()
                self._tracer.counter("cells", float(len(task_list)))
                self._tracer.counter(
                    "plane_cache_hits", float(after.hits - before.hits)
                )
                self._tracer.counter(
                    "plane_cache_misses",
                    float(after.misses - before.misses),
                )
            return results
        return self._run(task_list)

    def _run(self, task_list: List[BatchTask]) -> List[BatchResult]:
        if not self.parallel:
            return [
                BatchResult(key=t.key, value=self._fn(**t.params))
                for t in task_list
            ]
        # Imported here: serial runs, the fleet's among them, never
        # load the pools' threading and multiprocessing machinery.
        from concurrent.futures import (
            FIRST_EXCEPTION,
            ProcessPoolExecutor,
            ThreadPoolExecutor,
            wait,
        )

        pool_cls = (
            ThreadPoolExecutor
            if self._executor == "thread"
            else ProcessPoolExecutor
        )
        with pool_cls(max_workers=self._workers) as pool:
            futures = [
                pool.submit(self._fn, **t.params) for t in task_list
            ]
            wait(futures, return_when=FIRST_EXCEPTION)
            return [
                BatchResult(key=t.key, value=f.result())
                for t, f in zip(task_list, futures)
            ]
