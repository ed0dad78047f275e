"""BatchRunner: grids, per-cell seeding, serial/parallel identity."""

import json

import pytest

from repro.errors import WearLockError
from repro.eval.batch import (
    BatchRunner,
    BatchTask,
    cell_seed,
    grid_tasks,
)
from repro.eval.experiments import (
    fig7_range,
    fig12_total_delay,
    table1_field_test,
)
from repro.eval.runner import _jsonable


def _square(x, seed):
    return x * x + seed * 0


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed(7, "a", 1) == cell_seed(7, "a", 1)

    def test_sensitive_to_seed_and_coords(self):
        base = cell_seed(7, "a", 1)
        assert cell_seed(8, "a", 1) != base
        assert cell_seed(7, "a", 2) != base
        assert cell_seed(7, "b", 1) != base

    def test_within_bound(self):
        for coords in (("x",), ("x", 0), (1.5, "y", 3)):
            assert 0 <= cell_seed(123, *coords) < 2**31


class TestGridTasks:
    def test_cartesian_product_with_seeds(self):
        tasks = grid_tasks(3, mode=("QPSK", "8PSK"), d=(0.25, 0.5))
        assert len(tasks) == 4
        assert [t.key for t in tasks] == [
            ("QPSK", 0.25), ("QPSK", 0.5), ("8PSK", 0.25), ("8PSK", 0.5),
        ]
        for t in tasks:
            assert t.params["seed"] == cell_seed(3, *t.key)


class TestBatchRunner:
    def test_results_in_task_order(self):
        tasks = [
            BatchTask(key=(i,), params=dict(x=i, seed=0)) for i in range(10)
        ]
        for workers in (None, 4):
            results = BatchRunner(_square, workers=workers).run(tasks)
            assert [r.key for r in results] == [(i,) for i in range(10)]
            assert [r.value for r in results] == [i * i for i in range(10)]

    def test_serial_and_parallel_identical(self):
        tasks = [
            BatchTask(key=(i,), params=dict(x=i, seed=i)) for i in range(8)
        ]
        serial = BatchRunner(_square).run(tasks)
        threaded = BatchRunner(_square, workers=3).run(tasks)
        assert [r.value for r in serial] == [r.value for r in threaded]

    def test_rejects_bad_executor_and_workers(self):
        with pytest.raises(WearLockError):
            BatchRunner(_square, executor="rayon")
        with pytest.raises(WearLockError):
            BatchRunner(_square, workers=-1)

    def test_worker_exception_propagates(self):
        def boom(x, seed):
            raise ValueError("cell failed")

        tasks = [BatchTask(key=(0,), params=dict(x=0, seed=0))]
        with pytest.raises(ValueError):
            BatchRunner(boom, workers=2).run(tasks)


class TestExperimentByteIdentity:
    """The ported sweeps return byte-identical JSON serial vs parallel."""

    @staticmethod
    def _dumps(result):
        return json.dumps(_jsonable(result), sort_keys=True)

    def test_fig7_serial_vs_parallel(self):
        kwargs = dict(n_trials=2, distances=(0.25, 0.5))
        serial = self._dumps(fig7_range(workers=None, **kwargs))
        fanned = self._dumps(fig7_range(workers=3, **kwargs))
        assert serial == fanned

    def test_table1_serial_vs_parallel(self):
        serial = self._dumps(table1_field_test(n_trials=2, workers=None))
        fanned = self._dumps(table1_field_test(n_trials=2, workers=4))
        assert serial == fanned

    def test_fig12_serial_vs_parallel(self):
        serial = self._dumps(fig12_total_delay(n_trials=2, workers=None))
        fanned = self._dumps(fig12_total_delay(n_trials=2, workers=3))
        assert serial == fanned

    def test_table1_schema_unchanged(self):
        result = table1_field_test(n_trials=1)
        assert set(result) == {"cells", "average_ber"}
        assert len(result["cells"]) == 16  # 2 bands × 2 hands × 4 scenes
        for cell in result["cells"]:
            assert set(cell) == {"band", "hand", "location", "ber", "mode"}
