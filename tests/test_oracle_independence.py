"""The test oracles never import the kernels they check.

``tests/kernel_oracle.py`` and ``tests/modem_oracle.py`` keep the
straight 1-D bodies that the package's stacked kernels replaced, and
``tests/population_oracle.py`` keeps the scalar population walk that
the batched shard population replaced.  An oracle that called a kernel
would compare the kernel with itself, so this suite parses the three
files and fails if any names a ``*_rows`` or ``*_batch`` function,
``receive_batch_grouped``, one of the classes whose methods are
one-row calls of those kernels, or a piece of the batched population
— in an import (under any alias) or as an attribute read anywhere in
the file.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ORACLES = ("kernel_oracle.py", "modem_oracle.py", "population_oracle.py")

#: Classes whose scalar methods are one-row calls of a stacked kernel.
KERNEL_CLASSES = frozenset(
    {
        "OfdmTransmitter",
        "OfdmReceiver",
        "PreambleDetector",
        "Synchronizer",
        "ChannelProber",
        "AcousticLink",
    }
)


#: The batched population: its seeding, its vectorized activity filter
#: and PCG64 replay, its draw-only skip, and the direct-caller plan
#: built from it.
POPULATION_KERNELS = frozenset(
    {
        "shard_population",
        "active_user_streams",
        "cell_seeds",
        "has_sessions",
        "_proven_idle",
        "_rate_bounds",
        "_ziggurat_bounds",
        "_pcg64_seed",
        "_pcg64_advance",
        "_pcg64_output",
        "_contention_plan",
    }
)


def _is_kernel(name: str) -> bool:
    return (
        name.endswith("_rows")
        or name.endswith("_batch")
        or name == "receive_batch_grouped"
        or name in KERNEL_CLASSES
        or name in POPULATION_KERNELS
    )


def kernel_references(source: str) -> list:
    """Every kernel name ``source`` imports or reads as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [
                part for alias in node.names for part in alias.name.split(".")
            ]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found.extend(name for name in names if _is_kernel(name))
    return found


@pytest.mark.parametrize("oracle", ORACLES)
def test_oracle_imports_no_kernel(oracle):
    source = (Path(__file__).parent / oracle).read_text()
    assert kernel_references(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "from repro.modem.preamble import PreambleDetector, build_preamble",
        "from repro.modem.receiver import receive_batch_grouped as rx",
        "from repro.dsp.fftops import fft_interpolate_rows",
        "from repro.channel.noise import shaped_noise_batch",
        "import repro.channel.link as link\nlink.AcousticLink()",
        "import repro.modem.snr\nrepro.modem.snr.pilot_snr_db_rows(x, p)",
        "from repro.fleet.executor import shard_population",
        "from repro.eval.batch import cell_seeds as seeds",
        "import repro.fleet.population as p\np.has_sessions(c, a, b)",
        "from repro.fleet.population import active_user_streams as streams",
        "import repro.fleet.population as p\np._pcg64_seed(seeds)",
    ],
)
def test_kernel_references_are_caught(source):
    assert kernel_references(source)
