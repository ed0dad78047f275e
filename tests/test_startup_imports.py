"""Fleet start-up loads only the code a fleet run executes.

Package ``__init__``s re-export lazily (PEP 562, through
``repro._lazy_exports``), so ``from repro.fleet import FleetScheduler``
does not compile the experiment harness, the attack models, the report
renderer, the resampler or the WAV and bit-pattern helpers.  Each check
here runs in a fresh interpreter: the test process itself has long
since imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules that no fleet run executes at any staging level.
FLEET_UNUSED = (
    "repro.core.metrics",
    "repro.core.system",
    "repro.dsp.resample",
    "repro.eval.experiments",
    "repro.eval.pin_entry",
    "repro.eval.reporting",
    "repro.eval.workloads",
    "repro.fleet.report",
    "repro.modem.bits",
    "repro.modem.wavio",
    "repro.offload.executor",
    "repro.security.attacks",
    "repro.security.fingerprint",
    "repro.security.timing",
)

#: Packages whose ``__init__`` re-exports lazily: all but
#: ``repro.verifiers``, whose registry holds every verifier class.
LAZY_PACKAGES = (
    "repro",
    "repro.channel",
    "repro.core",
    "repro.devices",
    "repro.dsp",
    "repro.eval",
    "repro.faults",
    "repro.fleet",
    "repro.modem",
    "repro.offload",
    "repro.protocol",
    "repro.security",
    "repro.sensors",
    "repro.trials",
    "repro.wireless",
)


def run_snippet(code: str) -> object:
    """Run ``code`` in a fresh interpreter; return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_fleet_import_skips_unused_modules():
    loaded = run_snippet(
        """
        import json, sys
        from repro.fleet import FleetScheduler
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
        """
    )
    assert "repro.fleet.scheduler" in loaded
    assert not set(FLEET_UNUSED) & set(loaded)


@pytest.mark.parametrize("staging", ["none", "otp"])
def test_fleet_run_imports_nothing_after_setup(staging):
    late = run_snippet(
        f"""
        import json, sys
        from repro.fleet import FleetConfig, FleetScheduler

        config = FleetConfig(
            n_users=12,
            hours=24.0,
            seed=3,
            fusion_mix="score",
            scene_density=60.0,
            faults="burst_noise@otp-tx:p=0.3,severity=2;msg_drop@otp-tx:p=0.2",
        )
        scheduler = FleetScheduler(
            config, workers=1, shard_users=5, staging={staging!r}
        )
        before = set(sys.modules)
        result = scheduler.run()
        assert result.sessions > 0
        print(json.dumps({{
            "late": sorted(
                m for m in set(sys.modules) - before if m.startswith("repro")
            ),
            # np.median's NaN check imports numpy.ma; detection has none.
            "numpy.ma": "numpy.ma" in sys.modules,
        }}))
        """
    )
    assert late == {"late": [], "numpy.ma": False}


def test_cli_help_does_not_import_numpy():
    loaded = run_snippet(
        """
        import contextlib, io, json, runpy, sys
        sys.argv = ["repro", "--help"]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                runpy.run_module("repro", run_name="__main__", alter_sys=True)
            except SystemExit:
                pass
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert "repro.cli" in loaded
    assert "numpy" not in loaded


def test_hotp_is_the_function_after_its_submodule_loads():
    result = run_snippet(
        """
        import json
        import repro.security.otp
        import repro.security
        print(json.dumps([
            callable(repro.security.hotp),
            repro.security.hotp(b"12345678901234567890", 0),
        ]))
        """
    )
    assert result == [True, 1284755224]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in dir(module)
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")
