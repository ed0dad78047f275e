"""Benchmark: vectorized signal-plane modem vs the sequential reference.

Runs a Fig. 5-style sweep (modulation × noise level, ~100 cells) twice
over identical pre-generated recordings:

* **baseline** — the pre-refactor implementation preserved verbatim in
  the test oracle ``tests/modem_oracle.py``: per-call template
  construction, per-symbol modulate/demodulate loops;
* **vectorized** — the shared :class:`~repro.modem.context.SignalPlane`
  plus the batched transmit/receive paths.

Recordings are generated *outside* the timed region, both passes must
produce bit-identical payloads, and the result lands in
``BENCH_signal_plane.json`` next to the repo root.

Usage::

    python benchmarks/bench_signal_plane.py           # full ~100-cell sweep
    python benchmarks/bench_signal_plane.py --quick   # 4-cell CI smoke

``--quick`` exits non-zero if the signal-plane cache reports zero reuse
across the sweep — the regression the CI job guards against.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))  # for the oracle in tests/

from repro.channel.link import AcousticLink  # noqa: E402
from repro.channel.scenarios import get_environment  # noqa: E402
from repro.config import ModemConfig  # noqa: E402
from repro.errors import WearLockError  # noqa: E402
from repro.dsp.plane import all_cache_stats  # noqa: E402
from repro.eval.batch import cell_seed  # noqa: E402
from repro.modem import (  # noqa: E402
    OfdmReceiver,
    OfdmTransmitter,
    get_constellation,
    signal_plane,
)
from repro.modem.bits import random_bits  # noqa: E402
from repro.modem.context import (  # noqa: E402
    clear_plane_cache,
    plane_cache_stats,
)
from tests.modem_oracle import (  # noqa: E402
    reference_modulate,
    reference_receive,
)

N_BITS = 240
FULL_MODES = ("BASK", "QASK", "BPSK", "QPSK", "8PSK", "16QAM")
FULL_SPLS = tuple(62.0 + 1.0 * i for i in range(17))  # 17 levels
QUICK_MODES = ("QPSK", "8PSK")
QUICK_SPLS = (70.0, 76.0)


def build_cells(quick: bool):
    """The sweep grid plus pre-generated recordings (untimed)."""
    config = ModemConfig()
    env = get_environment("quiet_room")
    modes = QUICK_MODES if quick else FULL_MODES
    spls = QUICK_SPLS if quick else FULL_SPLS
    cells = []
    for mode in modes:
        constellation = get_constellation(mode)
        for tx_spl in spls:
            seed = cell_seed(0, mode, tx_spl)
            bits = random_bits(N_BITS, rng=np.random.default_rng(seed))
            waveform = reference_modulate(
                config, constellation, bits
            ).waveform
            link = AcousticLink(
                room=env.room, noise=env.noise, distance_m=0.3, seed=seed
            )
            recording, _ = link.transmit(
                waveform, tx_spl=tx_spl, rng=np.random.default_rng(seed)
            )
            cells.append(
                {
                    "mode": mode,
                    "tx_spl": tx_spl,
                    "bits": bits,
                    "recording": recording,
                }
            )
    return config, cells


def run_baseline(config, cells):
    out = []
    start = time.perf_counter()
    for cell in cells:
        constellation = get_constellation(cell["mode"])
        tx = reference_modulate(config, constellation, cell["bits"])
        try:
            rx = reference_receive(
                config, constellation, cell["recording"], N_BITS
            )
            out.append((tx.waveform, rx.bits, rx.psnr_db))
        except WearLockError:
            out.append((tx.waveform, None, None))
    return time.perf_counter() - start, out


def run_vectorized(config, cells):
    out = []
    start = time.perf_counter()
    for cell in cells:
        constellation = get_constellation(cell["mode"])
        plane = signal_plane(config, None, constellation)
        tx = OfdmTransmitter(plane=plane).modulate(cell["bits"])
        try:
            rx = OfdmReceiver(plane=plane).receive(
                cell["recording"], expected_bits=N_BITS
            )
            out.append((tx.waveform, rx.bits, rx.psnr_db))
        except WearLockError:
            out.append((tx.waveform, None, None))
    return time.perf_counter() - start, out


def results_identical(a, b) -> bool:
    if len(a) != len(b):
        return False
    for (wave_a, bits_a, psnr_a), (wave_b, bits_b, psnr_b) in zip(a, b):
        if not np.array_equal(wave_a, wave_b):
            return False
        if (bits_a is None) != (bits_b is None):
            return False
        if bits_a is not None and not np.array_equal(bits_a, bits_b):
            return False
        if psnr_a != psnr_b:
            return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="4-cell smoke run (CI); fails on zero plane-cache reuse",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repetitions per pass; best time is reported "
        "(default 3, forced to 1 with --quick)",
    )
    parser.add_argument(
        "--output",
        default=str(ROOT / "BENCH_signal_plane.json"),
    )
    args = parser.parse_args(argv)

    repeats = 1 if args.quick else max(1, args.repeats)
    config, cells = build_cells(args.quick)
    print(
        f"sweep: {len(cells)} cells "
        f"({'quick' if args.quick else 'full'}, best of {repeats})"
    )

    baseline_s = float("inf")
    for _ in range(repeats):
        elapsed, baseline_out = run_baseline(config, cells)
        baseline_s = min(baseline_s, elapsed)
    print(f"baseline:   {baseline_s:.3f}s "
          f"({len(cells) / baseline_s:.1f} cells/s)")

    clear_plane_cache()
    before = plane_cache_stats()
    vectorized_s = float("inf")
    for _ in range(repeats):
        elapsed, vectorized_out = run_vectorized(config, cells)
        vectorized_s = min(vectorized_s, elapsed)
    after = plane_cache_stats()
    print(f"vectorized: {vectorized_s:.3f}s "
          f"({len(cells) / vectorized_s:.1f} cells/s)")

    identical = results_identical(baseline_out, vectorized_out)
    speedup = baseline_s / vectorized_s if vectorized_s > 0 else float("inf")
    cache_hits = after.hits - before.hits
    cache_misses = after.misses - before.misses
    print(f"speedup: {speedup:.2f}x  bit-identical: {identical}  "
          f"plane cache: {cache_hits} hits / {cache_misses} misses")

    payload = {
        "quick": args.quick,
        "repeats": repeats,
        "cells": len(cells),
        "n_bits_per_cell": N_BITS,
        "baseline_seconds": baseline_s,
        "vectorized_seconds": vectorized_s,
        "baseline_cells_per_s": len(cells) / baseline_s,
        "vectorized_cells_per_s": len(cells) / vectorized_s,
        "speedup": speedup,
        "bit_identical": identical,
        "plane_cache": {"hits": cache_hits, "misses": cache_misses},
        "all_caches": {
            name: {
                "hits": s.hits,
                "misses": s.misses,
                "size": s.size,
            }
            for name, s in all_cache_stats().items()
        },
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not identical:
        print("FAIL: passes disagree bit-for-bit", file=sys.stderr)
        return 1
    if args.quick and cache_hits == 0:
        print(
            "FAIL: signal-plane cache saw zero reuse across the sweep",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
