"""Declarative trial-matrix specs: tiers, cells, judges, tolerances.

A *trial cell* names one workload (a registered experiment, a fleet
day, a fleet determinism comparison, or the perf trajectory), the
parameters it runs with, and the judges that score its result.  The
matrix is data, not code: the runner executes cells, the judges read
their declared tolerances from here, and the report generator renders
the same specs into EXPERIMENTS.md — so the claim table, the CI gate,
and the execution all share one source of truth.

Tiers are cumulative: ``smoke`` ⊂ ``nightly`` ⊂ ``full-fleet``.  A
cell's ``tier`` is the *cheapest* tier that runs it.

Seeds: a cell may pin an explicit integer seed, inherit the workload's
default (paper-figure cells do, so trial results match the committed
EXPERIMENTS.md numbers), or declare ``"derive"`` to get a SHA-256
seed folded from ``MATRIX_SEED`` and the cell id via
:func:`repro.eval.batch.cell_seed` — stable across processes and
Python versions.

Matrices can also be loaded from TOML (same field names) via
:func:`load_matrix_toml`, for out-of-tree scenario packs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Tuple

from ..errors import ConfigurationError

__all__ = [
    "TIERS",
    "MATRIX_SEED",
    "JudgeSpec",
    "TrialCell",
    "TRIAL_MATRIX",
    "cells_for_tier",
    "cell_by_id",
    "load_matrix_toml",
]

#: Tier names, cheapest first.  Each tier includes every cell of the
#: tiers before it.
TIERS: Tuple[str, ...] = ("smoke", "nightly", "full-fleet")

#: Sweep seed folded (with the cell id) into every ``"derive"`` seed.
MATRIX_SEED = 9

#: Workload kinds the runner knows how to execute.
WORKLOADS: Tuple[str, ...] = (
    "experiment",
    "fleet",
    "fleet-determinism",
    "trajectory",
)


@dataclass(frozen=True)
class JudgeSpec:
    """One judge attached to a cell: registry name + its parameters.

    ``params`` is judge-specific — envelope bands, determinism paths,
    or regression tolerances; see :mod:`repro.trials.judges`.
    """

    judge: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def tolerance_summary(self) -> str:
        """One-phrase tolerance description for doc tables."""
        if self.judge == "envelope":
            checks = list(self.params.get("checks", ()))
            orderings = list(self.params.get("orderings", ()))
            parts = []
            if checks:
                parts.append(f"{len(checks)} band{'s'[:len(checks) != 1]}")
            if orderings:
                parts.append(
                    f"{len(orderings)} ordering{'s'[:len(orderings) != 1]}"
                )
            return ", ".join(parts) or "no checks"
        if self.judge == "determinism":
            return "byte-identical digests"
        if self.judge == "regression":
            tol = float(self.params.get("tolerance", 0.0))
            return f"{self.params.get('metric')} within {tol:.0%}"
        return "-"


@dataclass(frozen=True)
class TrialCell:
    """One cell of the matrix: workload + params + judges + tier."""

    cell_id: str
    tier: str
    workload: str
    params: Mapping[str, Any]
    judges: Tuple[JudgeSpec, ...]
    describes: str = ""
    #: Paper artifact this cell reproduces ("Fig. 5", "Table I", or
    #: "" for contracts that are ours, not the paper's).
    artifact: str = ""

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ConfigurationError(
                f"cell {self.cell_id!r}: tier must be one of {TIERS}, "
                f"got {self.tier!r}"
            )
        if self.workload not in WORKLOADS:
            raise ConfigurationError(
                f"cell {self.cell_id!r}: workload must be one of "
                f"{WORKLOADS}, got {self.workload!r}"
            )
        if not self.judges:
            raise ConfigurationError(
                f"cell {self.cell_id!r} declares no judges"
            )

    def command(self) -> str:
        """The CLI line that re-runs exactly this cell."""
        return (
            f"python -m repro trials run --tier {self.tier} "
            f"--cell {self.cell_id}"
        )


def _envelope(**params: Any) -> JudgeSpec:
    return JudgeSpec("envelope", params)


def _regression(metric: str, tolerance: float,
                direction: str = "higher") -> JudgeSpec:
    return JudgeSpec(
        "regression",
        {"metric": metric, "tolerance": tolerance, "direction": direction},
    )


#: The full trial matrix.  Envelope bands are *regime* bands — wide
#: enough to absorb simulator noise across platforms, tight enough
#: that a broken channel model, modem, or scheduler lands outside
#: them.  Paper-figure cells keep the experiments' default seeds so
#: their payloads match the prose in EXPERIMENTS.md byte for byte.
TRIAL_MATRIX: Tuple[TrialCell, ...] = (
    # ------------------------------------------------ smoke tier
    TrialCell(
        cell_id="paper/fig5-ber",
        tier="smoke",
        workload="experiment",
        params={"name": "fig5_ber_vs_ebn0"},
        judges=(
            _envelope(
                checks=[
                    # QPSK needs ~7 dB/bit at MaxBER 0.1 (fitted model).
                    {"path": "payload/min_ebn0_at_maxber_0.1/QPSK",
                     "lo": 5.0, "hi": 9.5},
                    # 16QAM floors — "unusable without heavy FEC".
                    {"path": "payload/measured/16QAM/4/1", "lo": 0.02},
                    # BPSK is clean at high Eb/N0.
                    {"path": "payload/measured/BPSK/4/1", "hi": 0.005},
                ],
                orderings=[
                    # BER falls with Eb/N0 (last point <= first point).
                    ["payload/measured/QPSK/4/1",
                     "payload/measured/QPSK/0/1"],
                    ["payload/measured/8PSK/4/1",
                     "payload/measured/8PSK/0/1"],
                    # Phase modes are SNR-cheaper than amplitude modes
                    # here (the documented ASK delta vs the paper).
                    ["payload/min_ebn0_at_maxber_0.1/QPSK",
                     "payload/min_ebn0_at_maxber_0.1/QASK"],
                ],
            ),
        ),
        describes="BER falls with Eb/N0; 16QAM floors; QPSK ~7 dB",
        artifact="Fig. 5",
    ),
    TrialCell(
        cell_id="paper/fig12-delay",
        tier="smoke",
        workload="experiment",
        params={"name": "fig12_total_delay"},
        judges=(
            _envelope(
                checks=[
                    # Every config beats the 4-digit PIN by at least
                    # the paper's worst-case 17.7% margin.
                    {"path": "payload/speedup_vs_pin4/*", "reduce": "min",
                     "lo": 0.177},
                    {"path": "payload/speedup_vs_pin4/"
                             "Config1 (WiFi + Nexus 6)",
                     "lo": 0.45, "hi": 0.85},
                    # All 8/8 sessions unlock in each config.
                    {"path": "payload/wearlock/*/success", "reduce": "min",
                     "lo": 8},
                ],
                orderings=[
                    # Paper's config ordering: WiFi+Nexus6 fastest,
                    # BT+GalaxyNexus slowest.
                    ["payload/wearlock/Config1 (WiFi + Nexus 6)/median_s",
                     "payload/wearlock/Config3 (local on Moto 360)/"
                     "median_s"],
                    ["payload/wearlock/Config3 (local on Moto 360)/"
                     "median_s",
                     "payload/wearlock/Config2 (BT + Galaxy Nexus)/"
                     "median_s"],
                    ["payload/wearlock/Config2 (BT + Galaxy Nexus)/"
                     "median_s",
                     "payload/pin/4-digit PIN/median_s"],
                ],
            ),
        ),
        describes="all configs beat the PIN; WiFi fastest, BT slowest",
        artifact="Fig. 12",
    ),
    TrialCell(
        cell_id="paper/table1-field",
        tier="smoke",
        workload="experiment",
        params={"name": "table1_field_test"},
        judges=(
            _envelope(
                checks=[
                    # The paper's ~8% regime; ours measures ~12%.
                    {"path": "payload/average_ber", "lo": 0.06, "hi": 0.16},
                    # Near-ultrasound different-hand office is clean.
                    {"path": "payload/cells/8/ber", "hi": 0.06},
                ],
                orderings=[
                    # Ultrasound diff-hand beats audible same-hand in
                    # the loudest scene (row/column ordering claim).
                    ["payload/cells/8/ber", "payload/cells/7/ber"],
                    ["payload/cells/11/ber", "payload/cells/15/ber"],
                ],
            ),
        ),
        describes="field-test BER in the paper's regime; orderings hold",
        artifact="Table I",
    ),
    TrialCell(
        cell_id="paper/table2-dtw",
        tier="smoke",
        workload="experiment",
        # python_cost_ms is measured host time — scrubbed so the
        # results document stays byte-identical across runs.
        params={"name": "table2_dtw", "scrub": ["python_cost_ms"]},
        judges=(
            _envelope(
                checks=[
                    {"path": "payload/scores/sitting", "hi": 0.1},
                    {"path": "payload/scores/walking", "hi": 0.1},
                    {"path": "payload/scores/jogging", "hi": 0.1},
                    {"path": "payload/scores/different", "lo": 0.12},
                    {"path": "payload/modeled_watch_cost_ms", "hi": 50.0},
                ],
                orderings=[
                    ["payload/scores/sitting", "payload/scores/different"],
                    ["payload/scores/walking", "payload/scores/different"],
                ],
            ),
        ),
        describes="co-located DTW below threshold, stranger above; cheap",
        artifact="Table II",
    ),
    TrialCell(
        cell_id="fleet/smoke-determinism",
        tier="smoke",
        workload="fleet-determinism",
        params={
            "users": 20,
            "hours": 24.0,
            "seed": "derive",
            "variants": [
                {"workers": 1, "staging": "otp"},
                {"workers": 2, "staging": "otp"},
                {"workers": 1, "staging": "none"},
            ],
        },
        judges=(
            JudgeSpec("determinism", {"path": "metrics/digests"}),
            _envelope(checks=[{"path": "metrics/sessions", "lo": 1}]),
        ),
        describes="aggregate byte-identical across workers and staging",
    ),
    TrialCell(
        cell_id="fleet/contention-smoke",
        tier="smoke",
        workload="fleet-determinism",
        params={
            "users": 40,
            "hours": 24.0,
            "seed": "derive",
            "sessions_per_day": 12.0,
            "scene_density": 24.0,
            "variants": [
                {"workers": 1, "staging": "otp"},
                {"workers": 2, "staging": "otp"},
                {"workers": 1, "staging": "none"},
            ],
        },
        judges=(
            JudgeSpec("determinism", {"path": "metrics/digests"}),
            _envelope(
                checks=[
                    # The CSMA kernel must actually engage: a packed
                    # 40-user day has to produce carrier-sense backoffs.
                    {"path": "metrics/backoffs", "lo": 1},
                    {"path": "metrics/sessions", "lo": 1},
                ],
            ),
        ),
        describes="contended day byte-identical across workers/staging",
    ),
    TrialCell(
        cell_id="perf/trend-gate",
        tier="smoke",
        workload="trajectory",
        params={},
        judges=(
            _regression("fleet_speedup_algorithmic", 0.15),
            _regression("signal_plane_speedup", 0.15),
            _regression("fleet_speedup_total", 0.15),
        ),
        describes="per-PR perf trajectory must not regress > 15%",
    ),
    # ------------------------------------------------ nightly tier
    TrialCell(
        cell_id="paper/fig4-propagation",
        tier="nightly",
        workload="experiment",
        params={"name": "fig4_propagation"},
        judges=(
            _envelope(
                checks=[
                    # Spherical spreading: ~6 dB per doubling.
                    {"path": "payload/loss_per_doubling_db",
                     "lo": 5.4, "hi": 6.6},
                    {"path": "payload/noise_spl", "lo": 15.0, "hi": 20.0},
                ],
            ),
        ),
        describes="6 dB per distance doubling; 18 dB quiet room",
        artifact="Fig. 4",
    ),
    TrialCell(
        cell_id="paper/fig6-offload",
        tier="nightly",
        workload="experiment",
        params={"name": "fig6_offload"},
        judges=(
            _envelope(
                orderings=[
                    # Offload saves watch energy; WiFi saves time too.
                    ["payload/results/offload (BT -> phone)/"
                     "watch_energy_j",
                     "payload/results/local (Moto 360)/watch_energy_j"],
                    ["payload/results/offload (WiFi -> phone)/"
                     "median_delay_s",
                     "payload/results/local (Moto 360)/median_delay_s"],
                ],
            ),
        ),
        describes="offload beats local on energy; WiFi on time too",
        artifact="Fig. 6",
    ),
    TrialCell(
        cell_id="paper/fig7-range",
        tier="nightly",
        workload="experiment",
        params={"name": "fig7_range"},
        judges=(
            _envelope(
                checks=[
                    # In the 1 m budget QPSK stays usable...
                    {"path": "payload/curves/QPSK/3/1", "hi": 0.05},
                    # ...and fades hard past it.
                    {"path": "payload/curves/QPSK/6/1", "lo": 0.15},
                ],
                orderings=[
                    # The fragile mode (QASK) degrades fastest.
                    ["payload/curves/QPSK/6/1", "payload/curves/QASK/6/1"],
                ],
            ),
        ),
        describes="low BER inside the volume budget, cliff beyond",
        artifact="Fig. 7",
    ),
    TrialCell(
        cell_id="paper/fig8-adaptive",
        tier="nightly",
        workload="experiment",
        params={"name": "fig8_adaptive"},
        judges=(
            _envelope(
                checks=[
                    # MaxBER 0.1 rows stay under their constraint...
                    {"path": "payload/rows/*/mean_ber", "reduce": "max",
                     "hi": 0.1},
                ],
            ),
        ),
        describes="selection honors MaxBER; 8PSK at 0.1, QPSK at 0.01",
        artifact="Fig. 8",
    ),
    TrialCell(
        cell_id="paper/case-study",
        tier="nightly",
        workload="experiment",
        params={"name": "case_study"},
        judges=(
            _envelope(
                checks=[
                    {"path": "payload/average_success_rate",
                     "lo": 0.7, "hi": 1.0},
                    # The NLOS detector flags blocked same-hand grips.
                    {"path": "payload/personas/same_hand/nlos_flagged",
                     "lo": 1},
                ],
                orderings=[
                    ["payload/personas/tight_grip/success_at_0.1",
                     "payload/personas/relaxed_grip/success_at_0.1"],
                ],
            ),
        ),
        describes="per-persona pattern incl. NLOS-corrected same hand",
        artifact="§VI case study",
    ),
    TrialCell(
        cell_id="protocol/recovery-grid",
        tier="nightly",
        workload="experiment",
        params={"name": "recovery_rate"},
        judges=(
            _envelope(
                checks=[
                    {"path": "payload/rows/*/unlock_rate", "reduce": "mean",
                     "lo": 0.75},
                    # The OTP-phase burst is the canonical recoverable
                    # fault (row 1: burst_noise@otp-tx).
                    {"path": "payload/rows/1/recovery_rate", "lo": 0.99},
                ],
            ),
        ),
        describes="OTP-phase faults recover; probe-phase aborts clean",
    ),
    TrialCell(
        cell_id="security/attack-matrix",
        tier="nightly",
        workload="experiment",
        params={"name": "security_matrix"},
        judges=(
            _envelope(
                checks=[
                    {"path": "payload/brute_force/success", "hi": 0},
                    {"path": "payload/record_replay/success", "hi": 0},
                    {"path": "payload/co_located_1.5m/success", "hi": 0},
                    {"path": "payload/relay_with_fingerprint/success",
                     "hi": 0},
                    # The paper's admitted open problem stays open.
                    {"path": "payload/relay_no_fingerprint/success",
                     "lo": 6},
                ],
            ),
        ),
        describes="§IV threat matrix: every defended attack blocked",
    ),
    TrialCell(
        cell_id="security/verifier-fusion",
        tier="nightly",
        workload="experiment",
        params={"name": "verifier_fusion_matrix"},
        judges=(
            _envelope(
                checks=[
                    # Legitimate sessions always pass AND fusion...
                    {"path": "payload/*/legitimate/fusion/and",
                     "reduce": "min", "lo": 1.0},
                    # ...and attackers rarely do.
                    {"path": "payload/*/replay/fusion/and",
                     "reduce": "max", "hi": 0.1},
                    {"path": "payload/*/co_located/fusion/and",
                     "reduce": "max", "hi": 0.2},
                ],
            ),
        ),
        describes="AND fusion: legitimate pass, attackers rejected",
    ),
    TrialCell(
        cell_id="fleet/day-200u",
        tier="nightly",
        workload="fleet",
        params={"users": 200, "hours": 24.0, "seed": "derive",
                "staging": "otp", "workers": 1},
        judges=(
            _envelope(
                checks=[
                    {"path": "metrics/sessions", "lo": 400},
                    {"path": "metrics/success_rate", "lo": 0.5, "hi": 0.95},
                    {"path": "metrics/stranger_unlocked", "hi": 0},
                ],
            ),
        ),
        describes="200-user day lands in the healthy operating band",
    ),
    # ------------------------------------------------ full-fleet tier
    TrialCell(
        cell_id="fleet/day-1000u",
        tier="full-fleet",
        workload="fleet",
        params={"users": 1000, "hours": 24.0, "seed": 0,
                "staging": "otp", "workers": 1, "shard_users": 200},
        judges=(
            _envelope(
                checks=[
                    # The BENCH_fleet.json day: 3975 sessions at seed 0.
                    {"path": "metrics/sessions", "lo": 3500, "hi": 4500},
                    {"path": "metrics/success_rate", "lo": 0.5, "hi": 0.95},
                    {"path": "metrics/stranger_unlocked", "hi": 0},
                ],
            ),
        ),
        describes="the benchmark 1000-user day at full OTP staging",
    ),
    TrialCell(
        cell_id="fleet/full-determinism",
        tier="full-fleet",
        workload="fleet-determinism",
        params={
            "users": 200,
            "hours": 24.0,
            "seed": "derive",
            "variants": [
                {"workers": 1, "staging": "otp"},
                {"workers": 4, "staging": "otp"},
                {"workers": 1, "staging": "none"},
            ],
        },
        judges=(
            JudgeSpec("determinism", {"path": "metrics/digests"}),
        ),
        describes="200-user day identical across workers and staging",
    ),
)


def cells_for_tier(tier: str) -> Tuple[TrialCell, ...]:
    """Every cell the given tier runs (tiers are cumulative)."""
    if tier not in TIERS:
        raise ConfigurationError(
            f"tier must be one of {TIERS}, got {tier!r}"
        )
    rank = TIERS.index(tier)
    return tuple(
        c for c in TRIAL_MATRIX if TIERS.index(c.tier) <= rank
    )


def cell_by_id(cell_id: str) -> TrialCell:
    """Look a cell up by id; raises on unknown ids."""
    for cell in TRIAL_MATRIX:
        if cell.cell_id == cell_id:
            return cell
    known = ", ".join(c.cell_id for c in TRIAL_MATRIX)
    raise ConfigurationError(
        f"unknown trial cell {cell_id!r}; known cells: {known}"
    )


def load_matrix_toml(path) -> Tuple[TrialCell, ...]:
    """Load a trial matrix from a TOML scenario pack.

    The file carries ``[[cell]]`` tables mirroring :class:`TrialCell`
    fields; judges are ``[[cell.judge]]`` sub-tables with ``judge``
    and ``params`` keys.  Validation is the dataclasses' own.
    """
    import tomllib

    raw = tomllib.loads(Path(path).read_text())
    cells = []
    for entry in raw.get("cell", []):
        judges = tuple(
            JudgeSpec(j["judge"], j.get("params", {}))
            for j in entry.get("judge", [])
        )
        cells.append(
            TrialCell(
                cell_id=entry["cell_id"],
                tier=entry.get("tier", "smoke"),
                workload=entry["workload"],
                params=entry.get("params", {}),
                judges=judges,
                describes=entry.get("describes", ""),
                artifact=entry.get("artifact", ""),
            )
        )
    return tuple(cells)
