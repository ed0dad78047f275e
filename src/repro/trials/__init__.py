"""Trial harness: scenario matrices, paper-figure judges, trend CI.

The package that keeps the repo's quantitative claims honest.  A
declarative matrix (:mod:`~repro.trials.config`) names workload cells
in three cumulative tiers (``smoke`` / ``nightly`` / ``full-fleet``);
the runner (:mod:`~repro.trials.runner`) executes them through the
existing :class:`~repro.eval.batch.BatchRunner` experiments and
:class:`~repro.fleet.scheduler.FleetScheduler`; judges
(:mod:`~repro.trials.judges`) score the results against paper-figure
envelopes, byte-identity determinism contracts, and the per-PR perf
trajectory (:mod:`~repro.trials.trajectory`); and the report layer
(:mod:`~repro.trials.report`) regenerates ``docs/TRIALS_REPORT.md``,
``docs/CLAIMS.md``, and the EXPERIMENTS.md claim table from measured
truth.  CLI: ``python -m repro trials run/judge/report/trajectory``.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "MATRIX_SEED": (".config", "MATRIX_SEED"),
        "TIERS": (".config", "TIERS"),
        "TRIAL_MATRIX": (".config", "TRIAL_MATRIX"),
        "JudgeSpec": (".config", "JudgeSpec"),
        "TrialCell": (".config", "TrialCell"),
        "cell_by_id": (".config", "cell_by_id"),
        "cells_for_tier": (".config", "cells_for_tier"),
        "load_matrix_toml": (".config", "load_matrix_toml"),
        "JUDGE_REGISTRY": (".judges", "JUDGE_REGISTRY"),
        "DeterminismJudge": (".judges", "DeterminismJudge"),
        "EnvelopeJudge": (".judges", "EnvelopeJudge"),
        "RegressionJudge": (".judges", "RegressionJudge"),
        "Verdict": (".judges", "Verdict"),
        "judge_cell": (".judges", "judge_cell"),
        "judge_document": (".judges", "judge_document"),
        "resolve_path": (".judges", "resolve_path"),
        "TrialResult": (".runner", "TrialResult"),
        "canonical_json": (".runner", "canonical_json"),
        "load_results": (".runner", "load_results"),
        "run_cell": (".runner", "run_cell"),
        "run_tier": (".runner", "run_tier"),
        "save_results": (".runner", "save_results"),
        "append_point": (".trajectory", "append_point"),
        "load_trajectory": (".trajectory", "load_trajectory"),
        "metric_series": (".trajectory", "metric_series"),
        "point_from_benches": (".trajectory", "point_from_benches"),
        "save_trajectory": (".trajectory", "save_trajectory"),
        "sparkline": (".trajectory", "sparkline"),
    },
)
