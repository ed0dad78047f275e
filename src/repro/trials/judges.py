"""Pluggable judges: score trial results against declared contracts.

Three judges ship in the registry:

``envelope``
    Tolerance bands and orderings over values extracted from the
    result document by ``/``-separated paths (dict keys and list
    indices; a ``*`` segment fans out over a list or over every value
    of a dict in sorted-key order, optionally collapsed by a
    ``reduce`` of ``min``/``max``/``mean``/``sum``/``len``).  Bands
    are inclusive: ``lo <= value <= hi``.  This is how the paper's
    figure shapes (Fig. 5/7/12, Table I/II) become executable claims.

``determinism``
    All digests at the given path must agree — the byte-identity
    contract for fleet aggregates across worker counts and staging
    levels.

``regression``
    Compares the *latest* point of the perf trajectory
    (``BENCH_trajectory.json``) against the prior point that carries
    the same metric, failing when the declared relative tolerance is
    exceeded in the bad direction.  This is the per-PR trend gate.

Every verdict carries a one-line rationale plus machine-readable
details, so the report generator can render both the ✅/❌ table and
the "why" section from the same objects.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError, WearLockError
from .config import TrialCell

__all__ = [
    "Verdict",
    "resolve_path",
    "EnvelopeJudge",
    "DeterminismJudge",
    "RegressionJudge",
    "JUDGE_REGISTRY",
    "judge_cell",
    "judge_document",
]


@dataclasses.dataclass(frozen=True)
class Verdict:
    """One judge's ruling on one cell."""

    cell_id: str
    judge: str
    passed: bool
    rationale: str
    details: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell_id": self.cell_id,
            "judge": self.judge,
            "passed": self.passed,
            "rationale": self.rationale,
            "details": dict(self.details),
        }


def resolve_path(root: Any, path: str) -> Any:
    """Extract a value by ``/``-separated path; ``*`` fans out.

    Raises :class:`WearLockError` on a missing key/index so judges
    can turn absent metrics into *failed* verdicts, not crashes.
    """
    segments = path.split("/")

    def walk(node: Any, i: int) -> Any:
        if i == len(segments):
            return node
        seg = segments[i]
        if seg == "*":
            if isinstance(node, list):
                values = node
            elif isinstance(node, dict):
                values = [node[k] for k in sorted(node)]
            else:
                raise WearLockError(
                    f"path {path!r}: '*' needs a list or dict, got "
                    f"{type(node).__name__}"
                )
            return [walk(v, i + 1) for v in values]
        if isinstance(node, dict):
            if seg not in node:
                raise WearLockError(f"path {path!r}: missing key {seg!r}")
            return walk(node[seg], i + 1)
        if isinstance(node, list):
            try:
                index = int(seg)
            except ValueError:
                raise WearLockError(
                    f"path {path!r}: {seg!r} is not a list index"
                )
            if not -len(node) <= index < len(node):
                raise WearLockError(
                    f"path {path!r}: index {index} out of range "
                    f"({len(node)} items)"
                )
            return walk(node[index], i + 1)
        raise WearLockError(
            f"path {path!r}: cannot descend into {type(node).__name__}"
        )

    return walk(root, 0)


def _flatten(value: Any) -> List[float]:
    if isinstance(value, list):
        out: List[float] = []
        for v in value:
            out.extend(_flatten(v))
        return out
    return [float(value)]


_REDUCERS = {
    "min": min,
    "max": max,
    "sum": sum,
    "mean": lambda xs: sum(xs) / len(xs),
    "len": len,
}


def _scalar(root: Any, path: str, reduce: Optional[str]) -> float:
    value = resolve_path(root, path)
    if reduce is not None:
        if reduce not in _REDUCERS:
            raise ConfigurationError(
                f"unknown reduce {reduce!r}; "
                f"choose from {sorted(_REDUCERS)}"
            )
        xs = _flatten(value)
        if not xs and reduce != "len":
            raise WearLockError(f"path {path!r}: nothing to {reduce}")
        return float(_REDUCERS[reduce](xs))
    if isinstance(value, list):
        raise WearLockError(
            f"path {path!r} yields a list; declare a 'reduce'"
        )
    return float(value)


class EnvelopeJudge:
    """Bands (``lo <= value <= hi``) and orderings (``a <= b``)."""

    name = "envelope"

    def judge(
        self,
        cell_id: str,
        result: Mapping[str, Any],
        params: Mapping[str, Any],
        context: Mapping[str, Any],
    ) -> Verdict:
        failures: List[str] = []
        checked: List[Dict[str, Any]] = []
        for check in params.get("checks", ()):  # type: Mapping[str, Any]
            path = check["path"]
            reduce = check.get("reduce")
            label = f"{reduce}({path})" if reduce else path
            try:
                value = _scalar(result, path, reduce)
            except WearLockError as exc:
                failures.append(str(exc))
                checked.append({"check": label, "error": str(exc)})
                continue
            lo = check.get("lo")
            hi = check.get("hi")
            ok = True
            if lo is not None and value < float(lo):
                ok = False
                failures.append(f"{label} = {value:.6g} < lo {lo}")
            if hi is not None and value > float(hi):
                ok = False
                failures.append(f"{label} = {value:.6g} > hi {hi}")
            checked.append(
                {"check": label, "value": value, "lo": lo, "hi": hi,
                 "passed": ok}
            )
        for pair in params.get("orderings", ()):
            a_path, b_path = pair
            try:
                a = _scalar(result, a_path, None)
                b = _scalar(result, b_path, None)
            except WearLockError as exc:
                failures.append(str(exc))
                checked.append({"check": f"{a_path} <= {b_path}",
                                "error": str(exc)})
                continue
            ok = a <= b
            if not ok:
                failures.append(
                    f"ordering violated: {a_path} = {a:.6g} > "
                    f"{b_path} = {b:.6g}"
                )
            checked.append(
                {"check": f"{a_path} <= {b_path}", "a": a, "b": b,
                 "passed": ok}
            )
        n = len(checked)
        if failures:
            rationale = f"{len(failures)}/{n} checks failed: " + \
                "; ".join(failures[:3])
        else:
            rationale = f"all {n} envelope checks inside their bands"
        return Verdict(
            cell_id=cell_id,
            judge=self.name,
            passed=not failures,
            rationale=rationale,
            details={"checks": checked},
        )


class DeterminismJudge:
    """All digests at ``params['path']`` must be equal."""

    name = "determinism"

    def judge(
        self,
        cell_id: str,
        result: Mapping[str, Any],
        params: Mapping[str, Any],
        context: Mapping[str, Any],
    ) -> Verdict:
        path = params.get("path", "metrics/digests")
        try:
            digests = resolve_path(result, path)
        except WearLockError as exc:
            return Verdict(cell_id, self.name, False, str(exc))
        if not isinstance(digests, list) or len(digests) < 2:
            return Verdict(
                cell_id,
                self.name,
                False,
                f"{path} must list >= 2 digests, got {digests!r}",
            )
        distinct = sorted(set(digests))
        if len(distinct) == 1:
            return Verdict(
                cell_id,
                self.name,
                True,
                f"{len(digests)} variants produced byte-identical "
                f"documents ({distinct[0][:12]}…)",
                details={"digest": distinct[0], "variants": len(digests)},
            )
        return Verdict(
            cell_id,
            self.name,
            False,
            f"{len(distinct)} distinct documents across {len(digests)} "
            "variants — determinism contract broken",
            details={"digests": digests},
        )


class RegressionJudge:
    """Latest trajectory point vs the prior-PR baseline, ± tolerance."""

    name = "regression"

    def judge(
        self,
        cell_id: str,
        result: Mapping[str, Any],
        params: Mapping[str, Any],
        context: Mapping[str, Any],
    ) -> Verdict:
        metric = params["metric"]
        tolerance = float(params.get("tolerance", 0.1))
        direction = params.get("direction", "higher")
        if direction not in ("higher", "lower"):
            raise ConfigurationError(
                f"direction must be 'higher' or 'lower', got {direction!r}"
            )
        trajectory = context.get("trajectory") or {}
        points = [
            p for p in trajectory.get("points", ())
            if metric in p.get("metrics", {})
        ]
        if not points:
            return Verdict(
                cell_id,
                self.name,
                False,
                f"trajectory has no points carrying {metric!r}",
            )
        if len(points) == 1:
            only = points[0]
            return Verdict(
                cell_id,
                self.name,
                True,
                f"{metric}: single point "
                f"{only['metrics'][metric]:.4g} ({only['label']}) — "
                "no baseline yet, nothing to regress against",
                details={"metric": metric, "points": 1},
            )
        baseline_pt, latest_pt = points[-2], points[-1]
        baseline = float(baseline_pt["metrics"][metric])
        latest = float(latest_pt["metrics"][metric])
        if direction == "higher":
            floor = baseline * (1.0 - tolerance)
            ok = latest >= floor
            bound_desc = f">= {floor:.4g}"
        else:
            ceil = baseline * (1.0 + tolerance)
            ok = latest <= ceil
            bound_desc = f"<= {ceil:.4g}"
        delta = (latest - baseline) / baseline if baseline else 0.0
        rationale = (
            f"{metric}: {latest:.4g} ({latest_pt['label']}) vs baseline "
            f"{baseline:.4g} ({baseline_pt['label']}), change "
            f"{delta:+.1%}; bound {bound_desc} "
            f"({'held' if ok else 'VIOLATED'})"
        )
        return Verdict(
            cell_id,
            self.name,
            ok,
            rationale,
            details={
                "metric": metric,
                "baseline": baseline,
                "latest": latest,
                "change": delta,
                "tolerance": tolerance,
                "direction": direction,
            },
        )


JUDGE_REGISTRY = {
    EnvelopeJudge.name: EnvelopeJudge(),
    DeterminismJudge.name: DeterminismJudge(),
    RegressionJudge.name: RegressionJudge(),
}


def judge_cell(
    cell: TrialCell,
    result: Mapping[str, Any],
    context: Mapping[str, Any],
) -> List[Verdict]:
    """Apply every judge a cell declares to its result."""
    verdicts = []
    for spec in cell.judges:
        if spec.judge not in JUDGE_REGISTRY:
            raise ConfigurationError(
                f"cell {cell.cell_id!r} names unknown judge "
                f"{spec.judge!r}; known: {sorted(JUDGE_REGISTRY)}"
            )
        judge = JUDGE_REGISTRY[spec.judge]
        verdicts.append(
            judge.judge(cell.cell_id, result, spec.params, context)
        )
    return verdicts


def judge_document(
    results_doc: Mapping[str, Any],
    cells: Sequence[TrialCell],
    trajectory: Optional[Mapping[str, Any]] = None,
) -> Tuple[List[Verdict], bool]:
    """Judge every cell present in a results document.

    Returns the verdict list (cell order) and an all-passed flag.
    Cells in the document with no matching spec are skipped; cells in
    ``cells`` missing from the document get a failed verdict — a tier
    run that silently dropped a cell must not pass.
    """
    context = {"trajectory": trajectory or {}}
    results = results_doc.get("results", {})
    verdicts: List[Verdict] = []
    for cell in cells:
        if cell.cell_id not in results:
            verdicts.append(
                Verdict(
                    cell.cell_id,
                    "missing",
                    False,
                    "cell missing from the results document",
                )
            )
            continue
        verdicts.extend(judge_cell(cell, results[cell.cell_id], context))
    return verdicts, all(v.passed for v in verdicts)
