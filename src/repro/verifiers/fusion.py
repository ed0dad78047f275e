"""Fusion policies: how multiple verifier verdicts become one decision.

Three modes, selected per session via ``SessionConfig.fusion``:

``and``
    Every evaluated verifier must pass; the first rejection
    short-circuits (later verifiers never run: the paper's cheap gates
    save the computation behind them).  The default — and
    bit-identical to the pre-refactor prefilter for the legacy
    ambient + motion-DTW pair.
``or``
    Any evaluated verifier passing is enough.  Availability-biased:
    useful for archetypes whose dominant verifier is often gated off
    (quiet rooms silence the ambient channel).
``score`` / ``score:T``
    The mean of the evaluated verifiers' normalized scores must reach
    threshold ``T`` (default 0.5).  Soft evidence combination: a
    marginal fail on one channel is rescued by strong agreement on the
    others, and vice versa.

Skipped verifiers (feature gated off, scene too quiet) are neutral in
every mode — they neither pass nor veto — matching the legacy gates'
"pass, no score" behaviour.  A ``link_failed`` result fails the fused
decision closed in *every* mode: proximity can't be vouched for over a
dead wireless link, no matter how permissive the policy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Sequence, Tuple

from ..errors import WearLockError
from .base import VerifierResult

__all__ = ["FusionPolicy", "FusedDecision", "FUSION_MODES"]

FUSION_MODES = ("and", "or", "score")


@dataclass(frozen=True)
class FusedDecision:
    """The fused verdict plus everything needed to report on it."""

    passed: bool
    #: Stage abort reason when ``passed`` is False (``None`` otherwise).
    abort_reason: Optional[str] = None
    #: The score behind the rejection (native scale for AND — the
    #: legacy abort detail — combined scale for OR / score fusion).
    detail: Optional[float] = None
    link_failed: bool = False
    #: Mean normalized score over evaluated verifiers (score mode);
    #: ``None`` when nothing was evaluated or in AND/OR modes.
    combined_score: Optional[float] = None
    results: Tuple[VerifierResult, ...] = ()


@dataclass(frozen=True)
class FusionPolicy:
    """AND / OR / score-weighted combination of verifier verdicts."""

    mode: str = "and"
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in FUSION_MODES:
            raise WearLockError(
                f"fusion mode must be one of {FUSION_MODES}, "
                f"got {self.mode!r}"
            )
        if not 0.0 <= self.threshold <= 1.0:
            raise WearLockError("fusion threshold must be in [0, 1]")

    @classmethod
    def from_spec(cls, spec: "str | FusionPolicy") -> "FusionPolicy":
        """Parse ``"and"`` / ``"or"`` / ``"score"`` / ``"score:0.6"``."""
        if isinstance(spec, FusionPolicy):
            return spec
        mode, _, thresh = str(spec).partition(":")
        if not thresh:
            return cls(mode=mode)
        try:
            return cls(mode=mode, threshold=float(thresh))
        except ValueError:
            raise WearLockError(
                f"bad fusion threshold in spec {spec!r}"
            ) from None

    def run(
        self, verifiers: Sequence[Any], ctx: Any
    ) -> FusedDecision:
        """Execute verifiers in order against a live session.

        Each result is annotated with the simulated latency and energy
        its verifier charged (timeline/meter deltas around the call).
        AND fusion short-circuits on the first evaluated rejection —
        later verifiers never run, never deliver messages, never charge
        energy — and a dead link stops the walk in every mode.
        """
        results = []
        for verifier in verifiers:
            t0 = ctx.timeline.total
            e0 = (
                ctx.watch_meter.total_joules + ctx.phone_meter.total_joules
            )
            res = verifier.verify(ctx)
            res = replace(
                res,
                latency_s=ctx.timeline.total - t0,
                energy_j=(
                    ctx.watch_meter.total_joules
                    + ctx.phone_meter.total_joules
                    - e0
                ),
            )
            results.append(res)
            if res.link_failed:
                break
            if self.mode == "and" and not res.skipped and not res.passed:
                break
        return self.combine(tuple(results))

    def combine(
        self, results: Tuple[VerifierResult, ...]
    ) -> FusedDecision:
        """Pure fusion of already-computed results (offline-safe)."""
        for res in results:
            if res.link_failed:
                return FusedDecision(
                    passed=False,
                    abort_reason="no_wireless_link",
                    link_failed=True,
                    results=results,
                )
        evaluated = [r for r in results if not r.skipped]
        if not evaluated:
            # Nothing had jurisdiction — the legacy gates also pass a
            # session when every filter is gated off.
            return FusedDecision(passed=True, results=results)
        if self.mode == "and":
            for res in evaluated:
                if not res.passed:
                    return FusedDecision(
                        passed=False,
                        abort_reason=res.abort_reason,
                        detail=res.score,
                        results=results,
                    )
            return FusedDecision(passed=True, results=results)
        if self.mode == "or":
            if any(res.passed for res in evaluated):
                return FusedDecision(passed=True, results=results)
            best = max(
                (r.normalized for r in evaluated if r.normalized is not None),
                default=None,
            )
            return FusedDecision(
                passed=False,
                abort_reason="verifier_rejected",
                detail=best,
                results=results,
            )
        # score-weighted: mean normalized confidence vs threshold.
        scores = [
            r.normalized for r in evaluated if r.normalized is not None
        ]
        if not scores:
            return FusedDecision(passed=True, results=results)
        combined = sum(scores) / len(scores)
        return FusedDecision(
            passed=combined >= self.threshold,
            abort_reason=(
                None if combined >= self.threshold else "verifier_rejected"
            ),
            detail=None if combined >= self.threshold else combined,
            combined_score=combined,
            results=results,
        )
