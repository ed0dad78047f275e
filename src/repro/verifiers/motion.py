"""Motion-DTW verifier (paper Algorithm 1, the legacy motion gate).

Extracted from ``PrefilterStage._motion_gate``: the watch ships its
accelerometer window over the wireless link, the phone runs the
dual-threshold DTW filter, and the fast-path verdict feeds the MaxBER
policy.  Message sizes, timeline labels and compute charges are
bit-identical to the pre-refactor gate.  The DTW score itself is
computed by the sensor-capture stage, in one wavefront per batch of
sessions, and only the thresholds run here.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..devices.compute import dtw_workload
from ..sensors.motion_filter import MotionDecision, MotionFilter, MotionReport
from .base import ProximityEvidence, VerifierResult, ensure_sensor_message

__all__ = ["MotionDtwVerifier"]


class MotionDtwVerifier:
    """Dual-threshold DTW over accelerometer magnitudes (paper §V)."""

    name = "motion-dtw"
    abort_reason = "motion_mismatch"

    def _result(
        self, report: MotionReport, dtw_high: float
    ) -> VerifierResult:
        # DTW is a *distance*: 0 means identical motion.  Map onto the
        # fusion scale so the abort threshold lands at normalized 0.
        normalized = 1.0 - float(
            np.clip(report.score / dtw_high, 0.0, 1.0)
        )
        return VerifierResult(
            name=self.name,
            score=float(report.score),
            passed=report.decision is not MotionDecision.ABORT,
            abort_reason=self.abort_reason,
            normalized=normalized,
            fast_path=report.decision is MotionDecision.FAST_PATH,
        )

    def _skipped(self) -> VerifierResult:
        return VerifierResult(
            name=self.name,
            score=None,
            passed=True,
            abort_reason=self.abort_reason,
            skipped=True,
        )

    def score(self, evidence: ProximityEvidence) -> VerifierResult:
        if evidence.phone_motion is None or evidence.watch_motion is None:
            return self._skipped()
        motion_filter = MotionFilter()
        report = motion_filter.evaluate(
            evidence.phone_motion, evidence.watch_motion
        )
        return self._result(report, motion_filter.config.dtw_high)

    def verify(self, ctx: Any) -> VerifierResult:
        if not ctx.config.use_motion_filter:
            return self._skipped()
        if not ensure_sensor_message(ctx):
            # Fail closed: without the watch's sensor window the motion
            # gate cannot vouch for co-location.
            return VerifierResult(
                name=self.name,
                score=None,
                passed=False,
                abort_reason=self.abort_reason,
                link_failed=True,
            )
        dtw_s = ctx.phone_meter.record_compute(dtw_workload(100, 100).mops)
        ctx.timeline.record("dtw_on_phone", dtw_s, "compute_p1")
        motion = ctx.phone.motion_filter.classify(
            ctx.verifier_scores[self.name]
        )
        ctx.motion_score = motion.score
        ctx.fast_path = motion.decision is MotionDecision.FAST_PATH
        return self._result(
            motion, ctx.phone.motion_filter.config.dtw_high
        )
