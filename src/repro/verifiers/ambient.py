"""Sound-Proof-style ambient-noise verifier (the legacy noise gate).

Extracted from ``PrefilterStage._noise_gate``: the phone's ambient
self-recording (captured just before the probe) is compared against the
head of the watch's probe recording with the single-profile
:class:`~repro.core.colocation.AmbientComparator` correlation.  The
score, thresholds, staging semantics and SPL gate are bit-identical to
the pre-refactor gate — the seeded goldens depend on it.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .base import ProximityEvidence, VerifierResult

__all__ = [
    "AmbientNoiseVerifier",
    "NOISE_FILTER_MIN_SPL",
    "NOISE_FILTER_MIN_SIMILARITY",
    "probe_head",
    "probe_head_samples",
]

#: Sound-Proof-style gate parameters (paper §V / DESIGN.md §5).  These
#: are the canonical definitions; :mod:`repro.protocol.stages` re-exports
#: them for backwards compatibility.
NOISE_FILTER_MIN_SPL = 35.0
NOISE_FILTER_MIN_SIMILARITY = 0.25


def probe_head_samples(sample_rate: float, modem: Any) -> int:
    """Length of the probe-recording head the ambient verifiers score.

    One definition shared by the live session path (:func:`probe_head`)
    and the fleet executor's batched scoring — the slice length is part
    of the bit-identity contract.  ``modem`` is the session's
    :class:`~repro.config.ModemConfig`.
    """
    return max(int(0.1 * sample_rate), modem.fft_size)


def probe_head(ctx: Any) -> np.ndarray:
    """The probe-recording head slice the ambient verifiers score."""
    return ctx.probe_recording[
        : probe_head_samples(ctx.sample_rate, ctx.system.modem)
    ]


class AmbientNoiseVerifier:
    """Single-profile ambient similarity (Sound-Proof, paper §V)."""

    name = "ambient"
    abort_reason = "noise_mismatch"

    threshold = NOISE_FILTER_MIN_SIMILARITY

    def _result(self, sim: float) -> VerifierResult:
        return VerifierResult(
            name=self.name,
            score=float(sim),
            passed=bool(sim >= self.threshold),
            abort_reason=self.abort_reason,
            normalized=float(np.clip((sim + 1.0) / 2.0, 0.0, 1.0)),
        )

    def _skipped(self) -> VerifierResult:
        return VerifierResult(
            name=self.name,
            score=None,
            passed=True,
            abort_reason=self.abort_reason,
            skipped=True,
        )

    def prepare(self, ctx: Any) -> ProximityEvidence:
        return ProximityEvidence(
            sample_rate=ctx.sample_rate,
            phone_ambient=ctx.phone_ambient,
            watch_ambient=probe_head(ctx),
        )

    def score(self, evidence: ProximityEvidence) -> VerifierResult:
        from ..protocol.session import ambient_similarity

        if evidence.phone_ambient is None or evidence.watch_ambient is None:
            return self._skipped()
        sim = ambient_similarity(
            evidence.phone_ambient,
            evidence.watch_ambient,
            evidence.sample_rate,
        )
        return self._result(sim)

    def verify(self, ctx: Any) -> VerifierResult:
        # The Sound-Proof-style filter needs ambient *context*: in a
        # near-silent room each microphone mostly hears its own noise
        # floor, whose spectra are uncorrelated even when co-located
        # (the limitation the "Sound of silence" paper addresses), so
        # the filter only runs when the scene is loud enough to carry
        # a fingerprint.
        if (
            not ctx.config.use_noise_filter
            or ctx.noise_spl_estimate < NOISE_FILTER_MIN_SPL
        ):
            return self._skipped()
        staged_sim = self._staged(ctx)
        if staged_sim is not None and not ctx.extras.get("noise_sim_staged"):
            # Batched Welch-PSD fingerprints over the shard's staged
            # recordings, bit-identical to scoring them here; consumed
            # once so a re-probe's fresh recording is scored live.
            ctx.extras["noise_sim_staged"] = True
            sim = staged_sim
        else:
            from ..protocol.session import ambient_similarity

            sim = ambient_similarity(
                ctx.phone_ambient, probe_head(ctx), ctx.sample_rate
            )
        ctx.noise_similarity = sim
        return self._result(sim)

    @staticmethod
    def _staged(ctx: Any) -> Optional[float]:
        pre = ctx.precomputed
        if pre is None:
            return None
        evidence = getattr(pre, "evidence", None)
        return evidence.noise_similarity if evidence is not None else None
