"""Sound-Proof-style multi-band ambient verifier.

Where :class:`~repro.verifiers.ambient.AmbientNoiseVerifier` correlates
one 18-band fingerprint, this verifier follows Sound-Proof's actual
construction more closely: it splits a finer (24-band) fingerprint into
contiguous octave *groups* — low / mid / high — correlates each group
independently, and averages the per-group correlations.  A replayed
recording that happens to match the broad spectral tilt of the victim's
room (one strong global correlation) still has to match the fine
structure inside every group, so the multi-band score is the harder
target for an attacker who only controls part of the spectrum.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from ..core.colocation import AmbientComparator
from ..errors import WearLockError
from .ambient import NOISE_FILTER_MIN_SPL, probe_head, probe_spectra
from .base import ProximityEvidence, VerifierResult

__all__ = [
    "MultibandAmbientVerifier",
    "multiband_similarity",
    "multiband_similarity_batch",
    "MULTIBAND_N_BANDS",
    "MULTIBAND_N_GROUPS",
    "MULTIBAND_MIN_SIMILARITY",
]

#: Fingerprint resolution and its partition into contiguous groups.
MULTIBAND_N_BANDS = 24
MULTIBAND_N_GROUPS = 3

#: Pass threshold on the mean per-group correlation.  Deliberately the
#: *strict* ambient channel: in-session (probe-contaminated head) the
#: legit 5th percentile sits at ≈0.35 in office/cafe/grocery but dips
#: below zero in tonal rooms like the classroom — multiband under AND
#: fusion trades availability for the finer fingerprint, which is
#: exactly the trade the verifier × fusion matrix measures.
MULTIBAND_MIN_SIMILARITY = 0.2


def _comparator(sample_rate: float) -> AmbientComparator:
    return AmbientComparator(
        sample_rate=sample_rate,
        high_hz=min(18_000.0, sample_rate / 2.2),
        n_bands=MULTIBAND_N_BANDS,
    )


def multiband_similarity_batch(
    freqs: np.ndarray,
    psds_a: np.ndarray,
    psds_b: np.ndarray,
    sample_rate: float,
) -> np.ndarray:
    """Row-wise :func:`multiband_similarity` of two stacks' Welch spectra.

    ``(freqs, psds_a)`` and ``(freqs, psds_b)`` come from
    :meth:`~repro.core.colocation.AmbientComparator.psd_batch` at
    ``sample_rate`` — any comparator's, since the spectra depend on the
    sample rate alone, so a caller that already scores the pair at 18
    bands hands its spectra on.  Each stack is fingerprinted in one
    band reduction; the per-group correlations run per pair.  Spectra
    too coarse to fill three bands score 0.0 in every row.
    """
    comparator = _comparator(sample_rate)
    out = np.zeros(psds_a.shape[0])
    try:
        pa = comparator.band_profiles(freqs, psds_a)
        pb = comparator.band_profiles(freqs, psds_b)
    except WearLockError:
        return out
    # One ``freqs`` gives both stacks the same bands, so rows align.
    for i in range(out.size):
        corrs = []
        for ga, gb in zip(
            np.array_split(pa[i], MULTIBAND_N_GROUPS),
            np.array_split(pb[i], MULTIBAND_N_GROUPS),
        ):
            if ga.size < 2 or np.std(ga) < 1e-12 or np.std(gb) < 1e-12:
                corrs.append(0.0)
            else:
                corrs.append(float(np.corrcoef(ga, gb)[0, 1]))
        out[i] = float(np.mean(corrs))
    return out


def multiband_similarity(
    a: np.ndarray,
    b: np.ndarray,
    sample_rate: float,
    spectra: Optional[Tuple[np.ndarray, ...]] = None,
) -> float:
    """Mean per-group band-profile correlation, in [-1, 1].

    Degenerate inputs score 0.0 rather than raising: a recording too
    short to fingerprint, or a group with a flat profile, carries no
    co-location evidence either way — same convention as
    :func:`repro.protocol.session.ambient_similarity`.  ``spectra`` is
    the pair's ``(freqs, psd_a, psd_b)`` Welch pass when the caller
    holds it (:func:`~repro.verifiers.ambient.probe_spectra`); ``None``
    runs it here.  One-row call of :func:`multiband_similarity_batch`.
    """
    if spectra is None:
        comparator = _comparator(sample_rate)
        try:
            freqs, pa = comparator.psd_batch(
                np.asarray(a, dtype=float)[None, ...]
            )
            _, pb = comparator.psd_batch(np.asarray(b, dtype=float)[None, ...])
        except WearLockError:
            return 0.0
        spectra = (freqs, pa, pb)
    return float(multiband_similarity_batch(*spectra, sample_rate)[0])


class MultibandAmbientVerifier:
    """Per-octave-group ambient correlation (Sound-Proof construction)."""

    name = "multiband"
    abort_reason = "multiband_mismatch"

    threshold = MULTIBAND_MIN_SIMILARITY

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
        if evidence.phone_ambient is None or evidence.watch_ambient is None:
            return self._skipped()
        sim = multiband_similarity(
            evidence.phone_ambient,
            evidence.watch_ambient,
            evidence.sample_rate,
        )
        return self._result(sim)

    def verify(self, ctx: Any) -> VerifierResult:
        # Same silence gate as the single-profile verifier: a quiet
        # scene carries no fingerprint in *any* band group.
        if (
            not ctx.config.use_noise_filter
            or ctx.noise_spl_estimate < NOISE_FILTER_MIN_SPL
        ):
            return self._skipped()
        staged_sim = self._staged(ctx)
        if staged_sim is not None and not ctx.extras.get(
            "multiband_sim_staged"
        ):
            # Consumed once, like the single-profile score: a re-probe
            # records fresh audio that must be scored live.
            ctx.extras["multiband_sim_staged"] = True
            sim = staged_sim
        else:
            sim = multiband_similarity(
                ctx.phone_ambient,
                probe_head(ctx),
                ctx.sample_rate,
                probe_spectra(ctx),
            )
        return self._result(sim)

    @staticmethod
    def _staged(ctx: Any) -> Optional[float]:
        pre = ctx.precomputed
        if pre is None:
            return None
        evidence = getattr(pre, "evidence", None)
        return (
            evidence.multiband_similarity if evidence is not None else None
        )
