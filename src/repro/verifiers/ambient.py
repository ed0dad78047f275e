"""Sound-Proof-style ambient-noise verifier (the legacy noise gate).

Extracted from ``PrefilterStage._noise_gate``: the phone's ambient
self-recording (captured just before the probe) is compared against the
head of the watch's probe recording with the single-profile
:class:`~repro.core.colocation.AmbientComparator` correlation.  The
score, thresholds and SPL gate are bit-identical to the pre-refactor
gate — the seeded goldens depend on it.  :func:`ambient_scores_rows`
scores both ambient fingerprints (this one and the multi-band one) for
a batch of sessions; the prefilter stage runs it.
"""

from __future__ import annotations

from typing import Any, Collection, Dict, List, Sequence

import numpy as np

from ..channel.link import partition_indices
from ..core.colocation import AmbientComparator
from ..dsp.energy import SILENCE_FLOOR_SPL_DB, signal_spl
from ..errors import WearLockError
from .base import ProximityEvidence, VerifierResult

__all__ = [
    "AmbientNoiseVerifier",
    "NOISE_FILTER_MIN_SPL",
    "NOISE_FILTER_MIN_SIMILARITY",
    "ambient_gate_open",
    "ambient_scores_rows",
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

    One definition for :func:`probe_head` and the tests that rebuild the
    scored slice — the slice length is part of the bit-identity
    contract.  ``modem`` is the session's
    :class:`~repro.config.ModemConfig`.
    """
    return max(int(0.1 * sample_rate), modem.fft_size)


def probe_head(ctx: Any) -> np.ndarray:
    """The probe-recording head slice the ambient verifiers score."""
    return ctx.probe_recording[
        : probe_head_samples(ctx.sample_rate, ctx.system.modem)
    ]


def ambient_gate_open(ctx: Any) -> bool:
    """Is the session's scene loud enough for an ambient fingerprint?

    The Sound-Proof-style filters need ambient *context*: in a
    near-silent room each microphone mostly hears its own noise floor,
    whose spectra are uncorrelated even when co-located (the limitation
    the "Sound of silence" paper addresses), so both ambient verifiers
    run only when the scene is loud enough to carry a fingerprint.
    """
    return bool(
        ctx.config.use_noise_filter
        and ctx.noise_spl_estimate >= NOISE_FILTER_MIN_SPL
    )


def _silent(x: np.ndarray) -> bool:
    return x.size == 0 or signal_spl(x) <= SILENCE_FLOOR_SPL_DB


def ambient_scores_rows(
    ambients: Sequence[np.ndarray],
    heads: Sequence[np.ndarray],
    sample_rates: Sequence[float],
    wanted: Sequence[Collection[str]],
) -> List[Dict[str, float]]:
    """Both ambient fingerprints' scores of many (ambient, head) pairs.

    Row ``i`` maps ``"ambient"`` (when in ``wanted[i]``) to
    :func:`~repro.protocol.session.ambient_similarity` and
    ``"multiband"`` (when in ``wanted[i]``) to
    :func:`~repro.verifiers.multiband.multiband_similarity` of
    ``(ambients[i], heads[i])`` at ``sample_rates[i]``, bit for bit.
    Rows sharing a sample rate and both lengths share one Welch pass per
    recording stack, which both band layouts reduce (the spectra depend
    on the sample rate alone).  Every guard of the scalars holds per
    row: an empty or silent pair (at or below
    :data:`~repro.dsp.energy.SILENCE_FLOOR_SPL_DB`) scores an ambient
    0.0, and recordings too short to fingerprint score 0.0 in both.
    The multi-band score has no silence floor.
    """
    # Imported here: the multi-band module imports this one.
    from .multiband import multiband_similarity_batch

    a = [np.asarray(x, dtype=float) for x in ambients]
    b = [np.asarray(x, dtype=float) for x in heads]
    out: List[Dict[str, float]] = [
        dict.fromkeys(set(names) & {"ambient", "multiband"}, 0.0)
        for names in wanted
    ]
    groups = partition_indices(
        (float(fs), x.size, y.size) for fs, x, y in zip(sample_rates, a, b)
    )
    for (fs, _, _), rows in groups.items():
        heard = [
            i
            for i in rows
            if "ambient" in out[i] and not (_silent(a[i]) or _silent(b[i]))
        ]
        bands = [i for i in rows if "multiband" in out[i]]
        scored = sorted(set(heard) | set(bands))
        if not scored:
            continue
        comparator = AmbientComparator(
            sample_rate=fs, high_hz=min(18_000.0, fs / 2.2)
        )
        try:
            freqs, psds_a = comparator.psd_batch(
                np.stack([a[i] for i in scored])
            )
            _, psds_b = comparator.psd_batch(
                np.stack([b[i] for i in scored])
            )
        except WearLockError:
            continue  # too short to fingerprint: every score stays 0.0
        at = {i: j for j, i in enumerate(scored)}
        if heard:
            picks = [at[i] for i in heard]
            try:
                sims = comparator.profile_similarity(
                    comparator.band_profiles(freqs, psds_a[picks]),
                    comparator.band_profiles(freqs, psds_b[picks]),
                )
            except WearLockError:
                sims = np.zeros(len(heard))
            for i, sim in zip(heard, sims):
                out[i]["ambient"] = float(sim)
        if bands:
            picks = [at[i] for i in bands]
            sims = multiband_similarity_batch(
                freqs, psds_a[picks], psds_b[picks], fs
            )
            for i, sim in zip(bands, sims):
                out[i]["multiband"] = float(sim)
    return out


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
        if not ambient_gate_open(ctx):
            return self._skipped()
        sim = ctx.verifier_scores[self.name]
        ctx.noise_similarity = sim
        return self._result(sim)
