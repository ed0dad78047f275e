"""Pluggable proximity verifiers and their fusion policies.

The prefilter stage used to hard-code exactly two proximity signals;
this package makes the set pluggable.  A verifier implements
:class:`~repro.verifiers.base.ProximityVerifier` (score / verify),
registers under a short name, and a per-session
:class:`~repro.verifiers.fusion.FusionPolicy` decides how the
individual verdicts combine.  Four verifiers ship:

==============  ======================================================
name            signal
==============  ======================================================
``ambient``     single-profile ambient-noise correlation (Sound-Proof
                style; the legacy noise gate)
``motion-dtw``  dual-threshold DTW over accelerometer magnitudes
                (paper Alg. 1; the legacy motion gate)
``multiband``   per-octave-group ambient correlation (Sound-Proof's
                multi-band construction)
``vibration``   log-spectrum correlation of the motion windows
                (WearID-inspired resonance channel)
==============  ======================================================

The default session — ``verifiers=None``, ``fusion="and"`` — resolves
to the legacy ambient + motion-DTW pair and reproduces the seeded
goldens bit-identically.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..errors import WearLockError
from .ambient import (
    NOISE_FILTER_MIN_SIMILARITY,
    NOISE_FILTER_MIN_SPL,
    AmbientNoiseVerifier,
    ambient_gate_open,
    ambient_scores_rows,
    probe_head,
    probe_head_samples,
)
from .base import (
    ProximityEvidence,
    ProximityVerifier,
    VerifierResult,
    ensure_sensor_message,
)
from .fusion import FUSION_MODES, FusedDecision, FusionPolicy
from .motion import MotionDtwVerifier
from .multiband import (
    MULTIBAND_MIN_SIMILARITY,
    MultibandAmbientVerifier,
    multiband_similarity,
    multiband_similarity_batch,
)
from .vibration import (
    VIBRATION_MIN_SIMILARITY,
    VibrationResonanceVerifier,
    vibration_similarity,
)

__all__ = [
    "AmbientNoiseVerifier",
    "MotionDtwVerifier",
    "MultibandAmbientVerifier",
    "VibrationResonanceVerifier",
    "ProximityVerifier",
    "ProximityEvidence",
    "VerifierResult",
    "FusionPolicy",
    "FusedDecision",
    "FUSION_MODES",
    "VERIFIER_NAMES",
    "get_verifier",
    "resolve_verifier_names",
    "needs_sensor_pair",
    "ensure_sensor_message",
    "ambient_gate_open",
    "ambient_scores_rows",
    "multiband_similarity",
    "multiband_similarity_batch",
    "vibration_similarity",
    "probe_head",
    "probe_head_samples",
    "NOISE_FILTER_MIN_SPL",
    "NOISE_FILTER_MIN_SIMILARITY",
    "MULTIBAND_MIN_SIMILARITY",
    "VIBRATION_MIN_SIMILARITY",
]

_REGISTRY = {
    "ambient": AmbientNoiseVerifier,
    "motion-dtw": MotionDtwVerifier,
    "multiband": MultibandAmbientVerifier,
    "vibration": VibrationResonanceVerifier,
}

#: Registered verifier names, in canonical (default execution) order.
VERIFIER_NAMES: Tuple[str, ...] = tuple(_REGISTRY)

#: The pre-refactor verifier pair, in legacy gate order.
LEGACY_VERIFIERS: Tuple[str, ...] = ("ambient", "motion-dtw")


def get_verifier(name: str) -> ProximityVerifier:
    """A fresh instance of the verifier registered under ``name``."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise WearLockError(
            f"unknown verifier {name!r}; registered: {VERIFIER_NAMES}"
        ) from None


def resolve_verifier_names(
    verifiers: Optional[Sequence[str]],
    use_motion_filter: bool = True,
    use_noise_filter: bool = True,
) -> Tuple[str, ...]:
    """The verifier set a session runs, in order.

    ``None`` resolves to the legacy pair filtered by the feature
    flags — the configuration every pre-refactor session ran.  An
    explicit sequence is validated against the registry and returned
    as-is (the flags still act as kill-switches *inside* the affected
    verifiers, so e.g. ``use_motion_filter=False`` skips rather than
    removes a requested motion verifier).
    """
    if verifiers is None:
        names = []
        if use_noise_filter:
            names.append("ambient")
        if use_motion_filter:
            names.append("motion-dtw")
        return tuple(names)
    resolved = tuple(verifiers)
    for name in resolved:
        if name not in _REGISTRY:
            raise WearLockError(
                f"unknown verifier {name!r}; registered: {VERIFIER_NAMES}"
            )
    if len(set(resolved)) != len(resolved):
        raise WearLockError(f"duplicate verifier names in {resolved}")
    return resolved


#: Verifiers that consume the Phase-1 accelerometer windows.
_MOTION_DOMAIN = frozenset({"motion-dtw", "vibration"})

#: Verifiers that score the probe recording against the phone ambient.
AMBIENT_DOMAIN = frozenset({"ambient", "multiband"})


def needs_sensor_pair(
    names: Sequence[str], use_motion_filter: bool = True
) -> bool:
    """Does this verifier set require the sensor-capture draw?

    Gated on the motion kill-switch too: when ``use_motion_filter`` is
    off every motion-domain verifier skips, so capturing (and drawing
    rng for) the windows would be wasted — and would shift the legacy
    streams.
    """
    return use_motion_filter and bool(_MOTION_DOMAIN & set(names))
