"""The ``ProximityVerifier`` contract and its evidence types.

A *proximity verifier* is one independent piece of evidence that the
phone and the watch are on the same body in the same place — the
ambient-noise fingerprint (Sound-Proof), the motion DTW gate (paper
§V), a multi-band spectral matcher, a vibration/resonance channel
(WearID-style).  Each verifier exposes the same three-method shape:

* :meth:`~ProximityVerifier.prepare` gathers the raw signals it needs
  (possibly costing wireless messages or compute time) and returns a
  :class:`ProximityEvidence` bundle;
* :meth:`~ProximityVerifier.score` turns evidence into a
  :class:`VerifierResult` — a score, a pass/fail verdict and the
  normalized confidence the fusion policies combine;
* :meth:`~ProximityVerifier.verify` composes the two against a live
  :class:`~repro.core.stages.SessionContext`, honouring the staged
  (shard-batched) fast path of :class:`PrecomputedVerifierEvidence`.

The split matters because the security experiments score attacker-
crafted evidence *offline* (no session, no timeline) through exactly
the ``prepare``-free half of the interface, so the verifier logic
lives in one place for both the protocol and the red team.

Staging contract: the fleet executor precomputes verifier scores in
shard batches and parks them on :class:`PrecomputedVerifierEvidence`.
The field names are typed — one dataclass field per registered
verifier, checked by ``tests/test_verifiers.py`` — so a staging key
can never silently drift away from the verifier that consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "VerifierResult",
    "ProximityEvidence",
    "PrecomputedVerifierEvidence",
    "ProximityVerifier",
    "ensure_sensor_message",
]


@dataclass(frozen=True)
class VerifierResult:
    """One verifier's verdict on one attempt.

    ``score`` is the verifier's native scale (correlation, DTW
    distance, ...); ``normalized`` maps it onto [0, 1] with 1 meaning
    "certainly co-located", the shared scale the score-weighted fusion
    policy averages over.  ``skipped`` marks a verifier whose gate did
    not apply (too quiet a scene, feature disabled) — skipped results
    count as neutral in every fusion mode, exactly as the legacy gates
    returned "pass, no score".  ``link_failed`` marks evidence that
    could not be gathered because the wireless link died mid-fetch;
    the session fails closed on it regardless of fusion mode.
    """

    name: str
    score: Optional[float]
    passed: bool
    abort_reason: str = "verifier_rejected"
    normalized: Optional[float] = None
    skipped: bool = False
    fast_path: bool = False
    link_failed: bool = False
    #: Simulated seconds this verifier added to the attempt.
    latency_s: float = 0.0
    #: Joules (watch + phone) this verifier charged.
    energy_j: float = 0.0


@dataclass(frozen=True)
class ProximityEvidence:
    """The raw signals a verifier scores, bundled for offline use.

    The session path fills this from the live
    :class:`~repro.core.stages.SessionContext`; the security
    experiments fill it from attacker models (replayed ambient from the
    wrong room, a stranger's accelerometer trace) — see
    :mod:`repro.security.attacks`.
    """

    sample_rate: float
    #: Phone-side ambient self-recording (1-D samples).
    phone_ambient: Optional[np.ndarray] = None
    #: Watch-side ambient segment (in-session: the probe-recording head).
    watch_ambient: Optional[np.ndarray] = None
    #: Phone 3-axis accelerometer window, shape ``(n, 3)``.
    phone_motion: Optional[np.ndarray] = None
    #: Watch 3-axis accelerometer window, shape ``(n, 3)``.
    watch_motion: Optional[np.ndarray] = None


@dataclass(frozen=True)
class PrecomputedVerifierEvidence:
    """Typed shard-staged verifier scores (one field per verifier).

    Replaces the stringly-typed ``motion_score`` / ``noise_similarity``
    attributes that used to live directly on ``PrecomputedStages``:
    every staged score now has a declared slot, and the mapping from
    verifier name to field is pinned by :data:`repro.verifiers.
    registry.EVIDENCE_FIELD_BY_VERIFIER` so staging keys cannot drift
    from verifier names.

    Consumption semantics differ per field and mirror what the score
    depends on: ``noise_similarity`` and ``multiband_similarity``
    derive from the probe recording, so they are consumed **once** (a
    re-probe retry records fresh audio and scores it live);
    ``motion_score`` and ``vibration_similarity`` derive from the
    sensor window, which a re-probe does not redraw, so they stay
    valid for the whole attempt.
    """

    motion_score: Optional[float] = None
    noise_similarity: Optional[float] = None
    multiband_similarity: Optional[float] = None
    vibration_similarity: Optional[float] = None


def ensure_sensor_message(ctx: Any) -> bool:
    """Deliver the watch's sensor window once per prefilter pass.

    The watch sends one ``msg_sensor`` message per prefilter execution
    no matter how many motion-domain verifiers consume it; the stage
    clears the ``sensor_msg_delivered`` flag when it (re-)enters, so a
    re-probe retry pays for a fresh delivery exactly as the legacy gate
    did.  Returns ``False`` when every resend was dropped — the caller
    must fail closed (``link_failed``).
    """
    if ctx.extras.get("sensor_msg_delivered"):
        return True
    from ..protocol.stages import deliver_message

    sensor_msg = deliver_message(ctx, 24 + 400, "msg_sensor")
    if sensor_msg is None:
        return False
    ctx.extras["sensor_msg_delivered"] = True
    return True


@runtime_checkable
class ProximityVerifier(Protocol):
    """The pluggable co-location check the prefilter stage composes."""

    #: Registry name (``SessionConfig.verifiers`` entries).
    name: str
    #: Stage abort reason when this verifier rejects under AND fusion.
    abort_reason: str

    def prepare(self, ctx: Any) -> ProximityEvidence:
        """Gather this verifier's evidence from a live session."""
        ...  # pragma: no cover - protocol

    def score(self, evidence: ProximityEvidence) -> VerifierResult:
        """Score evidence (pure; shared by session and offline paths)."""
        ...  # pragma: no cover - protocol

    def verify(self, ctx: Any) -> VerifierResult:
        """prepare + score against a session, honouring staged values."""
        ...  # pragma: no cover - protocol
