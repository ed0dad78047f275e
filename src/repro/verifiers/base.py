"""The ``ProximityVerifier`` contract and its evidence types.

A *proximity verifier* is one independent piece of evidence that the
phone and the watch are on the same body in the same place — the
ambient-noise fingerprint (Sound-Proof), the motion DTW gate (paper
§V), a multi-band spectral matcher, a vibration/resonance channel
(WearID-style).  Each verifier exposes the same two-method shape:

* :meth:`~ProximityVerifier.score` turns a :class:`ProximityEvidence`
  bundle into a :class:`VerifierResult` — a score, a pass/fail verdict
  and the normalized confidence the fusion policies combine;
* :meth:`~ProximityVerifier.verify` judges a live
  :class:`~repro.core.stages.SessionContext`: it applies the
  verifier's gates, charges its messages and compute, and reads its
  score from ``ctx.verifier_scores``, where the stage holding the
  score's inputs put it (sensor capture the motion scores, the
  prefilter the ambient fingerprints, each over a batch of rows).

The split matters because the security experiments score attacker-
crafted evidence *offline* (no session, no timeline) through
``score``, so the verifier logic lives in one place for both the
protocol and the red team.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "VerifierResult",
    "ProximityEvidence",
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

    The security experiments fill it from attacker models (replayed
    ambient from the wrong room, a stranger's accelerometer trace) and
    from legitimate captures — see :mod:`repro.security.attacks`.
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

    def score(self, evidence: ProximityEvidence) -> VerifierResult:
        """Score evidence (pure; shared by session and offline paths)."""
        ...  # pragma: no cover - protocol

    def verify(self, ctx: Any) -> VerifierResult:
        """Judge a live session on the score its stage recorded."""
        ...  # pragma: no cover - protocol
