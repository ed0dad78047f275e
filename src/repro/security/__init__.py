"""Secure unlocking (paper §IV): OTP tokens, replay defenses, NLOS gate.

The acoustic channel is assumed eavesdroppable; the wireless link is the
trusted control channel.  Security rests on:

* counter-based one-time passwords (HOTP, RFC 4226) — nothing secret
  ever crosses the acoustic channel;
* a three-strike lockout against brute force;
* a timing window bounding the acoustic round trip (record-and-replay
  adds delay);
* the RMS-delay-spread NLOS gate (a covered/blocked phone both degrades
  legitimately and resists co-located attackers).
"""

from .hotp import hotp, hotp_digits, hotp_token_bits, dynamic_truncation
from .otp import OtpManager, OtpVerification
from .tokens import token_to_bits, bits_to_token
from .timing import TimingGuard, TimingObservation
from .nlos import NlosDetector, NlosVerdict
from .attacks import (
    AttackOutcome,
    BruteForceAttacker,
    CoLocatedAttacker,
    ReplayAttacker,
    RelayAttacker,
)
from .fingerprint import (
    HardwareFingerprint,
    phase_signature,
    probe_spectrum,
    signature_distance,
)

__all__ = [
    "hotp",
    "hotp_digits",
    "hotp_token_bits",
    "dynamic_truncation",
    "OtpManager",
    "OtpVerification",
    "token_to_bits",
    "bits_to_token",
    "TimingGuard",
    "TimingObservation",
    "NlosDetector",
    "NlosVerdict",
    "AttackOutcome",
    "BruteForceAttacker",
    "CoLocatedAttacker",
    "ReplayAttacker",
    "RelayAttacker",
    "HardwareFingerprint",
    "phase_signature",
    "probe_spectrum",
    "signature_distance",
]
